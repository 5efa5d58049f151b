//! Per-job end-to-end traces.
//!
//! Every admitted job accumulates a [`JobTrace`]: a bounded list of typed,
//! timestamped events covering its whole lifecycle — admission, queue wait,
//! slot checkout (with the session generation that served it), every
//! attempt's failure classification and backoff, pipeline stage
//! transitions (via the refine `StageCallback`), and the terminal state.
//! The trace answers "where did *this* job's latency go?", which
//! `/metrics` aggregates cannot.
//!
//! Timestamps are seconds since the job was *submitted*, measured on the
//! record's monotonic clock and clamped non-decreasing on push. The trace
//! is served at `GET /jobs/<id>/trace` as JSON, and rendered as Chrome
//! Trace Event JSON (`?format=chrome`) through the existing
//! [`pi2m_obs::export::render_chrome_trace`] path so Perfetto draws the
//! same timeline the analyzer summarizes.

use crate::job::{job_name, JobId, JobStatus, Priority};
use pi2m_obs::inspect::ArtifactKind;
use pi2m_obs::journal::Level;
use pi2m_obs::json::Json;
use pi2m_obs::metrics::ObsEvent;
use pi2m_obs::report::TraceSpan;
use pi2m_refine::Stage;
use std::sync::Arc;

/// Version of the trace wire schema (`schema` in the JSON, beside `kind`
/// `"job_trace"`): the one `pi2m analyze` reads.
pub const TRACE_SCHEMA_VERSION: u32 = ArtifactKind::JobTrace.schema();

/// Hard cap on events per job. A retry storm is the worst case (each
/// attempt adds a checkout, its stages, a failure and a backoff); past the
/// cap the trace drops further events and records how many were lost, so a
/// pathological job cannot grow its record without bound.
pub const TRACE_EVENT_CAP: usize = 512;

/// Events of a job that ends on its first attempt: admitted, queue wait,
/// checkout, a start and a finish per pipeline stage, and terminal. A trace
/// reserves this much at its first push, so a clean job never reallocates.
pub const ONE_ATTEMPT_EVENTS: usize = 4 + 2 * Stage::ALL.len();

/// One lifecycle moment. `t_s` is seconds since submission.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    pub t_s: f64,
    pub kind: TraceEventKind,
}

/// The typed things that can happen to a job, in the order they can
/// happen. Wire names (the JSON `kind` field) are the snake_case of the
/// variant.
#[derive(Clone, Debug)]
pub enum TraceEventKind {
    /// Passed admission control into the priority queue.
    Admitted {
        priority: Priority,
        queue_depth: usize,
    },
    /// Popped by a slot; `wait_s` is the time spent queued.
    QueueWait { wait_s: f64 },
    /// An attempt checked out a session slot.
    Checkout {
        attempt: u32,
        slot: usize,
        session_generation: u64,
    },
    /// A pipeline stage began (`run_t_s` is seconds since the *attempt's*
    /// run origin, as reported by the refine stage callback).
    StageStarted { stage: &'static str, run_t_s: f64 },
    /// A pipeline stage finished.
    StageFinished { stage: &'static str, run_t_s: f64 },
    /// An attempt died with a classified failure.
    AttemptFailed {
        attempt: u32,
        kind: &'static str,
        class: &'static str,
        will_retry: bool,
    },
    /// The retry loop is sleeping before the next attempt.
    Backoff { attempt: u32, backoff_s: f64 },
    /// The job reached its terminal state.
    Terminal { status: JobStatus, attempts: u32 },
}

impl TraceEventKind {
    /// The JSON `kind` discriminant.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Admitted { .. } => "admitted",
            TraceEventKind::QueueWait { .. } => "queue_wait",
            TraceEventKind::Checkout { .. } => "checkout",
            TraceEventKind::StageStarted { .. } => "stage_started",
            TraceEventKind::StageFinished { .. } => "stage_finished",
            TraceEventKind::AttemptFailed { .. } => "attempt_failed",
            TraceEventKind::Backoff { .. } => "backoff",
            TraceEventKind::Terminal { .. } => "terminal",
        }
    }

    /// The level of the event's journal line `job.<name>`: admissions
    /// and successes at info, failures at warn, the rest (queue wait,
    /// checkouts, stages, backoffs) at debug.
    pub(crate) fn journal_level(&self) -> Level {
        match self {
            TraceEventKind::Admitted { .. }
            | TraceEventKind::Terminal {
                status: JobStatus::Succeeded,
                ..
            } => Level::Info,
            TraceEventKind::AttemptFailed { .. } | TraceEventKind::Terminal { .. } => Level::Warn,
            _ => Level::Debug,
        }
    }

    /// The event's fields, shared by its trace JSON and its journal line.
    pub(crate) fn fields(&self) -> Vec<(&'static str, Json)> {
        match self {
            TraceEventKind::Admitted {
                priority,
                queue_depth,
            } => vec![
                ("priority", Json::str(priority.as_str())),
                ("queue_depth", Json::int(*queue_depth as u64)),
            ],
            TraceEventKind::QueueWait { wait_s } => vec![("wait_s", Json::num(*wait_s))],
            TraceEventKind::Checkout {
                attempt,
                slot,
                session_generation,
            } => vec![
                ("attempt", Json::int(*attempt as u64)),
                ("slot", Json::int(*slot as u64)),
                ("session_generation", Json::int(*session_generation)),
            ],
            TraceEventKind::StageStarted { stage, run_t_s }
            | TraceEventKind::StageFinished { stage, run_t_s } => vec![
                ("stage", Json::str(*stage)),
                ("run_t_s", Json::num(*run_t_s)),
            ],
            TraceEventKind::AttemptFailed {
                attempt,
                kind,
                class,
                will_retry,
            } => vec![
                ("attempt", Json::int(*attempt as u64)),
                ("error_kind", Json::str(*kind)),
                ("class", Json::str(*class)),
                ("will_retry", Json::Bool(*will_retry)),
            ],
            TraceEventKind::Backoff { attempt, backoff_s } => vec![
                ("attempt", Json::int(*attempt as u64)),
                ("backoff_s", Json::num(*backoff_s)),
            ],
            TraceEventKind::Terminal { status, attempts } => vec![
                ("status", Json::str(status.as_str())),
                ("attempts", Json::int(*attempts as u64)),
            ],
        }
    }
}

/// The accumulated lifecycle of one job. Owned by the job record; pushed
/// to under the service's jobs lock.
///
/// The events live behind an [`Arc`], so a record snapshot (every poll, every
/// listing) shares them instead of copying; a push to a shared trace copies
/// it once ([`Arc::make_mut`]). A finished trace is held at its exact size.
#[derive(Clone, Debug, Default)]
pub struct JobTrace {
    events: Arc<Vec<TraceEvent>>,
    /// Events dropped past [`TRACE_EVENT_CAP`].
    dropped: u64,
}

impl JobTrace {
    /// Append one event, clamping `t_s` so the timeline never goes
    /// backwards even if pushes race on coarse clocks.
    pub fn push(&mut self, t_s: f64, kind: TraceEventKind) {
        if self.events.len() >= TRACE_EVENT_CAP {
            self.dropped += 1;
            return;
        }
        let floor = self.events.last().map(|e| e.t_s).unwrap_or(0.0);
        let events = Arc::make_mut(&mut self.events);
        // Room for one whole attempt at once (a copy made by `make_mut`
        // holds only what it copied); a retried job grows past it as usual.
        events.reserve_exact(ONE_ATTEMPT_EVENTS.saturating_sub(events.len()));
        events.push(TraceEvent {
            t_s: t_s.max(floor),
            kind,
        });
    }

    /// Drop the spare capacity of a trace that takes no further event.
    pub(crate) fn shrink_to_fit(&mut self) {
        if self.events.capacity() > self.events.len() {
            Arc::make_mut(&mut self.events).shrink_to_fit();
        }
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Event slots the trace holds, used or not.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.events.capacity()
    }

    /// The wire form served at `GET /jobs/<id>/trace`.
    pub fn to_json(&self, id: JobId) -> Json {
        let events: Vec<Json> = self
            .events
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("t_s", Json::num((e.t_s * 1e6).round() / 1e6)),
                    ("kind", Json::str(e.kind.name())),
                ];
                fields.extend(e.kind.fields());
                Json::obj(fields)
            })
            .collect();
        let mut fields = ArtifactKind::JobTrace.envelope();
        fields.push(("id", Json::str(job_name(id))));
        fields.push(("events", Json::Arr(events)));
        if self.dropped > 0 {
            fields.push(("events_dropped", Json::int(self.dropped)));
        }
        Json::obj(fields)
    }

    /// Chrome Trace Event JSON for `?format=chrome`.
    ///
    /// Durations are reconstructed from the typed events: the queue wait
    /// becomes a span ending at its record time, stage started/finished
    /// pairs become pipeline spans (per attempt — a retried job shows each
    /// attempt's stages). Instant lifecycle moments (checkout, failures,
    /// backoff, terminal) render as zero-duration markers.
    pub fn to_chrome_trace(&self) -> String {
        let mut phases: Vec<TraceSpan> = Vec::new();
        let mut events: Vec<(u32, ObsEvent)> = Vec::new();
        // Open stage starts awaiting their finish, by stage name.
        let mut open: Vec<(&'static str, f64, f64)> = Vec::new(); // (stage, t_s, run_t_s)
        for e in self.events.iter() {
            match &e.kind {
                TraceEventKind::QueueWait { wait_s } => phases.push(TraceSpan {
                    name: "queue_wait",
                    start_s: (e.t_s - wait_s).max(0.0),
                    dur_s: *wait_s,
                }),
                TraceEventKind::StageStarted { stage, run_t_s } => {
                    open.push((stage, e.t_s, *run_t_s));
                }
                TraceEventKind::StageFinished { stage, run_t_s } => {
                    if let Some(pos) = open.iter().rposition(|(s, _, _)| s == stage) {
                        let (name, t_s, started_run_t) = open.remove(pos);
                        phases.push(TraceSpan {
                            name,
                            start_s: t_s,
                            dur_s: (run_t_s - started_run_t).max(0.0),
                        });
                    }
                }
                other => {
                    events.push((
                        0,
                        ObsEvent {
                            name: other.name(),
                            cat: "job",
                            at_s: e.t_s,
                            dur_s: 0.0,
                        },
                    ));
                }
            }
        }
        pi2m_obs::export::render_chrome_trace(&phases, &events, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobTrace {
        let mut t = JobTrace::default();
        t.push(
            0.0,
            TraceEventKind::Admitted {
                priority: Priority::High,
                queue_depth: 2,
            },
        );
        t.push(0.5, TraceEventKind::QueueWait { wait_s: 0.5 });
        t.push(
            0.5,
            TraceEventKind::Checkout {
                attempt: 1,
                slot: 0,
                session_generation: 0,
            },
        );
        t.push(
            0.6,
            TraceEventKind::StageStarted {
                stage: "load",
                run_t_s: 0.0,
            },
        );
        t.push(
            0.7,
            TraceEventKind::StageFinished {
                stage: "load",
                run_t_s: 0.1,
            },
        );
        t.push(
            1.0,
            TraceEventKind::Terminal {
                status: JobStatus::Succeeded,
                attempts: 1,
            },
        );
        t
    }

    #[test]
    fn json_wire_form_is_versioned_and_ordered() {
        let j = sample().to_json(9);
        assert_eq!(j.get("kind").unwrap().as_str(), Some("job_trace"));
        assert_eq!(
            j.get("schema").unwrap().as_f64(),
            Some(TRACE_SCHEMA_VERSION as f64)
        );
        assert_eq!(j.get("id").unwrap().as_str(), Some("job-9"));
        let events = j.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 6);
        assert_eq!(events[0].get("kind").unwrap().as_str(), Some("admitted"));
        assert_eq!(
            events.last().unwrap().get("kind").unwrap().as_str(),
            Some("terminal")
        );
        let mut last = -1.0;
        for e in events {
            let t = e.get("t_s").unwrap().as_f64().unwrap();
            assert!(t >= last, "timestamps must be non-decreasing");
            last = t;
        }
    }

    #[test]
    fn push_clamps_backwards_timestamps() {
        let mut t = JobTrace::default();
        t.push(2.0, TraceEventKind::QueueWait { wait_s: 2.0 });
        t.push(
            1.0, // coarse clock went backwards
            TraceEventKind::Terminal {
                status: JobStatus::Failed,
                attempts: 1,
            },
        );
        assert_eq!(t.events()[1].t_s, 2.0);
    }

    /// A clone shares the events; a push to a shared trace copies them
    /// once, with room for a whole attempt, and leaves the clone as it was.
    #[test]
    fn clones_share_events_until_a_push() {
        let mut t = sample();
        let snapshot = t.clone();
        assert_eq!(snapshot.events().as_ptr(), t.events().as_ptr());
        t.push(1.5, TraceEventKind::QueueWait { wait_s: 0.0 });
        assert_ne!(snapshot.events().as_ptr(), t.events().as_ptr());
        assert_eq!((snapshot.events().len(), t.events().len()), (6, 7));
        assert_eq!(t.capacity(), ONE_ATTEMPT_EVENTS);
        t.shrink_to_fit();
        assert_eq!(t.capacity(), 7);
    }

    #[test]
    fn event_cap_bounds_the_trace_and_counts_drops() {
        let mut t = JobTrace::default();
        for i in 0..(TRACE_EVENT_CAP + 10) {
            t.push(i as f64, TraceEventKind::QueueWait { wait_s: 0.0 });
        }
        assert_eq!(t.events().len(), TRACE_EVENT_CAP);
        let j = t.to_json(1);
        assert_eq!(j.get("events_dropped").unwrap().as_f64(), Some(10.0));
    }

    #[test]
    fn wire_form_round_trips_through_the_offline_analyzer() {
        // the saved trace must be what `pi2m analyze` autodetects
        let text = sample().to_json(9).dump_pretty();
        let art = pi2m_obs::inspect::load_artifact(&text).expect("analyzer loads the trace");
        let pi2m_obs::inspect::Artifact::Trace(info) = &art else {
            panic!("loaded as a {}", art.kind().name());
        };
        assert_eq!(info.id, "job-9");
        assert_eq!(info.queue_wait_s, Some(0.5));
        assert_eq!(info.checkouts, vec![0]);
        assert_eq!(info.stages, vec![("load".to_string(), 0.1)]);
        assert_eq!(info.terminal.as_ref().unwrap().0, "succeeded");
        let s = pi2m_obs::inspect::render_summary(&art);
        assert!(s.contains("job trace (job-9"), "{s}");
    }

    #[test]
    fn chrome_export_pairs_stages_and_parses() {
        let txt = sample().to_chrome_trace();
        let v = pi2m_obs::json::parse(&txt).expect("chrome trace parses");
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        // queue_wait and the paired load stage render as complete spans
        let complete: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(complete.contains(&"queue_wait"), "{complete:?}");
        assert!(complete.contains(&"load"), "{complete:?}");
    }
}
