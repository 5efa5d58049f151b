//! Job specifications, typed terminal states, and the per-job record the
//! service keeps for polling.
//!
//! Every submitted job ends in exactly one typed terminal state:
//! `Succeeded`, `Failed` (with the typed error that killed it), or
//! `Cancelled` (its deadline passed). Jobs that never enter the system —
//! shed at admission because the queue was full or the service was
//! draining — are rejected synchronously with a typed
//! [`AdmitError`](crate::queue::AdmitError) and never get a record.

use crate::trace::JobTrace;
use pi2m_obs::json::Json;
use std::path::PathBuf;
use std::time::Instant;

/// Job identifier, rendered as `job-<n>` on the wire.
pub type JobId = u64;

/// Render a [`JobId`] the way the HTTP API spells it.
pub fn job_name(id: JobId) -> String {
    format!("job-{id}")
}

/// Parse a `job-<n>` path segment back into a [`JobId`].
pub fn parse_job_name(name: &str) -> Option<JobId> {
    name.strip_prefix("job-")?.parse().ok()
}

/// Admission priority. Within a class the queue is FIFO; across classes,
/// higher always pops first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    High,
    Normal,
    Low,
}

impl Priority {
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Index into the queue's class array (0 pops first).
    pub(crate) fn class(&self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// A meshing job as submitted by a client.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// `phantom:NAME` or a `.pim` path readable by the server.
    pub input: String,
    /// Surface sampling density δ; defaults to `2 * min_spacing` per image.
    pub delta: Option<f64>,
    /// Worker threads for this job, capped at the slot's session width.
    pub threads: Option<usize>,
    pub priority: Priority,
    /// Wall-clock budget measured from *submission*; queue wait counts
    /// against it. `None` falls back to the service default (possibly
    /// unlimited).
    pub deadline_s: Option<f64>,
    /// Per-job override of the service retry budget.
    pub max_retries: Option<u32>,
    /// Shard grid `[x, y, z]`: mesh as overlapping chunks and stitch the
    /// seams instead of one monolithic run. Submitted as `"shards":"AxBxC"`.
    pub shards: Option<[usize; 3]>,
    /// Halo overlap in voxels for a sharded job (δ-derived when absent).
    pub halo: Option<usize>,
}

impl JobSpec {
    /// Parse a submission body. Unknown fields are rejected so client typos
    /// fail loudly instead of silently meshing with defaults.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let Json::Obj(fields) = v else {
            return Err("job spec must be a JSON object".into());
        };
        let mut spec = JobSpec {
            input: String::new(),
            delta: None,
            threads: None,
            priority: Priority::Normal,
            deadline_s: None,
            max_retries: None,
            shards: None,
            halo: None,
        };
        for (k, val) in fields {
            match k.as_str() {
                "input" => {
                    spec.input = val.as_str().ok_or("input: expected a string")?.to_string();
                }
                "delta" => {
                    let d = val.as_f64().ok_or("delta: expected a number")?;
                    if !d.is_finite() || d <= 0.0 {
                        return Err(format!("delta: must be a positive finite number, got {d}"));
                    }
                    spec.delta = Some(d);
                }
                "threads" => {
                    let t = val.as_f64().ok_or("threads: expected a number")?;
                    if t.fract() != 0.0 || !(1.0..=4096.0).contains(&t) {
                        return Err(format!("threads: must be an integer >= 1, got {t}"));
                    }
                    spec.threads = Some(t as usize);
                }
                "priority" => {
                    let p = val.as_str().ok_or("priority: expected a string")?;
                    spec.priority = Priority::parse(p)
                        .ok_or_else(|| format!("priority: expected high|normal|low, got '{p}'"))?;
                }
                "deadline" => {
                    let d = match val {
                        Json::Num(n) => *n,
                        Json::Str(s) => crate::parse_duration_str(s)?,
                        _ => return Err("deadline: expected seconds or a duration string".into()),
                    };
                    if !d.is_finite() || d <= 0.0 {
                        return Err(format!("deadline: must be positive, got {d}"));
                    }
                    spec.deadline_s = Some(d);
                }
                "shards" => {
                    let g = val.as_str().ok_or("shards: expected a 'AxBxC' string")?;
                    spec.shards =
                        Some(pi2m_refine::parse_shard_grid(g).map_err(|e| format!("shards: {e}"))?);
                }
                "halo" => {
                    let h = val.as_f64().ok_or("halo: expected a number")?;
                    let max = pi2m_refine::MAX_HALO;
                    if h.fract() != 0.0 || !(0.0..=max as f64).contains(&h) {
                        return Err(format!("halo: must be an integer in 0..={max}, got {h}"));
                    }
                    spec.halo = Some(h as usize);
                }
                "max_retries" => {
                    let n = val.as_f64().ok_or("max_retries: expected a number")?;
                    if n.fract() != 0.0 || !(0.0..=100.0).contains(&n) {
                        return Err(format!(
                            "max_retries: must be an integer in 0..=100, got {n}"
                        ));
                    }
                    spec.max_retries = Some(n as u32);
                }
                other => return Err(format!("unknown job field '{other}'")),
            }
        }
        if spec.input.is_empty() {
            return Err("missing required field 'input'".into());
        }
        Ok(spec)
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![("input", Json::str(self.input.clone()))];
        if let Some(d) = self.delta {
            fields.push(("delta", Json::num(d)));
        }
        if let Some(t) = self.threads {
            fields.push(("threads", Json::int(t as u64)));
        }
        fields.push(("priority", Json::str(self.priority.as_str())));
        if let Some(d) = self.deadline_s {
            fields.push(("deadline", Json::num(d)));
        }
        if let Some(n) = self.max_retries {
            fields.push(("max_retries", Json::int(n as u64)));
        }
        if let Some(g) = self.shards {
            fields.push(("shards", Json::str(format!("{}x{}x{}", g[0], g[1], g[2]))));
        }
        if let Some(h) = self.halo {
            fields.push(("halo", Json::int(h as u64)));
        }
        Json::obj(fields)
    }
}

/// Where a job is in its lifecycle. `Succeeded` / `Failed` / `Cancelled`
/// are terminal; nothing leaves them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a session slot.
    Queued,
    /// A slot is executing an attempt (or sleeping out a retry backoff).
    Running,
    /// Finished; the artifact is flushed and fetchable.
    Succeeded,
    /// Terminal typed failure (deterministic error, or retry budget spent).
    Failed,
    /// The per-job deadline passed (while queued, mid-attempt, or during
    /// drain).
    Cancelled,
}

impl JobStatus {
    pub fn as_str(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Succeeded => "succeeded",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Succeeded | JobStatus::Failed | JobStatus::Cancelled
        )
    }
}

/// Everything the service remembers about one admitted job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    pub id: JobId,
    pub spec: JobSpec,
    pub status: JobStatus,
    /// Attempts started (1 on the first run; retries increment it).
    pub attempts: u32,
    /// Typed error class of the last failure: `cancelled`, `load`,
    /// `kernel`, `worker_quorum_lost`, `livelock`, `checkout`, `io`,
    /// `panic`.
    pub error_kind: Option<String>,
    /// Human-readable error of the last failure.
    pub error: Option<String>,
    /// When the job was admitted.
    pub submitted: Instant,
    /// Absolute deadline derived from the spec (or service default).
    pub deadline: Option<Instant>,
    /// Seconds spent queued before the first attempt started.
    pub queue_wait_s: Option<f64>,
    /// Seconds of the successful attempt's mesh run.
    pub run_s: Option<f64>,
    /// Tetrahedra in the finished mesh.
    pub tets: Option<u64>,
    /// Flushed artifact path (set only on success).
    pub artifact: Option<PathBuf>,
    /// Session generation that served the final attempt (diagnostics: a
    /// bumped generation means the job survived a quarantine).
    pub session_generation: Option<u64>,
    /// The end-to-end lifecycle trace served at `GET /jobs/<id>/trace`.
    pub trace: JobTrace,
}

impl JobRecord {
    pub fn new(id: JobId, spec: JobSpec, deadline: Option<Instant>) -> JobRecord {
        JobRecord {
            id,
            spec,
            status: JobStatus::Queued,
            attempts: 0,
            error_kind: None,
            error: None,
            submitted: Instant::now(),
            deadline,
            queue_wait_s: None,
            run_s: None,
            tets: None,
            artifact: None,
            session_generation: None,
            trace: JobTrace::default(),
        }
    }

    /// The wire representation returned by `GET /jobs/<id>`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::str(job_name(self.id))),
            ("status", Json::str(self.status.as_str())),
            ("spec", self.spec.to_json()),
            ("attempts", Json::int(self.attempts as u64)),
            ("age_s", Json::num(self.submitted.elapsed().as_secs_f64())),
        ];
        if let Some(k) = &self.error_kind {
            fields.push(("error_kind", Json::str(k.clone())));
        }
        if let Some(e) = &self.error {
            fields.push(("error", Json::str(e.clone())));
        }
        if let Some(w) = self.queue_wait_s {
            fields.push(("queue_wait_s", Json::num(w)));
        }
        if let Some(r) = self.run_s {
            fields.push(("run_s", Json::num(r)));
        }
        if let Some(t) = self.tets {
            fields.push(("tets", Json::int(t)));
        }
        if self.artifact.is_some() {
            fields.push((
                "artifact",
                Json::str(format!("/jobs/{}/artifact", job_name(self.id))),
            ));
        }
        if let Some(g) = self.session_generation {
            fields.push(("session_generation", Json::int(g)));
        }
        Json::obj(fields)
    }

    /// The compact form used by the `GET /jobs?recent=N` summary: enough
    /// to triage (status, latency split, attempts, error kind) without the
    /// full spec echo or the trace.
    pub fn summary_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::str(job_name(self.id))),
            ("status", Json::str(self.status.as_str())),
            ("priority", Json::str(self.spec.priority.as_str())),
            ("attempts", Json::int(self.attempts as u64)),
            ("age_s", Json::num(self.submitted.elapsed().as_secs_f64())),
        ];
        if let Some(w) = self.queue_wait_s {
            fields.push(("queue_wait_s", Json::num(w)));
        }
        if let Some(r) = self.run_s {
            fields.push(("run_s", Json::num(r)));
        }
        if let Some(k) = &self.error_kind {
            fields.push(("error_kind", Json::str(k.clone())));
        }
        fields.push(("trace_events", Json::int(self.trace.events().len() as u64)));
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2m_obs::json;

    #[test]
    fn job_names_roundtrip() {
        assert_eq!(job_name(7), "job-7");
        assert_eq!(parse_job_name("job-7"), Some(7));
        assert_eq!(parse_job_name("job-x"), None);
        assert_eq!(parse_job_name("7"), None);
    }

    #[test]
    fn spec_parses_full_form() {
        let v = json::parse(
            r#"{"input":"phantom:sphere","delta":3.0,"threads":2,
                "priority":"high","deadline":"500ms","max_retries":1,
                "shards":"2x2x1","halo":3}"#,
        )
        .unwrap();
        let s = JobSpec::from_json(&v).unwrap();
        assert_eq!(s.input, "phantom:sphere");
        assert_eq!(s.delta, Some(3.0));
        assert_eq!(s.threads, Some(2));
        assert_eq!(s.priority, Priority::High);
        assert_eq!(s.deadline_s, Some(0.5));
        assert_eq!(s.max_retries, Some(1));
        assert_eq!(s.shards, Some([2, 2, 1]));
        assert_eq!(s.halo, Some(3));
        // echoed on the wire
        let j = s.to_json();
        assert_eq!(j.get("shards").unwrap().as_str(), Some("2x2x1"));
        assert_eq!(j.get("halo").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn spec_rejects_bad_fields() {
        for body in [
            r#"{}"#,                                // missing input
            r#"{"input":"x","delta":-1}"#,          // bad delta
            r#"{"input":"x","threads":0}"#,         // bad threads
            r#"{"input":"x","priority":"urgent"}"#, // bad priority
            r#"{"input":"x","deadline":0}"#,        // zero deadline
            r#"{"input":"x","bogus":1}"#,           // unknown field
            r#"{"input":"x","shards":"2x2"}"#,      // bad shard grid
            r#"{"input":"x","shards":221}"#,        // shards must be a string
            r#"{"input":"x","halo":2.5}"#,          // fractional halo
            r#"[1,2,3]"#,                           // not an object
        ] {
            let v = json::parse(body).unwrap();
            assert!(JobSpec::from_json(&v).is_err(), "accepted: {body}");
        }
    }

    #[test]
    fn record_json_has_terminal_fields() {
        let v = json::parse(r#"{"input":"phantom:sphere"}"#).unwrap();
        let mut r = JobRecord::new(3, JobSpec::from_json(&v).unwrap(), None);
        r.status = JobStatus::Failed;
        r.error_kind = Some("kernel".into());
        r.error = Some("boom".into());
        let j = r.to_json();
        assert_eq!(j.get("id").unwrap().as_str(), Some("job-3"));
        assert_eq!(j.get("status").unwrap().as_str(), Some("failed"));
        assert_eq!(j.get("error_kind").unwrap().as_str(), Some("kernel"));
    }

    #[test]
    fn priority_orders_high_first() {
        assert!(Priority::High.class() < Priority::Normal.class());
        assert!(Priority::Normal.class() < Priority::Low.class());
    }
}
