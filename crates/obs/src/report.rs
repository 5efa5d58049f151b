//! The self-describing run report: configuration, provenance, phase
//! timings, the workers' time attribution, and the full metric snapshot of
//! one pipeline run, serializable to JSON (see [`RunReport::to_json`]).

use crate::analyze::ContentionReport;
use crate::attribution::TimeAttribution;
use crate::inspect::ArtifactKind;
use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use std::sync::OnceLock;

/// One timed phase occurrence (also the unit of the Chrome trace export).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceSpan {
    pub name: &'static str,
    /// Seconds since the run origin.
    pub start_s: f64,
    pub dur_s: f64,
}

/// Aggregated phase entry in the report.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    pub name: String,
    pub seconds: f64,
}

/// A machine-readable account of one run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Producing tool, e.g. `"pi2m"` or a bench harness name.
    pub tool: String,
    /// Crate version of the producer.
    pub version: String,
    /// `git describe --always --dirty` of the source tree, when available.
    pub git_describe: Option<String>,
    /// Free-form configuration key/value pairs (δ, threads, CM, balancer…).
    pub config: Vec<(String, String)>,
    /// Aggregated per-phase wall time.
    pub phases: Vec<PhaseReport>,
    /// Worker thread count.
    pub threads: usize,
    /// Wall time of the measured section, seconds.
    pub wall_s: f64,
    /// Final mesh elements.
    pub elements: u64,
    /// The merged metric snapshot.
    pub metrics: MetricsSnapshot,
    /// Flight-recorder contention analysis (`None` — key absent — for a
    /// report with no flight log of its own).
    pub contention: Option<ContentionReport>,
    /// The workers' wall-time attribution: the report's one decomposition
    /// of worker time (`None` — key absent — for a report that describes no
    /// refinement run of its own, such as the serve daemon's aggregate).
    pub attribution: Option<TimeAttribution>,
}

impl RunReport {
    /// The one run-report schema written and read: a report opens with
    /// `"kind": "run_report"` and `"schema"` set to this.
    pub const SCHEMA_VERSION: u32 = 8;

    pub fn new(tool: &str) -> Self {
        RunReport {
            tool: tool.to_string(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            git_describe: git_describe(),
            ..Default::default()
        }
    }

    pub fn config(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.config.push((key.to_string(), value.to_string()));
        self
    }

    /// Fold a span list (e.g. [`crate::Phases::spans`]) into aggregated
    /// per-phase totals, keeping first-appearance order.
    pub fn set_phases(&mut self, spans: &[TraceSpan]) -> &mut Self {
        self.phases.clear();
        for s in spans {
            match self.phases.iter_mut().find(|p| p.name == s.name) {
                Some(p) => p.seconds += s.dur_s,
                None => self.phases.push(PhaseReport {
                    name: s.name.to_string(),
                    seconds: s.dur_s,
                }),
            }
        }
        self
    }

    /// Elements per second of wall time.
    pub fn elements_per_second(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.elements as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Full structured report as a JSON tree, opening with its `kind` and
    /// `schema`.
    pub fn to_json(&self) -> Json {
        let hist_json = |h: &crate::metrics::Hist| {
            let nonzero: Vec<Json> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| {
                    Json::obj(vec![
                        ("le", Json::num(crate::metrics::bucket_upper_bound(i))),
                        ("count", Json::int(c)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("count", Json::int(h.count)),
                ("sum", Json::num(h.sum)),
                ("max", Json::num(if h.count > 0 { h.max } else { 0.0 })),
                ("mean", Json::num(h.mean())),
                ("buckets", Json::Arr(nonzero)),
            ])
        };
        let mut fields = ArtifactKind::RunReport.envelope();
        fields.extend([
            ("tool", Json::str(&self.tool)),
            ("version", Json::str(&self.version)),
            (
                "git_describe",
                self.git_describe
                    .as_deref()
                    .map(Json::str)
                    .unwrap_or(Json::Null),
            ),
            (
                "config",
                Json::Obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v)))
                        .collect(),
                ),
            ),
            (
                "phases",
                Json::Obj(
                    self.phases
                        .iter()
                        .map(|p| (p.name.clone(), Json::num(p.seconds)))
                        .collect(),
                ),
            ),
            ("threads", Json::int(self.threads as u64)),
            ("wall_s", Json::num(self.wall_s)),
            ("elements", Json::int(self.elements)),
            ("elements_per_second", Json::num(self.elements_per_second())),
            (
                "counters",
                Json::Obj(
                    self.metrics
                        .counters()
                        .filter(|(_, v)| *v > 0)
                        .map(|(d, v)| (d.name.to_string(), Json::int(v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.metrics
                        .histograms()
                        .filter(|(_, h)| h.count > 0)
                        .map(|(d, h)| (d.name.to_string(), hist_json(h)))
                        .collect(),
                ),
            ),
        ]);
        if let Some(c) = &self.contention {
            fields.push(("contention", c.to_json()));
        }
        if let Some(a) = &self.attribution {
            fields.push(("time_attribution", a.to_json()));
        }
        Json::obj(fields)
    }

    /// Pretty JSON text, the on-disk `--report` format.
    pub fn to_json_string(&self) -> String {
        self.to_json().dump_pretty()
    }
}

/// Best-effort `git describe --always --dirty` for provenance; `None` when
/// git or the work tree is unavailable. Runs `git` once per process: a
/// daemon builds a report on every metrics scrape.
pub fn git_describe() -> Option<String> {
    static DESCRIBE: OnceLock<Option<String>> = OnceLock::new();
    DESCRIBE
        .get_or_init(|| {
            let out = std::process::Command::new("git")
                .args(["describe", "--always", "--dirty"])
                .output()
                .ok()?;
            let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
            (out.status.success() && !s.is_empty()).then_some(s)
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{self, ThreadRecorder};

    #[test]
    fn report_json_has_required_keys() {
        let mut rec = ThreadRecorder::new();
        rec.inc(metrics::OPS_INSERTIONS, 10);
        rec.observe(metrics::CAVITY_CELLS, 5.0);
        let mut r = RunReport::new("test");
        r.config("delta", 2.0).config("cm", "Local");
        r.set_phases(&[
            TraceSpan {
                name: "edt",
                start_s: 0.0,
                dur_s: 0.5,
            },
            TraceSpan {
                name: "volume_refinement",
                start_s: 0.5,
                dur_s: 1.5,
            },
            TraceSpan {
                name: "edt",
                start_s: 2.0,
                dur_s: 0.25,
            },
        ]);
        r.threads = 4;
        r.wall_s = 2.0;
        r.elements = 1000;
        rec.merge_into(0, &mut r.metrics);

        let j = crate::json::parse(&r.to_json_string()).unwrap();
        for key in [
            "kind",
            "schema",
            "tool",
            "version",
            "git_describe",
            "config",
            "phases",
            "threads",
            "wall_s",
            "elements",
            "elements_per_second",
            "counters",
            "histograms",
        ] {
            assert!(j.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(j.get("kind").unwrap().as_str(), Some("run_report"));
        assert_eq!(j.get("schema").unwrap().as_f64(), Some(8.0));
        // repeated phases aggregate
        assert_eq!(
            j.get("phases").unwrap().get("edt").unwrap().as_f64(),
            Some(0.75)
        );
        assert_eq!(
            j.get("counters")
                .unwrap()
                .get("ops_insertions")
                .unwrap()
                .as_f64(),
            Some(10.0)
        );
        let h = j.get("histograms").unwrap().get("cavity_cells").unwrap();
        assert_eq!(h.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(r.elements_per_second(), 500.0);
        // optional sections are absent while their producers are off
        for key in ["contention", "time_attribution"] {
            assert!(j.get(key).is_none(), "unexpected {key}");
        }
    }

    #[test]
    fn contention_and_attribution_sections_appear_when_set() {
        use crate::analyze::{analyze, AnalyzeOpts};
        use crate::attribution::attribute;
        use crate::flight::{EventKind, FlightEvent};

        let mut r = RunReport::new("test");
        let events = [FlightEvent {
            t_ns: 1_000,
            kind: EventKind::Rollback,
            cause: 0,
            tid: 0,
            a: 7,
            b: 0,
            c: 500,
        }];
        let opts = AnalyzeOpts {
            threads: 2,
            wall_s: 0.5,
            ..Default::default()
        };
        r.contention = Some(analyze(&events, opts));
        r.attribution = Some(attribute(&events, opts.threads, opts.wall_s));
        let j = crate::json::parse(&r.to_json_string()).unwrap();
        let c = j.get("contention").expect("contention section");
        assert_eq!(c.get("rollbacks").unwrap().as_f64(), Some(1.0));
        // one decomposition of worker time, at the top level only
        for key in ["time_attribution", "workers", "speedup_self_report"] {
            assert!(c.get(key).is_none(), "contention carries {key}");
        }
        let a = j.get("time_attribution").expect("time_attribution section");
        assert_eq!(a.get("workers").unwrap().as_arr().unwrap().len(), 2);
    }
}
