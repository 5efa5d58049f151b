//! # pi2m-obs
//!
//! Unified observability substrate for the PI2M pipeline (tentpole of the
//! `pi2m-obs` issue): every crate — EDT, oracle, Delaunay kernel, refinement,
//! serve — records into the same catalog of counters and log-bucketed
//! histograms through **thread-local recorders with no atomics on the hot
//! path**, mirroring the `ThreadStats` ownership model of `pi2m-refine`
//! (exclusive per-worker ownership, drained and merged at thread join).
//!
//! Five layers:
//!
//! * [`metrics`] — the static metric catalog ([`metrics::catalog`]), counter
//!   and histogram ids, [`ThreadRecorder`] (hot path) and
//!   [`MetricsSnapshot`] (merged at join).
//! * [`flight`] + [`mod@analyze`] — the concurrency flight recorder: a
//!   bounded log of conflicts and waits (not operations) in each worker's
//!   [`ThreadRecorder`], concatenated once after the workers join with each
//!   worker's time sums appended, and the offline contention analyzer.
//! * [`span`] — RAII wall-clock phase timing ([`Phases`], [`SpanGuard`]).
//! * [`report`] + [`export`] — the self-describing [`RunReport`] and its
//!   exporters: structured JSON, Prometheus text exposition, and Chrome
//!   Trace Event JSON (loadable in `chrome://tracing` / Perfetto).
//! * [`journal`] — leveled JSONL structured logging
//!   ([`Journal`]) for control-plane events (admissions, retries, drains).
//!
//! ```
//! use pi2m_obs::metrics::{self, ThreadRecorder, MetricsSnapshot};
//!
//! let mut rec = ThreadRecorder::new();
//! rec.inc(metrics::OPS_INSERTIONS, 1);          // plain u64 add, no atomics
//! rec.observe(metrics::CAVITY_CELLS, 12.0);     // log-bucketed histogram
//! let mut snap = MetricsSnapshot::new();
//! rec.merge_into(0, &mut snap);                 // at thread join (tid 0)
//! assert_eq!(snap.counter(metrics::OPS_INSERTIONS), 1);
//! ```

pub mod analyze;
pub mod attribution;
pub mod cancel;
pub mod export;
pub mod flight;
pub mod inspect;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod report;
pub mod span;

pub use analyze::{analyze, AnalyzeOpts, ContentionReport};
pub use attribution::{attribute, Category, TimeAttribution, WorkerAttribution};
pub use cancel::{CancelToken, Cancelled};
pub use export::{render_chrome_trace, render_prometheus};
pub use flight::{EventKind, FlightEvent, FlightLog};
pub use inspect::{
    load_artifact, render_diff, render_summary, Artifact, ArtifactKind, ReportInfo, TraceInfo,
};
pub use journal::{Journal, Level};
pub use metrics::{CounterId, HistId, MetricDef, MetricKind, MetricsSnapshot, ThreadRecorder};
pub use report::{PhaseReport, RunReport, TraceSpan};
pub use span::{Phases, SpanGuard};
