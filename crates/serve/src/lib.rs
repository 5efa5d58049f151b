//! # pi2m-serve — a fault-tolerant meshing service
//!
//! Long-running front door for the PI2M mesher: clients submit meshing
//! jobs over HTTP/JSON, poll their status, and fetch the finished VTK
//! artifact, while a fixed pool of warm
//! [`MeshingSession`](pi2m_refine::MeshingSession) slots executes them.
//!
//! The point of the crate is the **failure model**, not the plumbing:
//!
//! * **Admission control** — a bounded, priority-classed [`JobQueue`]
//!   sheds submissions synchronously with a typed
//!   [`AdmitError::QueueFull`] (and a `Retry-After` hint derived from the
//!   measured job rate) instead of buffering without bound.
//! * **Typed terminal states** — every admitted job ends `succeeded`,
//!   `failed` (typed error, fail-fast for deterministic causes), or
//!   `cancelled` (per-job deadline). Nothing hangs: the deadline is the
//!   attempt's [`CancelToken`](pi2m_obs::CancelToken), which every
//!   cooperative cancellation point of the engine polls.
//! * **Crash isolation and retries** — transient failures (worker-quorum
//!   loss, livelock, injected checkout/artifact faults) retry with capped
//!   exponential backoff; a poisoned run quarantines its session (the slot
//!   recycles to a fresh worker pool) so state never bleeds across jobs.
//! * **Graceful degradation** — SIGTERM (or `POST /drain`) stops
//!   admission, lets in-flight jobs finish or hit their deadlines, flushes
//!   artifacts, then exits; `/readyz` flips to 503 the moment draining
//!   starts, `/metrics` exposes the queue/shed/retry/drain counters.
//! * **Per-job accountability** — every admitted job accumulates a typed
//!   [`JobTrace`] (admit → queue wait → checkout → attempts/backoffs →
//!   stage transitions → terminal), served at
//!   `GET /jobs/<id>/trace`. Each trace event is also the journal line
//!   `job.<kind>` in a leveled JSONL
//!   [`Journal`](pi2m_obs::Journal), and `/metrics` carries per-class
//!   latency histograms.
//!
//! See `DESIGN.md` ("Service architecture & failure model") for the state
//! machines and the drain sequence, and `tests/serve.rs` at the workspace
//! root for the end-to-end fault drills.

pub mod http;
pub mod job;
pub mod queue;
pub mod service;
pub mod signal;
pub mod trace;

pub use http::{Body, HttpServer, Request, Response};
pub use job::{JobId, JobRecord, JobSpec, JobStatus, Priority};
pub use queue::{AdmitError, JobQueue};
pub use service::{MeshService, ServiceConfig};
pub use trace::{JobTrace, TraceEvent, TraceEventKind, TRACE_SCHEMA_VERSION};

/// Parse a duration string into seconds: `"90"`, `"1.5s"`, `"250ms"`,
/// `"2m"`. Rejects zero, negative, and non-finite values with a message
/// naming the offending input.
pub fn parse_duration_str(s: &str) -> Result<f64, String> {
    let t = s.trim();
    let (num, scale) = if let Some(v) = t.strip_suffix("ms") {
        (v, 1e-3)
    } else if let Some(v) = t.strip_suffix('s') {
        (v, 1.0)
    } else if let Some(v) = t.strip_suffix('m') {
        (v, 60.0)
    } else {
        (t, 1.0)
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("invalid duration '{s}' (expected e.g. 30, 1.5s, 250ms, 2m)"))?;
    let secs = v * scale;
    if !secs.is_finite() {
        return Err(format!("duration '{s}' is not finite"));
    }
    if secs <= 0.0 {
        return Err(format!("duration '{s}' must be positive"));
    }
    Ok(secs)
}

#[cfg(test)]
mod tests {
    use super::parse_duration_str;

    #[test]
    fn durations_parse_and_validate() {
        for (text, secs) in [
            ("90", 90.0),
            ("2", 2.0),
            ("0.25", 0.25),
            ("1s", 1.0),
            ("1.5s", 1.5),
            (" 1.5s ", 1.5),
            ("500ms", 0.5),
            ("250ms", 0.25),
            ("2m", 120.0),
        ] {
            assert_eq!(parse_duration_str(text), Ok(secs), "'{text}'");
        }
    }

    #[test]
    fn durations_reject_degenerate_values_with_clear_messages() {
        for (bad, expect) in [
            ("0", "positive"),
            ("0ms", "positive"),
            ("-1s", "positive"),
            ("-0.5", "positive"),
            ("1e400", "not finite"), // parses as +inf
            ("inf", "not finite"),
            ("-inf", "not finite"),
            ("nan", "not finite"),
            ("x", "invalid duration"),
            ("junk", "invalid duration"),
            ("", "invalid duration"),
            ("ms", "invalid duration"),
            ("1h", "invalid duration"), // no hour suffix; be explicit
        ] {
            let err = parse_duration_str(bad).unwrap_err();
            assert!(
                err.contains(expect),
                "'{bad}' should mention '{expect}', got: {err}"
            );
        }
    }
}
