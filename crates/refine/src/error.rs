//! Typed top-level failures of a refinement run.
//!
//! The engine absorbs individual worker panics (isolation + quarantine) and
//! kernel-invariant errors (typed `OpError::Kernel`); a run only escalates to
//! a `RefineError` when the failure is global — a majority of workers dead,
//! or the livelock watchdog declaring no-progress — or when it is cancelled,
//! and then the error hands back the telemetry the run recorded.

use crate::engine::CancelTelemetry;
use pi2m_delaunay::KernelError;

/// A refinement run failed as a whole.
#[derive(Clone, Debug, PartialEq)]
pub enum RefineError {
    /// More than half the workers died to un-recovered panics; the surviving
    /// minority cannot be trusted to finish the schedule.
    WorkerQuorumLost { died: usize, threads: usize },
    /// The livelock watchdog fired: no operation completed for the configured
    /// timeout while poor elements or blocked threads remained.
    Livelock,
    /// A kernel invariant broke outside any recoverable operation scope.
    Kernel(KernelError),
    /// The run's [`CancelToken`](pi2m_obs::cancel::CancelToken) tripped (an
    /// explicit cancel or an expired deadline). Cooperative: workers stop at
    /// the next operation boundary, so no locks or partial operations leak,
    /// and the session pool stays reusable. Carries what the run recorded up
    /// to that point, so its caller can still report it.
    Cancelled(Box<CancelTelemetry>),
}

impl std::fmt::Display for RefineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefineError::WorkerQuorumLost { died, threads } => {
                write!(f, "worker quorum lost: {died} of {threads} workers died")
            }
            RefineError::Livelock => write!(f, "livelock watchdog fired: no progress"),
            RefineError::Kernel(e) => write!(f, "kernel invariant broken: {e}"),
            RefineError::Cancelled(_) => {
                write!(f, "run cancelled (token tripped or deadline passed)")
            }
        }
    }
}

impl std::error::Error for RefineError {}

impl From<KernelError> for RefineError {
    fn from(e: KernelError) -> Self {
        RefineError::Kernel(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = RefineError::WorkerQuorumLost {
            died: 3,
            threads: 4,
        };
        assert!(e.to_string().contains("3 of 4"));
        assert!(RefineError::Livelock.to_string().contains("watchdog"));
        assert!(RefineError::from(KernelError::NoAliveCells)
            .to_string()
            .contains("alive"));
    }
}
