//! Cooperative cancellation for long-running pipeline stages.
//!
//! A [`CancelToken`] is a cheap, cloneable handle carrying a shared cancel
//! flag and an optional absolute deadline. Producers (a CLI signal handler,
//! a serving loop's request timeout) call [`CancelToken::cancel`]; consumers
//! (the EDT sweeps, the refinement worker loop) poll
//! [`CancelToken::is_cancelled`] at operation boundaries. Polling is a single
//! relaxed atomic load when no deadline is set, plus one monotonic clock read
//! when one is — cheap enough for per-operation checks, far too cheap to
//! matter per EDT scan line.
//!
//! Cancellation is *cooperative*: nothing is interrupted mid-operation, so a
//! cancelled run never leaves locks held or shared structures half-updated.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The error produced when a stage observes cancellation. Carried upward and
/// converted into the caller's own error type (e.g. `RefineError::Cancelled`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "operation cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// Shared cancellation handle: clone freely, cancel from any thread.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`cancel`](Self::cancel) is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally auto-cancels once `timeout` has elapsed
    /// (measured from this call).
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(Instant::now() + timeout),
        }
    }

    /// Request cancellation. Every clone of this token observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has [`cancel`](Self::cancel) been called? One relaxed load and no
    /// clock read: the deadline is not consulted. For loops that poll more
    /// often than they can afford [`is_cancelled`](Self::is_cancelled).
    #[inline]
    pub fn cancel_requested(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Has this token been cancelled (explicitly, or by passing its
    /// deadline)?
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// `Err(Cancelled)` when the token has tripped; for `?`-style stage exits.
    #[inline]
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }

    /// The absolute deadline, when one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled());
        assert!(c.check().is_ok());
        c.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.check(), Err(Cancelled));
    }

    #[test]
    fn deadline_trips_without_explicit_cancel() {
        let t = CancelToken::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(t.is_cancelled());
    }

    #[test]
    fn zero_deadline_is_immediately_cancelled() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
    }

    #[test]
    fn cancelled_displays() {
        assert!(Cancelled.to_string().contains("cancelled"));
    }
}
