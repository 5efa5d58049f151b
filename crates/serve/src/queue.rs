//! Bounded, priority-classed job queue with typed admission control.
//!
//! The queue is the service's backpressure boundary: once `capacity` jobs
//! are waiting, further submissions are *shed* synchronously with
//! [`AdmitError::QueueFull`] carrying a `Retry-After` hint, instead of
//! being buffered until memory or latency collapses. Draining flips one
//! flag: admission stops ([`AdmitError::Draining`]) while consumers keep
//! popping until the queue is empty, then observe end-of-stream.

use crate::job::{JobId, Priority};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// Why a submission was rejected at the door.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The bounded queue is at capacity; retry after the hinted delay.
    QueueFull {
        depth: usize,
        capacity: usize,
        retry_after_s: u64,
    },
    /// The service received a drain request and is no longer admitting.
    Draining,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::QueueFull {
                depth,
                capacity,
                retry_after_s,
            } => write!(
                f,
                "queue full ({depth}/{capacity} jobs queued); retry after {retry_after_s}s"
            ),
            AdmitError::Draining => write!(f, "service is draining; not admitting new jobs"),
        }
    }
}

impl std::error::Error for AdmitError {}

struct Inner {
    /// One FIFO per priority class, popped high-to-low.
    classes: [VecDeque<JobId>; 3],
    len: usize,
    draining: bool,
}

/// The bounded admission queue. All methods take `&self`; safe to share
/// behind an `Arc` between the HTTP front door and the runner slots.
pub struct JobQueue {
    inner: Mutex<Inner>,
    cond: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// A queue admitting at most `capacity` waiting jobs (jobs being
    /// executed no longer count against it).
    pub fn new(capacity: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(Inner {
                classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                len: 0,
                draining: false,
            }),
            cond: Condvar::new(),
            capacity,
        }
    }

    /// Jobs currently waiting (not running).
    pub fn depth(&self) -> usize {
        self.inner.lock().len
    }

    pub fn is_draining(&self) -> bool {
        self.inner.lock().draining
    }

    /// Admit one job or shed it. `retry_after_s` is the backpressure hint
    /// stamped into a [`AdmitError::QueueFull`] rejection.
    pub fn admit(&self, id: JobId, prio: Priority, retry_after_s: u64) -> Result<(), AdmitError> {
        let mut g = self.inner.lock();
        if g.draining {
            return Err(AdmitError::Draining);
        }
        if g.len >= self.capacity {
            return Err(AdmitError::QueueFull {
                depth: g.len,
                capacity: self.capacity,
                retry_after_s,
            });
        }
        g.classes[prio.class()].push_back(id);
        g.len += 1;
        drop(g);
        self.cond.notify_one();
        Ok(())
    }

    /// Pop the next job, blocking while the queue is empty. Returns `None`
    /// once the queue is draining *and* empty — the consumer's signal to
    /// exit its loop.
    pub fn pop(&self) -> Option<JobId> {
        let mut g = self.inner.lock();
        loop {
            for class in &mut g.classes {
                if let Some(id) = class.pop_front() {
                    g.len -= 1;
                    return Some(id);
                }
            }
            if g.draining {
                return None;
            }
            self.cond.wait(&mut g);
        }
    }

    /// Stop admitting; wake every blocked consumer so it can finish the
    /// backlog and observe end-of-stream.
    pub fn begin_drain(&self) {
        self.inner.lock().draining = true;
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn sheds_typed_once_full() {
        let q = JobQueue::new(2);
        q.admit(1, Priority::Normal, 3).unwrap();
        q.admit(2, Priority::Normal, 3).unwrap();
        match q.admit(3, Priority::Normal, 3) {
            Err(AdmitError::QueueFull {
                depth,
                capacity,
                retry_after_s,
            }) => {
                assert_eq!((depth, capacity, retry_after_s), (2, 2, 3));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn pops_priority_classes_high_first_fifo_within() {
        let q = JobQueue::new(8);
        q.admit(1, Priority::Low, 1).unwrap();
        q.admit(2, Priority::Normal, 1).unwrap();
        q.admit(3, Priority::High, 1).unwrap();
        q.admit(4, Priority::High, 1).unwrap();
        q.admit(5, Priority::Normal, 1).unwrap();
        let order: Vec<JobId> = (0..5).map(|_| q.pop().unwrap()).collect();
        assert_eq!(order, vec![3, 4, 2, 5, 1]);
    }

    #[test]
    fn drain_rejects_admission_but_serves_backlog() {
        let q = JobQueue::new(4);
        q.admit(1, Priority::Normal, 1).unwrap();
        q.begin_drain();
        assert_eq!(q.admit(2, Priority::Normal, 1), Err(AdmitError::Draining));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None); // end-of-stream is sticky
    }

    #[test]
    fn drain_wakes_blocked_consumers() {
        let q = Arc::new(JobQueue::new(1));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.begin_drain();
        assert_eq!(h.join().unwrap(), None);
    }
}
