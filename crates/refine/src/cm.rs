//! The contention manager (paper §5): Local-CM.
//!
//! After a rollback, a thread parks on the contention list of the thread
//! it conflicted with until a making-progress thread wakes it. The lists
//! are per thread, and the cycle-breaking protocol of paper Fig. 2 makes
//! the scheme provably free of deadlocks and livelocks (paper Lemmas 1–2).
//! The paper's other three managers (Aggressive, Random, Global) and its
//! Table 1 comparison of them are not part of this engine.

use crate::sync::EngineSync;
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::Instant;

/// Successes needed before a thread wakes a waiter (paper: s⁺ = 10).
pub const S_PLUS: u32 = 10;

struct LocalSlot {
    /// Protects the block/no-block decision (paper Fig. 2c lines 4–14).
    decision: Mutex<()>,
    busy_wait: AtomicBool,
    cl: Mutex<VecDeque<usize>>,
    streak: AtomicU32,
}

/// Per-thread contention lists with the cycle-breaking protocol of paper
/// Fig. 2: a thread blocks on the conflicting thread's list unless that
/// thread has itself decided to block (which would risk a dependency cycle).
/// Provably deadlock- and livelock-free (paper Lemmas 1 and 2).
pub struct LocalCm {
    slots: Vec<CachePadded<LocalSlot>>,
}

impl LocalCm {
    pub fn new(threads: usize) -> Self {
        LocalCm {
            slots: (0..threads)
                .map(|_| {
                    CachePadded::new(LocalSlot {
                        decision: Mutex::new(()),
                        busy_wait: AtomicBool::new(false),
                        cl: Mutex::new(VecDeque::new()),
                        streak: AtomicU32::new(0),
                    })
                })
                .collect(),
        }
    }

    fn wake_from(&self, tid: usize) -> bool {
        let mut cl = self.slots[tid].cl.lock();
        if let Some(j) = cl.pop_front() {
            self.slots[j].busy_wait.store(false, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// A thread completed an operation without rollback.
    pub fn on_success(&self, tid: usize) {
        // no streak reset on wake (paper Fig. 2b)
        let slot = &self.slots[tid];
        let s = slot.streak.fetch_add(1, Ordering::Relaxed) + 1;
        if s >= S_PLUS {
            self.wake_from(tid);
        }
    }

    /// A thread rolled back after conflicting with `owner`. May park the
    /// thread; returns the seconds spent parked (contention overhead).
    pub fn on_rollback(&self, tid: usize, owner: usize, sync: &EngineSync) -> f64 {
        self.slots[tid].streak.store(0, Ordering::Relaxed);
        if owner == tid || sync.active() <= 1 || sync.is_done() {
            return 0.0;
        }
        // Lock both decision mutexes in id order (paper Fig. 2c): only one
        // thread of a would-be cycle examines its condition at a time.
        let (lo, hi) = (tid.min(owner), tid.max(owner));
        let _g1 = self.slots[lo].decision.lock();
        let _g2 = self.slots[hi].decision.lock();
        if self.slots[owner].busy_wait.load(Ordering::Acquire) {
            // The conflicting thread already decided to block: blocking too
            // could complete a dependency cycle — return without blocking
            // (this is what breaks cycles; paper Lemma 1).
            return 0.0;
        }
        let flag = &self.slots[tid].busy_wait;
        flag.store(true, Ordering::Release);
        self.slots[owner].cl.lock().push_back(tid);
        drop(_g2);
        drop(_g1);
        sync.enter_cm_block();
        // Busy wait with yields (the host may be heavily oversubscribed)
        // until woken or the run ends.
        let t0 = Instant::now();
        while flag.load(Ordering::Acquire) && !sync.is_done() {
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        sync.exit_cm_block();
        t0.elapsed().as_secs_f64()
    }

    /// Called before `tid` parks in the begging list (or exits, or dies):
    /// threads waiting on *its* list would otherwise wait until someone
    /// else wakes them; hand them back first.
    pub fn before_beg(&self, tid: usize) {
        while self.wake_from(tid) {}
    }

    /// Wake one parked thread, if any (deadlock-breaking fallback used by
    /// idle beggars). Returns whether a thread was woken.
    pub fn release_one(&self) -> bool {
        (0..self.slots.len()).any(|t| self.wake_from(t))
    }

    /// Wake every parked thread (termination / watchdog abort).
    pub fn release_all(&self) {
        for t in 0..self.slots.len() {
            while self.wake_from(t) {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn last_active_never_parks() {
        let cm = LocalCm::new(2);
        let sync = EngineSync::new(2);
        sync.enter_begging(); // other thread idle → active() == 1
        assert_eq!(cm.on_rollback(0, 1, &sync), 0.0);
        assert_eq!(sync.cm_blocked(), 0);
    }

    #[test]
    fn local_cycle_is_broken() {
        // T0 blocks on T1; then T1 rolling back on T0 must NOT block
        // (would form a cycle).
        let cm = Arc::new(LocalCm::new(3));
        let sync = Arc::new(EngineSync::new(3));
        let cm2 = Arc::clone(&cm);
        let sync2 = Arc::clone(&sync);
        let h = std::thread::spawn(move || cm2.on_rollback(0, 1, &sync2));
        while sync.cm_blocked() == 0 {
            std::thread::yield_now();
        }
        // T1 conflicts with T0, which is blocked: must return immediately.
        let waited = cm.on_rollback(1, 0, &sync);
        assert_eq!(waited, 0.0);
        assert_eq!(sync.cm_blocked(), 1); // only T0 remains parked
                                          // T1 making progress wakes T0
        for _ in 0..S_PLUS {
            cm.on_success(1);
        }
        h.join().unwrap();
        assert_eq!(sync.cm_blocked(), 0);
    }

    #[test]
    fn local_before_beg_drains_own_list() {
        let cm = Arc::new(LocalCm::new(2));
        let sync = Arc::new(EngineSync::new(2));
        let cm2 = Arc::clone(&cm);
        let sync2 = Arc::clone(&sync);
        let h = std::thread::spawn(move || cm2.on_rollback(0, 1, &sync2));
        while sync.cm_blocked() == 0 {
            std::thread::yield_now();
        }
        cm.before_beg(1);
        h.join().unwrap();
        assert_eq!(sync.cm_blocked(), 0);
    }

    #[test]
    fn release_all_unblocks_everything() {
        let cm = Arc::new(LocalCm::new(3));
        let sync = Arc::new(EngineSync::new(3));
        let mut handles = Vec::new();
        for t in 0..2 {
            let cm2 = Arc::clone(&cm);
            let sync2 = Arc::clone(&sync);
            handles.push(std::thread::spawn(move || cm2.on_rollback(t, 2, &sync2)));
        }
        while sync.cm_blocked() < 2 {
            std::thread::yield_now();
        }
        cm.release_all();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sync.cm_blocked(), 0);
    }
}
