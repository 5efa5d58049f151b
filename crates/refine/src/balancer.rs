//! Load balancing via a begging list (paper §4.4).
//!
//! Idle threads park themselves in the begging list; working threads, after
//! each completed operation, donate newly created poor elements to the
//! longest-waiting beggar. This is the flat list of the paper's RWS. Its
//! hierarchical variant HWS (§6.1) splits the list along a cc-NUMA
//! machine's memory hierarchy; it is not implemented, since the engine
//! never learns the host's shape.

use crate::cm::LocalCm;
use crate::sync::EngineSync;
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Minimum own-PEL population before a thread may donate (paper: 5).
pub const DONATE_THRESHOLD: i64 = 5;

/// Result of parking in the begging list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BegOutcome {
    /// Woken with fresh work in the PEL.
    GotWork,
    /// Refinement is complete (or aborted).
    Finished,
}

/// The begging list: parked beggars in arrival order, fed first come first
/// served.
pub struct BeggingList {
    list: Mutex<VecDeque<usize>>,
    has_work: Vec<CachePadded<AtomicBool>>,
}

impl BeggingList {
    pub fn new(threads: usize) -> Self {
        BeggingList {
            list: Mutex::new(VecDeque::new()),
            has_work: (0..threads)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
        }
    }

    /// Park until donated work arrives or the run terminates. Also performs
    /// global termination detection and deadlock-breaking release of
    /// CM-parked threads. Returns the outcome and the seconds spent parked.
    pub fn beg(&self, tid: usize, sync: &EngineSync, cm: &LocalCm) -> (BegOutcome, f64) {
        self.list.lock().push_back(tid);
        beg_wait(tid, sync, cm, self)
    }

    /// Select (and unpark-reserve) a beggar for `donor` to feed; the donor
    /// must push work to the beggar's PEL and then call [`BeggingList::wake`].
    pub fn pick_beggar(&self, donor: usize) -> Option<usize> {
        let mut l = self.list.lock();
        while let Some(t) = l.pop_front() {
            if t != donor {
                return Some(t);
            }
        }
        None
    }

    /// Signal `target` that work has been pushed to its PEL.
    pub fn wake(&self, target: usize) {
        self.has_work[target].store(true, Ordering::Release);
    }

    /// Wake every parked beggar (termination).
    pub fn release_all(&self) {
        for f in &self.has_work {
            f.store(true, Ordering::Release);
        }
    }
}

/// The parked-wait loop with termination detection.
fn beg_wait(tid: usize, sync: &EngineSync, cm: &LocalCm, bal: &BeggingList) -> (BegOutcome, f64) {
    let has_work = &bal.has_work[tid];
    let t0 = Instant::now();
    sync.enter_begging();
    let outcome = loop {
        if sync.is_done() {
            break BegOutcome::Finished;
        }
        if has_work.load(Ordering::Acquire) {
            has_work.store(false, Ordering::Release);
            break BegOutcome::GotWork;
        }
        if sync.quiescent() {
            // last ones out: settle termination
            sync.set_done();
            cm.release_all();
            bal.release_all();
            break BegOutcome::Finished;
        }
        // Deadlock-breaking fallback: if every non-begging live thread is
        // parked in a contention list, wake one so the system keeps moving.
        if sync.cm_blocked() > 0 && sync.begging() + sync.cm_blocked() + sync.dead() >= sync.threads
        {
            cm.release_one();
        }
        std::hint::spin_loop();
        std::thread::yield_now();
    };
    sync.exit_begging();
    (outcome, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn pick_skips_donor() {
        let b = BeggingList::new(3);
        b.list.lock().push_back(1);
        b.list.lock().push_back(2);
        assert_eq!(b.pick_beggar(1), Some(2));
    }

    #[test]
    fn beg_wakes_on_work() {
        let b = Arc::new(BeggingList::new(2));
        let sync = Arc::new(EngineSync::new(2));
        sync.poor_added(1); // pretend pending work exists so no termination
        let b2 = Arc::clone(&b);
        let sync2 = Arc::clone(&sync);
        let h = std::thread::spawn(move || b2.beg(0, &sync2, &LocalCm::new(2)));
        while sync.begging() == 0 {
            std::thread::yield_now();
        }
        let t = b.pick_beggar(1).unwrap();
        assert_eq!(t, 0);
        b.wake(t);
        let (outcome, _) = h.join().unwrap();
        assert_eq!(outcome, BegOutcome::GotWork);
    }

    /// The termination check must not strand a donation. At T=2, beggar Y
    /// checks for termination while X runs its last entry; between Y's
    /// loads (the seam), X pushes the cells its operation created, pops one
    /// of them, donates the next batch to Y and wakes it, drains the rest
    /// of its own PEL and begs. Y must come out of the begging list with
    /// the donation, not declare the run over with five entries queued.
    #[test]
    fn a_donation_during_the_termination_check_is_not_stranded() {
        let (x, y) = (0, 1);
        let b = Arc::new(BeggingList::new(2));
        let sync = EngineSync::new(2);
        let bal = Arc::clone(&b);
        *sync.seam.lock() = Some(Box::new(move |s: &EngineSync| {
            s.poor_added(5); // X's created cells, on its own PEL
            s.poor_taken(1); // X pops one, and its operation creates more
            assert_eq!(bal.pick_beggar(x), Some(y));
            s.poor_added(5); // donated to Y's PEL
            bal.wake(y);
            s.poor_taken(4); // X's own PEL, drained
            s.enter_begging(); // X begs
        }));
        let (outcome, _) = b.beg(y, &sync, &LocalCm::new(2));
        assert_eq!(outcome, BegOutcome::GotWork, "the donation was stranded");
        assert!(!sync.is_done());
        assert_eq!(sync.total_poor(), 5);
    }

    #[test]
    fn termination_when_quiescent() {
        let b = Arc::new(BeggingList::new(1));
        let sync = Arc::new(EngineSync::new(1));
        // no poor work at all: the only thread begging must terminate
        let (outcome, _) = b.beg(0, &sync, &LocalCm::new(1));
        assert_eq!(outcome, BegOutcome::Finished);
        assert!(sync.is_done());
    }
}
