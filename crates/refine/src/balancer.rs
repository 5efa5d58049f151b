//! Load balancing via a begging list (paper §4.4).
//!
//! Idle threads park themselves in the begging list; working threads, after
//! each completed operation, donate newly created poor elements to the
//! longest-waiting beggar. This is the flat list of the paper's RWS. Its
//! hierarchical variant HWS (§6.1) splits the list along a cc-NUMA
//! machine's memory hierarchy; it is not implemented, since the engine
//! never learns the host's shape.

use crate::cm::ContentionManager;
use crate::sync::EngineSync;
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use pi2m_obs::flight::{cause as flight_cause, EventKind};
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
    pub fn beg(
        &self,
        tid: usize,
        sync: &EngineSync,
        cm: &dyn ContentionManager,
    ) -> (BegOutcome, f64) {
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
fn beg_wait(
    tid: usize,
    sync: &EngineSync,
    cm: &dyn ContentionManager,
    bal: &BeggingList,
) -> (BegOutcome, f64) {
    let has_work = &bal.has_work[tid];
    let t0 = Instant::now();
    sync.flight_emit(tid, EventKind::BegPark, 0, 0, 0, 0);
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
    let waited = t0.elapsed().as_secs_f64();
    let cause = match outcome {
        BegOutcome::GotWork => flight_cause::BEG_GOT_WORK,
        BegOutcome::Finished => flight_cause::BEG_FINISHED,
    };
    let wait_ns = (waited * 1e9).min(u32::MAX as f64) as u32;
    sync.flight_emit(tid, EventKind::BegUnpark, cause, 0, 0, wait_ns);
    (outcome, waited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cm::AggressiveCm;
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
        let h = std::thread::spawn(move || b2.beg(0, &sync2, &AggressiveCm));
        while sync.begging() == 0 {
            std::thread::yield_now();
        }
        let t = b.pick_beggar(1).unwrap();
        assert_eq!(t, 0);
        b.wake(t);
        let (outcome, _) = h.join().unwrap();
        assert_eq!(outcome, BegOutcome::GotWork);
    }

    #[test]
    fn termination_when_quiescent() {
        let b = Arc::new(BeggingList::new(1));
        let sync = Arc::new(EngineSync::new(1));
        // no poor work at all: the only thread begging must terminate
        let (outcome, _) = b.beg(0, &sync, &AggressiveCm);
        assert_eq!(outcome, BegOutcome::Finished);
        assert!(sync.is_done());
    }
}
