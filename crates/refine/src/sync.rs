//! Shared engine-wide synchronization state: termination detection inputs,
//! the livelock watchdog clock, and global progress accounting shared by the
//! contention managers and the begging list.

use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Steps of other threads, replayed inside a termination check.
#[cfg(test)]
pub(crate) type Seam = Box<dyn FnOnce(&EngineSync) + Send>;

/// One exit from the begging list, in the begging word's high half.
const BEG_EXIT: u64 = 1 << 32;

/// The parked count of a begging word.
#[inline]
fn parked(word: u64) -> usize {
    (word & (BEG_EXIT - 1)) as usize
}

/// Counters shared by all workers, their contention manager, and their
/// begging list.
///
/// Laid out by who writes what. `done`, `begging`, `cm_blocked` and `dead`
/// change a handful of times per run and are read by every worker on every
/// loop iteration, so they share lines freely. `total_poor` is written on
/// every pop batch and enqueue, `last_progress_ms` on every commit: each
/// sits on a line of its own, where its writers invalidate nobody who is
/// only polling the flags.
pub struct EngineSync {
    pub threads: usize,
    done: AtomicBool,
    livelock: AtomicBool,
    cancelled: AtomicBool,
    /// Threads parked in the begging list (the low 32 bits), and how many
    /// times a thread has left it (the high 32): one word, so that
    /// [`quiescent`](Self::quiescent) can tell from two loads that nobody
    /// left in between.
    begging: AtomicU64,
    /// Threads parked by the contention manager.
    cm_blocked: AtomicUsize,
    /// Workers that died to an un-recovered panic (isolated, not respawned).
    dead: AtomicUsize,
    /// Outstanding (possibly stale) PEL entries across all threads.
    total_poor: CachePadded<AtomicI64>,
    /// Milliseconds-since-start of the last completed operation (watchdog).
    last_progress_ms: CachePadded<AtomicU64>,
    start: Instant,
    /// Run once by the next [`quiescent`](Self::quiescent) call, between
    /// its loads: a test puts other threads' steps there to replay an
    /// interleaving deterministically.
    #[cfg(test)]
    pub(crate) seam: parking_lot::Mutex<Option<Seam>>,
}

impl EngineSync {
    pub fn new(threads: usize) -> Self {
        EngineSync {
            threads,
            done: AtomicBool::new(false),
            livelock: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            begging: AtomicU64::new(0),
            cm_blocked: AtomicUsize::new(0),
            dead: AtomicUsize::new(0),
            total_poor: CachePadded::new(AtomicI64::new(0)),
            last_progress_ms: CachePadded::new(AtomicU64::new(0)),
            start: Instant::now(),
            #[cfg(test)]
            seam: Default::default(),
        }
    }

    #[inline]
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// [`now`](Self::now) in whole nanoseconds: the flight events' clock.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    pub fn set_done(&self) {
        self.done.store(true, Ordering::Release);
    }

    #[inline]
    pub fn livelocked(&self) -> bool {
        self.livelock.load(Ordering::Acquire)
    }

    /// Watchdog trip: declare a livelock and stop the run.
    pub fn declare_livelock(&self) {
        self.livelock.store(true, Ordering::Release);
        self.set_done();
    }

    #[inline]
    pub fn was_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Cooperative-cancellation trip: the first worker that observes a
    /// tripped [`CancelToken`](pi2m_obs::cancel::CancelToken) records the
    /// fact and stops the run (distinguishing a cancelled run from one that
    /// merely raced its deadline at the finish line).
    pub fn declare_cancelled(&self) {
        self.cancelled.store(true, Ordering::Release);
        self.set_done();
    }

    /// Threads neither begging, CM-blocked, nor dead.
    #[inline]
    pub fn active(&self) -> usize {
        self.threads
            .saturating_sub(self.begging())
            .saturating_sub(self.cm_blocked.load(Ordering::SeqCst))
            .saturating_sub(self.dead.load(Ordering::SeqCst))
    }

    #[inline]
    pub fn begging(&self) -> usize {
        parked(self.begging.load(Ordering::SeqCst))
    }

    #[inline]
    pub fn cm_blocked(&self) -> usize {
        self.cm_blocked.load(Ordering::SeqCst)
    }

    pub fn enter_begging(&self) {
        self.begging.fetch_add(1, Ordering::SeqCst);
    }

    /// One fewer parked and one more exit, in one step.
    pub fn exit_begging(&self) {
        self.begging.fetch_add(BEG_EXIT - 1, Ordering::SeqCst);
    }

    /// Permanently retire a worker that died to an un-recovered panic. A dead
    /// worker counts like a begging one for termination: it will never produce
    /// or consume work again.
    pub fn worker_died(&self) {
        self.dead.fetch_add(1, Ordering::SeqCst);
    }

    #[inline]
    pub fn dead(&self) -> usize {
        self.dead.load(Ordering::SeqCst)
    }

    pub fn enter_cm_block(&self) {
        self.cm_blocked.fetch_add(1, Ordering::SeqCst);
    }

    pub fn exit_cm_block(&self) {
        self.cm_blocked.fetch_sub(1, Ordering::SeqCst);
    }

    #[inline]
    pub fn total_poor(&self) -> i64 {
        self.total_poor.load(Ordering::SeqCst)
    }

    pub fn poor_added(&self, n: i64) {
        self.total_poor.fetch_add(n, Ordering::SeqCst);
    }

    pub fn poor_taken(&self, n: i64) {
        self.total_poor.fetch_sub(n, Ordering::SeqCst);
    }

    /// Record an operation completed at `at` (a clock reading the caller
    /// already took) for the watchdog.
    pub fn note_progress(&self, at: Instant) {
        let ms = at.saturating_duration_since(self.start).as_millis() as u64;
        self.last_progress_ms.store(ms, Ordering::Relaxed);
    }

    /// Seconds since any thread completed an operation.
    pub fn since_progress(&self) -> f64 {
        let last = self.last_progress_ms.load(Ordering::Relaxed);
        let now = self.start.elapsed().as_millis() as u64;
        (now.saturating_sub(last)) as f64 / 1000.0
    }

    /// True when every thread is parked (or dead) and no work remains — the
    /// global termination condition. (Stale PEL entries keep `total_poor`
    /// positive, so their owners cannot be parked; see DESIGN.md.)
    ///
    /// The loads are not one snapshot, so the check reads the begging word,
    /// then `cm_blocked` and `total_poor`, then the begging word again, and
    /// holds only if every thread was parked at the first read and none has
    /// left since. Nobody was working in between, then: a parked thread
    /// leaves only to work, and a thread's queued entries, donated ones
    /// included, are counted in `total_poor` before it can park. So the
    /// count read in between is every entry there is, and with it zero,
    /// nothing can create more (DESIGN.md "Concurrency design").
    pub fn quiescent(&self) -> bool {
        let before = self.begging.load(Ordering::SeqCst);
        let all_parked = parked(before) + self.dead() >= self.threads;
        #[cfg(test)]
        self.run_seam();
        all_parked
            && self.cm_blocked() == 0
            && self.total_poor() == 0
            && self.begging.load(Ordering::SeqCst) >> 32 == before >> 32
    }

    #[cfg(test)]
    fn run_seam(&self) {
        let seam = self.seam.lock().take();
        if let Some(f) = seam {
            f(self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_accounting() {
        let s = EngineSync::new(4);
        assert_eq!(s.active(), 4);
        s.enter_begging();
        s.enter_cm_block();
        assert_eq!(s.active(), 2);
        assert_eq!(s.begging(), 1);
        assert_eq!(s.cm_blocked(), 1);
        s.exit_begging();
        s.exit_cm_block();
        assert_eq!(s.active(), 4);
    }

    #[test]
    fn quiescence() {
        let s = EngineSync::new(2);
        assert!(!s.quiescent());
        s.enter_begging();
        s.enter_begging();
        assert!(s.quiescent());
        s.poor_added(3);
        assert!(!s.quiescent());
        s.poor_taken(3);
        assert!(s.quiescent());
    }

    /// A beggar that leaves between the check's loads defers termination,
    /// though `total_poor` reads zero then: it has popped its donation, and
    /// what its operation creates is not pushed yet.
    #[test]
    fn a_beggar_leaving_during_the_check_defers_termination() {
        let s = EngineSync::new(2);
        s.poor_added(1); // donated to Y, which has not woken yet
        s.enter_begging();
        s.enter_begging();
        *s.seam.lock() = Some(Box::new(|s: &EngineSync| {
            s.exit_begging(); // Y wakes
            s.poor_taken(1); // and pops the donation
        }));
        assert!(!s.quiescent());
        // Y's operation creates cells; Y classifies them all and parks again
        s.poor_added(3);
        s.poor_taken(3);
        s.enter_begging();
        assert!(s.quiescent());
    }

    #[test]
    fn dead_workers_count_toward_quiescence() {
        let s = EngineSync::new(3);
        s.enter_begging();
        s.enter_begging();
        assert!(!s.quiescent());
        s.worker_died();
        assert!(s.quiescent());
        assert_eq!(s.dead(), 1);
        assert_eq!(s.active(), 0);
    }

    #[test]
    fn watchdog_clock() {
        let s = EngineSync::new(1);
        s.note_progress(Instant::now());
        assert!(s.since_progress() < 0.5);
    }

    #[test]
    fn livelock_sets_done() {
        let s = EngineSync::new(1);
        s.declare_livelock();
        assert!(s.is_done());
        assert!(s.livelocked());
    }
}
