//! Shared engine-wide synchronization state: termination detection inputs,
//! the livelock watchdog clock, and global progress accounting shared by the
//! contention managers and the begging list.

use crossbeam_utils::CachePadded;
use pi2m_obs::flight::{EventKind, FlightRecorder};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
    /// Flight recorder, when enabled. Carried here so the contention managers
    /// and the begging list can emit park/unpark events without changing
    /// their signatures.
    flight: Option<Arc<FlightRecorder>>,
    done: AtomicBool,
    livelock: AtomicBool,
    cancelled: AtomicBool,
    /// Threads parked in the begging list.
    begging: AtomicUsize,
    /// Threads parked by the contention manager.
    cm_blocked: AtomicUsize,
    /// Workers that died to an un-recovered panic (isolated, not respawned).
    dead: AtomicUsize,
    /// Outstanding (possibly stale) PEL entries across all threads.
    total_poor: CachePadded<AtomicI64>,
    /// Milliseconds-since-start of the last completed operation (watchdog).
    last_progress_ms: CachePadded<AtomicU64>,
    start: Instant,
}

impl EngineSync {
    pub fn new(threads: usize) -> Self {
        EngineSync {
            threads,
            flight: None,
            done: AtomicBool::new(false),
            livelock: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            begging: AtomicUsize::new(0),
            cm_blocked: AtomicUsize::new(0),
            dead: AtomicUsize::new(0),
            total_poor: CachePadded::new(AtomicI64::new(0)),
            last_progress_ms: CachePadded::new(AtomicU64::new(0)),
            start: Instant::now(),
        }
    }

    #[inline]
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Attach the flight recorder (before workers start).
    pub fn set_flight(&mut self, rec: Arc<FlightRecorder>) {
        self.flight = Some(rec);
    }

    #[inline]
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// Emit a flight event on `tid`'s ring; no-op when the recorder is off.
    #[inline]
    pub fn flight_emit(&self, tid: usize, kind: EventKind, cause: u8, a: u32, b: u32, c: u32) {
        if let Some(rec) = &self.flight {
            rec.emit(tid, kind, cause, a, b, c);
        }
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
            .saturating_sub(self.begging.load(Ordering::Acquire))
            .saturating_sub(self.cm_blocked.load(Ordering::Acquire))
            .saturating_sub(self.dead.load(Ordering::Acquire))
    }

    #[inline]
    pub fn begging(&self) -> usize {
        self.begging.load(Ordering::Acquire)
    }

    #[inline]
    pub fn cm_blocked(&self) -> usize {
        self.cm_blocked.load(Ordering::Acquire)
    }

    pub fn enter_begging(&self) {
        self.begging.fetch_add(1, Ordering::AcqRel);
    }

    pub fn exit_begging(&self) {
        self.begging.fetch_sub(1, Ordering::AcqRel);
    }

    /// Permanently retire a worker that died to an un-recovered panic. A dead
    /// worker counts like a begging one for termination: it will never produce
    /// or consume work again.
    pub fn worker_died(&self) {
        self.dead.fetch_add(1, Ordering::AcqRel);
    }

    #[inline]
    pub fn dead(&self) -> usize {
        self.dead.load(Ordering::Acquire)
    }

    pub fn enter_cm_block(&self) {
        self.cm_blocked.fetch_add(1, Ordering::AcqRel);
    }

    pub fn exit_cm_block(&self) {
        self.cm_blocked.fetch_sub(1, Ordering::AcqRel);
    }

    #[inline]
    pub fn total_poor(&self) -> i64 {
        self.total_poor.load(Ordering::Acquire)
    }

    pub fn poor_added(&self, n: i64) {
        self.total_poor.fetch_add(n, Ordering::AcqRel);
    }

    pub fn poor_taken(&self, n: i64) {
        self.total_poor.fetch_sub(n, Ordering::AcqRel);
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
    pub fn quiescent(&self) -> bool {
        self.cm_blocked() == 0
            && self.total_poor() == 0
            && self.begging() + self.dead() >= self.threads
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
