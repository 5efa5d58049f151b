//! Contention managers (paper §5).
//!
//! After a rollback, the contention manager decides whether the thread
//! should retry immediately (Aggressive), back off randomly (Random), or
//! park until a making-progress thread wakes it (Global / Local). Global-CM
//! provably avoids deadlock; Local-CM additionally distributes the
//! contention lists per thread and provably avoids both deadlocks and
//! livelocks (paper Lemmas 1–2); the engine's watchdog detects the livelocks
//! the non-blocking schemes can fall into (paper Table 1).

use crate::sync::EngineSync;
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use pi2m_obs::flight::EventKind;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Successes needed before a blocking CM wakes a waiter (paper: s⁺ = 10).
pub const S_PLUS: u32 = 10;
/// Consecutive rollbacks tolerated by Random-CM before sleeping
/// (paper: r⁺ = 5).
pub const R_PLUS: u32 = 5;

/// Which contention manager to run (paper §5 nomenclature).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmKind {
    Aggressive,
    Random,
    Global,
    Local,
}

/// The contention-management policy interface.
pub trait ContentionManager: Send + Sync {
    fn name(&self) -> &'static str;

    /// A thread completed an operation without rollback.
    fn on_success(&self, tid: usize);

    /// A thread rolled back after conflicting with `owner`. May park the
    /// thread; returns the seconds spent parked/sleeping (contention
    /// overhead).
    fn on_rollback(&self, tid: usize, owner: usize, sync: &EngineSync) -> f64;

    /// Called before `tid` parks in the begging list: wake waiters that only
    /// this thread could have woken (drain-time liveness).
    fn before_beg(&self, tid: usize, sync: &EngineSync);

    /// Wake one parked thread, if any (deadlock-breaking fallback used by
    /// idle beggars). Returns whether a thread was woken.
    fn release_one(&self) -> bool;

    /// Wake every parked thread (termination / watchdog abort).
    fn release_all(&self);
}

pub fn make_cm(kind: CmKind, threads: usize) -> Box<dyn ContentionManager> {
    match kind {
        CmKind::Aggressive => Box::new(AggressiveCm),
        CmKind::Random => Box::new(RandomCm::new(threads)),
        CmKind::Global => Box::new(GlobalCm::new(threads)),
        CmKind::Local => Box::new(LocalCm::new(threads)),
    }
}

/// Park-until-flag-cleared busy wait with yields (the host may be heavily
/// oversubscribed). Returns seconds waited.
fn busy_wait_while(flag: &AtomicBool, sync: &EngineSync) -> f64 {
    let t0 = Instant::now();
    while flag.load(Ordering::Acquire) && !sync.is_done() {
        std::hint::spin_loop();
        std::thread::yield_now();
    }
    t0.elapsed().as_secs_f64()
}

/// Seconds → saturated u32 nanoseconds for a flight-event payload word.
#[inline]
fn secs_to_ns_u32(s: f64) -> u32 {
    (s * 1e9).min(u32::MAX as f64) as u32
}

/// CM park with flight-recorder bracketing: CmPark when the thread commits
/// to waiting, CmUnpark (duration in `c`) when it resumes.
fn recorded_cm_wait(tid: usize, owner: usize, flag: &AtomicBool, sync: &EngineSync) -> f64 {
    sync.enter_cm_block();
    recorded_cm_wait_entered(tid, owner, flag, sync)
}

/// [`recorded_cm_wait`] for a caller that already counted itself blocked
/// (`sync.enter_cm_block()`).
fn recorded_cm_wait_entered(tid: usize, owner: usize, flag: &AtomicBool, sync: &EngineSync) -> f64 {
    sync.flight_emit(tid, EventKind::CmPark, 0, owner as u32, 0, 0);
    let waited = busy_wait_while(flag, sync);
    sync.exit_cm_block();
    sync.flight_emit(
        tid,
        EventKind::CmUnpark,
        0,
        owner as u32,
        0,
        secs_to_ns_u32(waited),
    );
    waited
}

// --------------------------------------------------------------------------

/// Brute force: retry immediately. Livelock-prone (paper §5.1) — kept for
/// the Table 1 comparison.
pub struct AggressiveCm;

impl ContentionManager for AggressiveCm {
    fn name(&self) -> &'static str {
        "aggressive"
    }
    fn on_success(&self, _tid: usize) {}
    fn on_rollback(&self, _tid: usize, _owner: usize, _sync: &EngineSync) -> f64 {
        0.0
    }
    fn before_beg(&self, _tid: usize, _sync: &EngineSync) {}
    fn release_one(&self) -> bool {
        false
    }
    fn release_all(&self) {}
}

// --------------------------------------------------------------------------

/// Random backoff: after r⁺ consecutive rollbacks, sleep a random 1..=r⁺ ms
/// (paper §5.2). Does not provably avoid livelock.
pub struct RandomCm {
    consecutive: Vec<CachePadded<AtomicU32>>,
    rng: Vec<CachePadded<AtomicU64>>,
}

impl RandomCm {
    pub fn new(threads: usize) -> Self {
        RandomCm {
            consecutive: (0..threads)
                .map(|_| CachePadded::new(AtomicU32::new(0)))
                .collect(),
            rng: (0..threads)
                .map(|t| CachePadded::new(AtomicU64::new(0x9e3779b97f4a7c15 ^ (t as u64 + 1))))
                .collect(),
        }
    }

    fn next_rand(&self, tid: usize) -> u64 {
        let slot = &self.rng[tid];
        let mut x = slot.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        slot.store(x, Ordering::Relaxed);
        x
    }
}

impl ContentionManager for RandomCm {
    fn name(&self) -> &'static str {
        "random"
    }

    fn on_success(&self, tid: usize) {
        self.consecutive[tid].store(0, Ordering::Relaxed);
    }

    fn on_rollback(&self, tid: usize, owner: usize, sync: &EngineSync) -> f64 {
        let r = self.consecutive[tid].fetch_add(1, Ordering::Relaxed) + 1;
        if r > R_PLUS {
            let ms = 1 + self.next_rand(tid) % (R_PLUS as u64);
            sync.flight_emit(tid, EventKind::CmPark, 0, owner as u32, 0, 0);
            let t0 = Instant::now();
            std::thread::sleep(Duration::from_millis(ms));
            let waited = t0.elapsed().as_secs_f64();
            sync.flight_emit(
                tid,
                EventKind::CmUnpark,
                0,
                owner as u32,
                0,
                secs_to_ns_u32(waited),
            );
            return waited;
        }
        0.0
    }

    fn before_beg(&self, _tid: usize, _sync: &EngineSync) {}
    fn release_one(&self) -> bool {
        false
    }
    fn release_all(&self) {}
}

// --------------------------------------------------------------------------

/// One global FIFO contention list; rollback ⇒ park; s⁺ consecutive
/// successes ⇒ wake the head (paper §5.3). Deadlock-free via the
/// active-thread guard.
pub struct GlobalCm {
    cl: Mutex<VecDeque<usize>>,
    parked: Vec<CachePadded<AtomicBool>>,
    streak: Vec<CachePadded<AtomicU32>>,
}

impl GlobalCm {
    pub fn new(threads: usize) -> Self {
        GlobalCm {
            cl: Mutex::new(VecDeque::new()),
            parked: (0..threads)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            streak: (0..threads)
                .map(|_| CachePadded::new(AtomicU32::new(0)))
                .collect(),
        }
    }

    fn wake_head(&self) -> bool {
        let mut cl = self.cl.lock();
        if let Some(j) = cl.pop_front() {
            self.parked[j].store(false, Ordering::Release);
            true
        } else {
            false
        }
    }
}

impl ContentionManager for GlobalCm {
    fn name(&self) -> &'static str {
        "global"
    }

    fn on_success(&self, tid: usize) {
        // paper Fig. 2b: the streak is NOT reset on a wake — once a thread
        // exceeds s+, every further success releases another waiter.
        let s = self.streak[tid].fetch_add(1, Ordering::Relaxed) + 1;
        if s >= S_PLUS {
            self.wake_head();
        }
    }

    fn on_rollback(&self, tid: usize, owner: usize, sync: &EngineSync) -> f64 {
        self.streak[tid].store(0, Ordering::Relaxed);
        {
            // A thread may not park if it is the only active thread (paper
            // §5.3). Decide and count ourselves blocked under the list lock:
            // two threads rolling back at once must not each take the other
            // for the one that stays active and both park.
            let mut cl = self.cl.lock();
            if sync.active() <= 1 || sync.is_done() {
                return 0.0;
            }
            self.parked[tid].store(true, Ordering::Release);
            cl.push_back(tid);
            sync.enter_cm_block();
        }
        recorded_cm_wait_entered(tid, owner, &self.parked[tid], sync)
    }

    fn before_beg(&self, _tid: usize, _sync: &EngineSync) {
        // A thread leaving the competition hands progress duty onward.
        self.wake_head();
    }

    fn release_one(&self) -> bool {
        self.wake_head()
    }

    fn release_all(&self) {
        while self.wake_head() {}
    }
}

// --------------------------------------------------------------------------

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
}

impl ContentionManager for LocalCm {
    fn name(&self) -> &'static str {
        "local"
    }

    fn on_success(&self, tid: usize) {
        // no streak reset on wake (paper Fig. 2b)
        let slot = &self.slots[tid];
        let s = slot.streak.fetch_add(1, Ordering::Relaxed) + 1;
        if s >= S_PLUS {
            self.wake_from(tid);
        }
    }

    fn on_rollback(&self, tid: usize, owner: usize, sync: &EngineSync) -> f64 {
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
        self.slots[tid].busy_wait.store(true, Ordering::Release);
        self.slots[owner].cl.lock().push_back(tid);
        drop(_g2);
        drop(_g1);
        recorded_cm_wait(tid, owner, &self.slots[tid].busy_wait, sync)
    }

    fn before_beg(&self, tid: usize, _sync: &EngineSync) {
        // Threads waiting on *this* thread's list would otherwise wait until
        // someone else wakes them; hand them back before parking.
        while self.wake_from(tid) {}
    }

    fn release_one(&self) -> bool {
        for t in 0..self.slots.len() {
            if self.wake_from(t) {
                return true;
            }
        }
        false
    }

    fn release_all(&self) {
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
    fn aggressive_never_blocks() {
        let cm = AggressiveCm;
        let sync = EngineSync::new(4);
        assert_eq!(cm.on_rollback(0, 1, &sync), 0.0);
    }

    #[test]
    fn random_sleeps_after_threshold() {
        let cm = RandomCm::new(2);
        let sync = EngineSync::new(2);
        let mut slept = 0.0;
        for _ in 0..(R_PLUS + 2) {
            slept += cm.on_rollback(0, 1, &sync);
        }
        assert!(slept > 0.0, "must sleep after exceeding r+");
        cm.on_success(0);
        // counter reset: immediate rollback doesn't sleep
        assert_eq!(cm.on_rollback(0, 1, &sync), 0.0);
    }

    #[test]
    fn global_parks_and_wakes() {
        let cm = Arc::new(GlobalCm::new(2));
        let sync = Arc::new(EngineSync::new(2));
        let cm2 = Arc::clone(&cm);
        let sync2 = Arc::clone(&sync);
        let h = std::thread::spawn(move || cm2.on_rollback(0, 1, &sync2));
        // wait until parked
        while sync.cm_blocked() == 0 {
            std::thread::yield_now();
        }
        // s+ successes wake it
        for _ in 0..S_PLUS {
            cm.on_success(1);
        }
        let waited = h.join().unwrap();
        assert!(waited >= 0.0);
        assert_eq!(sync.cm_blocked(), 0);
    }

    #[test]
    fn global_last_active_never_parks() {
        let cm = GlobalCm::new(2);
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
        cm.before_beg(1, &sync);
        h.join().unwrap();
        assert_eq!(sync.cm_blocked(), 0);
    }

    #[test]
    fn release_all_unblocks_everything() {
        let cm = Arc::new(GlobalCm::new(3));
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
