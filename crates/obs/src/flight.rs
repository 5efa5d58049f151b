//! The concurrency flight recorder: fixed-capacity per-worker SPSC event
//! rings of conflicts and waits, not operations (rollback + conflicting
//! vertex, lock conflicts, CM park/unpark, balancer beg/steal/donate,
//! worker death / heir bequest); the drain appends each worker's time sums.
//!
//! Design constraints (see DESIGN.md "Flight recorder & contention
//! analysis"):
//!
//! * **Hot path**: the writer does three relaxed word stores plus one
//!   release head bump — on x86-64 all four compile to plain `mov`s. There
//!   are no RMW atomics, no branches on ring state, and no allocation.
//! * **Overwrite-oldest**: the ring never blocks the writer; events the
//!   ring no longer holds are counted as `dropped` by the drain (computed
//!   from the monotonic head sequence).
//! * **One reader, after the writers**: the rings are drained once per run,
//!   after every worker has joined, so no slot is ever read while it is
//!   being written.
//!
//! A 24-byte slot holds the event's three payload words (timestamp + two
//! packed words). Decoded form is [`FlightEvent`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default per-worker ring capacity (events). 4 Ki events × 24 B = 96 KiB
/// per worker: at ≤ 0.1 events per op, 40 000 ops.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 12;

/// Version of the on-ring event layout (slot encoding, [`EventKind`] byte
/// values, and [`cause`] / [`SumBucket`] constants). Bumped whenever any of
/// those change, so archived flight logs and `--report` JSON can be matched
/// to the binary layout that produced them (`pi2m --version` prints it).
pub const LAYOUT_VERSION: u32 = 3;

/// What happened, encoded in the event's kind byte. Bytes 1, 2 and 5 are
/// retired (layout 2's per-operation kinds) and do not decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A rollback (`a` = conflicting vertex id, `b` = owner tid << 16 |
    /// region code, `c` = rolled-back work in ns; `cause` is a
    /// [`cause`] constant).
    Rollback = 3,
    /// A vertex try-lock failed inside the kernel (`a` = vertex id,
    /// `b` = owning tid, `c` = locks already held).
    LockConflict = 4,
    /// The contention manager parked this thread.
    CmPark = 6,
    /// The contention manager released this thread (`c` = parked ns).
    CmUnpark = 7,
    /// The thread parked in a begging list.
    BegPark = 8,
    /// The thread left the begging list (`c` = parked ns; `cause`
    /// 0 = got work, 1 = run finished).
    BegUnpark = 9,
    /// A begging thread received donated work.
    Steal = 10,
    /// This thread donated freshly created cells (`a` = beggar tid,
    /// `b` = cells donated, `c` = handoff cost in ns: beggar-PEL lock,
    /// push, wake — the donor-side overhead time attribution charges).
    Donate = 11,
    /// This worker died to an un-recovered panic.
    WorkerDeath = 12,
    /// The dying worker bequeathed its PEL (`a` = heir tid, `b` = items).
    HeirBequest = 13,
    /// One of a worker's time sums, appended by the drain, never in a ring
    /// (see [`FlightEvent::worker_sum`]).
    WorkerSums = 14,
}

impl EventKind {
    pub fn from_u8(v: u8) -> Option<EventKind> {
        use EventKind::*;
        Some(match v {
            3 => Rollback,
            4 => LockConflict,
            6 => CmPark,
            7 => CmUnpark,
            8 => BegPark,
            9 => BegUnpark,
            10 => Steal,
            11 => Donate,
            12 => WorkerDeath,
            13 => HeirBequest,
            14 => WorkerSums,
            _ => return None,
        })
    }

    /// Short name used by the analyzers and the Chrome-trace exporter.
    pub fn name(self) -> &'static str {
        use EventKind::*;
        match self {
            Rollback => "rollback",
            LockConflict => "lock_conflict",
            CmPark => "cm_park",
            CmUnpark => "cm_unpark",
            BegPark => "beg_park",
            BegUnpark => "beg_unpark",
            Steal => "steal",
            Donate => "donate",
            WorkerDeath => "worker_death",
            HeirBequest => "heir_bequest",
            WorkerSums => "worker_sums",
        }
    }
}

/// Rollback / cause-byte constants.
pub mod cause {
    /// Insert conflicted on a locked vertex.
    pub const INSERT_CONFLICT: u8 = 0;
    /// R6 removal conflicted on a locked vertex.
    pub const REMOVE_CONFLICT: u8 = 1;
    /// Fault injection denied the operation (synthetic self-conflict).
    pub const INJECTED: u8 = 2;
    /// BegUnpark: woken with work vs. run finished.
    pub const BEG_GOT_WORK: u8 = 0;
    pub const BEG_FINISHED: u8 = 1;
}

/// Which `ThreadStats` time sum a [`EventKind::WorkerSums`] event carries
/// (its `cause` byte). Its count word counts, in order: insertions,
/// removals, rollbacks, rollbacks (each consults the CM once), donations
/// received, donations made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SumBucket {
    CommittedInsert = 0,
    CommittedRemove = 1,
    RolledBack = 2,
    CmPark = 3,
    BegPark = 4,
    StealDonate = 5,
}

impl SumBucket {
    pub const ALL: [SumBucket; 6] = [
        SumBucket::CommittedInsert,
        SumBucket::CommittedRemove,
        SumBucket::RolledBack,
        SumBucket::CmPark,
        SumBucket::BegPark,
        SumBucket::StealDonate,
    ];

    pub fn from_u8(v: u8) -> Option<SumBucket> {
        SumBucket::ALL.get(v as usize).copied()
    }
}

/// One decoded flight-recorder event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Nanoseconds since the recorder origin.
    pub t_ns: u64,
    pub kind: EventKind,
    pub cause: u8,
    /// Worker thread id of the emitting ring.
    pub tid: u16,
    /// Kind-specific payload (see [`EventKind`] docs).
    pub a: u32,
    pub b: u32,
    pub c: u32,
}

impl FlightEvent {
    /// Worker `tid`'s `bucket` sum at `t_ns`: `ns` nanoseconds (in `a`:`b`,
    /// high:low) over `count` items (in `c`).
    pub fn worker_sum(t_ns: u64, tid: u16, bucket: SumBucket, ns: u64, count: u32) -> Self {
        FlightEvent {
            t_ns,
            kind: EventKind::WorkerSums,
            cause: bucket as u8,
            tid,
            a: (ns >> 32) as u32,
            b: ns as u32,
            c: count,
        }
    }

    /// For worker-sums events: the bucket and its nanoseconds.
    pub fn sum(&self) -> Option<(SumBucket, u64)> {
        if self.kind != EventKind::WorkerSums {
            return None;
        }
        let ns = ((self.a as u64) << 32) | self.b as u64;
        SumBucket::from_u8(self.cause).map(|b| (b, ns))
    }

    pub fn t_s(&self) -> f64 {
        self.t_ns as f64 * 1e-9
    }

    /// For rollback events: the conflicting owner tid packed in `b`.
    pub fn rollback_owner(&self) -> u16 {
        (self.b >> 16) as u16
    }

    /// For rollback events: the spatial region code packed in `b`.
    pub fn rollback_region(&self) -> u16 {
        (self.b & 0xffff) as u16
    }
}

/// Pack an owner tid and region code into a rollback event's `b` word.
pub fn pack_owner_region(owner: u16, region: u16) -> u32 {
    ((owner as u32) << 16) | region as u32
}

#[inline]
fn encode(e: &FlightEvent) -> [u64; 3] {
    let w0 = e.t_ns;
    let w1 =
        ((e.kind as u64) << 56) | ((e.cause as u64) << 48) | ((e.tid as u64) << 32) | e.a as u64;
    let w2 = ((e.b as u64) << 32) | e.c as u64;
    [w0, w1, w2]
}

#[inline]
fn decode(w: [u64; 3]) -> Option<FlightEvent> {
    let kind = EventKind::from_u8((w[1] >> 56) as u8)?;
    Some(FlightEvent {
        t_ns: w[0],
        kind,
        cause: (w[1] >> 48) as u8,
        tid: (w[1] >> 32) as u16,
        a: w[1] as u32,
        b: (w[2] >> 32) as u32,
        c: w[2] as u32,
    })
}

/// One 24-byte slot: the three payload words.
type Slot = [AtomicU64; 3];

/// A fixed-capacity single-producer event ring. The owning worker is the
/// only writer; the one reader is the end-of-run drain, which runs after
/// the writer has stopped.
pub struct EventRing {
    slots: Box<[Slot]>,
    /// Monotonic count of events ever pushed (never wraps in practice:
    /// 2⁶⁴ events at 10⁹ events/s is ~585 years).
    head: AtomicU64,
}

/// Result of one incremental ring read.
pub struct RingRead {
    pub events: Vec<FlightEvent>,
    /// Cursor to pass to the next read.
    pub cursor: u64,
    /// Events overwritten before this reader reached them.
    pub dropped: u64,
}

impl EventRing {
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(8);
        EventRing {
            slots: (0..cap)
                .map(|_| [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)])
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed.
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Writer hot path: three relaxed stores + one release head bump.
    /// Single-producer only — the owning worker thread.
    #[inline]
    pub fn push(&self, e: &FlightEvent) {
        let seq = self.head.load(Ordering::Relaxed);
        let w = encode(e);
        let slot = &self.slots[(seq as usize) & (self.slots.len() - 1)];
        slot[0].store(w[0], Ordering::Relaxed);
        slot[1].store(w[1], Ordering::Relaxed);
        slot[2].store(w[2], Ordering::Relaxed);
        // Release publishes the slot words to an acquiring reader; on x86
        // this is still a plain store (the "one relaxed head bump").
        self.head.store(seq + 1, Ordering::Release);
    }

    /// Read the events in `[max(cursor, head − capacity), head)`: the ones
    /// pushed since `cursor` that the ring still holds, oldest first. The
    /// rest of `[cursor, head)` was overwritten and is counted as
    /// `dropped`. The writer must have stopped: a slot read while it is
    /// being overwritten is not detected.
    pub fn read_from(&self, cursor: u64) -> RingRead {
        let cap = self.slots.len() as u64;
        // Pairs with the writer's release store of `head`: the words of every
        // event below it are visible here, so relaxed slot loads read them.
        let head = self.head.load(Ordering::Acquire);
        let start = cursor.max(head.saturating_sub(cap));
        let events = (start..head)
            .filter_map(|seq| {
                let slot = &self.slots[(seq as usize) & (self.slots.len() - 1)];
                decode([
                    slot[0].load(Ordering::Relaxed),
                    slot[1].load(Ordering::Relaxed),
                    slot[2].load(Ordering::Relaxed),
                ])
            })
            .collect();
        RingRead {
            events,
            cursor: head,
            dropped: start - cursor,
        }
    }
}

/// The per-run flight recorder: one SPSC ring per worker plus the shared
/// time origin. Shared by `Arc` between the engine, the kernel contexts,
/// and the end-of-run drain — the rings outlive any individual worker, so a
/// dying worker's events survive by construction.
pub struct FlightRecorder {
    rings: Vec<Arc<EventRing>>,
    origin: Instant,
}

/// A merged, time-sorted drain of every ring.
pub struct FlightLog {
    pub events: Vec<FlightEvent>,
    pub dropped: u64,
}

impl FlightRecorder {
    pub fn new(threads: usize, capacity: usize) -> Self {
        FlightRecorder {
            rings: (0..threads.max(1))
                .map(|_| Arc::new(EventRing::new(capacity)))
                .collect(),
            origin: Instant::now(),
        }
    }

    pub fn threads(&self) -> usize {
        self.rings.len()
    }

    pub fn ring(&self, tid: usize) -> &Arc<EventRing> {
        &self.rings[tid]
    }

    /// Nanoseconds since the recorder origin.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A cheap per-worker writer handle (clones the ring `Arc`).
    pub fn handle(&self, tid: usize) -> FlightHandle {
        FlightHandle {
            ring: Arc::clone(&self.rings[tid]),
            origin: self.origin,
            tid: tid as u16,
        }
    }

    /// Emit on behalf of worker `tid`. Must only be called from the thread
    /// that owns ring `tid` (the rings are single-producer).
    #[inline]
    pub fn emit(&self, tid: usize, kind: EventKind, cause: u8, a: u32, b: u32, c: u32) {
        self.rings[tid].push(&FlightEvent {
            t_ns: self.now_ns(),
            kind,
            cause,
            tid: tid as u16,
            a,
            b,
            c,
        });
    }

    /// Full drain: merge every ring into one time-sorted log. The writers
    /// must have stopped (every worker joined).
    pub fn drain(&self) -> FlightLog {
        let mut cursors = vec![0u64; self.rings.len()];
        self.drain_from(&mut cursors)
    }

    /// Incremental drain for a recorder whose rings are *reused across runs*
    /// (a warm `MeshingSession` pool): read each ring from its saved cursor,
    /// advancing the cursors past what was read, so each run's drain sees
    /// only that run's events and its `dropped` accounting stays per-run.
    ///
    /// `cursors` must have one entry per ring; pass all-zeros (or
    /// [`drain`](Self::drain)) for a fresh recorder. The writers must have
    /// stopped (every worker joined).
    pub fn drain_from(&self, cursors: &mut [u64]) -> FlightLog {
        assert_eq!(cursors.len(), self.rings.len(), "one cursor per ring");
        let mut events = Vec::new();
        let mut dropped = 0;
        for (ring, cursor) in self.rings.iter().zip(cursors.iter_mut()) {
            let r = ring.read_from(*cursor);
            *cursor = r.cursor;
            events.extend(r.events);
            dropped += r.dropped;
        }
        events.sort_by_key(|e| e.t_ns);
        FlightLog { events, dropped }
    }
}

/// Per-worker writer handle held by kernel contexts and workers.
#[derive(Clone)]
pub struct FlightHandle {
    ring: Arc<EventRing>,
    origin: Instant,
    tid: u16,
}

impl FlightHandle {
    #[inline]
    pub fn emit(&self, kind: EventKind, cause: u8, a: u32, b: u32, c: u32) {
        self.ring.push(&FlightEvent {
            t_ns: self.origin.elapsed().as_nanos() as u64,
            kind,
            cause,
            tid: self.tid,
            a,
            b,
            c,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ns: u64, kind: EventKind, a: u32) -> FlightEvent {
        FlightEvent {
            t_ns,
            kind,
            cause: 0,
            tid: 3,
            a,
            b: 7,
            c: 11,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let e = FlightEvent {
            t_ns: 123_456_789_000,
            kind: EventKind::Rollback,
            cause: cause::REMOVE_CONFLICT,
            tid: 65_535,
            a: u32::MAX,
            b: pack_owner_region(12, 0xabc),
            c: 42,
        };
        let d = decode(encode(&e)).unwrap();
        assert_eq!(d, e);
        assert_eq!(d.rollback_owner(), 12);
        assert_eq!(d.rollback_region(), 0xabc);
    }

    #[test]
    fn bad_kind_does_not_decode() {
        let mut w = encode(&ev(1, EventKind::Steal, 2));
        w[1] = (w[1] & !(0xffu64 << 56)) | (200u64 << 56);
        assert!(decode(w).is_none());
    }

    /// Layout 2's per-operation kinds (op begin, op commit, lock batch)
    /// are retired: their bytes no longer decode.
    #[test]
    fn retired_kind_bytes_do_not_decode() {
        for retired in [1u8, 2, 5] {
            assert_eq!(EventKind::from_u8(retired), None);
        }
        for kind in (0..=255).filter_map(EventKind::from_u8) {
            assert_eq!(EventKind::from_u8(kind as u8), Some(kind));
        }
    }

    #[test]
    fn worker_sum_carries_a_u64_of_nanoseconds() {
        let ns = 5 * (1u64 << 32) + 123_456_789;
        let e = FlightEvent::worker_sum(42, 3, SumBucket::BegPark, ns, 17);
        let d = decode(encode(&e)).unwrap();
        assert_eq!(d, e);
        assert_eq!(d.sum(), Some((SumBucket::BegPark, ns)));
        assert_eq!((d.tid, d.c), (3, 17));
        assert_eq!(ev(1, EventKind::Rollback, 0).sum(), None);
        for b in SumBucket::ALL {
            assert_eq!(SumBucket::from_u8(b as u8), Some(b));
        }
        assert_eq!(SumBucket::from_u8(6), None);
    }

    #[test]
    fn ring_reads_back_in_order() {
        let ring = EventRing::new(16);
        for i in 0..10 {
            ring.push(&ev(i, EventKind::Rollback, i as u32));
        }
        let r = ring.read_from(0);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.cursor, 10);
        assert_eq!(r.events.len(), 10);
        for (i, e) in r.events.iter().enumerate() {
            assert_eq!(e.a, i as u32);
        }
    }

    #[test]
    fn wraparound_drops_oldest_and_accounts_for_them() {
        let ring = EventRing::new(8); // power of two, stays 8
        assert_eq!(ring.capacity(), 8);
        for i in 0..20 {
            ring.push(&ev(i, EventKind::LockConflict, i as u32));
        }
        let r = ring.read_from(0);
        // 20 pushed into 8 slots: the 12 oldest are gone
        assert_eq!(r.dropped, 12);
        assert_eq!(r.events.len(), 8);
        assert_eq!(r.cursor, 20);
        // survivors are the newest 8, still in order
        let got: Vec<u32> = r.events.iter().map(|e| e.a).collect();
        assert_eq!(got, (12..20).collect::<Vec<u32>>());
        // incremental follow-up read from the returned cursor sees nothing
        let r2 = ring.read_from(r.cursor);
        assert_eq!(r2.events.len(), 0);
        assert_eq!(r2.dropped, 0);
    }

    #[test]
    fn incremental_cursor_never_double_counts() {
        let ring = EventRing::new(8);
        let mut cursor = 0;
        let mut seen = 0u64;
        let mut dropped = 0u64;
        for round in 0..5u64 {
            for i in 0..6 {
                ring.push(&ev(round * 6 + i, EventKind::Rollback, 0));
            }
            let r = ring.read_from(cursor);
            cursor = r.cursor;
            seen += r.events.len() as u64;
            dropped += r.dropped;
        }
        assert_eq!(seen + dropped, 30);
        assert_eq!(dropped, 0, "reader kept up; nothing may drop");
    }

    #[test]
    fn recorder_merges_rings_time_sorted() {
        let rec = FlightRecorder::new(3, 64);
        rec.emit(2, EventKind::CmPark, 0, 1, 0, 0);
        rec.emit(0, EventKind::LockConflict, 0, 2, 0, 0);
        rec.emit(1, EventKind::Rollback, 0, 3, 0, 0);
        let log = rec.drain();
        assert_eq!(log.events.len(), 3);
        assert!(log.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert_eq!(log.dropped, 0);
        let tids: Vec<u16> = log.events.iter().map(|e| e.tid).collect();
        assert!(tids.contains(&0) && tids.contains(&1) && tids.contains(&2));
    }

    #[test]
    fn handle_emits_into_owned_ring() {
        let rec = FlightRecorder::new(2, 16);
        let h = rec.handle(1);
        h.emit(EventKind::LockConflict, 0, 99, 4, 1);
        let log = rec.drain();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].tid, 1);
        assert_eq!(log.events[0].a, 99);
        assert_eq!(log.events[0].kind, EventKind::LockConflict);
    }
}
