//! The concurrency flight recorder: each worker logs the conflicts and
//! waits it lives through, not its operations (rollback + conflicting
//! vertex, CM wait, begging wait, donation, worker death / heir bequest);
//! the drain appends each worker's time sums.
//!
//! Design constraints (see DESIGN.md "Flight recorder & contention
//! analysis"):
//!
//! * **Owned, not shared**: a worker pushes into a [`FlightLog`] that sits
//!   in its own `ThreadRecorder`, behind `&mut`, like every other metric it
//!   records. Nothing else writes it; the drain reads it after the worker
//!   has handed the recorder back.
//! * **Bounded**: the log keeps the newest `capacity` events and counts the
//!   rest as `dropped`, so a pathological run costs a fixed amount of
//!   memory, and an ordinary one only what it logged.
//! * **One event per fact**: a kernel lock conflict is the rollback it
//!   becomes, a donation received is the begging wait it ends.

/// Default per-worker log capacity (events). 4 Ki events × 24 B = 96 KiB
/// per worker at most: at ≤ 0.1 events per op, 40 000 ops.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1 << 12;

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A rollback (`a` = conflicting vertex id, `b` = owner tid << 16 |
    /// region code, `c` = rolled-back work in ns; `cause` is a
    /// [`cause`] constant).
    Rollback,
    /// The contention manager released this thread (`a` = the owner it
    /// waited on, `c` = parked ns).
    CmUnpark,
    /// The thread left the begging list (`c` = parked ns; `cause`
    /// 0 = got work, 1 = run finished).
    BegUnpark,
    /// This thread donated freshly created cells (`a` = beggar tid,
    /// `b` = cells donated, `c` = handoff cost in ns: beggar-PEL lock,
    /// push, wake — the donor-side overhead time attribution charges).
    Donate,
    /// This worker died to an un-recovered panic.
    WorkerDeath,
    /// The dying worker bequeathed its PEL (`a` = heir tid, `b` = items).
    HeirBequest,
    /// One of a worker's time sums, appended by the drain, never logged by
    /// a worker (see [`FlightEvent::worker_sum`]).
    WorkerSums,
}

impl EventKind {
    /// Short name used by the analyzers and the Chrome-trace exporter.
    pub fn name(self) -> &'static str {
        use EventKind::*;
        match self {
            Rollback => "rollback",
            CmUnpark => "cm_unpark",
            BegUnpark => "beg_unpark",
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

/// One flight-recorder event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Nanoseconds since the run origin (once drained).
    pub t_ns: u64,
    pub kind: EventKind,
    pub cause: u8,
    /// Worker thread id of the logging worker.
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

    /// For rollback events: a real lock conflict with another worker, not
    /// an injected denial (cause [`cause::INJECTED`], or a kernel-injected
    /// one that names the rolling-back worker as the owner).
    pub fn is_lock_conflict(&self) -> bool {
        self.kind == EventKind::Rollback
            && matches!(self.cause, cause::INSERT_CONFLICT | cause::REMOVE_CONFLICT)
            && self.rollback_owner() != self.tid
    }
}

/// Pack an owner tid and region code into a rollback event's `b` word.
pub fn pack_owner_region(owner: u16, region: u16) -> u32 {
    ((owner as u32) << 16) | region as u32
}

/// One worker's bounded flight log: the newest `capacity` events it
/// pushed, the rest counted as dropped.
#[derive(Clone, Debug, Default)]
pub struct FlightLog {
    events: Vec<FlightEvent>,
    capacity: usize,
    pushed: u64,
}

impl FlightLog {
    /// An empty log that keeps at most `capacity` events; it allocates as
    /// it fills.
    pub fn new(capacity: usize) -> Self {
        FlightLog {
            events: Vec::new(),
            capacity,
            pushed: 0,
        }
    }

    /// Log `e`, overwriting the oldest kept event once the log is full.
    pub fn push(&mut self, e: FlightEvent) {
        if self.events.len() < self.capacity {
            self.events.push(e);
        } else if self.capacity > 0 {
            let oldest = (self.pushed % self.capacity as u64) as usize;
            self.events[oldest] = e;
        }
        self.pushed += 1;
    }

    /// Events pushed but no longer kept.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.events.len() as u64
    }

    /// The kept events, oldest first, and the drop count; the log is left
    /// empty, with its capacity.
    pub fn take(&mut self) -> (Vec<FlightEvent>, u64) {
        let dropped = self.dropped();
        let mut events = std::mem::take(&mut self.events);
        if dropped > 0 && !events.is_empty() {
            events.rotate_left((self.pushed % self.capacity as u64) as usize);
        }
        self.pushed = 0;
        (events, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rollback(tid: u16, cause: u8, owner: u16) -> FlightEvent {
        FlightEvent {
            t_ns: 0,
            kind: EventKind::Rollback,
            cause,
            tid,
            a: 0,
            b: pack_owner_region(owner, 0xabc),
            c: 0,
        }
    }

    #[test]
    fn worker_sum_carries_a_u64_of_nanoseconds() {
        let ns = 5 * (1u64 << 32) + 123_456_789;
        let e = FlightEvent::worker_sum(42, 3, SumBucket::BegPark, ns, 17);
        assert_eq!(e.sum(), Some((SumBucket::BegPark, ns)));
        assert_eq!((e.tid, e.c), (3, 17));
        assert_eq!(rollback(0, 0, 1).sum(), None);
        for b in SumBucket::ALL {
            assert_eq!(SumBucket::from_u8(b as u8), Some(b));
        }
        assert_eq!(SumBucket::from_u8(6), None);
    }

    #[test]
    fn rollback_words_unpack() {
        let e = rollback(3, cause::REMOVE_CONFLICT, 12);
        assert_eq!((e.rollback_owner(), e.rollback_region()), (12, 0xabc));
    }

    fn numbered(i: u32) -> FlightEvent {
        FlightEvent {
            a: i,
            ..rollback(0, 0, 1)
        }
    }

    /// A log lapped many times keeps exactly its newest `capacity` events,
    /// oldest first, and counts every other push as dropped.
    #[test]
    fn a_wrapped_log_keeps_the_newest_in_order() {
        for (capacity, pushed) in [(8, 5), (8, 8), (8, 9), (7, 1000), (1, 3)] {
            let mut log = FlightLog::new(capacity);
            for i in 0..pushed {
                log.push(numbered(i));
            }
            assert_eq!(
                log.dropped(),
                (pushed as u64).saturating_sub(capacity as u64)
            );
            let (kept, dropped) = log.take();
            assert_eq!(kept.len() as u64 + dropped, pushed as u64);
            let first = pushed.saturating_sub(capacity as u32);
            let want: Vec<u32> = (first..pushed).collect();
            assert_eq!(kept.iter().map(|e| e.a).collect::<Vec<_>>(), want);
            // taken: the log starts over, with its capacity
            assert_eq!(log.take(), (Vec::new(), 0));
            log.push(numbered(7));
            assert_eq!(log.take().0.len(), 1);
        }
    }

    #[test]
    fn a_zero_capacity_log_keeps_none() {
        let mut log = FlightLog::new(0);
        for i in 0..100 {
            log.push(numbered(i));
        }
        assert_eq!(log.take(), (Vec::new(), 100));
        assert_eq!(FlightLog::default().take(), (Vec::new(), 0));
    }
}
