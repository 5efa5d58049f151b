//! Per-worker wall-time attribution: fold a drained flight-recorder
//! timeline into "where did each worker's wall time go" — committed-op
//! work, rolled-back (wasted) work, contention-manager park, begging-list
//! park, steal/donate handoff overhead, and the idle remainder.
//!
//! Every category is *measured*, not modeled: the durations come from the
//! `c` word of the duration-bearing flight events (`OpCommit`, `Rollback`,
//! `CmUnpark`, `BegUnpark`, `Donate`), so the decomposition is exactly as
//! trustworthy as the recorder itself. Committed time is further split by
//! the op kind the `OpCommit` event carries in its cause byte (insertions vs
//! R6 removals). The idle remainder absorbs whatever the rings did not
//! capture (scheduler preemption, walk/classify time outside the op
//! lifecycle on dead branches, ring overwrites — a ring that overwrote
//! events makes the fold *partial*, see [`TimeAttribution::is_partial`]),
//! which is why [`WorkerAttribution::fractions`] always sums to ~1.0 by
//! construction: the normalizer is `max(wall, accounted)` so a worker whose
//! measured time overruns the wall clock (timer skew, oversubscribed cores)
//! still reports a sane unit breakdown with `idle = 0`.
//!
//! Surfaced three ways: the `time_attribution` section of the schema-v3
//! [`RunReport`](crate::RunReport), the contention analyzer output, and
//! synthetic per-worker counter tracks in the Chrome trace export.

use crate::flight::{cause, EventKind, FlightEvent};
use crate::json::Json;

/// The attribution categories, in serialization order. `Idle` is always the
/// residual: wall time minus every measured category, clamped at zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    /// Time inside operations that committed (useful work).
    Committed,
    /// Time inside operations that rolled back (wasted work).
    RolledBack,
    /// Time parked by the contention manager.
    CmPark,
    /// Time parked in a begging list waiting for a donation.
    BegPark,
    /// Donation handoff overhead (locking the beggar's PEL, pushing cells,
    /// waking it) on the donor's clock.
    StealDonate,
    /// Unaccounted remainder of the wall clock.
    Idle,
}

impl Category {
    pub const ALL: [Category; 6] = [
        Category::Committed,
        Category::RolledBack,
        Category::CmPark,
        Category::BegPark,
        Category::StealDonate,
        Category::Idle,
    ];

    /// Stable snake_case key used in JSON and in the `pi2m analyze` output.
    pub fn key(self) -> &'static str {
        match self {
            Category::Committed => "committed",
            Category::RolledBack => "rolled_back",
            Category::CmPark => "cm_park",
            Category::BegPark => "beg_park",
            Category::StealDonate => "steal_donate",
            Category::Idle => "idle",
        }
    }

    /// True for the categories that are pure waste (everything except
    /// committed work; idle counts as waste — an idle worker is a scaling
    /// loss exactly like a parked one).
    pub fn is_waste(self) -> bool {
        !matches!(self, Category::Committed)
    }
}

/// One worker's wall-time decomposition, all in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerAttribution {
    pub tid: u16,
    /// All committed operations: `committed_insert_s + committed_remove_s`.
    pub committed_s: f64,
    /// The part of `committed_s` spent in insertions.
    pub committed_insert_s: f64,
    /// The part of `committed_s` spent in R6 removals.
    pub committed_remove_s: f64,
    pub rolled_back_s: f64,
    pub cm_park_s: f64,
    pub beg_park_s: f64,
    pub steal_donate_s: f64,
    /// Residual: `max(wall, accounted) - accounted`.
    pub idle_s: f64,
}

impl WorkerAttribution {
    pub fn get(&self, cat: Category) -> f64 {
        match cat {
            Category::Committed => self.committed_s,
            Category::RolledBack => self.rolled_back_s,
            Category::CmPark => self.cm_park_s,
            Category::BegPark => self.beg_park_s,
            Category::StealDonate => self.steal_donate_s,
            Category::Idle => self.idle_s,
        }
    }

    /// Sum of the five *measured* categories (everything but idle).
    pub fn accounted_s(&self) -> f64 {
        self.committed_s
            + self.rolled_back_s
            + self.cm_park_s
            + self.beg_park_s
            + self.steal_donate_s
    }

    /// Total attributed time including the idle residual; this is the
    /// normalizer of [`fractions`](Self::fractions).
    pub fn total_s(&self) -> f64 {
        self.accounted_s() + self.idle_s
    }

    /// Unit breakdown in [`Category::ALL`] order. Sums to 1.0 (within float
    /// error) whenever the worker attributed any time at all.
    pub fn fractions(&self) -> [f64; 6] {
        let total = self.total_s();
        let mut f = [0.0; 6];
        if total > 0.0 {
            for (slot, cat) in f.iter_mut().zip(Category::ALL) {
                *slot = self.get(cat) / total;
            }
        }
        f
    }

    fn to_json(self) -> Json {
        let fr = self.fractions();
        Json::obj(vec![
            ("tid", Json::int(self.tid as u64)),
            ("committed_s", Json::num(self.committed_s)),
            ("committed_insert_s", Json::num(self.committed_insert_s)),
            ("committed_remove_s", Json::num(self.committed_remove_s)),
            ("rolled_back_s", Json::num(self.rolled_back_s)),
            ("cm_park_s", Json::num(self.cm_park_s)),
            ("beg_park_s", Json::num(self.beg_park_s)),
            ("steal_donate_s", Json::num(self.steal_donate_s)),
            ("idle_s", Json::num(self.idle_s)),
            (
                "fractions",
                Json::Obj(
                    Category::ALL
                        .iter()
                        .zip(fr)
                        .map(|(c, v)| (c.key().to_string(), Json::num(v)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The run-wide attribution: one [`WorkerAttribution`] per worker plus the
/// wall clock they are normalized against.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeAttribution {
    /// Wall time of the refinement section, seconds.
    pub wall_s: f64,
    pub per_worker: Vec<WorkerAttribution>,
    /// Events folded into this attribution.
    pub events: u64,
    /// Events the rings overwrote (or tore) before they could be drained.
    /// Non-zero means every measured category is a lower bound and `idle`
    /// an upper bound: the fold covers only part of the run.
    pub events_dropped: u64,
}

impl TimeAttribution {
    /// Record how many events the recorder lost before the fold ([`attribute`]
    /// only sees the survivors).
    pub fn with_dropped(mut self, events_dropped: u64) -> Self {
        self.events_dropped = events_dropped;
        self
    }

    /// Whether the fold covers only part of the run's events.
    pub fn is_partial(&self) -> bool {
        self.events_dropped > 0
    }

    /// Committed seconds in insertions, summed over all workers.
    pub fn committed_insert_s(&self) -> f64 {
        self.per_worker.iter().map(|w| w.committed_insert_s).sum()
    }

    /// Committed seconds in R6 removals, summed over all workers.
    pub fn committed_remove_s(&self) -> f64 {
        self.per_worker.iter().map(|w| w.committed_remove_s).sum()
    }

    /// Seconds in `cat` summed over all workers.
    pub fn total(&self, cat: Category) -> f64 {
        self.per_worker.iter().map(|w| w.get(cat)).sum()
    }

    /// Fraction of total worker-seconds (`threads x wall`) in `cat`.
    pub fn fraction(&self, cat: Category) -> f64 {
        let denom: f64 = self.per_worker.iter().map(|w| w.total_s()).sum();
        if denom > 0.0 {
            self.total(cat) / denom
        } else {
            0.0
        }
    }

    /// The waste category (everything but committed work) with the largest
    /// total, with its summed seconds. `None` on an empty attribution.
    pub fn dominant_waste(&self) -> Option<(Category, f64)> {
        Category::ALL
            .iter()
            .filter(|c| c.is_waste())
            .map(|&c| (c, self.total(c)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    pub fn to_json(&self) -> Json {
        let mut totals: Vec<(String, Json)> = Category::ALL
            .iter()
            .map(|c| (format!("{}_s", c.key()), Json::num(self.total(*c))))
            .collect();
        totals.push((
            "committed_insert_s".into(),
            Json::num(self.committed_insert_s()),
        ));
        totals.push((
            "committed_remove_s".into(),
            Json::num(self.committed_remove_s()),
        ));
        Json::obj(vec![
            ("wall_s", Json::num(self.wall_s)),
            ("events", Json::int(self.events)),
            ("events_dropped", Json::int(self.events_dropped)),
            ("totals", Json::Obj(totals)),
            (
                "fractions",
                Json::Obj(
                    Category::ALL
                        .iter()
                        .map(|c| (c.key().to_string(), Json::num(self.fraction(*c))))
                        .collect(),
                ),
            ),
            (
                "workers",
                Json::Arr(self.per_worker.iter().map(|w| w.to_json()).collect()),
            ),
        ])
    }

    /// Parse an attribution back out of its [`to_json`](Self::to_json)
    /// shape (the `pi2m analyze` loader). Unknown keys are ignored; missing
    /// numeric fields read as zero, so older artifacts degrade gracefully.
    pub fn from_json(j: &Json) -> Option<TimeAttribution> {
        let num = |o: &Json, k: &str| o.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let workers = j.get("workers")?.as_arr()?;
        let per_worker = workers
            .iter()
            .map(|w| WorkerAttribution {
                tid: num(w, "tid") as u16,
                committed_s: num(w, "committed_s"),
                committed_insert_s: num(w, "committed_insert_s"),
                committed_remove_s: num(w, "committed_remove_s"),
                rolled_back_s: num(w, "rolled_back_s"),
                cm_park_s: num(w, "cm_park_s"),
                beg_park_s: num(w, "beg_park_s"),
                steal_donate_s: num(w, "steal_donate_s"),
                idle_s: num(w, "idle_s"),
            })
            .collect();
        Some(TimeAttribution {
            wall_s: num(j, "wall_s"),
            per_worker,
            events: num(j, "events") as u64,
            events_dropped: num(j, "events_dropped") as u64,
        })
    }
}

/// Fold a time-sorted drained event log into the per-worker wall-time
/// decomposition. `wall_s` is the refinement-section wall clock; `threads`
/// fixes the worker count so fully-idle workers still appear. A caller whose
/// rings overwrote events must say so with
/// [`TimeAttribution::with_dropped`].
pub fn attribute(events: &[FlightEvent], threads: usize, wall_s: f64) -> TimeAttribution {
    let threads = threads.max(1);
    let mut per_worker: Vec<WorkerAttribution> = (0..threads)
        .map(|t| WorkerAttribution {
            tid: t as u16,
            ..Default::default()
        })
        .collect();
    for e in events {
        let Some(w) = per_worker.get_mut(e.tid as usize) else {
            continue; // foreign tid (corrupt or out-of-range): skip
        };
        let dur_s = e.c as f64 * 1e-9;
        match e.kind {
            EventKind::OpCommit => {
                w.committed_s += dur_s;
                if e.cause == cause::OP_REMOVE {
                    w.committed_remove_s += dur_s;
                } else {
                    w.committed_insert_s += dur_s;
                }
            }
            EventKind::Rollback => w.rolled_back_s += dur_s,
            EventKind::CmUnpark => w.cm_park_s += dur_s,
            EventKind::BegUnpark => w.beg_park_s += dur_s,
            EventKind::Donate => w.steal_donate_s += dur_s,
            _ => {}
        }
    }
    for w in &mut per_worker {
        w.idle_s = (wall_s - w.accounted_s()).max(0.0);
    }
    TimeAttribution {
        wall_s,
        per_worker,
        events: events.len() as u64,
        events_dropped: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(tid: u16, kind: EventKind, c_ns: u32) -> FlightEvent {
        FlightEvent {
            t_ns: 1_000,
            kind,
            cause: 0,
            tid,
            a: 0,
            b: 0,
            c: c_ns,
        }
    }

    #[test]
    fn decomposition_buckets_by_kind_and_tid() {
        let ms = 1_000_000u32;
        let events = vec![
            e(0, EventKind::OpCommit, 10 * ms),
            e(0, EventKind::Rollback, 5 * ms),
            e(0, EventKind::CmUnpark, 2 * ms),
            e(1, EventKind::BegUnpark, 40 * ms),
            e(1, EventKind::Donate, ms),
            e(1, EventKind::OpCommit, 20 * ms),
            // kinds without a duration payload are ignored
            e(0, EventKind::Steal, 7 * ms),
            e(0, EventKind::LockConflict, 9 * ms),
        ];
        let a = attribute(&events, 2, 0.1);
        let w0 = &a.per_worker[0];
        assert!((w0.committed_s - 0.010).abs() < 1e-12);
        assert!((w0.rolled_back_s - 0.005).abs() < 1e-12);
        assert!((w0.cm_park_s - 0.002).abs() < 1e-12);
        assert_eq!(w0.beg_park_s, 0.0);
        assert!((w0.idle_s - (0.1 - 0.017)).abs() < 1e-12);
        let w1 = &a.per_worker[1];
        assert!((w1.beg_park_s - 0.040).abs() < 1e-12);
        assert!((w1.steal_donate_s - 0.001).abs() < 1e-12);
        assert!((w1.committed_s - 0.020).abs() < 1e-12);
    }

    #[test]
    fn committed_splits_by_op_kind_and_sums() {
        let ms = 1_000_000u32;
        let mut rem = e(0, EventKind::OpCommit, 30 * ms);
        rem.cause = cause::OP_REMOVE;
        let events = vec![e(0, EventKind::OpCommit, 10 * ms), rem, rem];
        let a = attribute(&events, 1, 0.1);
        let w = &a.per_worker[0];
        assert!((w.committed_insert_s - 0.010).abs() < 1e-12);
        assert!((w.committed_remove_s - 0.060).abs() < 1e-12);
        assert!((w.committed_s - 0.070).abs() < 1e-12);
        assert!(
            (w.total_s() - 0.1).abs() < 1e-12,
            "split must not double-count"
        );
        let j = crate::json::parse(&a.to_json().dump()).unwrap();
        let totals = j.get("totals").unwrap();
        let t = |k: &str| totals.get(k).and_then(Json::as_f64).unwrap();
        assert!(
            (t("committed_insert_s") + t("committed_remove_s") - t("committed_s")).abs() < 1e-12
        );
        assert_eq!(TimeAttribution::from_json(&j).unwrap(), a);
    }

    #[test]
    fn dropped_events_mark_the_fold_partial_and_round_trip() {
        let events = vec![e(0, EventKind::OpCommit, 1_000_000)];
        let a = attribute(&events, 1, 0.01);
        assert!(!a.is_partial());
        let a = a.with_dropped(3);
        assert!(a.is_partial());
        let j = crate::json::parse(&a.to_json().dump()).unwrap();
        assert_eq!(j.get("events").and_then(Json::as_f64), Some(1.0));
        assert_eq!(j.get("events_dropped").and_then(Json::as_f64), Some(3.0));
        assert!(TimeAttribution::from_json(&j).unwrap().is_partial());
    }

    #[test]
    fn fractions_sum_to_one_per_worker() {
        let ms = 1_000_000u32;
        let events = vec![
            e(0, EventKind::OpCommit, 30 * ms),
            e(0, EventKind::Rollback, 10 * ms),
            e(1, EventKind::CmUnpark, 90 * ms),
        ];
        let a = attribute(&events, 3, 0.05);
        for w in &a.per_worker {
            let sum: f64 = w.fractions().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "tid {} sums to {sum}", w.tid);
        }
        // worker 2 recorded nothing: all idle
        assert_eq!(a.per_worker[2].fractions()[5], 1.0);
    }

    #[test]
    fn overrun_clamps_idle_and_still_normalizes() {
        // measured time (90ms) exceeds the wall clock (50ms): idle clamps
        // to zero and fractions normalize over the measured total.
        let events = vec![e(0, EventKind::OpCommit, 90_000_000)];
        let a = attribute(&events, 1, 0.05);
        let w = &a.per_worker[0];
        assert_eq!(w.idle_s, 0.0);
        let fr = w.fractions();
        assert!((fr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((fr[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn totals_fractions_and_dominant_waste() {
        let ms = 1_000_000u32;
        let events = vec![
            e(0, EventKind::OpCommit, 40 * ms),
            e(0, EventKind::Rollback, 10 * ms),
            e(1, EventKind::Rollback, 20 * ms),
            e(1, EventKind::OpCommit, 20 * ms),
        ];
        let a = attribute(&events, 2, 0.05);
        assert!((a.total(Category::Committed) - 0.060).abs() < 1e-12);
        assert!((a.total(Category::RolledBack) - 0.030).abs() < 1e-12);
        // worker-seconds denominator: 2 x 50ms = 100ms
        assert!((a.fraction(Category::Committed) - 0.6).abs() < 1e-9);
        // idle is 0 + 10ms; rollback waste (30ms) dominates
        let (cat, s) = a.dominant_waste().unwrap();
        assert_eq!(cat, Category::RolledBack);
        assert!((s - 0.030).abs() < 1e-12);
    }

    #[test]
    fn json_round_trips() {
        let events = vec![
            e(0, EventKind::OpCommit, 7_000_000),
            e(1, EventKind::BegUnpark, 3_000_000),
        ];
        let a = attribute(&events, 2, 0.02);
        let j = crate::json::parse(&a.to_json().dump()).unwrap();
        for key in ["wall_s", "totals", "fractions", "workers"] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        let back = TimeAttribution::from_json(&j).unwrap();
        assert_eq!(back.per_worker.len(), 2);
        assert!((back.per_worker[0].committed_s - 0.007).abs() < 1e-12);
        assert!((back.wall_s - 0.02).abs() < 1e-12);
        // fractions survive the round trip via recomputation
        let sum: f64 = back.per_worker[1].fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_log_is_all_idle() {
        let a = attribute(&[], 2, 1.0);
        assert_eq!(a.per_worker.len(), 2);
        for w in &a.per_worker {
            assert_eq!(w.accounted_s(), 0.0);
            assert_eq!(w.idle_s, 1.0);
        }
        assert_eq!(a.fraction(Category::Idle), 1.0);
        assert!(crate::json::parse(&a.to_json().dump()).is_ok());
    }
}
