//! Per-worker wall-time attribution: "where did each worker's wall time
//! go" — committed-op work, rolled-back (wasted) work, contention-manager
//! park, begging-list park, steal/donate handoff overhead, and the idle
//! remainder.
//!
//! Every category is *measured*, not modeled. A run's attribution comes
//! from its workers' own sums (`pi2m_refine::stats::time_attribution`),
//! exact whatever the flight recorder kept; [`attribute`] folds the same
//! sums back out of the flight log, where the drain appends them (the
//! benchmark's traced ledger calls it). Committed time is split by op kind
//! (insertions vs R6 removals). The idle remainder absorbs what no
//! category measures (classification, oracle queries and PEL traffic
//! between operations, scheduler preemption), which is why
//! [`WorkerAttribution::fractions`] always sums to ~1.0 by construction:
//! the normalizer is `max(wall, accounted)` so a worker whose measured time
//! overruns the wall clock (timer skew, oversubscribed cores) still reports
//! a sane unit breakdown with `idle = 0`.
//!
//! Surfaced in the `time_attribution` section of the
//! [`RunReport`](crate::RunReport), in `pi2m analyze`, and as the
//! `pi2m_overhead_seconds` gauge; the Chrome trace samples the same
//! categories once per worker from the flight log's sums.

use crate::flight::{FlightEvent, SumBucket};
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

    /// Add `s` seconds to the category a worker sum of `bucket` feeds;
    /// committed time also lands in its op kind's split.
    pub(crate) fn add_sum(&mut self, bucket: SumBucket, s: f64) {
        match bucket {
            SumBucket::CommittedInsert => self.committed_insert_s += s,
            SumBucket::CommittedRemove => self.committed_remove_s += s,
            SumBucket::RolledBack => self.rolled_back_s += s,
            SumBucket::CmPark => self.cm_park_s += s,
            SumBucket::BegPark => self.beg_park_s += s,
            SumBucket::StealDonate => self.steal_donate_s += s,
        }
        self.committed_s = self.committed_insert_s + self.committed_remove_s;
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
}

impl TimeAttribution {
    /// The attribution of `per_worker`'s measured categories against
    /// `wall_s`: each worker's idle residual becomes whatever part of the
    /// wall its categories do not cover.
    pub fn from_workers(wall_s: f64, mut per_worker: Vec<WorkerAttribution>) -> Self {
        for w in &mut per_worker {
            w.idle_s = (wall_s - w.accounted_s()).max(0.0);
        }
        TimeAttribution { wall_s, per_worker }
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
    /// shape (the `pi2m analyze` loader). Missing numeric fields read as
    /// zero.
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
        })
    }
}

/// Fold the `WorkerSums` events of a drained flight log, and nothing else,
/// into the per-worker wall-time decomposition: the run's own attribution,
/// each sum rounded to whole nanoseconds, at any ring size. `wall_s` is the
/// refinement-section wall clock; `threads` fixes the worker count so
/// fully-idle workers still appear.
pub fn attribute(events: &[FlightEvent], threads: usize, wall_s: f64) -> TimeAttribution {
    let threads = threads.max(1);
    let mut per_worker: Vec<WorkerAttribution> = (0..threads)
        .map(|t| WorkerAttribution {
            tid: t as u16,
            ..Default::default()
        })
        .collect();
    for e in events {
        let (Some(w), Some((bucket, ns))) = (per_worker.get_mut(e.tid as usize), e.sum()) else {
            continue; // not a sum, or a foreign tid (corrupt or out-of-range)
        };
        w.add_sum(bucket, ns as f64 * 1e-9);
    }
    TimeAttribution::from_workers(wall_s, per_worker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::EventKind;

    const MS: u64 = 1_000_000;

    fn sum(tid: u16, bucket: SumBucket, ns: u64) -> FlightEvent {
        FlightEvent::worker_sum(1_000, tid, bucket, ns, 1)
    }

    #[test]
    fn decomposition_buckets_by_kind_and_tid() {
        let ring_event = |kind| FlightEvent {
            t_ns: 1_000,
            kind,
            cause: 0,
            tid: 0,
            a: 0,
            b: 0,
            c: 9 * MS as u32,
        };
        let events = vec![
            sum(0, SumBucket::CommittedInsert, 10 * MS),
            sum(0, SumBucket::RolledBack, 5 * MS),
            sum(0, SumBucket::CmPark, 2 * MS),
            sum(1, SumBucket::BegPark, 40 * MS),
            sum(1, SumBucket::StealDonate, MS),
            sum(1, SumBucket::CommittedInsert, 20 * MS),
            // the rings' events carry durations too, but the sums are the
            // account: they are not folded
            ring_event(EventKind::Rollback),
            ring_event(EventKind::CmUnpark),
            ring_event(EventKind::Steal),
            ring_event(EventKind::LockConflict),
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

    /// A sum past `u32::MAX` nanoseconds (4.3 s) survives whole, and a
    /// sum of a foreign tid is skipped.
    #[test]
    fn long_sums_and_foreign_tids() {
        let events = vec![
            sum(0, SumBucket::CommittedRemove, 7_000 * MS),
            sum(5, SumBucket::CommittedInsert, MS),
        ];
        let a = attribute(&events, 1, 8.0);
        assert_eq!(a.per_worker.len(), 1);
        assert_eq!(a.per_worker[0].committed_remove_s, 7.0);
        assert_eq!(a.per_worker[0].committed_s, 7.0);
        assert_eq!(a.per_worker[0].committed_insert_s, 0.0);
    }

    #[test]
    fn committed_splits_by_op_kind_and_sums() {
        let events = vec![
            sum(0, SumBucket::CommittedInsert, 10 * MS),
            sum(0, SumBucket::CommittedRemove, 60 * MS),
        ];
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
    fn fractions_sum_to_one_per_worker() {
        let events = vec![
            sum(0, SumBucket::CommittedInsert, 30 * MS),
            sum(0, SumBucket::RolledBack, 10 * MS),
            sum(1, SumBucket::CmPark, 90 * MS),
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
        let events = vec![sum(0, SumBucket::CommittedInsert, 90 * MS)];
        let a = attribute(&events, 1, 0.05);
        let w = &a.per_worker[0];
        assert_eq!(w.idle_s, 0.0);
        let fr = w.fractions();
        assert!((fr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((fr[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn totals_fractions_and_dominant_waste() {
        let events = vec![
            sum(0, SumBucket::CommittedInsert, 40 * MS),
            sum(0, SumBucket::RolledBack, 10 * MS),
            sum(1, SumBucket::RolledBack, 20 * MS),
            sum(1, SumBucket::CommittedInsert, 20 * MS),
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
            sum(0, SumBucket::CommittedInsert, 7 * MS),
            sum(1, SumBucket::BegPark, 3 * MS),
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
