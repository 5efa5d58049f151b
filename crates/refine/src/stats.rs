//! Overhead accounting, mirroring the paper's three direct sources of wasted
//! cycles (§5.5): contention overhead, load-balance overhead, and rollback
//! overhead — plus committed-op and donation time and throughput counters.
//!
//! The worker sums are the run's one account of worker time:
//! [`time_attribution`] turns them into the attribution every artifact shows.

use pi2m_obs::flight::{FlightEvent, SumBucket};
use pi2m_obs::{TimeAttribution, WorkerAttribution};

/// Per-thread counters; owned exclusively by its worker, merged at join.
#[derive(Clone, Debug, Default)]
pub struct ThreadStats {
    pub operations: u64,
    pub insertions: u64,
    pub removals: u64,
    pub rollbacks: u64,
    /// Insertions rejected as duplicates / outside-domain / degenerate.
    pub skipped: u64,
    pub removals_blocked: u64,
    pub cells_created: u64,
    pub cells_killed: u64,
    pub donations_made: u64,
    pub donations_received: u64,
    /// Operations that panicked and were caught by the per-op isolation.
    pub panics: u64,
    /// Poison work items dropped after a caught panic (never requeued).
    pub quarantined: u64,
    /// Lock sets force-released while recovering from a caught panic.
    pub recovery_rollbacks: u64,
    /// Operations abandoned on a typed kernel-invariant error.
    pub kernel_errors: u64,
    /// Seconds inside operations that rolled back.
    pub rolled_back_s: f64,
    /// Seconds parked by the contention manager after a rollback.
    pub cm_park_s: f64,
    /// Seconds waiting in the begging list for work.
    pub beg_park_s: f64,
    /// Seconds inside committed insertions.
    pub committed_insert_s: f64,
    /// Seconds inside committed R6 removals.
    pub committed_remove_s: f64,
    /// Donation handoff seconds (beggar-PEL lock, push, wake), on the
    /// donor's clock.
    pub steal_donate_s: f64,
}

impl ThreadStats {
    /// This worker's time sums as flight-log events stamped `t_ns`: one
    /// `WorkerSums` event per [`SumBucket`], its seconds rounded to whole
    /// nanoseconds, its count the operations or handoffs it sums.
    pub fn sum_events(&self, tid: u16, t_ns: u64) -> [FlightEvent; 6] {
        use SumBucket::*;
        [
            (CommittedInsert, self.committed_insert_s, self.insertions),
            (CommittedRemove, self.committed_remove_s, self.removals),
            (RolledBack, self.rolled_back_s, self.rollbacks),
            (CmPark, self.cm_park_s, self.rollbacks),
            (BegPark, self.beg_park_s, self.donations_received),
            (StealDonate, self.steal_donate_s, self.donations_made),
        ]
        .map(|(bucket, s, n)| {
            let ns = (s * 1e9).round() as u64;
            FlightEvent::worker_sum(t_ns, tid, bucket, ns, n.min(u32::MAX as u64) as u32)
        })
    }
}

/// The run's wall-time attribution, from the workers' own sums: worker `t`
/// is `per_thread[t]`, and whatever part of `wall_s` its sums do not cover
/// is its idle remainder. Exact at any flight-ring size and with the
/// recorder off; folding the [`ThreadStats::sum_events`] the drain appends
/// to the flight log ([`pi2m_obs::attribution::attribute`]) gives it back
/// to within the half nanosecond each sum is rounded by.
pub fn time_attribution(per_thread: &[ThreadStats], wall_s: f64) -> TimeAttribution {
    let workers = per_thread
        .iter()
        .enumerate()
        .map(|(tid, t)| WorkerAttribution {
            tid: tid as u16,
            committed_s: t.committed_insert_s + t.committed_remove_s,
            committed_insert_s: t.committed_insert_s,
            committed_remove_s: t.committed_remove_s,
            rolled_back_s: t.rolled_back_s,
            cm_park_s: t.cm_park_s,
            beg_park_s: t.beg_park_s,
            steal_donate_s: t.steal_donate_s,
            idle_s: 0.0,
        })
        .collect();
    TimeAttribution::from_workers(wall_s, workers)
}

/// Aggregated statistics of a refinement run.
#[derive(Clone, Debug, Default)]
pub struct RefineStats {
    pub per_thread: Vec<ThreadStats>,
    /// Wall-clock duration of the parallel refinement phase (seconds).
    pub wall_time: f64,
    /// Wall-clock duration of the EDT preprocessing (seconds).
    pub edt_time: f64,
    /// Elements in the reported final mesh.
    pub final_elements: usize,
    /// Workers that died to an un-recovered panic; the run completed on the
    /// survivors.
    pub workers_died: usize,
    /// Vertices allocated (including removed ones).
    pub vertices_allocated: usize,
}

impl RefineStats {
    pub fn threads(&self) -> usize {
        self.per_thread.len()
    }

    pub fn total_rollbacks(&self) -> u64 {
        self.per_thread.iter().map(|t| t.rollbacks).sum()
    }

    pub fn total_operations(&self) -> u64 {
        self.per_thread.iter().map(|t| t.operations).sum()
    }

    pub fn total_removals(&self) -> u64 {
        self.per_thread.iter().map(|t| t.removals).sum()
    }

    pub fn total_panics(&self) -> u64 {
        self.per_thread.iter().map(|t| t.panics).sum()
    }

    pub fn total_quarantined(&self) -> u64 {
        self.per_thread.iter().map(|t| t.quarantined).sum()
    }

    pub fn total_recovery_rollbacks(&self) -> u64 {
        self.per_thread.iter().map(|t| t.recovery_rollbacks).sum()
    }

    pub fn total_kernel_errors(&self) -> u64 {
        self.per_thread.iter().map(|t| t.kernel_errors).sum()
    }

    /// Elements generated per second of wall time.
    pub fn elements_per_second(&self) -> f64 {
        if self.wall_time > 0.0 {
            self.final_elements as f64 / self.wall_time
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation() {
        let a = ThreadStats {
            rollbacks: 3,
            ..Default::default()
        };
        let b = ThreadStats {
            rollbacks: 5,
            ..Default::default()
        };
        let stats = RefineStats {
            per_thread: vec![a, b],
            wall_time: 2.0,
            final_elements: 100,
            ..Default::default()
        };
        assert_eq!(stats.total_rollbacks(), 8);
        assert_eq!(stats.elements_per_second(), 50.0);
    }

    /// The sums the drain appends fold back into the attribution the sums
    /// give directly, bucket by bucket, each within half a nanosecond.
    #[test]
    fn sum_events_fold_back_into_the_attribution() {
        let t = ThreadStats {
            insertions: 7,
            removals: 2,
            rollbacks: 3,
            donations_made: 1,
            committed_insert_s: 1.234_567_890_4,
            committed_remove_s: 5.000_000_000_6,
            rolled_back_s: 0.1,
            cm_park_s: 0.02,
            beg_park_s: 0.003,
            steal_donate_s: 4e-10,
            ..Default::default()
        };
        let per_thread = [ThreadStats::default(), t];
        let events: Vec<FlightEvent> = per_thread
            .iter()
            .enumerate()
            .flat_map(|(tid, st)| st.sum_events(tid as u16, 99))
            .collect();
        assert!(events.iter().all(|e| e.t_ns == 99));
        let want = time_attribution(&per_thread, 10.0);
        let got = pi2m_obs::attribute(&events, 2, 10.0);
        for (w, g) in want.per_worker.iter().zip(&got.per_worker) {
            for cat in pi2m_obs::Category::ALL {
                assert!((w.get(cat) - g.get(cat)).abs() <= 3e-9, "{cat:?}");
            }
            assert!((w.committed_insert_s - g.committed_insert_s).abs() <= 0.5e-9);
            assert!((w.committed_remove_s - g.committed_remove_s).abs() <= 0.5e-9);
        }
        let counts: Vec<u32> = per_thread[1].sum_events(1, 0).map(|e| e.c).to_vec();
        assert_eq!(counts, [7, 2, 3, 3, 0, 1]);
    }

    #[test]
    fn attribution_maps_every_sum_and_leaves_the_rest_idle() {
        let t = ThreadStats {
            committed_insert_s: 0.25,
            committed_remove_s: 0.125,
            rolled_back_s: 0.0625,
            cm_park_s: 0.03125,
            beg_park_s: 0.015625,
            steal_donate_s: 0.0078125,
            ..Default::default()
        };
        let a = time_attribution(&[ThreadStats::default(), t], 1.0);
        assert_eq!(a.per_worker.len(), 2);
        assert_eq!(a.per_worker[0].idle_s, 1.0);
        let w = &a.per_worker[1];
        assert_eq!(w.tid, 1);
        assert_eq!(w.committed_s, 0.375);
        assert_eq!(
            (w.rolled_back_s, w.cm_park_s, w.beg_park_s, w.steal_donate_s),
            (0.0625, 0.03125, 0.015625, 0.0078125)
        );
        assert_eq!(w.total_s(), 1.0);
    }
}
