//! Overhead accounting, mirroring the paper's three direct sources of wasted
//! cycles (§5.5): contention overhead, load-balance overhead, and rollback
//! overhead — plus committed-op and donation time and throughput counters.
//!
//! The worker sums are the run's one account of worker time:
//! [`time_attribution`] turns them into the attribution every artifact shows.

use pi2m_obs::{TimeAttribution, WorkerAttribution};

/// Categories of wasted time tracked per thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverheadKind {
    /// Busy-waiting in a contention list / CM backoff sleep, plus CM access.
    Contention,
    /// Waiting in a begging list for work, plus begging-list access.
    LoadBalance,
    /// Time spent on partially completed operations that rolled back.
    Rollback,
}

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
    pub contention_overhead: f64,
    pub load_balance_overhead: f64,
    pub rollback_overhead: f64,
    /// Seconds inside committed insertions.
    pub committed_insert_s: f64,
    /// Seconds inside committed R6 removals.
    pub committed_remove_s: f64,
    /// Donation handoff seconds (beggar-PEL lock, push, wake), on the
    /// donor's clock.
    pub steal_donate_s: f64,
}

impl ThreadStats {
    pub fn total_overhead(&self) -> f64 {
        self.contention_overhead + self.load_balance_overhead + self.rollback_overhead
    }

    pub fn add_overhead(&mut self, kind: OverheadKind, secs: f64) {
        match kind {
            OverheadKind::Contention => self.contention_overhead += secs,
            OverheadKind::LoadBalance => self.load_balance_overhead += secs,
            OverheadKind::Rollback => self.rollback_overhead += secs,
        }
    }
}

/// The run's wall-time attribution, from the workers' own sums: worker `t`
/// is `per_thread[t]`, and whatever part of `wall_s` its sums do not cover
/// is its idle remainder. Exact at any flight-ring size and with the
/// recorder off; the fold over flight events
/// ([`pi2m_obs::attribution::attribute`]) agrees with it to within the
/// nanosecond each event's `u32` duration word truncates.
pub fn time_attribution(per_thread: &[ThreadStats], wall_s: f64) -> TimeAttribution {
    let workers = per_thread
        .iter()
        .enumerate()
        .map(|(tid, t)| WorkerAttribution {
            tid: tid as u16,
            committed_s: t.committed_insert_s + t.committed_remove_s,
            committed_insert_s: t.committed_insert_s,
            committed_remove_s: t.committed_remove_s,
            rolled_back_s: t.rollback_overhead,
            cm_park_s: t.contention_overhead,
            beg_park_s: t.load_balance_overhead,
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

    pub fn contention_overhead(&self) -> f64 {
        self.per_thread.iter().map(|t| t.contention_overhead).sum()
    }

    pub fn load_balance_overhead(&self) -> f64 {
        self.per_thread
            .iter()
            .map(|t| t.load_balance_overhead)
            .sum()
    }

    pub fn rollback_overhead(&self) -> f64 {
        self.per_thread.iter().map(|t| t.rollback_overhead).sum()
    }

    /// Sum of the three wasted-cycle categories over all threads (the
    /// paper's "total overhead").
    pub fn total_overhead(&self) -> f64 {
        self.per_thread.iter().map(|t| t.total_overhead()).sum()
    }

    pub fn total_donations(&self) -> u64 {
        self.per_thread.iter().map(|t| t.donations_made).sum()
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
    fn overhead_accumulates() {
        let mut s = ThreadStats::default();
        s.add_overhead(OverheadKind::Contention, 0.5);
        s.add_overhead(OverheadKind::Rollback, 0.25);
        s.add_overhead(OverheadKind::LoadBalance, 0.125);
        assert_eq!(s.total_overhead(), 0.875);
        assert_eq!(
            (
                s.contention_overhead,
                s.rollback_overhead,
                s.load_balance_overhead
            ),
            (0.5, 0.25, 0.125)
        );
    }

    #[test]
    fn aggregation() {
        let a = ThreadStats {
            rollbacks: 3,
            contention_overhead: 1.0,
            ..Default::default()
        };
        let b = ThreadStats {
            rollbacks: 5,
            rollback_overhead: 2.0,
            ..Default::default()
        };
        let stats = RefineStats {
            per_thread: vec![a, b],
            wall_time: 2.0,
            final_elements: 100,
            ..Default::default()
        };
        assert_eq!(stats.total_rollbacks(), 8);
        assert_eq!(stats.total_overhead(), 3.0);
        assert_eq!(stats.elements_per_second(), 50.0);
    }

    #[test]
    fn attribution_maps_every_sum_and_leaves_the_rest_idle() {
        let t = ThreadStats {
            committed_insert_s: 0.25,
            committed_remove_s: 0.125,
            rollback_overhead: 0.0625,
            contention_overhead: 0.03125,
            load_balance_overhead: 0.015625,
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
