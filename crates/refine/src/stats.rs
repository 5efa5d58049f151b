//! Overhead accounting, mirroring the paper's three direct sources of wasted
//! cycles (§5.5): contention overhead, load-balance overhead, and rollback
//! overhead — plus throughput counters and an optional event trace for the
//! Figure-6 style overhead-vs-wall-time breakdown.

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

/// One trace event: (wall-clock seconds since start, kind, duration seconds).
///
/// Timestamps are `f64`: at f32 precision a timestamp one hour into a run
/// quantizes to ~0.25 ms, coarser than many individual overhead episodes,
/// which scrambles event ordering in long traces.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    pub at: f64,
    pub kind: OverheadKind,
    pub dur: f64,
    /// Originating worker thread; filled in by [`RefineStats::merged_trace`]
    /// (a `ThreadStats` does not know its own index).
    pub tid: u32,
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
    /// Donations that crossed a blade boundary (Figure 5b).
    pub inter_blade_donations: u64,
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
    /// Optional event trace (enabled by `MesherConfig::trace`).
    pub trace: Vec<TraceEvent>,
}

impl ThreadStats {
    pub fn total_overhead(&self) -> f64 {
        self.contention_overhead + self.load_balance_overhead + self.rollback_overhead
    }

    pub fn add_overhead(&mut self, kind: OverheadKind, secs: f64, trace_at: Option<f64>) {
        match kind {
            OverheadKind::Contention => self.contention_overhead += secs,
            OverheadKind::LoadBalance => self.load_balance_overhead += secs,
            OverheadKind::Rollback => self.rollback_overhead += secs,
        }
        if let Some(at) = trace_at {
            self.trace.push(TraceEvent {
                at,
                kind,
                dur: secs,
                tid: 0,
            });
        }
    }
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
    /// Seconds from the pipeline run origin at which the refinement clock
    /// (the `at` field of trace events) started; exporters add this to align
    /// overhead traces with phase spans.
    pub trace_origin: f64,
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

    pub fn total_inter_blade_donations(&self) -> u64 {
        self.per_thread
            .iter()
            .map(|t| t.inter_blade_donations)
            .sum()
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

    /// Merged, time-sorted trace across threads, with `tid` stamped from the
    /// per-thread index. Simultaneous events tie-break by thread id so the
    /// merged order (and any export built from it) is deterministic.
    pub fn merged_trace(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self
            .per_thread
            .iter()
            .enumerate()
            .flat_map(|(tid, t)| {
                t.trace.iter().map(move |e| TraceEvent {
                    tid: tid as u32,
                    ..*e
                })
            })
            .collect();
        all.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.tid.cmp(&b.tid)));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_accumulates() {
        let mut s = ThreadStats::default();
        s.add_overhead(OverheadKind::Contention, 0.5, None);
        s.add_overhead(OverheadKind::Rollback, 0.25, Some(1.0));
        s.add_overhead(OverheadKind::LoadBalance, 0.125, None);
        assert_eq!(s.total_overhead(), 0.875);
        assert_eq!(s.trace.len(), 1);
        assert_eq!(s.trace[0].kind, OverheadKind::Rollback);
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
    fn trace_merges_sorted() {
        let mut a = ThreadStats::default();
        a.add_overhead(OverheadKind::Contention, 0.1, Some(2.0));
        let mut b = ThreadStats::default();
        b.add_overhead(OverheadKind::Rollback, 0.1, Some(1.0));
        let stats = RefineStats {
            per_thread: vec![a, b],
            ..Default::default()
        };
        let t = stats.merged_trace();
        assert_eq!(t.len(), 2);
        assert!(t[0].at <= t[1].at);
        assert_eq!((t[0].tid, t[1].tid), (1, 0));
    }

    #[test]
    fn trace_ties_break_by_thread_id() {
        let mk = |kinds: &[OverheadKind]| {
            let mut s = ThreadStats::default();
            for &k in kinds {
                s.add_overhead(k, 0.1, Some(1.0)); // identical timestamps
            }
            s
        };
        let stats = RefineStats {
            per_thread: vec![
                mk(&[OverheadKind::Rollback, OverheadKind::Contention]),
                mk(&[OverheadKind::LoadBalance]),
            ],
            ..Default::default()
        };
        let t = stats.merged_trace();
        let tids: Vec<u32> = t.iter().map(|e| e.tid).collect();
        assert_eq!(tids, vec![0, 0, 1]);
        // stable within a thread: insertion order preserved
        assert_eq!(t[0].kind, OverheadKind::Rollback);
        assert_eq!(t[1].kind, OverheadKind::Contention);
    }
}
