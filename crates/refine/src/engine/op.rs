//! The unified speculative-operation lifecycle.
//!
//! Insertions (rules R1–R5) and removals (rule R6) used to be two
//! hand-inlined copies of the same protocol. [`SpeculativeOp`] isolates what
//! genuinely differs between them — kernel entry point, per-kind counters,
//! conflict disposition (requeue vs. drop), and rejection accounting — while
//! [`run_op`] owns the single shared lifecycle that the scheduler, the
//! contention manager, the begging list, and the flight recorder observe:
//!
//! ```text
//! execute → commit    → time sums → progress → CM success → enqueue created
//!         ↘ Rollback  → overheads → op conflict hook → CM rollback
//!         ↘ rejection → per-kind counters (quarantine / skip / block)
//! ```
//!
//! Only the rollback, and the contention-manager wait it may lead to, are
//! flight events: committed work lands in the worker's time sums, which the
//! drain appends to the flight log.

use super::worker::{handle_created, push_own, Env, PelEnd};
use crate::stats::ThreadStats;
use pi2m_delaunay::{CellId, InsertResult, OpCtx, OpError, RemoveResult, VertexId, VertexKind};
use pi2m_faults::sites;
use pi2m_geometry::Aabb;
use pi2m_obs::flight::{cause as flight_cause, pack_owner_region, EventKind};
use pi2m_obs::metrics::{self, ThreadRecorder};
use std::time::Instant;

/// Seconds → saturated u32 nanoseconds for a flight-event payload word.
#[inline]
pub(crate) fn ns_u32(secs: f64) -> u32 {
    (secs * 1e9).min(u32::MAX as f64) as u32
}

/// Maps world points onto a coarse 16×16×16 grid over the image domain; the
/// 12-bit cell code rides in flight-event payloads so the contention analyzer
/// can attribute rollbacks to spatial hot spots.
pub(crate) struct RegionMap {
    min: [f64; 3],
    inv: [f64; 3],
}

impl RegionMap {
    const CELLS: usize = 16;

    pub(crate) fn new(domain: &Aabb) -> Self {
        let min = [domain.min.x, domain.min.y, domain.min.z];
        let ext = [
            domain.max.x - domain.min.x,
            domain.max.y - domain.min.y,
            domain.max.z - domain.min.z,
        ];
        let inv = ext.map(|e| if e > 0.0 { Self::CELLS as f64 / e } else { 0.0 });
        RegionMap { min, inv }
    }

    pub(crate) fn code(&self, p: [f64; 3]) -> u16 {
        let cell = |axis: usize| -> u16 {
            let c = (p[axis] - self.min[axis]) * self.inv[axis];
            (c as i64).clamp(0, Self::CELLS as i64 - 1) as u16
        };
        cell(0) | cell(1) << 4 | cell(2) << 8
    }
}

/// A committed kernel operation, in either flavor.
pub(crate) enum OpResult {
    Inserted(InsertResult),
    Removed(RemoveResult),
}

impl OpResult {
    fn created(&self) -> &[CellId] {
        match self {
            OpResult::Inserted(r) => &r.created,
            OpResult::Removed(r) => &r.created,
        }
    }

    fn killed_len(&self) -> usize {
        match self {
            OpResult::Inserted(r) => r.killed.len(),
            OpResult::Removed(r) => r.killed.len(),
        }
    }
}

/// How one [`run_op`] attempt ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum OpOutcome {
    /// Kernel commit: the mesh changed.
    Committed,
    /// Speculative conflict: rolled back, contention manager consulted.
    Conflicted,
    /// Typed kernel rejection (duplicate, degenerate, blocked, invariant).
    Rejected,
}

/// One speculative operation kind. Implementations provide only what
/// genuinely differs between insertions and removals; everything the rest of
/// the system observes (rollback events, progress, CM calls, overhead
/// accounting, created-cell handling) lives once, in [`run_op`].
pub(crate) trait SpeculativeOp {
    /// Flight cause byte tagging a conflict rollback.
    fn conflict_cause(&self) -> u8;

    /// Run the operation through the kernel.
    fn execute(&self, ctx: &mut OpCtx<'_>) -> Result<OpResult, OpError>;

    /// Per-kind commit counters/histograms, and the op's `secs` added to its
    /// kind's committed time (`operations` and cell counts are common and
    /// counted by [`run_op`]).
    fn count_commit(
        &self,
        stats: &mut ThreadStats,
        rec: &mut ThreadRecorder,
        res: &OpResult,
        secs: f64,
    );

    /// Post-commit hook running before created-cell handling (the insert op
    /// registers its new vertex in the proximity grid here, and requeues its
    /// element if the insertion left it standing).
    fn after_commit(&self, env: &Env<'_>, tid: usize, rec: &mut ThreadRecorder, res: &OpResult);

    /// Conflict disposition, after rollback accounting and before the
    /// contention manager is consulted: an insert requeues its still-poor
    /// element; a removal drops the victim (best effort).
    fn on_conflict(&self, env: &Env<'_>, tid: usize, rec: &mut ThreadRecorder);

    /// Typed-rejection accounting (`Err` other than `Conflict`).
    fn count_rejected(&self, stats: &mut ThreadStats, err: &OpError);

    /// Return the result's buffers to the context's scratch pools.
    fn recycle(&self, ctx: &mut OpCtx<'_>, res: OpResult);
}

/// Rule R1–R5 remedy: insert a point (isosurface sample or circumcenter).
pub(crate) struct InsertOp {
    /// The poor element this op remedies (requeued on conflict).
    pub cid: u32,
    pub gen: u32,
    pub point: [f64; 3],
    pub kind: VertexKind,
}

impl InsertOp {
    /// Put the element back on `tid`'s PEL, at `end`.
    fn requeue(&self, env: &Env<'_>, tid: usize, rec: &mut ThreadRecorder, end: PelEnd) {
        push_own(env, tid, rec, std::iter::once((self.cid, self.gen)), end);
    }
}

impl SpeculativeOp for InsertOp {
    fn conflict_cause(&self) -> u8 {
        flight_cause::INSERT_CONFLICT
    }

    fn execute(&self, ctx: &mut OpCtx<'_>) -> Result<OpResult, OpError> {
        ctx.insert_for(self.point, self.kind, CellId(self.cid), self.gen)
            .map(OpResult::Inserted)
    }

    fn count_commit(
        &self,
        stats: &mut ThreadStats,
        rec: &mut ThreadRecorder,
        res: &OpResult,
        secs: f64,
    ) {
        stats.insertions += 1;
        stats.committed_insert_s += secs;
        rec.observe(metrics::CAVITY_CELLS, res.killed_len() as f64);
    }

    fn after_commit(&self, env: &Env<'_>, tid: usize, rec: &mut ThreadRecorder, res: &OpResult) {
        if let OpResult::Inserted(r) = res {
            env.rules.grid.insert(r.vertex, self.point);
        }
        // A remedy need not kill the cell it was computed for: a
        // surface-center lies on the facet's Voronoi edge, which runs on
        // past the cell's own circumball into its neighbour's. The cell is
        // then still there, and whatever else is wrong with it (R3 is tried
        // before R4) would never be looked at again. It goes on top, under
        // the cells the insertion created.
        let cell = env.mesh.cell(CellId(self.cid));
        if cell.is_alive() && cell.gen() == self.gen {
            self.requeue(env, tid, rec, PelEnd::Top);
        }
    }

    fn on_conflict(&self, env: &Env<'_>, tid: usize, rec: &mut ThreadRecorder) {
        // the element is still poor: requeue it at the bottom, to be retried
        // after the rest of the PEL, then consult the CM
        self.requeue(env, tid, rec, PelEnd::Bottom);
        if let Some(f) = &env.cfg.faults {
            let _ = f.fire(sites::CM_ROLLBACK, tid as u32);
        }
    }

    fn count_rejected(&self, stats: &mut ThreadStats, err: &OpError) {
        match err {
            // a broken kernel invariant: the operation was abandoned without
            // structural change; quarantine the element
            OpError::Kernel(_) => {
                stats.kernel_errors += 1;
                stats.quarantined += 1;
            }
            // the rule's remedy is not realizable, or its cell died before
            // the cavity was locked; drop the element
            _ => stats.skipped += 1,
        }
    }

    fn recycle(&self, ctx: &mut OpCtx<'_>, res: OpResult) {
        if let OpResult::Inserted(r) = res {
            ctx.recycle_insert(r);
        }
    }
}

/// Rule R6 remedy: remove a circumcenter vertex near a fresh isosurface
/// sample.
pub(crate) struct RemoveOp {
    pub victim: VertexId,
}

impl SpeculativeOp for RemoveOp {
    fn conflict_cause(&self) -> u8 {
        flight_cause::REMOVE_CONFLICT
    }

    fn execute(&self, ctx: &mut OpCtx<'_>) -> Result<OpResult, OpError> {
        ctx.remove(self.victim).map(OpResult::Removed)
    }

    fn count_commit(
        &self,
        stats: &mut ThreadStats,
        _rec: &mut ThreadRecorder,
        _res: &OpResult,
        secs: f64,
    ) {
        stats.removals += 1;
        stats.committed_remove_s += secs;
    }

    fn after_commit(
        &self,
        _env: &Env<'_>,
        _tid: usize,
        _rec: &mut ThreadRecorder,
        _res: &OpResult,
    ) {
    }

    fn on_conflict(&self, _env: &Env<'_>, _tid: usize, _rec: &mut ThreadRecorder) {
        // best-effort: drop this victim
    }

    fn count_rejected(&self, stats: &mut ThreadStats, err: &OpError) {
        if let OpError::Kernel(_) = err {
            stats.kernel_errors += 1;
        }
        stats.removals_blocked += 1;
    }

    fn recycle(&self, ctx: &mut OpCtx<'_>, res: OpResult) {
        if let OpResult::Removed(r) = res {
            ctx.recycle_remove(r);
        }
    }
}

/// Execute one speculative operation through the shared lifecycle: the
/// rollback event, progress notes, contention-manager consultation,
/// overhead accounting, and created-cell enqueueing all happen here,
/// identically for every op kind.
pub(crate) fn run_op(
    env: &Env<'_>,
    tid: usize,
    ctx: &mut OpCtx<'_>,
    stats: &mut ThreadStats,
    rec: &mut ThreadRecorder,
    region: u16,
    op: &dyn SpeculativeOp,
) -> OpOutcome {
    let t0 = Instant::now();
    match op.execute(ctx) {
        Ok(res) => {
            let t_end = Instant::now();
            stats.operations += 1;
            stats.cells_created += res.created().len() as u64;
            stats.cells_killed += res.killed_len() as u64;
            op.count_commit(stats, rec, &res, (t_end - t0).as_secs_f64());
            env.sync.note_progress(t_end);
            env.cm.on_success(tid);
            op.after_commit(env, tid, rec, &res);
            handle_created(env, tid, stats, rec, res.created());
            op.recycle(ctx, res);
            OpOutcome::Committed
        }
        Err(OpError::Conflict { owner, vertex, .. }) => {
            stats.rollbacks += 1;
            let rolled = t0.elapsed().as_secs_f64();
            let owner_region = pack_owner_region(owner as u16, region);
            env.log(
                rec,
                tid,
                EventKind::Rollback,
                op.conflict_cause(),
                [vertex.0, owner_region, ns_u32(rolled)],
            );
            stats.rolled_back_s += rolled;
            rec.observe(metrics::ROLLBACK_SECONDS, rolled);
            op.on_conflict(env, tid, rec);
            consult_cm(env, tid, owner as usize, stats, rec);
            OpOutcome::Conflicted
        }
        Err(e) => {
            op.count_rejected(stats, &e);
            OpOutcome::Rejected
        }
    }
}

/// Report a rollback against `owner` to the contention manager, and
/// account for the time it parked `tid`: its sum, its histogram and, if it
/// parked at all, one `CmUnpark` event.
pub(crate) fn consult_cm(
    env: &Env<'_>,
    tid: usize,
    owner: usize,
    stats: &mut ThreadStats,
    rec: &mut ThreadRecorder,
) {
    let waited = env.cm.on_rollback(tid, owner, env.sync);
    stats.cm_park_s += waited;
    rec.observe(metrics::LOCK_WAIT_SECONDS, waited);
    if waited > 0.0 {
        env.log(
            rec,
            tid,
            EventKind::CmUnpark,
            0,
            [owner as u32, 0, ns_u32(waited)],
        );
    }
}
