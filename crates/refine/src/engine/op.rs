//! The unified speculative-operation lifecycle.
//!
//! Insertions (rules R1–R5) and removals (rule R6) used to be two
//! hand-inlined copies of the same protocol. [`SpeculativeOp`] isolates what
//! genuinely differs between them — kernel entry point, per-kind counters,
//! conflict disposition (requeue vs. drop), and rejection accounting — while
//! [`run_op`] owns the single shared lifecycle that the scheduler, the
//! contention manager, the load balancer, and the flight recorder observe:
//!
//! ```text
//! OpBegin → execute → OpCommit  → progress → CM success → enqueue created
//!                   ↘ Rollback  → overheads → op conflict hook → CM rollback
//!                   ↘ rejection → per-kind counters (quarantine / skip / block)
//! ```

use super::worker::{handle_created, Env};
use crate::stats::{OverheadKind, ThreadStats};
use pi2m_delaunay::{CellId, InsertResult, OpCtx, OpError, RemoveResult, VertexId, VertexKind};
use pi2m_faults::sites;
use pi2m_geometry::Aabb;
use pi2m_obs::flight::{cause as flight_cause, pack_owner_region, EventKind};
use pi2m_obs::metrics::{self, ThreadRecorder};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Duration → saturated u32 nanoseconds for a flight-event payload word.
#[inline]
pub(crate) fn dur_ns_u32(d: Duration) -> u32 {
    d.as_nanos().min(u32::MAX as u128) as u32
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
/// the system observes (flight events, progress, CM calls, overhead
/// accounting, created-cell handling) lives once, in [`run_op`].
pub(crate) trait SpeculativeOp {
    /// Flight cause byte tagging OpBegin/OpCommit events
    /// ([`flight_cause::OP_INSERT`] / [`flight_cause::OP_REMOVE`]).
    fn kind_cause(&self) -> u8;

    /// Flight cause byte tagging a conflict rollback.
    fn conflict_cause(&self) -> u8;

    /// Payload word `a` of the OpBegin event (poor cell / victim vertex).
    fn begin_id(&self) -> u32;

    /// Run the operation through the kernel.
    fn execute(&self, ctx: &mut OpCtx<'_>) -> Result<OpResult, OpError>;

    /// Payload word `a` of the OpCommit event.
    fn commit_id(&self, res: &OpResult) -> u32;

    /// Per-kind commit counters/histograms (`operations` and cell counts are
    /// common and counted by [`run_op`]).
    fn count_commit(&self, stats: &mut ThreadStats, rec: &mut ThreadRecorder, res: &OpResult);

    /// Post-commit hook running before created-cell handling (the insert op
    /// registers its new vertex in the proximity grid here, and requeues its
    /// element if the insertion left it standing).
    fn after_commit(&self, env: &Env<'_>, tid: usize, res: &OpResult);

    /// Conflict disposition, after rollback accounting and before the
    /// contention manager is consulted: an insert requeues its still-poor
    /// element; a removal drops the victim (best effort).
    fn on_conflict(&self, env: &Env<'_>, tid: usize);

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
    /// Put the element back on `tid`'s PEL.
    fn requeue(&self, env: &Env<'_>, tid: usize) {
        env.pels[tid].lock().push_back((self.cid, self.gen));
        env.counters[tid].fetch_add(1, Ordering::AcqRel);
        env.sync.poor_added(1);
    }
}

impl SpeculativeOp for InsertOp {
    fn kind_cause(&self) -> u8 {
        flight_cause::OP_INSERT
    }

    fn conflict_cause(&self) -> u8 {
        flight_cause::INSERT_CONFLICT
    }

    fn begin_id(&self) -> u32 {
        self.cid
    }

    fn execute(&self, ctx: &mut OpCtx<'_>) -> Result<OpResult, OpError> {
        ctx.insert_for(self.point, self.kind, CellId(self.cid), self.gen)
            .map(OpResult::Inserted)
    }

    fn commit_id(&self, res: &OpResult) -> u32 {
        match res {
            OpResult::Inserted(r) => r.vertex.0,
            OpResult::Removed(_) => unreachable!("insert op yielded a removal result"),
        }
    }

    fn count_commit(&self, stats: &mut ThreadStats, rec: &mut ThreadRecorder, res: &OpResult) {
        stats.insertions += 1;
        rec.observe(metrics::CAVITY_CELLS, res.killed_len() as f64);
    }

    fn after_commit(&self, env: &Env<'_>, tid: usize, res: &OpResult) {
        if let OpResult::Inserted(r) = res {
            env.rules.grid.insert(r.vertex, self.point);
        }
        // A remedy need not kill the cell it was computed for: a
        // surface-center lies on the facet's Voronoi edge, which runs on
        // past the cell's own circumball into its neighbour's. The cell is
        // then still there, and whatever else is wrong with it (R3 is tried
        // before R4) would never be looked at again.
        let cell = env.mesh.cell(CellId(self.cid));
        if cell.is_alive() && cell.gen() == self.gen {
            self.requeue(env, tid);
        }
    }

    fn on_conflict(&self, env: &Env<'_>, tid: usize) {
        // the element is still poor: requeue it, then consult the CM
        self.requeue(env, tid);
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
    fn kind_cause(&self) -> u8 {
        flight_cause::OP_REMOVE
    }

    fn conflict_cause(&self) -> u8 {
        flight_cause::REMOVE_CONFLICT
    }

    fn begin_id(&self) -> u32 {
        self.victim.0
    }

    fn execute(&self, ctx: &mut OpCtx<'_>) -> Result<OpResult, OpError> {
        ctx.remove(self.victim).map(OpResult::Removed)
    }

    fn commit_id(&self, _res: &OpResult) -> u32 {
        self.victim.0
    }

    fn count_commit(&self, stats: &mut ThreadStats, _rec: &mut ThreadRecorder, _res: &OpResult) {
        stats.removals += 1;
    }

    fn after_commit(&self, _env: &Env<'_>, _tid: usize, _res: &OpResult) {}

    fn on_conflict(&self, _env: &Env<'_>, _tid: usize) {
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

/// Execute one speculative operation through the shared lifecycle: flight
/// begin/commit/rollback events, progress notes, contention-manager
/// consultation, overhead accounting, and created-cell enqueueing all happen
/// here, identically for every op kind.
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
    env.sync.flight_emit_at(
        tid,
        t0,
        EventKind::OpBegin,
        op.kind_cause(),
        op.begin_id(),
        0,
        0,
    );
    match op.execute(ctx) {
        Ok(res) => {
            let t_end = Instant::now();
            stats.operations += 1;
            stats.cells_created += res.created().len() as u64;
            stats.cells_killed += res.killed_len() as u64;
            op.count_commit(stats, rec, &res);
            env.sync.flight_emit_at(
                tid,
                t_end,
                EventKind::OpCommit,
                op.kind_cause(),
                op.commit_id(&res),
                region as u32,
                dur_ns_u32(t_end - t0),
            );
            env.sync.note_progress(t_end);
            env.cm.on_success(tid);
            op.after_commit(env, tid, &res);
            handle_created(env, tid, stats, res.created());
            op.recycle(ctx, res);
            OpOutcome::Committed
        }
        Err(OpError::Conflict { owner, vertex, .. }) => {
            stats.rollbacks += 1;
            let t_end = Instant::now();
            let rolled = (t_end - t0).as_secs_f64();
            env.sync.flight_emit_at(
                tid,
                t_end,
                EventKind::Rollback,
                op.conflict_cause(),
                vertex.0,
                pack_owner_region(owner as u16, region),
                dur_ns_u32(t_end - t0),
            );
            let at = env.cfg.trace.then(|| env.sync.now());
            stats.add_overhead(OverheadKind::Rollback, rolled, at);
            rec.observe(metrics::ROLLBACK_SECONDS, rolled);
            op.on_conflict(env, tid);
            let waited = env.cm.on_rollback(tid, owner as usize, env.sync);
            let at = env.cfg.trace.then(|| env.sync.now());
            stats.add_overhead(OverheadKind::Contention, waited, at);
            rec.observe(metrics::LOCK_WAIT_SECONDS, waited);
            OpOutcome::Conflicted
        }
        Err(e) => {
            op.count_rejected(stats, &e);
            OpOutcome::Rejected
        }
    }
}
