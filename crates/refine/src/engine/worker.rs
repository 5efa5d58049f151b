//! Worker-side machinery of the refinement engine: the shared run state, the
//! worker loop (paper Algorithm 1), and its helpers.
//!
//! Each worker loops: pop an element from its Poor Element List, classify it
//! against rules R1–R6, and execute the remedy through the speculative
//! Delaunay kernel (one [`run_op`] per remedy). Rollbacks report to the
//! contention manager; empty PELs park in the begging list;
//! newly created cells are enqueued locally or donated to beggars;
//! termination is detected when every thread is parked and no work remains.
//! A watchdog aborts runs whose contention manager livelocks
//! (Aggressive/Random, paper Table 1), and a cooperative [`CancelToken`]
//! checked at the same loop boundary stops a run on demand.

use super::config::MesherConfig;
use super::op::{dur_ns_u32, run_op, InsertOp, OpOutcome, RegionMap, RemoveOp};
use crate::balancer::{BegOutcome, BeggingList, DONATE_THRESHOLD};
use crate::cm::{make_cm, ContentionManager};
use crate::rules::{FacetMemo, Rules};
use crate::stats::ThreadStats;
use crate::sync::EngineSync;
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use pi2m_delaunay::{CellId, KernelScratch, OpCtx, SharedMesh, VertexKind};
use pi2m_faults::sites;
use pi2m_geometry::Aabb;
use pi2m_obs::flight::{cause as flight_cause, EventKind, FlightRecorder};
use pi2m_obs::metrics::{self, MetricsSnapshot, ThreadRecorder};
use pi2m_obs::CancelToken;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One thread's Poor Element List: `(cell id, generation)` pairs, used as a
/// stack. A worker pops the newest entry, so the cells an insertion just
/// created are classified while its cavity is still in cache; a requeue
/// after a conflict goes to the bottom (see [`push_own`]).
pub(crate) type Pel = Mutex<VecDeque<(u32, u32)>>;

/// Which end of its owner's PEL an entry goes on.
#[derive(Clone, Copy)]
pub(crate) enum PelEnd {
    /// Popped next: the cells an operation created, and a cell that
    /// survived its own remedy.
    Top,
    /// Popped after everything queued now: an element whose operation
    /// rolled back is retried after the rest of the stack, as a queue
    /// retried it after the rest of the queue, so a contention manager that
    /// retries at once does not hammer one hot spot.
    Bottom,
}

/// The worker loop reads the clock (cancel deadline, livelock watchdog) on
/// every this-many-th iteration. An iteration ends on at most one live
/// element, so a tripped deadline is seen within 16 of them.
const CLOCK_POLL_STRIDE: u32 = 16;

/// Everything one refinement run shares between its workers. Owned (no
/// borrows) so it can live in an `Arc` handed to a persistent
/// [`WorkerPool`](super::pool::WorkerPool) whose threads outlive any single
/// run's stack frame.
pub(crate) struct RunState {
    pub mesh: SharedMesh,
    pub rules: Rules,
    pub pels: Vec<Pel>,
    pub counters: Vec<CachePadded<AtomicI64>>,
    pub sync: EngineSync,
    pub cm: Box<dyn ContentionManager>,
    pub bal: BeggingList,
    pub cfg: MesherConfig,
    pub ops_total: AtomicU64,
    /// Per-worker death flags: set exactly once when a worker's panic escapes
    /// the per-operation isolation boundary. Heir selection for a dead
    /// worker's PEL skips flagged threads.
    pub dead_flags: Vec<CachePadded<AtomicBool>>,
    /// Spatial region codes for rollback attribution.
    pub regions: RegionMap,
    /// Cooperative cancellation (explicit trip or deadline), checked at every
    /// worker loop boundary.
    pub cancel: CancelToken,
    /// This run is the seam-stitch pass of a sharded run: the worker loop
    /// additionally consults the `shard.stitch` fault site.
    pub stitch: bool,
}

impl RunState {
    /// Assemble a run over `mesh`: one empty PEL, PEL counter and death flag
    /// per worker, the engine sync (recording into `flight`, when given), the
    /// contention manager and the begging list. Every alive cell of `mesh` is
    /// seeded into PEL 0 (paper §4.4: "only the main thread might have a
    /// non-empty PEL"). The sync's clock starts here. `stitch` marks the
    /// stitch pass of a sharded run.
    pub(crate) fn new(
        mesh: SharedMesh,
        rules: Rules,
        cfg: MesherConfig,
        domain: &Aabb,
        cancel: CancelToken,
        flight: Option<Arc<FlightRecorder>>,
        stitch: bool,
    ) -> Self {
        let threads = cfg.threads;
        let mut sync = EngineSync::new(threads);
        if let Some(rec) = flight {
            sync.set_flight(rec);
        }
        let pels: Vec<Pel> = (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
        let counters: Vec<CachePadded<AtomicI64>> = (0..threads)
            .map(|_| CachePadded::new(AtomicI64::new(0)))
            .collect();
        {
            let mut pel0 = pels[0].lock();
            for c in mesh.alive_cells() {
                pel0.push_back((c.0, mesh.cell(c).gen()));
            }
            let n = pel0.len() as i64;
            counters[0].fetch_add(n, Ordering::AcqRel);
            sync.poor_added(n);
        }
        RunState {
            mesh,
            rules,
            pels,
            counters,
            sync,
            cm: make_cm(cfg.cm, threads),
            bal: BeggingList::new(threads),
            ops_total: AtomicU64::new(0),
            dead_flags: (0..threads)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            regions: RegionMap::new(domain),
            cancel,
            stitch,
            cfg,
        }
    }

    /// Borrowed view of the run state, in the shape the worker helpers take.
    pub(crate) fn env(&self) -> Env<'_> {
        Env {
            mesh: &self.mesh,
            rules: &self.rules,
            pels: &self.pels,
            counters: &self.counters,
            sync: &self.sync,
            cm: self.cm.as_ref(),
            bal: &self.bal,
            cfg: &self.cfg,
            ops_total: &self.ops_total,
            dead_flags: &self.dead_flags,
            regions: &self.regions,
            cancel: &self.cancel,
            stitch: self.stitch,
        }
    }
}

pub(crate) struct Env<'a> {
    pub mesh: &'a SharedMesh,
    pub rules: &'a Rules,
    pub pels: &'a [Pel],
    pub counters: &'a [CachePadded<AtomicI64>],
    pub sync: &'a EngineSync,
    pub cm: &'a dyn ContentionManager,
    pub bal: &'a BeggingList,
    pub cfg: &'a MesherConfig,
    pub ops_total: &'a AtomicU64,
    pub dead_flags: &'a [CachePadded<AtomicBool>],
    pub regions: &'a RegionMap,
    pub cancel: &'a CancelToken,
    pub stitch: bool,
}

pub(crate) fn worker(
    env: &Env<'_>,
    tid: usize,
    stats: &mut ThreadStats,
    // Exclusively owned by this worker — every inc/observe below is a plain
    // load/store, merged into the run snapshot after join.
    rec: &mut ThreadRecorder,
    // The pool thread's persistent kernel arena: installed into the fresh
    // per-run context here, handed back at the bottom so the next run on
    // this thread starts with warm scratch buffers.
    arena: &mut KernelScratch,
) {
    let mut ctx = env
        .mesh
        .make_ctx_with_faults(tid as u32, env.cfg.faults.clone());
    ctx.install_scratch(std::mem::take(arena));
    // Hand the kernel this worker's ring so its lock conflicts land on the
    // same per-thread timeline.
    if let Some(rec) = env.sync.flight() {
        ctx.set_flight(rec.handle(tid));
    }
    let t_spawn = env.sync.now();
    // Fresh per run: the (cell, generation) pairs it holds are this run's.
    let mut memo = FacetMemo::new();

    let mut iteration = 0u32;
    loop {
        if env.sync.is_done() {
            break;
        }
        // The explicit-cancel flag is one relaxed load; the two checks that
        // read the clock (the token's deadline, the watchdog) run on every
        // `CLOCK_POLL_STRIDE`th iteration, the first included.
        let poll_clocks = iteration.is_multiple_of(CLOCK_POLL_STRIDE);
        iteration = iteration.wrapping_add(1);
        // Cooperative cancellation: the first worker that sees the token
        // tripped settles the run exactly like the op cap does — everyone
        // else exits at the `is_done` check or is woken out of a park.
        if env.cancel.cancel_requested() || (poll_clocks && env.cancel.is_cancelled()) {
            env.sync.declare_cancelled();
            env.cm.release_all();
            env.bal.release_all();
            break;
        }
        // Livelock watchdog (paper §5.5: Aggressive/Random can livelock).
        if poll_clocks
            && env.sync.since_progress() > env.cfg.livelock_timeout
            && (env.sync.total_poor() > 0 || env.sync.cm_blocked() > 0)
        {
            env.sync.declare_livelock();
            env.cm.release_all();
            env.bal.release_all();
            break;
        }
        // Worker-scope injection: a `panic` here escapes the per-operation
        // isolation below and kills this worker (the death-cleanup path).
        if let Some(f) = &env.cfg.faults {
            let _ = f.fire(sites::ENGINE_WORKER, tid as u32);
            // The stitch pass of a sharded run exposes its own worker-scope
            // site so shard drills can kill a worker mid-seam without also
            // firing in the surrounding (monolithic or chunk) runs.
            if env.stitch {
                let _ = f.fire(sites::SHARD_STITCH, tid as u32);
            }
        }

        // `max_operations` caps PEL pops, so a batch may not pop past it.
        // (At T threads another worker can spend the remainder first; one
        // pop over the cap then, as ever.)
        let budget = match env.cfg.max_operations {
            0 => u64::MAX,
            cap => cap
                .saturating_sub(env.ops_total.load(Ordering::Relaxed))
                .max(1),
        };
        let (popped, live) = pop_live(env, tid, budget);
        if popped == 0 {
            env.cm.before_beg(tid, env.sync);
            if let Some(f) = &env.cfg.faults {
                let _ = f.fire(sites::BALANCER_BEG, tid as u32);
            }
            let (outcome, waited) = env.bal.beg(tid, env.sync, env.cm);
            stats.beg_park_s += waited;
            rec.observe(metrics::LB_WAIT_SECONDS, waited);
            match outcome {
                BegOutcome::Finished => break,
                BegOutcome::GotWork => {
                    stats.donations_received += 1;
                    env.sync.flight_emit(
                        tid,
                        EventKind::Steal,
                        0,
                        0,
                        0,
                        (waited * 1e9).min(u32::MAX as f64) as u32,
                    );
                    continue;
                }
            }
        }
        // One settlement for the whole batch: the stale entries and the live
        // one behind them.
        env.counters[tid].fetch_sub(popped as i64, Ordering::AcqRel);
        env.sync.poor_taken(popped as i64);
        rec.inc(metrics::CLASSIFY_CALLS, popped);
        rec.inc(metrics::CLASSIFY_STALE, popped - live.is_some() as u64);

        if let Some(item) = live {
            // ---- per-operation panic isolation ----
            // Classification + remedy run under `catch_unwind`: a panic
            // rolls back whatever locks the operation still holds and
            // quarantines the work item (it is never requeued), and the
            // worker keeps going.
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                process_item(env, tid, &mut ctx, &mut memo, stats, rec, item)
            }));
            if caught.is_err() {
                stats.panics += 1;
                stats.quarantined += 1;
                if ctx.locks_held() > 0 {
                    ctx.abort();
                    stats.recovery_rollbacks += 1;
                }
                // Quarantining the poison item is progress: the watchdog
                // must not blame the recovery for the missing completions.
                env.sync.note_progress(Instant::now());
            }

            // An element that never reached the kernel (satisfied, or denied
            // by injection) left nothing in its counters to drain.
            if !matches!(caught, Ok(false)) {
                drain_kernel_stats(&mut ctx, rec);
            }
            drain_memo_stats(&mut memo, rec);
        }

        if env.cfg.max_operations > 0 {
            let done = env.ops_total.fetch_add(popped, Ordering::Relaxed) + popped;
            if done >= env.cfg.max_operations {
                env.sync.set_done();
                env.cm.release_all();
                env.bal.release_all();
                break;
            }
        }
    }

    // A finished worker must leave nobody parked on its contention list.
    env.cm.before_beg(tid, env.sync);
    // Every worker contributes at least this lifetime event to the trace.
    rec.event("worker", "worker", t_spawn, env.sync.now() - t_spawn);
    // Hand the (now warm) kernel arena back to the pool thread.
    *arena = ctx.take_scratch();
}

/// Pop `tid`'s PEL, newest first, until the first entry whose cell is still
/// alive at its generation, the PEL runs dry, or `budget` entries are gone
/// — all under one hold of the PEL lock. Many entries are stale (the cell
/// died, or its slot was recycled, while the element sat in the PEL) and
/// cost one `flags`/`gen` read each. Returns how many entries were popped
/// and the live one, if the batch ended on it.
fn pop_live(env: &Env<'_>, tid: usize, budget: u64) -> (u64, Option<(u32, u32)>) {
    let mut pel = env.pels[tid].lock();
    let mut popped = 0;
    while popped < budget {
        let Some((cid, gen)) = pel.pop_back() else {
            break;
        };
        popped += 1;
        if is_live(env.mesh, cid, gen) {
            return (popped, Some((cid, gen)));
        }
    }
    (popped, None)
}

/// Whether a PEL entry's cell is still alive at the entry's generation. A
/// cell that is not never will be again: a free bumps the generation.
#[inline]
fn is_live(mesh: &SharedMesh, cid: u32, gen: u32) -> bool {
    let cell = mesh.cell(CellId(cid));
    cell.is_alive() && cell.gen() == gen
}

/// Push `items` onto `tid`'s own PEL at `end`, and settle `counters[tid]`
/// and `total_poor` after the push. Only the owner calls this, so only the
/// owner prunes: a push that would grow the PEL first drops its dead
/// entries (see [`prune`]), settled in the same two updates and counted in
/// `pel_pruned`. A pruned entry is not a pop, so `classify_calls` and the
/// `max_operations` cap never see it.
pub(crate) fn push_own(
    env: &Env<'_>,
    tid: usize,
    rec: &mut ThreadRecorder,
    items: impl ExactSizeIterator<Item = (u32, u32)>,
    end: PelEnd,
) {
    let n = items.len();
    let pruned = {
        let mut pel = env.pels[tid].lock();
        let pruned = if pel.len() + n > pel.capacity() {
            prune(&mut pel, env.mesh)
        } else {
            0
        };
        match end {
            PelEnd::Top => pel.extend(items),
            PelEnd::Bottom => items.for_each(|it| pel.push_front(it)),
        }
        pruned
    };
    let net = n as i64 - pruned as i64;
    env.counters[tid].fetch_add(net, Ordering::AcqRel);
    env.sync.poor_added(net);
    if pruned > 0 {
        rec.inc(metrics::PEL_PRUNED, pruned as u64);
    }
}

/// Drop the entries whose cell is no longer alive at their generation —
/// those a pop would discard as stale — keeping the rest in order, so what
/// later pops return is unchanged. A newest-first PEL needs this: the
/// oldest entries sit at the bottom until the run ends, and most of them die
/// there. If more than half the capacity is still live afterwards, reserve
/// room for as many again: the next prune is then at least half the
/// capacity's pushes away, so pruning costs O(1) per push, amortized.
/// Returns how many entries were dropped.
fn prune(pel: &mut VecDeque<(u32, u32)>, mesh: &SharedMesh) -> usize {
    let before = pel.len();
    pel.retain(|&(cid, gen)| is_live(mesh, cid, gen));
    let live = pel.len();
    if 2 * live > pel.capacity() {
        pel.reserve(live);
    }
    before - live
}

/// Drain the kernel's per-operation effort counters (walk, predicate
/// stages, batched lanes, scratch arenas) into the worker's recorder: plain
/// u64 reads from our own ctx — the kernel stays obs-free.
fn drain_kernel_stats(ctx: &mut OpCtx<'_>, rec: &mut ThreadRecorder) {
    let ws = ctx.take_walk_stats();
    if ws.locates > 0 {
        rec.inc(metrics::WALK_LOCATES, ws.locates);
        rec.inc(metrics::WALK_STEPS, ws.steps);
        rec.observe(
            metrics::WALK_STEPS_PER_LOCATE,
            ws.steps as f64 / ws.locates as f64,
        );
    }
    let ps = ctx.take_pred_stats();
    if ps.orient_total() > 0 {
        rec.inc(metrics::PRED_ORIENT_SEMI_STATIC, ps.orient_semi_static);
        rec.inc(metrics::PRED_ORIENT_FILTERED, ps.orient_filtered);
        rec.inc(metrics::PRED_ORIENT_EXACT, ps.orient_exact);
    }
    if ps.insphere_total() > 0 {
        rec.inc(metrics::PRED_INSPHERE_SEMI_STATIC, ps.insphere_semi_static);
        rec.inc(metrics::PRED_INSPHERE_FILTERED, ps.insphere_filtered);
        rec.inc(metrics::PRED_INSPHERE_EXACT, ps.insphere_exact);
    }
    let bs = ctx.take_batch_stats();
    if bs.orient_batches > 0 {
        rec.inc(metrics::PRED_BATCH_ORIENT_BATCHES, bs.orient_batches);
        rec.inc(metrics::PRED_BATCH_ORIENT_LANES, bs.orient_lanes);
        rec.inc(metrics::PRED_BATCH_ORIENT_FALLBACKS, bs.orient_fallbacks);
    }
    if bs.insphere_batches > 0 {
        rec.inc(metrics::PRED_BATCH_INSPHERE_BATCHES, bs.insphere_batches);
        rec.inc(metrics::PRED_BATCH_INSPHERE_LANES, bs.insphere_lanes);
        rec.inc(
            metrics::PRED_BATCH_INSPHERE_FALLBACKS,
            bs.insphere_fallbacks,
        );
    }
    let ss = ctx.take_scratch_stats();
    if ss.reuses + ss.allocs > 0 {
        rec.inc(metrics::SCRATCH_REUSES, ss.reuses);
        rec.inc(metrics::SCRATCH_ALLOCS, ss.allocs);
    }
    if ss.soa_gathers > 0 {
        rec.inc(metrics::SCRATCH_SOA_GATHERS, ss.soa_gathers);
        rec.inc(metrics::SCRATCH_SOA_POINTS, ss.soa_points);
    }
}

/// Drain the facet memo's R3 counters into the worker's recorder.
fn drain_memo_stats(memo: &mut FacetMemo, rec: &mut ThreadRecorder) {
    if memo.visits > 0 {
        rec.inc(metrics::R3_FACETS, std::mem::take(&mut memo.visits));
        rec.inc(metrics::R3_MEMO_HITS, std::mem::take(&mut memo.hits));
    }
}

/// Classify one live PEL item and execute its remedy; returns whether a
/// kernel operation ran. Runs inside the worker's per-operation
/// `catch_unwind` boundary.
fn process_item(
    env: &Env<'_>,
    tid: usize,
    ctx: &mut OpCtx<'_>,
    memo: &mut FacetMemo,
    stats: &mut ThreadStats,
    rec: &mut ThreadRecorder,
    (cid, gen): (u32, u32),
) -> bool {
    // Operation-scope injection: deny re-queues the item through the normal
    // rollback path (a synthetic self-conflict), fail quarantines it.
    if let Some(f) = &env.cfg.faults {
        match f.fire(sites::ENGINE_OP, tid as u32) {
            Some(pi2m_faults::Injected::Deny) => {
                stats.rollbacks += 1;
                env.sync.flight_emit(
                    tid,
                    EventKind::Rollback,
                    flight_cause::INJECTED,
                    cid,
                    pi2m_obs::flight::pack_owner_region(tid as u16, 0),
                    0,
                );
                push_own(env, tid, rec, std::iter::once((cid, gen)), PelEnd::Bottom);
                let waited = env.cm.on_rollback(tid, tid, env.sync);
                stats.cm_park_s += waited;
                rec.observe(metrics::LOCK_WAIT_SECONDS, waited);
                return false;
            }
            Some(pi2m_faults::Injected::Fail) => {
                stats.quarantined += 1;
                return false;
            }
            None => {}
        }
    }

    // A cell that died since `pop_live` looked classifies as satisfied.
    let Some(action) = env.rules.classify_with(env.mesh, CellId(cid), gen, memo) else {
        return false; // satisfied — drop
    };

    let region = env.regions.code(action.point);
    let insert = InsertOp {
        cid,
        gen,
        point: action.point,
        kind: action.kind,
    };
    let outcome = run_op(env, tid, ctx, stats, rec, region, &insert);

    // R6: an isosurface vertex evicts nearby circumcenters. The removals are
    // attributed to the insertion's region — they happen within 2δ of it.
    if outcome == OpOutcome::Committed
        && action.kind == VertexKind::Isosurface
        && env.cfg.enable_removals
    {
        for victim in env.rules.r6_victims(env.mesh, action.point) {
            let remove = RemoveOp { victim };
            run_op(env, tid, ctx, stats, rec, region, &remove);
        }
    }
    true
}

/// Retire a worker whose panic escaped the per-operation isolation: mark it
/// dead for termination detection, bequeath its queued work to a surviving
/// heir, and wake anyone parked on its contention list.
pub(crate) fn worker_death_cleanup(env: &Env<'_>, tid: usize, rec: &mut ThreadRecorder) {
    env.dead_flags[tid].store(true, Ordering::Release);
    env.sync.worker_died();
    rec.inc(metrics::WORKER_DEATHS, 1);
    // This still runs on the dying thread itself, so the SPSC discipline
    // holds — the ring (and everything recorded before the panic) survives
    // because the recorder is owned by the engine, not the worker closure.
    env.sync
        .flight_emit(tid, EventKind::WorkerDeath, 0, 0, 0, 0);

    // Bequeath the dead worker's PEL to the nearest surviving thread so no
    // queued element is silently lost.
    let drained: Vec<(u32, u32)> = {
        let mut pel = env.pels[tid].lock();
        pel.drain(..).collect()
    };
    if !drained.is_empty() {
        let n = drained.len() as i64;
        env.counters[tid].fetch_sub(n, Ordering::AcqRel);
        let heir = (1..env.cfg.threads)
            .map(|k| (tid + k) % env.cfg.threads)
            .find(|&h| !env.dead_flags[h].load(Ordering::Acquire));
        match heir {
            Some(h) => {
                {
                    let mut pel = env.pels[h].lock();
                    for it in drained {
                        pel.push_back(it);
                    }
                }
                env.counters[h].fetch_add(n, Ordering::AcqRel);
                env.bal.wake(h);
                env.sync
                    .flight_emit(tid, EventKind::HeirBequest, 0, h as u32, n as u32, 0);
            }
            None => {
                // no survivors: the work is lost, but so is the run — keep
                // the poor count consistent so nothing spins on it
                env.sync.poor_taken(n);
            }
        }
    }
    // Nobody may stay parked on a dead thread's contention list, and the
    // termination condition (begging + dead >= threads) may have just
    // become true — wake the beggars so one of them settles it.
    env.cm.before_beg(tid, env.sync);
    env.sync.note_progress(Instant::now());
}

/// Enqueue newly created cells for (lazy) classification, donating to a
/// beggar when this thread has enough work of its own (paper §4.4). Kept
/// cells go on top of the own PEL in boundary-face order, so the last face's
/// cell is classified first.
pub(crate) fn handle_created(
    env: &Env<'_>,
    tid: usize,
    stats: &mut ThreadStats,
    rec: &mut ThreadRecorder,
    created: &[CellId],
) {
    if created.is_empty() {
        return;
    }
    // The begging lists sit behind mutexes every donor would take; with
    // nobody parked there is nobody to pick. (A beggar that has queued but
    // not yet counted itself is served by the next commit.)
    let own = env.counters[tid].load(Ordering::Acquire);
    let target = if own >= DONATE_THRESHOLD && env.sync.begging() > 0 {
        env.bal.pick_beggar(tid)
    } else {
        None
    };
    let n = created.len() as i64;
    match target {
        Some(b) => {
            let t_donate = Instant::now();
            {
                let mut pel = env.pels[b].lock();
                for &nc in created {
                    pel.push_back((nc.0, env.mesh.cell(nc).gen()));
                }
            }
            env.counters[b].fetch_add(n, Ordering::AcqRel);
            env.sync.poor_added(n);
            env.bal.wake(b);
            // The handoff (beggar-PEL lock, push, wake) is the donor's time:
            // summed into its stats, and carried in the event's `c`.
            let handoff = t_donate.elapsed();
            stats.steal_donate_s += handoff.as_secs_f64();
            env.sync.flight_emit(
                tid,
                EventKind::Donate,
                0,
                b as u32,
                n as u32,
                dur_ns_u32(handoff),
            );
            stats.donations_made += 1;
        }
        None => push_own(
            env,
            tid,
            rec,
            created.iter().map(|&nc| (nc.0, env.mesh.cell(nc).gen())),
            PelEnd::Top,
        ),
    }
}

/// Mirror the engine's own `ThreadStats` counters into the shared metric
/// catalog, so exporters see one unified namespace.
pub(crate) fn bridge_thread_stats(st: &ThreadStats, snap: &mut MetricsSnapshot) {
    use metrics as m;
    for (id, n) in [
        (m::OPS_TOTAL, st.operations),
        (m::OPS_INSERTIONS, st.insertions),
        (m::OPS_REMOVALS, st.removals),
        (m::OPS_ROLLBACKS, st.rollbacks),
        (m::OPS_SKIPPED, st.skipped),
        (m::REMOVALS_BLOCKED, st.removals_blocked),
        (m::CELLS_CREATED, st.cells_created),
        (m::CELLS_KILLED, st.cells_killed),
        (m::DONATIONS_MADE, st.donations_made),
        (m::DONATIONS_RECEIVED, st.donations_received),
        (m::WORKER_PANICS, st.panics),
        (m::QUARANTINED_OPS, st.quarantined),
        (m::RECOVERY_ROLLBACKS, st.recovery_rollbacks),
        (m::KERNEL_ERRORS, st.kernel_errors),
    ] {
        snap.add_counter(id, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2m_geometry::Point3;

    /// A prune drops exactly the entries a pop would find dead, keeps the
    /// rest in stack order, and leaves at least as many free slots as live
    /// ones, so the next prune is that many pushes away.
    #[test]
    fn prune_drops_dead_entries_in_order_and_leaves_room() {
        let mesh = SharedMesh::with_box(Aabb::new(Point3::ORIGIN, Point3::new(1.0, 1.0, 1.0)));
        let entry = |c: CellId| (c.0, mesh.cell(c).gen());
        let boxed: Vec<(u32, u32)> = mesh.alive_cells().map(entry).collect();
        let res = mesh
            .make_ctx(0)
            .insert([0.3, 0.4, 0.5], VertexKind::Circumcenter)
            .unwrap();
        let created: Vec<(u32, u32)> = res.created.iter().map(|&c| entry(c)).collect();
        let mut pel: VecDeque<(u32, u32)> = boxed.iter().chain(&created).copied().collect();
        pel.shrink_to_fit();

        let dropped = prune(&mut pel, &mesh);

        assert_eq!(dropped, res.killed.len());
        let want: Vec<(u32, u32)> = boxed
            .iter()
            .filter(|&&(cid, _)| !res.killed.contains(&CellId(cid)))
            .chain(&created)
            .copied()
            .collect();
        assert_eq!(pel.iter().copied().collect::<Vec<_>>(), want);
        assert!(
            pel.capacity() >= 2 * pel.len(),
            "{} of {}",
            pel.len(),
            pel.capacity()
        );
    }
}
