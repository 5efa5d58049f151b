//! Worker-side machinery of the refinement engine: the shared run state, the
//! worker loop (paper Algorithm 1), and its helpers.
//!
//! Each worker loops: pop an element from its Poor Element List, classify it
//! against rules R1–R6, and execute the remedy through the speculative
//! Delaunay kernel (one [`run_op`] per remedy). Rollbacks report to the
//! contention manager; empty PELs park in the begging list;
//! newly created cells are enqueued locally or donated to beggars;
//! termination is detected when every thread is parked and no work remains.
//! A watchdog aborts a run in which no operation completes for
//! `livelock_timeout` seconds, and a cooperative [`CancelToken`] checked at
//! the same loop boundary stops a run on demand.

use super::config::MesherConfig;
use super::op::{consult_cm, ns_u32, run_op, InsertOp, OpOutcome, RegionMap, RemoveOp};
use crate::balancer::{BegOutcome, BeggingList, DONATE_THRESHOLD};
use crate::cm::LocalCm;
use crate::rules::{FacetMemo, Rules};
use crate::stats::ThreadStats;
use crate::sync::EngineSync;
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use pi2m_delaunay::{CellId, KernelScratch, OpCtx, SharedMesh, VertexKind};
use pi2m_faults::sites;
use pi2m_geometry::Aabb;
use pi2m_obs::flight::{cause as flight_cause, pack_owner_region, EventKind, FlightEvent};
use pi2m_obs::metrics::{self, MetricsSnapshot, ThreadRecorder};
use pi2m_obs::CancelToken;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
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
    /// retried it after the rest of the queue, so a thread that the
    /// contention manager does not park (its conflict partner is parked
    /// itself, or it is the last active thread) does not hammer one hot
    /// spot.
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
    pub cm: LocalCm,
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
    /// per worker, the engine sync, the contention manager and the begging
    /// list. Every alive cell of `mesh` is seeded into PEL 0 (paper §4.4:
    /// "only the main thread might have a non-empty PEL"). The sync's clock
    /// starts here. `stitch` marks the stitch pass of a sharded run.
    pub(crate) fn new(
        mesh: SharedMesh,
        rules: Rules,
        cfg: MesherConfig,
        domain: &Aabb,
        cancel: CancelToken,
        stitch: bool,
    ) -> Self {
        let threads = cfg.threads;
        let sync = EngineSync::new(threads);
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
            cm: LocalCm::new(threads),
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

    /// Log one flight event (`[a, b, c]` its payload) in `rec`, worker
    /// `tid`'s own log, stamped on the run's sync clock; nothing when the
    /// recorder is off.
    #[inline]
    pub(crate) fn log(
        &self,
        rec: &mut ThreadRecorder,
        tid: usize,
        kind: EventKind,
        cause: u8,
        [a, b, c]: [u32; 3],
    ) {
        if self.cfg.flight {
            rec.flight.push(FlightEvent {
                t_ns: self.sync.now_ns(),
                kind,
                cause,
                tid: tid as u16,
                a,
                b,
                c,
            });
        }
    }
}

pub(crate) fn worker(
    run: &RunState,
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
    let mut ctx = run
        .mesh
        .make_ctx_with_faults(tid as u32, run.cfg.faults.clone());
    ctx.install_scratch(std::mem::take(arena));
    let t_spawn = run.sync.now();
    // Fresh per run: the (cell, generation) pairs it holds are this run's.
    let mut memo = FacetMemo::new();

    let mut iteration = 0u32;
    loop {
        if run.sync.is_done() {
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
        if run.cancel.cancel_requested() || (poll_clocks && run.cancel.is_cancelled()) {
            run.sync.declare_cancelled();
            run.cm.release_all();
            run.bal.release_all();
            break;
        }
        // Livelock watchdog. Local-CM cannot livelock (paper Lemma 2):
        // this is the backstop for injected denials, which can refuse an
        // operation on every attempt, and for defects in the protocol.
        if poll_clocks
            && run.sync.since_progress() > run.cfg.livelock_timeout
            && (run.sync.total_poor() > 0 || run.sync.cm_blocked() > 0)
        {
            run.sync.declare_livelock();
            run.cm.release_all();
            run.bal.release_all();
            break;
        }
        // Worker-scope injection: a `panic` here escapes the per-operation
        // isolation below and kills this worker (the death-cleanup path).
        if let Some(f) = &run.cfg.faults {
            let _ = f.fire(sites::ENGINE_WORKER, tid as u32);
            // The stitch pass of a sharded run exposes its own worker-scope
            // site so shard drills can kill a worker mid-seam without also
            // firing in the surrounding (monolithic or chunk) runs.
            if run.stitch {
                let _ = f.fire(sites::SHARD_STITCH, tid as u32);
            }
        }

        // `max_operations` caps PEL pops, so a batch may not pop past it.
        // (At T threads another worker can spend the remainder first; one
        // pop over the cap then, as ever.)
        let budget = match run.cfg.max_operations {
            0 => u64::MAX,
            cap => cap
                .saturating_sub(run.ops_total.load(Ordering::Relaxed))
                .max(1),
        };
        let (popped, live) = pop_live(run, tid, budget);
        if popped == 0 {
            run.cm.before_beg(tid);
            if let Some(f) = &run.cfg.faults {
                let _ = f.fire(sites::BALANCER_BEG, tid as u32);
            }
            let (outcome, waited) = run.bal.beg(tid, &run.sync, &run.cm);
            stats.beg_park_s += waited;
            rec.observe(metrics::LB_WAIT_SECONDS, waited);
            let cause = match outcome {
                BegOutcome::GotWork => flight_cause::BEG_GOT_WORK,
                BegOutcome::Finished => flight_cause::BEG_FINISHED,
            };
            run.log(
                rec,
                tid,
                EventKind::BegUnpark,
                cause,
                [0, 0, ns_u32(waited)],
            );
            match outcome {
                BegOutcome::Finished => break,
                BegOutcome::GotWork => {
                    stats.donations_received += 1;
                    continue;
                }
            }
        }
        // One settlement for the whole batch: the stale entries and the live
        // one behind them.
        run.counters[tid].fetch_sub(popped as i64, Ordering::AcqRel);
        run.sync.poor_taken(popped as i64);
        rec.inc(metrics::CLASSIFY_CALLS, popped);
        rec.inc(metrics::CLASSIFY_STALE, popped - live.is_some() as u64);

        if let Some(item) = live {
            // ---- per-operation panic isolation ----
            // Classification + remedy run under `catch_unwind`: a panic
            // rolls back whatever locks the operation still holds and
            // quarantines the work item (it is never requeued), and the
            // worker keeps going.
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                process_item(run, tid, &mut ctx, &mut memo, stats, rec, item)
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
                run.sync.note_progress(Instant::now());
            }

            // An element that never reached the kernel (satisfied, or denied
            // by injection) left nothing in its counters to drain.
            if !matches!(caught, Ok(false)) {
                drain_kernel_stats(&mut ctx, rec);
            }
            drain_memo_stats(&mut memo, rec);
        }

        if run.cfg.max_operations > 0 {
            let done = run.ops_total.fetch_add(popped, Ordering::Relaxed) + popped;
            if done >= run.cfg.max_operations {
                run.sync.set_done();
                run.cm.release_all();
                run.bal.release_all();
                break;
            }
        }
    }

    // A finished worker must leave nobody parked on its contention list.
    run.cm.before_beg(tid);
    // Every worker contributes at least this lifetime event to the trace.
    rec.event("worker", "worker", t_spawn, run.sync.now() - t_spawn);
    // Hand the (now warm) kernel arena back to the pool thread.
    *arena = ctx.take_scratch();
}

/// Pop `tid`'s PEL, newest first, until the first entry whose cell is still
/// alive at its generation, the PEL runs dry, or `budget` entries are gone
/// — all under one hold of the PEL lock. Many entries are stale (the cell
/// died, or its slot was recycled, while the element sat in the PEL) and
/// cost one `flags`/`gen` read each. Returns how many entries were popped
/// and the live one, if the batch ended on it.
fn pop_live(run: &RunState, tid: usize, budget: u64) -> (u64, Option<(u32, u32)>) {
    let mut pel = run.pels[tid].lock();
    let mut popped = 0;
    while popped < budget {
        let Some((cid, gen)) = pel.pop_back() else {
            break;
        };
        popped += 1;
        if is_live(&run.mesh, cid, gen) {
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
    run: &RunState,
    tid: usize,
    rec: &mut ThreadRecorder,
    items: impl ExactSizeIterator<Item = (u32, u32)>,
    end: PelEnd,
) {
    let n = items.len();
    let pruned = {
        let mut pel = run.pels[tid].lock();
        let pruned = if pel.len() + n > pel.capacity() {
            prune(&mut pel, &run.mesh)
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
    run.counters[tid].fetch_add(net, Ordering::AcqRel);
    run.sync.poor_added(net);
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
        rec.inc(metrics::R3_TRAVERSALS, std::mem::take(&mut memo.traversals));
    }
}

/// Classify one live PEL item and execute its remedy; returns whether a
/// kernel operation ran. Runs inside the worker's per-operation
/// `catch_unwind` boundary.
fn process_item(
    run: &RunState,
    tid: usize,
    ctx: &mut OpCtx<'_>,
    memo: &mut FacetMemo,
    stats: &mut ThreadStats,
    rec: &mut ThreadRecorder,
    (cid, gen): (u32, u32),
) -> bool {
    // Operation-scope injection: deny re-queues the item through the normal
    // rollback path (a synthetic self-conflict), fail quarantines it.
    if let Some(f) = &run.cfg.faults {
        match f.fire(sites::ENGINE_OP, tid as u32) {
            Some(pi2m_faults::Injected::Deny) => {
                stats.rollbacks += 1;
                let owner_region = pack_owner_region(tid as u16, 0);
                run.log(
                    rec,
                    tid,
                    EventKind::Rollback,
                    flight_cause::INJECTED,
                    [cid, owner_region, 0],
                );
                push_own(run, tid, rec, std::iter::once((cid, gen)), PelEnd::Bottom);
                consult_cm(run, tid, tid, stats, rec);
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
    let Some(action) = run.rules.classify_with(&run.mesh, CellId(cid), gen, memo) else {
        return false; // satisfied — drop
    };

    let region = run.regions.code(action.point);
    let insert = InsertOp {
        cid,
        gen,
        point: action.point,
        kind: action.kind,
    };
    let outcome = run_op(run, tid, ctx, stats, rec, region, &insert);

    // R6: an isosurface vertex evicts nearby circumcenters. The removals are
    // attributed to the insertion's region — they happen within 2δ of it.
    if outcome == OpOutcome::Committed
        && action.kind == VertexKind::Isosurface
        && run.cfg.enable_removals
    {
        for victim in run.rules.r6_victims(&run.mesh, action.point) {
            let remove = RemoveOp { victim };
            run_op(run, tid, ctx, stats, rec, region, &remove);
        }
    }
    true
}

/// Retire a worker whose panic escaped the per-operation isolation: mark it
/// dead for termination detection, bequeath its queued work to a surviving
/// heir, and wake anyone parked on its contention list.
pub(crate) fn worker_death_cleanup(run: &RunState, tid: usize, rec: &mut ThreadRecorder) {
    run.dead_flags[tid].store(true, Ordering::Release);
    run.sync.worker_died();
    rec.inc(metrics::WORKER_DEATHS, 1);
    // The recorder lives in the pool thread, outside the worker's unwind,
    // so this log still holds everything logged before the panic.
    run.log(rec, tid, EventKind::WorkerDeath, 0, [0, 0, 0]);

    // Bequeath the dead worker's PEL to the nearest surviving thread so no
    // queued element is silently lost.
    let drained: Vec<(u32, u32)> = {
        let mut pel = run.pels[tid].lock();
        pel.drain(..).collect()
    };
    if !drained.is_empty() {
        let n = drained.len() as i64;
        run.counters[tid].fetch_sub(n, Ordering::AcqRel);
        let heir = (1..run.cfg.threads)
            .map(|k| (tid + k) % run.cfg.threads)
            .find(|&h| !run.dead_flags[h].load(Ordering::Acquire));
        match heir {
            Some(h) => {
                {
                    let mut pel = run.pels[h].lock();
                    for it in drained {
                        pel.push_back(it);
                    }
                }
                run.counters[h].fetch_add(n, Ordering::AcqRel);
                run.bal.wake(h);
                run.log(rec, tid, EventKind::HeirBequest, 0, [h as u32, n as u32, 0]);
            }
            None => {
                // no survivors: the work is lost, but so is the run — keep
                // the poor count consistent so nothing spins on it
                run.sync.poor_taken(n);
            }
        }
    }
    // Nobody may stay parked on a dead thread's contention list, and the
    // termination condition (begging + dead >= threads) may have just
    // become true — wake the beggars so one of them settles it.
    run.cm.before_beg(tid);
    run.sync.note_progress(Instant::now());
}

/// Enqueue newly created cells for (lazy) classification, donating to a
/// beggar when this thread has enough work of its own (paper §4.4). Kept
/// cells go on top of the own PEL in boundary-face order, so the last face's
/// cell is classified first.
pub(crate) fn handle_created(
    run: &RunState,
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
    let own = run.counters[tid].load(Ordering::Acquire);
    let target = if own >= DONATE_THRESHOLD && run.sync.begging() > 0 {
        run.bal.pick_beggar(tid)
    } else {
        None
    };
    let n = created.len() as i64;
    match target {
        Some(b) => {
            let t_donate = Instant::now();
            {
                let mut pel = run.pels[b].lock();
                for &nc in created {
                    pel.push_back((nc.0, run.mesh.cell(nc).gen()));
                }
            }
            run.counters[b].fetch_add(n, Ordering::AcqRel);
            run.sync.poor_added(n);
            run.bal.wake(b);
            // The handoff (beggar-PEL lock, push, wake) is the donor's time:
            // summed into its stats, and carried in the event's `c`.
            let handoff = t_donate.elapsed().as_secs_f64();
            stats.steal_donate_s += handoff;
            run.log(
                rec,
                tid,
                EventKind::Donate,
                0,
                [b as u32, n as u32, ns_u32(handoff)],
            );
            stats.donations_made += 1;
        }
        None => push_own(
            run,
            tid,
            rec,
            created.iter().map(|&nc| (nc.0, run.mesh.cell(nc).gen())),
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
