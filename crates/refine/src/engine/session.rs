//! The persistent, reusable meshing session and the staged pipeline it runs.
//!
//! A [`MeshingSession`] is created once and then meshes any number of images:
//! its [`WorkerPool`] keeps the worker threads, per-thread kernel scratch
//! arenas, flight-recorder rings, and the proximity grid warm across runs,
//! so repeated `session.mesh(...)` calls skip the per-run setup a one-shot
//! [`Mesher`](super::Mesher) pays every time.
//!
//! Every run walks the typed [`Stage`] sequence (Load → EDT → Oracle →
//! SurfaceRecovery → VolumeRefine → Quality → Export), records one obs phase
//! span per stage, reports progress through an optional callback, and honors
//! a cooperative [`CancelToken`] between stages, inside the EDT scan passes,
//! and at every worker loop boundary.

use super::config::{MeshOutput, MesherConfig};
use super::op::RegionMap;
use super::pool::WorkerPool;
use super::stage::{Stage, StageCallback, StageReporter};
use super::worker::{bridge_thread_stats, live_tap, Pel, RunState};
use crate::balancer::make_balancer;
use crate::cm::make_cm;
use crate::error::RefineError;
use crate::output::FinalMesh;
use crate::rules::{RuleConfig, Rules};
use crate::stats::{RefineStats, ThreadStats};
use crate::sync::EngineSync;
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use pi2m_delaunay::{SharedMesh, VertexKind};
use pi2m_image::LabeledImage;
use pi2m_obs::metrics::{self, MetricsSnapshot, ThreadRecorder};
use pi2m_obs::{CancelToken, Phases};
use pi2m_oracle::IsosurfaceOracle;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-run options beyond the [`MesherConfig`]: cancellation and progress
/// reporting.
#[derive(Clone, Default)]
pub struct RunOptions {
    /// Cooperative cancellation token (explicit trip or deadline). When it
    /// fires, the run returns [`RefineError::Cancelled`] at the next
    /// cancellation point; no locks or pool resources leak, and the session
    /// stays usable.
    pub cancel: Option<CancelToken>,
    /// Stage progress callback, fired on every stage entry and exit from the
    /// pipeline thread.
    pub on_stage: Option<StageCallback>,
}

/// Telemetry salvaged from a cancelled run: the drained flight events (in
/// the run time base), the merged metric snapshot, and the phase spans
/// recorded up to the cancellation point. A run that is killed by a deadline
/// is exactly the run whose observability artifacts matter most — this is
/// what lets the CLI still write `--report` / `--contention-out` after
/// [`RefineError::Cancelled`].
#[derive(Clone, Debug)]
pub struct CancelTelemetry {
    /// Flight events drained at cancellation, re-based onto the run clock.
    pub flight: Vec<pi2m_obs::FlightEvent>,
    /// Events lost to ring overwrites during this run.
    pub flight_dropped: u64,
    /// Metrics merged from the pipeline thread and every worker.
    pub metrics: MetricsSnapshot,
    /// Phase spans recorded up to the cancellation point.
    pub phases: Vec<pi2m_obs::TraceSpan>,
    /// Wall time of the (truncated) refinement section, seconds.
    pub wall_s: f64,
    /// Worker thread count of the cancelled run.
    pub threads: usize,
}

/// A persistent meshing session: create once, mesh many images.
///
/// ```no_run
/// use pi2m_refine::{MesherConfig, MeshingSession};
/// # let images: Vec<pi2m_image::LabeledImage> = vec![];
/// let mut session = MeshingSession::new(8);
/// for img in images {
///     let out = session.mesh(img, MesherConfig { threads: 8, ..Default::default() })?;
///     println!("{} tets", out.mesh.num_tets());
/// }
/// # Ok::<(), pi2m_refine::RefineError>(())
/// ```
pub struct MeshingSession {
    pool: WorkerPool,
    generation: u64,
}

impl MeshingSession {
    /// Create a session with `threads` pooled worker threads. Runs may ask
    /// for more threads than this; the pool grows on demand (and never
    /// shrinks).
    pub fn new(threads: usize) -> Self {
        MeshingSession {
            pool: WorkerPool::new(threads),
            generation: 0,
        }
    }

    /// Number of pooled worker threads currently alive.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Replace the warm worker pool with a fresh one of the same width,
    /// discarding every parked resource (threads, arenas, flight rings,
    /// proximity grid). This is the quarantine path for a session that
    /// served a poisoned run — e.g. one whose workers died or that returned
    /// [`RefineError::WorkerQuorumLost`] — where a caller like `pi2m serve`
    /// wants the next job to start from provably clean state. Blocks until
    /// the old pool's threads have joined.
    pub fn recycle(&mut self) {
        let threads = self.pool.threads();
        self.pool = WorkerPool::new(threads);
        self.generation += 1;
    }

    /// How many times [`recycle`](Self::recycle) replaced the pool. A fresh
    /// session is generation 0.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Take the telemetry salvaged from the last cancelled run, if any.
    /// Cleared by the take and overwritten by the next cancelled run.
    pub fn take_cancel_telemetry(&mut self) -> Option<CancelTelemetry> {
        self.pool.take_cancel_telemetry()
    }

    /// Mesh one image over the warm pool. Global failures (cancellation, a
    /// worker-quorum loss, a contention-manager livelock) surface as typed
    /// errors; the session stays usable after any of them.
    pub fn mesh(
        &mut self,
        img: LabeledImage,
        cfg: MesherConfig,
    ) -> Result<MeshOutput, RefineError> {
        self.mesh_with(img, cfg, &RunOptions::default())
    }

    /// [`mesh`](Self::mesh) with per-run cancellation / progress options.
    pub fn mesh_with(
        &mut self,
        img: LabeledImage,
        cfg: MesherConfig,
        opts: &RunOptions,
    ) -> Result<MeshOutput, RefineError> {
        self.mesh_seeded(img, cfg, opts, &[])
    }

    /// [`mesh_with`](Self::mesh_with) over a pre-seeded triangulation: the
    /// given points are inserted into the fresh virtual-box mesh before
    /// refinement starts, so the workers only repair where the seeded mesh
    /// violates R1–R6. This is the stitch pass of a sharded run: the seed is
    /// the union of the chunk meshes' vertices, and the repair work
    /// concentrates on the seam bands between chunks.
    pub(crate) fn mesh_seeded(
        &mut self,
        img: LabeledImage,
        cfg: MesherConfig,
        opts: &RunOptions,
        seed: &[([f64; 3], VertexKind)],
    ) -> Result<MeshOutput, RefineError> {
        let out = run_pipeline(&mut self.pool, img, cfg, opts, seed)?;
        let (died, threads) = (out.stats.workers_died, out.stats.threads());
        if died * 2 > threads {
            return Err(RefineError::WorkerQuorumLost { died, threads });
        }
        if out.stats.livelock {
            return Err(RefineError::Livelock);
        }
        Ok(out)
    }
}

/// Run the staged pipeline once over `pool`. Returns `Err` only for
/// cancellation — livelock and worker deaths are reported in the output's
/// stats, so the [`Mesher`](super::Mesher) wrappers can reproduce their
/// historical semantics exactly.
pub(crate) fn run_pipeline(
    pool: &mut WorkerPool,
    img: LabeledImage,
    cfg: MesherConfig,
    opts: &RunOptions,
    seed: &[([f64; 3], VertexKind)],
) -> Result<MeshOutput, RefineError> {
    let cancel = opts.cancel.clone().unwrap_or_default();
    let reporter = StageReporter::new(opts.on_stage.clone());
    let mut phases = Phases::new();
    let t0 = Instant::now();
    // Pipeline-thread recorder: EDT/oracle preprocessing metrics.
    let mut pipeline_rec = ThreadRecorder::new();

    // ---- Stage: Load ----
    reporter.started(Stage::Load, t0.elapsed().as_secs_f64());
    {
        let _g = phases.span(Stage::Load.phase_name());
        assert!(cfg.threads >= 1, "need at least one thread");
        assert!(cfg.delta > 0.0, "delta must be positive");
    }
    reporter.finished(Stage::Load, t0.elapsed().as_secs_f64());
    cancel.check().map_err(|_| RefineError::Cancelled)?;

    // ---- Stage: EDT ----
    reporter.started(Stage::Edt, t0.elapsed().as_secs_f64());
    let t_edt = Instant::now();
    let ft = {
        let _g = phases.span(Stage::Edt.phase_name());
        pi2m_edt::try_surface_feature_transform_obs(
            &img,
            cfg.threads,
            Some(&mut pipeline_rec),
            Some(&cancel),
        )
        .map_err(|_| RefineError::Cancelled)?
    };
    let edt_time = t_edt.elapsed().as_secs_f64();
    reporter.finished(Stage::Edt, t0.elapsed().as_secs_f64());

    // ---- Stage: Oracle ----
    reporter.started(Stage::Oracle, t0.elapsed().as_secs_f64());
    let oracle = {
        let _g = phases.span(Stage::Oracle.phase_name());
        pipeline_rec.inc(metrics::ORACLE_SURFACE_VOXELS, ft.num_sites() as u64);
        Arc::new(IsosurfaceOracle::from_parts(img, ft))
    };
    reporter.finished(Stage::Oracle, t0.elapsed().as_secs_f64());
    cancel.check().map_err(|_| RefineError::Cancelled)?;

    // ---- Stage: SurfaceRecovery ----
    // The virtual-box triangulation enclosing the object, the (recycled)
    // proximity grid, the refinement rules, and the initial PEL seed.
    reporter.started(Stage::SurfaceRecovery, t0.elapsed().as_secs_f64());
    let (mesh, rules, grid_park, regions, pels, counters, dead_flags) = {
        let _g = phases.span(Stage::SurfaceRecovery.phase_name());
        let domain = oracle
            .image()
            .foreground_bounds()
            .unwrap_or_else(|| oracle.image().bounds());
        let mesh = SharedMesh::enclosing(&domain);
        let grid = pool.checkout_grid(cfg.delta);
        let grid_park = Arc::clone(&grid);
        let rules = Rules::new(
            RuleConfig {
                delta: cfg.delta,
                radius_edge_bound: cfg.radius_edge_bound,
                planar_angle_min_deg: cfg.planar_angle_min_deg,
                size_fn: cfg.size_fn.clone(),
                surface_size_fn: cfg.surface_size_fn.clone(),
            },
            Arc::clone(&oracle),
            grid,
        );
        // Pre-seed the triangulation (stitch pass of a sharded run): insert
        // the union of the chunk vertices sequentially, registering each in
        // the proximity grid exactly as a committed refinement insertion
        // would. Duplicates (identical halo copies from adjacent chunks) and
        // points outside the virtual box are dropped — the kernel's typed
        // rejections are the backstop behind the caller's own dedup.
        if !seed.is_empty() {
            let mut ctx = mesh.make_ctx(0);
            let (mut kept, mut dropped) = (0u64, 0u64);
            for &(p, kind) in seed {
                match ctx.insert(p, kind) {
                    Ok(r) => {
                        rules.grid.insert(r.vertex, p);
                        kept += 1;
                    }
                    Err(_) => dropped += 1,
                }
            }
            pipeline_rec.inc(metrics::SHARD_SEED_VERTICES, kept);
            pipeline_rec.inc(metrics::SHARD_SEED_DUPLICATES, dropped);
        }
        let regions = RegionMap::new(&domain);
        let pels: Vec<Pel> = (0..cfg.threads)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect();
        let counters: Vec<CachePadded<AtomicI64>> = (0..cfg.threads)
            .map(|_| CachePadded::new(AtomicI64::new(0)))
            .collect();
        let dead_flags: Vec<CachePadded<AtomicBool>> = (0..cfg.threads)
            .map(|_| CachePadded::new(AtomicBool::new(false)))
            .collect();
        (mesh, rules, grid_park, regions, pels, counters, dead_flags)
    };
    reporter.finished(Stage::SurfaceRecovery, t0.elapsed().as_secs_f64());
    cancel.check().map_err(|_| RefineError::Cancelled)?;

    // ---- Stage: VolumeRefine ----
    let mut sync = EngineSync::new(cfg.threads);
    // Offset between the refinement clock (EngineSync, which timestamps
    // overhead traces and worker events) and the run origin, so all exported
    // timelines share one time base.
    let sync_origin = phases.now();
    // A warm recorder's clock starts at *its* creation, which may be runs
    // ago. Note where this run's origin sits on the recorder clock so
    // drained events can be re-based onto the run clock.
    let (flight_rec, mut flight_cursors, flight_base) = if cfg.flight {
        let (rec, cursors) = pool.checkout_flight(cfg.threads, cfg.flight_capacity);
        let base = rec.now_ns() as i128 - (phases.now() * 1e9) as i128;
        sync.set_flight(Arc::clone(&rec));
        (Some(rec), cursors, base)
    } else {
        (None, Vec::new(), 0i128)
    };

    // Seed: the initial box cells go to the main thread's PEL (paper §4.4:
    // "only the main thread might have a non-empty PEL").
    {
        let mut pel0 = pels[0].lock();
        for c in mesh.alive_cells() {
            pel0.push_back((c.0, mesh.cell(c).gen()));
        }
        let n = pel0.len() as i64;
        counters[0].fetch_add(n, Ordering::AcqRel);
        sync.poor_added(n);
    }

    let state = Arc::new(RunState {
        mesh,
        rules,
        pels,
        counters,
        sync,
        cm: make_cm(cfg.cm, cfg.threads),
        bal: make_balancer(cfg.balancer, cfg.topology, cfg.threads),
        cfg: cfg.clone(),
        ops_total: AtomicU64::new(0),
        dead_flags,
        regions,
        cancel: cancel.clone(),
    });
    pool.ensure_threads(cfg.threads);

    let t_refine = Instant::now();
    reporter.started(Stage::VolumeRefine, t0.elapsed().as_secs_f64());
    let mut per_thread: Vec<ThreadStats> =
        (0..cfg.threads).map(|_| ThreadStats::default()).collect();
    let mut recorders: Vec<ThreadRecorder> =
        (0..cfg.threads).map(|_| ThreadRecorder::new()).collect();
    let mut workers_died = 0usize;
    {
        let _g = phases.span(Stage::VolumeRefine.phase_name());
        let done_rx = pool.dispatch(&state);
        // Live telemetry tap: a sampler thread drains the rings
        // incrementally and prints one JSONL heartbeat per interval.
        let tap = cfg.live.zip(flight_rec.clone()).map(|(interval, rec)| {
            let st = Arc::clone(&state);
            std::thread::spawn(move || live_tap(&rec, &st.sync, interval))
        });
        for _ in 0..cfg.threads {
            // The pool thread's own catch_unwind boundaries make this recv
            // infallible for any panic raised inside the worker loop itself.
            let d = done_rx.recv().expect("pool worker thread lost");
            workers_died += d.died as usize;
            per_thread[d.tid] = d.stats;
            recorders[d.tid] = d.rec;
        }
        if let Some(h) = tap {
            let _ = h.join();
        }
    }
    reporter.finished(Stage::VolumeRefine, t0.elapsed().as_secs_f64());
    let wall_time = t_refine.elapsed().as_secs_f64();

    // All Arc holders (workers, tap) have finished and dropped theirs.
    let RunState {
        mesh,
        rules,
        sync,
        counters,
        ..
    } = unwrap_state(state);

    // A run that ended by quiescence popped everything it ever enqueued. The
    // workers settle these counts a batch at a time; a batch that lost or
    // double-counted an entry shows here. (A cap, a cancel, the watchdog or
    // a dead worker all stop a run with entries still queued.)
    if cfg.max_operations == 0 && !sync.was_cancelled() && !sync.livelocked() && workers_died == 0 {
        let queued: Vec<i64> = counters.iter().map(|c| c.load(Ordering::Acquire)).collect();
        assert!(
            sync.total_poor() == 0 && queued.iter().all(|&n| n == 0),
            "refinement ended with PEL entries unaccounted for: total {} per thread {queued:?}",
            sync.total_poor()
        );
    }

    // A cancelled run cleans up and returns the typed error, but its
    // telemetry is salvaged first: the drain advances the flight cursors
    // past this run's events (so the next run on these rings doesn't replay
    // them) AND keeps them — re-based onto the run clock and stashed in the
    // pool with the merged metrics — so the caller can still produce
    // complete `--report` / `--contention-out` artifacts for the run it had
    // to kill. The warm resources are parked; the pool comes back reusable.
    if sync.was_cancelled() {
        let (flight_events, flight_dropped) = match &flight_rec {
            Some(rec) => {
                let mut log = rec.drain_from(&mut flight_cursors);
                for e in &mut log.events {
                    // recorder clock → run clock
                    e.t_ns = (e.t_ns as i128 - flight_base).max(0) as u64;
                }
                (log.events, log.dropped + log.torn)
            }
            None => (Vec::new(), 0),
        };
        let mut snap = MetricsSnapshot::new();
        pipeline_rec.merge_into(cfg.threads as u32, &mut snap);
        for (tid, rec) in recorders.iter_mut().enumerate() {
            for e in &mut rec.events {
                e.at_s += sync_origin;
            }
            rec.merge_into(tid as u32, &mut snap);
        }
        for st in &per_thread {
            bridge_thread_stats(st, &mut snap);
        }
        pool.stash_cancel_telemetry(CancelTelemetry {
            flight: flight_events,
            flight_dropped,
            metrics: snap,
            phases: phases.spans().to_vec(),
            wall_s: wall_time,
            threads: cfg.threads,
        });
        if let Some(rec) = flight_rec {
            pool.park_flight(rec, flight_cursors, cfg.flight_capacity);
        }
        drop(rules);
        pool.park_grid(grid_park);
        return Err(RefineError::Cancelled);
    }

    // ---- Stage: Quality ----
    // Flight-ring drain plus the merge of every per-thread recorder into one
    // snapshot (join-time drain: workers are done, so plain reads — the
    // whole run records without a single atomic RMW).
    reporter.started(Stage::Quality, t0.elapsed().as_secs_f64());
    let (flight_events, flight_dropped, snap) = {
        let _g = phases.span(Stage::Quality.phase_name());
        let (flight_events, flight_dropped) = match &flight_rec {
            Some(rec) => {
                let mut log = rec.drain_from(&mut flight_cursors);
                for e in &mut log.events {
                    // recorder clock → run clock
                    e.t_ns = (e.t_ns as i128 - flight_base).max(0) as u64;
                }
                (log.events, log.dropped + log.torn)
            }
            None => (Vec::new(), 0),
        };
        let mut snap = MetricsSnapshot::new();
        pipeline_rec.merge_into(cfg.threads as u32, &mut snap);
        for (tid, rec) in recorders.iter_mut().enumerate() {
            for e in &mut rec.events {
                e.at_s += sync_origin; // shift into the run-origin time base
            }
            rec.merge_into(tid as u32, &mut snap);
        }
        for st in &per_thread {
            bridge_thread_stats(st, &mut snap);
        }
        if let Some(f) = &cfg.faults {
            snap.add_counter(metrics::FAULTS_INJECTED, f.injected());
        }
        (flight_events, flight_dropped, snap)
    };
    reporter.finished(Stage::Quality, t0.elapsed().as_secs_f64());

    // ---- Stage: Export ----
    reporter.started(Stage::Export, t0.elapsed().as_secs_f64());
    let final_mesh = phases.time(Stage::Export.phase_name(), || {
        FinalMesh::extract(&mesh, &oracle)
    });
    reporter.finished(Stage::Export, t0.elapsed().as_secs_f64());

    // Park the warm resources for the next run. The rules held the last
    // other grid Arc; drop them first so the parked grid is sole-owned and
    // the next checkout can reset it in place.
    if let Some(rec) = flight_rec {
        pool.park_flight(rec, flight_cursors, cfg.flight_capacity);
    }
    drop(rules);
    pool.park_grid(grid_park);

    let stats = RefineStats {
        final_elements: final_mesh.num_tets(),
        vertices_allocated: mesh.num_vertices(),
        per_thread,
        wall_time,
        edt_time,
        livelock: sync.livelocked(),
        workers_died,
        trace_origin: sync_origin,
    };
    Ok(MeshOutput {
        mesh: final_mesh,
        stats,
        shared: mesh,
        oracle,
        metrics: snap,
        phases: phases.spans().to_vec(),
        flight: flight_events,
        flight_dropped,
    })
}

/// Reclaim sole ownership of the run state after the workers and the tap
/// finished. The pool threads drop their Arcs *before* signalling done, so
/// this succeeds immediately in practice; the spin is a defense against the
/// tiny window a scheduler could still be unwinding a frame.
fn unwrap_state(mut state: Arc<RunState>) -> RunState {
    let mut spins = 0u32;
    loop {
        match Arc::try_unwrap(state) {
            Ok(s) => return s,
            Err(back) => {
                state = back;
                spins += 1;
                if spins > 1_000 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}
