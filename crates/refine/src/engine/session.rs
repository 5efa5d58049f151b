//! The persistent, reusable meshing session and the staged pipeline it runs.
//!
//! A [`MeshingSession`] is created once and then meshes any number of images:
//! its [`WorkerPool`] keeps the worker threads, per-thread kernel scratch
//! arenas and the proximity grid warm across runs, so the second and later
//! `session.mesh(...)` calls skip the per-run setup the first one pays.
//!
//! Every run walks the typed [`Stage`] sequence (Load → EDT → Oracle →
//! SurfaceRecovery → VolumeRefine → Quality → Export), records one obs phase
//! span per stage, reports progress through an optional callback, and honors
//! a cooperative [`CancelToken`] between stages, inside the EDT scan passes,
//! and at every worker loop boundary. A cancelled run returns what it
//! recorded inside its [`RefineError::Cancelled`].

use super::config::{MeshOutput, MesherConfig};
use super::pool::WorkerPool;
use super::stage::{Stage, StageCallback, StageEvent, StageStatus};
use super::worker::{bridge_thread_stats, RunState};
use crate::error::RefineError;
use crate::output::FinalMesh;
use crate::rules::{RuleConfig, Rules};
use crate::stats::{time_attribution, RefineStats, ThreadStats};
use pi2m_delaunay::{SharedMesh, VertexKind};
use pi2m_image::LabeledImage;
use pi2m_obs::flight::FlightEvent;
use pi2m_obs::metrics::{self, MetricsSnapshot, ThreadRecorder};
use pi2m_obs::{CancelToken, Phases, TimeAttribution};
use pi2m_oracle::IsosurfaceOracle;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Per-run options beyond the [`MesherConfig`]: cancellation and progress
/// reporting.
#[derive(Clone, Default)]
pub struct RunOptions {
    /// Cooperative cancellation token (explicit trip or deadline). When it
    /// fires, the run returns [`RefineError::Cancelled`], with the telemetry
    /// recorded so far, at the next cancellation point; no locks or pool
    /// resources leak, and the session stays usable.
    pub cancel: Option<CancelToken>,
    /// Stage progress callback, fired on every stage entry and exit from the
    /// pipeline thread.
    pub on_stage: Option<StageCallback>,
}

/// What a cancelled run recorded up to its cancellation point, carried by
/// [`RefineError::Cancelled`]: the phase spans and the merged metric
/// snapshot, and, once refinement has started, the drained flight events (in
/// the run time base) and the workers' attribution. A run that is killed by
/// a deadline is exactly the run whose observability artifacts matter most —
/// this is what lets the CLI still write its run report for it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CancelTelemetry {
    /// Flight events drained at cancellation, re-based onto the run clock,
    /// each worker's `WorkerSums` events last (empty before refinement).
    pub flight: Vec<pi2m_obs::FlightEvent>,
    /// Events the workers' bounded logs dropped during this run.
    pub flight_dropped: u64,
    /// Metrics merged from the pipeline thread and every worker.
    pub metrics: MetricsSnapshot,
    /// Phase spans recorded up to the cancellation point.
    pub phases: Vec<pi2m_obs::TraceSpan>,
    /// The workers' attribution of the (truncated) refinement section, from
    /// their own sums: its wall, and one row per worker (no rows before
    /// refinement).
    pub attribution: TimeAttribution,
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
    /// discarding every parked resource (threads, arenas, proximity grid).
    /// This is the quarantine path for a session that
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
        let (delta, max_operations) = (cfg.delta, cfg.max_operations);
        require_elements(
            self.mesh_seeded(img, cfg, opts, &[])?,
            delta,
            max_operations,
        )
    }

    /// [`mesh_with`](Self::mesh_with) over a pre-seeded triangulation: the
    /// given points are inserted into the fresh virtual-box mesh before
    /// refinement starts, so the workers only repair where the seeded mesh
    /// violates R1–R6. This is the stitch pass of a sharded run: the seed is
    /// the union of the chunk meshes' vertices, and the repair work
    /// concentrates on the seam bands between chunks. A run with a seed
    /// also fires the `shard.stitch` fault site from its worker loop.
    /// Unlike `mesh_with`, it returns an empty mesh as it is: a chunk run of a
    /// sharded mesh may hold only background, and the caller applies
    /// [`require_elements`] to the stitched result.
    pub(crate) fn mesh_seeded(
        &mut self,
        img: LabeledImage,
        cfg: MesherConfig,
        opts: &RunOptions,
        seed: &[([f64; 3], VertexKind)],
    ) -> Result<MeshOutput, RefineError> {
        run_pipeline(&mut self.pool, img, cfg, opts, seed)
    }
}

/// Run the staged pipeline once over `pool`. A run that reaches refinement
/// parks the warm resources before it returns, whatever the outcome. One
/// that a majority of its workers did not survive, or that the livelock
/// watchdog stopped, then returns its typed error in place of the mesh. A
/// cancelled run returns [`RefineError::Cancelled`] carrying what it
/// recorded up to the cancellation point.
fn run_pipeline(
    pool: &mut WorkerPool,
    img: LabeledImage,
    cfg: MesherConfig,
    opts: &RunOptions,
    seed: &[([f64; 3], VertexKind)],
) -> Result<MeshOutput, RefineError> {
    let cancel = opts.cancel.clone().unwrap_or_default();
    let on_stage = opts.on_stage.as_ref();
    let mut phases = Phases::new();
    // Pipeline-thread recorder: EDT/oracle preprocessing metrics.
    let mut pipeline_rec = ThreadRecorder::new();
    // A cancel before refinement has no worker telemetry: it carries the
    // spans recorded so far and the pipeline thread's metrics.
    let cancelled_early = |phases: &Phases, rec: &ThreadRecorder| {
        RefineError::Cancelled(Box::new(CancelTelemetry {
            metrics: drain_telemetry(&cfg, rec, Vec::new(), &[], 0.0, 0).2,
            phases: phases.spans().to_vec(),
            ..Default::default()
        }))
    };

    stage(&mut phases, on_stage, Stage::Load, || {
        assert!(cfg.threads >= 1, "need at least one thread");
        assert!(cfg.delta > 0.0, "delta must be positive");
    });
    cancel
        .check()
        .map_err(|_| cancelled_early(&phases, &pipeline_rec))?;

    let ft = stage(&mut phases, on_stage, Stage::Edt, || {
        pi2m_edt::try_surface_feature_transform_obs(
            &img,
            cfg.threads,
            Some(&mut pipeline_rec),
            Some(&cancel),
        )
    })
    .map_err(|_| cancelled_early(&phases, &pipeline_rec))?;
    let edt_time = phases.total(Stage::Edt.phase_name());

    let oracle = stage(&mut phases, on_stage, Stage::Oracle, || {
        pipeline_rec.inc(metrics::ORACLE_SURFACE_VOXELS, ft.num_sites() as u64);
        Arc::new(IsosurfaceOracle::from_parts(img, ft))
    });
    cancel
        .check()
        .map_err(|_| cancelled_early(&phases, &pipeline_rec))?;

    // The virtual-box triangulation enclosing the object, the (recycled)
    // proximity grid, and the refinement rules.
    let (mesh, rules, grid_park, domain) =
        stage(&mut phases, on_stage, Stage::SurfaceRecovery, || {
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
            (mesh, rules, grid_park, domain)
        });
    cancel
        .check()
        .map_err(|_| cancelled_early(&phases, &pipeline_rec))?;

    // Offset between the refinement clock (EngineSync, which timestamps
    // worker events) and the run origin, so all exported timelines share one
    // time base.
    let sync_origin = phases.now();
    let state = Arc::new(RunState::new(
        mesh,
        rules,
        cfg.clone(),
        &domain,
        cancel,
        !seed.is_empty(),
    ));
    pool.ensure_threads(cfg.threads);

    let (per_thread, recorders, workers_died) =
        stage(&mut phases, on_stage, Stage::VolumeRefine, || {
            let mut per_thread: Vec<ThreadStats> =
                (0..cfg.threads).map(|_| ThreadStats::default()).collect();
            let mut recorders: Vec<ThreadRecorder> =
                (0..cfg.threads).map(|_| ThreadRecorder::new()).collect();
            let mut workers_died = 0usize;
            let done_rx = pool.dispatch(&state);
            for _ in 0..cfg.threads {
                // The pool thread's own catch_unwind boundaries make this
                // recv infallible for any panic raised inside the worker
                // loop itself.
                let d = done_rx.recv().expect("pool worker thread lost");
                workers_died += d.died as usize;
                per_thread[d.tid] = d.stats;
                recorders[d.tid] = d.rec;
            }
            (per_thread, recorders, workers_died)
        });
    let wall_time = phases.total(Stage::VolumeRefine.phase_name());
    // The run's one account of worker time, from the workers' own sums.
    let attribution = time_attribution(&per_thread, wall_time);
    // Where the drain stamps the workers' sums: after every logged event.
    let sums_ns = ((sync_origin + state.sync.now()) * 1e9) as u64;
    // Every pool thread drops its Arc before it reports done: this is the
    // last one.
    let RunState {
        mesh,
        rules,
        sync,
        counters,
        ..
    } = Arc::into_inner(state).expect("run state still shared after every worker reported");

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

    // Park the proximity grid for the next run. The rules held the last
    // other grid Arc; drop them first so the parked grid is sole-owned and
    // the next checkout can reset it in place.
    drop(rules);
    pool.park_grid(grid_park);

    // A cancelled run returns the typed error carrying its salvaged
    // telemetry, so the caller can still write a complete run report for the
    // run it had to kill.
    if sync.was_cancelled() {
        let (flight, flight_dropped, metrics) = drain_telemetry(
            &cfg,
            &pipeline_rec,
            recorders,
            &per_thread,
            sync_origin,
            sums_ns,
        );
        return Err(RefineError::Cancelled(Box::new(CancelTelemetry {
            flight,
            flight_dropped,
            metrics,
            phases: phases.spans().to_vec(),
            attribution,
        })));
    }

    let (flight_events, flight_dropped, snap) =
        stage(&mut phases, on_stage, Stage::Quality, || {
            drain_telemetry(
                &cfg,
                &pipeline_rec,
                recorders,
                &per_thread,
                sync_origin,
                sums_ns,
            )
        });
    let final_mesh = stage(&mut phases, on_stage, Stage::Export, || {
        FinalMesh::extract(&mesh, &oracle)
    });

    // The one exit contract: a run a majority of its workers did not survive,
    // or one the watchdog stopped, is not a mesh.
    let threads = cfg.threads;
    if workers_died * 2 > threads {
        return Err(RefineError::WorkerQuorumLost {
            died: workers_died,
            threads,
        });
    }
    if sync.livelocked() {
        return Err(RefineError::Livelock);
    }

    let stats = RefineStats {
        final_elements: final_mesh.num_tets(),
        vertices_allocated: mesh.num_vertices(),
        per_thread,
        wall_time,
        edt_time,
        workers_died,
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
        attribution,
    })
}

/// The contract of a final mesh: a converged run that kept no element is not
/// one. A capped run (`max_operations > 0`) may simply have stopped before it
/// made one, so it keeps its empty mesh.
pub(crate) fn require_elements(
    out: MeshOutput,
    delta: f64,
    max_operations: u64,
) -> Result<MeshOutput, RefineError> {
    if out.mesh.num_tets() == 0 && max_operations == 0 {
        return Err(RefineError::NoElements { delta });
    }
    Ok(out)
}

/// One stage of a run: fires its `Started` and `Finished` events through the
/// run's callback, stamped on the run clock, and runs `body` inside the
/// stage's phase span, passing its value through.
fn stage<T>(
    phases: &mut Phases,
    on_stage: Option<&StageCallback>,
    stage: Stage,
    body: impl FnOnce() -> T,
) -> T {
    let fire = |status, elapsed_s| {
        if let Some(cb) = on_stage {
            cb(StageEvent {
                stage,
                status,
                elapsed_s,
            });
        }
    };
    fire(StageStatus::Started, phases.now());
    let value = phases.time(stage.phase_name(), body);
    fire(StageStatus::Finished, phases.now());
    value
}

/// The telemetry tail of every run that reached refinement, completed or
/// cancelled, once its workers have joined. Concatenates the workers'
/// flight logs, shifted like their timeline events from the sync clock
/// into the run-origin time base, sorts them, and appends each worker's
/// time sums, stamped at `sums_ns`: the sums never sit in a log, so no log
/// capacity drops them. Merges the pipeline's and every worker's recorder
/// into one snapshot: the workers are done, so these are plain reads, and
/// the whole run records without a single atomic RMW. Then bridges the
/// `ThreadStats` counters and counts the injected faults.
fn drain_telemetry(
    cfg: &MesherConfig,
    pipeline_rec: &ThreadRecorder,
    mut recorders: Vec<ThreadRecorder>,
    per_thread: &[ThreadStats],
    sync_origin: f64,
    sums_ns: u64,
) -> (Vec<FlightEvent>, u64, MetricsSnapshot) {
    let origin_ns = (sync_origin * 1e9) as u64;
    let mut events = Vec::new();
    let mut dropped = 0;
    let mut snap = MetricsSnapshot::new();
    pipeline_rec.merge_into(cfg.threads as u32, &mut snap);
    for (tid, rec) in recorders.iter_mut().enumerate() {
        let (logged, lost) = rec.flight.take();
        events.extend(logged.into_iter().map(|e| FlightEvent {
            t_ns: e.t_ns + origin_ns,
            ..e
        }));
        dropped += lost;
        for e in &mut rec.events {
            e.at_s += sync_origin;
        }
        rec.merge_into(tid as u32, &mut snap);
    }
    events.sort_by_key(|e| e.t_ns);
    if cfg.flight {
        for (tid, st) in per_thread.iter().enumerate() {
            events.extend(st.sum_events(tid as u16, sums_ns));
        }
    }
    for st in per_thread {
        bridge_thread_stats(st, &mut snap);
    }
    if let Some(f) = &cfg.faults {
        snap.add_counter(metrics::FAULTS_INJECTED, f.injected());
    }
    (events, dropped, snap)
}
