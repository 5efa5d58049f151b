//! The PI2M parallel mesher (paper Algorithm 1), as a staged pipeline over a
//! persistent worker pool.
//!
//! The engine is split along its natural seams:
//!
//! - `config` — [`MesherConfig`] and the assembled [`MeshOutput`].
//! - `op` — the unified `SpeculativeOp` lifecycle: insertions and removals
//!   share one begin/commit/rollback protocol that the scheduler, contention
//!   manager, begging list, and flight recorder observe.
//! - `worker` — the shared `RunState`, the worker loop, and its helpers
//!   (death cleanup, donation).
//! - `pool` — persistent worker threads plus the warm resources (kernel
//!   arenas, flight rings, proximity grid) they reuse across runs.
//! - `stage` — the typed [`Stage`] sequence and its progress events.
//! - `session` — [`MeshingSession`] and the staged pipeline itself, the one
//!   way to run the engine, with the driver that spans and reports each
//!   stage.

mod config;
mod op;
mod pool;
mod session;
mod stage;
mod worker;

pub use config::{MeshOutput, MesherConfig};
pub(crate) use session::require_elements;
pub use session::{CancelTelemetry, MeshingSession, RunOptions};
pub use stage::{Stage, StageCallback, StageEvent, StageStatus};

#[cfg(test)]
mod tests {
    use super::op::RegionMap;
    use super::*;
    use pi2m_delaunay::VertexKind;
    use pi2m_geometry::Aabb;
    use pi2m_image::phantoms;
    use pi2m_obs::flight::{EventKind, SumBucket};
    use pi2m_obs::metrics;

    fn small_cfg(threads: usize) -> MesherConfig {
        MesherConfig {
            delta: 2.0,
            threads,
            ..Default::default()
        }
    }

    fn small_run(threads: usize) -> MeshOutput {
        MeshingSession::new(threads)
            .mesh(phantoms::sphere(16, 1.0), small_cfg(threads))
            .unwrap()
    }

    #[test]
    fn single_threaded_sphere() {
        let out = small_run(1);
        assert!(out.mesh.num_tets() > 50, "got {}", out.mesh.num_tets());
        assert_eq!(out.stats.total_rollbacks(), 0);
        out.shared.check_adjacency().unwrap();
        out.shared.check_delaunay_sos().unwrap();
        // fidelity smoke check: mesh volume within 25% of the sphere volume
        let sphere_vol = out.oracle.image().foreground_volume();
        let v = out.mesh.volume();
        assert!(
            (v - sphere_vol).abs() / sphere_vol < 0.25,
            "mesh volume {v} vs sphere {sphere_vol}"
        );
    }

    #[test]
    fn multi_threaded_matches_structurally() {
        let a = small_run(1);
        let b = small_run(4);
        // same rules, different schedules: sizes in the same ballpark
        let (na, nb) = (a.mesh.num_tets() as f64, b.mesh.num_tets() as f64);
        assert!(
            (na - nb).abs() / na < 0.5,
            "1-thread {na} vs 4-thread {nb} elements"
        );
        b.shared.check_adjacency().unwrap();
        b.shared.check_delaunay_sos().unwrap();
    }

    #[test]
    fn runs_terminate_on_one_warm_session() {
        let mut session = MeshingSession::new(3);
        for run in 0..2 {
            let out = session
                .mesh(phantoms::sphere(16, 1.0), small_cfg(3))
                .unwrap();
            assert!(out.mesh.num_tets() > 0, "run {run} produced an empty mesh");
        }
    }

    #[test]
    fn removals_happen() {
        let img = phantoms::sphere(20, 1.0);
        let cfg = MesherConfig {
            delta: 2.0,
            threads: 2,
            ..Default::default()
        };
        let out = MeshingSession::new(cfg.threads).mesh(img, cfg).unwrap();
        // R6 should fire at least occasionally on a curved surface
        assert!(out.stats.total_removals() > 0, "no removals occurred");
        // and removals stay a small fraction of operations (paper: ~2%)
        let frac = out.stats.total_removals() as f64 / out.stats.total_operations().max(1) as f64;
        assert!(frac < 0.35, "removal fraction {frac}");
    }

    #[test]
    fn metrics_snapshot_mirrors_stats() {
        let out = small_run(2);
        let m = &out.metrics;
        // bridged ThreadStats counters agree with the legacy accessors
        assert_eq!(m.counter(metrics::OPS_TOTAL), out.stats.total_operations());
        assert_eq!(
            m.counter(metrics::OPS_ROLLBACKS),
            out.stats.total_rollbacks()
        );
        assert_eq!(m.counter(metrics::OPS_REMOVALS), out.stats.total_removals());
        // EDT preprocessing recorded its three separable passes
        assert_eq!(m.counter(metrics::EDT_PASSES), 3);
        assert!(m.counter(metrics::EDT_VOXELS) > 0);
        assert!(m.counter(metrics::ORACLE_SURFACE_VOXELS) > 0);
        // one cavity sample per successful insertion, and walks were counted
        let insertions: u64 = out.stats.per_thread.iter().map(|t| t.insertions).sum();
        assert_eq!(m.hist(metrics::CAVITY_CELLS).count, insertions);
        assert!(m.counter(metrics::WALK_LOCATES) > 0);
        assert!(m.counter(metrics::WALK_STEPS) >= m.counter(metrics::WALK_LOCATES));
        // every worker leaves a lifetime event on its own track
        let mut tids: Vec<u32> = m
            .events
            .iter()
            .filter(|(_, e)| e.name == "worker")
            .map(|(t, _)| *t)
            .collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids, vec![0, 1]);
        // pipeline phases are spanned — one per stage, legacy names intact
        for stage in Stage::ALL {
            let phase = stage.phase_name();
            assert!(
                out.phases.iter().any(|s| s.name == phase && s.dur_s >= 0.0),
                "missing phase {phase}"
            );
        }
    }

    /// The drained log ends with six `WorkerSums` events per worker, whose
    /// committed counts are the run's operations.
    #[test]
    fn flight_log_ends_with_every_workers_sums() {
        let out = small_run(2);
        // drained log is time-sorted
        assert!(out.flight.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        let (logged, sums) = out
            .flight
            .split_at(out.flight.len() - 2 * SumBucket::ALL.len());
        assert!(sums.iter().all(|e| e.kind == EventKind::WorkerSums));
        assert!(logged.iter().all(|e| e.kind != EventKind::WorkerSums));
        for tid in 0..2 {
            let mine: Vec<SumBucket> = sums
                .iter()
                .filter(|e| e.tid == tid)
                .filter_map(|e| e.sum().map(|(b, _)| b))
                .collect();
            assert_eq!(mine, SumBucket::ALL, "worker {tid}");
        }
        let commits: u64 = sums
            .iter()
            .filter(|e| {
                matches!(
                    e.sum(),
                    Some((SumBucket::CommittedInsert | SumBucket::CommittedRemove, _))
                )
            })
            .map(|e| e.c as u64)
            .sum();
        assert!(commits > 0, "no commits summed");
        assert_eq!(commits, out.stats.total_operations());
    }

    #[test]
    fn flight_off_records_nothing() {
        let img = phantoms::sphere(16, 1.0);
        let cfg = MesherConfig {
            delta: 2.0,
            threads: 2,
            flight: false,
            ..Default::default()
        };
        let out = MeshingSession::new(cfg.threads).mesh(img, cfg).unwrap();
        assert!(out.flight.is_empty());
        assert_eq!(out.flight_dropped, 0);
    }

    #[test]
    fn region_map_codes_are_stable() {
        let domain = Aabb {
            min: [0.0, 0.0, 0.0].into(),
            max: [16.0, 16.0, 16.0].into(),
        };
        let rm = RegionMap::new(&domain);
        assert_eq!(rm.code([0.0, 0.0, 0.0]), 0);
        assert_eq!(rm.code([15.99, 0.0, 0.0]), 15);
        assert_eq!(rm.code([0.0, 15.99, 15.99]), (15 << 4) | (15 << 8));
        // out-of-domain points clamp instead of wrapping
        assert_eq!(rm.code([-5.0, 99.0, 8.0]), (15 << 4) | (8 << 8));
    }

    #[test]
    fn op_cap_stops_early() {
        let img = phantoms::sphere(24, 1.0);
        let cfg = MesherConfig {
            delta: 0.8,
            threads: 2,
            max_operations: 100,
            ..Default::default()
        };
        let out = MeshingSession::new(cfg.threads).mesh(img, cfg).unwrap();
        assert!(out.stats.total_operations() <= 120);
    }

    /// PEL pops are counted whether or not the cell was still alive, and the
    /// dead ones separately: `classify_calls - classify_stale` is the number
    /// of classifications that actually ran. Dead entries pruned before a
    /// push are not pops and are counted on their own.
    #[test]
    fn stale_pops_are_counted_apart() {
        let out = small_run(1);
        let calls = out.metrics.counter(metrics::CLASSIFY_CALLS);
        let stale = out.metrics.counter(metrics::CLASSIFY_STALE);
        let pruned = out.metrics.counter(metrics::PEL_PRUNED);
        assert!(stale > 0, "a cavity kills cells that still sit in the PEL");
        assert!(pruned > 0, "a growing PEL is pruned of its dead entries");
        // every live classification either committed an op, was skipped, or
        // found the cell satisfied; it takes one to start any operation
        assert!(calls - stale >= out.metrics.counter(metrics::OPS_INSERTIONS));
        // every enqueued entry leaves by a pop or a prune: the initial box
        // cells, every cell an operation created, and the few cells that
        // survived their own remedy and were requeued
        let created = out.metrics.counter(metrics::CELLS_CREATED);
        assert!(
            calls + pruned > created && calls + pruned <= created + 64,
            "{calls} pops + {pruned} pruned vs {created} created"
        );
    }

    /// Live classifications count the facets R3 reached, and the worker's
    /// facet memo clears some, not all, of them without a traversal. Of the
    /// rest, some reach the traversal and some are settled before it.
    #[test]
    fn r3_memo_hits_are_counted() {
        let out = small_run(1);
        let facets = out.metrics.counter(metrics::R3_FACETS);
        let hits = out.metrics.counter(metrics::R3_MEMO_HITS);
        assert!(hits > 0 && hits < facets, "{hits} hits of {facets} facets");
        let walked = out.metrics.counter(metrics::R3_TRAVERSALS);
        assert!(
            walked > 0 && walked < facets - hits,
            "{walked} traversals of {} unmemoised facets",
            facets - hits
        );
    }

    /// The refinement stage on the calling thread: the run state the pipeline
    /// would assemble for one worker, and one direct call of the worker loop.
    /// Hands back what the pipeline consumes — the rules, the PEL counters —
    /// so a test can read them.
    fn refine_on_this_thread(
        img: pi2m_image::LabeledImage,
        cfg: MesherConfig,
    ) -> (worker::RunState, metrics::ThreadRecorder) {
        use std::sync::Arc;

        let oracle = Arc::new(pi2m_oracle::IsosurfaceOracle::new(img, 1));
        let domain = oracle.image().foreground_bounds().unwrap();
        let mesh = pi2m_delaunay::SharedMesh::enclosing(&domain);
        let rules = crate::Rules::new(
            crate::RuleConfig {
                delta: cfg.delta,
                ..Default::default()
            },
            oracle,
            Arc::new(crate::PointGrid::new(cfg.delta)),
        );
        let state = worker::RunState::new(
            mesh,
            rules,
            cfg,
            &domain,
            pi2m_obs::CancelToken::new(),
            false,
        );
        let mut rec = metrics::ThreadRecorder::new();
        worker::worker(
            &state,
            0,
            &mut crate::ThreadStats::default(),
            &mut rec,
            &mut pi2m_delaunay::KernelScratch::default(),
        );
        (state, rec)
    }

    /// The worker settles its PEL accounting once per drained batch, and a
    /// prune with the push that triggered it. Every pop must still be
    /// counted, the live ones must be exactly the elements `Rules::classify`
    /// saw, and at quiescence nothing may be left over.
    #[test]
    fn batch_drain_accounts_for_every_pop() {
        use std::sync::atomic::Ordering;
        let cfg = MesherConfig {
            delta: 2.0,
            ..Default::default()
        };
        let (state, rec) = refine_on_this_thread(phantoms::sphere(16, 1.0), cfg);
        let calls = rec.counter(metrics::CLASSIFY_CALLS);
        let stale = rec.counter(metrics::CLASSIFY_STALE);
        assert!(stale > 0 && stale < calls, "{stale} stale of {calls}");
        assert_eq!(
            calls - stale,
            state.rules.classify_calls.load(Ordering::Relaxed),
            "live pops vs classifications"
        );
        assert_eq!(state.sync.total_poor(), 0);
        assert_eq!(state.counters[0].load(Ordering::Acquire), 0);
        assert!(state.pels[0].lock().is_empty());
    }

    /// `max_operations` caps PEL pops, and a batch may not run past it: one
    /// thread capped at N stops after exactly N pops, wherever in a run of
    /// stale entries that falls. (The mid-refinement differential in
    /// `rules.rs` picks its meshes by this count.)
    #[test]
    fn op_cap_counts_pops_exactly() {
        for cap in [1, 7, 1_000, 1_001, 4_000] {
            let cfg = MesherConfig {
                delta: 1.5,
                max_operations: cap,
                ..Default::default()
            };
            let out = MeshingSession::new(1)
                .mesh(phantoms::sphere(24, 1.0), cfg)
                .unwrap();
            assert_eq!(out.metrics.counter(metrics::CLASSIFY_CALLS), cap);
        }
    }

    /// A region the seed already meshed to the rules' satisfaction is never
    /// touched by a worker; extraction (a scan of the cell pool) must report
    /// it all the same. Seeding a run with every vertex of a finished mesh
    /// leaves the workers next to nothing to do, and the extracted mesh must
    /// be the finished one again.
    #[test]
    fn seeded_run_extracts_regions_no_worker_touched() {
        let img = phantoms::nested_spheres(20, 1.0);
        let cfg = MesherConfig {
            delta: 2.0,
            ..Default::default()
        };
        let mut session = MeshingSession::new(1);
        let first = session.mesh(img.clone(), cfg.clone()).unwrap();
        let corners = first.shared.corner_ids();
        let seed: Vec<([f64; 3], VertexKind)> = (0..first.shared.num_vertices() as u32)
            .map(pi2m_delaunay::VertexId)
            .filter(|v| !corners.contains(v))
            .map(|v| first.shared.vertex(v))
            .filter(|v| v.is_alive())
            .map(|v| (v.pos(), v.kind()))
            .collect();
        let again = session
            .mesh_seeded(img, cfg, &RunOptions::default(), &seed)
            .unwrap();
        let (ops, first_ops) = (
            again.stats.total_operations(),
            first.stats.total_operations(),
        );
        assert!(ops * 20 < first_ops, "{ops} repair ops after {first_ops}");
        let (a, b) = (first.mesh.label_volumes(), again.mesh.label_volumes());
        assert_eq!(a.len(), 2, "both tissues meshed");
        assert_eq!(a.len(), b.len());
        for (&(label, v), &(_, w)) in a.iter().zip(&b) {
            assert!(
                (v - w).abs() <= 0.01 * v,
                "label {label}: {v:.1} first vs {w:.1} reseeded"
            );
        }
    }
}
