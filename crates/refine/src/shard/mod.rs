//! Sharded meshing: chunked domain decomposition with seam stitching.
//!
//! No front door reaches this module: `pi2m mesh`, `pi2m serve` and the run
//! report mesh one image with one refinement. On one machine a sharded run
//! is 2.0–2.6× slower than a single refinement, uses more memory and emits
//! more tets, so it stays only for the benchmark's `knee-sharded` workload
//! and its `shard.*` per-layer metrics, and goes with them.
//!
//! A sharded run splits the labeled image into a grid of overlapping
//! axis-aligned chunks ([`split_plan`]), meshes every chunk independently,
//! and then *stitches*: the union of the chunk meshes' owned vertices is
//! inserted into one fresh virtual-box triangulation over the full image, and
//! the ordinary R1–R6 refinement loop runs over it to quiescence. Chunk
//! interiors already satisfy the rules, so the repair work concentrates on
//! the seam bands; the stitched mesh passes the exact same audit as a
//! monolithic one because it *is* an ordinary insertion-built mesh.
//!
//! Parallelism contract: chunks are meshed single-threaded (making each
//! chunk's mesh schedule-independent, hence the whole chunk phase
//! deterministic for a given plan), fanned out over `lanes` concurrent lane
//! sessions; the stitch pass uses the caller's full `threads` budget. The
//! caller's [`CancelToken`](pi2m_obs::CancelToken) covers every chunk run and
//! the stitch.

mod split;
mod stitch;

pub use split::{split_plan, ChunkSpec, ShardError};

use crate::engine::{require_elements, MeshOutput, MesherConfig, MeshingSession, RunOptions};
use crate::error::RefineError;
use crate::output::FinalMesh;
use parking_lot::Mutex;
use pi2m_image::LabeledImage;
use pi2m_obs::metrics::{self, MetricsSnapshot};
use pi2m_obs::Phases;
use std::time::Instant;

/// How to shard a run: the chunk grid and the fan-out. The halo is always
/// [`auto_halo`]'s, derived from δ.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// Chunk grid (`[x, y, z]` counts), e.g. `[2, 2, 1]`.
    pub grid: [usize; 3],
    /// Concurrent chunk lanes (each lane is its own single-threaded warm
    /// session). `None` uses `min(chunk count, cfg.threads)`.
    pub lanes: Option<usize>,
}

impl ShardSpec {
    /// A spec for `grid` with derived fan-out.
    pub fn new(grid: [usize; 3]) -> ShardSpec {
        ShardSpec { grid, lanes: None }
    }
}

/// Per-chunk record of a sharded run.
#[derive(Clone, Copy, Debug)]
pub struct ChunkRun {
    /// Position in the shard grid.
    pub index: [usize; 3],
    /// Tetrahedra in the chunk's (pre-stitch) mesh.
    pub tets: u64,
    /// Vertices this chunk contributed to the stitch seed's candidate pool.
    pub vertices: u64,
    /// Wall time of the chunk's pipeline run, seconds.
    pub wall_s: f64,
}

/// Result of a sharded run: the stitched [`MeshOutput`] plus the shard-level
/// accounting the run report's `shard` section is built from.
pub struct ShardRun {
    /// The stitched mesh, with `phases` covering the whole sharded run
    /// (`shard_split`, one `shard_chunk` span per chunk, `shard_stitch`, and
    /// the stitch pipeline's own stage spans shifted onto the same clock) and
    /// `metrics` merged over every chunk run and the stitch.
    pub out: MeshOutput,
    /// The grid actually used.
    pub grid: [usize; 3],
    /// The halo actually used (voxels).
    pub halo: usize,
    /// The lane count actually used.
    pub lanes: usize,
    /// Per-chunk records, in plan (x-fastest) order.
    pub chunks: Vec<ChunkRun>,
    /// Vertices offered to the stitch seed after ownership filtering.
    pub seed_points: u64,
    /// Bit-exact duplicates dropped while gathering the seed.
    pub seed_duplicates: u64,
}

/// The halo of every sharded run, in voxels per seam side: the R1/R2
/// proximity checks reach 2δ, so the halo must cover at least that many
/// voxels of context past the seam.
pub fn auto_halo(delta: f64, min_spacing: f64) -> usize {
    ((2.0 * delta / min_spacing).ceil() as usize).max(2)
}

struct ChunkOut {
    mesh: FinalMesh,
    metrics: MetricsSnapshot,
    start_s: f64,
    wall_s: f64,
}

/// Mesh `img` sharded per `spec` over `session`'s warm pool (used for the
/// stitch pass), fanning chunk meshing out across fresh single-threaded lane
/// sessions. See the module docs for the decomposition and determinism
/// contract; degenerate specs and engine failures surface as one typed
/// [`ShardError`].
pub fn mesh_sharded(
    session: &mut MeshingSession,
    img: LabeledImage,
    cfg: MesherConfig,
    opts: &RunOptions,
    spec: &ShardSpec,
) -> Result<ShardRun, ShardError> {
    let mut phases = Phases::new();
    let origin = Instant::now();
    let halo = auto_halo(cfg.delta, img.min_spacing());
    let plan = {
        let _g = phases.span("shard_split");
        split_plan(img.dims(), spec.grid, halo)?
    };
    let lanes = spec
        .lanes
        .unwrap_or_else(|| cfg.threads.min(plan.len()))
        .clamp(1, plan.len());
    let cancel = opts.cancel.clone().unwrap_or_default();

    // Chunk meshing: intra-chunk single-threaded (schedule-independent),
    // cross-chunk parallel over the lanes. The flight recorder is a
    // stitch-run concern; chunk runs keep only their metric snapshots.
    let chunk_cfg = MesherConfig {
        threads: 1,
        flight: false,
        ..cfg.clone()
    };
    let results: Vec<Mutex<Option<Result<ChunkOut, RefineError>>>> =
        plan.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for lane in 0..lanes {
            let (plan, results, img, chunk_cfg, cancel) =
                (&plan, &results, &img, &chunk_cfg, &cancel);
            s.spawn(move || {
                let mut lane_session = MeshingSession::new(1);
                let chunk_opts = RunOptions {
                    cancel: Some(cancel.clone()),
                    on_stage: None,
                };
                let mut i = lane;
                while i < plan.len() {
                    if cancel.is_cancelled() {
                        *results[i].lock() = Some(Err(RefineError::Cancelled(Box::default())));
                        i += lanes;
                        continue;
                    }
                    let c = &plan[i];
                    let chunk_img = img.crop(c.lo, c.hi);
                    let start_s = origin.elapsed().as_secs_f64();
                    let t0 = Instant::now();
                    // A chunk of only background meshes to nothing and
                    // seeds nothing; only the stitched mesh must keep an element.
                    let r = lane_session
                        .mesh_seeded(chunk_img, chunk_cfg.clone(), &chunk_opts, &[])
                        .map(|out| ChunkOut {
                            mesh: out.mesh,
                            metrics: out.metrics,
                            start_s,
                            wall_s: t0.elapsed().as_secs_f64(),
                        });
                    *results[i].lock() = Some(r);
                    i += lanes;
                }
            });
        }
    });
    // First failure in plan order wins (deterministic error reporting).
    let mut chunk_outs = Vec::with_capacity(plan.len());
    for cell in results {
        match cell.into_inner() {
            Some(Ok(out)) => chunk_outs.push(out),
            Some(Err(e)) => return Err(ShardError::Run(e)),
            None => return Err(ShardError::Run(RefineError::Cancelled(Box::default()))),
        }
    }
    for out in &chunk_outs {
        phases.record("shard_chunk", out.start_s, out.wall_s);
    }

    // Gather the seed (owned, deduplicated chunk vertices) and stitch: one
    // full-image pipeline run seeded with it, on the caller's session, with
    // the caller's thread budget and progress callback.
    let chunk_meshes: Vec<FinalMesh> = chunk_outs.iter().map(|c| c.mesh.clone()).collect();
    let (seed, seed_duplicates) = stitch::gather_seed_points(&img, &plan, &chunk_meshes);
    let stitch_start = phases.now();
    let (delta, max_operations) = (cfg.delta, cfg.max_operations);
    let mut out = require_elements(
        session.mesh_seeded(img, cfg, opts, &seed)?,
        delta,
        max_operations,
    )?;
    phases.record("shard_stitch", stitch_start, phases.now() - stitch_start);

    // One timeline: shift the stitch pipeline's stage spans onto the sharded
    // run's clock and prepend the shard phases.
    let mut spans = phases.spans().to_vec();
    for s in &out.phases {
        let mut s = *s;
        s.start_s += stitch_start;
        spans.push(s);
    }
    out.phases = spans;

    // One metric namespace: the stitch snapshot plus every chunk's, plus the
    // shard-level counters.
    let mut chunks = Vec::with_capacity(plan.len());
    for (spec, c) in plan.iter().zip(&chunk_outs) {
        out.metrics.merge(&c.metrics);
        out.metrics.add_counter(metrics::SHARD_CHUNKS_MESHED, 1);
        out.metrics.observe(metrics::SHARD_CHUNK_SECONDS, c.wall_s);
        chunks.push(ChunkRun {
            index: spec.index,
            tets: c.mesh.num_tets() as u64,
            vertices: c.mesh.points.len() as u64,
            wall_s: c.wall_s,
        });
    }
    let stitch_insertions: u64 = out.stats.per_thread.iter().map(|t| t.insertions).sum();
    out.metrics
        .add_counter(metrics::SHARD_STITCH_INSERTIONS, stitch_insertions);

    Ok(ShardRun {
        out,
        grid: spec.grid,
        halo,
        lanes,
        chunks,
        seed_points: seed.len() as u64,
        seed_duplicates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_halo_covers_the_rule_reach() {
        assert_eq!(auto_halo(2.0, 1.0), 4);
        assert_eq!(auto_halo(0.5, 1.0), 2); // floor of 2 voxels
        assert_eq!(auto_halo(1.0, 0.5), 4);
    }

    #[test]
    fn sharded_sphere_stitches_and_audits() {
        let img = pi2m_image::phantoms::sphere(16, 1.0);
        let cfg = MesherConfig {
            delta: 2.0,
            threads: 2,
            ..Default::default()
        };
        let mut session = MeshingSession::new(2);
        let run = mesh_sharded(
            &mut session,
            img,
            cfg,
            &RunOptions::default(),
            &ShardSpec::new([2, 1, 1]),
        )
        .unwrap();
        assert_eq!(run.chunks.len(), 2);
        assert!(run.seed_points > 0);
        assert!(run.out.mesh.num_tets() > 50);
        let report = crate::integrity::audit_mesh(&run.out.shared, 42);
        assert!(report.clean(), "{}", report.summary());
        // the combined timeline carries the shard phases and the stitch's
        let names: Vec<&str> = run.out.phases.iter().map(|s| s.name).collect();
        for want in ["shard_split", "shard_chunk", "shard_stitch", "edt"] {
            assert!(names.contains(&want), "missing phase {want} in {names:?}");
        }
        assert_eq!(run.out.metrics.counter(metrics::SHARD_CHUNKS_MESHED), 2);
        assert!(run.out.metrics.counter(metrics::SHARD_SEED_VERTICES) > 0);
    }
}
