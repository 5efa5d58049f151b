//! The sharded-meshing differential harness: sharded runs must be
//! *behaviorally equivalent* to monolithic ones, not merely plausible.
//!
//! - Differential tests mesh seeded phantoms monolithically and sharded
//!   (2×1×1, 2×2×1, 2×2×2) and assert per-label volume agreement within
//!   0.5% relative, identical (clean) audit verdicts, and element-quality
//!   statistics within the same bounds.
//! - Property/fuzz tests drive the splitter over random dims × grids ×
//!   halos: accepted plans must tile exactly, rejected ones must match a
//!   typed degeneracy.
//! - A seam-determinism test pins the stitched mesh across lane fan-outs,
//!   and a fault drill kills a worker mid-stitch at the `shard.stitch`
//!   site and proves the session survives.

use pi2m::image::phantoms;
use pi2m::quality::mesh_quality;
use pi2m::refine::{
    audit_mesh, mesh_sharded, split_plan, MachineTopology, MesherConfig, MeshingSession,
    ShardError, ShardSpec,
};
use std::sync::Arc;

fn cfg(delta: f64, threads: usize) -> MesherConfig {
    MesherConfig {
        delta,
        threads,
        topology: MachineTopology::flat(threads),
        ..Default::default()
    }
}

/// Mesh `img` monolithically and sharded over `grid` on one warm session
/// (single-threaded: both trajectories are deterministic, so the asserted
/// margins are exact, not statistical) and hold the pair to the differential
/// contract.
fn differential(name: &str, img: pi2m::image::LabeledImage, delta: f64, grid: [usize; 3]) {
    let mut session = MeshingSession::new(1);
    let mono = session.mesh(img.clone(), cfg(delta, 1)).unwrap();
    let shard = mesh_sharded(
        &mut session,
        img,
        cfg(delta, 1),
        &Default::default(),
        &ShardSpec::new(grid),
    )
    .unwrap();
    assert_eq!(
        shard.chunks.len(),
        grid[0] * grid[1] * grid[2],
        "{name}: wrong chunk count"
    );
    assert!(shard.seed_points > 0, "{name}: empty stitch seed");

    // Identical audit verdicts: a sharded mesh is held to the exact
    // adjacency/orientation/Delaunay/volume invariants as a monolithic one.
    let mono_audit = audit_mesh(&mono.shared, 42);
    let shard_audit = audit_mesh(&shard.out.shared, 42);
    assert!(mono_audit.clean(), "{name} mono:\n{}", mono_audit.summary());
    assert!(
        shard_audit.clean(),
        "{name} sharded:\n{}",
        shard_audit.summary()
    );

    // Per-label volume agreement within 0.5% relative — same labels, and
    // every label's volume within tolerance.
    let mv = mono.mesh.label_volumes();
    let sv = shard.out.mesh.label_volumes();
    assert_eq!(
        mv.iter().map(|&(l, _)| l).collect::<Vec<_>>(),
        sv.iter().map(|&(l, _)| l).collect::<Vec<_>>(),
        "{name}: label sets diverged"
    );
    for (&(label, v), &(_, w)) in mv.iter().zip(&sv) {
        let rel = (v - w).abs() / v;
        assert!(
            rel <= 0.005,
            "{name} label {label}: monolithic {v:.2} vs sharded {w:.2} ({:.3}% off)",
            rel * 100.0
        );
    }

    // Quality statistics within the same bounds on both sides: the paper's
    // radius-edge guarantee (≤2 up to a thin numerical tail) must survive
    // stitching, and the aggregate histogram must not drift.
    let mq = mesh_quality(&mono.mesh);
    let sq = mesh_quality(&shard.out.mesh);
    for (side, q) in [("monolithic", &mq), ("sharded", &sq)] {
        assert!(q.num_tets > 300, "{name} {side}: only {} tets", q.num_tets);
        assert!(
            q.over_bound_fraction < 0.05,
            "{name} {side}: {:.3} of elements over the radius-edge bound",
            q.over_bound_fraction
        );
    }
    assert!(
        (mq.mean_radius_edge - sq.mean_radius_edge).abs() < 0.25,
        "{name}: mean radius-edge drifted ({:.3} monolithic vs {:.3} sharded)",
        mq.mean_radius_edge,
        sq.mean_radius_edge
    );
}

#[test]
fn differential_sphere_2x1x1() {
    differential("sphere", phantoms::sphere(40, 1.0), 1.0, [2, 1, 1]);
}

#[test]
fn differential_nested_spheres_2x2x1() {
    // Interior multi-material interface crossing the seam planes.
    differential("nested", phantoms::nested_spheres(40, 1.0), 0.8, [2, 2, 1]);
}

#[test]
fn differential_torus_2x2x2() {
    // Genus-1 surface cut by all three seam planes at once.
    differential("torus", phantoms::torus(48, 1.0), 0.8, [2, 2, 2]);
}

#[test]
fn large_phantom_2x2x2_completes_within_ci_budget() {
    // The multi-tissue phantom sharded 2×2×2: the stitch has only the seams
    // to repair, so the stitched mesh must come out about the size of the
    // monolithic one. A stitch that re-refines the chunks' interiors (what
    // an oracle does whose answer for a segment depends on the direction it
    // is asked in) multiplies the count and fails here.
    let img = phantoms::abdominal(1.5);
    let mut session = MeshingSession::new(2);
    let mono = session.mesh(img.clone(), cfg(1.5, 2)).unwrap();
    let run = mesh_sharded(
        &mut session,
        img,
        cfg(1.5, 2),
        &Default::default(),
        &ShardSpec::new([2, 2, 2]),
    )
    .unwrap();
    let (sharded, monolithic) = (run.out.mesh.num_tets(), mono.mesh.num_tets());
    assert!(
        sharded.abs_diff(monolithic) * 4 <= monolithic,
        "{sharded} sharded tets vs {monolithic} monolithic"
    );
    let tissues: std::collections::HashSet<_> = run.out.mesh.labels.iter().copied().collect();
    assert!(tissues.len() >= 5, "expected ≥5 tissues, got {tissues:?}");
    let audit = audit_mesh(&run.out.shared, 42);
    assert!(audit.clean(), "large sharded run:\n{}", audit.summary());
}

#[test]
fn stitched_knee_leaves_no_element_over_the_radius_edge_bound() {
    // A surface-center need not kill the cell it was computed for (it lies on
    // a Voronoi edge that runs on into the neighbour's circumball). On this
    // stitch one such cell also broke the radius-edge bound, which R3 shadows
    // until it is asked again: the cell must go back on the PEL, or it ends
    // the run at 2.70.
    let mut session = MeshingSession::new(1);
    let run = mesh_sharded(
        &mut session,
        phantoms::knee(1.0),
        cfg(1.0, 1),
        &Default::default(),
        &ShardSpec::new([2, 1, 1]),
    )
    .unwrap();
    let q = mesh_quality(&run.out.mesh);
    assert!(
        q.max_radius_edge <= 2.0,
        "radius-edge {}",
        q.max_radius_edge
    );
}

// ---------------------------------------------------------------------------
// Splitter property/fuzz tests
// ---------------------------------------------------------------------------

/// xorshift64*: deterministic, dependency-free fuzz driver.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

#[test]
fn splitter_fuzz_random_grids_tile_exactly() {
    let mut rng = 0x5eed_cafe_f00d_beefu64;
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for round in 0..400 {
        let mut dims = [0usize; 3];
        let mut grid = [0usize; 3];
        for a in 0..3 {
            dims[a] = 1 + (xorshift(&mut rng) % 24) as usize;
            grid[a] = 1 + (xorshift(&mut rng) % 5) as usize;
        }
        let halo = (xorshift(&mut rng) % 5) as usize;
        // The degeneracy predicates the splitter documents, recomputed
        // independently of its code.
        let degenerate =
            (0..3).any(|a| grid[a] > dims[a] || (grid[a] > 1 && halo >= dims[a] / grid[a]));
        match split_plan(dims, grid, halo) {
            Ok(plan) => {
                assert!(
                    !degenerate,
                    "round {round}: {dims:?}/{grid:?}/halo {halo} accepted but degenerate"
                );
                assert_eq!(plan.len(), grid[0] * grid[1] * grid[2]);
                // Every voxel owned by exactly one core; every view in
                // bounds, non-empty, and exactly the core ± clamped halo.
                let mut owned = vec![0u8; dims[0] * dims[1] * dims[2]];
                for (n, c) in plan.iter().enumerate() {
                    // x-fastest emission order
                    let expect = [
                        n % grid[0],
                        (n / grid[0]) % grid[1],
                        n / (grid[0] * grid[1]),
                    ];
                    assert_eq!(c.index, expect, "round {round}: chunk order");
                    for (a, &dim) in dims.iter().enumerate() {
                        assert!(c.core_lo[a] < c.core_hi[a], "round {round}: empty core");
                        assert_eq!(c.lo[a], c.core_lo[a].saturating_sub(halo));
                        assert_eq!(c.hi[a], (c.core_hi[a] + halo).min(dim));
                    }
                    for k in c.core_lo[2]..c.core_hi[2] {
                        for j in c.core_lo[1]..c.core_hi[1] {
                            for i in c.core_lo[0]..c.core_hi[0] {
                                owned[(k * dims[1] + j) * dims[0] + i] += 1;
                            }
                        }
                    }
                }
                assert!(
                    owned.iter().all(|&n| n == 1),
                    "round {round}: {dims:?}/{grid:?} does not tile exactly"
                );
                accepted += 1;
            }
            Err(e) => {
                // A rejection must carry a typed degeneracy that actually
                // holds for the rejected request.
                match e {
                    ShardError::GridExceedsDim { axis, shards, dim } => {
                        assert_eq!((shards, dim), (grid[axis], dims[axis]));
                        assert!(shards > dim);
                    }
                    ShardError::HaloTooWide {
                        axis,
                        halo: h,
                        chunk,
                    } => {
                        assert_eq!(h, halo);
                        assert_eq!(chunk, dims[axis] / grid[axis]);
                        assert!(grid[axis] > 1 && h >= chunk);
                    }
                    other => panic!("round {round}: unexpected error {other:?}"),
                }
                assert!(degenerate, "round {round}: spurious rejection");
                rejected += 1;
            }
        }
    }
    // The generator must actually exercise both arms.
    assert!(accepted > 50, "only {accepted} accepted plans");
    assert!(rejected > 50, "only {rejected} rejected plans");
}

#[test]
fn splitter_degenerates_are_typed_errors() {
    assert_eq!(
        split_plan([8, 8, 8], [0, 1, 1], 0),
        Err(ShardError::EmptyAxis { axis: 0 })
    );
    assert_eq!(
        split_plan([8, 8, 8], [1, 9, 1], 0),
        Err(ShardError::GridExceedsDim {
            axis: 1,
            shards: 9,
            dim: 8
        })
    );
    // halo == narrowest core: the halo would swallow the neighbor's core
    assert_eq!(
        split_plan([8, 8, 8], [1, 1, 2], 4),
        Err(ShardError::HaloTooWide {
            axis: 2,
            halo: 4,
            chunk: 4
        })
    );
    // mesh_sharded surfaces the same typed error through its Result
    let mut session = MeshingSession::new(1);
    let result = mesh_sharded(
        &mut session,
        phantoms::sphere(8, 1.0),
        cfg(2.0, 1),
        &Default::default(),
        &ShardSpec {
            grid: [9, 1, 1],
            halo: Some(0),
            lanes: None,
        },
    );
    match result {
        Err(ShardError::GridExceedsDim { .. }) => {}
        Err(other) => panic!("wrong error: {other:?}"),
        Ok(_) => panic!("degenerate plan was accepted"),
    }
}

// ---------------------------------------------------------------------------
// Seam determinism and the mid-stitch fault drill
// ---------------------------------------------------------------------------

#[test]
fn stitched_mesh_is_identical_across_lane_fanouts() {
    // Chunks are meshed single-threaded by contract, so the lane count is
    // pure fan-out: 1 lane vs 8 lanes over a 2×2×2 plan must produce the
    // bit-identical stitched mesh (same pattern as the schedule-independence
    // tests in tests/session.rs, lifted to the sharded path).
    let run_with = |lanes: usize| {
        let mut session = MeshingSession::new(1);
        mesh_sharded(
            &mut session,
            phantoms::sphere(28, 1.0),
            cfg(1.5, 1),
            &Default::default(),
            &ShardSpec {
                grid: [2, 2, 2],
                halo: None,
                lanes: Some(lanes),
            },
        )
        .unwrap()
    };
    let a = run_with(1);
    let b = run_with(8);
    assert_eq!(a.lanes, 1);
    assert_eq!(b.lanes, 8);
    assert_eq!(a.out.mesh.points, b.out.mesh.points, "vertex sets diverged");
    assert_eq!(a.out.mesh.tets, b.out.mesh.tets, "topologies diverged");
    assert_eq!(a.out.mesh.labels, b.out.mesh.labels, "labels diverged");
    assert!(a.out.mesh.num_tets() > 100);
}

#[test]
fn mid_stitch_worker_death_leaves_session_reusable() {
    // Kill one stitch worker at the dedicated `shard.stitch` site (it only
    // fires during the stitch pass, never in the surrounding chunk runs).
    // The run must still complete, report the death, and leave the warm
    // session fit for the next — sharded or monolithic — run.
    let plan =
        pi2m::faults::FaultPlan::parse(9, "site=shard.stitch,kind=panic,nth=3,count=1").unwrap();
    let mut session = MeshingSession::new(2);
    let mut faulty = cfg(1.5, 2);
    faulty.faults = Some(Arc::new(plan));
    let run = mesh_sharded(
        &mut session,
        phantoms::sphere(20, 1.0),
        faulty,
        &Default::default(),
        &ShardSpec::new([2, 1, 1]),
    )
    .unwrap();
    assert_eq!(
        run.out.stats.workers_died, 1,
        "expected exactly the injected death"
    );
    let audit = audit_mesh(&run.out.shared, 42);
    assert!(audit.clean(), "post-death mesh:\n{}", audit.summary());

    // The session survives: a clean monolithic run and a clean sharded run
    // right after, on the same warm pool.
    let again = session
        .mesh(phantoms::sphere(20, 1.0), cfg(1.5, 2))
        .unwrap();
    assert_eq!(again.stats.workers_died, 0);
    let audit = audit_mesh(&again.shared, 42);
    assert!(audit.clean(), "post-drill mono run:\n{}", audit.summary());
    let again = mesh_sharded(
        &mut session,
        phantoms::sphere(20, 1.0),
        cfg(1.5, 2),
        &Default::default(),
        &ShardSpec::new([2, 1, 1]),
    )
    .unwrap();
    assert_eq!(again.out.stats.workers_died, 0);
}
