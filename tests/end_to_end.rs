//! End-to-end integration tests over the public `pi2m` facade: fidelity and
//! quality guarantees on multi-tissue phantoms, parallel stress, and
//! baseline comparability.

use pi2m::image::phantoms;
use pi2m::quality::{boundary_report, hausdorff_distance, mesh_quality};
use pi2m::refine::{BalancerKind, CmKind, MachineTopology, Mesher, MesherConfig, MeshingSession};

// Deliberately keeps exercising the one-shot `Mesher` wrapper: it must stay a
// faithful front for the staged pipeline (tests/session.rs covers the warm
// `MeshingSession` path).
fn run(img: pi2m::image::LabeledImage, delta: f64, threads: usize) -> pi2m::refine::MeshOutput {
    Mesher::new(
        img,
        MesherConfig {
            delta,
            threads,
            topology: MachineTopology::flat(threads),
            ..Default::default()
        },
    )
    .run()
}

#[test]
fn sphere_quality_and_fidelity_guarantees() {
    let out = run(phantoms::sphere(24, 1.0), 1.5, 2);
    assert!(!out.stats.livelock);
    let q = mesh_quality(&out.mesh);
    assert!(q.num_tets > 300, "{} tets", q.num_tets);
    // Paper: radius-edge ≤ 2 up to numerical error. Allow a thin tail.
    assert!(
        q.over_bound_fraction < 0.05,
        "too many elements over the radius-edge bound: {:.3}",
        q.over_bound_fraction
    );
    // Fidelity: Hausdorff within a few δ (Theorem 1: O(δ²) geometric error
    // but voxelized surfaces bound it by voxel scale).
    let tris = out.mesh.boundary_triangles();
    let hd = hausdorff_distance(&out.mesh.points, &tris, &out.oracle, 7);
    assert!(hd < 4.0, "Hausdorff {hd}");
    // Volume within 20% of the voxel volume.
    let v = out.mesh.volume();
    let vv = out.oracle.image().foreground_volume();
    assert!((v - vv).abs() / vv < 0.2, "volume {v} vs {vv}");
    // The boundary should be a (nearly) closed manifold surface. Theorem 1
    // guarantees topological correctness for δ well below the local feature
    // size; at δ = 1.5 on an 8.4-voxel-radius sphere the margin is thin, and
    // the 2-thread trajectory is scheduling-dependent, so tolerate ~1% of
    // pinched edges (observed range over many runs: 0–7 of ~600).
    let b = boundary_report(&out.mesh);
    assert!(
        b.non_manifold_edges <= 9,
        "{} non-manifold edges of {} triangles",
        b.non_manifold_edges,
        b.num_triangles
    );
}

/// The paper's two element bounds — radius-edge ≤ 2 everywhere, boundary
/// planar angles ≥ 30° — are what the rules refine until, whatever the
/// schedule: at T threads the last poor element is popped like at one.
#[test]
fn paper_bounds_hold_at_every_thread_count() {
    for threads in [1, 2, 4] {
        for (name, img, delta) in [
            ("sphere", phantoms::sphere(24, 1.0), 1.5),
            ("abdominal", phantoms::abdominal(1.5), 2.0),
        ] {
            let out = run(img, delta, threads);
            let worst = mesh_quality(&out.mesh).max_radius_edge;
            assert!(
                worst <= 2.0 + 1e-9,
                "{name} at {threads} threads: radius-edge {worst}"
            );
            let angle = boundary_report(&out.mesh).min_planar_angle_deg;
            assert!(
                angle >= 30.0 - 1e-9,
                "{name} at {threads} threads: boundary angle {angle}°"
            );
        }
    }
}

#[test]
fn multi_tissue_meshes_all_labels() {
    let out = run(phantoms::abdominal(1.0), 2.0, 2);
    let tissues = out.mesh.tissues();
    assert!(
        tissues.len() >= 5,
        "expected ≥5 tissues in the mesh, got {tissues:?}"
    );
    // every mesh tet labeled with a real tissue
    assert!(out.mesh.labels.iter().all(|&l| l != 0));
}

#[test]
fn torus_topology_is_preserved() {
    // single-threaded: deterministic mesh (multi-threaded schedules can
    // produce slightly different — still valid — meshes)
    let out = run(phantoms::torus(28, 1.0), 1.0, 1);
    let tris = out.mesh.boundary_triangles();
    let b = pi2m::quality::boundary_report(&out.mesh);
    assert_eq!(b.non_manifold_edges, 0, "torus boundary must be manifold");
    // Euler characteristic of a closed orientable genus-1 surface is 0:
    // V - E + F = 0.
    let mut verts = std::collections::HashSet::new();
    let mut edges = std::collections::HashSet::new();
    for t in &tris {
        for &v in t {
            verts.insert(v);
        }
        for k in 0..3 {
            let (a, b) = (t[k], t[(k + 1) % 3]);
            edges.insert((a.min(b), a.max(b)));
        }
    }
    let euler = verts.len() as i64 - edges.len() as i64 + tris.len() as i64;
    assert_eq!(euler, 0, "torus Euler characteristic (V-E+F) must be 0");
}

#[test]
fn oversubscribed_parallel_run_is_consistent() {
    // 8 threads on whatever cores exist: exercises real contention paths
    let out = run(phantoms::nested_spheres(20, 1.0), 1.5, 8);
    assert!(!out.stats.livelock);
    out.shared.check_adjacency().unwrap();
    out.shared.check_delaunay_sos().unwrap();
    let seq = run(phantoms::nested_spheres(20, 1.0), 1.5, 1);
    let (a, b) = (out.mesh.num_tets() as f64, seq.mesh.num_tets() as f64);
    assert!((a - b).abs() / b < 0.4, "8-thread {a} vs 1-thread {b}");
}

#[test]
fn every_cm_and_balancer_combination_terminates() {
    // All eight combinations run back-to-back over ONE warm session: the
    // contention manager and balancer are per-run state, so swapping them
    // between runs on a reused pool must be safe.
    let mut session = MeshingSession::new(3);
    for cm in [
        CmKind::Aggressive,
        CmKind::Random,
        CmKind::Global,
        CmKind::Local,
    ] {
        for bal in [BalancerKind::Rws, BalancerKind::Hws] {
            let out = session
                .mesh(
                    phantoms::sphere(14, 1.0),
                    MesherConfig {
                        delta: 2.5,
                        threads: 3,
                        cm,
                        balancer: bal,
                        topology: MachineTopology::flat(3),
                        ..Default::default()
                    },
                )
                .unwrap_or_else(|e| panic!("({cm:?},{bal:?}) failed: {e}"));
            assert!(
                out.mesh.num_tets() > 0,
                "({cm:?},{bal:?}) produced empty mesh"
            );
        }
    }
}

#[test]
fn disabling_removals_still_terminates() {
    let out = Mesher::new(
        phantoms::sphere(20, 1.0),
        MesherConfig {
            delta: 1.8,
            threads: 2,
            enable_removals: false,
            max_operations: 500_000,
            ..Default::default()
        },
    )
    .run();
    assert!(out.mesh.num_tets() > 100);
    assert_eq!(out.stats.total_removals(), 0);
}

#[test]
fn meshio_roundtrip_artifacts() {
    let out = run(phantoms::sphere(14, 1.0), 2.5, 1);
    let mut vtk = Vec::new();
    pi2m::meshio::write_vtk(&out.mesh, &mut vtk).unwrap();
    assert!(vtk.len() > 200);
    let mut off = Vec::new();
    pi2m::meshio::write_off(&out.mesh, &mut off).unwrap();
    assert!(String::from_utf8(off).unwrap().starts_with("OFF"));
}
