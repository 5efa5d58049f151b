//! Liveness properties of the contention manager on the *real* threaded
//! engine (paper §5's correctness claims): Local-CM never deadlocks or
//! livelocks; runs terminate under heavy artificial contention.

use pi2m::image::phantoms;
use pi2m::obs::Category;
use pi2m::refine::{MesherConfig, MeshingSession};

/// A tiny image with a small surface forces many threads into the same
/// region — worst-case contention.
fn contended_cfg(threads: usize) -> MesherConfig {
    MesherConfig {
        delta: 1.2,
        threads,
        livelock_timeout: 60.0,
        ..Default::default()
    }
}

#[test]
fn local_cm_terminates_under_contention() {
    let out = MeshingSession::new(8)
        .mesh(phantoms::sphere(12, 1.0), contended_cfg(8))
        .unwrap_or_else(|e| panic!("Local-CM must not livelock (paper Lemmas 1-2): {e}"));
    assert!(out.mesh.num_tets() > 100);
}

#[test]
fn local_cm_many_threads_all_make_progress() {
    let out = MeshingSession::new(12)
        .mesh(phantoms::sphere(16, 1.0), contended_cfg(12))
        .unwrap();
    // no starvation: the engine terminated with every PEL drained, and the
    // aggregate op count matches a complete refinement
    assert!(out.stats.total_operations() > 100);
}

#[test]
fn overheads_are_accounted() {
    let out = MeshingSession::new(6)
        .mesh(phantoms::sphere(16, 1.0), contended_cfg(6))
        .unwrap();
    let a = &out.attribution;
    assert_eq!(a.per_worker.len(), 6);
    for w in &a.per_worker {
        // every bucket is finite and non-negative...
        for cat in Category::ALL {
            let v = w.get(cat);
            assert!(v.is_finite() && v >= 0.0, "worker {} {cat:?} = {v}", w.tid);
        }
        // ...and the buckets account for the wall, no more and no less
        assert!(
            (w.total_s() - a.wall_s).abs() <= 0.02 * a.wall_s,
            "worker {} buckets sum to {} s, wall {} s",
            w.tid,
            w.total_s(),
            a.wall_s
        );
    }
}
