//! Liveness properties of the contention managers on the *real* threaded
//! engine (paper §5's correctness claims): the blocking CMs never deadlock
//! or livelock; runs terminate under heavy artificial contention.

use pi2m::image::phantoms;
use pi2m::refine::{CmKind, MesherConfig, MeshingSession};

/// A tiny image with a small surface forces many threads into the same
/// region — worst-case contention.
fn contended_cfg(cm: CmKind, threads: usize) -> MesherConfig {
    MesherConfig {
        delta: 1.2,
        threads,
        cm,
        livelock_timeout: 60.0,
        ..Default::default()
    }
}

#[test]
fn global_cm_terminates_under_contention() {
    let out = MeshingSession::new(8)
        .mesh(phantoms::sphere(12, 1.0), contended_cfg(CmKind::Global, 8))
        .unwrap_or_else(|e| panic!("Global-CM must not livelock (paper proof): {e}"));
    assert!(out.mesh.num_tets() > 100);
}

#[test]
fn local_cm_terminates_under_contention() {
    let out = MeshingSession::new(8)
        .mesh(phantoms::sphere(12, 1.0), contended_cfg(CmKind::Local, 8))
        .unwrap_or_else(|e| panic!("Local-CM must not livelock (paper Lemmas 1-2): {e}"));
    assert!(out.mesh.num_tets() > 100);
}

#[test]
fn local_cm_many_threads_all_make_progress() {
    let out = MeshingSession::new(12)
        .mesh(phantoms::sphere(16, 1.0), contended_cfg(CmKind::Local, 12))
        .unwrap();
    // no starvation: the engine terminated with every PEL drained, and the
    // aggregate op count matches a complete refinement
    assert!(out.stats.total_operations() > 100);
}

#[test]
fn overheads_are_accounted() {
    let out = MeshingSession::new(6)
        .mesh(phantoms::sphere(16, 1.0), contended_cfg(CmKind::Local, 6))
        .unwrap();
    let s = &out.stats;
    // overhead categories are finite, non-negative
    assert!(s.contention_overhead() >= 0.0);
    assert!(s.load_balance_overhead() >= 0.0);
    assert!(s.rollback_overhead() >= 0.0);
    // and bounded by total thread-time
    let budget = s.wall_time * s.threads() as f64;
    assert!(
        s.total_overhead() <= budget * 1.5,
        "overhead {} exceeds plausible budget {}",
        s.total_overhead(),
        budget
    );
}
