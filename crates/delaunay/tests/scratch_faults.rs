//! Scratch-arena safety under injected mid-operation panics.
//!
//! The kernel's per-worker arena travels out of the context for the
//! duration of each prepare phase (`mem::take`), so an unwind can strike in
//! two distinct regimes: *mid-phase* (the whole arena is out; unwinding
//! drops it and leaves a fresh default behind) and *between phases* (the
//! arena is parked back, but the prepared operation owns the buffers that
//! traveled into it — only those drop with the unwind). These tests drive
//! both through `pi2m-faults` panic sites and `catch_unwind`, mirroring the
//! refinement engine's recovery protocol (roll back held locks, continue on
//! the same context), and pin the exact re-allocation cost of each regime
//! via the scratch counters.

use pi2m_delaunay::{OpCtx, SharedMesh, VertexId, VertexKind};
use pi2m_faults::{sites, FaultPlan};
use pi2m_geometry::{Aabb, Point3};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn unit_mesh() -> SharedMesh {
    SharedMesh::with_box(Aabb::new(Point3::ORIGIN, Point3::new(1.0, 1.0, 1.0)))
}

fn faulted_ctx<'m>(mesh: &'m SharedMesh, spec: &str) -> OpCtx<'m> {
    let plan = FaultPlan::parse(7, spec).expect("valid fault spec");
    mesh.make_ctx_with_faults(0, Some(Arc::new(plan)))
}

fn points(n: usize, mut seed: u64) -> Vec<[f64; 3]> {
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed >> 11) as f64 / (1u64 << 53) as f64 * 0.9 + 0.05
    };
    (0..n).map(|_| [next(), next(), next()]).collect()
}

/// Engine-style recovery: roll back whatever the panicked operation still
/// holds, then keep using the same context.
fn recover(ctx: &mut OpCtx<'_>) {
    if ctx.locks_held() > 0 {
        ctx.abort();
    }
}

/// Panic *between* phases (commit site, locks held): recovery rolls the
/// operation back, nothing structural changed, and the only casualty is the
/// cavity buffer that traveled inside the dropped `PreparedInsert` — the
/// rest of the arena survives warm.
#[test]
fn commit_panic_preserves_warm_arena_and_rolls_back() {
    let mesh = unit_mesh();
    let spec = format!("site={},kind=panic,nth=31,count=1", sites::INSERT_COMMIT);
    let mut ctx = faulted_ctx(&mesh, &spec);

    let pts = points(51, 0xfeed);
    for p in &pts[..30] {
        let r = ctx
            .insert(*p, VertexKind::Circumcenter)
            .expect("warm insert");
        ctx.recycle_insert(r);
    }
    ctx.take_scratch_stats(); // drop the warm-up numbers

    let (nv, nc) = (mesh.num_vertices(), mesh.num_alive_cells());
    let hit = catch_unwind(AssertUnwindSafe(|| {
        ctx.insert(pts[30], VertexKind::Circumcenter)
    }));
    assert!(hit.is_err(), "injected commit panic did not fire");
    assert!(
        ctx.locks_held() > 0,
        "commit-site panic unwinds under locks"
    );
    recover(&mut ctx);

    assert_eq!(mesh.num_vertices(), nv, "rollback must undo the vertex");
    assert_eq!(mesh.num_alive_cells(), nc, "rollback must undo the cavity");

    for p in &pts[31..] {
        let r = ctx
            .insert(*p, VertexKind::Circumcenter)
            .expect("post-panic insert");
        ctx.recycle_insert(r);
    }
    // Four warmth notes per op (cavity, state map, and the created and
    // killed lists from the result-buffer pool). The panicked op contributed its two begin-notes before dying;
    // across the 20 follow-ups the only cold note is the cavity buffer that
    // was lost with the dropped PreparedInsert: 2 + 20×4 − 1 reuses.
    let st = ctx.take_scratch_stats();
    assert_eq!(st.allocs, 1, "only the traveling cavity buffer is lost");
    assert_eq!(st.reuses, 81, "the rest of the arena survives warm");
    mesh.check_delaunay_sos()
        .expect("mesh sound after recovery");
}

/// Panic *mid-phase* (locate, whole arena taken out of the context): the
/// unwind drops the traveling arena, the context is left holding a fresh
/// default one, and the very next operation re-allocates all three insert
/// buffers from scratch and proceeds normally.
#[test]
fn mid_phase_panic_leaves_fresh_usable_arena() {
    let mesh = unit_mesh();
    let spec = format!("site={},kind=panic,nth=31,count=1", sites::WALK_LOCATE);
    let mut ctx = faulted_ctx(&mesh, &spec);

    let pts = points(51, 0xbead);
    for p in &pts[..30] {
        let r = ctx
            .insert(*p, VertexKind::Circumcenter)
            .expect("warm insert");
        ctx.recycle_insert(r);
    }
    ctx.take_scratch_stats();

    let hit = catch_unwind(AssertUnwindSafe(|| {
        ctx.insert(pts[30], VertexKind::Circumcenter)
    }));
    assert!(hit.is_err(), "injected locate panic did not fire");
    recover(&mut ctx);

    for p in &pts[31..] {
        let r = ctx
            .insert(*p, VertexKind::Circumcenter)
            .expect("post-panic insert");
        ctx.recycle_insert(r);
    }
    // The panicked op's own notes died with the dropped arena (the counters
    // live inside it). First follow-up op: cavity, state map, created list
    // and killed list are all cold in the replacement; the other 19 ops run
    // fully warm at four notes each.
    let st = ctx.take_scratch_stats();
    assert_eq!(st.allocs, 4, "the replacement arena starts entirely cold");
    assert_eq!(st.reuses, 76, "the replacement arena is then reused");
    mesh.check_delaunay_sos()
        .expect("mesh sound after recovery");
}

/// The removal path has the same two-phase shape: a commit-site panic
/// unwinds under the full lock set, recovery aborts the prepared removal,
/// the victim vertex stays alive, and the *same* context immediately
/// retries the removal successfully on its preserved arena.
#[test]
fn remove_commit_panic_is_retryable_on_same_ctx() {
    let mesh = unit_mesh();
    let spec = format!("site={},kind=panic,nth=1,count=1", sites::REMOVE_COMMIT);
    let mut ctx = faulted_ctx(&mesh, &spec);

    let pts = points(40, 0xcafe);
    let mut victim = VertexId(u32::MAX);
    for (i, p) in pts.iter().enumerate() {
        let r = ctx.insert(*p, VertexKind::Circumcenter).expect("insert");
        if i == 20 {
            victim = r.vertex;
        }
        ctx.recycle_insert(r);
    }

    let hit = catch_unwind(AssertUnwindSafe(|| ctx.remove(victim)));
    assert!(hit.is_err(), "injected remove panic did not fire");
    assert!(
        ctx.locks_held() > 0,
        "remove-commit panic unwinds under locks"
    );
    recover(&mut ctx);
    assert!(
        mesh.vertex(victim).is_alive(),
        "aborted removal must leave the vertex alive"
    );

    ctx.take_scratch_stats();
    let r = ctx.remove(victim).expect("retry after recovery succeeds");
    ctx.recycle_remove(r);
    assert!(!mesh.vertex(victim).is_alive());
    // the ball buffer traveled inside the dropped PreparedRemove; the
    // open-face map and both pooled result lists are still warm from the
    // first attempt
    let st = ctx.take_scratch_stats();
    assert_eq!(st.allocs, 1, "only the traveling ball buffer is lost");
    assert_eq!(st.reuses, 3, "open-face map and result pools stay warm");
    mesh.check_delaunay_sos()
        .expect("mesh sound after retried removal");
}

/// Panic *mid-prepare* of a removal (a lock acquisition halfway through the
/// ball gather, whole arena taken out of the context): the unwind drops the
/// traveling arena and leaves a default one, recovery releases every lock
/// the half-gathered ball held, and the same context then removes the vertex
/// on the replacement arena.
#[test]
fn remove_mid_prepare_panic_leaves_default_arena_and_no_locks() {
    let mesh = unit_mesh();
    let mut victim = VertexId(u32::MAX);
    let warm = {
        let mut ctx = mesh.make_ctx(0);
        for (i, p) in points(40, 0xd1ce).iter().enumerate() {
            let r = ctx.insert(*p, VertexKind::Circumcenter).expect("insert");
            if i == 20 {
                victim = r.vertex;
            }
        }
        ctx.take_scratch()
    };
    // the 8th lock acquisition of this context falls inside the ball gather
    // (1 for the victim, 4 for the seed cell, 4 per further ball cell)
    let spec = format!("site={},kind=panic,nth=8,count=1", sites::LOCK_ACQUIRE);
    let mut ctx = faulted_ctx(&mesh, &spec);
    ctx.install_scratch(warm);
    assert!(ctx.scratch_footprint() > 0);

    let hit = catch_unwind(AssertUnwindSafe(|| ctx.remove(victim)));
    assert!(hit.is_err(), "injected mid-gather panic did not fire");
    assert!(ctx.locks_held() > 0, "the gather was holding locks");
    assert_eq!(
        ctx.scratch_footprint(),
        0,
        "the traveling arena must be replaced by a default one"
    );
    recover(&mut ctx);
    assert_eq!(ctx.locks_held(), 0);
    for v in 0..mesh.num_vertices() as u32 {
        assert_eq!(mesh.vertex(VertexId(v)).lock_owner(), None);
    }
    assert!(mesh.vertex(victim).is_alive());

    let r = ctx.remove(victim).expect("retry after recovery succeeds");
    ctx.recycle_remove(r);
    assert!(!mesh.vertex(victim).is_alive());
    mesh.check_delaunay_sos()
        .expect("mesh sound after retried removal");
}
