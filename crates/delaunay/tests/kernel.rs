//! Kernel-level integration tests: a from-scratch differential for the
//! removal hole filler (remove `p` from `S` ≡ build `S ∖ {p}`), randomized
//! insert/remove soak tests, and genuinely concurrent stress runs
//! (oversubscribed threads with rollback-retry).

use pi2m_delaunay::{OpError, SharedMesh, VertexId, VertexKind};
use pi2m_geometry::{Aabb, Point3};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn unit_mesh() -> SharedMesh {
    SharedMesh::with_box(Aabb::new(Point3::ORIGIN, Point3::new(1.0, 1.0, 1.0)))
}

fn full_checks(m: &SharedMesh) {
    m.check_adjacency().unwrap();
    m.check_orientation().unwrap();
    m.check_delaunay_sos().unwrap();
}

/// Build the triangulation of `pts` (in order) and return the vertex ids.
fn build(pts: &[[f64; 3]]) -> (SharedMesh, Vec<VertexId>) {
    let m = unit_mesh();
    let mut ctx = m.make_ctx(0);
    let ids = pts
        .iter()
        .map(|&p| ctx.insert(p, VertexKind::Circumcenter).unwrap().vertex)
        .collect();
    drop(ctx);
    (m, ids)
}

/// The alive cells as sorted quadruples of vertex positions (bit patterns),
/// sorted — a canonical form independent of vertex and cell ids.
fn cells_by_position(m: &SharedMesh) -> Vec<[[u64; 3]; 4]> {
    let mut cells: Vec<[[u64; 3]; 4]> = m
        .alive_cells()
        .map(|c| {
            let mut q = m.cell(c).verts().map(|v| m.pos3(v).map(f64::to_bits));
            q.sort_unstable();
            q
        })
        .collect();
    cells.sort_unstable();
    cells
}

/// Does some face of `v`'s link lie on the box hull?
fn link_touches_hull(m: &SharedMesh, v: VertexId) -> bool {
    m.alive_cells().any(|c| {
        let cell = m.cell(c);
        cell.index_of(v).is_some_and(|i| cell.nei(i).is_none())
    })
}

/// The differential: removing `pts[victim]` from the triangulation of `pts`
/// must leave exactly the triangulation of the other points inserted from
/// scratch in the same relative order (same relative SoS keys, so the same
/// unique SoS-Delaunay triangulation), and a structurally sound mesh.
fn assert_removal_matches_scratch(pts: &[[f64; 3]], victim: usize, what: &str) {
    let (m, ids) = build(pts);
    let mut ctx = m.make_ctx(0);
    let r = ctx
        .remove(ids[victim])
        .unwrap_or_else(|e| panic!("{what}: removing point {victim} failed: {e:?}"));
    assert_eq!(r.removed, ids[victim]);
    drop(ctx);
    full_checks(&m);
    assert!((m.total_volume() - 1.0).abs() < 1e-9, "{what}: volume");

    let mut rest = pts.to_vec();
    rest.remove(victim);
    let (scratch, _) = build(&rest);
    assert!(
        cells_by_position(&m) == cells_by_position(&scratch),
        "{what}: removal of point {victim} differs from the from-scratch triangulation"
    );
}

fn random_points(rng: &mut ChaCha8Rng, n: usize) -> Vec<[f64; 3]> {
    (0..n)
        .map(|_| {
            [
                rng.gen_range(0.05..0.95),
                rng.gen_range(0.05..0.95),
                rng.gen_range(0.05..0.95),
            ]
        })
        .collect()
}

/// A shuffled n×n×n lattice with binary-exact coordinates strictly inside
/// the unit box: every lattice cube is eight exactly cospherical points.
fn shuffled_lattice(rng: &mut ChaCha8Rng, n: usize) -> Vec<[f64; 3]> {
    let at = |i: usize| (2 * i + 1) as f64 / (2 * n) as f64;
    let mut pts = Vec::new();
    for x in 0..n {
        for y in 0..n {
            for z in 0..n {
                pts.push([at(x), at(y), at(z)]);
            }
        }
    }
    for i in (1..pts.len()).rev() {
        pts.swap(i, rng.gen_range(0..=i));
    }
    pts
}

#[test]
fn removal_matches_scratch_generic() {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    for round in 0..4 {
        let pts = random_points(&mut rng, 40);
        for victim in 0..pts.len() {
            assert_removal_matches_scratch(&pts, victim, &format!("generic round {round}"));
        }
    }
}

#[test]
fn removal_matches_scratch_on_lattice() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let pts = shuffled_lattice(&mut rng, 4);
    for victim in 0..pts.len() {
        assert_removal_matches_scratch(&pts, victim, "4x4x4 lattice");
    }
}

#[test]
fn removal_matches_scratch_at_circumcenter() {
    // (a) the exact case: the center of a lattice cube is equidistant from
    // its eight corners, so every fill cell of its ball is an SoS tie
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut pts = shuffled_lattice(&mut rng, 4);
    pts.push([0.5, 0.5, 0.5]);
    pts.push([0.25, 0.5, 0.75]);
    assert_removal_matches_scratch(&pts, pts.len() - 1, "cube center");
    assert_removal_matches_scratch(&pts, pts.len() - 2, "cube center under a later vertex");

    // (b) the R4/R5 case: the computed circumcenter of an existing cell —
    // four link vertices equidistant up to rounding, where the semi-static
    // filter gives up and the exact stages decide
    for round in 0..6 {
        let mut pts = random_points(&mut rng, 30);
        let (m, _) = build(&pts);
        let cc = m
            .alive_cells()
            .filter_map(|c| {
                let q = m.cell_points(c);
                pi2m_geometry::circumcenter(q[0], q[1], q[2], q[3])
            })
            .find(|cc| {
                let c = cc.to_array();
                c.iter().all(|&x| (0.05..0.95).contains(&x)) && !pts.contains(&c)
            })
            .expect("an interior circumcenter")
            .to_array();
        pts.push(cc);
        let what = format!("circumcenter round {round}");
        assert_removal_matches_scratch(&pts, pts.len() - 1, &what);
    }
}

#[test]
fn removal_matches_scratch_for_high_degree_vertex() {
    // a hub with every point of a surrounding sphere in its link; the sphere
    // points are cospherical up to rounding, so the fill is decided by
    // near-ties throughout
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let hub = [0.5, 0.5, 0.5];
    let mut pts = vec![hub];
    while pts.len() < 161 {
        let d: [f64; 3] = [
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        ];
        let len = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        if (0.1..1.0).contains(&len) {
            pts.push([0, 1, 2].map(|a| hub[a] + 0.3 * d[a] / len));
        }
    }
    let (m, ids) = build(&pts);
    let degree = m
        .alive_cells()
        .filter(|&c| m.cell(c).has_vertex(ids[0]))
        .count();
    assert!(degree >= 200, "hub ball has only {degree} cells");
    assert_removal_matches_scratch(&pts, 0, "high-degree hub");
}

#[test]
fn removal_matches_scratch_when_link_touches_hull() {
    // a lone vertex: its link is the whole box hull
    assert_removal_matches_scratch(&[[0.3, 0.6, 0.4]], 0, "lone vertex");
    // sparse sets: most links still reach the hull
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let mut on_hull = 0;
    for round in 0..10 {
        let pts = random_points(&mut rng, 6);
        let (m, ids) = build(&pts);
        for (victim, &v) in ids.iter().enumerate() {
            on_hull += link_touches_hull(&m, v) as usize;
            assert_removal_matches_scratch(&pts, victim, &format!("sparse round {round}"));
        }
    }
    assert!(on_hull >= 30, "only {on_hull} of 60 links touched the hull");
}

#[test]
fn insert_for_drops_the_remedy_of_a_dead_cell() {
    let (m, _) = build(&[[0.3, 0.3, 0.3], [0.7, 0.4, 0.5], [0.5, 0.8, 0.6]]);
    let mut ctx = m.make_ctx(0);
    let poor = ctx.locate_readonly([0.5, 0.5, 0.5]).unwrap();
    let gen = m.cell(poor).gen();
    // the cell is alive: its remedy goes in, and kills it
    let r = ctx
        .insert_for([0.5, 0.5, 0.5], VertexKind::Circumcenter, poor, gen)
        .unwrap();
    assert!(r.killed.contains(&poor));
    ctx.recycle_insert(r);
    // a second remedy computed for the same (cell, generation) is stale,
    // whether the slot is free or already reused: nothing happens
    let before = cells_by_position(&m);
    assert_eq!(
        ctx.insert_for([0.52, 0.5, 0.5], VertexKind::Circumcenter, poor, gen),
        Err(OpError::Stale)
    );
    assert_eq!(ctx.locks_held(), 0);
    assert_eq!(cells_by_position(&m), before);
    full_checks(&m);
}

#[test]
fn soak_insert_remove_random() {
    let m = unit_mesh();
    let mut ctx = m.make_ctx(0);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut live: Vec<VertexId> = Vec::new();
    let mut removals = 0usize;
    for step in 0..600 {
        let do_remove = !live.is_empty() && rng.gen_bool(0.3);
        if do_remove {
            let i = rng.gen_range(0..live.len());
            let v = live.swap_remove(i);
            match ctx.remove(v) {
                Ok(_) => removals += 1,
                Err(OpError::RemovalBlocked) | Err(OpError::Degenerate) => {}
                Err(e) => panic!("step {step}: {e:?}"),
            }
        } else {
            let p = [
                rng.gen_range(0.02..0.98),
                rng.gen_range(0.02..0.98),
                rng.gen_range(0.02..0.98),
            ];
            match ctx.insert(p, VertexKind::Circumcenter) {
                Ok(r) => live.push(r.vertex),
                Err(OpError::Duplicate(_)) => {}
                Err(e) => panic!("step {step}: {e:?}"),
            }
        }
    }
    assert!(removals > 50, "only {removals} removals succeeded");
    full_checks(&m);
    assert!((m.total_volume() - 1.0).abs() < 1e-9);
}

#[test]
fn removals_never_blocked_with_sos() {
    let m = unit_mesh();
    let mut ctx = m.make_ctx(0);
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let mut vs = Vec::new();
    for _ in 0..150 {
        let p = [
            rng.gen_range(0.05..0.95),
            rng.gen_range(0.05..0.95),
            rng.gen_range(0.05..0.95),
        ];
        vs.push(ctx.insert(p, VertexKind::Circumcenter).unwrap().vertex);
    }
    let mut blocked = 0;
    for v in vs {
        if matches!(ctx.remove(v), Err(OpError::RemovalBlocked)) {
            blocked += 1;
        }
    }
    // The hole filler has no legitimate way to fail: the SoS-Delaunay
    // triangulation of the remaining vertices exists and is unique.
    assert_eq!(blocked, 0, "{blocked}/150 removals blocked");
    assert_eq!(m.num_alive_cells(), 6);
    // removing every inserted vertex restores the initial box subdivision
    full_checks(&m);
}

#[test]
fn concurrent_insertions_stress() {
    let m = Arc::new(SharedMesh::with_box(Aabb::new(
        Point3::ORIGIN,
        Point3::new(1.0, 1.0, 1.0),
    )));
    let threads = 8usize;
    let per_thread = 150usize;
    let conflicts = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        for t in 0..threads {
            let m = Arc::clone(&m);
            let conflicts = Arc::clone(&conflicts);
            s.spawn(move || {
                let mut ctx = m.make_ctx(t as u32);
                let mut rng = ChaCha8Rng::seed_from_u64(1000 + t as u64);
                let mut done = 0;
                while done < per_thread {
                    let p = [
                        rng.gen_range(0.01..0.99),
                        rng.gen_range(0.01..0.99),
                        rng.gen_range(0.01..0.99),
                    ];
                    match ctx.insert(p, VertexKind::Circumcenter) {
                        Ok(_) => done += 1,
                        Err(OpError::Conflict { .. }) => {
                            conflicts.fetch_add(1, Ordering::Relaxed);
                            std::hint::spin_loop();
                        }
                        Err(OpError::Duplicate(_)) => done += 1,
                        Err(e) => panic!("thread {t}: {e:?}"),
                    }
                }
            });
        }
    });
    assert_eq!(m.num_vertices(), 8 + threads * per_thread);
    full_checks(&m);
    assert!((m.total_volume() - 1.0).abs() < 1e-9);
}

#[test]
fn concurrent_insert_and_remove_stress() {
    let m = Arc::new(SharedMesh::with_box(Aabb::new(
        Point3::ORIGIN,
        Point3::new(1.0, 1.0, 1.0),
    )));
    let threads = 6usize;
    std::thread::scope(|s| {
        for t in 0..threads {
            let m = Arc::clone(&m);
            s.spawn(move || {
                let mut ctx = m.make_ctx(t as u32);
                let mut rng = ChaCha8Rng::seed_from_u64(31 * (t as u64 + 1));
                let mut mine: Vec<VertexId> = Vec::new();
                let mut ops = 0;
                while ops < 200 {
                    if !mine.is_empty() && rng.gen_bool(0.25) {
                        let i = rng.gen_range(0..mine.len());
                        let v = mine.swap_remove(i);
                        match ctx.remove(v) {
                            Ok(_) => ops += 1,
                            Err(OpError::Conflict { .. }) => {
                                mine.push(v); // retry later
                            }
                            Err(_) => ops += 1, // blocked/degenerate: skip
                        }
                    } else {
                        let p = [
                            rng.gen_range(0.01..0.99),
                            rng.gen_range(0.01..0.99),
                            rng.gen_range(0.01..0.99),
                        ];
                        match ctx.insert(p, VertexKind::Circumcenter) {
                            Ok(r) => {
                                mine.push(r.vertex);
                                ops += 1;
                            }
                            Err(OpError::Conflict { .. }) => {}
                            Err(_) => ops += 1,
                        }
                    }
                }
            });
        }
    });
    full_checks(&m);
    assert!((m.total_volume() - 1.0).abs() < 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn delaunay_invariant_random_sequences(
        seed in 0u64..10_000,
        n_ins in 20usize..80,
        remove_frac in 0.0f64..0.6,
    ) {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut vs = Vec::new();
        for _ in 0..n_ins {
            let p = [
                rng.gen_range(0.01..0.99),
                rng.gen_range(0.01..0.99),
                rng.gen_range(0.01..0.99),
            ];
            if let Ok(r) = ctx.insert(p, VertexKind::Circumcenter) {
                vs.push(r.vertex);
            }
        }
        for v in vs {
            if rng.gen_bool(remove_frac) {
                let _ = ctx.remove(v);
            }
        }
        prop_assert!(m.check_adjacency().is_ok());
        prop_assert!(m.check_delaunay_sos().is_ok());
        prop_assert!((m.total_volume() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn grid_subset_sequences(seed in 0u64..1000) {
        // exact-degenerate workload: points on a 5x5x5 lattice inserted in a
        // random order with random removals
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pts: Vec<[f64;3]> = Vec::new();
        for x in 1..5 {
            for y in 1..5 {
                for z in 1..5 {
                    pts.push([x as f64/5.0, y as f64/5.0, z as f64/5.0]);
                }
            }
        }
        for i in (1..pts.len()).rev() {
            let j = rng.gen_range(0..=i);
            pts.swap(i, j);
        }
        let mut vs = Vec::new();
        for p in pts.into_iter().take(40) {
            match ctx.insert(p, VertexKind::Circumcenter) {
                Ok(r) => vs.push(r.vertex),
                Err(OpError::Degenerate) | Err(OpError::Duplicate(_)) => {}
                Err(e) => prop_assert!(false, "insert failed: {e:?}"),
            }
        }
        for v in vs.into_iter().step_by(3) {
            let r = ctx.remove(v);
            prop_assert!(
                !matches!(r, Err(OpError::Conflict{..})),
                "single-threaded conflict is impossible"
            );
        }
        prop_assert!(m.check_adjacency().is_ok());
        prop_assert!(m.check_delaunay_sos().is_ok());
        prop_assert!((m.total_volume() - 1.0).abs() < 1e-9);
    }
}
