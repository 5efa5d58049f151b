//! A concurrent uniform spatial hash grid over refinement vertices.
//!
//! Rule R1 needs "is there an isosurface vertex within δ of z?"; rule R6
//! needs "which circumcenter vertices lie within 2δ of z?". Both are
//! answered by this grid, keyed at cell size δ. Entries are never physically
//! removed (removed vertices are filtered by their alive flag at query
//! time), so a bucket is an append-only singly linked list: an atomic head
//! index into a pool of 8-byte nodes, each holding the vertex id and the
//! index of the next node. A node keeps no position: a query reads it from
//! the vertex record it reads anyway for the alive flag and the kind. An
//! insert writes its node and publishes it with one compare-and-swap on the
//! bucket head; a query loads the head and follows `next`. Neither takes a
//! lock, and a query writes nothing at all.

use pi2m_delaunay::pool::Pool;
use pi2m_delaunay::{SharedMesh, VertexId, VertexKind};
use pi2m_geometry::Point3;
use std::sync::atomic::{AtomicU32, Ordering};

const BUCKETS: usize = 1 << 15;
/// End-of-list / empty-bucket marker.
const NIL: u32 = u32::MAX;

/// One grid entry. Both fields are written once, before the node is
/// published through its bucket head, and not again until
/// [`PointGrid::reset`] (which holds `&mut`), so relaxed accesses suffice.
/// The vertex's position, kind and alive flag are its record's, in the
/// mesh: the kernel writes the position once, before the vertex reaches
/// the grid, and the head's release/acquire pair carries it to a reader.
#[derive(Default)]
struct Node {
    vertex: AtomicU32,
    next: AtomicU32,
}

/// Lock-free spatial hash over vertex positions.
pub struct PointGrid {
    cell: f64,
    /// Per bucket, the index of its most recently inserted node.
    heads: Box<[AtomicU32]>,
    /// The nodes, segments allocated as they fill; a warm session keeps
    /// them across runs.
    nodes: Pool<Node>,
}

impl PointGrid {
    /// Build a grid with spatial cell size `cell` (use δ).
    pub fn new(cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite());
        PointGrid {
            cell,
            heads: (0..BUCKETS).map(|_| AtomicU32::new(NIL)).collect(),
            nodes: Pool::new(),
        }
    }

    #[inline]
    fn cell_of(&self, p: [f64; 3]) -> [i64; 3] {
        [
            (p[0] / self.cell).floor() as i64,
            (p[1] / self.cell).floor() as i64,
            (p[2] / self.cell).floor() as i64,
        ]
    }

    #[inline]
    fn bucket(&self, c: [i64; 3]) -> usize {
        // Fx-style integer mix
        let mut h = 0u64;
        for v in c {
            h = (h.rotate_left(5) ^ (v as u64)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
        (h as usize) & (BUCKETS - 1)
    }

    /// Reset the grid for a new run at cell size `cell`: every bucket
    /// emptied and the node pool rewound, its segments kept — a warm
    /// session's pool recycles one grid across runs instead of reallocating
    /// it each time.
    pub fn reset(&mut self, cell: f64) {
        assert!(cell > 0.0 && cell.is_finite());
        self.cell = cell;
        for head in self.heads.iter_mut() {
            *head.get_mut() = NIL;
        }
        self.nodes.rewind();
    }

    /// Register vertex `v`, which lies at `p` (its own position: the grid
    /// reads it back from the vertex record).
    pub fn insert(&self, v: VertexId, p: [f64; 3]) {
        let i = self.nodes.append();
        let node = self.nodes.get(i);
        node.vertex.store(v.0, Ordering::Relaxed);
        // Publish: the release half makes this node's fields (and its
        // segment) visible to whoever acquires the head; the acquire half
        // keeps the chain behind it visible through us.
        let head = &self.heads[self.bucket(self.cell_of(p))];
        let mut cur = head.load(Ordering::Acquire);
        loop {
            node.next.store(cur, Ordering::Relaxed);
            match head.compare_exchange_weak(cur, i, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Call `scan` with the list head of every bucket a ball of `radius`
    /// around `p` can reach, in a fixed order; stops when it returns `false`.
    /// The order runs through the cube of cells around `p`'s cell; with
    /// `centre_first`, `p`'s own cell comes first, which is where a query
    /// that wants one hit most often finds it. A ball whose cube of cells is
    /// at least as large as the table (an overflowed radius of `inf`, say)
    /// visits each bucket once instead: the same candidates, in at most
    /// `BUCKETS` steps.
    #[inline]
    fn for_each_bucket(
        &self,
        p: [f64; 3],
        radius: f64,
        centre_first: bool,
        mut scan: impl FnMut(u32) -> bool,
    ) {
        let reach = (radius / self.cell).ceil();
        let side = 2.0 * reach + 1.0;
        if side * side * side >= BUCKETS as f64 {
            for head in self.heads.iter() {
                if !scan(head.load(Ordering::Acquire)) {
                    return;
                }
            }
            return;
        }
        let reach = reach as i64;
        let c0 = self.cell_of(p);
        if centre_first && !scan(self.heads[self.bucket(c0)].load(Ordering::Acquire)) {
            return;
        }
        for dx in -reach..=reach {
            for dy in -reach..=reach {
                for dz in -reach..=reach {
                    if centre_first && dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let b = self.bucket([c0[0] + dx, c0[1] + dy, c0[2] + dz]);
                    if !scan(self.heads[b].load(Ordering::Acquire)) {
                        return;
                    }
                }
            }
        }
    }

    /// Walk one bucket list from `head`, newest entry first, visiting the
    /// alive vertices within `r2` (squared) of `q` whose kind passes
    /// `filter`. Returns `false` as soon as `visit` does.
    #[inline]
    fn scan_bucket(
        &self,
        mesh: &SharedMesh,
        head: u32,
        q: Point3,
        r2: f64,
        filter: &impl Fn(VertexKind) -> bool,
        visit: &mut impl FnMut(VertexId, [f64; 3]) -> bool,
    ) -> bool {
        let mut i = head;
        while i != NIL {
            let node = self.nodes.get(i);
            i = node.next.load(Ordering::Relaxed);
            let v = VertexId(node.vertex.load(Ordering::Relaxed));
            let vx = mesh.vertex(v);
            let vp = vx.pos();
            if q.distance_squared(Point3::from_array(vp)) > r2 {
                continue;
            }
            if vx.is_alive() && filter(vx.kind()) && !visit(v, vp) {
                return false;
            }
        }
        true
    }

    /// Visit every alive vertex within `radius` of `p` whose kind satisfies
    /// `filter`. Stops early if `visit` returns `false`.
    pub fn for_each_near_with(
        &self,
        mesh: &SharedMesh,
        p: [f64; 3],
        radius: f64,
        filter: impl Fn(VertexKind) -> bool,
        mut visit: impl FnMut(VertexId, [f64; 3]) -> bool,
    ) {
        let (q, r2) = (Point3::from_array(p), radius * radius);
        self.for_each_bucket(p, radius, false, |head| {
            self.scan_bucket(mesh, head, q, r2, &filter, &mut visit)
        });
    }

    /// Is any alive vertex whose kind passes `filter` within `radius` of
    /// `p`? The answer does not depend on the order, so the query's own
    /// cell is searched first.
    fn any_near_with(
        &self,
        mesh: &SharedMesh,
        p: [f64; 3],
        radius: f64,
        filter: impl Fn(VertexKind) -> bool,
    ) -> bool {
        let (q, r2) = (Point3::from_array(p), radius * radius);
        let mut found = false;
        self.for_each_bucket(p, radius, true, |head| {
            self.scan_bucket(mesh, head, q, r2, &filter, &mut |_, _| {
                found = true;
                false
            })
        });
        found
    }

    /// Visit every *alive* vertex of the given kind within `radius` of `p`.
    /// Stops early if `visit` returns `false`.
    pub fn for_each_near(
        &self,
        mesh: &SharedMesh,
        p: [f64; 3],
        radius: f64,
        kind: VertexKind,
        visit: impl FnMut(VertexId, [f64; 3]) -> bool,
    ) {
        self.for_each_near_with(mesh, p, radius, |k| k == kind, visit);
    }

    /// Is any alive *surface sample* (isosurface vertex or surface-center —
    /// both lie precisely on ∂O) within `radius` of `p`? Used by rule R1's
    /// δ-separation.
    pub fn any_surface_sample_near(&self, mesh: &SharedMesh, p: [f64; 3], radius: f64) -> bool {
        self.any_near_with(mesh, p, radius, |k| {
            matches!(k, VertexKind::Isosurface | VertexKind::SurfaceCenter)
        })
    }

    /// Is any alive vertex of `kind` within `radius` of `p`?
    pub fn any_near(&self, mesh: &SharedMesh, p: [f64; 3], radius: f64, kind: VertexKind) -> bool {
        self.any_near_with(mesh, p, radius, |k| k == kind)
    }

    /// Collect alive vertices of `kind` within `radius` of `p`, bucket by
    /// bucket and oldest first within each. R6 removes its victims in this
    /// order, so it is part of what makes a one-thread run repeatable; the
    /// lists run newest first, hence the per-bucket reversal.
    pub fn collect_near(
        &self,
        mesh: &SharedMesh,
        p: [f64; 3],
        radius: f64,
        kind: VertexKind,
    ) -> Vec<VertexId> {
        let (q, r2) = (Point3::from_array(p), radius * radius);
        let mut out = Vec::new();
        self.for_each_bucket(p, radius, false, |head| {
            let start = out.len();
            self.scan_bucket(mesh, head, q, r2, &|k| k == kind, &mut |v, _| {
                out.push(v);
                true
            });
            out[start..].reverse();
            true
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2m_geometry::Aabb;

    fn mesh_with_points() -> (SharedMesh, Vec<VertexId>) {
        let m = SharedMesh::with_box(Aabb::new(Point3::ORIGIN, Point3::new(10.0, 10.0, 10.0)));
        let mut vs = Vec::new();
        {
            let mut ctx = m.make_ctx(0);
            for (p, kind) in [
                ([2.0, 2.0, 2.0], VertexKind::Isosurface),
                ([2.5, 2.0, 2.0], VertexKind::Circumcenter),
                ([8.0, 8.0, 8.0], VertexKind::Isosurface),
            ] {
                vs.push(ctx.insert(p, kind).unwrap().vertex);
            }
        }
        (m, vs)
    }

    #[test]
    fn insert_and_query_by_kind() {
        let (m, vs) = mesh_with_points();
        let g = PointGrid::new(1.0);
        for &v in &vs {
            g.insert(v, m.pos3(v));
        }
        assert!(g.any_near(&m, [2.1, 2.0, 2.0], 0.5, VertexKind::Isosurface));
        assert!(!g.any_near(&m, [2.1, 2.0, 2.0], 0.2, VertexKind::SurfaceCenter));
        let near = g.collect_near(&m, [2.0, 2.0, 2.0], 1.0, VertexKind::Circumcenter);
        assert_eq!(near, vec![vs[1]]);
        // far point only sees its own neighborhood
        assert!(!g.any_near(&m, [8.0, 8.0, 8.0], 2.0, VertexKind::Circumcenter));
        assert!(g.any_near(&m, [8.0, 8.0, 8.0], 0.1, VertexKind::Isosurface));
    }

    #[test]
    fn dead_vertices_filtered() {
        let (m, vs) = mesh_with_points();
        let g = PointGrid::new(1.0);
        for &v in &vs {
            g.insert(v, m.pos3(v));
        }
        let mut ctx = m.make_ctx(0);
        ctx.remove(vs[1]).unwrap();
        assert!(g
            .collect_near(&m, [2.5, 2.0, 2.0], 0.5, VertexKind::Circumcenter)
            .is_empty());
    }

    #[test]
    fn radius_larger_than_cell() {
        let (m, vs) = mesh_with_points();
        let g = PointGrid::new(0.25); // small cells, big query radius
        for &v in &vs {
            g.insert(v, m.pos3(v));
        }
        let near = g.collect_near(&m, [2.0, 2.0, 2.0], 3.0, VertexKind::Circumcenter);
        assert_eq!(near.len(), 1);
    }

    #[test]
    fn negative_coordinates() {
        let m = SharedMesh::with_box(Aabb::new(
            Point3::new(-10.0, -10.0, -10.0),
            Point3::new(10.0, 10.0, 10.0),
        ));
        let mut ctx = m.make_ctx(0);
        let v = ctx
            .insert([-5.0, -5.0, -5.0], VertexKind::Isosurface)
            .unwrap()
            .vertex;
        let g = PointGrid::new(1.0);
        g.insert(v, m.pos3(v));
        assert!(g.any_near(&m, [-5.2, -5.0, -5.0], 0.5, VertexKind::Isosurface));
    }

    #[test]
    fn reset_empties_every_bucket_and_rewinds_the_pool() {
        let (m, vs) = mesh_with_points();
        let mut g = PointGrid::new(1.0);
        for &v in &vs {
            g.insert(v, m.pos3(v));
        }
        g.reset(0.5);
        assert!(!g.any_near(&m, [2.0, 2.0, 2.0], 3.0, VertexKind::Isosurface));
        // the next run's entries reuse the first nodes of the kept segment
        g.insert(vs[2], m.pos3(vs[2]));
        assert_eq!(g.nodes.len(), 1);
        assert!(g.any_near(&m, [8.0, 8.0, 8.0], 0.1, VertexKind::Isosurface));
        assert!(!g.any_near(&m, [2.0, 2.0, 2.0], 0.1, VertexKind::Isosurface));
    }

    fn xorshift(x: &mut u64) -> f64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        (*x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Eight threads insert their own vertices and query all over the box at
    /// once. A position handed to a visitor must be the vertex's own, bit
    /// for bit (a node is never visible half-written), and a thread must
    /// find every vertex it has inserted so far.
    #[test]
    fn eight_threads_insert_and_query_concurrently() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 250;
        let m = SharedMesh::with_box(Aabb::new(Point3::ORIGIN, Point3::new(10.0, 10.0, 10.0)));
        let mut vs = Vec::new();
        {
            let mut ctx = m.make_ctx(0);
            let mut x = 0x2545_f491_4f6c_dd1du64;
            while vs.len() < THREADS * PER_THREAD {
                let p = [0; 3].map(|_| 0.5 + 9.0 * xorshift(&mut x));
                if let Ok(r) = ctx.insert(p, VertexKind::Isosurface) {
                    vs.push(r.vertex);
                    ctx.recycle_insert(r);
                }
            }
        }
        let g = PointGrid::new(0.7);
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for (tid, mine) in vs.chunks(PER_THREAD).enumerate() {
                let (m, g, start) = (&m, &g, &start);
                s.spawn(move || {
                    let mut x = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(tid as u64 + 1);
                    start.wait();
                    for (k, &v) in mine.iter().enumerate() {
                        g.insert(v, m.pos3(v));
                        // a wide query somewhere else: whatever it sees,
                        // from whichever thread, is whole
                        let q = [0; 3].map(|_| 10.0 * xorshift(&mut x));
                        g.for_each_near_with(
                            m,
                            q,
                            1.5,
                            |_| true,
                            |u, up| {
                                assert_eq!(up.map(f64::to_bits), m.pos3(u).map(f64::to_bits));
                                true
                            },
                        );
                        // our own earlier inserts are all there
                        let w = mine[(k * 7) % (k + 1)];
                        let found = g.collect_near(m, m.pos3(w), 1e-9, VertexKind::Isosurface);
                        assert!(found.contains(&w), "thread {tid} lost {w:?}");
                    }
                });
            }
        });
        // and afterwards everybody's (twice where two of the 27 cells around
        // the point hash to one bucket)
        for &v in &vs {
            let found = g.collect_near(&m, m.pos3(v), 1e-9, VertexKind::Isosurface);
            assert!(!found.is_empty() && found.iter().all(|&u| u == v), "{v:?}");
        }
    }

    /// The grid this one replaced — a mutex and a vector per bucket — kept
    /// as the reference the lock-free lists are compared against.
    struct MutexGrid {
        cell: f64,
        shards: Vec<Shard>,
    }

    type Shard = std::sync::Mutex<Vec<(VertexId, [f64; 3])>>;

    impl MutexGrid {
        fn new(cell: f64) -> Self {
            let shards = (0..BUCKETS).map(|_| Default::default()).collect();
            MutexGrid { cell, shards }
        }

        fn insert(&self, like: &PointGrid, v: VertexId, p: [f64; 3]) {
            let b = like.bucket(like.cell_of(p));
            self.shards[b].lock().unwrap().push((v, p));
        }

        fn collect(
            &self,
            like: &PointGrid,
            mesh: &SharedMesh,
            p: [f64; 3],
            radius: f64,
            filter: impl Fn(VertexKind) -> bool,
        ) -> Vec<VertexId> {
            let reach = (radius / self.cell).ceil() as i64;
            let c0 = like.cell_of(p);
            let q = Point3::from_array(p);
            let mut out = Vec::new();
            for dx in -reach..=reach {
                for dy in -reach..=reach {
                    for dz in -reach..=reach {
                        let b = like.bucket([c0[0] + dx, c0[1] + dy, c0[2] + dz]);
                        for &(v, vp) in self.shards[b].lock().unwrap().iter() {
                            let vx = mesh.vertex(v);
                            if q.distance_squared(Point3::from_array(vp)) <= radius * radius
                                && vx.is_alive()
                                && filter(vx.kind())
                            {
                                out.push(v);
                            }
                        }
                    }
                }
            }
            out
        }
    }

    /// A ball whose cube of cells outgrows the table — an infinite radius,
    /// or one 20 cells wide — finds the same vertices as the reference, each
    /// once, without walking the cube.
    #[test]
    fn huge_radius_visits_each_bucket_once() {
        let m = SharedMesh::with_box(Aabb::new(Point3::ORIGIN, Point3::new(10.0, 10.0, 10.0)));
        let mut ctx = m.make_ctx(0);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut vs = Vec::new();
        while vs.len() < 200 {
            let p = [0; 3].map(|_| 0.5 + 9.0 * xorshift(&mut x));
            if let Ok(r) = ctx.insert(p, VertexKind::Circumcenter) {
                vs.push(r.vertex);
                ctx.recycle_insert(r);
            }
        }
        let sorted = |mut v: Vec<VertexId>| {
            v.sort_unstable_by_key(|u| u.0);
            v
        };
        let centre = [5.0, 5.0, 5.0];
        for (cell, radius, reference_radius) in [(1.0, f64::INFINITY, 20.0), (0.25, 4.0, 4.0)] {
            let (grid, reference) = (PointGrid::new(cell), MutexGrid::new(cell));
            for &v in &vs {
                grid.insert(v, m.pos3(v));
                reference.insert(&grid, v, m.pos3(v));
            }
            let got = sorted(grid.collect_near(&m, centre, radius, VertexKind::Circumcenter));
            let mut want = sorted(reference.collect(&grid, &m, centre, reference_radius, |k| {
                k == VertexKind::Circumcenter
            }));
            // the reference walks the cube, whose cells share buckets
            want.dedup();
            assert_eq!(got, want, "cell {cell}, radius {radius}");
            assert!(!got.is_empty());
        }
        let grid = PointGrid::new(1.0);
        for &v in &vs {
            grid.insert(v, m.pos3(v));
        }
        assert!(grid.any_near(&m, centre, f64::INFINITY, VertexKind::Circumcenter));
        assert_eq!(
            grid.collect_near(&m, centre, f64::INFINITY, VertexKind::Circumcenter)
                .len(),
            vs.len()
        );
    }

    /// Every vertex a finished multi-tissue run ever allocated (the removed
    /// ones too: the engine registered them all), then R1's and R6's
    /// queries around each of them, against the mutex grid.
    #[test]
    fn queries_match_the_mutex_grid_on_a_finished_abdominal_mesh() {
        let delta = 2.0;
        let cfg = crate::MesherConfig {
            delta,
            ..Default::default()
        };
        let out = crate::MeshingSession::new(cfg.threads)
            .mesh(pi2m_image::phantoms::abdominal(1.5), cfg)
            .unwrap();
        let mesh = &out.shared;
        let (grid, reference) = (PointGrid::new(delta), MutexGrid::new(delta));
        let all: Vec<VertexId> = (0..mesh.num_vertices() as u32).map(VertexId).collect();
        for &v in &all {
            grid.insert(v, mesh.pos3(v));
            reference.insert(&grid, v, mesh.pos3(v));
        }
        let (mut removed, mut separated, mut victims) = (0, 0, 0);
        for &v in &all {
            removed += !mesh.vertex(v).is_alive() as usize;
            let p = mesh.pos3(v).map(|x| x + 0.3 * delta);
            let samples = reference.collect(&grid, mesh, p, delta, |k| {
                matches!(k, VertexKind::Isosurface | VertexKind::SurfaceCenter)
            });
            assert_eq!(
                grid.any_surface_sample_near(mesh, p, delta),
                !samples.is_empty(),
                "R1 separation at {p:?}"
            );
            separated += samples.is_empty() as usize;
            // same vertices in the same order: R6 removes them in it
            let want = reference.collect(&grid, mesh, p, 2.0 * delta, |k| {
                k == VertexKind::Circumcenter
            });
            assert_eq!(
                grid.collect_near(mesh, p, 2.0 * delta, VertexKind::Circumcenter),
                want,
                "R6 victims at {p:?}"
            );
            victims += want.len();
        }
        // the comparison saw both answers of each query, and dead entries
        assert!(removed > 0 && separated > 0 && separated < all.len() && victims > 0);
    }

    const KINDS: [VertexKind; 3] = [
        VertexKind::Isosurface,
        VertexKind::SurfaceCenter,
        VertexKind::Circumcenter,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Every query, at radii 0, δ/2, δ, 2δ and ∞, answers what a scan
        /// of every vertex ever registered answers: the alive vertices of
        /// the asked kinds within the radius. Some vertices are removed
        /// after registration, as R6 does; queries sit at random points
        /// and on vertices (where radius 0 still finds the vertex).
        #[test]
        fn queries_equal_brute_force(
            cell in 0.3f64..3.0,
            n in 1usize..48,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let m = SharedMesh::with_box(Aabb::new(Point3::ORIGIN, Point3::new(10.0, 10.0, 10.0)));
            let grid = PointGrid::new(cell);
            let mut ctx = m.make_ctx(0);
            let mut x = seed | 1;
            let mut all = Vec::new();
            let mut doomed = Vec::new();
            for _ in 0..n {
                let p = [0; 3].map(|_| 0.5 + 9.0 * xorshift(&mut x));
                let kind = KINDS[(3.0 * xorshift(&mut x)) as usize];
                if let Ok(r) = ctx.insert(p, kind) {
                    grid.insert(r.vertex, p);
                    all.push(r.vertex);
                    if xorshift(&mut x) < 0.3 {
                        doomed.push(r.vertex);
                    }
                    ctx.recycle_insert(r);
                }
            }
            let queries: Vec<[f64; 3]> =
                (0..4).map(|_| [0; 3].map(|_| 10.0 * xorshift(&mut x))).collect();
            for v in doomed {
                if let Ok(r) = ctx.remove(v) {
                    ctx.recycle_remove(r);
                }
            }
            let on_vertices = all.iter().take(3).map(|&v| m.pos3(v));
            for q in queries.iter().copied().chain(on_vertices) {
                for r in [0.0, cell / 2.0, cell, 2.0 * cell, f64::INFINITY] {
                    let brute = |pass: &dyn Fn(VertexKind) -> bool| -> Vec<VertexId> {
                        all.iter()
                            .copied()
                            .filter(|&v| {
                                let vx = m.vertex(v);
                                vx.is_alive()
                                    && pass(vx.kind())
                                    && Point3::from_array(q).distance_squared(m.position(v)) <= r * r
                            })
                            .collect()
                    };
                    // a cube of cells can hash two of its cells to one
                    // bucket and list a vertex twice: compare as sets
                    let set = |mut v: Vec<VertexId>| {
                        v.sort_unstable_by_key(|u| u.0);
                        v.dedup();
                        v
                    };
                    let surface = brute(&|k| matches!(k, VertexKind::Isosurface | VertexKind::SurfaceCenter));
                    proptest::prop_assert_eq!(grid.any_surface_sample_near(&m, q, r), !surface.is_empty());
                    for kind in KINDS {
                        let want = brute(&|k| k == kind);
                        proptest::prop_assert_eq!(grid.any_near(&m, q, r, kind), !want.is_empty());
                        let mut seen = Vec::new();
                        grid.for_each_near(&m, q, r, kind, |v, vp| {
                            assert_eq!(vp, m.pos3(v));
                            seen.push(v);
                            true
                        });
                        proptest::prop_assert_eq!(set(seen), want.clone(), "for_each_near {:?} r {}", kind, r);
                        // R6's victims query
                        let victims = grid.collect_near(&m, q, r, kind);
                        proptest::prop_assert_eq!(set(victims), want, "collect_near {:?} r {}", kind, r);
                    }
                }
            }
        }
    }
}
