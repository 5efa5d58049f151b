//! Speculative Bowyer–Watson point insertion.
//!
//! The cavity of `p` — every cell whose circumsphere strictly contains `p` —
//! is discovered by BFS from the containing cell, locking the vertices of
//! every touched cell on the way (rejected boundary cells included, matching
//! the paper's "any vertex touched during cavity expansion needs to be
//! locked"). Expansion is read-only: a lock conflict rolls the operation back
//! at zero structural cost. The commit retriangulates the cavity onto `p`
//! under the complete lock set.
//!
//! Degeneracy policy: `insphere == 0` keeps a cell *out* of the cavity; if a
//! cavity boundary face turns out coplanar with `p` (which would create a
//! zero-volume cell), the offending outside cell is force-added and the
//! boundary recomputed, restoring strict star-shapedness.
//!
//! All transient buffers come from the per-worker [`KernelScratch`] arena:
//! the prepare/commit wrappers take the arena out of the context, thread it
//! through the phase, and reinstall it, so repeated operations run
//! allocation-free once the buffers are warm.

use crate::ids::{CellId, VertexId, VertexKind, NONE};
use crate::mesh::{InsertResult, KernelError, OpCtx, OpError};
use crate::scratch::{KernelScratch, TestEntry};
use pi2m_faults::{sites, Injected};
use pi2m_geometry::TET_FACES;
use pi2m_obs::flight::{cause as flight_cause, EventKind};
use pi2m_predicates::{insphere_sos_batch, orient3d_batch_gather, BATCH_LANES};

/// Key standing in for the point being inserted: it will receive the largest
/// vertex id allocated so far, so it is "newest" relative to every vertex it
/// can be tested against.
const PENDING_KEY: u64 = u64::MAX;

/// A face of the cavity boundary.
pub(crate) struct BFace {
    /// Face vertices, oriented so `orient3d(verts, p) > 0` (outward normal).
    verts: [VertexId; 3],
    /// The cell outside the cavity across this face (`NONE` on the hull).
    outside: CellId,
    /// Which face of `outside` points back into the cavity. Resolved during
    /// the prepare phase so commit never has to fail a lookup (0 on the
    /// hull, where it is unused).
    out_face: usize,
}

/// A fully expanded insertion cavity, locks held, not yet committed.
/// Obtain via [`OpCtx::prepare_insert`]; then either [`OpCtx::commit_insert`]
/// or [`OpCtx::abort`]. Structure is only mutated at commit.
pub struct PreparedInsert {
    point: [f64; 3],
    kind: VertexKind,
    cavity: Vec<CellId>,
    bfaces: Vec<BFace>,
}

impl PreparedInsert {
    /// Cells that will be retriangulated.
    pub fn cavity_size(&self) -> usize {
        self.cavity.len()
    }

    /// Cells that will be created.
    pub fn boundary_size(&self) -> usize {
        self.bfaces.len()
    }

    /// The ids of the cavity cells (for cost/NUMA models).
    pub fn cavity(&self) -> &[CellId] {
        &self.cavity
    }
}

impl OpCtx<'_> {
    /// Insert a point, maintaining the Delaunay property. On any error the
    /// operation has been rolled back (no locks held, no structural change).
    pub fn insert(&mut self, p: [f64; 3], kind: VertexKind) -> Result<InsertResult, OpError> {
        self.insert_guarded(p, kind, None)
    }

    /// [`insert`](Self::insert) as the remedy computed for cell `poor` at
    /// generation `gen`: once the cavity is locked, the insertion commits
    /// only if that cell is still alive, and otherwise rolls back with
    /// [`OpError::Stale`].
    ///
    /// A remedy is computed from the triangulation around its cell; between
    /// computing it and locking the cavity another thread may have repaired
    /// the same spot. Inserting anyway puts a second point where one was
    /// needed — two surface-centers a hundredth of a voxel apart, say — and
    /// the short edges between them keep the refinement rules firing.
    pub fn insert_for(
        &mut self,
        p: [f64; 3],
        kind: VertexKind,
        poor: CellId,
        gen: u32,
    ) -> Result<InsertResult, OpError> {
        self.insert_guarded(p, kind, Some((poor, gen)))
    }

    fn insert_guarded(
        &mut self,
        p: [f64; 3],
        kind: VertexKind,
        poor: Option<(CellId, u32)>,
    ) -> Result<InsertResult, OpError> {
        let prep = self.prepare_insert(p, kind)?;
        if let Some((c, gen)) = poor {
            let cell = self.mesh.cell(c);
            if !cell.is_alive() || cell.gen() != gen {
                self.abort();
                return Err(OpError::Stale);
            }
        }
        // Injection point between the phases: a `panic` here unwinds while
        // the full lock set is held (recovery must roll it back); deny/fail
        // abort the prepared operation through the normal conflict path.
        if self.has_faults() {
            match self.fault(sites::INSERT_COMMIT) {
                Some(Injected::Deny) => {
                    self.abort();
                    return Err(self.injected_conflict(VertexId(NONE)));
                }
                Some(Injected::Fail) => {
                    self.abort();
                    return Err(OpError::Kernel(KernelError::Injected));
                }
                None => {}
            }
        }
        let res = self.commit_insert(prep);
        // Lock-acquisition batch summary for the flight recorder: one event
        // per committed op instead of one per try-lock (overhead budget).
        if let Some(f) = &self.flight {
            f.emit(
                EventKind::LockBatch,
                flight_cause::OP_INSERT,
                self.locked.len() as u32,
                res.killed.len() as u32,
                0,
            );
        }
        self.unlock_all();
        Ok(res)
    }

    /// Expansion phase: locate, build and validate the cavity, locking every
    /// touched vertex. On error the operation has been rolled back; on
    /// success the locks stay held until `commit_insert` + `release_locks`
    /// or `abort`.
    pub fn prepare_insert(
        &mut self,
        p: [f64; 3],
        kind: VertexKind,
    ) -> Result<PreparedInsert, OpError> {
        if self.has_faults() {
            match self.fault(sites::INSERT_PREPARE) {
                Some(Injected::Deny) => return Err(self.injected_conflict(VertexId(NONE))),
                Some(Injected::Fail) => return Err(OpError::Kernel(KernelError::Injected)),
                None => {}
            }
        }
        // The arena travels out of the context for the duration of the
        // phase; a panic mid-phase leaves a fresh default arena behind.
        let mut s = std::mem::take(&mut self.scratch);
        let r = self.prepare_insert_inner(p, kind, &mut s);
        self.scratch = s;
        if r.is_err() {
            self.unlock_all();
        }
        r
    }

    /// Every tested cell's vertex quad, neighbor row and coordinates are
    /// captured exactly once, under its vertex locks, into the dense cavity
    /// arrays and the epoch-tagged [`TestTable`](crate::scratch::TestTable).
    /// Boundary extraction and the orphan guard then run entirely off those
    /// snapshots: no second pass over the cell pool, no hash-map traffic.
    fn prepare_insert_inner(
        &mut self,
        p: [f64; 3],
        kind: VertexKind,
        s: &mut KernelScratch,
    ) -> Result<PreparedInsert, OpError> {
        s.begin_insert();
        let c0 = self.locate(p)?;
        s.tests.begin();

        // exact-duplicate rejection doubles as the seed cell's snapshot (its
        // vertices were locked during `locate`'s candidate validation)
        {
            let cell = self.mesh.cell(c0);
            let vs = cell.verts();
            let pos = [
                self.mesh.pos3(vs[0]),
                self.mesh.pos3(vs[1]),
                self.mesh.pos3(vs[2]),
                self.mesh.pos3(vs[3]),
            ];
            for k in 0..4 {
                if pos[k] == p {
                    return Err(OpError::Duplicate(vs[k]));
                }
            }
            let ns = cell.neis();
            // the first wave will read these cells: get their lines moving
            for n in ns {
                self.mesh.cells.prefetch(n.0);
            }
            s.cavity.push(c0);
            s.cav_verts.push(vs);
            s.cav_neis.push(ns);
            s.cav_pos.extend_from_slice(&pos);
            s.tests.insert(
                c0,
                TestEntry {
                    verdict: true,
                    neis: ns,
                },
            );
        }

        let mut qi = 0usize;
        self.expand_cavity(&p, s, &mut qi)?;

        // ---- boundary extraction with degeneracy repair ----
        loop {
            s.bfaces.clear();
            s.forced.clear();
            self.extract_boundary(&p, s)?;
            if s.forced.is_empty() {
                break;
            }
            for fi in 0..s.forced.len() {
                let n = s.forced[fi];
                if s.tests.get(n).is_some_and(|e| e.verdict) {
                    continue;
                }
                // already locked and partly snapshotted (it was a tested
                // boundary cell); only verts/coords still need gathering
                let ns = s.tests.get(n).expect("forced cell was never tested").neis;
                s.tests.set_verdict(n, true);
                let cell = self.mesh.cell(n);
                let vs = cell.verts();
                s.cavity.push(n);
                s.cav_verts.push(vs);
                s.cav_neis.push(ns);
                for &u in &vs {
                    s.cav_pos.push(self.mesh.pos3(u));
                }
            }
            self.expand_cavity(&p, s, &mut qi)?;
        }
        debug_assert!(s.bfaces.len() >= 4);

        // Orphan guard: if some cavity vertex appears on no boundary face,
        // retriangulating would leave it dangling inside a new cell (possible
        // only for exotic cospherical configurations where the perturbed
        // triangulation "hides" an old vertex). Skip such insertions.
        s.on_boundary.clear();
        for bf in &s.bfaces {
            for u in bf.verts {
                s.on_boundary.insert(u.0);
            }
        }
        for vs in &s.cav_verts {
            for v in vs {
                if !s.on_boundary.contains(&v.0) {
                    return Err(OpError::Degenerate);
                }
            }
        }
        Ok(PreparedInsert {
            point: p,
            kind,
            cavity: std::mem::take(&mut s.cavity),
            bfaces: std::mem::take(&mut s.bfaces),
        })
    }

    /// Commit a prepared insertion: allocate the vertex, retriangulate the
    /// cavity, rewire adjacency. Infallible under the held locks. The caller
    /// must still call `release_locks` (or use the `insert` wrapper).
    pub fn commit_insert(&mut self, prep: PreparedInsert) -> InsertResult {
        let mut s = std::mem::take(&mut self.scratch);
        let res = self.commit_insert_inner(prep, &mut s);
        self.scratch = s;
        res
    }

    fn commit_insert_inner(&mut self, prep: PreparedInsert, s: &mut KernelScratch) -> InsertResult {
        let PreparedInsert {
            point: p,
            kind,
            cavity,
            bfaces,
        } = prep;
        let v = self.mesh.verts.alloc(p, kind);
        let mut new_ids = s.take_cells_buf();
        new_ids.extend(
            bfaces
                .iter()
                .map(|_| self.mesh.cells.reserve(&mut self.free_cells)),
        );

        // internal adjacency: face k (k < 3) of the new cell over bface `bi`
        // is opposite bface vertex k and shares the edge (k+1, k+2) with its
        // twin new cell.
        s.neis.clear();
        s.neis.extend(bfaces.iter().map(|bf| {
            [
                CellId(crate::ids::NONE),
                CellId(crate::ids::NONE),
                CellId(crate::ids::NONE),
                bf.outside,
            ]
        }));
        // The cavity cells were last touched during expansion; the kill
        // loop below reads their tags, so start those lines refilling now.
        for &c in &cavity {
            self.mesh.cells.prefetch(c.0);
        }
        // Twin matching of the cavity boundary edges in one pass through the
        // epoch-tagged edge pairer. Every key occurs exactly twice and the
        // matching is unique, so wiring happens the moment a key's second
        // occurrence lands.
        s.edges.begin();
        let mut pairs = 0usize;
        for (bi, bf) in bfaces.iter().enumerate() {
            for k in 0..3 {
                let a = bf.verts[(k + 1) % 3].0;
                let b = bf.verts[(k + 2) % 3].0;
                let key = ((a.min(b) as u64) << 32) | a.max(b) as u64;
                if let Some(other) = s.edges.pair(key, ((bi as u32) << 2) | k as u32) {
                    let (bj, fj) = ((other >> 2) as usize, (other & 3) as usize);
                    s.neis[bi][k] = new_ids[bj];
                    s.neis[bj][fj] = new_ids[bi];
                    pairs += 1;
                }
            }
        }
        debug_assert_eq!(
            pairs * 2,
            bfaces.len() * 3,
            "unmatched cavity boundary edges"
        );

        // Publication order matters for the LOCK-FREE walkers: every new
        // cell must be activated before any outside back-pointer flips, or a
        // concurrent walk crossing the flipped pointer steps into a
        // not-yet-alive cell and burns a restart. The remaining rewiring
        // (back-pointers and hint publication, both safe to interleave once
        // the region is alive) is one linear pass.
        for (bi, bf) in bfaces.iter().enumerate() {
            // vertex order [f0, f1, f2, v] is positively oriented because
            // orient3d(f, p) > 0 was enforced above.
            self.mesh.cells.activate(
                new_ids[bi],
                [bf.verts[0], bf.verts[1], bf.verts[2], v],
                s.neis[bi],
            );
        }
        self.mesh.vertex(v).set_hint(new_ids[0]);
        for (bi, bf) in bfaces.iter().enumerate() {
            if !bf.outside.is_none() {
                self.mesh.cell(bf.outside).set_nei(bf.out_face, new_ids[bi]);
            }
            for u in bf.verts {
                self.mesh.vertex(u).set_hint(new_ids[bi]);
            }
        }
        // kill the cavity
        let mut killed = s.take_killed_buf();
        killed.reserve(cavity.len());
        for &c in &cavity {
            let tag = self
                .mesh
                .cell(c)
                .tag
                .load(std::sync::atomic::Ordering::Relaxed);
            killed.push((c, tag));
            self.mesh.cells.free(c, &mut self.free_cells);
        }
        self.mesh.set_recent(new_ids[0]);
        // the freshly inserted vertex is the ideal hint for its region
        self.note_cell_at(new_ids[0], &self.mesh.pos3(v), v);

        // the cavity/boundary buffers return to the arena for the next op
        s.put_insert_bufs(cavity, bfaces);

        InsertResult {
            vertex: v,
            created: new_ids,
            killed,
        }
    }

    /// BFS rounds of cavity expansion from `s.cavity[*qi..]`, a wave at a
    /// time: candidates are discovered in BFS order, locked, and their
    /// coordinates gathered into the SoA staging buffers; a placeholder
    /// [`TestTable`](crate::scratch::TestTable) entry dedupes repeat
    /// discoveries within a wave. The whole wave's insphere tests then run
    /// through the wide-lane filter, and the verdicts are applied in
    /// collection order, so the cavity sequence (and every lock acquisition)
    /// is the one a cell-at-a-time BFS would produce. Each accepted cell's
    /// snapshot moves straight from the wave buffers into the dense cavity
    /// arrays, so later phases never re-read it from the pools.
    fn expand_cavity(
        &mut self,
        p: &[f64; 3],
        s: &mut KernelScratch,
        qi: &mut usize,
    ) -> Result<(), OpError> {
        while *qi < s.cavity.len() {
            s.wave_cells.clear();
            s.wave_verts.clear();
            s.wave_neis.clear();
            s.soa_xs.clear();
            s.soa_ys.clear();
            s.soa_zs.clear();
            s.soa_keys.clear();
            // Stage a wave. A cell's four faces are never split across
            // waves: the inner loop finishes the cell even if the wave
            // overshoots the target width by up to three lanes.
            while *qi < s.cavity.len() && s.wave_cells.len() < BATCH_LANES {
                let neis = s.cav_neis[*qi];
                *qi += 1;
                for n in neis {
                    if n.is_none() || s.tests.contains(n) {
                        continue;
                    }
                    let ncell = self.mesh.cell(n);
                    // `n` is frozen from the moment its cavity-side parent was
                    // locked (any op retriangulating `n` must hold the face
                    // vertices we already own), so reading the quad before
                    // taking its locks sees exactly what the lock loop would.
                    // Prefetching every vertex record up front overlaps the
                    // lock-word misses; positions live in the same records, so
                    // the coordinate gather below rides the same lines.
                    let nv = ncell.verts();
                    for &u in &nv {
                        self.mesh.verts.prefetch(u.0);
                    }
                    for &u in &nv {
                        self.lock_vertex(u)?;
                    }
                    debug_assert!(ncell.is_alive(), "neighbor died under face locks");
                    let nn = ncell.neis();
                    // Placeholder verdict, flipped for accepted lanes below.
                    s.tests.insert(
                        n,
                        TestEntry {
                            verdict: false,
                            neis: nn,
                        },
                    );
                    for &u in &nv {
                        let q = self.mesh.pos3(u);
                        s.soa_xs.push(q[0]);
                        s.soa_ys.push(q[1]);
                        s.soa_zs.push(q[2]);
                    }
                    s.soa_keys.push([
                        nv[0].0 as u64,
                        nv[1].0 as u64,
                        nv[2].0 as u64,
                        nv[3].0 as u64,
                        PENDING_KEY,
                    ]);
                    s.wave_cells.push(n);
                    s.wave_verts.push(nv);
                    s.wave_neis.push(nn);
                }
            }
            if s.wave_cells.is_empty() {
                continue;
            }
            s.stats.soa_gathers += 1;
            s.stats.soa_points += 4 * s.wave_cells.len() as u64;
            insphere_sos_batch(
                self.mesh.semi_static_bounds(),
                &mut self.pred_stats,
                &mut self.batch_stats,
                &s.soa_xs,
                &s.soa_ys,
                &s.soa_zs,
                p,
                &s.soa_keys,
                &mut s.soa_signs,
            );
            for (l, &n) in s.wave_cells.iter().enumerate() {
                // the placeholder already recorded `false`: only accepted
                // candidates need their verdict flipped
                if s.soa_signs[l] > 0 {
                    // the next wave expands through this cell's neighbor row:
                    // start those cell lines now, while verdicts apply
                    for m in s.wave_neis[l] {
                        self.mesh.cells.prefetch(m.0);
                    }
                    s.tests.set_verdict(n, true);
                    s.cavity.push(n);
                    s.cav_verts.push(s.wave_verts[l]);
                    s.cav_neis.push(s.wave_neis[l]);
                    for k in 0..4 {
                        s.cav_pos.push([
                            s.soa_xs[4 * l + k],
                            s.soa_ys[4 * l + k],
                            s.soa_zs[4 * l + k],
                        ]);
                    }
                }
            }
        }
        Ok(())
    }

    /// One round of boundary extraction over the current cavity, appending
    /// outward faces to `s.bfaces` and coplanar repairs to `s.forced`.
    /// Candidate faces are collected in cavity order — vertices pulled from
    /// the cavity snapshots, never from the pools — and only three corner
    /// *indices* per face are staged: the whole round's orient tests then run
    /// through the gather-indexed wide-lane filter straight off the flat
    /// snapshot coordinate table, and decisions are applied in the same
    /// order. Back-pointing faces of outside cells resolve from the neighbor
    /// rows cached in the [`TestTable`](crate::scratch::TestTable) instead of
    /// `face_to` pool walks.
    fn extract_boundary(&mut self, p: &[f64; 3], s: &mut KernelScratch) -> Result<(), OpError> {
        s.wave_faces.clear();
        s.face_idx.clear();
        for ci in 0..s.cavity.len() {
            let c = s.cavity[ci];
            let verts = s.cav_verts[ci];
            let neis = s.cav_neis[ci];
            for (i, &f) in TET_FACES.iter().enumerate() {
                let n = neis[i];
                if !n.is_none() && s.tests.get(n).is_some_and(|e| e.verdict) {
                    continue; // interior face
                }
                let base = 4 * ci as u32;
                s.face_idx
                    .push([base + f[0] as u32, base + f[1] as u32, base + f[2] as u32]);
                s.wave_faces
                    .push(([verts[f[0]], verts[f[1]], verts[f[2]]], n, c));
            }
        }
        if s.wave_faces.is_empty() {
            return Ok(());
        }
        s.stats.soa_gathers += 1;
        s.stats.soa_points += 3 * s.wave_faces.len() as u64;
        orient3d_batch_gather(
            self.mesh.semi_static_bounds(),
            &mut self.pred_stats,
            &mut self.batch_stats,
            &s.cav_pos,
            &s.face_idx,
            p,
            &mut s.soa_dets,
        );
        for l in 0..s.wave_faces.len() {
            let (fv, n, c) = s.wave_faces[l];
            if s.soa_dets[l] <= 0.0 {
                if n.is_none() {
                    // coplanar with a hull face: cannot repair
                    return Err(OpError::Degenerate);
                }
                s.forced.push(n);
                continue;
            }
            let out_face = if n.is_none() {
                0
            } else {
                let row = s
                    .tests
                    .get(n)
                    .expect("cavity neighbor was never tested")
                    .neis;
                match row.iter().position(|&x| x == c) {
                    Some(j) => j,
                    None => return Err(OpError::Kernel(KernelError::MissingBackPointer)),
                }
            };
            s.bfaces.push(BFace {
                verts: fv,
                outside: n,
                out_face,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::ids::VertexKind;
    use crate::mesh::{OpError, SharedMesh};
    use pi2m_geometry::{Aabb, Point3};

    fn unit_mesh() -> SharedMesh {
        SharedMesh::with_box(Aabb::new(Point3::ORIGIN, Point3::new(1.0, 1.0, 1.0)))
    }

    #[test]
    fn single_insertion_center() {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        let r = ctx
            .insert([0.5, 0.5, 0.5], VertexKind::Circumcenter)
            .unwrap();
        // the diagonal point is on all 6 circumspheres: cavity = whole box
        assert_eq!(r.killed.len(), 6);
        assert!(r.created.len() >= 8);
        assert_eq!(ctx.locks_held(), 0);
        m.check_adjacency().unwrap();
        m.check_orientation().unwrap();
        m.check_delaunay().unwrap();
        assert!((m.total_volume() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn many_random_insertions_stay_delaunay() {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        // deterministic pseudo-random points
        let mut s = 12345u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..200 {
            let p = [
                next() * 0.98 + 0.01,
                next() * 0.98 + 0.01,
                next() * 0.98 + 0.01,
            ];
            ctx.insert(p, VertexKind::Circumcenter).unwrap();
        }
        m.check_adjacency().unwrap();
        m.check_orientation().unwrap();
        m.check_delaunay().unwrap();
        assert!((m.total_volume() - 1.0).abs() < 1e-9);
        assert_eq!(m.num_vertices(), 208);
    }

    #[test]
    fn duplicate_rejected() {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        let r = ctx
            .insert([0.25, 0.5, 0.5], VertexKind::Isosurface)
            .unwrap();
        match ctx.insert([0.25, 0.5, 0.5], VertexKind::Isosurface) {
            Err(OpError::Duplicate(v)) => assert_eq!(v, r.vertex),
            other => panic!("expected duplicate, got {other:?}"),
        }
        assert_eq!(ctx.locks_held(), 0);
        m.check_delaunay().unwrap();
    }

    #[test]
    fn outside_point_rejected() {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        assert_eq!(
            ctx.insert([2.0, 0.5, 0.5], VertexKind::Circumcenter),
            Err(OpError::OutsideDomain)
        );
    }

    #[test]
    fn conflict_rolls_back_cleanly() {
        let m = unit_mesh();
        let mut other = m.make_ctx(1);
        other.lock_vertex(m.corner_ids()[7]).unwrap();
        let mut ctx = m.make_ctx(0);
        // the center needs every corner: must conflict
        match ctx.insert([0.5, 0.5, 0.5], VertexKind::Circumcenter) {
            Err(OpError::Conflict { owner, .. }) => assert_eq!(owner, 1),
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(ctx.locks_held(), 0);
        assert_eq!(m.num_alive_cells(), 6); // untouched
        other.unlock_all();
        // and succeeds once the lock is gone
        ctx.insert([0.5, 0.5, 0.5], VertexKind::Circumcenter)
            .unwrap();
        m.check_delaunay().unwrap();
    }

    #[test]
    fn cospherical_grid_insertions() {
        // grid points create many exactly-cospherical configurations; the
        // zero-is-outside policy plus coplanar repair must keep everything
        // valid.
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        for x in 1..4 {
            for y in 1..4 {
                for z in 1..4 {
                    let p = [x as f64 / 4.0, y as f64 / 4.0, z as f64 / 4.0];
                    ctx.insert(p, VertexKind::Circumcenter).unwrap();
                }
            }
        }
        m.check_adjacency().unwrap();
        m.check_orientation().unwrap();
        m.check_delaunay().unwrap();
        assert!((m.total_volume() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scratch_reuse_counters_advance() {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        let r = ctx
            .insert([0.5, 0.5, 0.5], VertexKind::Circumcenter)
            .unwrap();
        ctx.recycle_insert(r);
        let first = ctx.take_scratch_stats();
        assert!(first.allocs > 0, "cold buffers must be counted");
        let r = ctx
            .insert([0.25, 0.25, 0.25], VertexKind::Circumcenter)
            .unwrap();
        ctx.recycle_insert(r);
        let second = ctx.take_scratch_stats();
        assert!(second.reuses > 0, "warm buffers must be reused");
        assert_eq!(second.allocs, 0, "no cold buffers on the second op");
    }

    #[test]
    fn staged_predicate_counters_advance() {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        ctx.insert([0.3, 0.4, 0.5], VertexKind::Circumcenter)
            .unwrap();
        let st = ctx.take_pred_stats();
        assert!(st.orient_total() > 0);
        assert!(st.insphere_total() > 0);
        assert!(
            st.orient_semi_static + st.insphere_semi_static > 0,
            "generic insertion must hit the semi-static stage"
        );
        assert_eq!(ctx.take_pred_stats(), Default::default());
    }
}
