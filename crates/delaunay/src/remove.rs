//! Speculative Delaunay vertex removal.
//!
//! Removal is the operation that distinguishes PI2M from prior parallel
//! refiners (paper §1: "none of the parallel Delaunay refinement algorithms
//! support point removals"). The ball `B(p)` — all cells incident to `p` —
//! is gathered under vertex locks, and the star-shaped hole it leaves is
//! filled **directly**: the link faces start out as open faces, and each open
//! face is closed by gift-wrapping — among the link vertices strictly on its
//! inner side, the apex is the one whose perturbed circumsphere contains none
//! of the others. The new cell's other three faces either close an open face
//! already waiting in the open-face map or become open themselves; the hole
//! is filled when no open face remains. Only the cells that get glued are
//! ever built.
//!
//! Every in-sphere test runs under the **global** vertex-id SoS keys, and the
//! SoS-Delaunay triangulation of a vertex set is unique, so the fill is
//! exactly the part of `DT(S ∖ {p})` inside the hole whatever order the faces
//! are visited in — the property the paper's §4.2 buys by re-inserting the
//! link vertices into a local triangulation in global timestamp order.
//!
//! [`OpError::RemovalBlocked`] now means the fill could not be completed: an
//! open face with no link vertex strictly on its inner side, a face that
//! would get a third incident cell, or a closed fill whose volume is not the
//! ball's (faces match by unordered key, so a cell on the wrong side of one
//! would otherwise pass). None can happen while the mesh is the SoS-Delaunay
//! triangulation of its vertices; the typed error stays so that a broken
//! invariant abandons the operation (mesh untouched) instead of gluing a bad
//! fill.
//!
//! All transient buffers live in the per-worker [`KernelScratch`] arena and
//! are reused across removals.

use crate::ids::{CellId, VertexId, VertexKind, NONE};
use crate::mesh::{KernelError, OpCtx, OpError, RemoveResult};
use crate::scratch::KernelScratch;
use pi2m_faults::{sites, Injected};
use pi2m_geometry::{signed_volume, Point3, TET_FACES};
use std::collections::hash_map::Entry;

/// Neighbor specification of a planned fill cell.
#[derive(Clone, Copy)]
pub(crate) enum Nb {
    /// Another fill cell (index into the plan list).
    Region(usize),
    /// The outside cell across a link face (index into the link-face list).
    Link(usize),
}

/// Who waits on the far side of an open face of the partly filled hole.
#[derive(Clone, Copy)]
pub(crate) enum FaceOwner {
    /// The outside cell across this link face (index into the link-face list).
    Link(usize),
    /// Face `slot` of fill cell `plan` (index into the plan list).
    Cell { plan: usize, slot: usize },
}

/// A fully planned removal, locks held, not yet committed. Made by
/// `prepare_remove`; then `commit_remove` or [`OpCtx::abort`]. Every
/// fallible lookup (back-pointers, wall owners) is resolved here so the
/// commit phase cannot fail.
pub(crate) struct PreparedRemove {
    vertex: VertexId,
    ball: Vec<CellId>,
    link_faces: Vec<LinkFace>,
    plans: Vec<([VertexId; 4], [Nb; 4])>,
    /// For each link face, the plan index of the fill cell realizing it.
    wall_owner: Vec<usize>,
}

/// What lies across a face of the ball boundary (the link of `p`).
pub(crate) struct LinkFace {
    /// The cell outside the ball across this face (`NONE` on the hull).
    outside: CellId,
    /// Which face of `outside` points back into the ball (0 on the hull,
    /// where it is unused). Resolved during prepare so commit cannot fail.
    out_face: usize,
}

fn face_key(f: [u32; 3]) -> (u32, u32, u32) {
    let mut t = f;
    t.sort_unstable();
    (t[0], t[1], t[2])
}

impl OpCtx<'_> {
    /// Remove vertex `v`, re-triangulating its ball. On any error the
    /// operation has been rolled back (no locks held, no structural change).
    pub fn remove(&mut self, v: VertexId) -> Result<RemoveResult, OpError> {
        let prep = self.prepare_remove(v)?;
        // Injection point between the phases: a `panic` here unwinds while
        // the full lock set is held; deny/fail abort the prepared removal.
        if self.has_faults() {
            match self.fault(sites::REMOVE_COMMIT) {
                Some(Injected::Deny) => {
                    self.abort();
                    return Err(self.injected_conflict(v));
                }
                Some(Injected::Fail) => {
                    self.abort();
                    return Err(OpError::Kernel(KernelError::Injected));
                }
                None => {}
            }
        }
        let res = self.commit_remove(prep);
        self.unlock_all();
        Ok(res)
    }

    /// Planning phase: gather and lock the ball, fill the hole it leaves,
    /// resolve the glue. On error everything is rolled back; on success
    /// locks stay held until `commit_remove` + `unlock_all` or `abort`.
    fn prepare_remove(&mut self, v: VertexId) -> Result<PreparedRemove, OpError> {
        if self.has_faults() {
            match self.fault(sites::REMOVE_PREPARE) {
                Some(Injected::Deny) => return Err(self.injected_conflict(v)),
                Some(Injected::Fail) => return Err(OpError::Kernel(KernelError::Injected)),
                None => {}
            }
        }
        // The arena travels out of the context for the duration of the
        // phase; a panic mid-phase leaves a fresh default arena behind.
        let mut s = std::mem::take(&mut self.scratch);
        let r = self.prepare_remove_inner(v, &mut s);
        self.scratch = s;
        if r.is_err() {
            self.unlock_all();
        }
        r
    }

    fn prepare_remove_inner(
        &mut self,
        v: VertexId,
        s: &mut KernelScratch,
    ) -> Result<PreparedRemove, OpError> {
        s.begin_remove();
        {
            let vx = self.mesh.vertex(v);
            if !vx.is_alive() || vx.kind() == VertexKind::BoxCorner {
                return Err(OpError::Degenerate);
            }
        }
        // find a seed incident cell before taking any locks
        let seed = self.incident_cell(v).ok_or(OpError::Degenerate)?;
        debug_assert_eq!(self.locks_held(), 0);

        self.lock_vertex(v)?;

        // ---- gather the ball under locks ----
        {
            let cell = self.mesh.cell(seed);
            for k in 0..4 {
                self.lock_vertex(cell.vert(k))?;
            }
            if !cell.is_alive() || !cell.has_vertex(v) {
                return Err(OpError::Degenerate); // stale seed; caller retries
            }
        }
        s.ball.push(seed);
        s.in_ball.insert(seed.0);
        let mut qi = 0;
        while qi < s.ball.len() {
            let c = s.ball[qi];
            qi += 1;
            let vi = match self.mesh.cell(c).index_of(v) {
                Some(vi) => vi,
                None => return Err(OpError::Kernel(KernelError::BallLostVertex)),
            };
            for i in 0..4 {
                if i == vi {
                    continue; // link face: neighbor not in ball
                }
                let n = self.mesh.cell(c).nei(i);
                debug_assert!(!n.is_none(), "interior vertex with hull face");
                if n.is_none() || s.in_ball.contains(&n.0) {
                    continue;
                }
                let ncell = self.mesh.cell(n);
                for k in 0..4 {
                    self.lock_vertex(ncell.vert(k))?;
                }
                debug_assert!(ncell.is_alive() && ncell.has_vertex(v));
                s.in_ball.insert(n.0);
                s.ball.push(n);
            }
        }

        // ---- link vertices (ids double as SoS keys) & link faces ----
        s.link_faces.reserve(s.ball.len());
        for ci in 0..s.ball.len() {
            let c = s.ball[ci];
            let cell = self.mesh.cell(c);
            let vi = match cell.index_of(v) {
                Some(vi) => vi,
                None => return Err(OpError::Kernel(KernelError::BallLostVertex)),
            };
            let mut local = [0u32; 4];
            for (k, slot) in local.iter_mut().enumerate() {
                if k == vi {
                    continue;
                }
                let u = cell.vert(k);
                *slot = *s.link_index.entry(u.0).or_insert_with(|| {
                    s.link_verts.push(u);
                    s.link_pos.push(self.mesh.pos3(u));
                    (s.link_verts.len() - 1) as u32
                });
            }
            let f = TET_FACES[vi];
            let outside = cell.nei(vi);
            let out_face = if outside.is_none() {
                0
            } else {
                match self.mesh.cell(outside).face_to(c) {
                    Some(j) => j,
                    None => return Err(OpError::Kernel(KernelError::MissingBackPointer)),
                }
            };
            // every link face starts out open; `TET_FACES[vi]` has `p` on
            // its positive side
            let verts = [local[f[0]], local[f[1]], local[f[2]]];
            let open = Some(FaceOwner::Link(s.link_faces.len()));
            if s.open_faces.insert(face_key(verts), open).is_some() {
                return Err(OpError::RemovalBlocked); // duplicate link face
            }
            s.open_stack.push(verts);
            s.link_faces.push(LinkFace { outside, out_face });
        }
        s.wall_owner.resize(s.link_faces.len(), usize::MAX);

        // ---- gift-wrap inward until no face is open ----
        while let Some(f) = s.open_stack.pop() {
            // closed by a cell built since it was pushed?
            let Some(owner) = s.open_faces.get_mut(&face_key(f)).and_then(Option::take) else {
                continue;
            };
            let apex = self.fill_apex(s, f).ok_or(OpError::RemovalBlocked)?;
            let ri = s.plans.len();
            let local = [f[0], f[1], f[2], apex];
            let mut nbs = [Nb::Region(usize::MAX); 4];
            nbs[3] = attach(s, owner, ri);
            for (i, tf) in TET_FACES.iter().enumerate().take(3) {
                // `TET_FACES` faces have the cell on their positive side
                let side = [local[tf[0]], local[tf[1]], local[tf[2]]];
                let waiting = match s.open_faces.entry(face_key(side)) {
                    Entry::Occupied(mut e) => Some(e.get_mut().take()),
                    Entry::Vacant(e) => {
                        e.insert(Some(FaceOwner::Cell { plan: ri, slot: i }));
                        None
                    }
                };
                match waiting {
                    Some(Some(other)) => nbs[i] = attach(s, other, ri),
                    Some(None) => return Err(OpError::RemovalBlocked), // third cell
                    // reversed: the positive side is the still-empty side
                    None => s.open_stack.push([side[0], side[2], side[1]]),
                }
            }
            s.plans.push((local.map(|l| s.link_verts[l as usize]), nbs));
        }
        // ~1 µs per removal; the last guard before the commit phase
        if !self.fill_volume_matches(s) {
            debug_assert!(false, "fill does not tile the ball of {v:?}");
            return Err(OpError::RemovalBlocked);
        }

        Ok(PreparedRemove {
            vertex: v,
            ball: std::mem::take(&mut s.ball),
            link_faces: std::mem::take(&mut s.link_faces),
            plans: std::mem::take(&mut s.plans),
            wall_owner: std::mem::take(&mut s.wall_owner),
        })
    }

    /// The apex of the fill cell on the positive side of open face `f`: of
    /// the link vertices strictly on that side, the one whose perturbed
    /// circumsphere (with `f`) contains none of the others. Spheres through
    /// `f` are totally ordered on one side of its plane, so one pass keeping
    /// the current best suffices.
    fn fill_apex(&mut self, s: &KernelScratch, f: [u32; 3]) -> Option<u32> {
        let [a, b, c] = f.map(|l| s.link_pos[l as usize]);
        let key = |l: u32| s.link_verts[l as usize].0 as u64;
        let mut best: Option<u32> = None;
        for e in 0..s.link_verts.len() as u32 {
            if f.contains(&e) {
                continue;
            }
            let pe = &s.link_pos[e as usize];
            if self.orient3d_st(&a, &b, &c, pe) <= 0.0 {
                continue;
            }
            if let Some(d) = best {
                let keys = [key(f[0]), key(f[1]), key(f[2]), key(d), key(e)];
                if self.insphere_sos_st(&a, &b, &c, &s.link_pos[d as usize], pe, keys) <= 0 {
                    continue;
                }
            }
            best = Some(e);
        }
        best
    }

    /// Volume identity: the planned fill tiles exactly the ball.
    fn fill_volume_matches(&self, s: &KernelScratch) -> bool {
        let vol = |p: [Point3; 4]| signed_volume(p[0], p[1], p[2], p[3]);
        let ball: f64 = s.ball.iter().map(|&c| vol(self.mesh.cell_points(c))).sum();
        let fill: f64 = s
            .plans
            .iter()
            .map(|(verts, _)| vol(verts.map(|u| self.mesh.position(u))))
            .sum();
        (fill - ball).abs() <= 1e-9 * ball.abs().max(1e-12)
    }

    /// Commit a prepared removal: activate the fill cells, rewire adjacency,
    /// kill the ball, mark the vertex dead. Infallible under the held locks.
    fn commit_remove(&mut self, prep: PreparedRemove) -> RemoveResult {
        let mut s = std::mem::take(&mut self.scratch);
        let res = self.commit_remove_inner(prep, &mut s);
        self.scratch = s;
        res
    }

    fn commit_remove_inner(&mut self, prep: PreparedRemove, s: &mut KernelScratch) -> RemoveResult {
        let PreparedRemove {
            vertex: v,
            ball,
            link_faces,
            plans,
            wall_owner,
        } = prep;
        let mut new_ids = s.take_cells_buf();
        new_ids.extend(
            plans
                .iter()
                .map(|_| self.mesh.cells.reserve(&mut self.free_cells)),
        );
        for (ri, (verts, nbs)) in plans.iter().enumerate() {
            let mut neis = [CellId(NONE); 4];
            for (i, nb) in nbs.iter().enumerate() {
                match nb {
                    Nb::Region(rj) => neis[i] = new_ids[*rj],
                    Nb::Link(fi) => neis[i] = link_faces[*fi].outside,
                }
            }
            self.mesh.cells.activate(new_ids[ri], *verts, neis);
        }
        // outside back-pointers (owners and faces resolved during prepare)
        for (fi, lf) in link_faces.iter().enumerate() {
            if lf.outside.is_none() {
                continue;
            }
            self.mesh
                .cell(lf.outside)
                .set_nei(lf.out_face, new_ids[wall_owner[fi]]);
        }
        let mut killed = s.take_cells_buf();
        killed.extend_from_slice(&ball);
        for &c in &ball {
            self.mesh.cells.free(c, &mut self.free_cells);
        }
        self.mesh.vertex(v).mark_dead();
        for (ri, (verts, _)) in plans.iter().enumerate() {
            for u in verts {
                self.mesh.vertex(*u).set_hint(new_ids[ri]);
            }
        }
        self.mesh.set_recent(new_ids[0]);
        // the removed vertex's position indexes the ball the new cells fill;
        // the hint vertex must be a survivor, so take one from a new cell
        let hint_v = self.mesh.cell(new_ids[0]).vert(0);
        self.note_cell_at(new_ids[0], &self.mesh.pos3(v), hint_v);

        // the planning buffers return to the arena for the next removal
        s.put_remove_bufs(ball, link_faces, plans, wall_owner);

        RemoveResult {
            removed: v,
            created: new_ids,
            killed,
        }
    }
}

/// Glue fill cell `ri` to whoever owned the open face it just closed:
/// record `ri` on the owner's side and return the owner as `ri`'s neighbor.
fn attach(s: &mut KernelScratch, owner: FaceOwner, ri: usize) -> Nb {
    match owner {
        FaceOwner::Link(fi) => {
            s.wall_owner[fi] = ri;
            Nb::Link(fi)
        }
        FaceOwner::Cell { plan, slot } => {
            s.plans[plan].1[slot] = Nb::Region(ri);
            Nb::Region(plan)
        }
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

    fn rand_seq(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn insert_then_remove_restores_structure() {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        let r = ctx
            .insert([0.4, 0.5, 0.6], VertexKind::Circumcenter)
            .unwrap();
        let before = m.num_alive_cells();
        assert!(before > 6);
        let rr = ctx.remove(r.vertex).unwrap();
        assert_eq!(rr.removed, r.vertex);
        assert!(!m.vertex(r.vertex).is_alive());
        assert_eq!(m.num_alive_cells(), 6); // back to the box subdivision
        m.check_adjacency().unwrap();
        m.check_orientation().unwrap();
        m.check_delaunay_sos().unwrap();
        assert!((m.total_volume() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn remove_box_corner_refused() {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        assert_eq!(ctx.remove(m.corner_ids()[0]), Err(OpError::Degenerate));
        assert_eq!(m.num_alive_cells(), 6);
    }

    #[test]
    fn random_insertions_and_removals_stay_delaunay() {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        let mut next = rand_seq(777);
        let mut inserted = Vec::new();
        for _ in 0..120 {
            let p = [
                next() * 0.96 + 0.02,
                next() * 0.96 + 0.02,
                next() * 0.96 + 0.02,
            ];
            inserted.push(ctx.insert(p, VertexKind::Circumcenter).unwrap().vertex);
        }
        // remove every third vertex
        let mut removed = 0;
        let mut blocked = 0;
        for (i, &v) in inserted.iter().enumerate() {
            if i % 3 == 0 {
                match ctx.remove(v) {
                    Ok(_) => removed += 1,
                    Err(OpError::RemovalBlocked) => blocked += 1,
                    Err(e) => panic!("unexpected removal error {e:?}"),
                }
            }
        }
        assert!(removed > 0, "no removal succeeded ({blocked} blocked)");
        assert!(
            blocked <= removed / 4,
            "too many blocked removals: {blocked} vs {removed}"
        );
        m.check_adjacency().unwrap();
        m.check_orientation().unwrap();
        m.check_delaunay_sos().unwrap();
        assert!((m.total_volume() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn remove_conflict_rolls_back() {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        let r = ctx
            .insert([0.5, 0.5, 0.25], VertexKind::Circumcenter)
            .unwrap();
        let mut other = m.make_ctx(1);
        other.lock_vertex(m.corner_ids()[0]).unwrap();
        match ctx.remove(r.vertex) {
            Err(OpError::Conflict { owner, .. }) => assert_eq!(owner, 1),
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(ctx.locks_held(), 0);
        assert!(m.vertex(r.vertex).is_alive());
        other.unlock_all();
        ctx.remove(r.vertex).unwrap();
        m.check_delaunay_sos().unwrap();
    }

    #[test]
    fn interleaved_insert_remove_cycles() {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        let mut next = rand_seq(31);
        for round in 0..10 {
            let mut vs = Vec::new();
            for _ in 0..12 {
                let p = [
                    next() * 0.9 + 0.05,
                    next() * 0.9 + 0.05,
                    next() * 0.9 + 0.05,
                ];
                vs.push(ctx.insert(p, VertexKind::Circumcenter).unwrap().vertex);
            }
            for v in vs.into_iter().step_by(2) {
                let _ = ctx.remove(v);
            }
            m.check_adjacency()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            m.check_delaunay_sos()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
        assert!((m.total_volume() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scratch_footprint_stabilizes_over_cycles() {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        let mut next = rand_seq(4242);
        let cycle = |ctx: &mut crate::mesh::OpCtx, next: &mut dyn FnMut() -> f64| {
            let mut vs = Vec::new();
            for _ in 0..16 {
                let p = [
                    next() * 0.9 + 0.05,
                    next() * 0.9 + 0.05,
                    next() * 0.9 + 0.05,
                ];
                if let Ok(r) = ctx.insert(p, VertexKind::Circumcenter) {
                    vs.push(r.vertex);
                    ctx.recycle_insert(r);
                }
            }
            for v in vs {
                if let Ok(r) = ctx.remove(v) {
                    ctx.recycle_remove(r);
                }
            }
        };
        for _ in 0..3 {
            cycle(&mut ctx, &mut next);
        }
        let warm = ctx.scratch_footprint();
        assert!(warm > 0);
        for _ in 0..5 {
            cycle(&mut ctx, &mut next);
        }
        // similar workload on warm buffers: the high-water mark may still
        // creep a little but must not keep growing proportionally
        let after = ctx.scratch_footprint();
        assert!(
            after <= warm * 3,
            "scratch footprint kept growing: {warm} -> {after}"
        );
        let st = ctx.take_scratch_stats();
        assert!(st.reuses > st.allocs, "warm phase must be reuse-dominated");
    }
}
