//! Point location by randomized remembering stochastic walk.
//!
//! The walk reads generation-validated snapshots without locks, moving
//! through the face whose plane separates the current cell from the query
//! point (robust orientation tests, randomized face order to escape
//! degenerate cycles). Under concurrency a snapshot may be stale; staleness
//! only misroutes the walk, never corrupts it — the caller re-validates the
//! final cell under vertex locks.

use crate::ids::{CellId, VertexId, NONE};
use crate::mesh::{KernelError, OpCtx, OpError, RECENT_RING};
use pi2m_faults::{sites, Injected};
use pi2m_geometry::TET_FACES;

/// Max steps before the walk restarts from a fresh cell.
const MAX_STEPS: usize = 100_000;
/// Max restarts before giving up (treated as a degenerate skip).
const MAX_RESTARTS: usize = 32;

impl OpCtx<'_> {
    /// Find the alive cell containing `p` (non-strictly: boundary counts),
    /// lock its 4 vertices, and validate under the locks.
    ///
    /// On success the located cell's vertices are in the lock set and the
    /// cell is alive and genuinely contains `p`. Errors:
    /// * [`OpError::Conflict`] — a lock could not be taken (rollback);
    /// * [`OpError::OutsideDomain`] — `p` lies outside the virtual box;
    /// * [`OpError::Degenerate`] — the walk could not converge.
    pub(crate) fn locate(&mut self, p: [f64; 3]) -> Result<CellId, OpError> {
        if !self
            .mesh
            .bbox()
            .contains(pi2m_geometry::Point3::from_array(p))
        {
            return Err(OpError::OutsideDomain);
        }
        if self.has_faults() {
            match self.fault(sites::WALK_LOCATE) {
                Some(Injected::Deny) => return Err(self.injected_conflict(VertexId(NONE))),
                Some(Injected::Fail) => return Err(OpError::Kernel(KernelError::Injected)),
                None => {}
            }
        }
        self.walk_stats.locates += 1;
        let mut restarts = 0usize;
        let mut cur = self.walk_start(&p)?;
        // Remembering walk: the cell we just came from. Its shared face
        // cannot separate `cur` from `p` (we crossed it because `p` lies on
        // `cur`'s side), so the test is skipped. Reset on every restart.
        let mut prev = CellId(NONE);
        'outer: loop {
            if restarts > MAX_RESTARTS {
                return Err(OpError::Degenerate);
            }
            let mut steps = 0usize;
            loop {
                steps += 1;
                self.walk_stats.steps += 1;
                if steps > MAX_STEPS {
                    restarts += 1;
                    cur = self.restart_cell()?;
                    prev = CellId(NONE);
                    continue 'outer;
                }
                let snap = match self.snap(cur) {
                    Some(s) => s,
                    None => {
                        restarts += 1;
                        cur = self.restart_cell()?;
                        prev = CellId(NONE);
                        continue 'outer;
                    }
                };
                let pos = [
                    self.mesh.pos3(snap.verts[0]),
                    self.mesh.pos3(snap.verts[1]),
                    self.mesh.pos3(snap.verts[2]),
                    self.mesh.pos3(snap.verts[3]),
                ];
                let rot = (self.next_rand() % 4) as usize;
                let mut inside = true;
                for k in 0..4 {
                    let i = (k + rot) % 4;
                    let n = snap.neis[i];
                    if !prev.is_none() && n == prev {
                        continue;
                    }
                    let f = TET_FACES[i];
                    let s = self.orient3d_st(&pos[f[0]], &pos[f[1]], &pos[f[2]], &p);
                    if s < 0.0 {
                        if n.is_none() {
                            // Genuine hull exit: the box hull is static, so a
                            // consistent snapshot with an outward-separating
                            // hull face means p is outside the box.
                            return Err(OpError::OutsideDomain);
                        }
                        prev = cur;
                        cur = n;
                        inside = false;
                        break;
                    }
                }
                if !inside {
                    continue;
                }
                // Candidate found: lock and validate.
                match self.validate_candidate(cur, snap.gen, &p) {
                    Ok(true) => {
                        self.note_cell_at(cur, &p, snap.verts[0]);
                        return Ok(cur);
                    }
                    Ok(false) => {
                        // state changed under us; retry from scratch
                        restarts += 1;
                        cur = self.restart_cell()?;
                        prev = CellId(NONE);
                        continue 'outer;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }

    /// Lock the candidate's vertices and confirm it is still the same alive
    /// incarnation and contains `p`. `Ok(false)` = stale, retry walk.
    ///
    /// On `Ok(false)` the locks taken for the candidate are released only if
    /// the caller holds nothing else (locate is always the first phase of an
    /// operation, so the lock set is exactly the candidate's vertices).
    fn validate_candidate(&mut self, c: CellId, gen: u32, p: &[f64; 3]) -> Result<bool, OpError> {
        let cell = self.mesh.cell(c);
        for k in 0..4 {
            if let Err(e) = self.lock_vertex(cell.vert(k)) {
                self.unlock_all();
                return Err(e);
            }
        }
        if !cell.is_alive() || cell.gen() != gen {
            self.unlock_all();
            return Ok(false);
        }
        // containment under locks (positions immutable, structure frozen)
        let pos = [
            self.mesh.pos3(cell.vert(0)),
            self.mesh.pos3(cell.vert(1)),
            self.mesh.pos3(cell.vert(2)),
            self.mesh.pos3(cell.vert(3)),
        ];
        // All four face tests are normally needed on the accept path, so
        // evaluating them as one 4-lane wave trades a per-face early exit
        // (which only pays off on stale candidates) for lane overlap.
        let tris = [
            [
                pos[TET_FACES[0][0]],
                pos[TET_FACES[0][1]],
                pos[TET_FACES[0][2]],
            ],
            [
                pos[TET_FACES[1][0]],
                pos[TET_FACES[1][1]],
                pos[TET_FACES[1][2]],
            ],
            [
                pos[TET_FACES[2][0]],
                pos[TET_FACES[2][1]],
                pos[TET_FACES[2][2]],
            ],
            [
                pos[TET_FACES[3][0]],
                pos[TET_FACES[3][1]],
                pos[TET_FACES[3][2]],
            ],
        ];
        let mut dets = [0.0f64; 4];
        pi2m_predicates::orient3d_batch4(
            self.mesh.semi_static_bounds(),
            &mut self.pred_stats,
            &mut self.batch_stats,
            &tris,
            p,
            &mut dets,
        );
        if dets.iter().any(|&d| d < 0.0) {
            self.unlock_all();
            return Ok(false);
        }
        Ok(true)
    }

    /// Starting cell for a walk: the shared hint grid's slot for `p` (the
    /// best query-specific start — some worker recently touched a cell right
    /// there), then the thread's last cell, then the per-thread ring of
    /// recently touched cells (locality cache: the cells this worker just
    /// created are the likeliest neighborhood of its next query), then the
    /// globally recent cell, else a random alive cell.
    fn walk_start(&mut self, p: &[f64; 3]) -> Result<CellId, OpError> {
        for level in 0..self.mesh.grid_levels() {
            let hv = self.mesh.grid_hint(level, p);
            if hv.0 == NONE {
                continue;
            }
            let vert = self.mesh.vertex(hv);
            if !vert.is_alive() {
                continue;
            }
            let c = vert.hint();
            if self.snap(c).is_some() {
                return Ok(c);
            }
        }
        if self.snap(self.last_cell).is_some() {
            return Ok(self.last_cell);
        }
        for i in 0..RECENT_RING {
            let c = self.recent_ring[i];
            if self.snap(c).is_some() {
                return Ok(c);
            }
        }
        let r = self.mesh.recent_cell();
        if self.snap(r).is_some() {
            return Ok(r);
        }
        self.restart_cell()
    }

    /// A fresh cell to restart a walk from, as a typed error when the
    /// triangulation holds no alive cells at all (a state only reachable
    /// through corruption — surfaced instead of panicking).
    fn restart_cell(&mut self) -> Result<CellId, OpError> {
        self.random_alive_cell()
            .ok_or(OpError::Kernel(KernelError::NoAliveCells))
    }

    /// Sample a random alive cell (bounded rejection sampling with a linear
    /// fallback — the fallback only triggers in pathological states).
    pub(crate) fn random_alive_cell(&mut self) -> Option<CellId> {
        let n = self.mesh.cells.len() as u64;
        debug_assert!(n > 0);
        for _ in 0..128 {
            let c = CellId((self.next_rand() % n) as u32);
            if self.mesh.cells.cell(c).is_alive() {
                return Some(c);
            }
        }
        self.mesh.cells.alive_ids().next()
    }

    /// Locate without locking (for read-only queries, quiescent state): the
    /// id of an alive cell containing `p`, if any.
    pub fn locate_readonly(&mut self, p: [f64; 3]) -> Option<CellId> {
        match self.locate(p) {
            Ok(c) => {
                self.unlock_all();
                Some(c)
            }
            Err(_) => None,
        }
    }

    /// Find a cell incident to vertex `v`, starting from its hint
    /// (lock-free; used as the seed for ball gathering).
    pub(crate) fn incident_cell(&mut self, v: VertexId) -> Option<CellId> {
        // Fast path: the stored hint.
        let h = self.mesh.vertex(v).hint();
        if let Some(s) = self.snap(h) {
            if s.verts.contains(&v) {
                return Some(h);
            }
        }
        // Walk to the vertex position; the arrival cell is incident or a
        // neighbor of an incident cell.
        let p = self.mesh.pos3(v);
        let c = self.locate_readonly(p)?;
        if let Some(s) = self.snap(c) {
            if s.verts.contains(&v) {
                return Some(c);
            }
            for n in s.neis {
                if let Some(sn) = self.snap(n) {
                    if sn.verts.contains(&v) {
                        return Some(n);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use crate::mesh::{OpError, SharedMesh};
    use pi2m_geometry::{Aabb, Point3, TET_FACES};

    fn unit_mesh() -> SharedMesh {
        SharedMesh::with_box(Aabb::new(Point3::ORIGIN, Point3::new(1.0, 1.0, 1.0)))
    }

    #[test]
    fn locate_center() {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        let c = ctx.locate([0.3, 0.4, 0.5]).unwrap();
        // validated: cell contains the point
        let pos: Vec<[f64; 3]> = (0..4).map(|i| m.pos3(m.cell(c).vert(i))).collect();
        for f in TET_FACES {
            assert!(
                pi2m_geometry::orient3d(&pos[f[0]], &pos[f[1]], &pos[f[2]], &[0.3, 0.4, 0.5])
                    >= 0.0
            );
        }
        assert_eq!(ctx.locks_held(), 4);
        ctx.unlock_all();
    }

    #[test]
    fn locate_outside_box() {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        assert_eq!(ctx.locate([1.5, 0.5, 0.5]), Err(OpError::OutsideDomain));
        assert_eq!(ctx.locks_held(), 0);
    }

    #[test]
    fn locate_conflict_rolls_back() {
        let m = unit_mesh();
        let mut other = m.make_ctx(1);
        // lock every corner with another thread
        for v in m.corner_ids() {
            other.lock_vertex(v).unwrap();
        }
        let mut ctx = m.make_ctx(0);
        match ctx.locate([0.5, 0.5, 0.5]) {
            Err(OpError::Conflict { owner, .. }) => assert_eq!(owner, 1),
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(ctx.locks_held(), 0);
        other.unlock_all();
    }

    #[test]
    fn incident_cell_via_hint() {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        for v in m.corner_ids() {
            let c = ctx.incident_cell(v).unwrap();
            assert!(m.cell(c).has_vertex(v));
        }
    }

    #[test]
    fn locate_on_shared_face_is_ok() {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        // the main diagonal is shared by all 6 tets; a point on it is on
        // cell boundaries — location must still succeed
        let c = ctx.locate([0.5, 0.5, 0.5]).unwrap();
        assert!(m.cell(c).is_alive());
        ctx.unlock_all();
    }
}
