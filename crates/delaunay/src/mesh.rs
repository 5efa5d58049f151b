//! The shared concurrent triangulation and per-thread operation contexts.
//!
//! ## Locking protocol (paper §4.2)
//!
//! Every vertex *touched* by an operation — the vertices of every cavity/ball
//! cell — must be speculatively locked by the operating thread. A failed
//! try-lock aborts the operation (a **rollback**): all held locks are
//! released, no structural change has been made (structure is only mutated in
//! the commit phase, which runs entirely under a complete lock set), and the
//! conflicting thread's id is reported to the contention manager.
//!
//! Structural invariants protected by the protocol:
//!
//! * killing a cell or creating one requires holding all 4 of its vertices;
//! * rewiring a live cell's neighbor pointer across face `f` requires holding
//!   the 3 vertices of `f`;
//! * vertex positions/kinds are immutable after allocation;
//! * all live cells are positively oriented (`orient3d(v0,v1,v2,v3) > 0`).
//!
//! Lock-free readers (point-location walks) read generation-validated
//! [`CellSnap`]s and re-validate under locks before the cavity is used, so
//! races are benign.

use crate::boxinit::{box_mesh, virtual_box};
use crate::ids::{CellId, VertexId, VertexKind, NONE};
use crate::pool::{Cell, CellPool, CellSnap, Vertex, VertexPool, MAX_LOCK_TIDS};
use crate::scratch::{KernelScratch, ScratchStats};
use pi2m_faults::{sites, FaultPlan, Injected};
use pi2m_geometry::{orient3d_sign, signed_volume, Aabb, Point3, TET_FACES};
use pi2m_predicates::{BatchStats, FilterStats, SemiStaticBounds};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Size of the per-worker recent-cell ring consulted when a walk needs a
/// starting cell and `last_cell` is stale.
pub(crate) const RECENT_RING: usize = 4;

/// A kernel invariant that should be unreachable was observed broken mid
/// operation. These replace panic-as-control-flow in the insert/remove/walk
/// hot paths: instead of tearing down the process, the operation is abandoned
/// (locks released, nothing mutated) and the refinement engine quarantines
/// the work item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// A cell adjacent to the cavity/ball lacks a back-pointer to it.
    MissingBackPointer,
    /// A gathered ball cell no longer contains the vertex being removed.
    BallLostVertex,
    /// The triangulation has no alive cells to walk from.
    NoAliveCells,
    /// A synthetic failure forced by the fault-injection plan.
    Injected,
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::MissingBackPointer => write!(f, "neighbor lacks a back-pointer"),
            KernelError::BallLostVertex => write!(f, "ball cell lost its removal vertex"),
            KernelError::NoAliveCells => write!(f, "triangulation has no alive cells"),
            KernelError::Injected => write!(f, "synthetic fault-plan failure"),
        }
    }
}

impl std::error::Error for KernelError {}

/// Why an operation did not complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpError {
    /// Speculative conflict: a touched vertex is locked by thread `owner`.
    /// The operation rolled back; the contention manager decides what next.
    /// `vertex` is the contested vertex.
    Conflict { owner: u32, vertex: VertexId },
    /// The point lies outside the triangulated virtual box; the refinement
    /// rule proposing it is skipped.
    OutsideDomain,
    /// The point coincides exactly with an existing vertex.
    Duplicate(VertexId),
    /// The hole left by a removal could not be filled (see `remove.rs`): a
    /// broken SoS-Delaunay invariant, never a legitimate input. The vertex
    /// stays and nothing was mutated.
    RemovalBlocked,
    /// Unrecoverable geometric degeneracy for this element; skip it.
    Degenerate,
    /// The cell this insertion was the remedy for died before the cavity was
    /// locked ([`OpCtx::insert_for`]); nothing was mutated.
    Stale,
    /// A broken internal invariant (see [`KernelError`]); the operation was
    /// abandoned without structural change and the element should be
    /// quarantined by the caller.
    Kernel(KernelError),
}

/// Result of a successful insertion.
#[derive(Debug, PartialEq)]
pub struct InsertResult {
    pub vertex: VertexId,
    pub created: Vec<CellId>,
    pub killed: Vec<CellId>,
}

/// Result of a successful removal.
#[derive(Debug, PartialEq)]
pub struct RemoveResult {
    pub removed: VertexId,
    pub created: Vec<CellId>,
    pub killed: Vec<CellId>,
}

/// Side lengths (in slots) of the shared walk-hint grid levels, finest
/// first: a 32³ + 16³ + 8³ mip pyramid (~150 KiB of hints) over the virtual
/// box. A query probes fine→coarse, so sparse meshes (or never-touched fine
/// slots) degrade to coarser, warmer levels instead of a cold random start.
const HINT_GRID_DIMS: [usize; 3] = [32, 16, 8];

/// Flat-array offset of each hint-grid level (finest at 0).
const fn hint_level_offsets() -> [usize; 3] {
    let mut off = [0usize; 3];
    let mut i = 1;
    while i < 3 {
        let d = HINT_GRID_DIMS[i - 1];
        off[i] = off[i - 1] + d * d * d;
        i += 1;
    }
    off
}
const HINT_LEVEL_OFFSETS: [usize; 3] = hint_level_offsets();
const HINT_GRID_SLOTS: usize = {
    let d = HINT_GRID_DIMS[2];
    HINT_LEVEL_OFFSETS[2] + d * d * d
};

/// The concurrent Delaunay triangulation of the virtual box.
pub struct SharedMesh {
    pub(crate) verts: VertexPool,
    pub(crate) cells: CellPool,
    bbox: Aabb,
    corner_ids: [VertexId; 8],
    /// A recently created cell — a always-fresh walk hint.
    recent: AtomicU32,
    /// Semi-static predicate filter bounds, computed once from the virtual
    /// box: every vertex the kernel ever tests lives inside it.
    pred_bounds: SemiStaticBounds,
    /// Shared walk-hint grid: each slot of a uniform lattice over the box
    /// holds a *vertex* recently touched near that region (relaxed atomics).
    /// Vertices are stored instead of cells because cells churn and die,
    /// while an alive vertex's own hint cell is refreshed by every commit
    /// that touches it — so even ancient slots usually resolve to an alive
    /// cell. Stale or dead hints only cost walk steps, never correctness,
    /// because `locate` validates the final cell under locks. All levels of
    /// the pyramid live in one flat array (see `HINT_LEVEL_OFFSETS`).
    hint_grid: Vec<AtomicU32>,
    /// Precomputed point→unit-lattice scale factors (`1 / extent` per axis).
    grid_scale: [f64; 3],
}

impl SharedMesh {
    /// Create the triangulation of a virtual box enclosing `domain`
    /// (inflated per DESIGN.md) and subdivide it into 6 tetrahedra
    /// (paper Figure 1a). This is the only sequential step of the pipeline.
    pub fn enclosing(domain: &Aabb) -> SharedMesh {
        Self::with_box(virtual_box(domain))
    }

    /// Create the triangulation with the exact given box.
    pub fn with_box(b: Aabb) -> SharedMesh {
        let verts = VertexPool::new();
        let cells = CellPool::new();
        // the corners' keys in `box_mesh` are the ids allocated here (0..8)
        let (corners, tets, adj) = box_mesh(&b);

        let mut corner_ids = [VertexId(NONE); 8];
        for (i, c) in corners.iter().enumerate() {
            corner_ids[i] = verts.alloc(*c, VertexKind::BoxCorner);
        }
        let mut free = Vec::new();
        let mut cell_ids = Vec::with_capacity(tets.len());
        for t in &tets {
            let vs = [
                corner_ids[t[0]],
                corner_ids[t[1]],
                corner_ids[t[2]],
                corner_ids[t[3]],
            ];
            cell_ids.push(cells.alloc(&mut free, vs, [CellId(NONE); 4]));
        }
        for (ti, na) in adj.iter().enumerate() {
            for i in 0..4 {
                if na[i] != usize::MAX {
                    cells.cell(cell_ids[ti]).set_nei(i, cell_ids[na[i]]);
                }
            }
            for k in 0..4 {
                verts
                    .vertex(cells.cell(cell_ids[ti]).vert(k))
                    .set_hint(cell_ids[ti]);
            }
        }
        let recent = AtomicU32::new(cell_ids[0].0);
        let pred_bounds = SemiStaticBounds::for_box(&b.min.to_array(), &b.max.to_array());
        let (min, max) = (b.min.to_array(), b.max.to_array());
        let mut grid_scale = [0.0; 3];
        for a in 0..3 {
            let ext = max[a] - min[a];
            grid_scale[a] = if ext > 0.0 { 1.0 / ext } else { 0.0 };
        }
        let hint_grid = (0..HINT_GRID_SLOTS).map(|_| AtomicU32::new(NONE)).collect();
        SharedMesh {
            verts,
            cells,
            bbox: b,
            corner_ids,
            recent,
            pred_bounds,
            hint_grid,
            grid_scale,
        }
    }

    /// Flat slot of `p` in the given pyramid level (clamped to the lattice).
    #[inline]
    fn grid_slot(&self, level: usize, p: &[f64; 3]) -> usize {
        let dim = HINT_GRID_DIMS[level];
        let min = self.bbox.min.to_array();
        let mut idx = 0usize;
        for a in 0..3 {
            // saturating float→usize cast clamps negatives to 0
            let t = ((p[a] - min[a]) * self.grid_scale[a] * dim as f64) as usize;
            idx = idx * dim + t.min(dim - 1);
        }
        HINT_LEVEL_OFFSETS[level] + idx
    }

    /// The hint vertex of `p`'s slot at one pyramid level (may be dead).
    #[inline]
    pub(crate) fn grid_hint(&self, level: usize, p: &[f64; 3]) -> VertexId {
        VertexId(self.hint_grid[self.grid_slot(level, p)].load(Ordering::Relaxed))
    }

    /// Number of hint-grid pyramid levels (walk probes fine→coarse).
    #[inline]
    pub(crate) fn grid_levels(&self) -> usize {
        HINT_GRID_DIMS.len()
    }

    /// Publish `v` as the hint vertex for the region around `p` at every
    /// level.
    #[inline]
    pub(crate) fn set_grid_hint(&self, p: &[f64; 3], v: VertexId) {
        for level in 0..HINT_GRID_DIMS.len() {
            self.hint_grid[self.grid_slot(level, p)].store(v.0, Ordering::Relaxed);
        }
    }

    /// The per-mesh semi-static predicate filter bounds.
    #[inline]
    pub fn semi_static_bounds(&self) -> &SemiStaticBounds {
        &self.pred_bounds
    }

    /// The virtual box.
    #[inline]
    pub fn bbox(&self) -> Aabb {
        self.bbox
    }

    /// Ids of the 8 box-corner vertices.
    #[inline]
    pub fn corner_ids(&self) -> [VertexId; 8] {
        self.corner_ids
    }

    #[inline]
    pub fn vertex(&self, v: VertexId) -> &Vertex {
        self.verts.vertex(v)
    }

    #[inline]
    pub fn cell(&self, c: CellId) -> &Cell {
        self.cells.cell(c)
    }

    #[inline]
    pub fn position(&self, v: VertexId) -> Point3 {
        Point3::from_array(self.verts.vertex(v).pos())
    }

    #[inline]
    pub fn pos3(&self, v: VertexId) -> [f64; 3] {
        self.verts.vertex(v).pos()
    }

    /// High-water vertex count (allocated, including dead).
    pub fn num_vertices(&self) -> usize {
        self.verts.len()
    }

    /// High-water cell-slot count: every slot ever reserved, alive, freed
    /// or never activated. Bounds the alive cells.
    pub fn num_cell_slots(&self) -> usize {
        self.cells.len()
    }

    /// Count alive cells (O(slots); quiescent use).
    pub fn num_alive_cells(&self) -> usize {
        self.cells.alive_ids().count()
    }

    /// Iterate alive cell ids (quiescent use).
    pub fn alive_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells.alive_ids()
    }

    /// The positions of a cell's 4 vertices.
    pub fn cell_points(&self, c: CellId) -> [Point3; 4] {
        let cell = self.cells.cell(c);
        [
            self.position(cell.vert(0)),
            self.position(cell.vert(1)),
            self.position(cell.vert(2)),
            self.position(cell.vert(3)),
        ]
    }

    #[inline]
    pub(crate) fn recent_cell(&self) -> CellId {
        CellId(self.recent.load(Ordering::Relaxed))
    }

    #[inline]
    pub(crate) fn set_recent(&self, c: CellId) {
        self.recent.store(c.0, Ordering::Relaxed);
    }

    /// Make a per-thread operation context. `tid` must be unique per
    /// concurrently operating thread.
    pub fn make_ctx(&self, tid: u32) -> OpCtx<'_> {
        self.make_ctx_with_faults(tid, None)
    }

    /// Make a per-thread operation context with an (optionally armed) fault
    /// plan consulted at the kernel's named injection sites.
    pub fn make_ctx_with_faults(&self, tid: u32, faults: Option<Arc<FaultPlan>>) -> OpCtx<'_> {
        assert!(
            tid < MAX_LOCK_TIDS,
            "thread id {tid} does not fit a vertex lock"
        );
        OpCtx {
            mesh: self,
            tid,
            locked: Vec::with_capacity(64),
            free_cells: Vec::new(),
            last_cell: self.recent_cell(),
            recent_ring: [CellId(NONE); RECENT_RING],
            ring_pos: 0,
            rng: 0x9e37_79b9_7f4a_7c15u64 ^ ((tid as u64 + 1) << 32),
            walk_stats: WalkStats::default(),
            pred_stats: FilterStats::default(),
            batch_stats: BatchStats::default(),
            scratch: KernelScratch::default(),
            faults,
        }
    }

    // ---------- verification helpers (tests, debug assertions) ----------

    /// Check mutual adjacency consistency of all alive cells. Quiescent only.
    pub fn check_adjacency(&self) -> Result<(), String> {
        for c in self.alive_cells() {
            let cell = self.cell(c);
            for (i, face) in TET_FACES.iter().enumerate() {
                let n = cell.nei(i);
                if n.is_none() {
                    continue;
                }
                let ncell = self.cell(n);
                if !ncell.is_alive() {
                    return Err(format!("cell {c:?} points to dead {n:?}"));
                }
                let back = ncell.face_to(c);
                if back.is_none() {
                    return Err(format!("cell {n:?} lacks back-pointer to {c:?}"));
                }
                // shared face must consist of the same 3 vertices
                let mut fa: Vec<u32> = face.iter().map(|&k| cell.vert(k).0).collect();
                let j = back.unwrap();
                let mut fb: Vec<u32> = TET_FACES[j].iter().map(|&k| ncell.vert(k).0).collect();
                fa.sort_unstable();
                fb.sort_unstable();
                if fa != fb {
                    return Err(format!("face mismatch between {c:?} and {n:?}"));
                }
            }
        }
        Ok(())
    }

    /// Check all alive cells are positively oriented. Quiescent only.
    pub fn check_orientation(&self) -> Result<(), String> {
        for c in self.alive_cells() {
            let p = self.cell_points(c);
            if orient3d_sign(
                &p[0].to_array(),
                &p[1].to_array(),
                &p[2].to_array(),
                &p[3].to_array(),
            ) <= 0
            {
                return Err(format!("cell {c:?} not positively oriented"));
            }
        }
        Ok(())
    }

    /// Local Delaunay check: for each interior face, the opposite vertex of
    /// the neighbor must not lie strictly inside the cell's circumsphere.
    /// With exact predicates this implies the global Delaunay property.
    /// Quiescent only.
    pub fn check_delaunay(&self) -> Result<(), String> {
        for c in self.alive_cells() {
            let cell = self.cell(c);
            let pts = self.cell_points(c);
            for i in 0..4 {
                let n = cell.nei(i);
                if n.is_none() {
                    continue;
                }
                let ncell = self.cell(n);
                // the neighbor's vertex not shared with c
                let opp = (0..4)
                    .map(|k| ncell.vert(k))
                    .find(|&v| !cell.has_vertex(v))
                    .ok_or_else(|| format!("{n:?} duplicates {c:?}"))?;
                let w = self.pos3(opp);
                let s = pi2m_predicates::insphere_sign(
                    &pts[0].to_array(),
                    &pts[1].to_array(),
                    &pts[2].to_array(),
                    &pts[3].to_array(),
                    &w,
                );
                if s > 0 {
                    return Err(format!(
                        "Delaunay violation: vertex {opp:?} inside circumsphere of {c:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Strict (symbolically perturbed) local Delaunay check: for each
    /// interior face the neighbor's opposite vertex must be strictly outside
    /// the perturbed circumsphere. Passing this certifies the triangulation
    /// is *the* unique SoS-Delaunay triangulation of its vertex set — the
    /// invariant that removals rely on. Quiescent only.
    pub fn check_delaunay_sos(&self) -> Result<(), String> {
        for c in self.alive_cells() {
            let cell = self.cell(c);
            let pts = self.cell_points(c);
            let vids = cell.verts();
            for i in 0..4 {
                let n = cell.nei(i);
                if n.is_none() {
                    continue;
                }
                let ncell = self.cell(n);
                let opp = (0..4)
                    .map(|k| ncell.vert(k))
                    .find(|&v| !cell.has_vertex(v))
                    .ok_or_else(|| format!("{n:?} duplicates {c:?}"))?;
                let w = self.pos3(opp);
                let s = pi2m_predicates::insphere_sos(
                    &pts[0].to_array(),
                    &pts[1].to_array(),
                    &pts[2].to_array(),
                    &pts[3].to_array(),
                    &w,
                    [
                        vids[0].0 as u64,
                        vids[1].0 as u64,
                        vids[2].0 as u64,
                        vids[3].0 as u64,
                        opp.0 as u64,
                    ],
                );
                if s >= 0 {
                    return Err(format!(
                        "perturbed Delaunay violation: {opp:?} vs cell {c:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Sum of alive cell volumes — must equal the box volume at all quiescent
    /// points (the triangulation always tiles the box).
    pub fn total_volume(&self) -> f64 {
        self.alive_cells()
            .map(|c| {
                let p = self.cell_points(c);
                signed_volume(p[0], p[1], p[2], p[3])
            })
            .sum()
    }
}

/// Point-location walk effort accumulated by one [`OpCtx`] (plain counters,
/// drained by the caller via [`OpCtx::take_walk_stats`] — no atomics).
#[derive(Clone, Copy, Debug, Default)]
pub struct WalkStats {
    /// Completed `locate` calls.
    pub locates: u64,
    /// Cells visited across those walks (including restarted segments).
    pub steps: u64,
}

/// Per-thread operation context: scratch state, the lock set, and the local
/// cell free-list. Not `Send`-migrating mid-operation; one per worker.
pub struct OpCtx<'m> {
    pub mesh: &'m SharedMesh,
    pub tid: u32,
    pub(crate) locked: Vec<VertexId>,
    /// Cells freed by this thread, reused for its future allocations.
    pub free_cells: Vec<CellId>,
    /// Walk hint: last cell this thread created/visited.
    pub last_cell: CellId,
    /// Locality cache behind `last_cell`: recently created/visited cells
    /// tried as walk starts when `last_cell` has died.
    pub(crate) recent_ring: [CellId; RECENT_RING],
    pub(crate) ring_pos: usize,
    pub(crate) rng: u64,
    pub(crate) walk_stats: WalkStats,
    /// Staged-predicate per-stage hit counters (drained like `walk_stats`).
    pub(crate) pred_stats: FilterStats,
    /// Per-worker scratch arena reused across operations.
    pub(crate) scratch: KernelScratch,
    /// Fault-injection plan (None = nothing armed; a single branch per site).
    pub(crate) faults: Option<Arc<FaultPlan>>,
    /// Wide-lane filter occupancy/fallback counters (drained like
    /// `pred_stats`).
    pub(crate) batch_stats: BatchStats,
}

impl OpCtx<'_> {
    /// Drain the walk-effort counters accumulated since the last call.
    #[inline]
    pub fn take_walk_stats(&mut self) -> WalkStats {
        std::mem::take(&mut self.walk_stats)
    }

    /// Drain the staged-predicate stage counters accumulated since the last
    /// call.
    #[inline]
    pub fn take_pred_stats(&mut self) -> FilterStats {
        self.pred_stats.take()
    }

    /// Drain the wide-lane batch occupancy/fallback counters accumulated
    /// since the last call.
    #[inline]
    pub fn take_batch_stats(&mut self) -> BatchStats {
        self.batch_stats.take()
    }

    /// Drain the scratch-arena reuse counters accumulated since the last
    /// call.
    #[inline]
    pub fn take_scratch_stats(&mut self) -> ScratchStats {
        self.scratch.stats.take()
    }

    /// Current scratch-arena element-capacity footprint (reuse tests).
    pub fn scratch_footprint(&self) -> usize {
        self.scratch.footprint()
    }

    /// Replace this context's scratch arena with a warm one (e.g. retained
    /// by a persistent worker across meshing runs, so run N+1 starts with
    /// run N's buffer capacities instead of reallocating). The fresh default
    /// arena it replaces is returned only to be dropped — contexts start
    /// with an empty one.
    pub fn install_scratch(&mut self, warm: KernelScratch) {
        self.scratch = warm;
    }

    /// Take the scratch arena out of this context (leaving an empty default
    /// behind), so its warmed buffer capacities survive the context itself —
    /// the handoff that lets a worker pool reuse arenas across runs.
    pub fn take_scratch(&mut self) -> KernelScratch {
        std::mem::take(&mut self.scratch)
    }

    /// Return a result's buffers to the scratch pool so the next operation
    /// reuses their capacity instead of reallocating.
    pub fn recycle_insert(&mut self, res: InsertResult) {
        self.scratch.put_cells_buf(res.created);
        self.scratch.put_cells_buf(res.killed);
    }

    /// Return a removal result's buffers to the scratch pool.
    pub fn recycle_remove(&mut self, res: RemoveResult) {
        self.scratch.put_cells_buf(res.created);
        self.scratch.put_cells_buf(res.killed);
    }

    /// Staged orient3d using the mesh's semi-static bounds, accumulating
    /// stage hits into this context.
    #[inline]
    pub(crate) fn orient3d_st(
        &mut self,
        pa: &[f64; 3],
        pb: &[f64; 3],
        pc: &[f64; 3],
        pd: &[f64; 3],
    ) -> f64 {
        pi2m_predicates::orient3d_staged(
            &self.mesh.pred_bounds,
            &mut self.pred_stats,
            pa,
            pb,
            pc,
            pd,
        )
    }

    /// Staged symbolically perturbed insphere (see `orient3d_st`).
    #[inline]
    pub(crate) fn insphere_sos_st(
        &mut self,
        pa: &[f64; 3],
        pb: &[f64; 3],
        pc: &[f64; 3],
        pd: &[f64; 3],
        pe: &[f64; 3],
        keys: [u64; 5],
    ) -> i8 {
        pi2m_predicates::insphere_sos_staged(
            &self.mesh.pred_bounds,
            &mut self.pred_stats,
            pa,
            pb,
            pc,
            pd,
            pe,
            keys,
        )
    }

    /// Record `c` as the freshest locality hint, demoting the previous
    /// `last_cell` into the recent-cell ring.
    #[inline]
    pub(crate) fn note_cell(&mut self, c: CellId) {
        if c != self.last_cell {
            self.recent_ring[self.ring_pos] = self.last_cell;
            self.ring_pos = (self.ring_pos + 1) % RECENT_RING;
            self.last_cell = c;
        }
    }

    /// [`note_cell`](Self::note_cell), plus publish `hint_vertex` into the
    /// shared walk-hint grid slots around `p` (callers pass a vertex of `c`
    /// or the vertex the operation just touched at `p`).
    #[inline]
    pub(crate) fn note_cell_at(&mut self, c: CellId, p: &[f64; 3], hint_vertex: VertexId) {
        self.mesh.set_grid_hint(p, hint_vertex);
        self.note_cell(c);
    }
}

impl<'m> OpCtx<'m> {
    /// Whether a fault plan is attached (cheap guard for injection sites).
    #[inline]
    pub(crate) fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// Consult the fault plan at a named site. May panic or sleep inside;
    /// returns `Some` when the site must simulate a denial/failure.
    #[inline]
    pub(crate) fn fault(&self, site: &'static str) -> Option<Injected> {
        match &self.faults {
            Some(f) => f.fire(site, self.tid),
            None => None,
        }
    }

    /// A synthetic self-conflict used by injected lock denials: reporting
    /// the operating thread as the owner keeps every contention manager's
    /// bookkeeping valid (a CM never parks a thread on its own list).
    pub(crate) fn injected_conflict(&self, v: VertexId) -> OpError {
        OpError::Conflict {
            owner: self.tid,
            vertex: v,
        }
    }

    /// Try to lock `v`; on failure report the owning thread (rollback path).
    #[inline]
    pub(crate) fn lock_vertex(&mut self, v: VertexId) -> Result<(), OpError> {
        if self.faults.is_some() && self.fault(sites::LOCK_ACQUIRE).is_some() {
            return Err(self.injected_conflict(v));
        }
        match self.mesh.verts.vertex(v).try_lock(self.tid) {
            Ok(true) => {
                self.locked.push(v);
                Ok(())
            }
            Ok(false) => Ok(()),
            Err(owner) => Err(OpError::Conflict { owner, vertex: v }),
        }
    }

    /// Release every lock still held, e.g. by an operation that unwound
    /// mid-phase.
    pub fn abort(&mut self) {
        self.unlock_all();
    }

    /// Release every held lock (end of operation or rollback).
    pub(crate) fn unlock_all(&mut self) {
        for v in self.locked.drain(..) {
            self.mesh.verts.vertex(v).unlock(self.tid);
        }
    }

    /// Number of currently held locks (diagnostics).
    pub fn locks_held(&self) -> usize {
        self.locked.len()
    }

    /// xorshift step for randomized walk tie-breaking.
    #[inline]
    pub(crate) fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Gen-validated snapshot helper.
    #[inline]
    pub(crate) fn snap(&self, c: CellId) -> Option<CellSnap> {
        if c.is_none() || c.idx() >= self.mesh.cells.len() {
            return None;
        }
        self.mesh.cells.cell(c).snapshot()
    }
}

impl Drop for OpCtx<'_> {
    fn drop(&mut self) {
        // During a panic unwind the locks are force-released without the
        // quiescence assertion: a panicking worker must never escalate to a
        // process abort via a nested debug_assert failure.
        if !std::thread::panicking() {
            debug_assert!(self.locked.is_empty(), "OpCtx dropped while holding locks");
        }
        self.unlock_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_mesh() -> SharedMesh {
        SharedMesh::with_box(Aabb::new(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 1.0, 1.0),
        ))
    }

    #[test]
    fn initial_box_is_valid() {
        let m = unit_mesh();
        assert_eq!(m.num_alive_cells(), 6);
        assert_eq!(m.num_vertices(), 8);
        m.check_adjacency().unwrap();
        m.check_orientation().unwrap();
        m.check_delaunay().unwrap();
        assert!((m.total_volume() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn enclosing_box_inflates() {
        let d = Aabb::new(Point3::ORIGIN, Point3::new(2.0, 2.0, 2.0));
        let m = SharedMesh::enclosing(&d);
        assert!(m.bbox().contains(Point3::new(-0.5, -0.5, -0.5)));
        m.check_adjacency().unwrap();
    }

    #[test]
    fn ctx_lock_and_rollback() {
        let m = unit_mesh();
        let v = m.corner_ids()[0];
        let mut a = m.make_ctx(0);
        let mut b = m.make_ctx(1);
        a.lock_vertex(v).unwrap();
        match b.lock_vertex(v) {
            Err(OpError::Conflict { owner, vertex }) => {
                assert_eq!(owner, 0);
                assert_eq!(vertex, v);
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        a.unlock_all();
        b.lock_vertex(v).unwrap();
        b.unlock_all();
    }

    #[test]
    fn reentrant_lock_released_once() {
        let m = unit_mesh();
        let v = m.corner_ids()[3];
        let mut a = m.make_ctx(7);
        a.lock_vertex(v).unwrap();
        a.lock_vertex(v).unwrap(); // reentrant: not double-recorded
        assert_eq!(a.locks_held(), 1);
        a.unlock_all();
        assert_eq!(m.vertex(v).lock_owner(), None);
    }

    /// A small mesh holds one segment per pool: the box and a few points
    /// fit the first, and nothing is allocated ahead of the ids in use.
    #[test]
    fn a_small_mesh_allocates_one_segment_per_pool() {
        let m = unit_mesh();
        let mut ctx = m.make_ctx(0);
        for p in [[0.5, 0.5, 0.5], [0.25, 0.5, 0.5], [0.5, 0.75, 0.25]] {
            ctx.insert(p, VertexKind::Circumcenter).unwrap();
        }
        assert_eq!(m.num_vertices(), 11);
        assert_eq!((m.verts.segments(), m.cells.segments()), (1, 1));
    }
}
