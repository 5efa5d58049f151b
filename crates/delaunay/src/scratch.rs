//! Per-worker scratch arenas for the kernel hot path.
//!
//! Every insert/remove operation needs a handful of transient buffers (the
//! cavity list, the BFS state map, boundary face rings, the removal ball and
//! its link structures). Allocating them per operation puts the allocator on
//! the hot path; [`KernelScratch`] owns one long-lived copy of each, cleared
//! and reused across operations by the owning [`crate::OpCtx`].
//!
//! Ownership protocol: the prepare/commit wrappers `mem::take` the whole
//! scratch out of the context, hand the inner phase a `&mut KernelScratch`,
//! and reinstall it afterwards — so a panic mid-operation leaves the context
//! with a fresh `Default` scratch that is trivially safe to reuse (capacity
//! is lost, correctness is not). Buffers that escape into a
//! [`crate::PreparedInsert`] / [`crate::PreparedRemove`] or into an operation
//! result travel *with* their owner and come back via `put_*` /
//! [`crate::OpCtx::recycle_insert`] at commit time, closing the reuse cycle.

use crate::ids::{CellId, VertexId, NONE};
use crate::insert::BFace;
use crate::remove::{FaceOwner, LinkFace, Nb};
use crate::{fxhash::FxHashMap, fxhash::FxHashSet};

/// Fibonacci multiplier for the epoch-table probes (same constant family the
/// crate's `fxhash` uses; only the high bits are kept).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Initial slot counts for the epoch tables (powers of two; both grow on
/// demand and keep their capacity across operations).
const TEST_SLOTS: usize = 256;
const EDGE_SLOTS: usize = 256;

/// What cavity expansion learned about a tested cell, snapshotted
/// under its vertex locks (immutable for the rest of the operation).
#[derive(Clone, Copy)]
pub(crate) struct TestEntry {
    /// `true` = in the cavity, `false` = tested and rejected.
    pub(crate) verdict: bool,
    /// The cell's neighbor row, so boundary extraction can resolve
    /// back-pointing faces without re-reading the cell pool.
    pub(crate) neis: [CellId; 4],
}

/// Epoch-tagged open-addressing map from cell id to [`TestEntry`], the BFS
/// state of one insertion. `begin` invalidates every entry in O(1) by bumping
/// the epoch (stale slots read as empty), so per-operation reset never touches
/// the slot array.
#[derive(Default)]
pub(crate) struct TestTable {
    /// `(epoch << 32) | cell` per slot; epoch 0 is never current.
    keys: Vec<u64>,
    vals: Vec<TestEntry>,
    epoch: u32,
    live: usize,
}

impl TestTable {
    /// Start a new operation: previous entries become stale in O(1).
    pub(crate) fn begin(&mut self) {
        if self.keys.is_empty() {
            self.keys = vec![0; TEST_SLOTS];
            self.vals = vec![
                TestEntry {
                    verdict: false,
                    neis: [CellId(NONE); 4],
                };
                TEST_SLOTS
            ];
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.keys.fill(0);
            self.epoch = 1;
        }
        self.live = 0;
    }

    /// Slot index for `cell` plus whether it holds a current-epoch entry.
    #[inline]
    fn probe(&self, cell: u32) -> (usize, bool) {
        let mask = self.keys.len() - 1;
        let tagged = ((self.epoch as u64) << 32) | cell as u64;
        let mut i = ((cell as u64).wrapping_mul(HASH_MUL) >> 32) as usize & mask;
        loop {
            let k = self.keys[i];
            if k == tagged {
                return (i, true);
            }
            if (k >> 32) as u32 != self.epoch {
                return (i, false);
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    pub(crate) fn contains(&self, cell: CellId) -> bool {
        self.probe(cell.0).1
    }

    #[inline]
    pub(crate) fn get(&self, cell: CellId) -> Option<&TestEntry> {
        let (i, found) = self.probe(cell.0);
        found.then(|| &self.vals[i])
    }

    /// Record a fresh test result; `cell` must not already be present.
    #[inline]
    pub(crate) fn insert(&mut self, cell: CellId, entry: TestEntry) {
        if (self.live + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let (i, found) = self.probe(cell.0);
        debug_assert!(!found, "cell tested twice in one operation");
        self.keys[i] = ((self.epoch as u64) << 32) | cell.0 as u64;
        self.vals[i] = entry;
        self.live += 1;
    }

    /// Flip the verdict of an already-recorded cell.
    #[inline]
    pub(crate) fn set_verdict(&mut self, cell: CellId, verdict: bool) {
        let (i, found) = self.probe(cell.0);
        debug_assert!(found, "verdict flip for an untested cell");
        if found {
            self.vals[i].verdict = verdict;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let new_len = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_len]);
        let old_vals = std::mem::replace(
            &mut self.vals,
            vec![
                TestEntry {
                    verdict: false,
                    neis: [CellId(NONE); 4],
                };
                new_len
            ],
        );
        for (&k, v) in old_keys.iter().zip(&old_vals) {
            if (k >> 32) as u32 == self.epoch {
                let (i, _) = self.probe(k as u32);
                self.keys[i] = k;
                self.vals[i] = *v;
            }
        }
    }

    pub(crate) fn footprint(&self) -> usize {
        self.keys.capacity() + self.vals.capacity()
    }
}

/// Epoch-tagged open-addressing pairer for cavity-boundary edges (insert
/// commit). Every undirected boundary edge occurs on exactly two faces; the
/// first occurrence parks its packed slot, the second retrieves it. Entries
/// are never removed — epoch bumping retires them wholesale.
#[derive(Default)]
pub(crate) struct EdgeTable {
    /// `(edge key, epoch, packed bface·slot)` per slot.
    slots: Vec<(u64, u32, u32)>,
    epoch: u32,
    live: usize,
}

impl EdgeTable {
    /// Start a new commit: previous entries become stale in O(1).
    pub(crate) fn begin(&mut self) {
        if self.slots.is_empty() {
            self.slots = vec![(0, 0, 0); EDGE_SLOTS];
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.fill((0, 0, 0));
            self.epoch = 1;
        }
        self.live = 0;
    }

    /// Park `packed` under `key`, or return the previously parked value if
    /// this is the key's second occurrence.
    #[inline]
    pub(crate) fn pair(&mut self, key: u64, packed: u32) -> Option<u32> {
        if (self.live + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(HASH_MUL) >> 32) as usize & mask;
        loop {
            let s = self.slots[i];
            if s.1 != self.epoch {
                self.slots[i] = (key, self.epoch, packed);
                self.live += 1;
                return None;
            }
            if s.0 == key {
                return Some(s.2);
            }
            i = (i + 1) & mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(0, 0, 0); new_len]);
        let mask = new_len - 1;
        for &(key, epoch, packed) in &old {
            if epoch != self.epoch {
                continue;
            }
            let mut i = (key.wrapping_mul(HASH_MUL) >> 32) as usize & mask;
            while self.slots[i].1 == self.epoch {
                i = (i + 1) & mask;
            }
            self.slots[i] = (key, self.epoch, packed);
        }
    }

    pub(crate) fn footprint(&self) -> usize {
        self.slots.capacity()
    }
}

/// Upper bound on pooled result buffers kept per context (an operation plus
/// the engine's in-flight results never hold more than a couple at once).
const SPARE_CAP: usize = 8;

/// Buffer-recycling effectiveness counters (drained into `pi2m-obs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// A buffer was handed out with warm (already grown) capacity.
    pub reuses: u64,
    /// A buffer had to start cold (first use, or capacity lost to a panic).
    pub allocs: u64,
    /// SoA staging waves gathered from the vertex pool.
    pub soa_gathers: u64,
    /// Points copied into the SoA staging buffers across all gathers.
    pub soa_points: u64,
}

impl ScratchStats {
    /// Drain: return the current counts and reset to zero.
    pub fn take(&mut self) -> ScratchStats {
        std::mem::take(self)
    }
}

/// The per-worker arena. One per [`crate::OpCtx`]; never shared.
#[derive(Default)]
pub struct KernelScratch {
    // ---- insertion ----
    /// Cavity cells (escapes into `PreparedInsert`, returns at commit).
    pub(crate) cavity: Vec<CellId>,
    /// Cavity boundary faces (escapes into `PreparedInsert`).
    pub(crate) bfaces: Vec<BFace>,
    /// Coplanar-repair work list.
    pub(crate) forced: Vec<CellId>,
    /// Orphan-guard vertex set.
    pub(crate) on_boundary: FxHashSet<u32>,
    /// New-cell neighbor table (commit phase).
    pub(crate) neis: Vec<[CellId; 4]>,

    // ---- SoA staging ----
    /// Wave candidate cells awaiting a batched insphere verdict, plus their
    /// vertex quads and neighbor rows snapshotted at lock time.
    pub(crate) wave_cells: Vec<CellId>,
    pub(crate) wave_verts: Vec<[VertexId; 4]>,
    pub(crate) wave_neis: Vec<[CellId; 4]>,
    /// Boundary faces staged for a batched orient pass:
    /// (face verts, outside neighbor, owning cavity cell).
    pub(crate) wave_faces: Vec<([VertexId; 3], CellId, CellId)>,
    /// Flat SoA lane coordinates (stride 3 for orient waves, 4 for insphere
    /// waves), gathered once per wave from the vertex pool and handed to the
    /// wide-lane filters in `pi2m_predicates::batch`.
    pub(crate) soa_xs: Vec<f64>,
    pub(crate) soa_ys: Vec<f64>,
    pub(crate) soa_zs: Vec<f64>,
    /// Per-lane SoS keys for batched insphere waves.
    pub(crate) soa_keys: Vec<[u64; 5]>,
    /// Batched predicate outputs (determinants / SoS signs).
    pub(crate) soa_dets: Vec<f64>,
    pub(crate) soa_signs: Vec<i8>,
    /// Per-cavity-cell snapshots, in lockstep with `cavity`:
    /// vertex quads, neighbor rows, and coordinates, captured once under the
    /// cell's vertex locks and reused by boundary extraction and the orphan
    /// guard instead of re-walking the cell/vertex pools.
    pub(crate) cav_verts: Vec<[VertexId; 4]>,
    pub(crate) cav_neis: Vec<[CellId; 4]>,
    /// Flat: corner `k` of cavity cell `ci` is `cav_pos[4 * ci + k]`, so
    /// boundary faces address corners by index (gather-batched orient).
    pub(crate) cav_pos: Vec<[f64; 3]>,
    /// Staged corner-index triples for the gather-batched boundary orient
    /// pass, in lockstep with `wave_faces`.
    pub(crate) face_idx: Vec<[u32; 3]>,
    /// Cell → test-record map of the cavity BFS.
    pub(crate) tests: TestTable,
    /// Cavity boundary edge pairer (commit phase).
    pub(crate) edges: EdgeTable,

    // ---- removal ----
    /// Ball cells (escapes into `PreparedRemove`).
    pub(crate) ball: Vec<CellId>,
    /// Link faces (escapes into `PreparedRemove`).
    pub(crate) link_faces: Vec<LinkFace>,
    /// Fill-cell plans (escapes into `PreparedRemove`).
    pub(crate) plans: Vec<([VertexId; 4], [Nb; 4])>,
    /// Link-face → fill-cell owner map (escapes into `PreparedRemove`).
    pub(crate) wall_owner: Vec<usize>,
    pub(crate) in_ball: FxHashSet<u32>,
    pub(crate) link_verts: Vec<VertexId>,
    /// Positions of `link_verts`, gathered once per removal.
    pub(crate) link_pos: Vec<[f64; 3]>,
    /// Vertex id → index into `link_verts`.
    pub(crate) link_index: FxHashMap<u32, u32>,
    /// Faces of the partly filled hole by sorted link-vertex indices:
    /// `Some(owner)` while one side still lacks a cell, `None` once closed.
    pub(crate) open_faces: FxHashMap<(u32, u32, u32), Option<FaceOwner>>,
    /// Open faces awaiting a fill cell on their positive side.
    pub(crate) open_stack: Vec<[u32; 3]>,

    // ---- pooled result buffers ----
    spare_cells: Vec<Vec<CellId>>,
    spare_killed: Vec<Vec<(CellId, u64)>>,

    pub(crate) stats: ScratchStats,
}

impl KernelScratch {
    #[inline]
    fn note(&mut self, warm: bool) {
        if warm {
            self.stats.reuses += 1;
        } else {
            self.stats.allocs += 1;
        }
    }

    /// Reset the insertion-prepare buffers and account for their warmth.
    pub(crate) fn begin_insert(&mut self) {
        self.note(self.cavity.capacity() > 0);
        self.note(self.tests.footprint() > 0);
        self.cavity.clear();
        self.bfaces.clear();
        self.forced.clear();
        self.cav_verts.clear();
        self.cav_neis.clear();
        self.cav_pos.clear();
    }

    /// Reset the removal-prepare buffers and account for their warmth.
    pub(crate) fn begin_remove(&mut self) {
        self.note(self.ball.capacity() > 0);
        self.note(self.open_faces.capacity() > 0);
        self.ball.clear();
        self.link_faces.clear();
        self.plans.clear();
        self.wall_owner.clear();
        self.in_ball.clear();
        self.link_verts.clear();
        self.link_pos.clear();
        self.link_index.clear();
        self.open_faces.clear();
        self.open_stack.clear();
    }

    /// A pooled `Vec<CellId>` for a result's `created` list.
    pub(crate) fn take_cells_buf(&mut self) -> Vec<CellId> {
        match self.spare_cells.pop() {
            Some(v) => {
                self.stats.reuses += 1;
                v
            }
            None => {
                self.stats.allocs += 1;
                Vec::new()
            }
        }
    }

    /// Return a `created`-style buffer to the pool.
    pub(crate) fn put_cells_buf(&mut self, mut v: Vec<CellId>) {
        if self.spare_cells.len() < SPARE_CAP && v.capacity() > 0 {
            v.clear();
            self.spare_cells.push(v);
        }
    }

    /// A pooled `Vec<(CellId, u64)>` for a result's `killed` list.
    pub(crate) fn take_killed_buf(&mut self) -> Vec<(CellId, u64)> {
        match self.spare_killed.pop() {
            Some(v) => {
                self.stats.reuses += 1;
                v
            }
            None => {
                self.stats.allocs += 1;
                Vec::new()
            }
        }
    }

    /// Return a `killed`-style buffer to the pool.
    pub(crate) fn put_killed_buf(&mut self, mut v: Vec<(CellId, u64)>) {
        if self.spare_killed.len() < SPARE_CAP && v.capacity() > 0 {
            v.clear();
            self.spare_killed.push(v);
        }
    }

    /// Return the cavity/boundary buffers after a committed insertion.
    pub(crate) fn put_insert_bufs(&mut self, mut cavity: Vec<CellId>, mut bfaces: Vec<BFace>) {
        cavity.clear();
        bfaces.clear();
        self.cavity = cavity;
        self.bfaces = bfaces;
    }

    /// Return the ball/link buffers after a committed removal.
    pub(crate) fn put_remove_bufs(
        &mut self,
        mut ball: Vec<CellId>,
        mut link_faces: Vec<LinkFace>,
        mut plans: Vec<([VertexId; 4], [Nb; 4])>,
        mut wall_owner: Vec<usize>,
    ) {
        ball.clear();
        link_faces.clear();
        plans.clear();
        wall_owner.clear();
        self.ball = ball;
        self.link_faces = link_faces;
        self.plans = plans;
        self.wall_owner = wall_owner;
    }

    /// Total reserved element capacity across the arena — the high-water
    /// footprint the reuse unit tests assert stabilizes.
    pub fn footprint(&self) -> usize {
        self.cavity.capacity()
            + self.bfaces.capacity()
            + self.forced.capacity()
            + self.on_boundary.capacity()
            + self.neis.capacity()
            + self.wave_cells.capacity()
            + self.wave_verts.capacity()
            + self.wave_neis.capacity()
            + self.wave_faces.capacity()
            + self.soa_xs.capacity()
            + self.soa_ys.capacity()
            + self.soa_zs.capacity()
            + self.soa_keys.capacity()
            + self.soa_dets.capacity()
            + self.soa_signs.capacity()
            + self.cav_verts.capacity()
            + self.cav_neis.capacity()
            + self.cav_pos.capacity()
            + self.face_idx.capacity()
            + self.tests.footprint()
            + self.edges.footprint()
            + self.ball.capacity()
            + self.link_faces.capacity()
            + self.plans.capacity()
            + self.wall_owner.capacity()
            + self.in_ball.capacity()
            + self.link_verts.capacity()
            + self.link_pos.capacity()
            + self.link_index.capacity()
            + self.open_faces.capacity()
            + self.open_stack.capacity()
            + self.spare_cells.iter().map(Vec::capacity).sum::<usize>()
            + self.spare_killed.iter().map(Vec::capacity).sum::<usize>()
    }
}
