//! Lock-free segmented pools for vertices and cells.
//!
//! Both pools are arrays of lazily allocated fixed-size segments reached
//! through an atomic pointer table, so `get(id)` is two indirections and no
//! locks — readers may race with writers by design (all fields are atomics;
//! the speculative locking protocol plus generation validation make the races
//! benign, see `crate::mesh`).

use crate::ids::{CellId, VertexId, VertexKind, NONE};
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};

/// log2 of segment capacity.
const SEG_SHIFT: u32 = 14;
const SEG_SIZE: usize = 1 << SEG_SHIFT;
/// Maximum number of segments (caps the pool at ~1 G entries).
const MAX_SEGS: usize = 1 << 16;
/// Cell slots a context reserves at a time when its free list runs dry: one
/// `fetch_add` on the shared length per 64 fresh cells, and one worker's
/// fresh cells sit in consecutive cache lines instead of interleaving with
/// its neighbour's. Divides `SEG_SIZE`, so a chunk never straddles segments.
const CELL_CHUNK: u32 = 64;
const _: () = assert!(SEG_SIZE.is_multiple_of(CELL_CHUNK as usize));

/// A vertex record. Position and kind are written once before the vertex id
/// is published (ids only reach other threads through cells created under
/// vertex locks), so relaxed atomic accesses suffice.
pub struct Vertex {
    /// Coordinates, bit-cast f64s.
    pos: [AtomicU64; 3],
    /// Speculative lock: 0 = free, otherwise `owner_tid + 1`.
    lock: AtomicU32,
    /// Bit 0: alive. Bits 8..16: `VertexKind`.
    meta: AtomicU32,
    /// Hint: some cell recently incident to this vertex.
    hint: AtomicU32,
}

impl Vertex {
    fn init(&self, p: [f64; 3], kind: VertexKind) {
        for (slot, v) in self.pos.iter().zip(p) {
            slot.store(v.to_bits(), Ordering::Relaxed);
        }
        self.meta.store(1 | ((kind as u32) << 8), Ordering::Release);
        self.hint.store(NONE, Ordering::Relaxed);
        self.lock.store(0, Ordering::Release);
    }

    #[inline]
    pub fn pos(&self) -> [f64; 3] {
        [
            f64::from_bits(self.pos[0].load(Ordering::Relaxed)),
            f64::from_bits(self.pos[1].load(Ordering::Relaxed)),
            f64::from_bits(self.pos[2].load(Ordering::Relaxed)),
        ]
    }

    #[inline]
    pub fn kind(&self) -> VertexKind {
        VertexKind::from_u8(((self.meta.load(Ordering::Relaxed) >> 8) & 0xff) as u8)
    }

    #[inline]
    pub fn is_alive(&self) -> bool {
        self.meta.load(Ordering::Relaxed) & 1 != 0
    }

    pub fn mark_dead(&self) {
        self.meta.fetch_and(!1u32, Ordering::Release);
    }

    /// Try to acquire the vertex lock for thread `tid`. Returns `Ok(true)` if
    /// newly acquired, `Ok(false)` if already held by `tid`, `Err(owner)` if
    /// held by another thread.
    ///
    /// A cavity touches most of its vertices several times, so the re-lock
    /// is the common case, and it costs a plain load: only `tid` ever stores
    /// `tid + 1`, and a thread never reads a value older than its own last
    /// store, so reading `tid + 1` means `tid` holds the lock. Anything else
    /// goes to the one compare-exchange, which then cannot see `tid + 1`.
    #[inline]
    pub fn try_lock(&self, tid: u32) -> Result<bool, u32> {
        let me = tid + 1;
        if self.lock.load(Ordering::Relaxed) == me {
            return Ok(false);
        }
        match self
            .lock
            .compare_exchange(0, me, Ordering::Acquire, Ordering::Relaxed)
        {
            Ok(_) => Ok(true),
            Err(cur) => {
                debug_assert_ne!(cur, me, "lock word names us but the load missed it");
                Err(cur - 1)
            }
        }
    }

    #[inline]
    pub fn unlock(&self, tid: u32) {
        debug_assert_eq!(self.lock.load(Ordering::Relaxed), tid + 1);
        self.lock.store(0, Ordering::Release);
    }

    /// Current lock owner (for diagnostics), `None` when free.
    pub fn lock_owner(&self) -> Option<u32> {
        match self.lock.load(Ordering::Relaxed) {
            0 => None,
            v => Some(v - 1),
        }
    }

    #[inline]
    pub fn hint(&self) -> CellId {
        CellId(self.hint.load(Ordering::Relaxed))
    }

    #[inline]
    pub fn set_hint(&self, c: CellId) {
        self.hint.store(c.0, Ordering::Relaxed);
    }
}

/// A tetrahedron slot.
///
/// `verts[i]` are vertex ids; `neis[i]` is the cell adjacent across the face
/// *opposite* `verts[i]` (`NONE` on the hull). `gen` increments every time the
/// slot is freed; `flags` bit 0 is the alive bit. `tag` is a free-use word
/// for the refinement layer (PEL bookkeeping).
pub struct Cell {
    verts: [AtomicU32; 4],
    neis: [AtomicU32; 4],
    gen: AtomicU32,
    flags: AtomicU32,
    /// Free-use word for the refinement layer.
    pub tag: AtomicU64,
}

/// A consistent snapshot of a cell taken by an optimistic reader.
#[derive(Clone, Copy, Debug)]
pub struct CellSnap {
    pub verts: [VertexId; 4],
    pub neis: [CellId; 4],
    pub gen: u32,
}

impl Cell {
    #[inline]
    pub fn vert(&self, i: usize) -> VertexId {
        VertexId(self.verts[i].load(Ordering::Relaxed))
    }

    #[inline]
    pub fn nei(&self, i: usize) -> CellId {
        CellId(self.neis[i].load(Ordering::Relaxed))
    }

    #[inline]
    pub fn set_nei(&self, i: usize, c: CellId) {
        self.neis[i].store(c.0, Ordering::Release);
    }

    #[inline]
    pub fn verts(&self) -> [VertexId; 4] {
        [self.vert(0), self.vert(1), self.vert(2), self.vert(3)]
    }

    #[inline]
    pub fn neis(&self) -> [CellId; 4] {
        [self.nei(0), self.nei(1), self.nei(2), self.nei(3)]
    }

    #[inline]
    pub fn gen(&self) -> u32 {
        self.gen.load(Ordering::Acquire)
    }

    #[inline]
    pub fn is_alive(&self) -> bool {
        self.flags.load(Ordering::Acquire) & 1 != 0
    }

    /// Does this cell use vertex `v`?
    #[inline]
    pub fn has_vertex(&self, v: VertexId) -> bool {
        self.verts().contains(&v)
    }

    /// The local index (0..4) of vertex `v` in this cell.
    #[inline]
    pub fn index_of(&self, v: VertexId) -> Option<usize> {
        (0..4).find(|&i| self.vert(i) == v)
    }

    /// The local face index whose neighbor is `c`.
    #[inline]
    pub fn face_to(&self, c: CellId) -> Option<usize> {
        (0..4).find(|&i| self.nei(i) == c)
    }

    /// Gen-validated consistent read for lock-free walkers.
    pub fn snapshot(&self) -> Option<CellSnap> {
        let g1 = self.gen.load(Ordering::Acquire);
        if self.flags.load(Ordering::Acquire) & 1 == 0 {
            return None;
        }
        let verts = self.verts();
        let neis = self.neis();
        let g2 = self.gen.load(Ordering::Acquire);
        (g1 == g2).then_some(CellSnap {
            verts,
            neis,
            gen: g1,
        })
    }

    fn activate(&self, verts: [VertexId; 4], neis: [CellId; 4]) {
        for (slot, v) in self.verts.iter().zip(verts) {
            slot.store(v.0, Ordering::Relaxed);
        }
        for (slot, n) in self.neis.iter().zip(neis) {
            slot.store(n.0, Ordering::Relaxed);
        }
        self.tag.store(0, Ordering::Relaxed);
        // Publish: alive last.
        self.flags.store(1, Ordering::Release);
    }

    fn deactivate(&self) {
        self.flags.store(0, Ordering::Release);
        self.gen.fetch_add(1, Ordering::Release);
    }
}

macro_rules! segmented_pool {
    ($pool:ident, $elem:ty, $new_elem:expr) => {
        pub struct $pool {
            segs: Box<[AtomicPtr<$elem>]>,
            len: AtomicU32,
        }

        impl $pool {
            pub fn new() -> Self {
                let mut v = Vec::with_capacity(MAX_SEGS);
                v.resize_with(MAX_SEGS, || AtomicPtr::new(std::ptr::null_mut()));
                $pool {
                    segs: v.into_boxed_slice(),
                    len: AtomicU32::new(0),
                }
            }

            /// Number of slots ever reserved (high-water mark). Cell slots
            /// are reserved a chunk at a time, so the tail of this range may
            /// never have been activated: such slots are dead at generation 0.
            /// Every id below it may be passed to `get`, from any thread.
            #[inline]
            pub fn len(&self) -> usize {
                self.len.load(Ordering::Acquire) as usize
            }

            #[inline]
            pub fn is_empty(&self) -> bool {
                self.len() == 0
            }

            fn ensure_segment(&self, seg: usize) -> *mut $elem {
                assert!(seg < MAX_SEGS, "pool capacity exhausted");
                let slot = &self.segs[seg];
                let cur = slot.load(Ordering::Acquire);
                if !cur.is_null() {
                    return cur;
                }
                // Race to allocate; loser frees its attempt.
                let mut fresh: Vec<$elem> = Vec::with_capacity(SEG_SIZE);
                fresh.resize_with(SEG_SIZE, $new_elem);
                let boxed = fresh.into_boxed_slice();
                let ptr = Box::into_raw(boxed) as *mut $elem;
                match slot.compare_exchange(
                    std::ptr::null_mut(),
                    ptr,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => ptr,
                    Err(winner) => {
                        // SAFETY: we own `ptr`, nobody else saw it.
                        unsafe {
                            drop(Box::from_raw(std::slice::from_raw_parts_mut(ptr, SEG_SIZE)));
                        }
                        winner
                    }
                }
            }

            /// Reserve `n` consecutive slots never handed out before and
            /// return the first. (A cell context keeps them on its free list
            /// and reuses them from there.) Each pool is only ever bumped by
            /// one `n` — 1 for vertices, `CELL_CHUNK` for cells — which
            /// divides `SEG_SIZE`, so the run lies within one segment.
            ///
            /// The segment is allocated before the length is raised past
            /// the run, so every id below [`len`](Self::len) is backed by
            /// memory: a reader that samples ids below it (a walk restarting
            /// from a random cell) never meets a segment still being built.
            /// The compare-exchange releases the segment pointer's store;
            /// `len()`'s acquire load pairs with it.
            fn bump(&self, n: u32) -> u32 {
                let mut id = self.len.load(Ordering::Acquire);
                loop {
                    assert!(id < NONE - n, "pool id space exhausted");
                    self.ensure_segment((id >> SEG_SHIFT) as usize);
                    match self.len.compare_exchange_weak(
                        id,
                        id + n,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => return id,
                        Err(cur) => id = cur,
                    }
                }
            }

            /// Best-effort prefetch of the element's cache line into L1.
            /// Purely a performance hint: ids past the segment table
            /// (including `NONE`) and unallocated segments are silently
            /// ignored, and no element data is read, so calling this can
            /// never change behavior. Bounded by the segment table alone —
            /// the shared length, which allocating threads write, is not
            /// read.
            #[inline]
            pub fn prefetch(&self, id: u32) {
                #[cfg(target_arch = "x86_64")]
                {
                    let seg = (id >> SEG_SHIFT) as usize;
                    let off = (id as usize) & (SEG_SIZE - 1);
                    let ptr = match self.segs.get(seg) {
                        Some(slot) => slot.load(Ordering::Acquire),
                        None => std::ptr::null_mut(),
                    };
                    if !ptr.is_null() {
                        // SAFETY: a non-null segment holds SEG_SIZE elements
                        // and `off < SEG_SIZE`, so the pointer is in bounds
                        // of a live allocation; prefetch dereferences
                        // nothing architecturally.
                        unsafe {
                            core::arch::x86_64::_mm_prefetch(
                                ptr.add(off) as *const i8,
                                core::arch::x86_64::_MM_HINT_T0,
                            )
                        };
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                let _ = id;
            }

            /// Access an element. Panics on out-of-range ids.
            #[inline]
            pub fn get(&self, id: u32) -> &$elem {
                debug_assert!((id as usize) < self.len(), "stale id {}", id);
                let seg = (id >> SEG_SHIFT) as usize;
                let off = (id as usize) & (SEG_SIZE - 1);
                let ptr = self.segs[seg].load(Ordering::Acquire);
                debug_assert!(!ptr.is_null());
                // SAFETY: segments are allocated before ids in them are
                // handed out and never freed until the pool drops.
                unsafe { &*ptr.add(off) }
            }
        }

        impl Drop for $pool {
            fn drop(&mut self) {
                for slot in self.segs.iter() {
                    let ptr = slot.load(Ordering::Acquire);
                    if !ptr.is_null() {
                        // SAFETY: exclusive access in drop; ptr from Box.
                        unsafe {
                            drop(Box::from_raw(std::slice::from_raw_parts_mut(ptr, SEG_SIZE)));
                        }
                    }
                }
            }
        }

        impl Default for $pool {
            fn default() -> Self {
                Self::new()
            }
        }
    };
}

fn new_vertex() -> Vertex {
    Vertex {
        pos: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        lock: AtomicU32::new(0),
        meta: AtomicU32::new(0),
        hint: AtomicU32::new(NONE),
    }
}

fn new_cell() -> Cell {
    Cell {
        verts: [
            AtomicU32::new(NONE),
            AtomicU32::new(NONE),
            AtomicU32::new(NONE),
            AtomicU32::new(NONE),
        ],
        neis: [
            AtomicU32::new(NONE),
            AtomicU32::new(NONE),
            AtomicU32::new(NONE),
            AtomicU32::new(NONE),
        ],
        gen: AtomicU32::new(0),
        flags: AtomicU32::new(0),
        tag: AtomicU64::new(0),
    }
}

segmented_pool!(VertexPool, Vertex, new_vertex);
segmented_pool!(CellPool, Cell, new_cell);

impl VertexPool {
    /// Allocate and initialize a new vertex; the returned id is also the
    /// vertex's insertion timestamp.
    pub fn alloc(&self, pos: [f64; 3], kind: VertexKind) -> VertexId {
        let id = self.bump(1);
        self.get(id).init(pos, kind);
        VertexId(id)
    }

    #[inline]
    pub fn vertex(&self, v: VertexId) -> &Vertex {
        self.get(v.0)
    }
}

impl CellPool {
    /// Activate a cell in slot taken from `free` (or a fresh slot) and return
    /// its id.
    pub fn alloc(&self, free: &mut Vec<CellId>, verts: [VertexId; 4], neis: [CellId; 4]) -> CellId {
        let id = self.reserve(free);
        self.activate(id, verts, neis);
        id
    }

    /// Take a dead slot (reused or fresh) without activating it; pair with
    /// [`CellPool::activate`] once the cell's data is fully computed. An
    /// empty free list is refilled with a chunk of `CELL_CHUNK` fresh slots,
    /// stacked so they are handed out in ascending order — the same ids, in
    /// the same order, a lone context would get one at a time.
    pub fn reserve(&self, free: &mut Vec<CellId>) -> CellId {
        if let Some(c) = free.pop() {
            return c;
        }
        let first = self.bump(CELL_CHUNK);
        free.extend((first + 1..first + CELL_CHUNK).rev().map(CellId));
        CellId(first)
    }

    /// Publish a reserved slot with its final data (alive flag set last).
    pub fn activate(&self, id: CellId, verts: [VertexId; 4], neis: [CellId; 4]) {
        self.get(id.0).activate(verts, neis);
    }

    /// Kill a cell; the slot goes to the caller's free list.
    pub fn free(&self, id: CellId, free: &mut Vec<CellId>) {
        self.get(id.0).deactivate();
        free.push(id);
    }

    #[inline]
    pub fn cell(&self, c: CellId) -> &Cell {
        self.get(c.0)
    }

    /// Iterate over ids of currently alive cells (racy under concurrency;
    /// intended for quiescent states: initialization, final extraction,
    /// tests).
    pub fn alive_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.len() as u32)
            .map(CellId)
            .filter(move |&c| self.cell(c).is_alive())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_alloc_and_fields() {
        let pool = VertexPool::new();
        let v = pool.alloc([1.0, 2.0, 3.0], VertexKind::Isosurface);
        assert_eq!(v, VertexId(0));
        let vx = pool.vertex(v);
        assert_eq!(vx.pos(), [1.0, 2.0, 3.0]);
        assert_eq!(vx.kind(), VertexKind::Isosurface);
        assert!(vx.is_alive());
        let v2 = pool.alloc([0.0; 3], VertexKind::Circumcenter);
        assert_eq!(v2, VertexId(1));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn vertex_lock_protocol() {
        let pool = VertexPool::new();
        let v = pool.alloc([0.0; 3], VertexKind::BoxCorner);
        let vx = pool.vertex(v);
        assert_eq!(vx.try_lock(3), Ok(true));
        assert_eq!(vx.try_lock(3), Ok(false)); // reentrant
        assert_eq!(vx.try_lock(5), Err(3)); // conflict reports owner
        assert_eq!(vx.lock_owner(), Some(3));
        vx.unlock(3);
        assert_eq!(vx.lock_owner(), None);
        assert_eq!(vx.try_lock(5), Ok(true));
        vx.unlock(5);
    }

    #[test]
    fn cell_lifecycle_and_generation() {
        let pool = CellPool::new();
        let mut free = Vec::new();
        let vs = [VertexId(0), VertexId(1), VertexId(2), VertexId(3)];
        let ns = [CellId(NONE); 4];
        let c = pool.alloc(&mut free, vs, ns);
        assert!(pool.cell(c).is_alive());
        let g0 = pool.cell(c).gen();
        let snap = pool.cell(c).snapshot().unwrap();
        assert_eq!(snap.verts, vs);

        pool.free(c, &mut free);
        assert!(!pool.cell(c).is_alive());
        assert!(pool.cell(c).snapshot().is_none());
        assert_eq!(pool.cell(c).gen(), g0 + 1);

        // reuse same slot
        let c2 = pool.alloc(&mut free, vs, ns);
        assert_eq!(c2, c);
        assert!(pool.cell(c2).is_alive());
        assert_eq!(pool.cell(c2).gen(), g0 + 1);
    }

    #[test]
    fn fresh_cell_slots_come_in_ascending_chunks() {
        let pool = CellPool::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let first = pool.reserve(&mut a);
        assert_eq!(first, CellId(0));
        assert_eq!(a.len() as u32, CELL_CHUNK - 1);
        assert_eq!(pool.len() as u32, CELL_CHUNK);
        // a second context gets the next chunk, not a slot inside ours
        assert_eq!(pool.reserve(&mut b), CellId(CELL_CHUNK));
        // a lone context still counts 1, 2, 3, … as if it bumped one at a time
        for want in 1..CELL_CHUNK {
            assert_eq!(pool.reserve(&mut a), CellId(want));
        }
        assert_eq!(pool.reserve(&mut a), CellId(2 * CELL_CHUNK));
        // freed slots are reused before the rest of the chunk
        pool.activate(first, [VertexId(0); 4], [CellId(NONE); 4]);
        pool.free(first, &mut a);
        assert_eq!(pool.reserve(&mut a), first);
        // reserved but never activated: dead at generation 0, and no scan,
        // snapshot or generation-tagged lookup takes it for a cell
        pool.activate(first, [VertexId(0); 4], [CellId(NONE); 4]);
        assert_eq!(pool.alive_ids().collect::<Vec<_>>(), vec![first]);
        let idle = pool.cell(CellId(2 * CELL_CHUNK + 5));
        assert!(!idle.is_alive() && idle.gen() == 0 && idle.snapshot().is_none());
    }

    #[test]
    fn prefetch_tolerates_any_id() {
        let pool = CellPool::new();
        pool.prefetch(0); // no segment yet
        pool.prefetch(NONE);
        pool.reserve(&mut Vec::new());
        pool.prefetch(SEG_SIZE as u32 - 1); // allocated segment, past `len`
        pool.prefetch(SEG_SIZE as u32); // next segment, not allocated
        pool.prefetch(NONE - 1);
    }

    #[test]
    fn cell_queries() {
        let pool = CellPool::new();
        let mut free = Vec::new();
        let c = pool.alloc(
            &mut free,
            [VertexId(5), VertexId(9), VertexId(2), VertexId(7)],
            [CellId(10), CellId(NONE), CellId(12), CellId(NONE)],
        );
        let cell = pool.cell(c);
        assert!(cell.has_vertex(VertexId(9)));
        assert!(!cell.has_vertex(VertexId(4)));
        assert_eq!(cell.index_of(VertexId(2)), Some(2));
        assert_eq!(cell.face_to(CellId(12)), Some(2));
        assert_eq!(cell.face_to(CellId(99)), None);
    }

    #[test]
    fn pool_grows_across_segments() {
        let pool = VertexPool::new();
        let n = SEG_SIZE + 10;
        for i in 0..n {
            let v = pool.alloc([i as f64, 0.0, 0.0], VertexKind::Circumcenter);
            assert_eq!(v.idx(), i);
        }
        assert_eq!(pool.len(), n);
        assert_eq!(
            pool.vertex(VertexId(SEG_SIZE as u32 + 5)).pos()[0],
            (SEG_SIZE + 5) as f64
        );
    }

    #[test]
    fn concurrent_allocation_is_disjoint() {
        let pool = std::sync::Arc::new((VertexPool::new(), CellPool::new()));
        let mut handles = Vec::new();
        for t in 0..4 {
            let p = pool.clone();
            handles.push(std::thread::spawn(move || {
                let (mut verts, mut cells, mut free) = (Vec::new(), Vec::new(), Vec::new());
                for i in 0..5000 {
                    verts.push(p.0.alloc([t as f64, i as f64, 0.0], VertexKind::Circumcenter));
                    cells.push(p.1.reserve(&mut free));
                }
                (verts, cells)
            }));
        }
        let (mut verts, mut cells) = (Vec::new(), Vec::new());
        for h in handles {
            let (v, c) = h.join().unwrap();
            verts.extend(v.into_iter().map(|v| v.0));
            cells.extend(c.into_iter().map(|c| c.0));
        }
        for ids in [&mut verts, &mut cells] {
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 20000);
        }
        assert_eq!(pool.0.len(), 20000);
        // each thread rounded its 5000 cells up to whole chunks
        let chunk = CELL_CHUNK as usize;
        assert_eq!(pool.1.len(), 4 * 5000usize.div_ceil(chunk) * chunk);
    }
}
