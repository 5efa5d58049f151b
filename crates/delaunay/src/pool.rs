//! Lock-free segmented pools for vertices and cells.
//!
//! Both pools are arrays of lazily allocated fixed-size segments reached
//! through a two-level table: 256 top entries inline in the pool, each
//! pointing to a leaf of 1024 segment pointers that is installed with its
//! first segment. `get(id)` is three dependent loads (top → leaf → segment)
//! and no locks — readers may race with writers by design (all fields are
//! atomics; the speculative locking protocol plus generation validation make
//! the races benign, see `crate::mesh`). What a pool allocates grows with the
//! ids it has handed out, not with its 2^30-id capacity: one 8 KiB leaf per
//! 2^22 ids beside the segments themselves.
//!
//! A [`Cell`] is 36 bytes and a [`Vertex`] 32: each record holds only what
//! the kernel reads, with the alive bits folded into words it already has.

use crate::ids::{CellId, VertexId, VertexKind, NONE};
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{fence, AtomicPtr, AtomicU32, AtomicU64, Ordering};

/// log2 of segment capacity. A segment is written in full when it is
/// made (every record starts as `T::default()`), so it is resident from
/// then on whether or not its slots are used: the vacant tail of the last
/// segment is memory a call holds for nothing. 4096 records keep that
/// tail under 144 KiB of cells and 128 KiB of vertices, and still make a
/// segment install rare (one per 64 cell chunks).
const SEG_SHIFT: u32 = 12;
const SEG_SIZE: usize = 1 << SEG_SHIFT;
/// log2 of the segment pointers in one leaf (an 8 KiB leaf).
const LEAF_SHIFT: u32 = 10;
const LEAF_SIZE: usize = 1 << LEAF_SHIFT;
/// Top-level entries of a pool's table (2 KiB inline in the pool); with
/// the two levels below them a pool holds at most 2^30 ids.
const TOP_SIZE: usize = 256;
const MAX_IDS: usize = TOP_SIZE * LEAF_SIZE * SEG_SIZE;
const _: () = assert!(MAX_IDS == 1 << 30);
/// Cell slots a context reserves at a time when its free list runs dry: one
/// `fetch_add` on the shared length per 64 fresh cells, and one worker's
/// fresh cells sit in consecutive cache lines instead of interleaving with
/// its neighbour's. Divides `SEG_SIZE`, so a chunk never straddles segments.
const CELL_CHUNK: u32 = 64;
const _: () = assert!(SEG_SIZE.is_multiple_of(CELL_CHUNK as usize));

const _: () = assert!(size_of::<Cell>() == 36);
const _: () = assert!(size_of::<Vertex>() == 32 && align_of::<Vertex>() == 32);

/// Where id `id` lives: its top entry, its segment within that entry's
/// leaf, and its offset within the segment. Ids from 2^30 up map past the
/// top table.
#[inline]
const fn split(id: u32) -> (usize, usize, usize) {
    let id = id as usize;
    (
        id >> (SEG_SHIFT + LEAF_SHIFT),
        (id >> SEG_SHIFT) & (LEAF_SIZE - 1),
        id & (SEG_SIZE - 1),
    )
}

/// Vertex state word, bit 0: alive.
const ALIVE: u32 = 1;
/// Vertex state word, bits 8..16: the `VertexKind`.
const KIND_SHIFT: u32 = 8;
/// Vertex state word, bits 16..32: the lock, 0 = free, else `owner_tid + 1`.
const LOCK_SHIFT: u32 = 16;
/// The state word's bits other than the lock's.
const UNLOCKED: u32 = (1 << LOCK_SHIFT) - 1;
/// Thread ids run below this: `tid + 1` must fit the lock's 16 bits.
pub(crate) const MAX_LOCK_TIDS: u32 = u32::MAX >> LOCK_SHIFT;

/// A vertex record, 32 bytes and 32-aligned: two to a cache line, none
/// straddling one. Position and kind are written once before the vertex id
/// is published (ids only reach other threads through cells created under
/// vertex locks), so relaxed atomic accesses suffice.
#[repr(align(32))]
pub struct Vertex {
    /// Coordinates, bit-cast f64s.
    pos: [AtomicU64; 3],
    /// Alive bit, kind and speculative lock (see `ALIVE`, `KIND_SHIFT`,
    /// `LOCK_SHIFT`). Only a lock holder writes the alive bit, so the word
    /// changes under a free lock only by being locked.
    state: AtomicU32,
    /// Hint: some cell recently incident to this vertex.
    hint: AtomicU32,
}

/// A vacant slot: dead, unlocked, no hint.
impl Default for Vertex {
    fn default() -> Self {
        Vertex {
            pos: [const { AtomicU64::new(0) }; 3],
            state: AtomicU32::new(0),
            hint: AtomicU32::new(NONE),
        }
    }
}

impl Vertex {
    fn init(&self, p: [f64; 3], kind: VertexKind) {
        for (slot, v) in self.pos.iter().zip(p) {
            slot.store(v.to_bits(), Ordering::Relaxed);
        }
        self.hint.store(NONE, Ordering::Relaxed);
        self.state
            .store(ALIVE | ((kind as u32) << KIND_SHIFT), Ordering::Release);
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
        VertexKind::from_u8((self.state.load(Ordering::Relaxed) >> KIND_SHIFT) as u8)
    }

    #[inline]
    pub fn is_alive(&self) -> bool {
        self.state.load(Ordering::Relaxed) & ALIVE != 0
    }

    /// Clear the alive bit. The caller holds this vertex's lock, so no other
    /// thread writes the word until the unlock, which keeps the bit cleared.
    pub fn mark_dead(&self) {
        let cur = self.state.load(Ordering::Relaxed);
        debug_assert_ne!(cur >> LOCK_SHIFT, 0, "mark_dead without the lock");
        self.state.store(cur & !ALIVE, Ordering::Release);
    }

    /// Try to acquire the vertex lock for thread `tid`. Returns `Ok(true)` if
    /// newly acquired, `Ok(false)` if already held by `tid`, `Err(owner)` if
    /// held by another thread.
    ///
    /// A cavity touches most of its vertices several times, so the re-lock
    /// is the common case, and it costs a plain load: only `tid` ever stores
    /// `tid + 1` into the lock bits, and a thread never reads a value older
    /// than its own last store, so reading `tid + 1` means `tid` holds the
    /// lock. Anything else goes to a compare-exchange of the loaded word with
    /// its lock bits cleared, which then cannot see `tid + 1`. That exchange
    /// fails with a free lock only when a holder cleared the alive bit in
    /// between; it is retried against the new word.
    #[inline]
    pub fn try_lock(&self, tid: u32) -> Result<bool, u32> {
        debug_assert!(tid < MAX_LOCK_TIDS);
        let me = (tid + 1) << LOCK_SHIFT;
        let mut cur = self.state.load(Ordering::Relaxed);
        if cur & !UNLOCKED == me {
            return Ok(false);
        }
        loop {
            let free = cur & UNLOCKED;
            match self
                .state
                .compare_exchange(free, free | me, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => return Ok(true),
                Err(now) if now >> LOCK_SHIFT == 0 => cur = now,
                Err(now) => {
                    debug_assert_ne!(now & !UNLOCKED, me, "the load missed our lock");
                    return Err((now >> LOCK_SHIFT) - 1);
                }
            }
        }
    }

    /// Release the lock `tid` holds: store the word back without its lock
    /// bits (no other thread wrote it while the lock was held).
    #[inline]
    pub fn unlock(&self, tid: u32) {
        let cur = self.state.load(Ordering::Relaxed);
        debug_assert_eq!(cur >> LOCK_SHIFT, tid + 1);
        self.state.store(cur & UNLOCKED, Ordering::Release);
    }

    /// Current lock owner (for diagnostics), `None` when free.
    pub fn lock_owner(&self) -> Option<u32> {
        match self.state.load(Ordering::Relaxed) >> LOCK_SHIFT {
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

/// A tetrahedron slot, 36 bytes.
///
/// `verts[i]` are vertex ids; `neis[i]` is the cell adjacent across the face
/// *opposite* `verts[i]` (`NONE` on the hull). `gen` is bumped when the slot
/// is activated and again when it is freed, so its parity is the alive bit:
/// odd while alive, even once freed, 0 before the first activation. An odd
/// generation names one incarnation of the slot. Only the context that
/// reserved the slot (activation) or holds its vertex locks (free) writes
/// `gen`, so each bump is a load and a store.
pub struct Cell {
    verts: [AtomicU32; 4],
    neis: [AtomicU32; 4],
    gen: AtomicU32,
}

/// A slot never activated: dead at generation 0.
impl Default for Cell {
    fn default() -> Self {
        Cell {
            verts: [const { AtomicU32::new(NONE) }; 4],
            neis: [const { AtomicU32::new(NONE) }; 4],
            gen: AtomicU32::new(0),
        }
    }
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
        self.gen() & 1 != 0
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

    /// Gen-validated consistent read for lock-free walkers: a seqlock whose
    /// odd generations are the published states, accepted only if `gen` is
    /// odd and unchanged across the field loads.
    ///
    /// `activate` stores the fields, then the odd generation with release;
    /// the acquire load of `g1` pairs with it, so an accepted snapshot holds
    /// at least that incarnation's fields. `deactivate`'s release fence
    /// orders the free's bump before the next activation's field stores, and
    /// the acquire fence here orders the field loads before the re-read: if
    /// a field load saw a later incarnation's store, the fences synchronise
    /// and `g2` sees at least the free's bump, so the snapshot is refused.
    pub fn snapshot(&self) -> Option<CellSnap> {
        let g1 = self.gen.load(Ordering::Acquire);
        if g1 & 1 == 0 {
            return None;
        }
        let verts = self.verts();
        let neis = self.neis();
        fence(Ordering::Acquire);
        let g2 = self.gen.load(Ordering::Relaxed);
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
        // Publish: the odd generation last.
        let g = self.gen.load(Ordering::Relaxed);
        debug_assert_eq!(g & 1, 0, "activating an alive cell");
        self.gen.store(g + 1, Ordering::Release);
    }

    fn deactivate(&self) {
        let g = self.gen.load(Ordering::Relaxed);
        debug_assert_eq!(g & 1, 1, "freeing a dead cell");
        self.gen.store(g + 1, Ordering::Relaxed);
        // Every later store, the next activation's fields included, becomes
        // visible after the even generation (see `snapshot`).
        fence(Ordering::Release);
    }
}

/// One leaf of a pool's table: the pointers of 1024 segments.
type Leaf<T> = [AtomicPtr<T>; LEAF_SIZE];

fn new_leaf<T>() -> *mut Leaf<T> {
    Box::into_raw(Box::new(
        [const { AtomicPtr::new(ptr::null_mut()) }; LEAF_SIZE],
    ))
}

/// # Safety
/// `leaf` came from `new_leaf` and is not used afterwards.
unsafe fn free_leaf<T>(leaf: *mut Leaf<T>) {
    drop(unsafe { Box::from_raw(leaf) });
}

fn new_segment<T: Default>() -> *mut T {
    let mut fresh: Vec<T> = Vec::with_capacity(SEG_SIZE);
    fresh.resize_with(SEG_SIZE, T::default);
    Box::into_raw(fresh.into_boxed_slice()) as *mut T
}

/// # Safety
/// `seg` came from `new_segment` and is not used afterwards.
unsafe fn free_segment<T>(seg: *mut T) {
    drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(seg, SEG_SIZE)) });
}

/// The block `slot` points to, made with `make` if there is none yet.
/// Racing makers compare-exchange; the loser frees its attempt with `free`
/// and takes the winner's. The exchange releases the block's contents; the
/// acquire loads here and in [`Pool::get`] pair with it.
fn install<B>(slot: &AtomicPtr<B>, make: fn() -> *mut B, free: unsafe fn(*mut B)) -> *mut B {
    let cur = slot.load(Ordering::Acquire);
    if !cur.is_null() {
        return cur;
    }
    let fresh = make();
    match slot.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => fresh,
        Err(winner) => {
            // SAFETY: `fresh` came from `make` and nobody else saw it.
            unsafe { free(fresh) };
            winner
        }
    }
}

/// A segmented pool of `T` records indexed by `u32` ids.
pub struct Pool<T> {
    top: [AtomicPtr<Leaf<T>>; TOP_SIZE],
    len: AtomicU32,
    /// The pool owns its records and shares them across threads.
    _records: PhantomData<T>,
}

pub type VertexPool = Pool<Vertex>;
pub type CellPool = Pool<Cell>;

impl<T: Default> Pool<T> {
    pub fn new() -> Self {
        Pool {
            top: [const { AtomicPtr::new(ptr::null_mut()) }; TOP_SIZE],
            len: AtomicU32::new(0),
            _records: PhantomData,
        }
    }

    /// Back the segment holding `id` with memory, installing its leaf
    /// first if it is the leaf's first segment.
    fn ensure_segment(&self, id: u32) {
        let (top, seg, _) = split(id);
        let leaf = install(&self.top[top], new_leaf::<T>, free_leaf::<T>);
        // SAFETY: a non-null leaf lives until the pool drops.
        install(
            unsafe { &(*leaf)[seg] },
            new_segment::<T>,
            free_segment::<T>,
        );
    }

    /// Reserve `n` consecutive slots never handed out before and return the
    /// first. (A cell context keeps them on its free list and reuses them
    /// from there.) Each pool is only ever bumped by one `n` — 1 for
    /// vertices and [`append`](Self::append), `CELL_CHUNK` for cells — which
    /// divides `SEG_SIZE`, so the run lies within one segment.
    ///
    /// The segment is allocated before the length is raised past the run,
    /// so every id below [`len`](Self::len) is backed by memory: a reader
    /// that samples ids below it (a walk restarting from a random cell)
    /// never meets a segment still being built. The compare-exchange
    /// releases the segment pointer's store; `len()`'s acquire load pairs
    /// with it.
    fn bump(&self, n: u32) -> u32 {
        let mut id = self.len.load(Ordering::Acquire);
        loop {
            assert!(
                id as usize + n as usize <= MAX_IDS,
                "pool capacity exhausted"
            );
            self.ensure_segment(id);
            match self
                .len
                .compare_exchange_weak(id, id + n, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return id,
                Err(cur) => id = cur,
            }
        }
    }

    /// Reserve the next slot and return its id, backed by memory. The
    /// record is whatever the slot holds: a default one the first time, or
    /// what was written to it before a [`rewind`](Pool::rewind). The caller
    /// writes it before publishing the id.
    pub fn append(&self) -> u32 {
        self.bump(1)
    }
}

impl<T> Pool<T> {
    /// Forget every slot handed out, keeping the memory behind them: the
    /// next [`append`](Pool::append) hands out id 0 again, record contents
    /// and all. Exclusive access means no id is in use.
    pub fn rewind(&mut self) {
        *self.len.get_mut() = 0;
    }

    /// Number of slots ever reserved (high-water mark). Cell slots are
    /// reserved a chunk at a time, so the tail of this range may never have
    /// been activated: such slots are dead at generation 0. Every id below
    /// it may be passed to `get`, from any thread.
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Best-effort prefetch of the element's cache line into L1. Purely a
    /// performance hint: ids past the table (including `NONE`) and
    /// unallocated leaves or segments are silently ignored, and no element
    /// data is read, so calling this can never change behavior. Bounded by
    /// the table alone — the shared length, which allocating threads write,
    /// is not read.
    #[inline]
    pub fn prefetch(&self, id: u32) {
        #[cfg(target_arch = "x86_64")]
        {
            let (top, seg, off) = split(id);
            let Some(slot) = self.top.get(top) else {
                return;
            };
            let leaf = slot.load(Ordering::Acquire);
            if leaf.is_null() {
                return;
            }
            // SAFETY: a non-null leaf lives until the pool drops.
            let ptr = unsafe { (*leaf)[seg].load(Ordering::Acquire) };
            if !ptr.is_null() {
                // SAFETY: a non-null segment holds SEG_SIZE elements and
                // `off < SEG_SIZE`, so the pointer is in bounds of a live
                // allocation; prefetch dereferences nothing architecturally.
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

    /// Segments allocated so far, counted through the table.
    #[cfg(test)]
    pub(crate) fn segments(&self) -> usize {
        self.top
            .iter()
            .map(|slot| slot.load(Ordering::Acquire))
            .filter(|leaf| !leaf.is_null())
            // SAFETY: a non-null leaf lives until the pool drops.
            .flat_map(|leaf| unsafe { &*leaf }.iter())
            .filter(|seg| !seg.load(Ordering::Acquire).is_null())
            .count()
    }

    /// Access an element. Panics on ids past the table.
    #[inline]
    pub fn get(&self, id: u32) -> &T {
        debug_assert!((id as usize) < self.len(), "stale id {id}");
        let (top, seg, off) = split(id);
        let leaf = self.top[top].load(Ordering::Acquire);
        // SAFETY: leaves and segments are allocated before ids in them are
        // handed out and never freed until the pool drops.
        unsafe { &*(*leaf)[seg].load(Ordering::Acquire).add(off) }
    }
}

impl<T> Drop for Pool<T> {
    fn drop(&mut self) {
        for slot in &mut self.top {
            let leaf = *slot.get_mut();
            if leaf.is_null() {
                continue;
            }
            // SAFETY: exclusive access in drop; every non-null pointer came
            // from `new_leaf` or `new_segment` and is freed once.
            unsafe {
                for seg in (*leaf).iter_mut() {
                    let seg = *seg.get_mut();
                    if !seg.is_null() {
                        free_segment(seg);
                    }
                }
                free_leaf(leaf);
            }
        }
    }
}

impl<T: Default> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

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

    /// Publish a reserved slot with its final data (odd generation last).
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
    use std::sync::atomic::AtomicBool;

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

    /// The lock shares the state word with alive and kind: locking,
    /// re-locking, a conflict and the unlock leave both as they were, and a
    /// `mark_dead` under the lock survives the unlock.
    #[test]
    fn vertex_lock_protocol() {
        let pool = VertexPool::new();
        let v = pool.alloc([0.0; 3], VertexKind::SurfaceCenter);
        let vx = pool.vertex(v);
        let holds = |alive: bool, owner: Option<u32>| {
            assert_eq!(vx.kind(), VertexKind::SurfaceCenter);
            assert_eq!(vx.is_alive(), alive);
            assert_eq!(vx.lock_owner(), owner);
        };
        assert_eq!(vx.try_lock(3), Ok(true));
        holds(true, Some(3));
        assert_eq!(vx.try_lock(3), Ok(false)); // reentrant
        holds(true, Some(3));
        assert_eq!(vx.try_lock(5), Err(3)); // conflict reports owner
        holds(true, Some(3));
        vx.unlock(3);
        holds(true, None);
        // the highest thread id the lock bits can name
        let last = MAX_LOCK_TIDS - 1;
        assert_eq!(vx.try_lock(last), Ok(true));
        assert_eq!(vx.try_lock(0), Err(last));
        holds(true, Some(last));
        vx.unlock(last);

        assert_eq!(vx.try_lock(5), Ok(true));
        vx.mark_dead();
        holds(false, Some(5));
        vx.unlock(5);
        holds(false, None);
        // a dead vertex still locks, and stays dead through it
        assert_eq!(vx.try_lock(1), Ok(true));
        vx.unlock(1);
        holds(false, None);
    }

    #[test]
    fn cell_lifecycle_and_generation() {
        let pool = CellPool::new();
        let mut free = Vec::new();
        let vs = [VertexId(0), VertexId(1), VertexId(2), VertexId(3)];
        let ns = [CellId(NONE); 4];
        // a reserved slot is dead at generation 0 until its first activation
        let c = pool.reserve(&mut free);
        assert_eq!(pool.cell(c).gen(), 0);
        assert!(!pool.cell(c).is_alive() && pool.cell(c).snapshot().is_none());

        pool.activate(c, vs, ns);
        assert!(pool.cell(c).is_alive());
        assert_eq!(pool.cell(c).gen(), 1);
        let snap = pool.cell(c).snapshot().unwrap();
        assert_eq!((snap.verts, snap.neis, snap.gen), (vs, ns, 1));

        pool.free(c, &mut free);
        assert!(!pool.cell(c).is_alive());
        assert!(pool.cell(c).snapshot().is_none());
        assert_eq!(pool.cell(c).gen(), 2);

        // reuse same slot: the next odd generation names the new incarnation
        let c2 = pool.alloc(&mut free, vs, ns);
        assert_eq!(c2, c);
        assert!(pool.cell(c2).is_alive());
        assert_eq!(pool.cell(c2).gen(), 3);
        assert_eq!(pool.cell(c2).snapshot().unwrap().gen, 3);
    }

    /// The id split is checked on both sides of every segment boundary up
    /// to the last id, as a pure function: nothing is allocated.
    #[test]
    fn ids_split_into_leaf_segment_and_offset() {
        let last = (MAX_IDS - 1) as u32;
        assert_eq!(split(0), (0, 0, 0));
        assert_eq!(split(last), (TOP_SIZE - 1, LEAF_SIZE - 1, SEG_SIZE - 1));
        assert_eq!(split(last + 1).0, TOP_SIZE, "2^30 lies past the table");
        assert_eq!(split(NONE).0, (NONE as usize) >> (SEG_SHIFT + LEAF_SHIFT));
        for top in 0..TOP_SIZE {
            for seg in 0..LEAF_SIZE {
                let first = ((top * LEAF_SIZE + seg) * SEG_SIZE) as u32;
                assert_eq!(split(first), (top, seg, 0));
                assert_eq!(split(first + 1), (top, seg, 1));
                assert_eq!(split(first + SEG_SIZE as u32 - 1), (top, seg, SEG_SIZE - 1));
                if first > 0 {
                    let before = if seg == 0 {
                        (top - 1, LEAF_SIZE - 1, SEG_SIZE - 1)
                    } else {
                        (top, seg - 1, SEG_SIZE - 1)
                    };
                    assert_eq!(split(first - 1), before);
                }
            }
        }
    }

    /// One thread frees and reactivates one slot, alternating two vertex
    /// quads, while another snapshots it: every accepted snapshot has an odd
    /// generation and exactly the quad written for that incarnation.
    #[test]
    fn snapshots_race_reactivation_without_tearing() {
        const CYCLES: u32 = 200_000;
        // incarnation `gen / 2` gets quad A when even, B when odd
        let quad = |gen: u32| {
            let base = (gen / 2 % 2) * 4;
            (
                [0, 1, 2, 3].map(|i| VertexId(base + i)),
                [0, 1, 2, 3].map(|i| CellId(100 + base + i)),
            )
        };
        let pool = CellPool::new();
        pool.reserve(&mut Vec::new());
        // a slot straddling two cache lines, where a torn read is likeliest
        let c = (0..CELL_CHUNK)
            .map(CellId)
            .find(|&c| {
                let at = pool.cell(c) as *const Cell as usize;
                at / 64 != (at + size_of::<Cell>() - 1) / 64
            })
            .unwrap();
        let (vs, ns) = quad(1);
        pool.activate(c, vs, ns);
        let mut free = Vec::new();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..CYCLES {
                    pool.free(c, &mut free);
                    let (vs, ns) = quad(pool.cell(c).gen() + 1);
                    assert_eq!(pool.alloc(&mut free, vs, ns), c);
                }
                done.store(true, Ordering::Release);
            });
            let mut accepted = 0u64;
            loop {
                let finished = done.load(Ordering::Acquire);
                if let Some(snap) = pool.cell(c).snapshot() {
                    assert_eq!(snap.gen % 2, 1, "accepted a dead generation");
                    assert_eq!((snap.verts, snap.neis), quad(snap.gen), "torn snapshot");
                    accepted += 1;
                }
                if finished {
                    break;
                }
            }
            assert!(accepted > 0);
        });
        assert_eq!(pool.cell(c).gen(), 2 * CYCLES + 1);
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
        pool.prefetch(0); // no leaf yet
        pool.prefetch(NONE);
        pool.reserve(&mut Vec::new());
        pool.prefetch(SEG_SIZE as u32 - 1); // allocated segment, past `len`
        pool.prefetch(SEG_SIZE as u32); // next segment, not allocated
        pool.prefetch(1 << (SEG_SHIFT + LEAF_SHIFT)); // next leaf, not allocated
        pool.prefetch(MAX_IDS as u32); // past the table
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

    /// `append` hands out consecutive ids across a segment boundary;
    /// `rewind` starts them over on the same memory, records unchanged.
    #[test]
    fn append_and_rewind_reuse_the_segments() {
        let mut pool: Pool<AtomicU32> = Pool::new();
        for i in 0..SEG_SIZE as u32 + 3 {
            let id = pool.append();
            assert_eq!(id, i);
            pool.get(id).store(i + 1, Ordering::Relaxed);
        }
        let last = pool.get(SEG_SIZE as u32) as *const AtomicU32;
        pool.rewind();
        assert!(pool.is_empty());
        assert_eq!(pool.append(), 0);
        assert_eq!(pool.get(0).load(Ordering::Relaxed), 1);
        for _ in 1..=SEG_SIZE {
            pool.append();
        }
        assert!(std::ptr::eq(pool.get(SEG_SIZE as u32), last));
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
