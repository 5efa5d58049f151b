//! The insphere wave of the insertion kernel stays off the heap.
//!
//! Cavity expansion stages candidate cells until a wave holds `BATCH_LANES`
//! of them, but finishes the cell whose neighbours it is adding, so a wave
//! can be three lanes wider. A counting global allocator checks that even
//! the widest such wave allocates nothing inside `insphere_sos_batch`.

use pi2m_predicates::{insphere_sos_batch, BatchStats, FilterStats, SemiStaticBounds, BATCH_LANES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (the test harness's other threads
    /// allocate too, so a global count would not be ours alone).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialised thread-local without a destructor, so touching it
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn widest_insphere_wave_allocates_nothing() {
    // one cell short of a full wave, plus all four faces of the next cell
    let lanes = BATCH_LANES + 3;
    let mut s = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let (mut xs, mut ys, mut zs) = (Vec::new(), Vec::new(), Vec::new());
    let mut keys = Vec::new();
    for l in 0..lanes as u64 {
        for _ in 0..4 {
            xs.push(next());
            ys.push(next());
            zs.push(next());
        }
        keys.push([4 * l, 4 * l + 1, 4 * l + 2, 4 * l + 3, u64::MAX]);
    }
    let pe = [next(), next(), next()];
    let bounds = SemiStaticBounds::for_box(&[0.0; 3], &[1.0; 3]);
    let (mut st, mut bt) = (FilterStats::default(), BatchStats::default());
    // the caller's output buffer is warm, as the kernel's scratch arena is
    let mut signs = Vec::with_capacity(lanes);

    let before = ALLOCS.with(Cell::get);
    insphere_sos_batch(
        &bounds, &mut st, &mut bt, &xs, &ys, &zs, &pe, &keys, &mut signs,
    );
    let allocs = ALLOCS.with(Cell::get) - before;

    assert_eq!(signs.len(), lanes);
    assert_eq!(bt.insphere_lanes, lanes as u64);
    assert_eq!(allocs, 0, "a {lanes}-lane wave allocated {allocs} times");
}
