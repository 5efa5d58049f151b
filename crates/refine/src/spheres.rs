//! The per-cell circumsphere table.
//!
//! A cell's circumcenter and the label there are wanted by its own
//! classification, by the R3 test of each of its up-to-four neighbours, and
//! by R4's inside test; all are functions of the cell's four vertices, which
//! `(cell id, generation)` names uniquely (a slot's vertices change only
//! across a free, and every free bumps the generation). The table keeps one
//! slot per cell id, filled lazily by whoever asks first.
//!
//! ## Slot protocol
//!
//! A slot is a seqlock whose sequence word also carries the key:
//!
//! ```text
//! tag = generation << 32 | sequence << 16 | label << 8 | state
//! ```
//!
//! * A **writer** claims the slot by CAS-ing the tag it saw to
//!   `(its generation, sequence + 1, WRITING)`, stores the three circumcenter
//!   words, and publishes `(generation, sequence + 1, label, READY)` with
//!   release ordering. A slot that is `WRITING` is never claimed, so at most
//!   one writer touches the payload at a time; a writer that loses the claim
//!   just keeps the value it computed. Two writers of the same `(cell, gen)`
//!   can only ever write identical bytes.
//! * A **reader** accepts the payload only when the tag is `READY` for
//!   exactly its generation both before and after it read the words (acquire
//!   load, acquire fence, reload), so it never sees a torn payload or one
//!   belonging to another generation; on any mismatch it recomputes.
//!
//! ## Memory
//!
//! Slots are 32 bytes and live in segments that double in size (4096 slots,
//! 4096, 8192, …), each allocated when the first cell id in its range is
//! looked up: at most `max(4096, 2 × cell-id high-water)` slots, with no
//! ceiling on the id space and no lock on the lookup path. A segment is
//! allocated zeroed and never written up front (an all-zero slot is empty),
//! so only the pages whose slots are used become resident: one id past a
//! power of two costs a page, not the 4 MB segment it falls in.

use pi2m_geometry::Point3;
use pi2m_image::Label;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::OnceLock;

/// log₂ of the first segment's slot count.
const FIRST_SHIFT: u32 = 12;
/// Segment `k ≥ 1` covers ids `[2^(FIRST_SHIFT+k-1), 2^(FIRST_SHIFT+k))`.
const SEGMENTS: usize = (32 - FIRST_SHIFT) as usize + 1;

const STATE_MASK: u64 = 0xff;
const WRITING: u64 = 1;
const READY: u64 = 2;
const SEQ_ONE: u64 = 1 << 16;
const SEQ_MASK: u64 = 0xffff << 16;

struct Slot {
    tag: AtomicU64,
    cc: [AtomicU64; 3],
}

/// A cell's circumcenter and the label at it.
pub(crate) type Circumsphere = (Point3, Label);

pub(crate) struct SphereTable {
    segs: [OnceLock<Box<[Slot]>>; SEGMENTS],
}

impl SphereTable {
    pub(crate) fn new() -> Self {
        SphereTable {
            segs: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    fn slot(&self, cell: u32) -> &Slot {
        let k = (32 - (cell >> FIRST_SHIFT).leading_zeros()) as usize;
        let (base, len) = match k {
            0 => (0, 1usize << FIRST_SHIFT),
            _ => {
                let base = 1u32 << (FIRST_SHIFT as usize + k - 1);
                (base, base as usize)
            }
        };
        let seg = self.segs[k].get_or_init(|| {
            // SAFETY: a `Slot` is four `AtomicU64`s, and all-zero bytes are
            // a valid `AtomicU64` (the value 0): an empty slot, tag 0. The
            // allocator hands back zeroed pages without writing them, so a
            // segment costs resident memory only where slots are touched.
            unsafe { Box::<[Slot]>::new_zeroed_slice(len).assume_init() }
        });
        &seg[(cell - base) as usize]
    }

    /// The stored circumsphere of `(cell, gen)`, if one is published.
    pub(crate) fn get(&self, cell: u32, gen: u32) -> Option<Circumsphere> {
        let slot = self.slot(cell);
        let tag = slot.tag.load(Ordering::Acquire);
        if tag >> 32 != gen as u64 || tag & STATE_MASK != READY {
            return None;
        }
        let w = [0, 1, 2].map(|i| slot.cc[i].load(Ordering::Relaxed));
        // Pairs with the writer's release fence: had any of the three loads
        // seen a later writer's word, the reload below sees that writer's
        // claim (or something newer) and the tags differ.
        fence(Ordering::Acquire);
        (slot.tag.load(Ordering::Relaxed) == tag).then(|| {
            (
                Point3::new(
                    f64::from_bits(w[0]),
                    f64::from_bits(w[1]),
                    f64::from_bits(w[2]),
                ),
                (tag >> 8) as Label,
            )
        })
    }

    /// Publish the circumsphere of `(cell, gen)`. Best effort: a slot that
    /// another writer holds is left alone.
    pub(crate) fn put(&self, cell: u32, gen: u32, (cc, label): Circumsphere) {
        let slot = self.slot(cell);
        let seen = slot.tag.load(Ordering::Relaxed);
        let published = seen >> 32 == gen as u64 && seen & STATE_MASK == READY;
        if published || seen & STATE_MASK == WRITING {
            return;
        }
        let key = (gen as u64) << 32 | (seen.wrapping_add(SEQ_ONE) & SEQ_MASK);
        if slot
            .tag
            .compare_exchange(seen, key | WRITING, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        // Orders the claim before the payload stores for readers that fence
        // after loading the payload (see `get`).
        fence(Ordering::Release);
        for (word, x) in slot.cc.iter().zip([cc.x, cc.y, cc.z]) {
            word.store(x.to_bits(), Ordering::Relaxed);
        }
        // Release: a reader that loads this tag sees the three words above.
        slot.tag
            .store(key | (label as u64) << 8 | READY, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    /// The payload every writer of `(cell, gen)` would compute.
    fn sphere_of(cell: u32, gen: u32) -> Circumsphere {
        let x = cell as f64 * 1.5 + gen as f64 * 0.001;
        (Point3::new(x, -x, x * 0.5), (cell ^ gen) as Label)
    }

    fn same_bits(a: Circumsphere, b: Circumsphere) -> bool {
        a.1 == b.1
            && [a.0.x, a.0.y, a.0.z].map(f64::to_bits) == [b.0.x, b.0.y, b.0.z].map(f64::to_bits)
    }

    #[test]
    fn get_returns_only_the_published_generation() {
        let t = SphereTable::new();
        assert!(t.get(7, 0).is_none(), "an empty slot holds nothing");
        t.put(7, 0, sphere_of(7, 0));
        assert!(same_bits(t.get(7, 0).unwrap(), sphere_of(7, 0)));
        assert!(t.get(7, 1).is_none());
        t.put(7, 1, sphere_of(7, 1));
        assert!(t.get(7, 0).is_none(), "the older generation is gone");
        assert!(same_bits(t.get(7, 1).unwrap(), sphere_of(7, 1)));
    }

    #[test]
    fn segments_cover_the_id_space_without_overlap() {
        let t = SphereTable::new();
        // both ends of the first segments, and the last id of all
        let ids = [0u32, 4095, 4096, 8191, 8192, 16383, 16384];
        for (n, &id) in ids.iter().enumerate() {
            t.put(id, n as u32, sphere_of(id, n as u32));
        }
        for (n, &id) in ids.iter().enumerate() {
            assert!(same_bits(
                t.get(id, n as u32).unwrap(),
                sphere_of(id, n as u32)
            ));
        }
        assert_eq!(t.segs[0].get().unwrap().len(), 4096);
        assert_eq!(t.segs[1].get().unwrap().len(), 4096);
        assert_eq!(t.segs[2].get().unwrap().len(), 8192);
        assert_eq!(t.segs[3].get().unwrap().len(), 16384);
        assert!(t.segs[4].get().is_none(), "untouched ranges cost nothing");
        let k = |id: u32| (32 - (id >> FIRST_SHIFT).leading_zeros()) as usize;
        assert_eq!(k(u32::MAX), SEGMENTS - 1);
    }

    /// Eight threads hammer a handful of slots through recycled generations:
    /// writers publish `(cell, gen)` for generations that advance and
    /// sometimes lag, readers ask for every generation in flight. Whatever a
    /// reader is handed must be bit-identical to recomputation.
    #[test]
    fn concurrent_readers_never_see_torn_or_foreign_entries() {
        const CELLS: u32 = 4;
        const GENS: u32 = 20_000;
        let t = SphereTable::new();
        let start = Barrier::new(8);
        let bad = AtomicBool::new(false);
        let hits = AtomicU64::new(0);
        std::thread::scope(|s| {
            for tid in 0..8u32 {
                let (t, start, bad, hits) = (&t, &start, &bad, &hits);
                s.spawn(move || {
                    start.wait();
                    let mut local_hits = 0u64;
                    for gen in 0..GENS {
                        for cell in 0..CELLS {
                            // half the threads trail by a generation, so old
                            // and new writers contend for the same slot
                            let g = gen.saturating_sub(tid & 1);
                            if tid < 4 {
                                t.put(cell, g, sphere_of(cell, g));
                            }
                            for probe in [g, g + 1, g.saturating_sub(1)] {
                                if let Some(got) = t.get(cell, probe) {
                                    local_hits += 1;
                                    if !same_bits(got, sphere_of(cell, probe)) {
                                        bad.store(true, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                    }
                    hits.fetch_add(local_hits, Ordering::Relaxed);
                });
            }
        });
        assert!(!bad.load(Ordering::Relaxed), "a reader saw foreign bytes");
        assert!(hits.load(Ordering::Relaxed) > 0, "the test never hit");
    }
}
