//! Wide-lane (batched) semi-static predicate filters.
//!
//! The staged pipeline in [`crate::staged`] is branchy by construction: each
//! call computes a determinant, compares it against a bound, and either
//! returns or escalates. When the Delaunay kernel expands a cavity it issues
//! many such calls back to back — one insphere per frontier neighbor, one
//! orient3d per boundary face — and the branch after every determinant stops
//! the CPU from overlapping the independent lane computations.
//!
//! This module rephrases stage 1 as a **batch pass**: the caller stages a
//! wave of lanes (flat `xs/ys/zs` coordinate arrays gathered once from the
//! vertex pool for insphere, an index table into a point snapshot for
//! orient3d), all lane determinants are evaluated in one straight-line pass
//! with no intervening branches, and only then are the results classified.
//! Lanes whose determinant clears the semi-static bound are certified
//! exactly as the scalar stage 1 would have certified them — the per-lane arithmetic is the *same sequence of f64
//! operations* as [`orient3d_staged`] / [`insphere_sos_staged`] stage 1, so a
//! certified lane returns the bit-identical determinant. Lanes that fail the
//! bound fall back, per lane, to the full scalar staged cascade (which
//! recomputes the same determinant, fails stage 1 the same way, and proceeds
//! to the dynamic/exact stages). A wave is therefore **sign- and
//! value-identical** to the scalar cascade lane for lane, and the shared
//! [`FilterStats`] counters advance identically — batching changes the
//! schedule, never the answer.
//!
//! For the symbolically perturbed insphere, a certified lane implies
//! `det != 0`, so the SoS cofactor cascade is provably not consulted and the
//! sign is returned directly — again matching [`insphere_sos_staged`].
//!
//! No unstable features: lanes are plain `f64` arrays, and pass 1 runs as a
//! branch-free scalar loop on any target. On x86-64 with AVX2 detected at
//! runtime, pass 1 instead runs 4 lanes per 256-bit vector, each intrinsic
//! mirroring one line of the scalar determinant — the same IEEE f64 operation
//! tree per lane, no FMA contraction, no reassociation — so the vector path
//! produces bitwise the scalar determinants.

use crate::orient::P3;
use crate::staged::{insphere_sos_staged, orient3d_staged, FilterStats, SemiStaticBounds};

/// Preferred wave width for callers staging lanes: waves near this size
/// amortize the classification pass without growing the gather buffers.
/// [`orient3d_batch_gather`] accepts any lane count; [`insphere_sos_batch`]
/// accepts up to [`MAX_WAVE_LANES`].
pub const BATCH_LANES: usize = 16;

/// Widest insphere wave: a caller that stops staging once it holds
/// [`BATCH_LANES`] lanes, but never splits one cavity cell's four
/// neighbours across two waves, overshoots by at most three.
/// [`insphere_sos_batch`] keeps its determinants in a stack buffer this
/// wide, so a wave never touches the heap.
pub const MAX_WAVE_LANES: usize = BATCH_LANES + 3;

/// Occupancy and fallback accounting for the batched filters. Plain
/// integers, one per worker, drained into the observability layer alongside
/// [`FilterStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batched orient3d waves evaluated.
    pub orient_batches: u64,
    /// Total orient3d lanes across all waves.
    pub orient_lanes: u64,
    /// Orient3d lanes that failed the semi-static bound and fell back to the
    /// scalar staged cascade.
    pub orient_fallbacks: u64,
    /// Batched insphere waves evaluated.
    pub insphere_batches: u64,
    /// Total insphere lanes across all waves.
    pub insphere_lanes: u64,
    /// Insphere lanes that fell back to the scalar staged cascade.
    pub insphere_fallbacks: u64,
}

impl BatchStats {
    /// Add another accumulator into this one.
    pub fn merge(&mut self, o: &BatchStats) {
        self.orient_batches += o.orient_batches;
        self.orient_lanes += o.orient_lanes;
        self.orient_fallbacks += o.orient_fallbacks;
        self.insphere_batches += o.insphere_batches;
        self.insphere_lanes += o.insphere_lanes;
        self.insphere_fallbacks += o.insphere_fallbacks;
    }

    /// Drain: return the current counts and reset to zero.
    pub fn take(&mut self) -> BatchStats {
        std::mem::take(self)
    }

    /// Total lanes across both predicates.
    pub fn lanes_total(&self) -> u64 {
        self.orient_lanes + self.insphere_lanes
    }

    /// Total waves across both predicates.
    pub fn batches_total(&self) -> u64 {
        self.orient_batches + self.insphere_batches
    }

    /// Total scalar fallbacks across both predicates.
    pub fn fallbacks_total(&self) -> u64 {
        self.orient_fallbacks + self.insphere_fallbacks
    }

    /// Mean wave fill relative to [`BATCH_LANES`] (may exceed 1.0 when
    /// callers stage wider waves).
    pub fn occupancy(&self) -> f64 {
        let b = self.batches_total();
        if b == 0 {
            0.0
        } else {
            self.lanes_total() as f64 / (b * BATCH_LANES as u64) as f64
        }
    }

    /// Fraction of lanes that fell back to the scalar cascade.
    pub fn fallback_rate(&self) -> f64 {
        let l = self.lanes_total();
        if l == 0 {
            0.0
        } else {
            self.fallbacks_total() as f64 / l as f64
        }
    }
}

#[inline(always)]
fn lane_pt(xs: &[f64], ys: &[f64], zs: &[f64], i: usize) -> P3 {
    [xs[i], ys[i], zs[i]]
}

/// Pass 1 of [`insphere_sos_batch`]: every lane determinant, no branches.
#[inline(always)]
fn insphere_pass1(xs: &[f64], ys: &[f64], zs: &[f64], pe: &P3, dets: &mut [f64]) {
    for (l, slot) in dets.iter_mut().enumerate() {
        let pa = lane_pt(xs, ys, zs, 4 * l);
        let pb = lane_pt(xs, ys, zs, 4 * l + 1);
        let pc = lane_pt(xs, ys, zs, 4 * l + 2);
        let pd = lane_pt(xs, ys, zs, 4 * l + 3);
        *slot = insphere_det(&pa, &pb, &pc, &pd, pe);
    }
}

/// Pass 1 of [`orient3d_batch_gather`]: every lane determinant, no branches,
/// triangle corners read through the index table.
#[inline(always)]
fn orient_gather_pass1(pts: &[[f64; 3]], idx: &[[u32; 3]], pd: &P3, dets: &mut [f64]) {
    for (l, slot) in dets.iter_mut().enumerate() {
        let [a, b, c] = idx[l];
        *slot = orient_det(&pts[a as usize], &pts[b as usize], &pts[c as usize], pd);
    }
}

/// AVX2 variant of [`orient_gather_pass1`], selected at runtime: four lanes
/// per 256-bit vector, each intrinsic mirroring one line of [`orient_det`] —
/// the same IEEE f64 operation tree evaluated per lane, no FMA contraction,
/// no reassociation — so every determinant is bitwise what the scalar loop
/// produces. The leftover lanes (< 4) run the scalar loop itself.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn orient_gather_pass1_avx2(pts: &[[f64; 3]], idx: &[[u32; 3]], pd: &P3, dets: &mut [f64]) {
    use core::arch::x86_64::*;
    let n = dets.len();
    let pdx = _mm256_set1_pd(pd[0]);
    let pdy = _mm256_set1_pd(pd[1]);
    let pdz = _mm256_set1_pd(pd[2]);
    let mut l = 0;
    while l + 4 <= n {
        // role-major gather: coordinate `c` of corner `p` of lanes l..l+4
        // (set_pd takes the highest lane first)
        let (i0, i1, i2, i3) = (idx[l], idx[l + 1], idx[l + 2], idx[l + 3]);
        let ld = |p: usize, c: usize| {
            _mm256_set_pd(
                pts[i3[p] as usize][c],
                pts[i2[p] as usize][c],
                pts[i1[p] as usize][c],
                pts[i0[p] as usize][c],
            )
        };
        let adx = _mm256_sub_pd(ld(0, 0), pdx);
        let bdx = _mm256_sub_pd(ld(1, 0), pdx);
        let cdx = _mm256_sub_pd(ld(2, 0), pdx);
        let ady = _mm256_sub_pd(ld(0, 1), pdy);
        let bdy = _mm256_sub_pd(ld(1, 1), pdy);
        let cdy = _mm256_sub_pd(ld(2, 1), pdy);
        let adz = _mm256_sub_pd(ld(0, 2), pdz);
        let bdz = _mm256_sub_pd(ld(1, 2), pdz);
        let cdz = _mm256_sub_pd(ld(2, 2), pdz);

        let bdxcdy = _mm256_mul_pd(bdx, cdy);
        let cdxbdy = _mm256_mul_pd(cdx, bdy);
        let cdxady = _mm256_mul_pd(cdx, ady);
        let adxcdy = _mm256_mul_pd(adx, cdy);
        let adxbdy = _mm256_mul_pd(adx, bdy);
        let bdxady = _mm256_mul_pd(bdx, ady);

        // adz*(bdxcdy-cdxbdy) + bdz*(cdxady-adxcdy) + cdz*(adxbdy-bdxady),
        // left-associated exactly like the scalar expression
        let det = _mm256_add_pd(
            _mm256_add_pd(
                _mm256_mul_pd(adz, _mm256_sub_pd(bdxcdy, cdxbdy)),
                _mm256_mul_pd(bdz, _mm256_sub_pd(cdxady, adxcdy)),
            ),
            _mm256_mul_pd(cdz, _mm256_sub_pd(adxbdy, bdxady)),
        );
        _mm256_storeu_pd(dets.as_mut_ptr().add(l), det);
        l += 4;
    }
    orient_gather_pass1(pts, &idx[l..], pd, &mut dets[l..]);
}

/// Dispatch pass 1 of the gather-indexed orient batch.
#[inline]
fn run_orient_gather_pass1(pts: &[[f64; 3]], idx: &[[u32; 3]], pd: &P3, dets: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: feature presence checked on the line above.
        unsafe { orient_gather_pass1_avx2(pts, idx, pd, dets) };
        return;
    }
    orient_gather_pass1(pts, idx, pd, dets)
}

/// AVX2 variant of [`insphere_pass1`]; bit-identity argument as for
/// [`orient_gather_pass1_avx2`] — every intrinsic mirrors one [`insphere_det`] line.
/// The leftover lanes (< 4) run the scalar loop itself.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn insphere_pass1_avx2(xs: &[f64], ys: &[f64], zs: &[f64], pe: &P3, dets: &mut [f64]) {
    use core::arch::x86_64::*;
    let n = dets.len();
    let pex = _mm256_set1_pd(pe[0]);
    let pey = _mm256_set1_pd(pe[1]);
    let pez = _mm256_set1_pd(pe[2]);
    let mut l = 0;
    while l + 4 <= n {
        let (i0, i1, i2, i3) = (4 * l, 4 * (l + 1), 4 * (l + 2), 4 * (l + 3));
        let ld = |s: &[f64], o: usize| _mm256_set_pd(s[i3 + o], s[i2 + o], s[i1 + o], s[i0 + o]);
        let aex = _mm256_sub_pd(ld(xs, 0), pex);
        let bex = _mm256_sub_pd(ld(xs, 1), pex);
        let cex = _mm256_sub_pd(ld(xs, 2), pex);
        let dex = _mm256_sub_pd(ld(xs, 3), pex);
        let aey = _mm256_sub_pd(ld(ys, 0), pey);
        let bey = _mm256_sub_pd(ld(ys, 1), pey);
        let cey = _mm256_sub_pd(ld(ys, 2), pey);
        let dey = _mm256_sub_pd(ld(ys, 3), pey);
        let aez = _mm256_sub_pd(ld(zs, 0), pez);
        let bez = _mm256_sub_pd(ld(zs, 1), pez);
        let cez = _mm256_sub_pd(ld(zs, 2), pez);
        let dez = _mm256_sub_pd(ld(zs, 3), pez);

        let sub = |p: __m256d, q: __m256d, r: __m256d, t: __m256d| {
            _mm256_sub_pd(_mm256_mul_pd(p, q), _mm256_mul_pd(r, t))
        };
        let ab = sub(aex, bey, bex, aey);
        let bc = sub(bex, cey, cex, bey);
        let cd = sub(cex, dey, dex, cey);
        let da = sub(dex, aey, aex, dey);
        let ac = sub(aex, cey, cex, aey);
        let bd = sub(bex, dey, dex, bey);

        // abc = aez*bc - bez*ac + cez*ab  (left-associated)
        let abc = _mm256_add_pd(
            _mm256_sub_pd(_mm256_mul_pd(aez, bc), _mm256_mul_pd(bez, ac)),
            _mm256_mul_pd(cez, ab),
        );
        let bcd = _mm256_add_pd(
            _mm256_sub_pd(_mm256_mul_pd(bez, cd), _mm256_mul_pd(cez, bd)),
            _mm256_mul_pd(dez, bc),
        );
        // cda = cez*da + dez*ac + aez*cd
        let cda = _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(cez, da), _mm256_mul_pd(dez, ac)),
            _mm256_mul_pd(aez, cd),
        );
        let dab = _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(dez, ab), _mm256_mul_pd(aez, bd)),
            _mm256_mul_pd(bez, da),
        );

        let lift = |x: __m256d, y: __m256d, z: __m256d| {
            _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(x, x), _mm256_mul_pd(y, y)),
                _mm256_mul_pd(z, z),
            )
        };
        let alift = lift(aex, aey, aez);
        let blift = lift(bex, bey, bez);
        let clift = lift(cex, cey, cez);
        let dlift = lift(dex, dey, dez);

        // (dlift*abc - clift*dab) + (blift*cda - alift*bcd)
        let det = _mm256_add_pd(
            _mm256_sub_pd(_mm256_mul_pd(dlift, abc), _mm256_mul_pd(clift, dab)),
            _mm256_sub_pd(_mm256_mul_pd(blift, cda), _mm256_mul_pd(alift, bcd)),
        );
        _mm256_storeu_pd(dets.as_mut_ptr().add(l), det);
        l += 4;
    }
    insphere_pass1(&xs[4 * l..], &ys[4 * l..], &zs[4 * l..], pe, &mut dets[l..]);
}

/// Dispatch pass 1 of the insphere batch to the widest available unit.
#[inline]
fn run_insphere_pass1(xs: &[f64], ys: &[f64], zs: &[f64], pe: &P3, dets: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: feature presence checked on the line above.
        unsafe { insphere_pass1_avx2(xs, ys, zs, pe, dets) };
        return;
    }
    insphere_pass1(xs, ys, zs, pe, dets)
}

/// Stage-1 orient3d determinant for one lane — the exact operation sequence
/// of [`orient3d_staged`]'s determinant, kept in one `#[inline]` function so
/// the batched and (hypothetical) scalar evaluations cannot drift apart.
#[inline(always)]
fn orient_det(pa: &P3, pb: &P3, pc: &P3, pd: &P3) -> f64 {
    let adx = pa[0] - pd[0];
    let bdx = pb[0] - pd[0];
    let cdx = pc[0] - pd[0];
    let ady = pa[1] - pd[1];
    let bdy = pb[1] - pd[1];
    let cdy = pc[1] - pd[1];
    let adz = pa[2] - pd[2];
    let bdz = pb[2] - pd[2];
    let cdz = pc[2] - pd[2];

    let bdxcdy = bdx * cdy;
    let cdxbdy = cdx * bdy;
    let cdxady = cdx * ady;
    let adxcdy = adx * cdy;
    let adxbdy = adx * bdy;
    let bdxady = bdx * ady;

    adz * (bdxcdy - cdxbdy) + bdz * (cdxady - adxcdy) + cdz * (adxbdy - bdxady)
}

/// Stage-1 insphere determinant for one lane — the exact operation sequence
/// of [`insphere_staged`](crate::staged::insphere_staged)'s determinant.
#[inline(always)]
fn insphere_det(pa: &P3, pb: &P3, pc: &P3, pd: &P3, pe: &P3) -> f64 {
    let aex = pa[0] - pe[0];
    let bex = pb[0] - pe[0];
    let cex = pc[0] - pe[0];
    let dex = pd[0] - pe[0];
    let aey = pa[1] - pe[1];
    let bey = pb[1] - pe[1];
    let cey = pc[1] - pe[1];
    let dey = pd[1] - pe[1];
    let aez = pa[2] - pe[2];
    let bez = pb[2] - pe[2];
    let cez = pc[2] - pe[2];
    let dez = pd[2] - pe[2];

    let ab = aex * bey - bex * aey;
    let bc = bex * cey - cex * bey;
    let cd = cex * dey - dex * cey;
    let da = dex * aey - aex * dey;
    let ac = aex * cey - cex * aey;
    let bd = bex * dey - dex * bey;

    let abc = aez * bc - bez * ac + cez * ab;
    let bcd = bez * cd - cez * bd + dez * bc;
    let cda = cez * da + dez * ac + aez * cd;
    let dab = dez * ab + aez * bd + bez * da;

    let alift = aex * aex + aey * aey + aez * aez;
    let blift = bex * bex + bey * bey + bez * bez;
    let clift = cex * cex + cey * cey + cez * cez;
    let dlift = dex * dex + dey * dey + dez * dez;

    (dlift * abc - clift * dab) + (blift * cda - alift * bcd)
}

/// Batched staged orient3d over `idx.len()` lanes against a shared query
/// point `pd`: lane `l` is the triangle
/// `(pts[idx[l][0]], pts[idx[l][1]], pts[idx[l][2]])`. A caller that holds
/// its points in an indexable snapshot stages only three `u32` indices per
/// lane instead of nine coordinates. One determinant per lane ends up in
/// `dets` (which is cleared first); each is bitwise what [`orient3d_staged`]
/// returns for that lane, and the [`FilterStats`] bookkeeping is the same.
#[allow(clippy::too_many_arguments)]
pub fn orient3d_batch_gather(
    b: &SemiStaticBounds,
    st: &mut FilterStats,
    bt: &mut BatchStats,
    pts: &[[f64; 3]],
    idx: &[[u32; 3]],
    pd: &P3,
    dets: &mut Vec<f64>,
) {
    let n = idx.len();
    dets.clear();
    if n == 0 {
        return;
    }
    bt.orient_batches += 1;
    bt.orient_lanes += n as u64;
    dets.resize(n, 0.0);
    // Pass 1 — branch-free: every lane determinant, nothing else.
    run_orient_gather_pass1(pts, idx, pd, dets);
    // Pass 2 — classify: certified lanes keep their stage-1 determinant,
    // the rest re-enter the scalar cascade (stage 1 fails there identically,
    // so the counters tally exactly as an all-scalar run would).
    for l in 0..n {
        let det = dets[l];
        if det > b.orient || -det > b.orient {
            st.orient_semi_static += 1;
        } else {
            bt.orient_fallbacks += 1;
            let [a, bb, c] = idx[l];
            dets[l] = orient3d_staged(
                b,
                st,
                &pts[a as usize],
                &pts[bb as usize],
                &pts[c as usize],
                pd,
            );
        }
    }
}

/// Fixed 4-lane variant of [`orient3d_batch_gather`] with no heap buffers:
/// the four faces of one tetrahedron tested against a shared query point, as
/// in the point-location containment check. Lane `l` is the triangle
/// `(tris[l][0], tris[l][1], tris[l][2])`; each entry of `dets` ends up
/// bitwise what [`orient3d_staged`] returns for that lane. Pass 1 is the
/// gather pass over the twelve corners read as consecutive triangles.
pub fn orient3d_batch4(
    b: &SemiStaticBounds,
    st: &mut FilterStats,
    bt: &mut BatchStats,
    tris: &[[P3; 3]; 4],
    pd: &P3,
    dets: &mut [f64; 4],
) {
    const CONSECUTIVE: [[u32; 3]; 4] = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]];
    bt.orient_batches += 1;
    bt.orient_lanes += 4;
    run_orient_gather_pass1(tris.as_flattened(), &CONSECUTIVE, pd, dets);
    for l in 0..4 {
        let det = dets[l];
        if det > b.orient || -det > b.orient {
            st.orient_semi_static += 1;
        } else {
            bt.orient_fallbacks += 1;
            dets[l] = orient3d_staged(b, st, &tris[l][0], &tris[l][1], &tris[l][2], pd);
        }
    }
}

/// Batched staged + symbolically perturbed insphere over `n` lanes against a
/// shared query point `pe`.
///
/// Lane `l` is the tetrahedron `(a_l, b_l, c_l, d_l)` read from the SoA
/// arrays at stride 4, with SoS keys `keys[l]` (the fifth key belongs to
/// `pe`). One sign per lane is appended to `signs` (cleared first), each
/// identical to what [`insphere_sos_staged`] returns for that lane: a lane
/// certified by the semi-static bound has `det != 0`, so its sign is the
/// determinant's sign and the SoS cascade is provably not consulted.
///
/// # Panics
/// If the wave is wider than [`MAX_WAVE_LANES`].
#[allow(clippy::too_many_arguments)]
pub fn insphere_sos_batch(
    b: &SemiStaticBounds,
    st: &mut FilterStats,
    bt: &mut BatchStats,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    pe: &P3,
    keys: &[[u64; 5]],
    signs: &mut Vec<i8>,
) {
    let n = keys.len();
    assert!(
        n <= MAX_WAVE_LANES,
        "insphere wave of {n} lanes, wider than MAX_WAVE_LANES"
    );
    debug_assert!(xs.len() >= n * 4 && ys.len() >= n * 4 && zs.len() >= n * 4);
    signs.clear();
    if n == 0 {
        return;
    }
    bt.insphere_batches += 1;
    bt.insphere_lanes += n as u64;
    // Pass 1 — branch-free lane determinants.
    let mut dets = [0.0f64; MAX_WAVE_LANES];
    let det_buf = &mut dets[..n];
    run_insphere_pass1(xs, ys, zs, pe, det_buf);
    // Pass 2 — classify.
    signs.reserve(n);
    for (l, &det) in det_buf.iter().enumerate() {
        if det > b.insphere || -det > b.insphere {
            st.insphere_semi_static += 1;
            signs.push(if det > 0.0 { 1 } else { -1 });
        } else {
            bt.insphere_fallbacks += 1;
            let pa = lane_pt(xs, ys, zs, 4 * l);
            let pb = lane_pt(xs, ys, zs, 4 * l + 1);
            let pc = lane_pt(xs, ys, zs, 4 * l + 2);
            let pd = lane_pt(xs, ys, zs, 4 * l + 3);
            signs.push(insphere_sos_staged(b, st, &pa, &pb, &pc, &pd, pe, keys[l]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::staged::{insphere_sos_staged, orient3d_staged};

    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn unit_bounds() -> SemiStaticBounds {
        SemiStaticBounds::for_box(&[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0])
    }

    /// Index table reading `pts` as consecutive triangles: lane `l` is
    /// points `3l, 3l+1, 3l+2`.
    fn consecutive_tris(n: usize) -> Vec<[u32; 3]> {
        (0..n as u32)
            .map(|l| [3 * l, 3 * l + 1, 3 * l + 2])
            .collect()
    }

    #[test]
    fn orient_batch_is_bitwise_scalar() {
        let b = unit_bounds();
        let mut next = rng(7);
        for wave in 0..64usize {
            let n = wave % (2 * BATCH_LANES + 1);
            let pts: Vec<P3> = (0..3 * n).map(|_| [next(), next(), next()]).collect();
            let idx = consecutive_tris(n);
            let pd = [next(), next(), next()];
            let (mut st_b, mut st_s) = (FilterStats::default(), FilterStats::default());
            let mut bt = BatchStats::default();
            let mut dets = Vec::new();
            orient3d_batch_gather(&b, &mut st_b, &mut bt, &pts, &idx, &pd, &mut dets);
            assert_eq!(dets.len(), n);
            for l in 0..n {
                let (pa, pb, pc) = (pts[3 * l], pts[3 * l + 1], pts[3 * l + 2]);
                let scalar = orient3d_staged(&b, &mut st_s, &pa, &pb, &pc, &pd);
                assert_eq!(dets[l].to_bits(), scalar.to_bits(), "lane {l}");
            }
            assert_eq!(st_b, st_s, "filter counters must be mode-independent");
        }
    }

    #[test]
    fn insphere_batch_matches_scalar_sos() {
        let b = unit_bounds();
        let mut next = rng(99);
        for wave in 0..64usize {
            let n = wave % (MAX_WAVE_LANES + 1);
            let (mut xs, mut ys, mut zs) = (Vec::new(), Vec::new(), Vec::new());
            let mut keys = Vec::new();
            for l in 0..n {
                for _ in 0..4 {
                    xs.push(next());
                    ys.push(next());
                    zs.push(next());
                }
                keys.push([l as u64, 100 + l as u64, 200, 300, u64::MAX]);
            }
            let pe = [next(), next(), next()];
            let (mut st_b, mut st_s) = (FilterStats::default(), FilterStats::default());
            let mut bt = BatchStats::default();
            let mut signs = Vec::new();
            insphere_sos_batch(
                &b, &mut st_b, &mut bt, &xs, &ys, &zs, &pe, &keys, &mut signs,
            );
            assert_eq!(signs.len(), n);
            for l in 0..n {
                let pa = [xs[4 * l], ys[4 * l], zs[4 * l]];
                let pb = [xs[4 * l + 1], ys[4 * l + 1], zs[4 * l + 1]];
                let pc = [xs[4 * l + 2], ys[4 * l + 2], zs[4 * l + 2]];
                let pd = [xs[4 * l + 3], ys[4 * l + 3], zs[4 * l + 3]];
                let scalar = insphere_sos_staged(&b, &mut st_s, &pa, &pb, &pc, &pd, &pe, keys[l]);
                assert_eq!(signs[l], scalar, "lane {l}");
            }
            assert_eq!(st_b, st_s, "filter counters must be mode-independent");
        }
    }

    #[test]
    #[should_panic(expected = "wider than MAX_WAVE_LANES")]
    fn insphere_wave_wider_than_the_stack_buffer_is_refused() {
        let n = MAX_WAVE_LANES + 1;
        let coords = vec![0.5; 4 * n];
        insphere_sos_batch(
            &unit_bounds(),
            &mut FilterStats::default(),
            &mut BatchStats::default(),
            &coords,
            &coords,
            &coords,
            &[0.0; 3],
            &vec![[0, 1, 2, 3, u64::MAX]; n],
            &mut Vec::new(),
        );
    }

    #[test]
    fn orient_gather_is_bitwise_scalar() {
        let b = unit_bounds();
        let mut next = rng(23);
        for wave in 0..64usize {
            let n = wave % (2 * BATCH_LANES + 1);
            // a shared point table with more entries than lanes, indexed
            // out of order to exercise the gather
            let pts: Vec<[f64; 3]> = (0..3 * n + 5).map(|_| [next(), next(), next()]).collect();
            let idx: Vec<[u32; 3]> = (0..n)
                .map(|l| {
                    let m = pts.len() as u32;
                    [
                        (7 * l as u32 + 1) % m,
                        (3 * l as u32 + 2) % m,
                        (5 * l as u32) % m,
                    ]
                })
                .collect();
            let pd = [next(), next(), next()];
            let (mut st_b, mut st_s) = (FilterStats::default(), FilterStats::default());
            let mut bt = BatchStats::default();
            let mut dets = Vec::new();
            orient3d_batch_gather(&b, &mut st_b, &mut bt, &pts, &idx, &pd, &mut dets);
            assert_eq!(dets.len(), n);
            for l in 0..n {
                let [i, j, k] = idx[l];
                let scalar = orient3d_staged(
                    &b,
                    &mut st_s,
                    &pts[i as usize],
                    &pts[j as usize],
                    &pts[k as usize],
                    &pd,
                );
                assert_eq!(dets[l].to_bits(), scalar.to_bits(), "lane {l}");
            }
            assert_eq!(st_b, st_s, "filter counters must be mode-independent");
        }
    }

    #[test]
    fn orient_batch4_is_bitwise_scalar() {
        let b = unit_bounds();
        let mut next = rng(41);
        for _ in 0..64 {
            let mut tris = [[[0.0f64; 3]; 3]; 4];
            for tri in tris.iter_mut() {
                for p in tri.iter_mut() {
                    *p = [next(), next(), next()];
                }
            }
            let pd = [next(), next(), next()];
            let (mut st_b, mut st_s) = (FilterStats::default(), FilterStats::default());
            let mut bt = BatchStats::default();
            let mut dets = [0.0f64; 4];
            orient3d_batch4(&b, &mut st_b, &mut bt, &tris, &pd, &mut dets);
            for l in 0..4 {
                let scalar =
                    orient3d_staged(&b, &mut st_s, &tris[l][0], &tris[l][1], &tris[l][2], &pd);
                assert_eq!(dets[l].to_bits(), scalar.to_bits(), "lane {l}");
            }
            assert_eq!(st_b, st_s);
            assert_eq!(bt.orient_lanes, 4);
        }
    }

    #[test]
    fn none_bounds_force_full_fallback() {
        let b = SemiStaticBounds::none();
        let mut st = FilterStats::default();
        let mut bt = BatchStats::default();
        let pts = [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.1, 0.1, 0.3],
            [0.9, 0.1, 0.3],
            [0.2, 0.8, 0.3],
        ];
        let mut dets = Vec::new();
        orient3d_batch_gather(
            &b,
            &mut st,
            &mut bt,
            &pts,
            &consecutive_tris(2),
            &[0.2, 0.2, -1.0],
            &mut dets,
        );
        assert_eq!(bt.orient_lanes, 2);
        assert_eq!(bt.orient_fallbacks, 2);
        assert_eq!(st.orient_semi_static, 0);
        assert_eq!(st.orient_total(), 2);
        assert!((bt.fallback_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_merge_take_and_occupancy() {
        let mut a = BatchStats {
            orient_batches: 2,
            orient_lanes: 12,
            orient_fallbacks: 1,
            ..Default::default()
        };
        let b = BatchStats {
            insphere_batches: 1,
            insphere_lanes: 4,
            insphere_fallbacks: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.batches_total(), 3);
        assert_eq!(a.lanes_total(), 16);
        assert_eq!(a.fallbacks_total(), 3);
        let expect = 16.0 / (3.0 * BATCH_LANES as f64);
        assert!((a.occupancy() - expect).abs() < 1e-12);
        let t = a.take();
        assert_eq!(t.lanes_total(), 16);
        assert_eq!(a, BatchStats::default());
        assert_eq!(a.occupancy(), 0.0);
        assert_eq!(a.fallback_rate(), 0.0);
    }

    #[test]
    fn empty_waves_are_free() {
        let b = unit_bounds();
        let (mut st, mut bt) = (FilterStats::default(), BatchStats::default());
        let mut dets = vec![1.0];
        orient3d_batch_gather(&b, &mut st, &mut bt, &[], &[], &[0.0; 3], &mut dets);
        assert!(dets.is_empty());
        let mut signs = vec![1i8];
        insphere_sos_batch(
            &b,
            &mut st,
            &mut bt,
            &[],
            &[],
            &[],
            &[0.0; 3],
            &[],
            &mut signs,
        );
        assert!(signs.is_empty());
        assert_eq!(bt, BatchStats::default());
        assert_eq!(st, FilterStats::default());
    }
}
