//! Staged predicate pipeline: semi-static filter → dynamic filter → exact.
//!
//! This is the only robust orient3d / insphere evaluation in the crate. The
//! plain [`crate::orient3d`] / [`crate::insphere()`] / [`crate::insphere_sos`]
//! entry points are this cascade run with [`SemiStaticBounds::none`], and
//! the batched filters in [`crate::batch`] evaluate their pass 1 with the
//! same scalar determinant functions (`orient_det`, `insphere_det`), one per
//! predicate. Shewchuk's stage-A *dynamic* filter, followed by exact
//! expansion arithmetic, is sign-safe for arbitrary inputs, but it pays for
//! that generality on every call: the error bound is a *permanent* — a sum
//! of absolute-value products mirroring the determinant — which costs
//! almost as many flops as the determinant itself.
//!
//! The cascade puts a cheaper stage in front: a **semi-static filter** in the
//! style of Devillers–Pion. For a mesh whose vertices all live inside a known
//! bounding box, the permanent is bounded *a priori* by a constant computed
//! once per mesh ([`SemiStaticBounds`]). A predicate call then only computes
//! the determinant; if its magnitude clears the precomputed bound, the sign
//! is certified without ever touching the permanent. Only calls that fail
//! this cheap test fall through to the dynamic filter, and only calls that
//! fail *that* reach exact arithmetic.
//!
//! ### Bounds derivation
//!
//! Let `m` be an upper bound on `|p[i] - q[i]|` for every coordinate axis and
//! every pair of input points (for box-bounded meshes, the largest box
//! extent). Writing `u = (1 + EPSILON)` for one rounding:
//!
//! * **orient3d**: every translated coordinate is `≤ m·u`; each of the six
//!   two-products is `≤ m²·u³`; the floating-point permanent
//!   `Σ (|x·y| + |x'·y'|)·|z|` is `≤ 6·m³·u⁸`. Stage A certifies the sign
//!   whenever `|det| > O3D_ERRBOUND_A · permanent`, so
//!   `B_orient = O3D_ERRBOUND_A · 6·m³ · u^k` (k chosen generously, see
//!   `MARGIN_POW`) upper-bounds the dynamic threshold for *every* in-box
//!   input, and `|det| > B_orient` is a sufficient certificate.
//! * **insphere**: translated coordinates `≤ m·u`, two-products `≤ m²·u³`,
//!   each three-term bracket `≤ 6·m³·u⁸`, each lift `≤ 3·m²·u⁵`, so the
//!   floating-point permanent is `≤ 72·m⁵·u^17` and
//!   `B_insphere = ISP_ERRBOUND_A · 72·m⁵ · u^k`.
//!
//! The safety exponent `k = MARGIN_POW` (32) dominates the worst-case
//! rounding depth of both permanents plus the rounding incurred computing
//! `m`, `m³`/`m⁵` and the bound itself in floating point; the slack it adds
//! is ~7·10⁻¹⁵ relative — irrelevant for filter efficacy, decisive for
//! soundness. The property suite in `tests/staged_agreement.rs` hammers the
//! certificate with adversarial near-degenerate inputs.
//!
//! The filter **never misclassifies — it only defers**: when the semi-static
//! stage cannot certify, the call falls through to the strictly stronger
//! dynamic stage and, if needed, to exact arithmetic. Per-stage hit counts
//! accumulate in a [`FilterStats`] passed by the caller (the Delaunay kernel
//! drains them into `pi2m-obs` counters after every operation).

use crate::insphere::insphere_exact;
use crate::orient::{orient3d_exact, P3};
use crate::primitives::EPSILON;

/// Error-bound coefficient for orient3d stage A (Shewchuk's `o3derrboundA`).
const O3D_ERRBOUND_A: f64 = (7.0 + 56.0 * EPSILON) * EPSILON;
/// Error-bound coefficient for insphere stage A (Shewchuk's `isperrboundA`).
const ISP_ERRBOUND_A: f64 = (16.0 + 224.0 * EPSILON) * EPSILON;

/// Safety margin exponent: the static bounds are inflated by `(1+ε)^32`,
/// which dominates every rounding step in the floating-point evaluation of
/// the permanents and of the bounds themselves.
const MARGIN_POW: i32 = 32;

/// Per-mesh precomputed error bounds for the semi-static filter stage.
///
/// Construct once from the mesh bounding box; sound for any predicate call
/// whose five (or four) input points all lie inside that box. Points outside
/// the box void the certificate — callers must use [`SemiStaticBounds::none`]
/// (which always defers) or bounds derived from a box that does contain them.
#[derive(Clone, Copy, Debug)]
pub struct SemiStaticBounds {
    /// `|det| > orient` certifies the orient3d sign without the permanent.
    pub orient: f64,
    /// `|det| > insphere` certifies the insphere sign without the permanent.
    pub insphere: f64,
}

impl SemiStaticBounds {
    /// Bounds for points whose pairwise coordinate differences are at most
    /// `max_extent` in absolute value on every axis.
    pub fn for_max_extent(max_extent: f64) -> Self {
        let m = max_extent.abs();
        let margin = (1.0 + EPSILON).powi(MARGIN_POW);
        let m3 = m * m * m;
        let m5 = m3 * m * m;
        SemiStaticBounds {
            orient: O3D_ERRBOUND_A * 6.0 * m3 * margin,
            insphere: ISP_ERRBOUND_A * 72.0 * m5 * margin,
        }
    }

    /// Bounds for points inside the axis-aligned box `[lo, hi]`.
    pub fn for_box(lo: &P3, hi: &P3) -> Self {
        let ext = (hi[0] - lo[0])
            .abs()
            .max((hi[1] - lo[1]).abs())
            .max((hi[2] - lo[2]).abs());
        Self::for_max_extent(ext)
    }

    /// Bounds that never certify: every call defers to the dynamic filter.
    /// Use when no a-priori box is known.
    pub fn none() -> Self {
        SemiStaticBounds {
            orient: f64::INFINITY,
            insphere: f64::INFINITY,
        }
    }
}

/// Per-stage hit counters for the staged pipeline. Plain integers — callers
/// keep one per worker and drain into the observability layer (the same
/// pattern as the kernel's walk statistics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// orient3d calls certified by the semi-static (per-mesh bound) stage.
    pub orient_semi_static: u64,
    /// orient3d calls certified by the dynamic (permanent) filter.
    pub orient_filtered: u64,
    /// orient3d calls that needed exact expansion arithmetic.
    pub orient_exact: u64,
    /// insphere calls certified by the semi-static stage.
    pub insphere_semi_static: u64,
    /// insphere calls certified by the dynamic filter.
    pub insphere_filtered: u64,
    /// insphere calls that needed exact expansion arithmetic.
    pub insphere_exact: u64,
}

impl FilterStats {
    /// Add another accumulator into this one.
    pub fn merge(&mut self, o: &FilterStats) {
        self.orient_semi_static += o.orient_semi_static;
        self.orient_filtered += o.orient_filtered;
        self.orient_exact += o.orient_exact;
        self.insphere_semi_static += o.insphere_semi_static;
        self.insphere_filtered += o.insphere_filtered;
        self.insphere_exact += o.insphere_exact;
    }

    /// Drain: return the current counts and reset to zero.
    pub fn take(&mut self) -> FilterStats {
        std::mem::take(self)
    }

    /// Total orient3d calls seen.
    pub fn orient_total(&self) -> u64 {
        self.orient_semi_static + self.orient_filtered + self.orient_exact
    }

    /// Total insphere calls seen.
    pub fn insphere_total(&self) -> u64 {
        self.insphere_semi_static + self.insphere_filtered + self.insphere_exact
    }
}

/// The orient3d determinant, the one scalar form of it: the staged cascade's
/// stage 1 and the batched pass 1 in [`crate::batch`] both evaluate this
/// operation sequence, so they cannot drift apart (the AVX2 lanes mirror it
/// line for line).
#[inline(always)]
pub(crate) fn orient_det(pa: &P3, pb: &P3, pc: &P3, pd: &P3) -> f64 {
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

/// The insphere determinant, the one scalar form of it (see [`orient_det`]).
#[inline(always)]
pub(crate) fn insphere_det(pa: &P3, pb: &P3, pc: &P3, pd: &P3, pe: &P3) -> f64 {
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

/// A predicate value's sign as -1 / 0 / +1.
#[inline]
pub(crate) fn sign(v: f64) -> i8 {
    if v > 0.0 {
        1
    } else if v < 0.0 {
        -1
    } else {
        0
    }
}

/// Staged robust orient3d: semi-static filter → dynamic filter → exact.
/// With [`SemiStaticBounds::none`] this is [`crate::orient3d`].
pub fn orient3d_staged(
    b: &SemiStaticBounds,
    st: &mut FilterStats,
    pa: &P3,
    pb: &P3,
    pc: &P3,
    pd: &P3,
) -> f64 {
    let det = orient_det(pa, pb, pc, pd);

    // Stage 1 — semi-static: one comparison against the per-mesh constant.
    if det > b.orient || -det > b.orient {
        st.orient_semi_static += 1;
        return det;
    }

    // Stage 2 — dynamic: the input-dependent permanent bound, over the
    // translated coordinates and products the determinant was built from.
    let adx = pa[0] - pd[0];
    let bdx = pb[0] - pd[0];
    let cdx = pc[0] - pd[0];
    let ady = pa[1] - pd[1];
    let bdy = pb[1] - pd[1];
    let cdy = pc[1] - pd[1];
    let adz = pa[2] - pd[2];
    let bdz = pb[2] - pd[2];
    let cdz = pc[2] - pd[2];
    let permanent = ((bdx * cdy).abs() + (cdx * bdy).abs()) * adz.abs()
        + ((cdx * ady).abs() + (adx * cdy).abs()) * bdz.abs()
        + ((adx * bdy).abs() + (bdx * ady).abs()) * cdz.abs();
    let errbound = O3D_ERRBOUND_A * permanent;
    if det > errbound || -det > errbound {
        st.orient_filtered += 1;
        return det;
    }

    // Stage 3 — exact expansion arithmetic.
    st.orient_exact += 1;
    orient3d_exact(pa, pb, pc, pd)
}

/// Sign of [`orient3d_staged`] as -1 / 0 / +1.
#[inline]
pub fn orient3d_sign_staged(
    b: &SemiStaticBounds,
    st: &mut FilterStats,
    pa: &P3,
    pb: &P3,
    pc: &P3,
    pd: &P3,
) -> i8 {
    sign(orient3d_staged(b, st, pa, pb, pc, pd))
}

/// Staged robust insphere: semi-static filter → dynamic filter → exact.
/// With [`SemiStaticBounds::none`] this is [`crate::insphere()`].
pub fn insphere_staged(
    b: &SemiStaticBounds,
    st: &mut FilterStats,
    pa: &P3,
    pb: &P3,
    pc: &P3,
    pd: &P3,
    pe: &P3,
) -> f64 {
    let det = insphere_det(pa, pb, pc, pd, pe);

    // Stage 1 — semi-static: skip the 24-term permanent entirely.
    if det > b.insphere || -det > b.insphere {
        st.insphere_semi_static += 1;
        return det;
    }

    // Stage 2 — dynamic: the permanent over the determinant's own
    // translated coordinates, two-products and lifts.
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

    // Each pair is a two-product bracket of the determinant, in absolute value.
    let ab = (aex * bey).abs() + (bex * aey).abs();
    let bc = (bex * cey).abs() + (cex * bey).abs();
    let cd = (cex * dey).abs() + (dex * cey).abs();
    let da = (dex * aey).abs() + (aex * dey).abs();
    let ac = (aex * cey).abs() + (cex * aey).abs();
    let bd = (bex * dey).abs() + (dex * bey).abs();

    let alift = aex * aex + aey * aey + aez * aez;
    let blift = bex * bex + bey * bey + bez * bez;
    let clift = cex * cex + cey * cey + cez * cez;
    let dlift = dex * dex + dey * dey + dez * dez;

    let (az, bz, cz, dz) = (aez.abs(), bez.abs(), cez.abs(), dez.abs());
    let permanent = (cd * bz + bd * cz + bc * dz) * alift
        + (da * cz + ac * dz + cd * az) * blift
        + (ab * dz + bd * az + da * bz) * clift
        + (bc * az + ac * bz + ab * cz) * dlift;
    let errbound = ISP_ERRBOUND_A * permanent;
    if det > errbound || -det > errbound {
        st.insphere_filtered += 1;
        return det;
    }

    // Stage 3 — exact.
    st.insphere_exact += 1;
    insphere_exact(pa, pb, pc, pd, pe)
}

/// Staged, symbolically perturbed insphere: [`insphere_staged`], with ties
/// broken by the perturbation scheme described at [`crate::insphere_sos`];
/// the orient3d cofactors consulted on ties run through the cascade too.
/// With [`SemiStaticBounds::none`] this is [`crate::insphere_sos`].
#[allow(clippy::too_many_arguments)]
pub fn insphere_sos_staged(
    b: &SemiStaticBounds,
    st: &mut FilterStats,
    pa: &P3,
    pb: &P3,
    pc: &P3,
    pd: &P3,
    pe: &P3,
    keys: [u64; 5],
) -> i8 {
    let det = insphere_staged(b, st, pa, pb, pc, pd, pe);
    if det > 0.0 {
        return 1;
    }
    if det < 0.0 {
        return -1;
    }
    // Cospherical: perturb. det4(ε) = det4 + ε_e·S − Σ_{i∈{a..d}} ε_i·C_i
    // with C_a = -orient3d(b,c,d,e), C_b = +orient3d(a,c,d,e),
    // C_c = -orient3d(a,b,d,e), C_d = +orient3d(a,b,c,e),
    // S = orient3d(a,b,c,d).
    let mut order = [0usize, 1, 2, 3, 4];
    order.sort_unstable_by(|&i, &j| keys[j].cmp(&keys[i]));
    for &i in &order {
        let coeff = match i {
            0 => orient3d_sign_staged(b, st, pb, pc, pd, pe),
            1 => -orient3d_sign_staged(b, st, pa, pc, pd, pe),
            2 => orient3d_sign_staged(b, st, pa, pb, pd, pe),
            3 => -orient3d_sign_staged(b, st, pa, pb, pc, pe),
            _ => orient3d_sign_staged(b, st, pa, pb, pc, pd),
        };
        if coeff != 0 {
            return coeff;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: P3 = [0.0, 0.0, 0.0];
    const B: P3 = [1.0, 0.0, 0.0];
    const C: P3 = [0.0, 1.0, 0.0];
    const D: P3 = [0.0, 0.0, -1.0];

    fn unit_bounds() -> SemiStaticBounds {
        SemiStaticBounds::for_box(&[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0])
    }

    #[test]
    fn semi_static_certifies_generic_cases() {
        let b = unit_bounds();
        let mut st = FilterStats::default();
        assert!(orient3d_staged(&b, &mut st, &A, &B, &C, &[0.0, 0.0, -1.0]) > 0.0);
        assert_eq!(st.orient_semi_static, 1);
        assert_eq!(st.orient_exact, 0);
        assert!(insphere_staged(&b, &mut st, &A, &B, &C, &D, &[0.5, 0.5, -0.5]) > 0.0);
        assert_eq!(st.insphere_semi_static, 1);
    }

    #[test]
    fn degenerate_defers_to_exact_and_agrees() {
        let b = unit_bounds();
        let mut st = FilterStats::default();
        // exactly coplanar
        assert_eq!(
            orient3d_staged(&b, &mut st, &A, &B, &C, &[0.25, 0.25, 0.0]),
            0.0
        );
        assert_eq!(st.orient_exact, 1);
        assert_eq!(st.orient_semi_static, 0);
        // exactly cospherical
        assert_eq!(
            insphere_staged(&b, &mut st, &A, &B, &C, &D, &[1.0, 1.0, -1.0]),
            0.0
        );
        assert_eq!(st.insphere_exact, 1);
    }

    #[test]
    fn near_degenerate_signs_match_exact() {
        let b = unit_bounds();
        let mut st = FilterStats::default();
        let eps = 2f64.powi(-60);
        for d in [[0.3, 0.4, -eps], [0.3, 0.4, eps]] {
            assert_eq!(
                orient3d_sign_staged(&b, &mut st, &A, &B, &C, &d),
                sign(orient3d_exact(&A, &B, &C, &d))
            );
        }
        let eps = 2f64.powi(-45);
        for e in [[1.0 - eps, 1.0, -1.0], [1.0 + eps, 1.0, -1.0]] {
            assert_eq!(
                sign(insphere_staged(&b, &mut st, &A, &B, &C, &D, &e)),
                sign(insphere_exact(&A, &B, &C, &D, &e))
            );
        }
    }

    #[test]
    fn none_bounds_never_certify_semi_statically() {
        let b = SemiStaticBounds::none();
        let mut st = FilterStats::default();
        assert!(orient3d_staged(&b, &mut st, &A, &B, &C, &[0.0, 0.0, -1.0]) > 0.0);
        assert_eq!(st.orient_semi_static, 0);
        assert_eq!(st.orient_filtered, 1);
    }

    #[test]
    fn sos_staged_matches_exact_tie_break() {
        let b = unit_bounds();
        let mut st = FilterStats::default();
        let e = [1.0, 1.0, -1.0]; // exactly cospherical
        assert_eq!(insphere_exact(&A, &B, &C, &D, &e), 0.0);
        let p = [&A, &B, &C, &D, &e];
        for perm in 0..5 {
            let mut keys = [0u64, 1, 2, 3, 4];
            keys.rotate_left(perm);
            // the youngest point's cofactor, (-1)^i times the exact orient3d
            // of the other four (none vanishes for this configuration)
            let i = (0..5).max_by_key(|&i| keys[i]).unwrap();
            let rest: Vec<&P3> = (0..5).filter(|&j| j != i).map(|j| p[j]).collect();
            let cofactor = sign(orient3d_exact(rest[0], rest[1], rest[2], rest[3]));
            assert_ne!(cofactor, 0);
            assert_eq!(
                insphere_sos_staged(&b, &mut st, &A, &B, &C, &D, &e, keys),
                if i % 2 == 0 { cofactor } else { -cofactor }
            );
        }
        assert!(st.insphere_exact > 0);
    }

    #[test]
    fn stats_merge_and_take() {
        let mut a = FilterStats {
            orient_semi_static: 1,
            insphere_exact: 2,
            ..Default::default()
        };
        let c = FilterStats {
            orient_semi_static: 3,
            insphere_filtered: 5,
            ..Default::default()
        };
        a.merge(&c);
        assert_eq!(a.orient_semi_static, 4);
        assert_eq!(a.insphere_filtered, 5);
        assert_eq!(a.insphere_exact, 2);
        let t = a.take();
        assert_eq!(t.orient_total(), 4);
        assert_eq!(a, FilterStats::default());
    }
}
