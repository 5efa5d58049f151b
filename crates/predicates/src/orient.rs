//! The `orient3d` predicate: which side of the plane through `a`, `b`, `c`
//! does `d` lie on?
//!
//! Returns a value with the same sign as the determinant
//!
//! ```text
//! | ax-dx  ay-dy  az-dz |
//! | bx-dx  by-dy  bz-dz |
//! | cx-dx  cy-dy  cz-dz |
//! ```
//!
//! Positive when `d` is below the plane oriented so that `a`, `b`, `c` appear
//! counterclockwise from above (the usual Shewchuk convention). [`orient3d`]
//! is the staged cascade of [`crate::staged`] without a semi-static bound:
//! a filtered floating-point evaluation with a forward error bound, and
//! exact expansion arithmetic only for near-degenerate inputs.

use crate::expansion::Expansion;
use crate::staged::{orient3d_staged, sign, FilterStats, SemiStaticBounds};

/// Point in 3D, plain coordinates.
pub type P3 = [f64; 3];

/// Robust orient3d: returns a double whose *sign* is guaranteed correct
/// (positive, negative, or exactly zero for coplanar points).
pub fn orient3d(pa: &P3, pb: &P3, pc: &P3, pd: &P3) -> f64 {
    let none = SemiStaticBounds::none();
    orient3d_staged(&none, &mut FilterStats::default(), pa, pb, pc, pd)
}

/// The sign of robust orient3d as -1 / 0 / +1.
#[inline]
pub fn orient3d_sign(pa: &P3, pb: &P3, pc: &P3, pd: &P3) -> i8 {
    sign(orient3d(pa, pb, pc, pd))
}

/// Exact orient3d via expansion arithmetic on exactly translated coordinates.
/// Translation invariance of the determinant makes this the true value's sign.
pub fn orient3d_exact(pa: &P3, pb: &P3, pc: &P3, pd: &P3) -> f64 {
    let adx = Expansion::from_diff(pa[0], pd[0]);
    let ady = Expansion::from_diff(pa[1], pd[1]);
    let adz = Expansion::from_diff(pa[2], pd[2]);
    let bdx = Expansion::from_diff(pb[0], pd[0]);
    let bdy = Expansion::from_diff(pb[1], pd[1]);
    let bdz = Expansion::from_diff(pb[2], pd[2]);
    let cdx = Expansion::from_diff(pc[0], pd[0]);
    let cdy = Expansion::from_diff(pc[1], pd[1]);
    let cdz = Expansion::from_diff(pc[2], pd[2]);

    let det = det3_exact(&adx, &ady, &adz, &bdx, &bdy, &bdz, &cdx, &cdy, &cdz);
    signed_estimate(&det)
}

/// An exact determinant as a double with its exact sign (exactly zero when it
/// vanishes); the estimate keeps relative magnitude information for callers
/// that want it.
pub(crate) fn signed_estimate(det: &Expansion) -> f64 {
    match det.sign() {
        0 => 0.0,
        s => {
            let est = det.estimate();
            if est != 0.0 && (est > 0.0) == (s > 0) {
                est
            } else {
                s as f64 * f64::MIN_POSITIVE
            }
        }
    }
}

/// Exact 3x3 determinant of rows (x0 y0 z0; x1 y1 z1; x2 y2 z2) given as
/// expansions.
#[allow(clippy::too_many_arguments)]
pub(crate) fn det3_exact(
    x0: &Expansion,
    y0: &Expansion,
    z0: &Expansion,
    x1: &Expansion,
    y1: &Expansion,
    z1: &Expansion,
    x2: &Expansion,
    y2: &Expansion,
    z2: &Expansion,
) -> Expansion {
    // minors along the first row
    let m0 = y1.mul(z2).sub(&z1.mul(y2));
    let m1 = x1.mul(z2).sub(&z1.mul(x2));
    let m2 = x1.mul(y2).sub(&y1.mul(x2));
    x0.mul(&m0).sub(&y0.mul(&m1)).add(&z0.mul(&m2))
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: P3 = [0.0, 0.0, 0.0];
    const B: P3 = [1.0, 0.0, 0.0];
    const C: P3 = [0.0, 1.0, 0.0];

    #[test]
    fn clear_cases() {
        // d below the ccw plane (negative z side) → positive by convention
        assert!(orient3d(&A, &B, &C, &[0.0, 0.0, -1.0]) > 0.0);
        assert!(orient3d(&A, &B, &C, &[0.0, 0.0, 1.0]) < 0.0);
    }

    #[test]
    fn coplanar_is_exact_zero() {
        assert_eq!(orient3d(&A, &B, &C, &[0.25, 0.25, 0.0]), 0.0);
        assert_eq!(orient3d_sign(&A, &B, &C, &[5.0, -3.0, 0.0]), 0);
    }

    #[test]
    fn near_degenerate_sign_is_right() {
        // d extremely slightly off-plane: filtered path must escalate and the
        // exact path must still see the perturbation.
        let eps = 2f64.powi(-60);
        let d_lo = [0.3, 0.4, -eps];
        let d_hi = [0.3, 0.4, eps];
        assert_eq!(orient3d_sign(&A, &B, &C, &d_lo), 1);
        assert_eq!(orient3d_sign(&A, &B, &C, &d_hi), -1);
    }

    #[test]
    fn antisymmetry_under_swap() {
        let d = [0.2, 0.3, 0.4];
        let s1 = orient3d_sign(&A, &B, &C, &d);
        let s2 = orient3d_sign(&B, &A, &C, &d);
        assert_eq!(s1, -s2);
    }

    #[test]
    fn exact_matches_integer_reference() {
        // integer coordinates -> determinant computable exactly in i128
        let pts: [[i64; 3]; 4] = [[3, 1, 4], [1, 5, 9], [2, 6, 5], [3, 5, 8]];
        let det_ref = {
            let d = |i: usize, k: usize| (pts[i][k] - pts[3][k]) as i128;
            d(0, 0) * (d(1, 1) * d(2, 2) - d(1, 2) * d(2, 1))
                - d(0, 1) * (d(1, 0) * d(2, 2) - d(1, 2) * d(2, 0))
                + d(0, 2) * (d(1, 0) * d(2, 1) - d(1, 1) * d(2, 0))
        };
        let f = |i: usize| [pts[i][0] as f64, pts[i][1] as f64, pts[i][2] as f64];
        let s = orient3d_sign(&f(0), &f(1), &f(2), &f(3));
        assert_eq!(s as i128, det_ref.signum());
    }
}
