//! The `insphere` predicate: is `e` inside the circumsphere of the tetrahedron
//! `a b c d`?
//!
//! Returns a value with the same sign as the determinant
//!
//! ```text
//! | ax-ex  ay-ey  az-ez  (ax-ex)²+(ay-ey)²+(az-ez)² |
//! | bx-ex  by-ey  bz-ez  ...                        |
//! | cx-ex  cy-ey  cz-ez  ...                        |
//! | dx-ex  dy-ey  dz-ez  ...                        |
//! ```
//!
//! which is positive when `e` lies inside the circumsphere, **provided the
//! tetrahedron `a b c d` is positively oriented** (`orient3d(a,b,c,d) > 0`).
//! For negatively oriented tetrahedra the sign flips; callers in the Delaunay
//! kernel normalize orientation first. [`insphere()`] is the staged cascade of [`crate::staged`] without a
//! semi-static bound.

use crate::expansion::Expansion;
use crate::orient::{det3_exact, signed_estimate, P3};
use crate::staged::{insphere_sos_staged, insphere_staged, sign, FilterStats, SemiStaticBounds};

/// Robust insphere: sign-correct double (exactly zero for cospherical points).
pub fn insphere(pa: &P3, pb: &P3, pc: &P3, pd: &P3, pe: &P3) -> f64 {
    let none = SemiStaticBounds::none();
    insphere_staged(&none, &mut FilterStats::default(), pa, pb, pc, pd, pe)
}

/// The sign of robust insphere as -1 / 0 / +1.
#[inline]
pub fn insphere_sign(pa: &P3, pb: &P3, pc: &P3, pd: &P3, pe: &P3) -> i8 {
    sign(insphere(pa, pb, pc, pd, pe))
}

/// Symbolically perturbed insphere: never returns 0 for five points that are
/// not all coplanar, so the Delaunay triangulation of any point set becomes
/// *unique* (independent of insertion order) — the property the removal
/// operation's ball re-triangulation relies on.
///
/// Each point carries a `key` (the kernel passes the vertex's global
/// insertion timestamp; auxiliary local points use keys above all real ones).
/// Conceptually every point's paraboloid lift is lowered by an infinitesimal
/// `ε(key)` with larger keys perturbed more (`key1 > key2 ⇒ ε(key1) ≫
/// ε(key2)`). When the exact determinant vanishes, the perturbation terms are
/// examined in decreasing-ε order; the first nonvanishing term (an `orient3d`
/// cofactor) decides the sign.
///
/// Returns +1 if `pe` is inside the perturbed circumsphere of the positively
/// oriented tetrahedron `(pa, pb, pc, pd)`, -1 if outside, 0 only when all
/// five points are coplanar.
pub fn insphere_sos(pa: &P3, pb: &P3, pc: &P3, pd: &P3, pe: &P3, keys: [u64; 5]) -> i8 {
    let none = SemiStaticBounds::none();
    insphere_sos_staged(&none, &mut FilterStats::default(), pa, pb, pc, pd, pe, keys)
}

/// Exact insphere via expansion arithmetic on exactly translated coordinates.
pub fn insphere_exact(pa: &P3, pb: &P3, pc: &P3, pd: &P3, pe: &P3) -> f64 {
    let tr = |p: &P3| {
        [
            Expansion::from_diff(p[0], pe[0]),
            Expansion::from_diff(p[1], pe[1]),
            Expansion::from_diff(p[2], pe[2]),
        ]
    };
    let a = tr(pa);
    let b = tr(pb);
    let c = tr(pc);
    let d = tr(pd);

    let lift = |p: &[Expansion; 3]| p[0].square().add(&p[1].square()).add(&p[2].square());
    let la = lift(&a);
    let lb = lift(&b);
    let lc = lift(&c);
    let ld = lift(&d);

    let m = |r0: &[Expansion; 3], r1: &[Expansion; 3], r2: &[Expansion; 3]| {
        det3_exact(
            &r0[0], &r0[1], &r0[2], &r1[0], &r1[1], &r1[2], &r2[0], &r2[1], &r2[2],
        )
    };
    // Cofactor expansion along the lift column (column index 3):
    // det = -la*det3(b,c,d) + lb*det3(a,c,d) - lc*det3(a,b,d) + ld*det3(a,b,c)
    let det = lb
        .mul(&m(&a, &c, &d))
        .sub(&la.mul(&m(&b, &c, &d)))
        .sub(&lc.mul(&m(&a, &b, &d)))
        .add(&ld.mul(&m(&a, &b, &c)));

    signed_estimate(&det)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orient::orient3d_sign;

    // Positively oriented unit tetrahedron.
    const A: P3 = [0.0, 0.0, 0.0];
    const B: P3 = [1.0, 0.0, 0.0];
    const C: P3 = [0.0, 1.0, 0.0];
    const D: P3 = [0.0, 0.0, -1.0];

    #[test]
    fn orientation_assumption_holds() {
        assert_eq!(orient3d_sign(&A, &B, &C, &D), 1);
    }

    #[test]
    fn clear_inside_outside() {
        // circumsphere of A,B,C,D has center (0.5,0.5,-0.5), radius sqrt(3)/2
        assert!(insphere(&A, &B, &C, &D, &[0.5, 0.5, -0.5]) > 0.0);
        assert!(insphere(&A, &B, &C, &D, &[10.0, 10.0, 10.0]) < 0.0);
    }

    #[test]
    fn cospherical_is_exact_zero() {
        // (1,1,-1) lies on the circumsphere: distance to center (.5,.5,-.5)
        // is sqrt(.25+.25+.25) = radius.
        assert_eq!(insphere(&A, &B, &C, &D, &[1.0, 1.0, -1.0]), 0.0);
    }

    #[test]
    fn near_degenerate_sign() {
        let eps = 2f64.powi(-45);
        // nudge a cospherical point radially in/out along x from center .5
        let inside = [1.0 - eps, 1.0, -1.0];
        let outside = [1.0 + eps, 1.0, -1.0];
        assert_eq!(insphere_sign(&A, &B, &C, &D, &inside), 1);
        assert_eq!(insphere_sign(&A, &B, &C, &D, &outside), -1);
    }

    #[test]
    fn swap_changes_sign() {
        let e = [0.5, 0.5, -0.5];
        let v1 = insphere_sign(&A, &B, &C, &D, &e);
        let v2 = insphere_sign(&B, &A, &C, &D, &e);
        assert_eq!(v1, -v2);
    }

    #[test]
    fn sos_agrees_with_unperturbed_when_generic() {
        let e_in = [0.5, 0.5, -0.5];
        let e_out = [10.0, 0.0, 0.0];
        assert_eq!(insphere_sos(&A, &B, &C, &D, &e_in, [0, 1, 2, 3, 4]), 1);
        assert_eq!(insphere_sos(&A, &B, &C, &D, &e_out, [0, 1, 2, 3, 4]), -1);
    }

    #[test]
    fn sos_breaks_cospherical_ties_deterministically() {
        // (1,1,-1) is exactly cospherical with A,B,C,D.
        let e = [1.0, 1.0, -1.0];
        assert_eq!(insphere(&A, &B, &C, &D, &e), 0.0);
        // newest query point (largest key) is perturbed downward the most:
        // it must test inside the positively oriented cell's sphere.
        assert_eq!(insphere_sos(&A, &B, &C, &D, &e, [0, 1, 2, 3, 4]), 1);
        // oldest query point: the youngest cell vertex decides instead.
        let s_old = insphere_sos(&A, &B, &C, &D, &e, [1, 2, 3, 4, 0]);
        assert!(s_old == 1 || s_old == -1);
    }

    #[test]
    fn sos_never_zero_for_nondegenerate_cell() {
        // cospherical grid-like cases with various key assignments
        let e = [1.0, 1.0, -1.0];
        for perm in 0..5 {
            let mut keys = [0u64, 1, 2, 3, 4];
            keys.rotate_left(perm);
            assert_ne!(insphere_sos(&A, &B, &C, &D, &e, keys), 0);
        }
    }

    #[test]
    fn sos_zero_only_for_coplanar() {
        let a = [0.0, 0.0, 0.0];
        let b = [1.0, 0.0, 0.0];
        let c = [0.0, 1.0, 0.0];
        let d = [1.0, 1.0, 0.0];
        let e = [2.0, 2.0, 0.0];
        assert_eq!(insphere_sos(&a, &b, &c, &d, &e, [0, 1, 2, 3, 4]), 0);
    }

    #[test]
    fn exact_matches_integer_reference() {
        let pts: [[i64; 3]; 5] = [[0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, -4], [1, 1, -1]];
        let f = |i: usize| [pts[i][0] as f64, pts[i][1] as f64, pts[i][2] as f64];
        // reference: i128 determinant of the translated 4x4
        let d = |i: usize, k: usize| (pts[i][k] - pts[4][k]) as i128;
        let lift = |i: usize| d(i, 0) * d(i, 0) + d(i, 1) * d(i, 1) + d(i, 2) * d(i, 2);
        let det3 = |r0: usize, r1: usize, r2: usize| {
            d(r0, 0) * (d(r1, 1) * d(r2, 2) - d(r1, 2) * d(r2, 1))
                - d(r0, 1) * (d(r1, 0) * d(r2, 2) - d(r1, 2) * d(r2, 0))
                + d(r0, 2) * (d(r1, 0) * d(r2, 1) - d(r1, 1) * d(r2, 0))
        };
        let det_ref = -lift(0) * det3(1, 2, 3) + lift(1) * det3(0, 2, 3) - lift(2) * det3(0, 1, 3)
            + lift(3) * det3(0, 1, 2);
        let s = insphere_sign(&f(0), &f(1), &f(2), &f(3), &f(4));
        assert_eq!(s as i128, det_ref.signum());
    }
}
