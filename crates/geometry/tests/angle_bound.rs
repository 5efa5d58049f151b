//! `AngleBound::any_angle_below` against `min_triangle_angle(..) < deg`, the
//! test it stands in for: random triangles, triangles built with a corner a
//! hair from the bound, coincident corners and extreme coordinates.

use pi2m_geometry::{min_triangle_angle, AngleBound, Point3};
use proptest::prelude::*;

fn agrees(deg: f64, a: Point3, b: Point3, c: Point3) {
    let want = min_triangle_angle(a, b, c) < deg;
    let got = AngleBound::new(deg).any_angle_below(a, b, c);
    assert_eq!(got, want, "deg {deg}: {a:?} {b:?} {c:?}");
}

/// Every vertex order of the triangle, against the bounds the rules use and
/// both ends of the range where the cosine decides.
fn agrees_all(deg: f64, a: Point3, b: Point3, c: Point3) {
    for d in [deg, 30.0, 0.0, 180.0] {
        for (x, y, z) in [(a, b, c), (b, c, a), (c, a, b), (a, c, b)] {
            agrees(d, x, y, z);
        }
    }
}

fn point(r: f64) -> impl Strategy<Value = Point3> {
    proptest::array::uniform3(-r..r).prop_map(|[x, y, z]| Point3::new(x, y, z))
}

/// A unit vector from two angles.
fn dir(theta: f64, phi: f64) -> Point3 {
    Point3::new(
        theta.sin() * phi.cos(),
        theta.sin() * phi.sin(),
        theta.cos(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn random_triangles(a in point(100.0), b in point(100.0), c in point(100.0), deg in -10.0f64..200.0) {
        agrees_all(deg, a, b, c);
    }

    /// A corner of `deg ± tiny` at `apex`: the rays to `b` and `c` are `deg`
    /// apart in their plane, then `c`'s is turned by `nudge` radians.
    #[test]
    fn a_corner_at_the_bound(
        apex in point(50.0),
        theta in 0.0f64..std::f64::consts::PI,
        phi in 0.0f64..std::f64::consts::TAU,
        lb in 1e-3f64..1e3,
        lc in 1e-3f64..1e3,
        any_deg in 1.0f64..179.0,
        nudge in -1.0f64..1.0,
        pick in 0usize..6,
    ) {
        // half at the rules' 30°; nudges of 0, up to a micro- and up to a
        // picoradian
        let deg = if pick % 2 == 0 { 30.0 } else { any_deg };
        let nudge = [0.0, 1e-6, 1e-12][pick / 2] * nudge;
        let u = dir(theta, phi);
        // a unit vector perpendicular to u
        let w = u.cross(if u.x.abs() < 0.9 { Point3::new(1.0, 0.0, 0.0) } else { Point3::new(0.0, 1.0, 0.0) });
        let w = w / w.norm();
        let t = deg.to_radians() + nudge;
        let v = u * t.cos() + w * t.sin();
        let (b, c) = (apex + u * lb, apex + v * lc);
        agrees_all(deg, apex, b, c);
    }

    #[test]
    fn coincident_corners(a in point(10.0), b in point(10.0), deg in 0.0f64..180.0) {
        agrees_all(deg, a, a, b);
        agrees_all(deg, a, b, a);
        agrees_all(deg, a, a, a);
        // collinear: corners of 0° and 180°
        agrees_all(deg, a, b, a + (b - a) * 2.0);
        agrees_all(deg, a, a + (b - a) * 0.5, b);
    }

    #[test]
    fn extreme_coordinates(
        a in point(1.0), b in point(1.0), c in point(1.0),
        pick in 0usize..5,
        deg in 0.0f64..180.0,
    ) {
        let scale = [1e300, 1e-300, 1e-170, 1e160, f64::MAX][pick];
        agrees_all(deg, a * scale, b * scale, c * scale);
        // far from the origin, small
        let far = Point3::new(1e15, -3e14, 7e15);
        agrees_all(deg, far + a, far + b, far + c);
    }
}

#[test]
fn non_finite_corners_and_bounds() {
    let a = Point3::new(0.0, 0.0, 0.0);
    let b = Point3::new(1.0, 0.0, 0.0);
    let c = Point3::new(0.5, 0.8, 0.0);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let p = Point3::new(bad, 0.0, 1.0);
        agrees_all(30.0, p, b, c);
        agrees_all(30.0, a, p, c);
        agrees_all(30.0, a, b, Point3::new(bad, bad, bad));
    }
    for deg in [
        f64::NAN,
        f64::INFINITY,
        -1.0,
        180.5,
        360.0,
        1e-300,
        179.999999999,
    ] {
        agrees_all(deg, a, b, c);
        agrees_all(deg, a, a, c);
    }
}
