//! Tetrahedron measures: circumsphere, volume, edges, and the quality
//! functionals the paper's refinement rules are driven by (radius-edge ratio,
//! circumradius vs. size function).

use crate::point::Point3;

/// Signed volume of tetrahedron `(a, b, c, d)`, with the same sign convention
/// as the robust `orient3d` predicate: positive exactly when
/// `orient3d(a, b, c, d) > 0` (the kernel's "positively oriented" cells).
#[inline]
pub fn signed_volume(a: Point3, b: Point3, c: Point3, d: Point3) -> f64 {
    (a - d).dot((b - d).cross(c - d)) / 6.0
}

/// Absolute volume.
#[inline]
pub fn volume(a: Point3, b: Point3, c: Point3, d: Point3) -> f64 {
    signed_volume(a, b, c, d).abs()
}

/// Circumcenter of a tetrahedron, solving the 3×3 linear system
/// `2 (b-a)·p = |b|²-|a|²` (etc.) by Cramer's rule relative to `a`.
///
/// Returns `None` for (near-)degenerate tetrahedra whose determinant
/// underflows to a value that cannot be inverted meaningfully.
pub fn circumcenter(a: Point3, b: Point3, c: Point3, d: Point3) -> Option<Point3> {
    let ba = b - a;
    let ca = c - a;
    let da = d - a;

    let det = 2.0 * ba.dot(ca.cross(da));
    if det == 0.0 || !det.is_finite() {
        return None;
    }

    let ba2 = ba.norm_squared();
    let ca2 = ca.norm_squared();
    let da2 = da.norm_squared();

    let rel = (ca.cross(da) * ba2 + da.cross(ba) * ca2 + ba.cross(ca) * da2) / det;
    let center = a + rel;
    if center.is_finite() {
        Some(center)
    } else {
        None
    }
}

/// Circumradius (distance from circumcenter to any vertex).
pub fn circumradius(a: Point3, b: Point3, c: Point3, d: Point3) -> Option<f64> {
    circumcenter(a, b, c, d).map(|cc| cc.distance(a))
}

/// All 6 edges of a tetrahedron as vertex-index pairs into `[a, b, c, d]`.
pub const TET_EDGES: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];

/// The 4 faces of a tetrahedron as vertex-index triples into `[a, b, c, d]`;
/// face `i` is the one *opposite* vertex `i`, oriented so its normal points
/// away from vertex `i` when the tetrahedron is positively oriented.
pub const TET_FACES: [[usize; 3]; 4] = [[1, 3, 2], [0, 2, 3], [0, 3, 1], [0, 1, 2]];

/// Length of the shortest edge.
pub fn shortest_edge(p: &[Point3; 4]) -> f64 {
    TET_EDGES
        .iter()
        .map(|&(i, j)| p[i].distance(p[j]))
        .fold(f64::INFINITY, f64::min)
}

/// Radius-edge ratio `R / l_min` — the quality functional bounded by rule R4
/// (paper: ratio ≤ 2 in the final mesh). `None` for degenerate tetrahedra.
pub fn radius_edge_ratio(p: &[Point3; 4]) -> Option<f64> {
    let r = circumradius(p[0], p[1], p[2], p[3])?;
    let e = shortest_edge(p);
    if e > 0.0 {
        Some(r / e)
    } else {
        None
    }
}

/// The 6 interior dihedral angles (degrees), one per edge.
///
/// For the edge `(i, j)` the dihedral angle is measured between the two faces
/// sharing that edge, computed from their outward normals.
pub fn dihedral_angles(p: &[Point3; 4]) -> [f64; 6] {
    let mut out = [0.0; 6];
    for (slot, &(i, j)) in TET_EDGES.iter().enumerate() {
        // the two vertices not on the edge
        let mut others = [0usize; 2];
        let mut n = 0;
        for k in 0..4 {
            if k != i && k != j {
                others[n] = k;
                n += 1;
            }
        }
        let (k, l) = (others[0], others[1]);
        let e = p[j] - p[i];
        // normals of faces (i, j, k) and (i, j, l)
        let n1 = e.cross(p[k] - p[i]);
        let n2 = e.cross(p[l] - p[i]);
        let denom = n1.norm() * n2.norm();
        let angle = if denom > 0.0 {
            // interior dihedral: pi - angle between these normals, but using
            // this construction the angle between half-planes is direct.
            let c = (n1.dot(n2) / denom).clamp(-1.0, 1.0);
            c.acos().to_degrees()
        } else {
            0.0
        };
        out[slot] = angle;
    }
    out
}

/// Minimum and maximum dihedral angle (degrees).
pub fn dihedral_extremes(p: &[Point3; 4]) -> (f64, f64) {
    let a = dihedral_angles(p);
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in a {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

/// Cosine of the angle at `apex` between the rays to `u` and `v`, clamped to
/// `[-1, 1]` (NaN stays NaN); `None` when a ray has no length, an angle
/// [`triangle_angles`] takes as 0°.
#[inline]
fn corner_cos(apex: Point3, u: Point3, v: Point3) -> Option<f64> {
    let d1 = u - apex;
    let d2 = v - apex;
    let denom = d1.norm() * d2.norm();
    (denom > 0.0).then(|| (d1.dot(d2) / denom).clamp(-1.0, 1.0))
}

/// The 3 planar angles of a triangle (degrees), in vertex order.
pub fn triangle_angles(a: Point3, b: Point3, c: Point3) -> [f64; 3] {
    let ang = |apex, u, v| corner_cos(apex, u, v).map_or(0.0, |x| x.acos().to_degrees());
    [ang(a, b, c), ang(b, c, a), ang(c, a, b)]
}

/// Smallest planar angle of a triangle (degrees).
pub fn min_triangle_angle(a: Point3, b: Point3, c: Point3) -> f64 {
    triangle_angles(a, b, c)
        .into_iter()
        .fold(f64::INFINITY, f64::min)
}

/// A bound on planar angles in degrees, with its cosine, for deciding
/// `min_triangle_angle(a, b, c) < deg` without the three `acos` calls.
#[derive(Clone, Copy, Debug)]
pub struct AngleBound {
    deg: f64,
    /// `cos(deg)`, NaN where the cosine is not monotone in the angle
    /// (outside `[0°, 180°]`), which sends every decision to `acos`.
    cos: f64,
}

impl AngleBound {
    pub fn new(deg: f64) -> Self {
        let cos = if (0.0..=180.0).contains(&deg) {
            deg.to_radians().cos()
        } else {
            f64::NAN
        };
        AngleBound { deg, cos }
    }

    /// Exactly `min_triangle_angle(a, b, c) < deg`. Each corner's cosine is
    /// the one [`triangle_angles`] takes the `acos` of, and the angle falls
    /// as the cosine rises, so a cosine more than 1e-9 from `cos(deg)`
    /// decides by comparison: the angle is then at least 5.7e-8° from the
    /// bound, and `acos` and the conversion to degrees err by less than
    /// 1e-13°. A cosine within 1e-9 takes the `acos`, a NaN one included
    /// (NaN < deg is false, as `fold(min)` ignores it), and a corner with a
    /// zero-length side reads 0°, as there.
    pub fn any_angle_below(&self, a: Point3, b: Point3, c: Point3) -> bool {
        let below = |apex, u, v| match corner_cos(apex, u, v) {
            None => 0.0 < self.deg,
            Some(x) if (x - self.cos).abs() > 1e-9 => x > self.cos,
            Some(x) => x.acos().to_degrees() < self.deg,
        };
        below(a, b, c) || below(b, c, a) || below(c, a, b)
    }
}

/// Circumcenter of a triangle embedded in 3D (center of its circumscribed
/// circle, lying in the triangle's plane).
pub fn triangle_circumcenter(a: Point3, b: Point3, c: Point3) -> Option<Point3> {
    let ab = b - a;
    let ac = c - a;
    let n = ab.cross(ac);
    let d = 2.0 * n.norm_squared();
    if d == 0.0 || !d.is_finite() {
        return None;
    }
    let rel = (n.cross(ab) * ac.norm_squared() + ac.cross(n) * ab.norm_squared()) / d;
    let center = a + rel;
    center.is_finite().then_some(center)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regular_tet() -> [Point3; 4] {
        // vertices of a regular tetrahedron inscribed in a cube
        [
            Point3::new(1.0, 1.0, 1.0),
            Point3::new(1.0, -1.0, -1.0),
            Point3::new(-1.0, 1.0, -1.0),
            Point3::new(-1.0, -1.0, 1.0),
        ]
    }

    #[test]
    fn unit_tet_volume() {
        // (0,0,-1) is on the positive orient3d side of ccw (a, b, c)
        let v = signed_volume(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
            Point3::new(0.0, 0.0, -1.0),
        );
        assert!((v - 1.0 / 6.0).abs() < 1e-15);
        // and the mirrored tet is negative
        let w = signed_volume(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
            Point3::new(0.0, 0.0, 1.0),
        );
        assert!((w + 1.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn signed_volume_sign_matches_orient3d() {
        use pi2m_predicates::orient3d_sign;
        let pts = [
            Point3::new(0.3, 1.2, -0.7),
            Point3::new(2.0, 0.1, 0.4),
            Point3::new(-1.0, 0.8, 1.5),
            Point3::new(0.2, -0.9, 0.6),
        ];
        let v = signed_volume(pts[0], pts[1], pts[2], pts[3]);
        let s = orient3d_sign(
            &pts[0].to_array(),
            &pts[1].to_array(),
            &pts[2].to_array(),
            &pts[3].to_array(),
        );
        assert_eq!(v.signum() as i8, s);
    }

    #[test]
    fn circumcenter_equidistant() {
        let p = regular_tet();
        let cc = circumcenter(p[0], p[1], p[2], p[3]).unwrap();
        let r0 = cc.distance(p[0]);
        for q in &p[1..] {
            assert!((cc.distance(*q) - r0).abs() < 1e-12);
        }
        // regular tet inscribed in cube: circumcenter is the origin
        assert!(cc.norm() < 1e-12);
    }

    #[test]
    fn degenerate_tet_has_no_circumcenter() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(1.0, 0.0, 0.0);
        let c = Point3::new(2.0, 0.0, 0.0);
        let d = Point3::new(3.0, 0.0, 0.0);
        assert!(circumcenter(a, b, c, d).is_none());
    }

    #[test]
    fn regular_tet_quality() {
        let p = regular_tet();
        // regular tetrahedron: radius-edge ratio = sqrt(3/8) ≈ 0.6124
        let q = radius_edge_ratio(&p).unwrap();
        assert!((q - (3.0f64 / 8.0).sqrt()).abs() < 1e-12);
        // dihedral angles all ≈ 70.5288°
        let (lo, hi) = dihedral_extremes(&p);
        assert!((lo - 70.528779).abs() < 1e-4);
        assert!((hi - 70.528779).abs() < 1e-4);
    }

    #[test]
    fn triangle_angles_sum_to_180() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(4.0, 0.0, 1.0);
        let c = Point3::new(1.0, 3.0, -2.0);
        let s: f64 = triangle_angles(a, b, c).iter().sum();
        assert!((s - 180.0).abs() < 1e-9);
    }

    #[test]
    fn equilateral_min_angle() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(1.0, 0.0, 0.0);
        let c = Point3::new(0.5, 3f64.sqrt() / 2.0, 0.0);
        assert!((min_triangle_angle(a, b, c) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn triangle_circumcenter_equidistant() {
        let a = Point3::new(0.0, 0.0, 1.0);
        let b = Point3::new(3.0, 0.5, 1.0);
        let c = Point3::new(1.0, 2.0, 0.0);
        let cc = triangle_circumcenter(a, b, c).unwrap();
        let r = cc.distance(a);
        assert!((cc.distance(b) - r).abs() < 1e-10);
        assert!((cc.distance(c) - r).abs() < 1e-10);
    }

    #[test]
    fn face_orientation_convention() {
        // For a positively oriented tet, each face's normal (right-hand rule)
        // must point away from the opposite vertex.
        let p = [
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
            Point3::new(0.0, 0.0, -1.0), // positively oriented per orient3d
        ];
        for (i, f) in TET_FACES.iter().enumerate() {
            let n = (p[f[1]] - p[f[0]]).cross(p[f[2]] - p[f[0]]);
            let to_opposite = p[i] - p[f[0]];
            assert!(
                n.dot(to_opposite) < 0.0,
                "face {i} normal must point away from opposite vertex"
            );
        }
    }
}
