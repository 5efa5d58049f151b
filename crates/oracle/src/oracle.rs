//! The isosurface oracle: continuous-space queries against a labeled image.

use pi2m_edt::{surface_feature_transform, FeatureTransform};
use pi2m_geometry::Point3;
use pi2m_image::{Label, LabeledImage, BACKGROUND};

/// Continuous-space isosurface queries for the refinement rules.
///
/// Owns the image and its surface-voxel feature transform; immutable after
/// construction, so it is shared freely across refinement threads.
pub struct IsosurfaceOracle {
    img: LabeledImage,
    ft: FeatureTransform,
    /// Half a voxel diagonal: the interface bounding a surface voxel lies
    /// within this distance of the voxel's center.
    half_diag: f64,
    /// `1 / spacing` per axis, for [`one_label_box`](Self::one_label_box).
    inv_spacing: [f64; 3],
}

/// One look at a query point: its label and the surface voxel nearest to
/// the center of its voxel. Every surface query about `p` starts from these
/// two reads, so a caller asking several (rule classification asks up to
/// six about one circumcenter) probes once and passes the probe along.
#[derive(Clone, Copy, Debug)]
pub struct SurfaceProbe {
    pub p: Point3,
    /// Label at `p` (background outside the image).
    pub label: Label,
    /// Center of the surface voxel nearest to the center of `p`'s (clamped)
    /// voxel; `None` when the image has no surface at all.
    site: Option<Point3>,
    /// Distance from `p` to `site` (infinite without one).
    site_dist: f64,
    /// See [`SurfaceProbe::surface_distance_lower_bound`].
    lower_bound: f64,
    half_diag: f64,
}

impl SurfaceProbe {
    /// A cheap lower bound on the distance from `p` to the isosurface:
    /// `|c − q| − |p − c| − half_diag`, for `c` the center of `p`'s (clamped)
    /// voxel and `q` its nearest surface voxel center. The feature transform
    /// is exact at `c`, every interface point lies within half a voxel
    /// diagonal of some surface voxel center, and `p` is `|p − c|` from `c`.
    /// (Measuring from `p` to `q` instead can overshoot by up to a whole
    /// voxel diagonal, since `q` is nearest to `c`, not to `p`.) Infinite
    /// when the image has no surface.
    #[inline]
    pub fn surface_distance_lower_bound(&self) -> f64 {
        self.lower_bound
    }

    /// The matching upper bound: some interface point lies within this
    /// distance of `p`.
    #[inline]
    pub fn surface_distance_upper_bound(&self) -> f64 {
        self.site_dist + self.half_diag
    }
}

/// How a segment test was settled; see
/// [`IsosurfaceOracle::segment_test_from`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SegmentTest {
    /// No crossing, read off the segment's length and the start's probe.
    Rejected,
    /// No crossing: the ends and the segment's whole voxel box share a
    /// label.
    Certified,
    /// The traversal ran, and found this first crossing, if any.
    Traversed(Option<Point3>),
}

impl SegmentTest {
    /// The first crossing of ∂O, if any.
    #[inline]
    pub fn crossing(self) -> Option<Point3> {
        match self {
            SegmentTest::Traversed(hit) => hit,
            SegmentTest::Rejected | SegmentTest::Certified => None,
        }
    }
}

impl IsosurfaceOracle {
    /// Build the oracle, computing the surface feature transform with
    /// `threads` workers (the paper's parallel EDT preprocessing step).
    pub fn new(img: LabeledImage, threads: usize) -> Self {
        let ft = surface_feature_transform(&img, threads);
        Self::from_parts(img, ft)
    }

    /// Assemble an oracle from an image and a surface feature transform that
    /// was already computed (the staged pipeline runs the EDT as its own
    /// stage). `ft` must be the surface feature transform of `img`.
    pub fn from_parts(img: LabeledImage, ft: FeatureTransform) -> Self {
        assert_eq!(
            ft.dims(),
            img.dims(),
            "feature transform dims must match the image"
        );
        let sp = img.spacing();
        let half_diag = 0.5 * (sp[0] * sp[0] + sp[1] * sp[1] + sp[2] * sp[2]).sqrt();
        let inv_spacing = sp.map(|x| 1.0 / x);
        IsosurfaceOracle {
            img,
            ft,
            half_diag,
            inv_spacing,
        }
    }

    /// The underlying image.
    #[inline]
    pub fn image(&self) -> &LabeledImage {
        &self.img
    }

    /// The surface feature transform.
    #[inline]
    pub fn feature_transform(&self) -> &FeatureTransform {
        &self.ft
    }

    /// Label at a world point (background outside the image).
    #[inline]
    pub fn label_at(&self, p: Point3) -> Label {
        self.img.label_at(p)
    }

    /// Is `p` inside the object `O` (any foreground tissue)?
    #[inline]
    pub fn is_inside(&self, p: Point3) -> bool {
        self.img.is_inside(p)
    }

    /// Probe `p`: its label and the surface voxel nearest to its voxel (one
    /// image read and one feature-transform read).
    pub fn probe(&self, p: Point3) -> SurfaceProbe {
        self.probe_labeled(p, self.label_at(p))
    }

    /// [`probe`](Self::probe) for a caller that already knows
    /// `label == self.label_at(p)`.
    pub fn probe_labeled(&self, p: Point3, label: Label) -> SurfaceProbe {
        let (site, site_dist, lower_bound) = match self.ft.voxel_and_site_world(p) {
            Some((c, q)) => (
                Some(q),
                q.distance(p),
                (c.distance(q) - c.distance(p) - self.half_diag).max(0.0),
            ),
            None => (None, f64::INFINITY, f64::INFINITY),
        };
        SurfaceProbe {
            p,
            label,
            site,
            site_dist,
            lower_bound,
            half_diag: self.half_diag,
        }
    }

    /// The closest isosurface point `p̂ ∈ ∂O` for a query `p` (paper §3):
    /// the feature transform yields the nearest surface voxel `q`, and the
    /// ray `p → q` is walked voxel by voxel to the first face at which the
    /// label changes (see `march`).
    ///
    /// `None` when the image has no surface at all, or no interface is found
    /// near the ray (which can only happen for degenerate images).
    pub fn closest_surface_point(&self, p: Point3) -> Option<Point3> {
        self.closest_surface_point_from(&self.probe(p))
    }

    /// [`closest_surface_point`](Self::closest_surface_point) of an already
    /// probed point.
    pub fn closest_surface_point_from(&self, probe: &SurfaceProbe) -> Option<Point3> {
        let (p, lp) = (probe.p, probe.label);
        let q = probe.site?;
        // Past q, continue up to a voxel diagonal: the interface bounding the
        // surface voxel may lie just beyond its center.
        let diag = 2.0 * self.half_diag;
        let len = probe.site_dist;
        if len <= 1e-12 {
            // p already sits at the surface voxel center: probe along the
            // direction of q's differently-labeled neighborhood by scanning
            // axis directions.
            return self.probe_around(p, lp, diag);
        }
        if let Some(hit) = self.march(p, lp, (q - p) / len, len + diag) {
            return Some(hit);
        }
        // The ray can slip past the interface (it is only guaranteed to come
        // within a voxel of it). Fall back to probing around the surface
        // voxel q, which by definition has a differently-labeled 6-neighbor,
        // so an axis probe of one voxel diagonal always finds the interface.
        let lq = self.label_at(q);
        self.probe_around(q, lq, diag)
    }

    /// The first label change along the ray `p + dir·t`, `0 ≤ t ≤ total`,
    /// for `lp` the label at `p`: the exact point at which the ray enters a
    /// voxel (or leaves the image into the background around it) whose label
    /// differs from `lp`.
    ///
    /// The label field is nearest-voxel, so ∂O is the staircase of voxel
    /// faces between differently labeled voxels and the first crossing sits
    /// on a face. The ray is walked voxel by voxel (Amanatides–Woo 3D-DDA):
    /// per axis, the parameter at which it leaves the current voxel; the
    /// smallest one is the next face, and axes that tie there (the ray runs
    /// through a voxel edge or corner) step together. Every voxel the ray
    /// passes through is read exactly once and none is skipped, however thin
    /// the clip.
    fn march(&self, p: Point3, lp: Label, dir: Point3, total: f64) -> Option<Point3> {
        let (o, sp) = (self.img.origin(), self.img.spacing());
        let n = self.img.dims().map(|x| x as i64);
        // Ray in voxel-index space, the frame `label_at` resolves points in.
        let g = [
            (p.x - o.x) / sp[0],
            (p.y - o.y) / sp[1],
            (p.z - o.z) / sp[2],
        ];
        let d = [dir.x / sp[0], dir.y / sp[1], dir.z / sp[2]];
        let inv = d.map(|x| 1.0 / x);
        let mut idx = g.map(|x| x.floor() as i64);
        let inside = |idx: &[i64; 3]| (0..3).all(|a| (0..n[a]).contains(&idx[a]));
        let label = |idx: &[i64; 3]| {
            self.img
                .get(idx[0] as usize, idx[1] as usize, idx[2] as usize)
        };

        if !inside(&idx) {
            // Everything outside the image is background: jump to the face
            // through which the ray enters it, if it does within `total`.
            let (mut t_in, mut t_out) = (0.0f64, total);
            for a in 0..3 {
                if d[a] == 0.0 {
                    if !(0..n[a]).contains(&idx[a]) {
                        return None;
                    }
                    continue;
                }
                let (t0, t1) = (-g[a] * inv[a], (n[a] as f64 - g[a]) * inv[a]);
                t_in = t_in.max(t0.min(t1));
                t_out = t_out.min(t0.max(t1));
            }
            if t_in.is_nan() || t_in > t_out {
                return None;
            }
            // The clamp absorbs the rounding of `t_in` on the entry face.
            for a in 0..3 {
                idx[a] = ((g[a] + d[a] * t_in).floor() as i64).clamp(0, n[a] - 1);
            }
            if label(&idx) != lp {
                return Some(p + dir * t_in);
            }
        }

        // Per axis: the parameter at which the ray leaves the current voxel
        // (`t_max`), and what one more voxel along that axis adds to it
        // (`t_delta`). An axis the ray does not move along never leaves.
        let mut t_max = [f64::INFINITY; 3];
        let mut t_delta = [0.0f64; 3];
        let mut step = [0i64; 3];
        for a in 0..3 {
            if d[a] > 0.0 {
                t_max[a] = ((idx[a] + 1) as f64 - g[a]) * inv[a];
                (t_delta[a], step[a]) = (inv[a], 1);
            } else if d[a] < 0.0 {
                t_max[a] = (idx[a] as f64 - g[a]) * inv[a];
                (t_delta[a], step[a]) = (-inv[a], -1);
            }
        }
        loop {
            let t = t_max[0].min(t_max[1]).min(t_max[2]);
            // (non-finite: a ray with no direction, or a NaN query)
            if t > total || !t.is_finite() {
                return None;
            }
            for a in 0..3 {
                if t_max[a] == t {
                    idx[a] += step[a];
                    t_max[a] += t_delta[a];
                }
            }
            if !inside(&idx) {
                // Left the image: the rest of the ray is background.
                return (lp != BACKGROUND).then(|| p + dir * t);
            }
            if label(&idx) != lp {
                return Some(p + dir * t);
            }
        }
    }

    /// Fallback when the query coincides with a surface voxel center: probe
    /// the 6 axis directions for the nearest label change.
    fn probe_around(&self, p: Point3, lp: Label, reach: f64) -> Option<Point3> {
        let dirs = [
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(-1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
            Point3::new(0.0, -1.0, 0.0),
            Point3::new(0.0, 0.0, 1.0),
            Point3::new(0.0, 0.0, -1.0),
        ];
        let mut best: Option<Point3> = None;
        let mut best_d = f64::INFINITY;
        for d in dirs {
            if let Some(x) = self.march(p, lp, d, reach) {
                let dist = x.distance(p);
                if dist < best_d {
                    best_d = dist;
                    best = Some(x);
                }
            }
        }
        best
    }

    /// Distance from `p` to the isosurface (to its closest surface point).
    pub fn surface_distance(&self, p: Point3) -> Option<f64> {
        self.closest_surface_point(p).map(|q| q.distance(p))
    }

    /// First intersection of segment `a → b` with the isosurface (the first
    /// voxel face at which the label changes); the *surface-center*
    /// `c_surf(f)` of rule R3 when `a`, `b` are the circumcenters joined by
    /// the facet's Voronoi edge.
    pub fn segment_surface_intersection(&self, a: Point3, b: Point3) -> Option<Point3> {
        self.segment_test_from(&self.probe(a), b, self.label_at(b))
            .crossing()
    }

    /// [`segment_surface_intersection`](Self::segment_surface_intersection)
    /// from an already probed start point to `b`, whose label is `lb`,
    /// telling how it was settled. Rule R3 tests every facet's Voronoi edge,
    /// and most of those edges are settled before the traversal:
    /// * a segment whose ends share a label and which stays provably farther
    ///   from ∂O than its length (the probe's lower bound) cannot cross;
    /// * nor can one whose ends share a label with every voxel of its index
    ///   box, when that box is at most 3 voxels per axis and inside the
    ///   image (DESIGN.md "Classification cost").
    pub fn segment_test_from(&self, a: &SurfaceProbe, b: Point3, lb: Label) -> SegmentTest {
        let dir = b - a.p;
        let len = dir.norm();
        if len <= 1e-12 {
            return SegmentTest::Rejected;
        }
        if a.label == lb {
            if a.surface_distance_lower_bound() > len {
                return SegmentTest::Rejected;
            }
            if self.one_label_box(a.p, b, lb) {
                return SegmentTest::Certified;
            }
        }
        SegmentTest::Traversed(self.march(a.p, a.label, dir / len, len))
    }

    /// The traversal alone, without the shortcuts of
    /// [`segment_test_from`](Self::segment_test_from): the first label
    /// change from `a` along the segment to `b`.
    pub fn traverse_segment(&self, a: Point3, b: Point3) -> Option<Point3> {
        let dir = b - a;
        let len = dir.norm();
        if len <= 1e-12 {
            return None;
        }
        self.march(a, self.label_at(a), dir / len, len)
    }

    /// Does every voxel the traversal from `a` to `b` can read carry
    /// `label`? Then it finds no voxel of another label, and, never leaving
    /// the image, no background beyond it: no crossing.
    ///
    /// The traversal reads voxels in index space, `(p − origin) / spacing`,
    /// entering each at a face the segment reaches, the one at its far end
    /// included. Per axis, those faces lie between the ends' index
    /// coordinates, so the voxels lie in the box between `floor` of the
    /// smaller coordinate and `floor` of the larger. The box is widened by
    /// 1e-9 voxel on each side: an end exactly on a face, or within
    /// rounding of one, then holds the voxel the traversal steps into there
    /// too. (The coordinates here are taken by multiplying with
    /// `1 / spacing`, a few ulps from the traversal's quotients, which the
    /// widening covers too.) The box is tested only while it is at most 3
    /// voxels per axis and inside the image, and its reads stop at the first
    /// foreign label.
    fn one_label_box(&self, a: Point3, b: Point3, label: Label) -> bool {
        const HAIR: f64 = 1e-9;
        let (o, inv) = (self.img.origin().to_array(), self.inv_spacing);
        let n = self.img.dims();
        let (a, b) = (a.to_array(), b.to_array());
        let (mut lo, mut hi) = ([0usize; 3], [0usize; 3]);
        for ax in 0..3 {
            let (ga, gb) = ((a[ax] - o[ax]) * inv[ax], (b[ax] - o[ax]) * inv[ax]);
            if !(ga.is_finite() && gb.is_finite()) {
                return false;
            }
            let (first, last) = (ga.min(gb) - HAIR, ga.max(gb) + HAIR);
            if first < 0.0 || last >= n[ax] as f64 {
                return false;
            }
            // Non-negative from here, so truncation is `floor` (a software
            // routine on the baseline x86-64 target, which lacks SSE4.1).
            (lo[ax], hi[ax]) = (first as usize, last as usize);
            if hi[ax] - lo[ax] > 2 {
                return false;
            }
        }
        let data = self.img.data();
        (lo[2]..=hi[2]).all(|k| {
            (lo[1]..=hi[1]).all(|j| {
                let row = (k * n[1] + j) * n[0];
                data[row + lo[0]..=row + hi[0]].iter().all(|&l| l == label)
            })
        })
    }

    /// True iff the segment `a → b` crosses the isosurface.
    pub fn segment_crosses_surface(&self, a: Point3, b: Point3) -> bool {
        self.segment_surface_intersection(a, b).is_some()
    }

    /// Convenience for tests/analysis: whether `p` is in the background.
    #[inline]
    pub fn is_background(&self, p: Point3) -> bool {
        self.label_at(p) == BACKGROUND
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2m_image::phantoms;

    fn sphere_oracle(n: usize) -> IsosurfaceOracle {
        IsosurfaceOracle::new(phantoms::sphere(n, 1.0), 2)
    }

    #[test]
    fn closest_surface_point_from_outside() {
        let o = sphere_oracle(32);
        let center = Point3::new(16.0, 16.0, 16.0);
        let radius = 0.7 * 16.0; // normalized 0.7 of half-extent
        let p = Point3::new(16.0, 16.0, 1.0); // outside, below
        let s = o.closest_surface_point(p).expect("surface must be found");
        // surface point should sit close to the analytic sphere
        let d = s.distance(center);
        assert!(
            (d - radius).abs() < 1.2,
            "surface at distance {d}, expected ≈{radius}"
        );
        // and roughly straight below the center from p's side
        assert!(s.z < 16.0);
    }

    #[test]
    fn closest_surface_point_from_inside() {
        let o = sphere_oracle(32);
        let center = Point3::new(16.0, 16.0, 16.0);
        let p = center + Point3::new(5.0, 0.0, 0.0);
        let s = o.closest_surface_point(p).unwrap();
        let d = s.distance(center);
        assert!((d - 11.2).abs() < 1.2, "{d}");
        // the interface point must sit between differing labels
        let lp = o.label_at(p);
        let eps = 0.05;
        let dir = (s - p).normalized().unwrap();
        assert_eq!(o.label_at(s - dir * eps), lp);
        assert_ne!(o.label_at(s + dir * eps), lp);
    }

    #[test]
    fn surface_point_respects_internal_interfaces() {
        let o = IsosurfaceOracle::new(phantoms::nested_spheres(32, 1.0), 1);
        let center = Point3::new(16.0, 16.0, 16.0);
        // query inside the core (label 2): nearest interface is core/shell at
        // normalized radius 0.35 → world 5.6
        let p = center + Point3::new(1.0, 0.0, 0.0);
        let s = o.closest_surface_point(p).unwrap();
        let d = s.distance(center);
        assert!(
            (d - 5.6).abs() < 1.2,
            "core interface at {d}, expected ≈5.6"
        );
    }

    #[test]
    fn segment_intersection_straddles_boundary() {
        let o = sphere_oracle(32);
        let center = Point3::new(16.0, 16.0, 16.0);
        let a = center; // inside
        let b = Point3::new(31.0, 16.0, 16.0); // outside
        let x = o.segment_surface_intersection(a, b).unwrap();
        assert!((x.distance(center) - 11.2).abs() < 1.0);
        assert!(o.segment_crosses_surface(a, b));
        // a segment fully inside does not cross
        assert!(!o.segment_crosses_surface(a, center + Point3::new(2.0, 0.0, 0.0)));
    }

    #[test]
    fn probe_bounds_bracket_the_surface_distance() {
        let o = sphere_oracle(32);
        let center = Point3::new(16.0, 16.0, 16.0);
        for p in [
            center,
            center + Point3::new(5.0, 2.0, -1.0),
            center + Point3::new(11.2, 0.0, 0.0),
            Point3::new(1.0, 2.0, 3.0),
        ] {
            let probe = o.probe(p);
            assert_eq!(probe.label, o.label_at(p));
            let d = o.surface_distance(p).unwrap();
            assert!(probe.surface_distance_lower_bound() <= d + 1e-9);
            assert!(d <= probe.surface_distance_upper_bound() + 1e-9);
        }
        // an image without a surface has no bound to offer
        let empty = IsosurfaceOracle::new(LabeledImage::new([4, 4, 4], [1.0; 3]), 1);
        assert_eq!(
            empty.probe(center).surface_distance_lower_bound(),
            f64::INFINITY
        );
        assert!(empty.closest_surface_point(center).is_none());
    }

    #[test]
    fn inside_outside() {
        let o = sphere_oracle(16);
        assert!(o.is_inside(Point3::new(8.0, 8.0, 8.0)));
        assert!(o.is_background(Point3::new(0.5, 0.5, 0.5)));
        assert!(o.is_background(Point3::new(-5.0, 8.0, 8.0))); // off-image
    }

    #[test]
    fn surface_distance_monotone_towards_surface() {
        let o = sphere_oracle(32);
        let center = Point3::new(16.0, 16.0, 16.0);
        let d1 = o
            .surface_distance(center + Point3::new(2.0, 0.0, 0.0))
            .unwrap();
        let d2 = o
            .surface_distance(center + Point3::new(8.0, 0.0, 0.0))
            .unwrap();
        assert!(d2 < d1);
    }
}
