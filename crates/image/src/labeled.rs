//! Multi-label segmented 3D images.
//!
//! The paper's inputs are segmented CT/MR atlases: each voxel carries a tissue
//! label, label 0 being background. World coordinates are anisotropic
//! (per-axis spacing in millimetres), voxel `(i, j, k)` occupying the world
//! cell centred at `origin + ((i + 0.5) sx, (j + 0.5) sy, (k + 0.5) sz)`.

use pi2m_geometry::{Aabb, Point3};

/// A tissue label. `0` is background; everything else is foreground.
pub type Label = u8;

/// The background label.
pub const BACKGROUND: Label = 0;

/// A dense 3D array of labels with world-space metadata.
#[derive(Clone, Debug)]
pub struct LabeledImage {
    dims: [usize; 3],
    spacing: [f64; 3],
    origin: Point3,
    data: Vec<Label>,
}

impl LabeledImage {
    /// A new image filled with background.
    pub fn new(dims: [usize; 3], spacing: [f64; 3]) -> Self {
        assert!(dims.iter().all(|&d| d >= 1), "image dims must be >= 1");
        assert!(
            spacing.iter().all(|&s| s > 0.0 && s.is_finite()),
            "spacing must be positive"
        );
        LabeledImage {
            dims,
            spacing,
            origin: Point3::ORIGIN,
            data: vec![BACKGROUND; dims[0] * dims[1] * dims[2]],
        }
    }

    /// Build by evaluating `f` at every voxel center (world coordinates).
    pub fn from_fn(
        dims: [usize; 3],
        spacing: [f64; 3],
        mut f: impl FnMut(Point3) -> Label,
    ) -> Self {
        let mut img = Self::new(dims, spacing);
        for k in 0..dims[2] {
            for j in 0..dims[1] {
                for i in 0..dims[0] {
                    let p = img.voxel_center(i, j, k);
                    let idx = img.linear_index(i, j, k);
                    img.data[idx] = f(p);
                }
            }
        }
        img
    }

    #[inline]
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    #[inline]
    pub fn spacing(&self) -> [f64; 3] {
        self.spacing
    }

    #[inline]
    pub fn origin(&self) -> Point3 {
        self.origin
    }

    pub fn set_origin(&mut self, origin: Point3) {
        self.origin = origin;
    }

    #[inline]
    pub fn num_voxels(&self) -> usize {
        self.data.len()
    }

    /// Smallest spacing component — the paper expresses δ in voxel-size
    /// multiples; this is the reference unit.
    #[inline]
    pub fn min_spacing(&self) -> f64 {
        self.spacing[0].min(self.spacing[1]).min(self.spacing[2])
    }

    #[inline]
    pub fn linear_index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.dims[0] && j < self.dims[1] && k < self.dims[2]);
        (k * self.dims[1] + j) * self.dims[0] + i
    }

    /// Label at voxel `(i, j, k)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> Label {
        self.data[self.linear_index(i, j, k)]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: Label) {
        let idx = self.linear_index(i, j, k);
        self.data[idx] = v;
    }

    /// Raw label buffer (x fastest, z slowest).
    #[inline]
    pub fn data(&self) -> &[Label] {
        &self.data
    }

    /// World coordinates of the voxel center.
    #[inline]
    pub fn voxel_center(&self, i: usize, j: usize, k: usize) -> Point3 {
        self.origin
            + Point3::new(
                (i as f64 + 0.5) * self.spacing[0],
                (j as f64 + 0.5) * self.spacing[1],
                (k as f64 + 0.5) * self.spacing[2],
            )
    }

    /// The voxel containing world point `p`, or `None` if outside the image.
    pub fn world_to_voxel(&self, p: Point3) -> Option<[usize; 3]> {
        let rel = p - self.origin;
        let fi = rel.x / self.spacing[0];
        let fj = rel.y / self.spacing[1];
        let fk = rel.z / self.spacing[2];
        if fi < 0.0 || fj < 0.0 || fk < 0.0 {
            return None;
        }
        let (i, j, k) = (fi as usize, fj as usize, fk as usize);
        if i >= self.dims[0] || j >= self.dims[1] || k >= self.dims[2] {
            return None;
        }
        Some([i, j, k])
    }

    /// Label at a world point (nearest voxel); background outside the image.
    #[inline]
    pub fn label_at(&self, p: Point3) -> Label {
        match self.world_to_voxel(p) {
            Some([i, j, k]) => self.get(i, j, k),
            None => BACKGROUND,
        }
    }

    /// True iff the world point lies in a foreground voxel.
    #[inline]
    pub fn is_inside(&self, p: Point3) -> bool {
        self.label_at(p) != BACKGROUND
    }

    /// A *surface voxel* is a foreground voxel with at least one 6-neighbor
    /// of a different label (paper §3). Voxels on the image border with
    /// foreground labels also count (their out-of-image neighbor is
    /// background).
    pub fn is_surface_voxel(&self, i: usize, j: usize, k: usize) -> bool {
        let me = self.get(i, j, k);
        if me == BACKGROUND {
            return false;
        }
        let neighbors: [(isize, isize, isize); 6] = [
            (-1, 0, 0),
            (1, 0, 0),
            (0, -1, 0),
            (0, 1, 0),
            (0, 0, -1),
            (0, 0, 1),
        ];
        for (di, dj, dk) in neighbors {
            let ni = i as isize + di;
            let nj = j as isize + dj;
            let nk = k as isize + dk;
            if ni < 0
                || nj < 0
                || nk < 0
                || ni as usize >= self.dims[0]
                || nj as usize >= self.dims[1]
                || nk as usize >= self.dims[2]
            {
                return true; // border foreground voxel
            }
            if self.get(ni as usize, nj as usize, nk as usize) != me {
                return true;
            }
        }
        false
    }

    /// All surface voxels as index triples.
    pub fn surface_voxels(&self) -> Vec<[usize; 3]> {
        let mut out = Vec::new();
        for k in 0..self.dims[2] {
            for j in 0..self.dims[1] {
                for i in 0..self.dims[0] {
                    if self.is_surface_voxel(i, j, k) {
                        out.push([i, j, k]);
                    }
                }
            }
        }
        out
    }

    /// World-space bounding box of the whole image.
    pub fn bounds(&self) -> Aabb {
        let max = self.origin
            + Point3::new(
                self.dims[0] as f64 * self.spacing[0],
                self.dims[1] as f64 * self.spacing[1],
                self.dims[2] as f64 * self.spacing[2],
            );
        Aabb::new(self.origin, max)
    }

    /// World-space bounding box of foreground voxels (whole-voxel extents);
    /// `None` when the image is all background.
    ///
    /// Each row contributes its first and last foreground index; the box
    /// is then the extreme voxels' faces. Voxel-center arithmetic is
    /// monotone in the index, so this is bit for bit the box of every
    /// foreground voxel's faces.
    pub fn foreground_bounds(&self) -> Option<Aabb> {
        let fg = |&v: &Label| v != BACKGROUND;
        let mut lo = [usize::MAX; 3];
        let mut hi = [0; 3];
        for (r, row) in self.data.chunks_exact(self.dims[0]).enumerate() {
            let Some(first) = row.iter().position(fg) else {
                continue;
            };
            let last = row.iter().rposition(fg).unwrap_or(first);
            let (j, k) = (r % self.dims[1], r / self.dims[1]);
            lo = [lo[0].min(first), lo[1].min(j), lo[2].min(k)];
            hi = [hi[0].max(last), hi[1].max(j), hi[2].max(k)];
        }
        if lo[0] == usize::MAX {
            return None;
        }
        let h = Point3::new(
            self.spacing[0] * 0.5,
            self.spacing[1] * 0.5,
            self.spacing[2] * 0.5,
        );
        Some(Aabb::new(
            self.voxel_center(lo[0], lo[1], lo[2]) - h,
            self.voxel_center(hi[0], hi[1], hi[2]) + h,
        ))
    }

    /// Histogram of label populations, indexed by label value.
    pub fn label_histogram(&self) -> [usize; 256] {
        let mut h = [0usize; 256];
        for &v in &self.data {
            h[v as usize] += 1;
        }
        h
    }

    /// Count of distinct non-background labels present.
    pub fn num_tissues(&self) -> usize {
        let h = self.label_histogram();
        h.iter().skip(1).filter(|&&c| c > 0).count()
    }

    /// Extract the voxel sub-box `lo..hi` (exclusive `hi`) as its own image.
    ///
    /// The crop keeps world alignment: its origin is shifted by
    /// `lo * spacing`, so voxel `(i, j, k)` of the crop covers the same world
    /// cell as voxel `lo + (i, j, k)` of the parent (bit-exactly when
    /// `lo * spacing` is exact in f64, e.g. unit or power-of-two spacing;
    /// within one ulp otherwise). This is the chunk view used by sharded
    /// meshing: chunk-local isosurface geometry lines up with the parent's.
    pub fn crop(&self, lo: [usize; 3], hi: [usize; 3]) -> LabeledImage {
        assert!(
            (0..3).all(|a| lo[a] < hi[a] && hi[a] <= self.dims[a]),
            "bad crop window {lo:?}..{hi:?} for dims {:?}",
            self.dims
        );
        let dims = [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]];
        let mut out = LabeledImage::new(dims, self.spacing);
        out.origin = self.origin
            + Point3::new(
                lo[0] as f64 * self.spacing[0],
                lo[1] as f64 * self.spacing[1],
                lo[2] as f64 * self.spacing[2],
            );
        for k in 0..dims[2] {
            for j in 0..dims[1] {
                let src = self.linear_index(lo[0], lo[1] + j, lo[2] + k);
                let dst = out.linear_index(0, j, k);
                out.data[dst..dst + dims[0]].copy_from_slice(&self.data[src..src + dims[0]]);
            }
        }
        out
    }

    /// Total foreground volume in world units (mm³).
    pub fn foreground_volume(&self) -> f64 {
        let voxel_vol = self.spacing[0] * self.spacing[1] * self.spacing[2];
        let fg = self.data.iter().filter(|&&v| v != BACKGROUND).count();
        fg as f64 * voxel_vol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LabeledImage {
        let mut img = LabeledImage::new([4, 4, 4], [1.0, 1.0, 1.0]);
        img.set(1, 1, 1, 1);
        img.set(2, 1, 1, 1);
        img.set(1, 2, 1, 2);
        img
    }

    #[test]
    fn indexing_roundtrip() {
        let img = tiny();
        assert_eq!(img.get(1, 1, 1), 1);
        assert_eq!(img.get(1, 2, 1), 2);
        assert_eq!(img.get(0, 0, 0), BACKGROUND);
    }

    #[test]
    fn world_voxel_mapping() {
        let img = tiny();
        let c = img.voxel_center(2, 1, 1);
        assert_eq!(c, Point3::new(2.5, 1.5, 1.5));
        assert_eq!(img.world_to_voxel(c), Some([2, 1, 1]));
        assert_eq!(img.world_to_voxel(Point3::new(-0.1, 0.0, 0.0)), None);
        assert_eq!(img.world_to_voxel(Point3::new(4.01, 1.0, 1.0)), None);
        assert_eq!(img.label_at(c), 1);
        assert!(img.is_inside(c));
        assert!(!img.is_inside(Point3::new(0.1, 0.1, 0.1)));
    }

    #[test]
    fn anisotropic_spacing() {
        let img = LabeledImage::new([10, 10, 5], [0.5, 0.5, 2.0]);
        assert_eq!(img.voxel_center(0, 0, 0), Point3::new(0.25, 0.25, 1.0));
        assert_eq!(img.min_spacing(), 0.5);
        assert_eq!(
            img.world_to_voxel(Point3::new(4.9, 0.1, 9.9)),
            Some([9, 0, 4])
        );
    }

    #[test]
    fn surface_voxel_detection() {
        let img = tiny();
        // every set voxel in `tiny` touches background or a different label
        assert!(img.is_surface_voxel(1, 1, 1));
        assert!(img.is_surface_voxel(1, 2, 1));
        assert!(!img.is_surface_voxel(0, 0, 0)); // background is never surface

        // interior of a solid block is not surface
        let solid = LabeledImage::from_fn([5, 5, 5], [1.0; 3], |_| 1);
        assert!(solid.is_surface_voxel(0, 0, 0)); // image border counts
        assert!(!solid.is_surface_voxel(2, 2, 2));
    }

    #[test]
    fn surface_voxels_of_block() {
        // 3x3x3 foreground block centred in a 5x5x5 image: its surface is the
        // 26 outer voxels of the block (all except the center).
        let img = LabeledImage::from_fn([5, 5, 5], [1.0; 3], |p| {
            let inb = |v: f64| (1.0..4.0).contains(&v);
            if inb(p.x) && inb(p.y) && inb(p.z) {
                1
            } else {
                0
            }
        });
        let sv = img.surface_voxels();
        assert_eq!(sv.len(), 26);
        assert!(!sv.contains(&[2, 2, 2]));
    }

    #[test]
    fn histogram_and_volume() {
        let img = tiny();
        let h = img.label_histogram();
        assert_eq!(h[1], 2);
        assert_eq!(h[2], 1);
        assert_eq!(h[0], 64 - 3);
        assert_eq!(img.num_tissues(), 2);
        assert!((img.foreground_volume() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn crop_keeps_labels_and_world_alignment() {
        let img = tiny();
        let c = img.crop([1, 1, 1], [3, 3, 2]);
        assert_eq!(c.dims(), [2, 2, 1]);
        assert_eq!(c.get(0, 0, 0), 1);
        assert_eq!(c.get(1, 0, 0), 1);
        assert_eq!(c.get(0, 1, 0), 2);
        assert_eq!(c.get(1, 1, 0), BACKGROUND);
        // chunk voxel (i,j,k) sits exactly where parent voxel lo+(i,j,k) does
        assert_eq!(c.voxel_center(0, 0, 0), img.voxel_center(1, 1, 1));
        assert_eq!(c.voxel_center(1, 1, 0), img.voxel_center(2, 2, 1));
        // full-image crop is an identity
        let full = img.crop([0, 0, 0], img.dims());
        assert_eq!(full.data(), img.data());
        assert_eq!(full.origin(), img.origin());
    }

    #[test]
    #[should_panic(expected = "bad crop window")]
    fn crop_rejects_inverted_window() {
        tiny().crop([2, 0, 0], [1, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "bad crop window")]
    fn crop_rejects_out_of_bounds_window() {
        tiny().crop([0, 0, 0], [5, 4, 4]);
    }

    #[test]
    fn foreground_bounds() {
        let img = tiny();
        let bb = img.foreground_bounds().unwrap();
        assert_eq!(bb.min, Point3::new(1.0, 1.0, 1.0));
        assert_eq!(bb.max, Point3::new(3.0, 3.0, 2.0));
        let empty = LabeledImage::new([3, 3, 3], [1.0; 3]);
        assert!(empty.foreground_bounds().is_none());
    }

    /// The box of every foreground voxel's faces, voxel by voxel: the
    /// reference `foreground_bounds` must equal bit for bit.
    fn foreground_bounds_per_voxel(img: &LabeledImage) -> Option<Aabb> {
        let mut bb = Aabb::empty();
        let mut any = false;
        let [nx, ny, nz] = img.dims();
        let s = img.spacing();
        let h = Point3::new(s[0] * 0.5, s[1] * 0.5, s[2] * 0.5);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    if img.get(i, j, k) != BACKGROUND {
                        any = true;
                        let c = img.voxel_center(i, j, k);
                        bb.include(c - h);
                        bb.include(c + h);
                    }
                }
            }
        }
        any.then_some(bb)
    }

    fn same_bits(a: Option<Aabb>, b: Option<Aabb>) -> bool {
        let bits = |bb: Option<Aabb>| {
            bb.map(|bb| [bb.min, bb.max].map(|p| p.to_array().map(f64::to_bits)))
        };
        bits(a) == bits(b)
    }

    #[test]
    fn foreground_bounds_match_the_per_voxel_box() {
        for spec in crate::phantoms::specs(0.5) {
            let img = crate::phantoms::by_name(spec.name, 0.5).unwrap();
            let want = foreground_bounds_per_voxel(&img);
            assert!(want.is_some(), "{}", spec.name);
            assert!(same_bits(img.foreground_bounds(), want), "{}", spec.name);
        }
        let mut s = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % n
        };
        for _ in 0..300 {
            let dims = [0; 3].map(|_| 1 + next(9) as usize);
            let spacing = [0; 3].map(|_| 0.1 + next(1000) as f64 / 333.0);
            let mut img = LabeledImage::new(dims, spacing);
            img.set_origin(Point3::new(
                next(2001) as f64 / 7.0 - 140.0,
                next(2001) as f64 / 3.0 - 300.0,
                next(2001) as f64 * 0.37 - 0.1,
            ));
            // from empty to dense, so all-background images come up too
            let odds = next(6);
            for k in 0..dims[2] {
                for j in 0..dims[1] {
                    for i in 0..dims[0] {
                        if next(8) < odds {
                            img.set(i, j, k, 1 + next(3) as Label);
                        }
                    }
                }
            }
            let want = foreground_bounds_per_voxel(&img);
            let at = (dims, spacing, img.origin());
            assert!(same_bits(img.foreground_bounds(), want), "{at:?}");
        }
    }
}
