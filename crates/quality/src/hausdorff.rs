//! Two-sided (symmetric) Hausdorff distance between a mesh boundary and the
//! image isosurface (paper Table 6's fidelity row).
//!
//! * mesh → surface: sample points on the boundary triangles and measure
//!   their distance to the isosurface through the oracle.
//! * surface → mesh: take the interface point nearest each surface voxel and
//!   measure its distance to the triangle set (grid-accelerated
//!   point-triangle distance).

use pi2m_geometry::Point3;
use pi2m_oracle::IsosurfaceOracle;

/// Exact point-to-triangle distance (Ericson's region test).
pub fn point_triangle_distance(p: Point3, a: Point3, b: Point3, c: Point3) -> f64 {
    let ab = b - a;
    let ac = c - a;
    let ap = p - a;
    let d1 = ab.dot(ap);
    let d2 = ac.dot(ap);
    if d1 <= 0.0 && d2 <= 0.0 {
        return ap.norm();
    }
    let bp = p - b;
    let d3 = ab.dot(bp);
    let d4 = ac.dot(bp);
    if d3 >= 0.0 && d4 <= d3 {
        return bp.norm();
    }
    let vc = d1 * d4 - d3 * d2;
    if vc <= 0.0 && d1 >= 0.0 && d3 <= 0.0 {
        let v = d1 / (d1 - d3);
        return (ap - ab * v).norm();
    }
    let cp = p - c;
    let d5 = ab.dot(cp);
    let d6 = ac.dot(cp);
    if d6 >= 0.0 && d5 <= d6 {
        return cp.norm();
    }
    let vb = d5 * d2 - d1 * d6;
    if vb <= 0.0 && d2 >= 0.0 && d6 <= 0.0 {
        let w = d2 / (d2 - d6);
        return (ap - ac * w).norm();
    }
    let va = d3 * d6 - d5 * d4;
    if va <= 0.0 && (d4 - d3) >= 0.0 && (d5 - d6) >= 0.0 {
        let w = (d4 - d3) / ((d4 - d3) + (d5 - d6));
        return (bp - (c - b) * w).norm();
    }
    // interior
    let denom = 1.0 / (va + vb + vc);
    let v = vb * denom;
    let w = vc * denom;
    (p - (a + ab * v + ac * w)).norm()
}

/// A uniform-grid index over triangles for nearest-distance queries.
pub struct TriangleSet {
    points: Vec<Point3>,
    tris: Vec<[u32; 3]>,
    cell: f64,
    origin: Point3,
    dims: [usize; 3],
    buckets: Vec<Vec<u32>>,
}

impl TriangleSet {
    pub fn new(points: Vec<Point3>, tris: Vec<[u32; 3]>) -> Self {
        let mut bb = pi2m_geometry::Aabb::empty();
        for t in &tris {
            for &v in t {
                bb.include(points[v as usize]);
            }
        }
        if tris.is_empty() || bb.min.x > bb.max.x {
            return TriangleSet {
                points,
                tris,
                cell: 1.0,
                origin: Point3::ORIGIN,
                dims: [1, 1, 1],
                buckets: vec![Vec::new()],
            };
        }
        // target ~2 triangles per cell
        let vol = (bb.extent().x * bb.extent().y * bb.extent().z).max(1e-9);
        let cell = (vol / (tris.len() as f64 / 2.0)).cbrt().max(1e-9);
        let dims = [
            ((bb.extent().x / cell).ceil() as usize + 1).min(256),
            ((bb.extent().y / cell).ceil() as usize + 1).min(256),
            ((bb.extent().z / cell).ceil() as usize + 1).min(256),
        ];
        let mut buckets = vec![Vec::new(); dims[0] * dims[1] * dims[2]];
        let clamp = |v: f64, n: usize| (v.max(0.0) as usize).min(n - 1);
        for (ti, t) in tris.iter().enumerate() {
            let mut tb = pi2m_geometry::Aabb::empty();
            for &v in t {
                tb.include(points[v as usize]);
            }
            let lo = [
                clamp((tb.min.x - bb.min.x) / cell, dims[0]),
                clamp((tb.min.y - bb.min.y) / cell, dims[1]),
                clamp((tb.min.z - bb.min.z) / cell, dims[2]),
            ];
            let hi = [
                clamp((tb.max.x - bb.min.x) / cell, dims[0]),
                clamp((tb.max.y - bb.min.y) / cell, dims[1]),
                clamp((tb.max.z - bb.min.z) / cell, dims[2]),
            ];
            for x in lo[0]..=hi[0] {
                for y in lo[1]..=hi[1] {
                    for z in lo[2]..=hi[2] {
                        buckets[(z * dims[1] + y) * dims[0] + x].push(ti as u32);
                    }
                }
            }
        }
        TriangleSet {
            points,
            tris,
            cell,
            origin: bb.min,
            dims,
            buckets,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.tris.is_empty()
    }

    /// Distance from `p` to the nearest triangle (expanding-ring search).
    pub fn distance(&self, p: Point3) -> f64 {
        if self.tris.is_empty() {
            return f64::INFINITY;
        }
        let rel = p - self.origin;
        let cx = ((rel.x / self.cell) as isize).clamp(0, self.dims[0] as isize - 1);
        let cy = ((rel.y / self.cell) as isize).clamp(0, self.dims[1] as isize - 1);
        let cz = ((rel.z / self.cell) as isize).clamp(0, self.dims[2] as isize - 1);
        let max_ring = *self.dims.iter().max().unwrap() as isize;
        let mut best = f64::INFINITY;
        for ring in 0..=max_ring {
            // once a hit exists, one extra ring guarantees correctness
            if best.is_finite() && (ring as f64 - 1.0) * self.cell > best {
                break;
            }
            let mut any_cell = false;
            for x in (cx - ring).max(0)..=(cx + ring).min(self.dims[0] as isize - 1) {
                for y in (cy - ring).max(0)..=(cy + ring).min(self.dims[1] as isize - 1) {
                    for z in (cz - ring).max(0)..=(cz + ring).min(self.dims[2] as isize - 1) {
                        // only the shell of the ring
                        let on_shell = (x - cx).abs() == ring
                            || (y - cy).abs() == ring
                            || (z - cz).abs() == ring;
                        if !on_shell {
                            continue;
                        }
                        any_cell = true;
                        let b = &self.buckets[((z as usize) * self.dims[1] + y as usize)
                            * self.dims[0]
                            + x as usize];
                        for &ti in b {
                            let t = self.tris[ti as usize];
                            let d = point_triangle_distance(
                                p,
                                self.points[t[0] as usize],
                                self.points[t[1] as usize],
                                self.points[t[2] as usize],
                            );
                            best = best.min(d);
                        }
                    }
                }
            }
            if !any_cell && best.is_finite() {
                break;
            }
        }
        best
    }
}

/// Symmetric Hausdorff distance between a boundary triangle mesh and the
/// image isosurface. `samples_per_tri` controls the surface sampling density
/// on the mesh side (3 vertices + midpoints + centroid when ≥ 7).
pub fn hausdorff_distance(
    points: &[Point3],
    tris: &[[u32; 3]],
    oracle: &IsosurfaceOracle,
    samples_per_tri: usize,
) -> f64 {
    if tris.is_empty() {
        return f64::INFINITY;
    }
    // mesh -> surface
    let mut d_mesh_to_surf: f64 = 0.0;
    for t in tris {
        let a = points[t[0] as usize];
        let b = points[t[1] as usize];
        let c = points[t[2] as usize];
        let mut samples = vec![a, b, c];
        if samples_per_tri >= 4 {
            samples.push((a + b + c) / 3.0);
        }
        if samples_per_tri >= 7 {
            samples.push((a + b) * 0.5);
            samples.push((b + c) * 0.5);
            samples.push((c + a) * 0.5);
        }
        for s in samples {
            let d = oracle.surface_distance(s).unwrap_or(f64::INFINITY);
            d_mesh_to_surf = d_mesh_to_surf.max(d);
        }
    }
    // surface -> mesh
    let set = TriangleSet::new(points.to_vec(), tris.to_vec());
    let img = oracle.image();
    let mut d_surf_to_mesh: f64 = 0.0;
    for [i, j, k] in img.surface_voxels() {
        let vc = img.voxel_center(i, j, k);
        // project the voxel center onto the actual interface
        let s = oracle.closest_surface_point(vc).unwrap_or(vc);
        d_surf_to_mesh = d_surf_to_mesh.max(set.distance(s));
    }
    d_mesh_to_surf.max(d_surf_to_mesh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2m_image::phantoms;

    #[test]
    fn point_triangle_cases() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(1.0, 0.0, 0.0);
        let c = Point3::new(0.0, 1.0, 0.0);
        // above the interior
        assert!((point_triangle_distance(Point3::new(0.2, 0.2, 1.0), a, b, c) - 1.0).abs() < 1e-12);
        // nearest to vertex a
        assert!(
            (point_triangle_distance(Point3::new(-1.0, -1.0, 0.0), a, b, c) - 2f64.sqrt()).abs()
                < 1e-12
        );
        // nearest to edge ab
        assert!(
            (point_triangle_distance(Point3::new(0.5, -2.0, 0.0), a, b, c) - 2.0).abs() < 1e-12
        );
        // on the triangle
        assert_eq!(
            point_triangle_distance(Point3::new(0.25, 0.25, 0.0), a, b, c),
            0.0
        );
    }

    #[test]
    fn triangle_set_distance() {
        let points = vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
            Point3::new(5.0, 5.0, 5.0),
            Point3::new(6.0, 5.0, 5.0),
            Point3::new(5.0, 6.0, 5.0),
        ];
        let tris = vec![[0u32, 1, 2], [3, 4, 5]];
        let set = TriangleSet::new(points, tris);
        assert!((set.distance(Point3::new(0.2, 0.2, 0.5)) - 0.5).abs() < 1e-12);
        assert!((set.distance(Point3::new(5.2, 5.2, 4.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_set() {
        let set = TriangleSet::new(Vec::new(), Vec::new());
        assert!(set.is_empty());
        assert_eq!(set.distance(Point3::ORIGIN), f64::INFINITY);
    }

    #[test]
    fn hausdorff_of_good_mesh_is_small() {
        use pi2m_refine::{MesherConfig, MeshingSession};
        let img = phantoms::sphere(20, 1.0);
        let out = MeshingSession::new(1)
            .mesh(
                img,
                MesherConfig {
                    delta: 2.0,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        let tris = out.mesh.boundary_triangles();
        let d = hausdorff_distance(&out.mesh.points, &tris, &out.oracle, 7);
        // δ = 2 voxels: Hausdorff should be a few voxels at most
        assert!(d < 5.0, "Hausdorff {d} too large");
    }
}
