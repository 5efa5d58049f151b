//! The "TetGen-like" sequential PLC-based volume mesher.
//!
//! TetGen takes a piecewise linear complex — here, the triangulated
//! isosurface recovered by PI2M, exactly as the paper's comparison does
//! (§7: "we pass to TetGen the triangulated iso-surfaces as recovered by
//! our method, and then let TetGen fill the underlying volume"). It inserts
//! all boundary vertices, then refines interior tetrahedra for quality and
//! size. No isosurface sampling, no EDT: fast on small meshes, overtaken by
//! PI2M on large ones (paper Table 6).

use crate::BaselineOutput;
use pi2m_delaunay::{CellId, SharedMesh, VertexKind};
use pi2m_geometry::{circumcenter, Aabb, Point3, TET_EDGES};
use pi2m_oracle::{IsosurfaceOracle, SizeFn};
use pi2m_refine::FinalMesh;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Configuration for the TetGen-like baseline.
#[derive(Clone)]
pub struct PlcBaselineConfig {
    pub radius_edge_bound: f64,
    pub size_fn: Option<Arc<dyn SizeFn>>,
    pub max_operations: u64,
}

impl Default for PlcBaselineConfig {
    fn default() -> Self {
        PlcBaselineConfig {
            radius_edge_bound: 2.0,
            size_fn: None,
            max_operations: 0,
        }
    }
}

/// Sequential PLC-based volume mesher (TetGen stand-in).
///
/// `points`/`triangles` describe the input boundary complex; the oracle
/// plays the role of TetGen's region seeds (point-in-subdomain tests and
/// element labels).
pub struct PlcBaseline {
    pub points: Vec<Point3>,
    pub triangles: Vec<[u32; 3]>,
    pub oracle: Arc<IsosurfaceOracle>,
    pub cfg: PlcBaselineConfig,
}

impl PlcBaseline {
    /// Build from a recovered boundary mesh (e.g.
    /// [`FinalMesh::boundary_triangles`] of a PI2M output).
    pub fn from_surface(
        points: Vec<Point3>,
        triangles: Vec<[u32; 3]>,
        oracle: Arc<IsosurfaceOracle>,
        cfg: PlcBaselineConfig,
    ) -> Self {
        PlcBaseline {
            points,
            triangles,
            oracle,
            cfg,
        }
    }

    pub fn run(self) -> BaselineOutput {
        let t_all = Instant::now();
        // referenced boundary vertices only
        let mut used = vec![false; self.points.len()];
        for t in &self.triangles {
            for &v in t {
                used[v as usize] = true;
            }
        }
        let mut bb = Aabb::empty();
        for (p, &u) in self.points.iter().zip(&used) {
            if u {
                bb.include(*p);
            }
        }
        if bb.min.x > bb.max.x {
            return BaselineOutput::default();
        }
        let mesh = SharedMesh::enclosing(&bb);
        let mut ctx = mesh.make_ctx(0);
        let mut operations = 0u64;

        // Phase 1: insert the PLC vertices.
        for (p, &u) in self.points.iter().zip(&used) {
            if !u {
                continue;
            }
            if ctx.insert(p.to_array(), VertexKind::Isosurface).is_ok() {
                operations += 1;
            }
        }

        // Phase 2: refine interior cells (quality + size).
        let mut queue: BinaryHeap<(u64, CellId, u32)> = BinaryHeap::new();
        let key = |r: f64| (r * 1e9) as u64;
        let classify = |mesh: &SharedMesh, c: CellId| -> Option<([f64; 3], f64)> {
            let p = mesh.cell_points(c);
            let cc = circumcenter(p[0], p[1], p[2], p[3])?;
            if !self.oracle.is_inside(cc) {
                return None;
            }
            let r = cc.distance(p[0]);
            let mut shortest = f64::INFINITY;
            for (a, b) in TET_EDGES {
                shortest = shortest.min(p[a].distance(p[b]));
            }
            let poor_quality = shortest > 0.0 && r / shortest > self.cfg.radius_edge_bound;
            let poor_size = self
                .cfg
                .size_fn
                .as_ref()
                .is_some_and(|sf| r > sf.size_at(cc));
            (poor_quality || poor_size).then(|| (cc.to_array(), r))
        };
        for c in mesh.alive_cells() {
            if let Some((_, r)) = classify(&mesh, c) {
                queue.push((key(r), c, mesh.cell(c).gen()));
            }
        }
        while let Some((_, c, gen)) = queue.pop() {
            let cell = mesh.cell(c);
            if !cell.is_alive() || cell.gen() != gen {
                continue;
            }
            let Some((cc, _)) = classify(&mesh, c) else {
                continue;
            };
            if let Ok(res) = ctx.insert(cc, VertexKind::Circumcenter) {
                operations += 1;
                for &nc in &res.created {
                    if let Some((_, r)) = classify(&mesh, nc) {
                        queue.push((key(r), nc, mesh.cell(nc).gen()));
                    }
                }
            }
            if self.cfg.max_operations > 0 && operations >= self.cfg.max_operations {
                break;
            }
        }

        let final_mesh = FinalMesh::extract(&mesh, &self.oracle);
        BaselineOutput {
            mesh: final_mesh,
            total_time: t_all.elapsed().as_secs_f64(),
            edt_time: 0.0,
            operations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2m_image::phantoms;
    use pi2m_refine::{Mesher, MesherConfig};

    #[test]
    fn fills_a_recovered_surface() {
        let img = phantoms::sphere(16, 1.0);
        let pi2m = Mesher::new(
            img,
            MesherConfig {
                delta: 2.0,
                threads: 1,
                ..Default::default()
            },
        )
        .run();
        let tris = pi2m.mesh.boundary_triangles();
        assert!(!tris.is_empty());
        let out = PlcBaseline::from_surface(
            pi2m.mesh.points.clone(),
            tris,
            Arc::clone(&pi2m.oracle),
            PlcBaselineConfig::default(),
        )
        .run();
        assert!(out.mesh.num_tets() > 50);
        assert_eq!(out.edt_time, 0.0);
        // volume comparable with the PI2M mesh volume
        let (a, b) = (out.mesh.volume(), pi2m.mesh.volume());
        assert!((a - b).abs() / b < 0.35, "plc volume {a} vs pi2m {b}");
    }

    #[test]
    fn empty_input_is_empty_output() {
        let img = phantoms::sphere(8, 1.0);
        let oracle = Arc::new(IsosurfaceOracle::new(img, 1));
        let out =
            PlcBaseline::from_surface(Vec::new(), Vec::new(), oracle, Default::default()).run();
        assert_eq!(out.mesh.num_tets(), 0);
    }
}
