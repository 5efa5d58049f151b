//! The "CGAL-like" sequential Isosurface-based mesher.
//!
//! Structure mirrors CGAL's `Mesh_3` refinement loop: a max-priority queue
//! of poor elements ordered by circumradius (biggest first), eager
//! classification of every cell the moment it is created, and no vertex
//! removals. Rules are the same R1–R5 evaluations PI2M uses, so quality and
//! fidelity are comparable (paper Table 6) while the per-operation
//! bookkeeping is heavier than PI2M's lazy poor-element lists.

use crate::BaselineOutput;
use pi2m_delaunay::{CellId, SharedMesh};
use pi2m_geometry::circumcenter;
use pi2m_image::LabeledImage;
use pi2m_oracle::{IsosurfaceOracle, SizeFn};
use pi2m_refine::{FinalMesh, PointGrid, RuleConfig, Rules};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Priority-queue entry: larger circumradius = higher priority.
struct QEntry {
    radius: f64,
    cell: CellId,
    gen: u32,
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.radius == other.radius
    }
}
impl Eq for QEntry {}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.radius.total_cmp(&other.radius)
    }
}

/// Configuration for the CGAL-like baseline.
#[derive(Clone)]
pub struct IsosurfaceBaselineConfig {
    pub delta: f64,
    pub radius_edge_bound: f64,
    pub planar_angle_min_deg: f64,
    pub size_fn: Option<Arc<dyn SizeFn>>,
    /// Safety cap (0 = unlimited).
    pub max_operations: u64,
}

impl Default for IsosurfaceBaselineConfig {
    fn default() -> Self {
        IsosurfaceBaselineConfig {
            delta: 2.0,
            radius_edge_bound: 2.0,
            planar_angle_min_deg: 30.0,
            size_fn: None,
            max_operations: 0,
        }
    }
}

/// Sequential Isosurface-based Delaunay refiner (CGAL `Mesh_3` stand-in).
pub struct IsosurfaceBaseline {
    img: LabeledImage,
    cfg: IsosurfaceBaselineConfig,
}

impl IsosurfaceBaseline {
    pub fn new(img: LabeledImage, cfg: IsosurfaceBaselineConfig) -> Self {
        IsosurfaceBaseline { img, cfg }
    }

    pub fn run(self) -> BaselineOutput {
        let t_all = Instant::now();
        let t_edt = Instant::now();
        // sequential tool: single-threaded EDT
        let oracle = Arc::new(IsosurfaceOracle::new(self.img, 1));
        let edt_time = t_edt.elapsed().as_secs_f64();

        let domain = oracle
            .image()
            .foreground_bounds()
            .unwrap_or_else(|| oracle.image().bounds());
        let mesh = SharedMesh::enclosing(&domain);
        let grid = Arc::new(PointGrid::new(self.cfg.delta));
        let rules = Rules::new(
            RuleConfig {
                delta: self.cfg.delta,
                radius_edge_bound: self.cfg.radius_edge_bound,
                planar_angle_min_deg: self.cfg.planar_angle_min_deg,
                size_fn: self.cfg.size_fn.clone(),
                surface_size_fn: None,
            },
            Arc::clone(&oracle),
            grid,
        );

        let mut ctx = mesh.make_ctx(0);
        let mut queue: BinaryHeap<QEntry> = BinaryHeap::new();
        let enqueue = |queue: &mut BinaryHeap<QEntry>, mesh: &SharedMesh, c: CellId| {
            let p = mesh.cell_points(c);
            if let Some(cc) = circumcenter(p[0], p[1], p[2], p[3]) {
                queue.push(QEntry {
                    radius: cc.distance(p[0]),
                    cell: c,
                    gen: mesh.cell(c).gen(),
                });
            }
        };
        for c in mesh.alive_cells() {
            enqueue(&mut queue, &mesh, c);
        }

        let mut operations = 0u64;
        while let Some(e) = queue.pop() {
            // eager revalidation (cells die under the queue)
            let cell = mesh.cell(e.cell);
            if !cell.is_alive() || cell.gen() != e.gen {
                continue;
            }
            let Some(action) = rules.classify(&mesh, e.cell, e.gen) else {
                continue;
            };
            match ctx.insert(action.point, action.kind) {
                Ok(res) => {
                    operations += 1;
                    rules.grid.insert(res.vertex, action.point);
                    // eager: classify (and requeue) every created cell now —
                    // CGAL-style immediate re-checking
                    for &nc in &res.created {
                        let gen = mesh.cell(nc).gen();
                        if rules.classify(&mesh, nc, gen).is_some() {
                            enqueue(&mut queue, &mesh, nc);
                        }
                    }
                    // re-examine the element itself if it survived (it
                    // didn't: the triggering cell is always in the cavity of
                    // its own remedy or dies; nothing to do)
                }
                Err(_) => {
                    // duplicate/outside/degenerate: drop
                }
            }
            if self.cfg.max_operations > 0 && operations >= self.cfg.max_operations {
                break;
            }
        }

        let final_mesh = FinalMesh::extract(&mesh, &oracle);
        BaselineOutput {
            mesh: final_mesh,
            total_time: t_all.elapsed().as_secs_f64(),
            edt_time,
            operations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2m_image::phantoms;

    #[test]
    fn meshes_a_sphere() {
        let out = IsosurfaceBaseline::new(
            phantoms::sphere(16, 1.0),
            IsosurfaceBaselineConfig {
                delta: 2.0,
                ..Default::default()
            },
        )
        .run();
        assert!(out.mesh.num_tets() > 50);
        assert!(out.operations > 0);
        assert!(out.total_time >= out.edt_time);
        assert!(out.tets_per_second() > 0.0);
    }

    #[test]
    fn similar_size_to_pi2m() {
        use pi2m_refine::{MesherConfig, MeshingSession};
        let img = phantoms::sphere(16, 1.0);
        let base = IsosurfaceBaseline::new(
            img.clone(),
            IsosurfaceBaselineConfig {
                delta: 2.0,
                ..Default::default()
            },
        )
        .run();
        let pi2m = MeshingSession::new(1)
            .mesh(
                img,
                MesherConfig {
                    delta: 2.0,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        let (a, b) = (base.mesh.num_tets() as f64, pi2m.mesh.num_tets() as f64);
        assert!((a - b).abs() / b < 0.5, "baseline {a} vs pi2m {b} elements");
    }
}
