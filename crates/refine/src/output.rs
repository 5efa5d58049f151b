//! The reported mesh: the subset of tetrahedra whose circumcenter lies
//! inside the object O (paper Figure 1c / Algorithm 1 line 49), compacted
//! into plain arrays for analysis and export.

use pi2m_delaunay::{SharedMesh, VertexKind};
use pi2m_geometry::{circumcenter, Point3};
use pi2m_image::Label;
use pi2m_oracle::IsosurfaceOracle;
use std::collections::HashMap;

/// A compact tetrahedral mesh with per-element tissue labels.
#[derive(Clone, Debug, Default)]
pub struct FinalMesh {
    pub points: Vec<Point3>,
    /// Kind of each point (isosurface sample, circumcenter, ...).
    pub point_kinds: Vec<VertexKind>,
    /// Tetrahedra as indices into `points`, positively oriented.
    pub tets: Vec<[u32; 4]>,
    /// Tissue label of each tetrahedron (label at its circumcenter).
    pub labels: Vec<Label>,
}

impl FinalMesh {
    pub fn num_tets(&self) -> usize {
        self.tets.len()
    }

    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Distinct tissue labels present.
    pub fn tissues(&self) -> Vec<Label> {
        let mut seen = [false; 256];
        for &l in &self.labels {
            seen[l as usize] = true;
        }
        (0u16..256)
            .filter(|&l| seen[l as usize])
            .map(|l| l as Label)
            .collect()
    }

    /// Extract from the shared triangulation at quiescence: scan the cell
    /// pool and keep alive cells whose circumcenter lies inside O, labeling
    /// each by the tissue at its circumcenter.
    pub fn extract(mesh: &SharedMesh, oracle: &IsosurfaceOracle) -> FinalMesh {
        const UNSEEN: u32 = u32::MAX;
        let mut out = FinalMesh::default();
        // Vertex id → point index, assigned in first-seen order.
        let mut vmap = vec![UNSEEN; mesh.num_vertices()];
        for c in mesh.alive_cells() {
            let cell = mesh.cell(c);
            let p = mesh.cell_points(c);
            let Some(cc) = circumcenter(p[0], p[1], p[2], p[3]) else {
                continue;
            };
            let label = oracle.label_at(cc);
            if label == pi2m_image::BACKGROUND {
                continue;
            }
            let mut tet = [0u32; 4];
            for (slot, k) in tet.iter_mut().zip(0..4) {
                let v = cell.vert(k);
                let idx = &mut vmap[v.idx()];
                if *idx == UNSEEN {
                    *idx = out.points.len() as u32;
                    out.points.push(mesh.position(v));
                    out.point_kinds.push(mesh.vertex(v).kind());
                }
                *slot = *idx;
            }
            out.tets.push(tet);
            out.labels.push(label);
        }
        out
    }

    /// The boundary triangles of the mesh: faces incident to exactly one
    /// tetrahedron, plus interior faces separating tetrahedra of different
    /// tissue labels (multi-material interfaces). Oriented arbitrarily.
    pub fn boundary_triangles(&self) -> Vec<[u32; 3]> {
        use std::collections::HashMap;
        // sorted face key -> (first label, count)
        let mut faces: HashMap<[u32; 3], (Label, u8, [u32; 3])> = HashMap::new();
        for (t, &label) in self.tets.iter().zip(&self.labels) {
            for f in pi2m_geometry::TET_FACES {
                let tri = [t[f[0]], t[f[1]], t[f[2]]];
                let mut key = tri;
                key.sort_unstable();
                faces
                    .entry(key)
                    .and_modify(|e| {
                        e.1 += 1;
                        if e.0 != label {
                            e.1 |= 0x80; // mark label mismatch
                        }
                    })
                    .or_insert((label, 1, tri));
            }
        }
        faces
            .into_values()
            .filter(|&(_, count, _)| count == 1 || count & 0x80 != 0)
            .map(|(_, _, tri)| tri)
            .collect()
    }

    /// Per-label volume sums (world units³), sorted by label. The unit of
    /// comparison for differential tests: two meshes of the same image agree
    /// when every tissue's volume matches within tolerance.
    pub fn label_volumes(&self) -> Vec<(Label, f64)> {
        let mut vols: HashMap<Label, f64> = HashMap::new();
        for (t, &label) in self.tets.iter().zip(&self.labels) {
            *vols.entry(label).or_insert(0.0) += pi2m_geometry::signed_volume(
                self.points[t[0] as usize],
                self.points[t[1] as usize],
                self.points[t[2] as usize],
                self.points[t[3] as usize],
            );
        }
        let mut out: Vec<(Label, f64)> = vols.into_iter().collect();
        out.sort_by_key(|&(l, _)| l);
        out
    }

    /// Total volume of the mesh (world units³).
    pub fn volume(&self) -> f64 {
        self.tets
            .iter()
            .map(|t| {
                pi2m_geometry::signed_volume(
                    self.points[t[0] as usize],
                    self.points[t[1] as usize],
                    self.points[t[2] as usize],
                    self.points[t[3] as usize],
                )
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2m_delaunay::SharedMesh;
    use pi2m_image::phantoms;
    use std::sync::Arc;

    #[test]
    fn extract_keeps_only_inside_cells() {
        let img = phantoms::sphere(16, 1.0);
        let oracle = Arc::new(IsosurfaceOracle::new(img, 1));
        let bb = oracle.image().foreground_bounds().unwrap();
        let mesh = SharedMesh::enclosing(&bb);
        let mut ctx = mesh.make_ctx(0);
        // sprinkle points inside the sphere so some tets have interior ccs
        let c = oracle.image().bounds().center();
        for d in [
            [0.0, 0.0, 0.0],
            [3.0, 0.0, 0.0],
            [0.0, 3.0, 0.0],
            [0.0, 0.0, 3.0],
            [-3.0, -2.0, 1.0],
        ] {
            ctx.insert(
                [c.x + d[0], c.y + d[1], c.z + d[2]],
                VertexKind::Circumcenter,
            )
            .unwrap();
        }
        let fm = FinalMesh::extract(&mesh, &oracle);
        assert!(fm.num_tets() > 0);
        assert_eq!(fm.tets.len(), fm.labels.len());
        // every reported tet's circumcenter must be inside
        for t in &fm.tets {
            let cc = circumcenter(
                fm.points[t[0] as usize],
                fm.points[t[1] as usize],
                fm.points[t[2] as usize],
                fm.points[t[3] as usize],
            )
            .unwrap();
            assert!(oracle.is_inside(cc));
        }
        // volume bounded by the sphere's volume (plus slop: tets can stick out)
        assert!(fm.volume() > 0.0);
        // per-label volumes partition the total
        let by_label: f64 = fm.label_volumes().iter().map(|&(_, v)| v).sum();
        assert!((by_label - fm.volume()).abs() < 1e-9);
    }
}
