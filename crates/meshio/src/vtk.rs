//! Writers for legacy VTK, OFF and TetGen node/ele formats.

use pi2m_refine::FinalMesh;
use std::io::{self, Write};

/// Write the mesh as a legacy-VTK unstructured grid with a `tissue` cell
/// scalar (load in ParaView to reproduce the renderings of Figures 7–9).
pub fn write_vtk<W: Write>(mesh: &FinalMesh, w: &mut W) -> io::Result<()> {
    writeln!(w, "# vtk DataFile Version 3.0")?;
    writeln!(w, "PI2M mesh")?;
    writeln!(w, "ASCII")?;
    writeln!(w, "DATASET UNSTRUCTURED_GRID")?;
    writeln!(w, "POINTS {} double", mesh.num_points())?;
    for p in &mesh.points {
        writeln!(w, "{} {} {}", p.x, p.y, p.z)?;
    }
    writeln!(w, "CELLS {} {}", mesh.num_tets(), mesh.num_tets() * 5)?;
    for t in &mesh.tets {
        writeln!(w, "4 {} {} {} {}", t[0], t[1], t[2], t[3])?;
    }
    writeln!(w, "CELL_TYPES {}", mesh.num_tets())?;
    for _ in &mesh.tets {
        writeln!(w, "10")?; // VTK_TETRA
    }
    writeln!(w, "CELL_DATA {}", mesh.num_tets())?;
    writeln!(w, "SCALARS tissue int 1")?;
    writeln!(w, "LOOKUP_TABLE default")?;
    for &l in &mesh.labels {
        writeln!(w, "{l}")?;
    }
    Ok(())
}

/// Write the mesh's boundary surface as an OFF file.
pub fn write_off<W: Write>(mesh: &FinalMesh, w: &mut W) -> io::Result<()> {
    let tris = mesh.boundary_triangles();
    writeln!(w, "OFF")?;
    writeln!(w, "{} {} 0", mesh.num_points(), tris.len())?;
    for p in &mesh.points {
        writeln!(w, "{} {} {}", p.x, p.y, p.z)?;
    }
    for t in &tris {
        writeln!(w, "3 {} {} {}", t[0], t[1], t[2])?;
    }
    Ok(())
}

/// Write TetGen-style `.node` and `.ele` contents (1-based indices, labels
/// as the region attribute). Each element's nodes are in the mesh's own
/// right-handed order, (p1−p0)×(p2−p0)·(p3−p0) > 0.
pub fn write_node_ele<W1: Write, W2: Write>(
    mesh: &FinalMesh,
    node: &mut W1,
    ele: &mut W2,
) -> io::Result<()> {
    writeln!(node, "{} 3 0 0", mesh.num_points())?;
    for (i, p) in mesh.points.iter().enumerate() {
        writeln!(node, "{} {} {} {}", i + 1, p.x, p.y, p.z)?;
    }
    writeln!(ele, "{} 4 1", mesh.num_tets())?;
    for (i, (t, l)) in mesh.tets.iter().zip(&mesh.labels).enumerate() {
        writeln!(
            ele,
            "{} {} {} {} {} {}",
            i + 1,
            t[0] + 1,
            t[1] + 1,
            t[2] + 1,
            t[3] + 1,
            l
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2m_delaunay::VertexKind;
    use pi2m_geometry::Point3;

    fn tiny_mesh() -> FinalMesh {
        FinalMesh {
            points: vec![
                Point3::new(0.0, 0.0, 0.0),
                Point3::new(1.0, 0.0, 0.0),
                Point3::new(0.0, 1.0, 0.0),
                Point3::new(0.0, 0.0, -1.0),
            ],
            point_kinds: vec![VertexKind::Isosurface; 4],
            tets: vec![[0, 1, 2, 3]],
            labels: vec![3],
        }
    }

    #[test]
    fn vtk_structure() {
        let mut buf = Vec::new();
        write_vtk(&tiny_mesh(), &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("# vtk DataFile"));
        assert!(s.contains("POINTS 4 double"));
        assert!(s.contains("CELLS 1 5"));
        assert!(s.contains("CELL_TYPES 1"));
        assert!(s.contains("SCALARS tissue int 1"));
        assert!(s.trim_end().ends_with('3'));
    }

    #[test]
    fn off_structure() {
        let mut buf = Vec::new();
        write_off(&tiny_mesh(), &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let mut lines = s.lines();
        assert_eq!(lines.next(), Some("OFF"));
        assert_eq!(lines.next(), Some("4 4 0")); // 4 boundary faces of a tet
    }

    #[test]
    fn node_ele_counts_and_one_based() {
        let (mut n, mut e) = (Vec::new(), Vec::new());
        write_node_ele(&tiny_mesh(), &mut n, &mut e).unwrap();
        let ns = String::from_utf8(n).unwrap();
        let es = String::from_utf8(e).unwrap();
        assert!(ns.starts_with("4 3 0 0"));
        assert!(es.starts_with("1 4 1"));
        assert!(es.contains("1 1 2 3 4 3")); // 1-based + label
    }
}
