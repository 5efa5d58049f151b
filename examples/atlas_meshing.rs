//! Multi-tissue atlas meshing — the Figures 7–9 workflow.
//!
//! Meshes the knee and head-neck phantoms (stand-ins for the SPL atlases)
//! with PI2M, the CGAL-like baseline, and the TetGen-like baseline, exports
//! every mesh as VTK (load in ParaView, color by the `tissue` scalar to
//! reproduce the renderings), and prints per-tissue element tables.
//!
//! ```sh
//! cargo run --release --example atlas_meshing [scale]
//! ```

use pi2m::baseline::plc::PlcBaselineConfig;
use pi2m::baseline::{isosurface::IsosurfaceBaselineConfig, IsosurfaceBaseline, PlcBaseline};
use pi2m::image::phantoms;
use pi2m::meshio;
use pi2m::refine::{FinalMesh, MesherConfig, MeshingSession};
use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;

fn tissue_table(name: &str, mesh: &FinalMesh) {
    let mut counts = [0usize; 256];
    for &l in &mesh.labels {
        counts[l as usize] += 1;
    }
    println!("  {name}: {} tets across tissues:", mesh.num_tets());
    for (l, &c) in counts.iter().enumerate() {
        if c > 0 {
            println!("    tissue {l:>3}: {c:>8} elements");
        }
    }
}

fn export(dir: &std::path::Path, name: &str, mesh: &FinalMesh) -> std::io::Result<()> {
    let path = dir.join(format!("{name}.vtk"));
    meshio::write_vtk(mesh, &mut BufWriter::new(File::create(&path)?))?;
    println!("  wrote {}", path.display());
    Ok(())
}

fn main() -> std::io::Result<()> {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let out_dir = std::path::Path::new("target/atlas");
    std::fs::create_dir_all(out_dir)?;
    let delta = 2.0;

    // Both atlases mesh over one warm session (what `pi2m mesh` does with
    // several inputs); the baselines below stay one-shot by design.
    let mut session = MeshingSession::new(4);
    for (name, img) in [
        ("knee", phantoms::knee(scale)),
        ("head_neck", phantoms::head_neck(scale)),
    ] {
        println!("=== {name} atlas (scale {scale}) ===");

        // PI2M (Figure 7)
        let pi2m_out = session
            .mesh(
                img.clone(),
                MesherConfig {
                    delta,
                    threads: 4,
                    ..Default::default()
                },
            )
            .expect("PI2M run failed");
        tissue_table("PI2M", &pi2m_out.mesh);
        export(out_dir, &format!("{name}_pi2m"), &pi2m_out.mesh)?;

        // CGAL-like (Figure 8)
        let cgal = IsosurfaceBaseline::new(
            img.clone(),
            IsosurfaceBaselineConfig {
                delta,
                ..Default::default()
            },
        )
        .run();
        tissue_table("CGAL-like", &cgal.mesh);
        export(out_dir, &format!("{name}_cgal_like"), &cgal.mesh)?;

        // TetGen-like, fed the PI2M-recovered surface (Figure 9)
        let tetgen = PlcBaseline::from_surface(
            pi2m_out.mesh.points.clone(),
            pi2m_out.mesh.boundary_triangles(),
            Arc::clone(&pi2m_out.oracle),
            PlcBaselineConfig::default(),
        )
        .run();
        tissue_table("TetGen-like", &tetgen.mesh);
        export(out_dir, &format!("{name}_tetgen_like"), &tetgen.mesh)?;
        println!();
    }
    Ok(())
}
