//! Custom size functions (rule R5): graded meshes with fine elements near a
//! region of interest — the control the paper highlights over voxel-pitch
//! meshing ("parts of the isosurface of high curvature can be meshed with
//! more elements", §2).
//!
//! ```sh
//! cargo run --release --example custom_sizing
//! ```

use pi2m::geometry::Point3;
use pi2m::image::phantoms;
use pi2m::meshio;
use pi2m::oracle::RadialSize;
use pi2m::refine::{MesherConfig, MeshingSession};
use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;

fn main() -> std::io::Result<()> {
    let out_dir = std::path::Path::new("target/sizing");
    std::fs::create_dir_all(out_dir)?;
    let img = phantoms::nested_spheres(40, 1.0);
    let center = img.bounds().center();

    // uniform sizing
    let uniform = MeshingSession::new(2)
        .mesh(
            img.clone(),
            MesherConfig {
                delta: 2.0,
                threads: 2,
                size_fn: Some(Arc::new(pi2m::oracle::UniformSize(4.0))),
                ..Default::default()
            },
        )
        .unwrap();

    // graded: fine near a "lesion" on the inner sphere, coarse elsewhere
    let focus = center + Point3::new(7.0, 0.0, 0.0);
    let graded = MeshingSession::new(2)
        .mesh(
            img,
            MesherConfig {
                delta: 2.0,
                threads: 2,
                size_fn: Some(Arc::new(RadialSize {
                    focus,
                    near: 1.0,
                    growth: 0.6,
                    far: 6.0,
                })),
                ..Default::default()
            },
        )
        .unwrap();

    // surface grading: dense isosurface sampling near the lesion only
    let surface_graded = MeshingSession::new(2)
        .mesh(
            phantoms::nested_spheres(40, 1.0),
            MesherConfig {
                delta: 3.0,
                threads: 2,
                surface_size_fn: Some(Arc::new(RadialSize {
                    focus,
                    near: 0.8,
                    growth: 0.5,
                    far: 3.0,
                })),
                ..Default::default()
            },
        )
        .unwrap();

    println!("uniform sizing : {} elements", uniform.mesh.num_tets());
    println!("graded sizing  : {} elements", graded.mesh.num_tets());
    println!(
        "surface-graded : {} elements ({} boundary triangles)",
        surface_graded.mesh.num_tets(),
        surface_graded.mesh.boundary_triangles().len()
    );

    // demonstrate the grading: mean element volume near vs far from focus
    let mean_vol_near = |mesh: &pi2m::refine::FinalMesh, radius: f64| {
        let mut v = 0.0;
        let mut n = 0usize;
        for t in &mesh.tets {
            let c = (mesh.points[t[0] as usize]
                + mesh.points[t[1] as usize]
                + mesh.points[t[2] as usize]
                + mesh.points[t[3] as usize])
                / 4.0;
            if c.distance(focus) < radius {
                v += pi2m::geometry::signed_volume(
                    mesh.points[t[0] as usize],
                    mesh.points[t[1] as usize],
                    mesh.points[t[2] as usize],
                    mesh.points[t[3] as usize],
                )
                .abs();
                n += 1;
            }
        }
        if n > 0 {
            v / n as f64
        } else {
            f64::NAN
        }
    };
    println!(
        "graded mesh: mean element volume near focus {:.3}, far {:.3}",
        mean_vol_near(&graded.mesh, 6.0),
        mean_vol_near(&graded.mesh, f64::INFINITY)
    );

    for (name, mesh) in [("uniform", &uniform.mesh), ("graded", &graded.mesh)] {
        let path = out_dir.join(format!("{name}.vtk"));
        meshio::write_vtk(mesh, &mut BufWriter::new(File::create(&path)?))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}
