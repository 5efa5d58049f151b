//! **Table 6** — single-threaded evaluation, *real wall-clock*: PI2M (one
//! thread, full synchronization machinery in place) vs. the CGAL-like and
//! TetGen-like baselines on the knee and head-neck phantoms: rate, time,
//! element count, max radius-edge ratio, smallest boundary planar angle,
//! dihedral extremes, and two-sided Hausdorff distance.
//!
//! Paper reference shape: PI2M beats CGAL by 40–80% in rate with comparable
//! quality; TetGen (fed PI2M's recovered surface, no EDT) wins on small
//! meshes but loses on large ones and has worse dihedral quality.
//!
//! Run: `cargo bench -p pi2m-bench --bench table6_single_threaded`
//! (PI2M_FULL=1 for larger meshes).

use pi2m_baseline::isosurface::IsosurfaceBaselineConfig;
use pi2m_baseline::plc::PlcBaselineConfig;
use pi2m_baseline::{IsosurfaceBaseline, PlcBaseline};
use pi2m_bench::full_mode;
use pi2m_image::phantoms;
use pi2m_oracle::IsosurfaceOracle;
use pi2m_quality::{boundary_report, hausdorff_distance, mesh_quality};
use pi2m_refine::{FinalMesh, MesherConfig, MeshingSession};
use std::sync::Arc;

struct Row {
    name: &'static str,
    tets: usize,
    time: f64,
    edt: f64,
    rate: f64,
    max_re: f64,
    min_planar: f64,
    dih: (f64, f64),
    hausdorff: f64,
    removals: u64,
    ops: u64,
}

fn measure(
    name: &'static str,
    mesh: &FinalMesh,
    time: f64,
    edt: f64,
    oracle: &IsosurfaceOracle,
    removals: u64,
    ops: u64,
) -> Row {
    let q = mesh_quality(mesh);
    let b = boundary_report(mesh);
    let tris = mesh.boundary_triangles();
    let hd = hausdorff_distance(&mesh.points, &tris, oracle, 7);
    Row {
        name,
        tets: mesh.num_tets(),
        time,
        edt,
        rate: mesh.num_tets() as f64 / time.max(1e-9),
        max_re: q.max_radius_edge,
        min_planar: b.min_planar_angle_deg,
        dih: (q.min_dihedral_deg, q.max_dihedral_deg),
        hausdorff: hd,
        removals,
        ops,
    }
}

fn main() {
    let scale = if full_mode() { 2.2 } else { 1.2 };
    let delta_base = if full_mode() { 1.2 } else { 1.8 };

    for (tag, img) in [
        ("knee atlas", phantoms::knee(scale)),
        ("head-neck atlas", phantoms::head_neck(scale)),
    ] {
        println!("Table 6 — {tag} (phantom scale {scale})");
        let mut rows = Vec::new();

        // PI2M, single thread, real wall clock
        let t0 = std::time::Instant::now();
        let out = MeshingSession::new(1)
            .mesh(
                img.clone(),
                MesherConfig {
                    delta: delta_base,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        let t_pi2m = t0.elapsed().as_secs_f64();
        rows.push(measure(
            "PI2M (1 thread)",
            &out.mesh,
            t_pi2m,
            out.stats.edt_time,
            &out.oracle,
            out.stats.total_removals(),
            out.stats.total_operations(),
        ));

        // CGAL-like
        let cgal = IsosurfaceBaseline::new(
            img.clone(),
            IsosurfaceBaselineConfig {
                delta: delta_base,
                ..Default::default()
            },
        )
        .run();
        rows.push(measure(
            "CGAL-like",
            &cgal.mesh,
            cgal.total_time,
            cgal.edt_time,
            &out.oracle,
            0,
            cgal.operations,
        ));

        // TetGen-like, fed PI2M's recovered surface
        let tet = PlcBaseline::from_surface(
            out.mesh.points.clone(),
            out.mesh.boundary_triangles(),
            Arc::clone(&out.oracle),
            PlcBaselineConfig::default(),
        )
        .run();
        rows.push(measure(
            "TetGen-like",
            &tet.mesh,
            tet.total_time,
            0.0,
            &out.oracle,
            0,
            tet.operations,
        ));

        println!(
            "{:<18} {:>10} {:>9} {:>9} {:>12} {:>8} {:>10} {:>16} {:>10}",
            "",
            "#tets",
            "time(s)",
            "edt(s)",
            "tets/sec",
            "max R/e",
            "min∠bnd",
            "dihedral(°)",
            "Hausdorff"
        );
        for r in &rows {
            println!(
                "{:<18} {:>10} {:>9.3} {:>9.3} {:>12.0} {:>8.2} {:>9.1}° {:>7.1}°/{:<7.1}° {:>9.2}",
                r.name,
                r.tets,
                r.time,
                r.edt,
                r.rate,
                r.max_re,
                r.min_planar,
                r.dih.0,
                r.dih.1,
                r.hausdorff
            );
        }
        let pi2m = &rows[0];
        println!(
            "removal share of PI2M operations: {:.1}% ({} of {})",
            100.0 * pi2m.removals as f64 / pi2m.ops.max(1) as f64,
            pi2m.removals,
            pi2m.ops
        );
        println!(
            "PI2M rate vs CGAL-like: {:+.1}%   vs TetGen-like: {:+.1}%\n",
            100.0 * (pi2m.rate / rows[1].rate - 1.0),
            100.0 * (pi2m.rate / rows[2].rate - 1.0),
        );
    }
}
