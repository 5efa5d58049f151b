//! Ablation studies of PI2M's design choices (DESIGN.md's "Quality/fidelity
//! guarantees carried over" list):
//!
//! 1. **Removals (rule R6) on/off** — the paper argues removals enable richer
//!    refinement schemes and guarantee termination; this shows their effect
//!    on element count, quality, and operation count.
//! 2. **δ sweep — fidelity** — Theorem 1 predicts Hausdorff error shrinking
//!    with the sampling density; measured directly.
//!
//! Run: `cargo bench -p pi2m-bench --bench ablations`

use pi2m_bench::full_mode;
use pi2m_image::phantoms;
use pi2m_quality::{hausdorff_distance, mesh_quality};
use pi2m_refine::{MesherConfig, MeshingSession};

fn main() {
    let n = if full_mode() { 28 } else { 20 };

    // ---- 1. removals on/off (real engine, single thread) ----
    println!("Ablation 1 — rule R6 removals");
    println!(
        "{:<14} {:>9} {:>9} {:>10} {:>10} {:>12}",
        "config", "#tets", "ops", "removals", "max R/e", "min dih (°)"
    );
    for (label, removals) in [("with R6", true), ("without R6", false)] {
        let out = MeshingSession::new(1)
            .mesh(
                phantoms::sphere(n, 1.0),
                MesherConfig {
                    delta: 1.2,
                    threads: 1,
                    enable_removals: removals,
                    max_operations: 2_000_000,
                    ..Default::default()
                },
            )
            .unwrap();
        let q = mesh_quality(&out.mesh);
        println!(
            "{:<14} {:>9} {:>9} {:>10} {:>10.3} {:>12.2}",
            label,
            out.mesh.num_tets(),
            out.stats.total_operations(),
            out.stats.total_removals(),
            q.max_radius_edge,
            q.min_dihedral_deg
        );
    }

    // ---- 2. δ sweep: fidelity (Theorem 1) ----
    println!("\nAblation 2 — sampling density δ vs fidelity (Theorem 1: error = O(δ²))");
    println!(
        "{:<8} {:>9} {:>12} {:>14}",
        "δ", "#tets", "Hausdorff", "Hausdorff/δ"
    );
    for delta in [4.0, 3.0, 2.0, 1.5, 1.0] {
        let out = MeshingSession::new(2)
            .mesh(
                phantoms::sphere(n, 1.0),
                MesherConfig {
                    delta,
                    threads: 2,
                    ..Default::default()
                },
            )
            .unwrap();
        let tris = out.mesh.boundary_triangles();
        let hd = hausdorff_distance(&out.mesh.points, &tris, &out.oracle, 7);
        println!(
            "{:<8} {:>9} {:>12.3} {:>14.3}",
            delta,
            out.mesh.num_tets(),
            hd,
            hd / delta
        );
    }
}
