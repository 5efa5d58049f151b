//! Ablation studies of PI2M's design choices (DESIGN.md's "Quality/fidelity
//! guarantees carried over" list):
//!
//! 1. **Removals (rule R6) on/off** — the paper argues removals enable richer
//!    refinement schemes and guarantee termination; this shows their effect
//!    on element count, quality, and operation count.
//! 2. **δ sweep — fidelity** — Theorem 1 predicts Hausdorff error shrinking
//!    with the sampling density; measured directly.
//! 3. **Energy** — paper §8: threads idling in contention/begging lists
//!    create an opportunity to throttle cores; the Elements/(second·Watt)
//!    figure of merit per contention manager, with and without idle
//!    throttling.
//!
//! Run: `cargo bench -p pi2m-bench --bench ablations`

use pi2m_bench::full_mode;
use pi2m_image::phantoms;
use pi2m_quality::{hausdorff_distance, mesh_quality};
use pi2m_refine::{CmKind, MesherConfig, MeshingSession};
use pi2m_sim::{SimConfig, SimMachine, SimMesher};

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

    // ---- 3. energy per CM (simulated Blacklight, §8) ----
    println!("\nAblation 3 — energy efficiency by contention manager (64 simulated cores)");
    println!(
        "{:<12} {:>10} {:>12} {:>14} {:>14} {:>10}",
        "CM", "vtime(s)", "energy (J)", "el/J (idle)", "el/J (throttl)", "gain"
    );
    for cm in [CmKind::Random, CmKind::Global, CmKind::Local] {
        let out = SimMesher::new(
            phantoms::abdominal(1.0),
            SimConfig {
                vthreads: 64,
                machine: SimMachine::blacklight(),
                delta: 1.0,
                cm,
                livelock_vtime: 2.0,
                ..Default::default()
            },
        )
        .run();
        let s = out.stats;
        if s.livelock {
            println!("{:<12} {:>10}", format!("{cm:?}"), "livelock");
            continue;
        }
        let epj = s.elements_per_joule();
        let epj_t = s.final_elements as f64 / s.energy_joules_throttled.max(1e-12);
        println!(
            "{:<12} {:>10.4} {:>12.2} {:>14.1} {:>14.1} {:>9.1}%",
            format!("{cm:?}"),
            s.vtime,
            s.energy_joules,
            epj,
            epj_t,
            100.0 * (epj_t / epj - 1.0)
        );
    }
}
