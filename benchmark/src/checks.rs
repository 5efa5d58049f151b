//! The correctness check every produced mesh goes through, which also
//! yields the three quality metrics.

use crate::layers;
use crate::report::RunResult;
use crate::span::Tracer;
use crate::spec;
use pi2m::image::{LabeledImage, BACKGROUND};
use pi2m::oracle::IsosurfaceOracle;
use pi2m::refine::FinalMesh;

pub struct Quality {
    pub max_radius_edge: f64,
    pub min_boundary_angle_deg: f64,
    pub hausdorff_mm: f64,
}

/// What a mesh is held to beyond labels, tissues and volume.
pub struct Limits {
    /// Hold the paper's two bounds (radius-edge ≤ 2, boundary angle ≥ 30°).
    /// They hold for every mesh a one-thread run ends with; at more threads
    /// the engine now and then stops with an element just outside (2.15 and
    /// 19.7° have been seen), so there the two are only reported.
    pub paper_bounds: bool,
    /// `hausdorff_mm` recorded at the seed commit; a mesh fails above
    /// `HAUSDORFF_SLACK` times this.
    pub hausdorff_ref_mm: f64,
}

/// Check `mesh` against the image it was made from: no background label,
/// the image's tissue set, volume within 5% of the image's foreground,
/// `limits`. Every violated condition becomes a problem line on `res`.
pub fn check_final_mesh(
    mesh: &FinalMesh,
    img: &LabeledImage,
    oracle: &IsosurfaceOracle,
    limits: &Limits,
    res: &mut RunResult,
    tr: Option<&mut Tracer>,
) -> Quality {
    if mesh.labels.contains(&BACKGROUND) {
        res.problem("a tetrahedron carries the background label");
    }
    let hist = img.label_histogram();
    let tissues: Vec<u8> = (1..=255u8).filter(|&l| hist[l as usize] > 0).collect();
    if mesh.tissues() != tissues {
        res.problem(format!(
            "mesh tissues {:?} differ from the image's {tissues:?}",
            mesh.tissues()
        ));
    }
    let (vol, want) = (mesh.volume(), img.foreground_volume());
    if (vol - want).abs() > spec::VOLUME_TOLERANCE * want {
        res.problem(format!(
            "mesh volume {vol} is not within 5% of the image's {want}"
        ));
    }
    let (max_radius_edge, min_boundary_angle_deg, hausdorff_mm) =
        layers::measure_quality(tr, res, mesh, oracle);
    if limits.paper_bounds {
        if max_radius_edge > spec::RADIUS_EDGE_LIMIT {
            res.problem(format!("max radius-edge {max_radius_edge} exceeds 2"));
        }
        if min_boundary_angle_deg < spec::BOUNDARY_ANGLE_LIMIT_DEG {
            res.problem(format!(
                "min boundary angle {min_boundary_angle_deg} is below 30 degrees"
            ));
        }
    }
    if hausdorff_mm > spec::HAUSDORFF_SLACK * limits.hausdorff_ref_mm {
        res.problem(format!(
            "hausdorff {hausdorff_mm} mm exceeds {} x the reference {} mm",
            spec::HAUSDORFF_SLACK,
            limits.hausdorff_ref_mm
        ));
    }
    Quality {
        max_radius_edge,
        min_boundary_angle_deg,
        hausdorff_mm,
    }
}
