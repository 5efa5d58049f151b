//! Synthetic multi-label atlas phantoms.
//!
//! The paper evaluates on three proprietary/clinical segmented images
//! (Table 3): an IRCAD abdominal CT atlas, the SPL knee MR atlas, and the SPL
//! head-neck CT atlas. Those files are not redistributable, so these
//! procedural phantoms substitute them (see DESIGN.md "Substitutions"): each
//! has the same *structural character* — multiple tissues, curved smooth
//! interfaces, nested and adjacent label regions, thin structures — which is
//! what exercises the isosurface recovery (rules R1–R3) and multi-tissue
//! meshing code paths.
//!
//! All phantoms take a `scale` factor; `scale = 1.0` produces laptop-sized
//! images (≈64³ voxel class), larger scales approach the paper's 512²-class
//! inputs.

use crate::labeled::LabeledImage;
use pi2m_geometry::Point3;

/// Metadata tying a phantom to the paper input it substitutes.
#[derive(Clone, Debug)]
pub struct PhantomSpec {
    /// Short identifier used by benches and examples.
    pub name: &'static str,
    /// The paper input this phantom stands in for.
    pub paper_analog: &'static str,
    /// Paper image dimensions (Table 3).
    pub paper_dims: [usize; 3],
    /// Paper voxel spacing in mm (Table 3).
    pub paper_spacing: [f64; 3],
    /// Number of tissues in the paper input (Table 3).
    pub paper_tissues: usize,
    /// Generated dimensions at the given scale.
    pub dims: [usize; 3],
    /// Generated spacing (mm).
    pub spacing: [f64; 3],
    /// Number of tissues generated.
    pub tissues: usize,
}

/// Normalized coordinates helper: maps voxel-center world coordinates into
/// `[-1, 1]³` for resolution-independent implicit shapes.
struct Norm {
    center: Point3,
    half: Point3,
}

impl Norm {
    fn new(dims: [usize; 3], spacing: [f64; 3]) -> Norm {
        let ext = Point3::new(
            dims[0] as f64 * spacing[0],
            dims[1] as f64 * spacing[1],
            dims[2] as f64 * spacing[2],
        );
        Norm {
            center: ext * 0.5,
            half: ext * 0.5,
        }
    }

    #[inline]
    fn at(&self, p: Point3) -> Point3 {
        let d = p - self.center;
        Point3::new(d.x / self.half.x, d.y / self.half.y, d.z / self.half.z)
    }
}

#[inline]
fn ellipsoid(q: Point3, c: Point3, r: Point3) -> f64 {
    let d = q - c;
    (d.x / r.x).powi(2) + (d.y / r.y).powi(2) + (d.z / r.z).powi(2) - 1.0
}

/// Implicit finite cylinder along z: negative inside.
#[inline]
fn zcylinder(q: Point3, c: Point3, radius: f64, half_len: f64) -> f64 {
    let dr = ((q.x - c.x).powi(2) + (q.y - c.y).powi(2)).sqrt() - radius;
    let dz = (q.z - c.z).abs() - half_len;
    dr.max(dz)
}

#[inline]
fn torus_z(q: Point3, c: Point3, major: f64, minor: f64) -> f64 {
    let d = q - c;
    let ring = (d.x * d.x + d.y * d.y).sqrt() - major;
    (ring * ring + d.z * d.z).sqrt() - minor
}

fn scaled_dims(base: [usize; 3], scale: f64) -> [usize; 3] {
    [
        ((base[0] as f64 * scale).round() as usize).max(8),
        ((base[1] as f64 * scale).round() as usize).max(8),
        ((base[2] as f64 * scale).round() as usize).max(8),
    ]
}

/// A single solid sphere (label 1) of radius 0.7 (normalized), the simplest
/// smoke-test input (used by the quickstart and Figure 1 reproduction).
pub fn sphere(n: usize, spacing: f64) -> LabeledImage {
    let dims = [n, n, n];
    let sp = [spacing; 3];
    let norm = Norm::new(dims, sp);
    LabeledImage::from_fn(dims, sp, |p| {
        let q = norm.at(p);
        if q.norm() < 0.7 {
            1
        } else {
            0
        }
    })
}

/// Two nested spheres: core (label 2) inside a shell (label 1). Exercises
/// interior multi-material interfaces.
pub fn nested_spheres(n: usize, spacing: f64) -> LabeledImage {
    let dims = [n, n, n];
    let sp = [spacing; 3];
    let norm = Norm::new(dims, sp);
    LabeledImage::from_fn(dims, sp, |p| {
        let r = norm.at(p).norm();
        if r < 0.35 {
            2
        } else if r < 0.7 {
            1
        } else {
            0
        }
    })
}

/// A solid torus (label 1): genus-1 topology test for isosurface recovery.
pub fn torus(n: usize, spacing: f64) -> LabeledImage {
    let dims = [n, n, n];
    let sp = [spacing; 3];
    let norm = Norm::new(dims, sp);
    LabeledImage::from_fn(dims, sp, |p| {
        let q = norm.at(p);
        if torus_z(q, Point3::ORIGIN, 0.55, 0.22) < 0.0 {
            1
        } else {
            0
        }
    })
}

/// Abdominal phantom — stands in for the IRCAD CT abdominal atlas
/// (512×512×219 @ 0.96×0.96×2.4 mm, 23 tissues).
///
/// Structure: a body trunk (label 1) containing a liver-like two-lobe blob
/// (2), two kidneys (3), a spine column (4), an aorta tube (5), and a
/// stomach pouch (6).
pub fn abdominal(scale: f64) -> LabeledImage {
    let dims = scaled_dims([64, 64, 28], scale);
    let sp = [0.96, 0.96, 2.4];
    let norm = Norm::new(dims, sp);
    LabeledImage::from_fn(dims, sp, |p| {
        let q = norm.at(p);
        // trunk: rounded-square cross-section, full z extent
        let trunk = {
            let s = 4.0;
            let cross = (q.x.abs().powf(s) + q.y.abs().powf(s)).powf(1.0 / s) - 0.82;
            cross.max(q.z.abs() - 0.92)
        };
        if trunk >= 0.0 {
            return 0;
        }
        // organs, checked innermost-first
        let liver = ellipsoid(
            q,
            Point3::new(-0.32, -0.10, 0.15),
            Point3::new(0.34, 0.28, 0.38),
        )
        .min(ellipsoid(
            q,
            Point3::new(-0.05, -0.22, 0.25),
            Point3::new(0.22, 0.18, 0.25),
        ));
        let kid_l = ellipsoid(
            q,
            Point3::new(-0.34, 0.34, -0.28),
            Point3::new(0.14, 0.11, 0.22),
        );
        let kid_r = ellipsoid(
            q,
            Point3::new(0.34, 0.34, -0.28),
            Point3::new(0.14, 0.11, 0.22),
        );
        let spine = zcylinder(q, Point3::new(0.0, 0.55, 0.0), 0.12, 0.90);
        let aorta = zcylinder(q, Point3::new(0.08, 0.30, 0.0), 0.055, 0.90);
        let stomach = ellipsoid(
            q,
            Point3::new(0.28, -0.20, 0.30),
            Point3::new(0.24, 0.20, 0.22),
        );

        if liver < 0.0 {
            2
        } else if kid_l < 0.0 || kid_r < 0.0 {
            3
        } else if spine < 0.0 {
            4
        } else if aorta < 0.0 {
            5
        } else if stomach < 0.0 {
            6
        } else {
            1
        }
    })
}

/// Knee phantom — stands in for the SPL MR knee atlas
/// (512×512×119 @ 0.27×0.27×1.4 mm, 49 tissues).
///
/// Structure: soft-tissue envelope (1), femur (2) and tibia (3) long bones
/// meeting at the joint, femoral (4) and tibial (5) cartilage layers in the
/// joint gap, and a patella (6).
pub fn knee(scale: f64) -> LabeledImage {
    let dims = scaled_dims([56, 56, 48], scale);
    let sp = [0.27 * 4.0, 0.27 * 4.0, 1.4]; // coarsened in-plane to keep aspect sane
    let norm = Norm::new(dims, sp);
    LabeledImage::from_fn(dims, sp, |p| {
        let q = norm.at(p);
        let soft = ellipsoid(q, Point3::ORIGIN, Point3::new(0.80, 0.80, 0.95));
        if soft >= 0.0 {
            return 0;
        }
        // femur above joint (z > 0.08), flaring into condyles near z=0.15
        let flare = |z: f64| 0.20 + 0.16 * (1.0 - ((z - 0.18) / 0.35).clamp(0.0, 1.0));
        let femur = if q.z > 0.08 {
            let r = ((q.x).powi(2) + (q.y + 0.05).powi(2)).sqrt() - flare(q.z);
            r.max(q.z - 0.90)
        } else {
            1.0
        };
        let tibia = if q.z < -0.10 {
            let r = ((q.x).powi(2) + (q.y + 0.02).powi(2)).sqrt()
                - (0.19 + 0.10 * ((-q.z - 0.10) / 0.30).min(1.0));
            r.max(-q.z - 0.90)
        } else {
            1.0
        };
        // cartilage: thin shells capping the bones across the joint space
        let fem_cart = ellipsoid(
            q,
            Point3::new(0.0, -0.03, 0.08),
            Point3::new(0.33, 0.30, 0.09),
        );
        let tib_cart = ellipsoid(
            q,
            Point3::new(0.0, 0.00, -0.10),
            Point3::new(0.31, 0.28, 0.08),
        );
        let patella = ellipsoid(
            q,
            Point3::new(0.0, -0.52, 0.12),
            Point3::new(0.14, 0.10, 0.18),
        );

        if femur < 0.0 {
            2
        } else if tibia < 0.0 {
            3
        } else if fem_cart < 0.0 {
            4
        } else if tib_cart < 0.0 {
            5
        } else if patella < 0.0 {
            6
        } else {
            1
        }
    })
}

/// Head-neck phantom — stands in for the SPL CT head-neck atlas
/// (255×255×229 @ 0.97×0.97×1.4 mm, 60 tissues).
///
/// Structure: skin/soft tissue (1), skull shell (2), brain (3), cervical
/// spine column (4), airway (a background tunnel through the neck), and
/// mandible-like bar (5).
pub fn head_neck(scale: f64) -> LabeledImage {
    let dims = scaled_dims([52, 52, 46], scale);
    let sp = [0.97, 0.97, 1.4];
    let norm = Norm::new(dims, sp);
    LabeledImage::from_fn(dims, sp, |p| {
        let q = norm.at(p);
        // head (upper ellipsoid) + neck (lower cylinder)
        let head = ellipsoid(
            q,
            Point3::new(0.0, 0.0, 0.35),
            Point3::new(0.62, 0.70, 0.55),
        );
        let neck = zcylinder(q, Point3::new(0.0, 0.10, -0.55), 0.33, 0.42);
        let body = head.min(neck);
        if body >= 0.0 {
            return 0;
        }
        // airway: tunnel up the neck into the head — carved out of everything
        let airway = zcylinder(q, Point3::new(0.0, -0.12, -0.40), 0.07, 0.55);
        if airway < 0.0 {
            return 0;
        }
        let brain = ellipsoid(
            q,
            Point3::new(0.0, 0.02, 0.42),
            Point3::new(0.42, 0.50, 0.35),
        );
        let skull = ellipsoid(
            q,
            Point3::new(0.0, 0.02, 0.42),
            Point3::new(0.50, 0.58, 0.43),
        );
        let spine = zcylinder(q, Point3::new(0.0, 0.22, -0.45), 0.09, 0.55);
        let jaw = ellipsoid(
            q,
            Point3::new(0.0, -0.42, -0.02),
            Point3::new(0.30, 0.16, 0.10),
        );

        if brain < 0.0 {
            3
        } else if skull < 0.0 {
            2
        } else if spine < 0.0 {
            4
        } else if jaw < 0.0 {
            5
        } else {
            1
        }
    })
}

/// Specs tying each phantom to its paper analog (reproduces Table 3's rows).
pub fn specs(scale: f64) -> Vec<PhantomSpec> {
    let mk = |name, paper_analog, paper_dims, paper_spacing, paper_tissues, img: &LabeledImage| {
        PhantomSpec {
            name,
            paper_analog,
            paper_dims,
            paper_spacing,
            paper_tissues,
            dims: img.dims(),
            spacing: img.spacing(),
            tissues: img.num_tissues(),
        }
    };
    let abd = abdominal(scale);
    let kn = knee(scale);
    let hn = head_neck(scale);
    vec![
        mk(
            "abdominal",
            "IRCAD CT abdominal atlas",
            [512, 512, 219],
            [0.96, 0.96, 2.4],
            23,
            &abd,
        ),
        mk(
            "knee",
            "SPL MR knee atlas",
            [512, 512, 119],
            [0.27, 0.27, 1.4],
            49,
            &kn,
        ),
        mk(
            "head-neck",
            "SPL CT head-neck atlas",
            [255, 255, 229],
            [0.97, 0.97, 1.4],
            60,
            &hn,
        ),
    ]
}

/// Look a phantom up by name (as used in benches/examples CLI). The 32-voxel
/// phantoms are clamped to at least 8 voxels a side, as `scaled_dims` does
/// for the other three.
pub fn by_name(name: &str, scale: f64) -> Option<LabeledImage> {
    let n = ((32.0 * scale) as usize).max(8);
    match name {
        "sphere" => Some(sphere(n, 1.0)),
        "nested" => Some(nested_spheres(n, 1.0)),
        "torus" => Some(torus(n, 1.0)),
        "abdominal" => Some(abdominal(scale)),
        "knee" => Some(knee(scale)),
        "head-neck" | "head_neck" => Some(head_neck(scale)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeled::BACKGROUND;

    #[test]
    fn sphere_has_foreground_and_background() {
        let img = sphere(24, 1.0);
        let h = img.label_histogram();
        assert!(h[0] > 0 && h[1] > 0);
        // center voxel inside, corner outside
        assert_eq!(img.get(12, 12, 12), 1);
        assert_eq!(img.get(0, 0, 0), BACKGROUND);
        // volume should be near (4/3)π(0.7·12)³ (normalized radius 0.7)
        let expect = 4.0 / 3.0 * std::f64::consts::PI * (0.7f64 * 12.0).powi(3);
        let got = h[1] as f64;
        assert!((got - expect).abs() / expect < 0.05, "{got} vs {expect}");
    }

    #[test]
    fn nested_spheres_have_two_tissues() {
        let img = nested_spheres(24, 1.0);
        assert_eq!(img.num_tissues(), 2);
        assert_eq!(img.get(12, 12, 12), 2);
    }

    #[test]
    fn torus_has_hole() {
        let img = torus(32, 1.0);
        assert_eq!(img.get(16, 16, 16), BACKGROUND); // center of the hole
        assert!(img.num_tissues() == 1);
        assert!(img.label_histogram()[1] > 100);
    }

    #[test]
    fn abdominal_tissue_inventory() {
        let img = abdominal(1.0);
        let h = img.label_histogram();
        // all six tissues present, trunk is the largest
        for (l, &c) in h.iter().enumerate().take(7).skip(1) {
            assert!(c > 0, "tissue {l} missing ({c})");
        }
        assert!(h[1] > h[2] && h[2] > h[3]);
        assert_eq!(img.num_tissues(), 6);
    }

    #[test]
    fn knee_tissue_inventory() {
        let img = knee(1.0);
        let h = img.label_histogram();
        for (l, &c) in h.iter().enumerate().take(7).skip(1) {
            assert!(c > 0, "tissue {l} missing");
        }
    }

    #[test]
    fn head_neck_tissue_inventory_and_airway() {
        let img = head_neck(1.0);
        let h = img.label_histogram();
        for (l, &c) in h.iter().enumerate().take(6).skip(1) {
            assert!(c > 0, "tissue {l} missing");
        }
        // the airway must carve background through the neck region interior
        let dims = img.dims();
        let (ci, cj) = (dims[0] / 2, (dims[1] as f64 * 0.44) as usize);
        let mut bg_in_column = 0;
        for k in 0..dims[2] / 3 {
            if img.get(ci, cj, k) == BACKGROUND {
                bg_in_column += 1;
            }
        }
        assert!(bg_in_column > 0, "airway not carved");
    }

    #[test]
    fn specs_match_generated_images() {
        let s = specs(1.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].paper_dims, [512, 512, 219]);
        assert!(s.iter().all(|p| p.tissues >= 5));
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("sphere", 1.0).is_some());
        assert!(by_name("abdominal", 0.5).is_some());
        assert!(by_name("nonexistent", 1.0).is_none());
    }

    #[test]
    fn by_name_clamps_tiny_scales() {
        for name in [
            "sphere",
            "nested",
            "torus",
            "abdominal",
            "knee",
            "head-neck",
        ] {
            for scale in [1e-9, 0.0, f64::NAN] {
                let img = by_name(name, scale).unwrap();
                assert!(img.dims().iter().all(|&d| d >= 8), "{name} {scale}");
            }
        }
    }

    #[test]
    fn scaling_changes_dims() {
        let small = abdominal(0.5);
        let big = abdominal(1.0);
        assert!(small.dims()[0] < big.dims()[0]);
    }
}
