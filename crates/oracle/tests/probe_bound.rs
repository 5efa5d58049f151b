//! `SurfaceProbe`'s distance bounds against the exact distance to ∂O.
//!
//! ∂O is the staircase of voxel faces between differently labeled voxels
//! (the image's own faces where foreground touches them), so the exact
//! distance from a point to it is a minimum over axis-aligned rectangles.
//! The rules trust the lower bound to skip work — the R1/R2 ball gate and
//! R3's segment cheap reject — so it must never exceed that distance.

use pi2m_geometry::Point3;
use pi2m_image::{phantoms, Label, LabeledImage, BACKGROUND};
use pi2m_oracle::IsosurfaceOracle;
use proptest::prelude::*;

/// Exact distance from `p` to the voxel-face staircase of `img`.
fn staircase_distance(img: &LabeledImage, p: Point3) -> f64 {
    let [nx, ny, nz] = img.dims().map(|n| n as isize);
    let (o, sp) = (img.origin().to_array(), img.spacing());
    let label = |v: [isize; 3]| -> Label {
        if (0..3).all(|a| (0..[nx, ny, nz][a]).contains(&v[a])) {
            img.get(v[0] as usize, v[1] as usize, v[2] as usize)
        } else {
            BACKGROUND
        }
    };
    let p = p.to_array();
    let mut best = f64::INFINITY;
    // each face once: between voxel v and its + neighbor along `axis`,
    // with v running one voxel outside the image on the low side
    for k in -1..nz {
        for j in -1..ny {
            for i in -1..nx {
                let v = [i, j, k];
                for axis in 0..3 {
                    let mut w = v;
                    w[axis] += 1;
                    if label(v) == label(w) || (0..3).any(|a| a != axis && v[a] < 0) {
                        continue;
                    }
                    // the face: w's low side along `axis`, w's extent across
                    let mut d2 = 0.0;
                    for a in 0..3 {
                        let lo = o[a] + w[a] as f64 * sp[a];
                        let d = if a == axis {
                            p[a] - lo
                        } else {
                            p[a] - p[a].clamp(lo, lo + sp[a])
                        };
                        d2 += d * d;
                    }
                    best = best.min(d2);
                }
            }
        }
    }
    best.sqrt()
}

fn check_bounds(oracle: &IsosurfaceOracle, p: Point3) -> Result<(), String> {
    let exact = staircase_distance(oracle.image(), p);
    let probe = oracle.probe(p);
    let (lo, hi) = (
        probe.surface_distance_lower_bound(),
        probe.surface_distance_upper_bound(),
    );
    if lo > exact + 1e-9 || exact > hi + 1e-9 {
        return Err(format!("{p:?}: bounds [{lo}, {hi}], exact {exact}"));
    }
    Ok(())
}

fn small_phantom(which: usize) -> LabeledImage {
    match which {
        0 => phantoms::sphere(10, 1.0),
        1 => phantoms::nested_spheres(12, 1.0),
        2 => phantoms::torus(12, 1.0),
        3 => phantoms::abdominal(0.3),
        4 => phantoms::head_neck(0.25),
        _ => phantoms::abdominal(0.4).crop([2, 3, 1], [20, 21, 9]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bounds_bracket_the_staircase_distance(
        which in 0usize..6,
        u in proptest::array::uniform3(-0.2f64..1.2),
    ) {
        let oracle = IsosurfaceOracle::new(small_phantom(which), 1);
        let b = oracle.image().bounds();
        let p = Point3::new(
            b.min.x + (b.max.x - b.min.x) * u[0],
            b.min.y + (b.max.y - b.min.y) * u[1],
            b.min.z + (b.max.z - b.min.z) * u[2],
        );
        let res = check_bounds(&oracle, p);
        prop_assert!(res.is_ok(), "phantom {}: {}", which, res.unwrap_err());
    }
}

/// Two lone voxels in unit-spaced background: `q` three voxels before the
/// voxel of `p` along −x, `s` two voxels diagonally beyond it. The center
/// `c` of `p`'s voxel is nearer to `q` (3) than to `s` (2√3), so the probe
/// reads `q`; but `p` sits in the corner of its voxel facing `s`, 1.75 from
/// `s`'s voxel. The parent's bound `|p − q| − half_diag` said 2.69 there,
/// and a 2.6-long segment from `p` that clips `s`'s voxel and ends in the
/// background again was rejected uncrossed.
#[test]
fn a_site_nearest_the_voxel_center_is_not_nearest_the_point() {
    let mut img = LabeledImage::new([10, 10, 10], [1.0; 3]);
    img.set(1, 4, 4, 1); // q
    img.set(6, 6, 6, 1); // s
    let oracle = IsosurfaceOracle::new(img, 1);
    let p = Point3::new(4.99, 4.99, 4.99);
    let exact = staircase_distance(oracle.image(), p);
    assert!((exact - 1.01 * 3f64.sqrt()).abs() < 1e-12, "{exact}");

    let q = oracle.feature_transform().nearest_site_world(p).unwrap();
    assert_eq!(q, Point3::new(1.5, 4.5, 4.5));
    let parent_bound = q.distance(p) - 0.5 * 3f64.sqrt();
    assert!(parent_bound > exact + 0.9, "{parent_bound} vs {exact}");
    check_bounds(&oracle, p).unwrap();

    // the segment the parent bound rejected
    let b = p + (Point3::new(7.0, 6.05, 6.05) - p).normalized().unwrap() * 2.6;
    assert_eq!(oracle.label_at(b), oracle.label_at(p));
    assert!(p.distance(b) < parent_bound);
    let hit = oracle
        .segment_surface_intersection(p, b)
        .expect("the segment clips s's voxel");
    assert_eq!(oracle.label_at(hit + (b - p) * 1e-6), 1);
}
