//! The exact voxel traversal against the ray march it replaced.
//!
//! The march (sample the label every `step`, bisect the first interval whose
//! ends differ) survives here as a test-only reference. At a quarter-voxel
//! step it is what the oracle used to do; at 1/64 voxel it is a slow, nearly
//! exhaustive crossing finder that the traversal must never fall behind.

use pi2m_geometry::Point3;
use pi2m_image::{phantoms, Label, LabeledImage};
use pi2m_oracle::IsosurfaceOracle;
use proptest::prelude::*;
use proptest::prop_assume;

/// `segment_surface_intersection` as it was: the oracle's cheap reject, then
/// a march at `step` with 24 bisections of the first interval whose ends
/// carry different labels. Returns the crossing's ray parameter.
fn reference(oracle: &IsosurfaceOracle, a: Point3, b: Point3, step: f64) -> Option<f64> {
    let la = oracle.label_at(a);
    let len = (b - a).norm();
    if len <= 1e-12 {
        return None;
    }
    if la == oracle.label_at(b) && oracle.probe(a).surface_distance_lower_bound() > len {
        return None;
    }
    let dir = (b - a) / len;
    let (mut t_prev, mut t) = (0.0, step.min(len));
    loop {
        if oracle.label_at(a + dir * t) != la {
            let (mut lo, mut hi) = (t_prev, t);
            for _ in 0..24 {
                let mid = 0.5 * (lo + hi);
                if oracle.label_at(a + dir * mid) == la {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            return Some(0.5 * (lo + hi));
        }
        if t >= len {
            return None;
        }
        t_prev = t;
        t = (t + step).min(len);
    }
}

fn fine(oracle: &IsosurfaceOracle, a: Point3, b: Point3) -> Option<f64> {
    reference(oracle, a, b, oracle.image().min_spacing() / 64.0)
}

/// What the oracle did before the traversal: a quarter-voxel march.
fn quarter_voxel(oracle: &IsosurfaceOracle, a: Point3, b: Point3) -> Option<f64> {
    reference(oracle, a, b, oracle.image().min_spacing() * 0.25)
}

/// Hold the traversal's answer for `a → b` to the fine reference's:
/// * a crossing the reference finds, the traversal finds no later;
/// * where it is the same crossing the two points agree to 1e-6;
/// * whatever the traversal returns separates `label_at(a)` from another
///   label along the ray.
fn check_segment(oracle: &IsosurfaceOracle, a: Point3, b: Point3) {
    let len = (b - a).norm();
    if len <= 1e-9 {
        return;
    }
    let dir = (b - a) / len;
    let la = oracle.label_at(a);
    let hit = oracle.segment_surface_intersection(a, b);
    let t_ref = fine(oracle, a, b);
    if let Some(t_ref) = t_ref {
        assert!(
            hit.is_some(),
            "{a:?} -> {b:?}: reference crosses at {t_ref}, traversal found nothing"
        );
    }
    let Some(hit) = hit else {
        return;
    };
    let t = (hit - a).dot(dir);
    assert!((-1e-9..=len + 1e-9).contains(&t), "hit at {t} of {len}");
    assert!((a + dir * t).distance(hit) < 1e-9, "hit off the ray");
    // A chord shorter than this through a voxel is beyond what `label_at`
    // can confirm from outside; random rays do not produce one.
    let eps = 1e-7;
    if t > eps {
        assert_eq!(
            oracle.label_at(hit - dir * eps),
            la,
            "{:?} -> {:?}: label already changed before the hit at {}",
            a,
            b,
            t
        );
    }
    assert_ne!(
        oracle.label_at(hit + dir * eps),
        la,
        "{:?} -> {:?}: no label change across the hit at {}",
        a,
        b,
        t
    );
    if let Some(t_ref) = t_ref {
        assert!(
            t <= t_ref + 1e-6,
            "{a:?} -> {b:?}: traversal at {t}, reference earlier at {t_ref}"
        );
        // The reference bisects the first *sampled* change; a crossing more
        // than a step before it is one the samples stepped over.
        let step = oracle.image().min_spacing() / 64.0;
        if t > t_ref - step {
            let same = (t - t_ref).abs() <= 1e-6;
            // ... unless two changes share that last step: then the
            // bisection may have settled on the later one.
            assert!(
                same || oracle.label_at(a + dir * (t_ref - 1e-6)) != la,
                "{a:?} -> {b:?}: same crossing at {t} vs {t_ref}"
            );
        }
    }
}

/// A blobby three-label image: a union of random balls, every other one of
/// a second tissue, so segments meet outer and internal interfaces.
fn blobs(seed: u64, dims: [usize; 3], spacing: [f64; 3]) -> LabeledImage {
    let mut s = seed.max(1);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let ext = [0, 1, 2].map(|a| dims[a] as f64 * spacing[a]);
    let min_ext = ext[0].min(ext[1]).min(ext[2]);
    let balls: Vec<(Point3, f64, Label)> = (0..5)
        .map(|i| {
            let c = Point3::new(
                ext[0] * (0.15 + 0.7 * next()),
                ext[1] * (0.15 + 0.7 * next()),
                ext[2] * (0.15 + 0.7 * next()),
            );
            (c, min_ext * (0.1 + 0.2 * next()), 1 + (i % 2) as Label)
        })
        .collect();
    LabeledImage::from_fn(dims, spacing, |p| {
        balls
            .iter()
            .rev()
            .find(|&&(c, r, _)| p.distance(c) < r)
            .map_or(0, |&(_, _, l)| l)
    })
}

/// A point of `img`'s bounding box stretched by `margin` of its extent on
/// every side, from three unit coordinates.
fn point_in(img: &LabeledImage, u: [f64; 3], margin: f64) -> Point3 {
    let b = img.bounds();
    let at = |lo: f64, hi: f64, u: f64| lo + (hi - lo) * ((1.0 + 2.0 * margin) * u - margin);
    Point3::new(
        at(b.min.x, b.max.x, u[0]),
        at(b.min.y, b.max.y, u[1]),
        at(b.min.z, b.max.z, u[2]),
    )
}

fn unit3() -> impl Strategy<Value = [f64; 3]> {
    proptest::array::uniform3(0.0f64..1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn traversal_keeps_up_with_the_fine_march(seed in 1u64..10_000, ua in unit3(), ub in unit3()) {
        let oracle = IsosurfaceOracle::new(blobs(seed, [14, 14, 14], [1.0; 3]), 1);
        let (a, b) = (point_in(oracle.image(), ua, 0.0), point_in(oracle.image(), ub, 0.0));
        check_segment(&oracle, a, b);
        check_segment(&oracle, b, a);
    }

    #[test]
    fn rays_that_start_or_end_outside_the_image(ua in unit3(), ub in unit3()) {
        // foreground reaching the image border, so leaving the image is a
        // crossing too
        let img = LabeledImage::from_fn([10, 10, 10], [1.0; 3], |p| {
            if p.x > 6.0 { 2 } else if p.distance(Point3::new(4.0, 5.0, 5.0)) < 3.0 { 1 } else { 0 }
        });
        let oracle = IsosurfaceOracle::new(img, 1);
        let (a, b) = (point_in(oracle.image(), ua, 0.4), point_in(oracle.image(), ub, 0.4));
        check_segment(&oracle, a, b);
        check_segment(&oracle, b, a);
    }

    #[test]
    fn anisotropic_spacing(seed in 1u64..10_000, ua in unit3(), ub in unit3()) {
        let oracle = IsosurfaceOracle::new(blobs(seed, [16, 16, 8], [0.96, 0.96, 2.4]), 1);
        let (a, b) = (point_in(oracle.image(), ua, 0.1), point_in(oracle.image(), ub, 0.1));
        check_segment(&oracle, a, b);
        check_segment(&oracle, b, a);
    }

    #[test]
    fn cropped_image_with_an_origin(seed in 1u64..10_000, ua in unit3(), ub in unit3()) {
        let whole = blobs(seed, [18, 16, 14], [0.96, 0.96, 2.4]);
        let crop = whole.crop([3, 2, 1], [17, 15, 12]);
        prop_assert!(crop.origin().x > 0.0 && crop.origin().z > 0.0);
        let oracle = IsosurfaceOracle::new(crop, 1);
        let (a, b) = (point_in(oracle.image(), ua, 0.1), point_in(oracle.image(), ub, 0.1));
        check_segment(&oracle, a, b);
        // where the crop has a voxel it is the parent's: same label field
        if oracle.image().world_to_voxel(a).is_some() {
            prop_assert_eq!(oracle.label_at(a), whole.label_at(a));
        }
    }

    #[test]
    fn axis_parallel_rays(seed in 1u64..10_000, ua in unit3(), along in 0usize..3, reach in -12.0f64..12.0, snap in 0usize..3) {
        let oracle = IsosurfaceOracle::new(blobs(seed, [12, 12, 12], [1.0; 3]), 1);
        let mut a = point_in(oracle.image(), ua, 0.1).to_array();
        // some of these rays run *in* a voxel face plane, or start on one
        if snap > 0 {
            a[(along + 1) % 3] = a[(along + 1) % 3].round();
        }
        if snap > 1 {
            a[along] = a[along].round();
        }
        let mut b = a;
        b[along] += reach;
        let (a, b) = (Point3::from_array(a), Point3::from_array(b));
        check_segment(&oracle, a, b);
        check_segment(&oracle, b, a);
    }

    /// With equal end labels a crossing exists one way iff it exists the
    /// other way: both directions pass through the same voxels.
    #[test]
    fn crossing_existence_is_symmetric(seed in 1u64..10_000, ua in unit3(), d in unit3()) {
        let oracle = IsosurfaceOracle::new(blobs(seed, [14, 14, 14], [1.0; 3]), 1);
        let a = point_in(oracle.image(), ua, 0.0);
        // a Voronoi-edge-sized segment
        let b = a + Point3::new(d[0] - 0.5, d[1] - 0.5, d[2] - 0.5) * 5.0;
        prop_assume!(oracle.label_at(a) == oracle.label_at(b));
        // Skip pairs on which the cheap reject (a bound at the start point
        // only) can answer differently from the two ends.
        let len = a.distance(b);
        let rejects = |p: Point3| oracle.probe(p).surface_distance_lower_bound() > len;
        prop_assume!(rejects(a) == rejects(b));
        prop_assert_eq!(
            oracle.segment_surface_intersection(a, b).is_some(),
            oracle.segment_surface_intersection(b, a).is_some(),
            "{:?} <-> {:?}", a, b
        );
    }
}

/// Unit voxels; `(i, j, k)` names the voxel `[i, i+1) × [j, j+1) × [k, k+1)`.
fn voxels(dims: [usize; 3], labels: &[([usize; 3], Label)]) -> IsosurfaceOracle {
    let mut img = LabeledImage::new(dims, [1.0; 3]);
    for &([i, j, k], l) in labels {
        img.set(i, j, k, l);
    }
    IsosurfaceOracle::new(img, 1)
}

#[test]
fn a_ray_through_a_voxel_edge_does_not_visit_the_voxels_it_only_touches() {
    // Diagonal in the xy-plane from the center of (2,2,2): it leaves through
    // the edge x = y = 3 straight into (3,3,2), touching (3,2,2) and (2,3,2)
    // in that one line only.
    let o = voxels(
        [8, 8, 8],
        &[
            ([2, 2, 2], 1),
            ([3, 3, 2], 1),
            ([3, 2, 2], 2),
            ([2, 3, 2], 2),
            ([4, 4, 2], 3),
        ],
    );
    let a = Point3::new(2.5, 2.5, 2.5);
    let hit = o
        .segment_surface_intersection(a, Point3::new(5.5, 5.5, 2.5))
        .expect("label 3 lies on the ray");
    assert!(hit.distance(Point3::new(4.0, 4.0, 2.5)) < 1e-12, "{hit:?}");
    // and so says the fine march
    let t_ref = fine(&o, a, Point3::new(5.5, 5.5, 2.5)).unwrap();
    assert!((t_ref - 1.5 * 2f64.sqrt()).abs() < 1e-6);
    // stopping short of (4,4,2) there is nothing to cross
    assert!(o
        .segment_surface_intersection(a, Point3::new(3.9, 3.9, 2.5))
        .is_none());
    // the same ray nudged off the edge does clip (3,2,2)
    let hit = o
        .segment_surface_intersection(Point3::new(2.5, 2.4, 2.5), Point3::new(5.5, 5.4, 2.5))
        .unwrap();
    assert!(hit.distance(Point3::new(3.0, 2.9, 2.5)) < 1e-12, "{hit:?}");
}

#[test]
fn a_ray_through_a_voxel_corner_steps_all_three_axes_at_once() {
    // Space diagonal from the center of (1,1,1) through the corner (2,2,2)
    // into (2,2,2); the six voxels around that corner it never enters are
    // all of another label.
    let mut labels = vec![([1, 1, 1], 1), ([2, 2, 2], 1), ([3, 3, 3], 4)];
    for i in 1..=2 {
        for j in 1..=2 {
            for k in 1..=2 {
                if ![(1, 1, 1), (2, 2, 2)].contains(&(i, j, k)) {
                    labels.push(([i, j, k], 2));
                }
            }
        }
    }
    let o = voxels([6, 6, 6], &labels);
    let a = Point3::new(1.5, 1.5, 1.5);
    let hit = o
        .segment_surface_intersection(a, Point3::new(3.5, 3.5, 3.5))
        .unwrap();
    assert!(hit.distance(Point3::new(3.0, 3.0, 3.0)) < 1e-12, "{hit:?}");
    // backwards: out of (2,2,2) through the same corner into (1,1,1), then
    // on into the background of (0,0,0)
    let hit = o
        .segment_surface_intersection(Point3::new(2.5, 2.5, 2.5), Point3::new(0.5, 0.5, 0.5))
        .unwrap();
    assert!(hit.distance(Point3::new(1.0, 1.0, 1.0)) < 1e-12, "{hit:?}");
}

#[test]
fn leaving_the_image_crosses_only_for_foreground() {
    let o = voxels([4, 4, 4], &[([3, 1, 1], 1), ([2, 1, 1], 1)]);
    // foreground voxel on the +x border: the image boundary is its interface
    let hit = o
        .segment_surface_intersection(Point3::new(3.5, 1.5, 1.5), Point3::new(9.0, 1.5, 1.5))
        .unwrap();
    assert!(hit.distance(Point3::new(4.0, 1.5, 1.5)) < 1e-12, "{hit:?}");
    // background leaving the image, or never reaching it, crosses nothing
    let (a, b) = (Point3::new(0.5, 3.5, 0.5), Point3::new(-7.0, 9.0, 0.5));
    assert!(o.segment_surface_intersection(a, b).is_none());
    let (a, b) = (Point3::new(-3.0, -2.0, 1.5), Point3::new(-1.0, 9.0, 1.5));
    assert!(o.segment_surface_intersection(a, b).is_none());
    // from outside, the entry face is not a crossing, the tissue behind it is
    let hit = o
        .segment_surface_intersection(Point3::new(-3.0, 1.5, 1.5), Point3::new(3.5, 1.5, 1.5))
        .unwrap();
    assert!(hit.distance(Point3::new(2.0, 1.5, 1.5)) < 1e-12, "{hit:?}");
    // ... unless the tissue sits right on that face
    let hit = o
        .segment_surface_intersection(Point3::new(7.0, 1.5, 1.5), Point3::new(3.5, 1.5, 1.5))
        .unwrap();
    assert!(hit.distance(Point3::new(4.0, 1.5, 1.5)) < 1e-12, "{hit:?}");
}

/// A Voronoi-edge-sized segment of `abdominal(1.5)` whose two ends lie in
/// the same tissue and which clips a corner of another on the way. Marched
/// at a quarter voxel, the crossing was found from one end and stepped over
/// from the other, so whether rule R3 saw the facet depended on which of its
/// two cells asked; the traversal sees it from both. (Found by drawing random
/// two-voxel segments with equal end labels until the two marches differed.)
#[test]
fn corner_clip_that_the_quarter_voxel_march_saw_from_one_end_only() {
    let oracle = IsosurfaceOracle::new(phantoms::abdominal(1.5), 1);
    let a = Point3::new(REGRESSION[0][0], REGRESSION[0][1], REGRESSION[0][2]);
    let b = Point3::new(REGRESSION[1][0], REGRESSION[1][1], REGRESSION[1][2]);
    assert_eq!(oracle.label_at(a), oracle.label_at(b));
    assert_ne!(
        quarter_voxel(&oracle, a, b).is_some(),
        quarter_voxel(&oracle, b, a).is_some(),
        "the march disagreed with itself on this segment"
    );
    let ab = oracle.segment_surface_intersection(a, b);
    let ba = oracle.segment_surface_intersection(b, a);
    assert!(ab.is_some() && ba.is_some(), "{ab:?} / {ba:?}");
    check_segment(&oracle, a, b);
    check_segment(&oracle, b, a);
}

const REGRESSION: [[f64; 3]; 2] = [
    [9.31880979596575, 22.94402573745888, 84.50390269333836],
    [9.953196284607277, 21.31554112962924, 84.6392231972221],
];
