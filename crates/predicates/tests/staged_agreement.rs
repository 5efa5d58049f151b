//! Adversarial agreement suite for the staged predicate pipeline.
//!
//! Over 100k seeded cases drawn from the distributions most likely to break
//! a filtered predicate — coplanar/cospherical lattice configurations, 1-ulp
//! perturbations of degenerate inputs, and large-coordinate translates — the
//! staged pipeline must agree with the exact predicates on every single
//! case. Agreement on degenerate inputs is exactly the "semi-static never
//! misclassifies, it only defers" guarantee: a misclassification would
//! surface here as a nonzero certified sign on a true zero (or a wrong
//! sign), while a defer lands in the dynamic-filter or exact stage and stays
//! correct by construction.
//!
//! Each family asserts, alongside per-case agreement, that its stage
//! counters tally to the number of calls (every call lands in exactly one
//! stage) and that the stages expected to fire did fire.

// The generators build points coordinate-by-coordinate from affine algebra
// over `k = 0..3`; spelling that as iterators obscures the math.
#![allow(clippy::needless_range_loop)]

use pi2m_predicates::{
    insphere_exact, insphere_sos_batch, insphere_sos_staged, insphere_staged,
    orient3d_batch_gather, orient3d_exact, orient3d_sign_staged, orient3d_staged, BatchStats,
    FilterStats, SemiStaticBounds, BATCH_LANES,
};

const N_COPLANAR_ORIENT: usize = 30_000;
const N_ULP_ORIENT: usize = 20_000;
const N_TRANSLATED_ORIENT: usize = 10_000;
const N_COSPHERICAL_INSPHERE: usize = 25_000;
const N_ULP_INSPHERE: usize = 15_000;
const N_TRANSLATED_INSPHERE: usize = 10_000;
const N_SOS: usize = 5_000;
/// Batched-filter waves (each [`BATCH_LANES`] wide) per batched family.
const N_BATCH_ORIENT_WAVES: usize = 2_500;
const N_BATCH_INSPHERE_WAVES: usize = 2_500;

#[test]
fn suite_covers_at_least_100k_cases() {
    let total = N_COPLANAR_ORIENT
        + N_ULP_ORIENT
        + N_TRANSLATED_ORIENT
        + N_COSPHERICAL_INSPHERE
        + N_ULP_INSPHERE
        + N_TRANSLATED_INSPHERE
        + N_SOS;
    assert!(total >= 100_000, "suite shrank below 100k cases: {total}");
    // the batched families re-run the same adversarial distributions through
    // the wide-lane filters: per predicate, a degenerate and a
    // ulp/translated distribution, each N waves of BATCH_LANES lanes
    let batched = (N_BATCH_ORIENT_WAVES + N_BATCH_INSPHERE_WAVES) * 2 * BATCH_LANES;
    assert!(batched >= 40_000, "batched coverage shrank: {batched}");
}

/// Deterministic xorshift stream (the suite must be reproducible; a seed is
/// printed on failure by the per-family asserts).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.below((hi - lo + 1) as u64) as i64)
    }

    fn f01(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Semi-static bounds from the exact bounding box of a batch of points —
/// precisely what the kernel precomputes from its mesh box.
fn bounds_for(pts: &[[f64; 3]]) -> SemiStaticBounds {
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for p in pts {
        for a in 0..3 {
            lo[a] = lo[a].min(p[a]);
            hi[a] = hi[a].max(p[a]);
        }
    }
    SemiStaticBounds::for_box(&lo, &hi)
}

fn sign_of(d: f64) -> i8 {
    if d > 0.0 {
        1
    } else if d < 0.0 {
        -1
    } else {
        0
    }
}

/// The exact orient3d sign: the reference every staged orient3d answer is
/// held against.
fn orient_ref(pa: &[f64; 3], pb: &[f64; 3], pc: &[f64; 3], pd: &[f64; 3]) -> i8 {
    sign_of(orient3d_exact(pa, pb, pc, pd))
}

/// The exact insphere sign.
fn insphere_ref(p: [&[f64; 3]; 5]) -> i8 {
    sign_of(insphere_exact(p[0], p[1], p[2], p[3], p[4]))
}

/// Symbolically perturbed insphere built from the exact predicates alone:
/// the exact insphere sign, and on a tie the first nonzero cofactor taken in
/// decreasing key order, where point `i`'s cofactor is `(-1)^i` times the
/// exact orient3d of the other four points in order.
fn sos_ref(p: [&[f64; 3]; 5], keys: [u64; 5]) -> i8 {
    let s = insphere_ref(p);
    if s != 0 {
        return s;
    }
    let mut order = [0usize, 1, 2, 3, 4];
    order.sort_by(|&i, &j| keys[j].cmp(&keys[i]));
    for i in order {
        let rest: Vec<&[f64; 3]> = (0..5).filter(|&j| j != i).map(|j| p[j]).collect();
        let s = orient_ref(rest[0], rest[1], rest[2], rest[3]);
        if s != 0 {
            return if i % 2 == 0 { s } else { -s };
        }
    }
    0
}

/// Nudge `x` by up to ±2 ulps (identity near zero, where bit arithmetic
/// would jump across the sign boundary).
fn ulp_nudge(x: f64, r: &mut Rng) -> f64 {
    if x.abs() < 1e-300 {
        return x;
    }
    let steps = (r.below(5) as i64) - 2;
    f64::from_bits((x.to_bits() as i64 + steps) as u64)
}

#[test]
fn coplanar_lattice_orient_agrees_with_exact() {
    let mut r = Rng(0x5eed_0001);
    let mut st = FilterStats::default();
    let mut zeros = 0usize;
    for case in 0..N_COPLANAR_ORIENT {
        let mut p = [[0.0f64; 3]; 4];
        let a: Vec<i64> = (0..9).map(|_| r.int(-1000, 1000)).collect();
        for k in 0..3 {
            p[0][k] = a[k] as f64;
            p[1][k] = a[3 + k] as f64;
            p[2][k] = a[6 + k] as f64;
        }
        // d = a + s(b-a) + t(c-a) with integer s,t: exactly coplanar, and
        // every coordinate stays an exact small integer in f64
        let (s, t) = (r.int(-3, 3), r.int(-3, 3));
        for k in 0..3 {
            p[3][k] = p[0][k] + s as f64 * (p[1][k] - p[0][k]) + t as f64 * (p[2][k] - p[0][k]);
        }
        if case % 2 == 1 {
            // lattice-step perturbation: a barely-off-plane configuration
            let k = r.below(3) as usize;
            p[3][k] += r.int(-1, 1) as f64;
        }
        let b = bounds_for(&p);
        let staged = orient3d_sign_staged(&b, &mut st, &p[0], &p[1], &p[2], &p[3]);
        let exact = orient_ref(&p[0], &p[1], &p[2], &p[3]);
        assert_eq!(staged, exact, "case {case}: {p:?}");
        if exact == 0 {
            zeros += 1;
        }
    }
    assert_eq!(st.orient_total(), N_COPLANAR_ORIENT as u64);
    assert!(zeros > N_COPLANAR_ORIENT / 4, "generator lost degeneracy");
    // true zeros can never be certified by a magnitude filter: they must all
    // have deferred to the exact stage
    assert!(st.orient_exact >= zeros as u64);
}

#[test]
fn ulp_perturbed_orient_agrees_with_exact() {
    let mut r = Rng(0x5eed_0002);
    let mut st = FilterStats::default();
    for case in 0..N_ULP_ORIENT {
        let mut p = [[0.0f64; 3]; 4];
        for i in 0..3 {
            for k in 0..3 {
                p[i][k] = r.f01();
            }
        }
        // near-coplanar d (rounded affine combination), then ulp noise on
        // every coordinate of every point
        let (s, t) = (
            (r.below(17) as f64 - 8.0) / 8.0,
            (r.below(17) as f64 - 8.0) / 8.0,
        );
        for k in 0..3 {
            p[3][k] = p[0][k] + s * (p[1][k] - p[0][k]) + t * (p[2][k] - p[0][k]);
        }
        for pt in &mut p {
            for k in 0..3 {
                pt[k] = ulp_nudge(pt[k], &mut r);
            }
        }
        let b = bounds_for(&p);
        let staged = orient3d_sign_staged(&b, &mut st, &p[0], &p[1], &p[2], &p[3]);
        let exact = orient_ref(&p[0], &p[1], &p[2], &p[3]);
        assert_eq!(staged, exact, "case {case}: {p:?}");
    }
    assert_eq!(st.orient_total(), N_ULP_ORIENT as u64);
    // ulp-scale determinants sit far below any magnitude bound: the
    // lower stages must have deferred many of these
    assert!(st.orient_exact + st.orient_filtered > 0);
}

#[test]
fn translated_orient_agrees_with_exact() {
    let mut r = Rng(0x5eed_0003);
    let mut st = FilterStats::default();
    for case in 0..N_TRANSLATED_ORIENT {
        let shift = [
            1e6 * (1.0 + r.f01()),
            1e6 * (1.0 + r.f01()),
            1e6 * (1.0 + r.f01()),
        ];
        let mut p = [[0.0f64; 3]; 4];
        for i in 0..4 {
            for k in 0..3 {
                p[i][k] = r.f01() + shift[k];
            }
        }
        if case % 2 == 1 {
            // collapse d onto the a-b-c plane in the translated frame
            let (s, t) = (
                (r.below(17) as f64 - 8.0) / 8.0,
                (r.below(17) as f64 - 8.0) / 8.0,
            );
            for k in 0..3 {
                p[3][k] = p[0][k] + s * (p[1][k] - p[0][k]) + t * (p[2][k] - p[0][k]);
            }
        }
        let b = bounds_for(&p);
        let staged = orient3d_sign_staged(&b, &mut st, &p[0], &p[1], &p[2], &p[3]);
        let exact = orient_ref(&p[0], &p[1], &p[2], &p[3]);
        assert_eq!(staged, exact, "case {case}: {p:?}");
    }
    assert_eq!(st.orient_total(), N_TRANSLATED_ORIENT as u64);
}

/// The 48-point sign/permutation orbit of (a,b,c): every point has the same
/// distance from the origin, so any 5 of them are exactly cospherical.
fn orbit(a: i64, b: i64, c: i64) -> Vec<[f64; 3]> {
    let perms = [
        [a, b, c],
        [a, c, b],
        [b, a, c],
        [b, c, a],
        [c, a, b],
        [c, b, a],
    ];
    let mut out = Vec::with_capacity(48);
    for perm in perms {
        for signs in 0..8u32 {
            let mut q = [0.0f64; 3];
            for k in 0..3 {
                let s = if signs >> k & 1 == 1 { -1 } else { 1 };
                q[k] = (s * perm[k]) as f64;
            }
            out.push(q);
        }
    }
    out
}

#[test]
fn cospherical_orbit_insphere_agrees_with_exact() {
    let mut r = Rng(0x5eed_0004);
    let mut st = FilterStats::default();
    let mut zeros = 0usize;
    for case in 0..N_COSPHERICAL_INSPHERE {
        // distinct nonzero magnitudes => all 48 orbit points are distinct
        let a = r.int(1, 30);
        let b = a + r.int(1, 30);
        let c = b + r.int(1, 30);
        let orb = orbit(a, b, c);
        let mut p = [[0.0f64; 3]; 5];
        let mut used = [usize::MAX; 5];
        for (i, slot) in p.iter_mut().enumerate() {
            let mut j = r.below(48) as usize;
            while used.contains(&j) {
                j = r.below(48) as usize;
            }
            used[i] = j;
            *slot = orb[j];
        }
        // decenter: exact integer translate keeps cosphericity exact
        let off = [
            r.int(-100, 100) as f64,
            r.int(-100, 100) as f64,
            r.int(-100, 100) as f64,
        ];
        for pt in &mut p {
            for k in 0..3 {
                pt[k] += off[k];
            }
        }
        if case % 2 == 1 {
            let (i, k) = (r.below(5) as usize, r.below(3) as usize);
            p[i][k] += r.int(-1, 1) as f64;
        }
        let bb = bounds_for(&p);
        let staged = sign_of(insphere_staged(
            &bb, &mut st, &p[0], &p[1], &p[2], &p[3], &p[4],
        ));
        let exact = insphere_ref([&p[0], &p[1], &p[2], &p[3], &p[4]]);
        assert_eq!(staged, exact, "case {case}: {p:?}");
        if exact == 0 {
            zeros += 1;
        }
    }
    assert_eq!(st.insphere_total(), N_COSPHERICAL_INSPHERE as u64);
    assert!(
        zeros > N_COSPHERICAL_INSPHERE / 4,
        "generator lost degeneracy"
    );
    assert!(st.insphere_exact >= zeros as u64);
}

#[test]
fn ulp_perturbed_insphere_agrees_with_exact() {
    let mut r = Rng(0x5eed_0005);
    let mut st = FilterStats::default();
    for case in 0..N_ULP_INSPHERE {
        // 5 points on (approximately) a common sphere, computed in floats —
        // the rounding already makes them adversarially near-cospherical —
        // then ulp noise on top
        let center = [r.f01(), r.f01(), r.f01()];
        let radius = 0.25 + 0.5 * r.f01();
        let mut p = [[0.0f64; 3]; 5];
        for pt in &mut p {
            let (u, v) = (r.f01() * std::f64::consts::TAU, 2.0 * r.f01() - 1.0);
            let s = (1.0 - v * v).max(0.0).sqrt();
            let dir = [s * u.cos(), s * u.sin(), v];
            for k in 0..3 {
                pt[k] = ulp_nudge(center[k] + radius * dir[k], &mut r);
            }
        }
        let bb = bounds_for(&p);
        let staged = sign_of(insphere_staged(
            &bb, &mut st, &p[0], &p[1], &p[2], &p[3], &p[4],
        ));
        let exact = insphere_ref([&p[0], &p[1], &p[2], &p[3], &p[4]]);
        assert_eq!(staged, exact, "case {case}: {p:?}");
    }
    assert_eq!(st.insphere_total(), N_ULP_INSPHERE as u64);
    assert!(st.insphere_exact + st.insphere_filtered > 0);
}

#[test]
fn translated_insphere_agrees_with_exact() {
    let mut r = Rng(0x5eed_0006);
    let mut st = FilterStats::default();
    for case in 0..N_TRANSLATED_INSPHERE {
        let shift = [
            1e6 * (1.0 + r.f01()),
            1e6 * (1.0 + r.f01()),
            1e6 * (1.0 + r.f01()),
        ];
        let mut p = [[0.0f64; 3]; 5];
        for pt in &mut p {
            for k in 0..3 {
                pt[k] = r.f01() + shift[k];
            }
        }
        let bb = bounds_for(&p);
        let staged = sign_of(insphere_staged(
            &bb, &mut st, &p[0], &p[1], &p[2], &p[3], &p[4],
        ));
        let exact = insphere_ref([&p[0], &p[1], &p[2], &p[3], &p[4]]);
        assert_eq!(staged, exact, "case {case}: {p:?}");
    }
    assert_eq!(st.insphere_total(), N_TRANSLATED_INSPHERE as u64);
    // translated coordinates inflate the semi-static bound (it scales with
    // the box magnitude), so generic cases must still certify early
    assert!(st.insphere_semi_static > 0);
}

#[test]
fn sos_staged_matches_sos_exact_on_ties() {
    let mut r = Rng(0x5eed_0007);
    let mut st = FilterStats::default();
    let mut broken = 0usize;
    for case in 0..N_SOS {
        let a = r.int(1, 20);
        let b = a + r.int(1, 20);
        let c = b + r.int(1, 20);
        let orb = orbit(a, b, c);
        let mut p = [[0.0f64; 3]; 5];
        let mut keys = [0u64; 5];
        let mut used = [usize::MAX; 5];
        for i in 0..5 {
            let mut j = r.below(48) as usize;
            while used.contains(&j) {
                j = r.below(48) as usize;
            }
            used[i] = j;
            p[i] = orb[j];
            keys[i] = r.next();
        }
        let bb = bounds_for(&p);
        let staged = insphere_sos_staged(&bb, &mut st, &p[0], &p[1], &p[2], &p[3], &p[4], keys);
        let exact = sos_ref([&p[0], &p[1], &p[2], &p[3], &p[4]], keys);
        assert_eq!(staged, exact, "case {case}: {p:?} keys {keys:?}");
        if staged != 0 {
            broken += 1;
        }
    }
    assert!(st.insphere_total() >= N_SOS as u64);
    // SoS breaks every cospherical tie unless the base tet itself is
    // degenerate (coplanar picks from the orbit) — the common case resolves
    assert!(
        broken > N_SOS / 2,
        "SoS broke only {broken} of {N_SOS} ties"
    );
}

// ---------------------------------------------------------------------------
// Batched-filter agreement: the same adversarial distributions, staged as
// SoA waves through the wide-lane filters. Every lane must return the
// bit-identical determinant (orient) / identical sign (insphere) as the
// scalar staged cascade, the sign must match the exact predicate, and the
// shared FilterStats must advance exactly as an all-scalar run would —
// that is the whole "batching changes the schedule, never the answer"
// contract the kernel relies on for byte-identical meshes.
// ---------------------------------------------------------------------------

#[test]
fn batched_orient_agrees_on_coplanar_lattice_waves() {
    let mut r = Rng(0x5eed_1001);
    let (mut st_b, mut st_s) = (FilterStats::default(), FilterStats::default());
    let mut bt = BatchStats::default();
    let mut zeros = 0usize;
    // lane `l` is the triangle at `pts[1 + 3l ..]` (`pts[0]` is the query)
    let idx: Vec<[u32; 3]> = (0..BATCH_LANES as u32)
        .map(|l| [1 + 3 * l, 2 + 3 * l, 3 + 3 * l])
        .collect();
    let mut dets = Vec::new();
    for wave in 0..N_BATCH_ORIENT_WAVES {
        // one shared query point per wave, as in a cavity boundary round
        let pd = [
            r.int(-1000, 1000) as f64,
            r.int(-1000, 1000) as f64,
            r.int(-1000, 1000) as f64,
        ];
        let mut pts: Vec<[f64; 3]> = vec![pd];
        for lane in 0..BATCH_LANES {
            let mut tri = [[0.0f64; 3]; 3];
            for k in 0..3 {
                tri[0][k] = r.int(-1000, 1000) as f64;
                tri[1][k] = r.int(-1000, 1000) as f64;
            }
            // c = d + s(a-d) + t(b-d) with integer s,t: the lane's triangle
            // is exactly coplanar with the shared query point
            let (s, t) = (r.int(-3, 3), r.int(-3, 3));
            for k in 0..3 {
                tri[2][k] = pd[k] + s as f64 * (tri[0][k] - pd[k]) + t as f64 * (tri[1][k] - pd[k]);
            }
            if lane % 2 == 1 {
                let k = r.below(3) as usize;
                tri[2][k] += r.int(-1, 1) as f64;
            }
            pts.extend(tri);
        }
        let b = bounds_for(&pts);
        orient3d_batch_gather(&b, &mut st_b, &mut bt, &pts, &idx, &pd, &mut dets);
        assert_eq!(dets.len(), BATCH_LANES);
        for l in 0..BATCH_LANES {
            let (pa, pb, pc) = (pts[1 + 3 * l], pts[2 + 3 * l], pts[3 + 3 * l]);
            let scalar = orient3d_staged(&b, &mut st_s, &pa, &pb, &pc, &pd);
            assert_eq!(
                dets[l].to_bits(),
                scalar.to_bits(),
                "wave {wave} lane {l}: batched det diverged from scalar staged"
            );
            let exact = orient_ref(&pa, &pb, &pc, &pd);
            assert_eq!(sign_of(dets[l]), exact, "wave {wave} lane {l}");
            if exact == 0 {
                zeros += 1;
            }
        }
    }
    assert_eq!(st_b, st_s, "filter counters must be mode-independent");
    assert_eq!(bt.orient_lanes, (N_BATCH_ORIENT_WAVES * BATCH_LANES) as u64);
    assert!(zeros > N_BATCH_ORIENT_WAVES, "generator lost degeneracy");
    // every true zero must have fallen out of the batch pass into the
    // scalar cascade — a magnitude filter cannot certify a zero
    assert!(bt.orient_fallbacks >= zeros as u64);
    assert!((bt.occupancy() - 1.0).abs() < 1e-12);
}

#[test]
fn batched_orient_agrees_on_translated_ulp_waves() {
    let mut r = Rng(0x5eed_1002);
    let (mut st_b, mut st_s) = (FilterStats::default(), FilterStats::default());
    let mut bt = BatchStats::default();
    // lane `l` is the triangle at `pts[1 + 3l ..]` (`pts[0]` is the query)
    let idx: Vec<[u32; 3]> = (0..BATCH_LANES as u32)
        .map(|l| [1 + 3 * l, 2 + 3 * l, 3 + 3 * l])
        .collect();
    let mut dets = Vec::new();
    for wave in 0..N_BATCH_ORIENT_WAVES {
        let shift = [
            1e6 * (1.0 + r.f01()),
            1e6 * (1.0 + r.f01()),
            1e6 * (1.0 + r.f01()),
        ];
        let pd = [r.f01() + shift[0], r.f01() + shift[1], r.f01() + shift[2]];
        let mut pts: Vec<[f64; 3]> = vec![pd];
        for lane in 0..BATCH_LANES {
            let mut tri = [[0.0f64; 3]; 3];
            for k in 0..3 {
                tri[0][k] = r.f01() + shift[k];
                tri[1][k] = r.f01() + shift[k];
            }
            // near-coplanar with the shared query point in the translated
            // frame (rounded affine combination), then ulp noise on odd lanes
            let (s, t) = (
                (r.below(17) as f64 - 8.0) / 8.0,
                (r.below(17) as f64 - 8.0) / 8.0,
            );
            for k in 0..3 {
                tri[2][k] = pd[k] + s * (tri[0][k] - pd[k]) + t * (tri[1][k] - pd[k]);
            }
            if lane % 2 == 1 {
                for p in &mut tri {
                    for k in 0..3 {
                        p[k] = ulp_nudge(p[k], &mut r);
                    }
                }
            }
            pts.extend(tri);
        }
        let b = bounds_for(&pts);
        orient3d_batch_gather(&b, &mut st_b, &mut bt, &pts, &idx, &pd, &mut dets);
        for l in 0..BATCH_LANES {
            let (pa, pb, pc) = (pts[1 + 3 * l], pts[2 + 3 * l], pts[3 + 3 * l]);
            let scalar = orient3d_staged(&b, &mut st_s, &pa, &pb, &pc, &pd);
            assert_eq!(dets[l].to_bits(), scalar.to_bits(), "wave {wave} lane {l}");
            assert_eq!(
                sign_of(dets[l]),
                orient_ref(&pa, &pb, &pc, &pd),
                "wave {wave} lane {l}"
            );
        }
    }
    assert_eq!(st_b, st_s, "filter counters must be mode-independent");
    // ulp-scale determinants under a 1e6 translate sit far below the
    // (magnitude-scaled) bound: both outcomes must be represented
    assert!(bt.orient_fallbacks > 0);
    assert!(st_b.orient_semi_static > 0);
}

#[test]
fn batched_insphere_agrees_on_cospherical_orbit_waves() {
    let mut r = Rng(0x5eed_1003);
    let (mut st_b, mut st_s) = (FilterStats::default(), FilterStats::default());
    let mut bt = BatchStats::default();
    let mut zeros = 0usize;
    let (mut xs, mut ys, mut zs) = (Vec::new(), Vec::new(), Vec::new());
    let mut keys: Vec<[u64; 5]> = Vec::new();
    let mut signs = Vec::new();
    for wave in 0..N_BATCH_INSPHERE_WAVES {
        let a = r.int(1, 30);
        let b = a + r.int(1, 30);
        let c = b + r.int(1, 30);
        let orb = orbit(a, b, c);
        let off = [
            r.int(-100, 100) as f64,
            r.int(-100, 100) as f64,
            r.int(-100, 100) as f64,
        ];
        // the shared query point is itself an orbit point: every lane's
        // tetrahedron is exactly cospherical with it
        let pe_j = r.below(48) as usize;
        let pe = [
            orb[pe_j][0] + off[0],
            orb[pe_j][1] + off[1],
            orb[pe_j][2] + off[2],
        ];
        let pe_key = r.next();
        xs.clear();
        ys.clear();
        zs.clear();
        keys.clear();
        let mut pts: Vec<[f64; 3]> = vec![pe];
        for lane in 0..BATCH_LANES {
            let mut used = [pe_j, usize::MAX, usize::MAX, usize::MAX, usize::MAX];
            let mut lane_keys = [0u64; 5];
            for i in 0..4 {
                let mut j = r.below(48) as usize;
                while used.contains(&j) {
                    j = r.below(48) as usize;
                }
                used[i + 1] = j;
                let mut p = [orb[j][0] + off[0], orb[j][1] + off[1], orb[j][2] + off[2]];
                if lane % 2 == 1 && i == 3 {
                    let k = r.below(3) as usize;
                    p[k] += r.int(-1, 1) as f64;
                }
                xs.push(p[0]);
                ys.push(p[1]);
                zs.push(p[2]);
                pts.push(p);
                lane_keys[i] = r.next();
            }
            lane_keys[4] = pe_key;
            keys.push(lane_keys);
        }
        let bb = bounds_for(&pts);
        insphere_sos_batch(
            &bb, &mut st_b, &mut bt, &xs, &ys, &zs, &pe, &keys, &mut signs,
        );
        assert_eq!(signs.len(), BATCH_LANES);
        for l in 0..BATCH_LANES {
            let pa = [xs[4 * l], ys[4 * l], zs[4 * l]];
            let pb = [xs[4 * l + 1], ys[4 * l + 1], zs[4 * l + 1]];
            let pc = [xs[4 * l + 2], ys[4 * l + 2], zs[4 * l + 2]];
            let pd = [xs[4 * l + 3], ys[4 * l + 3], zs[4 * l + 3]];
            let scalar = insphere_sos_staged(&bb, &mut st_s, &pa, &pb, &pc, &pd, &pe, keys[l]);
            assert_eq!(signs[l], scalar, "wave {wave} lane {l}");
            let exact = sos_ref([&pa, &pb, &pc, &pd, &pe], keys[l]);
            assert_eq!(signs[l], exact, "wave {wave} lane {l}");
            // where the unperturbed determinant itself is nonzero, the SoS
            // sign is the plain sign — check it against the exact predicate
            let plain = insphere_ref([&pa, &pb, &pc, &pd, &pe]);
            if plain == 0 {
                zeros += 1;
            } else {
                assert_eq!(signs[l], plain, "wave {wave} lane {l}");
            }
        }
    }
    assert_eq!(st_b, st_s, "filter counters must be mode-independent");
    assert_eq!(
        bt.insphere_lanes,
        (N_BATCH_INSPHERE_WAVES * BATCH_LANES) as u64
    );
    assert!(zeros > N_BATCH_INSPHERE_WAVES, "generator lost degeneracy");
    assert!(bt.insphere_fallbacks >= zeros as u64);
}

#[test]
fn batched_insphere_agrees_on_ulp_sphere_waves() {
    let mut r = Rng(0x5eed_1004);
    let (mut st_b, mut st_s) = (FilterStats::default(), FilterStats::default());
    let mut bt = BatchStats::default();
    let (mut xs, mut ys, mut zs) = (Vec::new(), Vec::new(), Vec::new());
    let mut keys: Vec<[u64; 5]> = Vec::new();
    let mut signs = Vec::new();
    for wave in 0..N_BATCH_INSPHERE_WAVES {
        // all lanes on (approximately) one common sphere, half the waves
        // pushed out to large coordinates
        let shift = if wave % 2 == 1 {
            [
                1e6 * (1.0 + r.f01()),
                1e6 * (1.0 + r.f01()),
                1e6 * (1.0 + r.f01()),
            ]
        } else {
            [0.0; 3]
        };
        let center = [r.f01() + shift[0], r.f01() + shift[1], r.f01() + shift[2]];
        let radius = 0.25 + 0.5 * r.f01();
        let on_sphere = |r: &mut Rng| {
            let (u, v) = (r.f01() * std::f64::consts::TAU, 2.0 * r.f01() - 1.0);
            let s = (1.0 - v * v).max(0.0).sqrt();
            let dir = [s * u.cos(), s * u.sin(), v];
            let mut p = [0.0f64; 3];
            for k in 0..3 {
                p[k] = ulp_nudge(center[k] + radius * dir[k], r);
            }
            p
        };
        let pe = on_sphere(&mut r);
        let pe_key = r.next();
        xs.clear();
        ys.clear();
        zs.clear();
        keys.clear();
        let mut pts: Vec<[f64; 3]> = vec![pe];
        for _ in 0..BATCH_LANES {
            let mut lane_keys = [0u64; 5];
            for i in 0..4 {
                let p = on_sphere(&mut r);
                xs.push(p[0]);
                ys.push(p[1]);
                zs.push(p[2]);
                pts.push(p);
                lane_keys[i] = r.next();
            }
            lane_keys[4] = pe_key;
            keys.push(lane_keys);
        }
        let bb = bounds_for(&pts);
        insphere_sos_batch(
            &bb, &mut st_b, &mut bt, &xs, &ys, &zs, &pe, &keys, &mut signs,
        );
        for l in 0..BATCH_LANES {
            let pa = [xs[4 * l], ys[4 * l], zs[4 * l]];
            let pb = [xs[4 * l + 1], ys[4 * l + 1], zs[4 * l + 1]];
            let pc = [xs[4 * l + 2], ys[4 * l + 2], zs[4 * l + 2]];
            let pd = [xs[4 * l + 3], ys[4 * l + 3], zs[4 * l + 3]];
            let scalar = insphere_sos_staged(&bb, &mut st_s, &pa, &pb, &pc, &pd, &pe, keys[l]);
            assert_eq!(signs[l], scalar, "wave {wave} lane {l}");
            assert_eq!(
                signs[l],
                sos_ref([&pa, &pb, &pc, &pd, &pe], keys[l]),
                "wave {wave} lane {l}"
            );
        }
    }
    assert_eq!(st_b, st_s, "filter counters must be mode-independent");
    // near-cospherical lanes defer, generic lanes certify: both paths of
    // the batched classifier must be exercised by this family
    assert!(bt.insphere_fallbacks > 0);
    assert!(st_b.insphere_semi_static > 0);
}
