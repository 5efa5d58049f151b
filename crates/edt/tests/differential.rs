//! The in-place 4-byte transform against the transform it replaced.
//!
//! The replaced transform stored a squared distance beside every feature and
//! ran its y and z passes from full copies of both arrays. It survives here,
//! sequential but otherwise as it was, as the reference: the current
//! transform must return the same nearest site for every voxel, and a
//! `dist2` recomputed from that site that equals the stored one to the bit.

use pi2m_edt::{
    feature_transform, surface_feature_transform, FeatureTransform, EDT_BATCH_WIDTH, NO_SITE,
};
use pi2m_geometry::Point3;
use pi2m_image::{phantoms, LabeledImage};
use proptest::prelude::*;

/// The replaced `dt1d`: writes the squared distance of every voxel as well
/// as its site.
fn dt1d(
    fvals: &[f64],
    sites: &[u32],
    step: f64,
    out_f: &mut [f64],
    out_site: &mut [u32],
    v: &mut Vec<usize>,
    z: &mut Vec<f64>,
) {
    let n = fvals.len();
    v.clear();
    z.clear();

    // envelope of parabolas q -> (x - x_q)^2 + f(q), skipping infinite f
    for q in 0..n {
        if fvals[q] == f64::INFINITY {
            continue;
        }
        let xq = q as f64 * step;
        loop {
            match v.last() {
                None => {
                    v.push(q);
                    z.push(f64::NEG_INFINITY);
                    break;
                }
                Some(&p) => {
                    let xp = p as f64 * step;
                    // intersection of parabolas at p and q
                    let s = ((fvals[q] + xq * xq) - (fvals[p] + xp * xp)) / (2.0 * (xq - xp));
                    if s <= *z.last().unwrap() {
                        v.pop();
                        z.pop();
                    } else {
                        v.push(q);
                        z.push(s);
                        break;
                    }
                }
            }
        }
    }

    if v.is_empty() {
        out_f.copy_from_slice(fvals);
        out_site.fill(NO_SITE);
        return;
    }

    let mut k = 0usize;
    let mut q0 = 0usize;
    while q0 < n {
        let qe = (q0 + EDT_BATCH_WIDTH).min(n);
        let x0 = q0 as f64 * step;
        while k + 1 < v.len() && z[k + 1] < x0 {
            k += 1;
        }
        let xl = (qe - 1) as f64 * step;
        let mut ke = k;
        while ke + 1 < v.len() && z[ke + 1] < xl {
            ke += 1;
        }
        if ke == k {
            // One parabola covers the block: straight-line evaluation.
            let p = v[k];
            let xp = p as f64 * step;
            let (fp, sp) = (fvals[p], sites[p]);
            for q in q0..qe {
                let xq = q as f64 * step;
                out_f[q] = (xq - xp) * (xq - xp) + fp;
                out_site[q] = sp;
            }
        } else {
            for q in q0..qe {
                let xq = q as f64 * step;
                while k + 1 < v.len() && z[k + 1] < xq {
                    k += 1;
                }
                let p = v[k];
                let xp = p as f64 * step;
                out_f[q] = (xq - xp) * (xq - xp) + fvals[p];
                out_site[q] = sites[p];
            }
        }
        q0 = qe;
    }
}

/// The replaced transform's three passes: `(feat, dist2)` per voxel.
fn reference(
    dims: [usize; 3],
    spacing: [f64; 3],
    is_site: impl Fn(usize, usize, usize) -> bool,
) -> (Vec<u32>, Vec<f64>) {
    let [nx, ny, nz] = dims;
    let n = nx * ny * nz;
    let mut dist2 = vec![f64::INFINITY; n];
    let mut feat = vec![NO_SITE; n];
    let lin = |i: usize, j: usize, k: usize| (k * ny + j) * nx + i;

    // ---- pass X: initialize from sites and sweep along i ----
    for line in 0..ny * nz {
        let j = line % ny;
        let k = line / ny;
        let mut f0 = vec![f64::INFINITY; nx];
        let mut s0 = vec![NO_SITE; nx];
        for (i, (fv, sv)) in f0.iter_mut().zip(s0.iter_mut()).enumerate() {
            if is_site(i, j, k) {
                *fv = 0.0;
                *sv = lin(i, j, k) as u32;
            }
        }
        let mut of = vec![0.0; nx];
        let mut os = vec![0u32; nx];
        let (mut v, mut z) = (Vec::new(), Vec::new());
        dt1d(&f0, &s0, spacing[0], &mut of, &mut os, &mut v, &mut z);
        for i in 0..nx {
            dist2[lin(i, j, k)] = of[i];
            feat[lin(i, j, k)] = os[i];
        }
    }

    // ---- pass Y: sweep along j ----
    {
        let src_f = dist2.clone();
        let src_s = feat.clone();
        for line in 0..nx * nz {
            let i = line % nx;
            let k = line / nx;
            let mut f0 = vec![0.0; ny];
            let mut s0 = vec![0u32; ny];
            for j in 0..ny {
                f0[j] = src_f[lin(i, j, k)];
                s0[j] = src_s[lin(i, j, k)];
            }
            let mut of = vec![0.0; ny];
            let mut os = vec![0u32; ny];
            let (mut v, mut z) = (Vec::new(), Vec::new());
            dt1d(&f0, &s0, spacing[1], &mut of, &mut os, &mut v, &mut z);
            for j in 0..ny {
                dist2[lin(i, j, k)] = of[j];
                feat[lin(i, j, k)] = os[j];
            }
        }
    }

    // ---- pass Z: sweep along k ----
    {
        let src_f = dist2.clone();
        let src_s = feat.clone();
        for line in 0..nx * ny {
            let i = line % nx;
            let j = line / nx;
            let mut f0 = vec![0.0; nz];
            let mut s0 = vec![0u32; nz];
            for k in 0..nz {
                f0[k] = src_f[lin(i, j, k)];
                s0[k] = src_s[lin(i, j, k)];
            }
            let mut of = vec![0.0; nz];
            let mut os = vec![0u32; nz];
            let (mut v, mut z) = (Vec::new(), Vec::new());
            dt1d(&f0, &s0, spacing[2], &mut of, &mut os, &mut v, &mut z);
            for k in 0..nz {
                dist2[lin(i, j, k)] = of[k];
                feat[lin(i, j, k)] = os[k];
            }
        }
    }

    (feat, dist2)
}

/// `Err` naming the first voxel at which `ft` and the reference disagree on
/// the site, on the bits of `dist2`, or on the site count.
fn compare(ft: &FeatureTransform, want: &(Vec<u32>, Vec<f64>)) -> Result<(), String> {
    let [nx, ny, nz] = ft.dims();
    let (feat, dist2) = want;
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let idx = (k * ny + j) * nx + i;
                let site = (feat[idx] != NO_SITE).then(|| ft.delinearize(feat[idx]));
                if ft.nearest_site(i, j, k) != site {
                    return Err(format!(
                        "({i},{j},{k}): site {:?}, reference {site:?}",
                        ft.nearest_site(i, j, k)
                    ));
                }
                if ft.dist2(i, j, k).to_bits() != dist2[idx].to_bits() {
                    return Err(format!(
                        "({i},{j},{k}): dist2 {:e}, reference {:e}",
                        ft.dist2(i, j, k),
                        dist2[idx]
                    ));
                }
            }
        }
    }
    let sites = dist2.iter().filter(|&&d| d == 0.0).count();
    if ft.num_sites() != sites {
        return Err(format!("num_sites {}, reference {sites}", ft.num_sites()));
    }
    Ok(())
}

/// The surface transform of `img` at 1, 2 and 4 threads against the
/// reference.
fn check_image(name: &str, img: &LabeledImage) {
    let want = reference(img.dims(), img.spacing(), |i, j, k| {
        img.is_surface_voxel(i, j, k)
    });
    for threads in [1, 2, 4] {
        let ft = surface_feature_transform(img, threads);
        if let Err(e) = compare(&ft, &want) {
            panic!("{name} at {threads} threads: {e}");
        }
    }
}

#[test]
fn every_phantom_at_two_scales() {
    for name in [
        "sphere",
        "nested",
        "torus",
        "abdominal",
        "knee",
        "head-neck",
    ] {
        for scale in [0.5, 1.0] {
            let img = phantoms::by_name(name, scale).expect("built-in phantom");
            check_image(&format!("{name}({scale})"), &img);
        }
    }
}

#[test]
fn anisotropic_spacing_and_a_crop_with_an_origin() {
    let img = LabeledImage::from_fn([23, 19, 17], [0.37, 1.13, 2.9], |p| {
        let r = p.distance(Point3::new(4.0, 10.0, 25.0));
        if r < 6.0 {
            2
        } else if r < 11.0 {
            1
        } else {
            0
        }
    });
    check_image("anisotropic shells", &img);
    let crop = phantoms::abdominal(1.0).crop([3, 2, 1], [50, 47, 20]);
    assert!(crop.origin().x > 0.0 && crop.origin().z > 0.0);
    check_image("cropped abdominal", &crop);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_site_sets(
        seed in 1u64..100_000,
        nx in 1usize..14,
        ny in 1usize..14,
        nz in 1usize..14,
        sx in 0.1f64..4.0,
        sy in 0.1f64..4.0,
        sz in 0.1f64..4.0,
        density in 0.0f64..0.3,
    ) {
        let mut s = seed;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let dims = [nx, ny, nz];
        let spacing = [sx, sy, sz];
        let sites: Vec<bool> = (0..nx * ny * nz).map(|_| next() < density).collect();
        let is_site = |i: usize, j: usize, k: usize| sites[(k * ny + j) * nx + i];
        let want = reference(dims, spacing, is_site);
        for threads in [1, 2, 4] {
            let ft = feature_transform(dims, spacing, Point3::ORIGIN, is_site, threads);
            let res = compare(&ft, &want);
            prop_assert!(res.is_ok(), "{} threads: {}", threads, res.unwrap_err());
        }
    }
}
