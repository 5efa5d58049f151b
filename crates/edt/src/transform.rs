//! Separable exact Euclidean feature transform.

use pi2m_geometry::Point3;
use pi2m_image::LabeledImage;
use pi2m_obs::cancel::{CancelToken, Cancelled};
use pi2m_obs::metrics::{self, ThreadRecorder};
use std::cell::UnsafeCell;
use std::time::Instant;

/// Sentinel feature value when the image contains no sites at all.
pub const NO_SITE: u32 = u32::MAX;

/// Voxels processed per inner step of the batched query sweep (see `dt1d`).
pub const EDT_BATCH_WIDTH: usize = 8;

/// The result of a feature transform: for every voxel, the linear index of a
/// nearest site voxel and the squared world-space distance to it.
#[derive(Clone, Debug)]
pub struct FeatureTransform {
    dims: [usize; 3],
    spacing: [f64; 3],
    origin: Point3,
    feat: Vec<u32>,
    dist2: Vec<f64>,
}

impl FeatureTransform {
    #[inline]
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    #[inline]
    fn linear(&self, i: usize, j: usize, k: usize) -> usize {
        (k * self.dims[1] + j) * self.dims[0] + i
    }

    /// Decompose a linear voxel index back into `(i, j, k)`.
    #[inline]
    pub fn delinearize(&self, idx: u32) -> [usize; 3] {
        let idx = idx as usize;
        let i = idx % self.dims[0];
        let j = (idx / self.dims[0]) % self.dims[1];
        let k = idx / (self.dims[0] * self.dims[1]);
        [i, j, k]
    }

    /// Nearest site voxel (as indices) for voxel `(i, j, k)`; `None` when the
    /// image has no sites.
    pub fn nearest_site(&self, i: usize, j: usize, k: usize) -> Option<[usize; 3]> {
        let f = self.feat[self.linear(i, j, k)];
        (f != NO_SITE).then(|| self.delinearize(f))
    }

    /// Squared world distance from voxel `(i, j, k)` to its nearest site.
    pub fn dist2(&self, i: usize, j: usize, k: usize) -> f64 {
        self.dist2[self.linear(i, j, k)]
    }

    /// Euclidean world distance.
    pub fn dist(&self, i: usize, j: usize, k: usize) -> f64 {
        self.dist2(i, j, k).sqrt()
    }

    /// Number of site voxels (distance exactly zero). O(voxels); intended
    /// for reporting, not hot paths.
    pub fn num_sites(&self) -> usize {
        self.dist2.iter().filter(|&&d| d == 0.0).count()
    }

    /// World coordinates of the nearest site's voxel center for an arbitrary
    /// world point `p` (clamped to the image grid, matching the paper's use:
    /// "the EDT returns the surface voxel q which is closest to p").
    pub fn nearest_site_world(&self, p: Point3) -> Option<Point3> {
        let rel = p - self.origin;
        let clamp = |v: f64, n: usize| -> usize {
            if v < 0.0 {
                0
            } else {
                (v as usize).min(n - 1)
            }
        };
        let i = clamp(rel.x / self.spacing[0], self.dims[0]);
        let j = clamp(rel.y / self.spacing[1], self.dims[1]);
        let k = clamp(rel.z / self.spacing[2], self.dims[2]);
        let [si, sj, sk] = self.nearest_site(i, j, k)?;
        Some(
            self.origin
                + Point3::new(
                    (si as f64 + 0.5) * self.spacing[0],
                    (sj as f64 + 0.5) * self.spacing[1],
                    (sk as f64 + 0.5) * self.spacing[2],
                ),
        )
    }
}

/// Shared-output wrapper letting worker threads write disjoint scan lines of
/// the same buffer without locks.
///
/// Safety contract: callers must hand each element index to at most one
/// thread. The dimensional passes partition output by line, so element sets
/// are disjoint by construction.
struct LineOutput<'a, T> {
    cells: &'a [UnsafeCell<T>],
}

unsafe impl<T: Send> Sync for LineOutput<'_, T> {}

impl<'a, T> LineOutput<'a, T> {
    fn new(slice: &'a mut [T]) -> Self {
        // SAFETY: `UnsafeCell<T>` has the same layout as `T`.
        let cells = unsafe { &*(slice as *mut [T] as *const [UnsafeCell<T>]) };
        LineOutput { cells }
    }

    /// SAFETY: each index must be written by exactly one thread per pass.
    #[inline]
    unsafe fn write(&self, idx: usize, v: T) {
        *self.cells[idx].get() = v;
    }
}

/// Run `f(line_index)` for all `0..lines` across `threads` workers.
///
/// When `cancel` is provided, workers stop claiming new line chunks as soon
/// as the token trips; the caller is responsible for checking the token
/// afterwards and discarding the partially written pass output.
fn parallel_lines(
    lines: usize,
    threads: usize,
    cancel: Option<&CancelToken>,
    f: impl Fn(usize) + Sync,
) {
    let cancelled = || cancel.is_some_and(|c| c.is_cancelled());
    let threads = threads.clamp(1, lines.max(1));
    let chunk = (lines / (threads * 8)).max(1);
    if threads == 1 {
        for start in (0..lines).step_by(chunk) {
            if cancelled() {
                return;
            }
            for l in start..(start + chunk).min(lines) {
                f(l);
            }
        }
        return;
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                if cancelled() {
                    break;
                }
                let start = next.fetch_add(chunk, std::sync::atomic::Ordering::Relaxed);
                if start >= lines {
                    break;
                }
                for l in start..(start + chunk).min(lines) {
                    f(l);
                }
            });
        }
    });
}

/// One 1D lower-envelope pass over a scan line.
///
/// `fvals[q]` is the squared distance achieved so far for position `q`,
/// `sites[q]` the corresponding feature; positions are at `q * step` in world
/// units. Writes the updated squared distances/features into `out_f`,
/// `out_site`.
///
/// The query sweep processes [`EDT_BATCH_WIDTH`] voxels per inner step: the
/// envelope segment index `k` is monotone in `q` (breakpoints `z` are
/// sorted), so if the first and last voxel of a block land on the same
/// parabola, the whole block does — and it is evaluated as one straight-line
/// loop with a constant parabola, using the *same* expression as the
/// per-voxel advance that blocks straddling a breakpoint take (so a voxel's
/// value does not depend on how the line is blocked).
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

/// Compute the exact feature transform of an arbitrary site set.
///
/// `is_site(i, j, k)` marks the voxels whose union forms the feature set;
/// every voxel of the output maps to a Euclidean-nearest site voxel (world
/// metric, anisotropic `spacing`).
pub fn feature_transform(
    dims: [usize; 3],
    spacing: [f64; 3],
    origin: Point3,
    is_site: impl Fn(usize, usize, usize) -> bool + Sync,
    threads: usize,
) -> FeatureTransform {
    feature_transform_obs(dims, spacing, origin, is_site, threads, None)
}

/// [`feature_transform`] with observability: records voxel count, pass
/// count, and per-axis pass wall time into `rec` when provided. The recorder
/// belongs to the calling (pipeline) thread; worker threads inside the
/// passes record nothing, keeping the hot loops untouched.
pub fn feature_transform_obs(
    dims: [usize; 3],
    spacing: [f64; 3],
    origin: Point3,
    is_site: impl Fn(usize, usize, usize) -> bool + Sync,
    threads: usize,
    rec: Option<&mut ThreadRecorder>,
) -> FeatureTransform {
    try_feature_transform_obs(dims, spacing, origin, is_site, threads, rec, None)
        .expect("infallible without a cancel token")
}

/// [`feature_transform_obs`] with cooperative cancellation: the token is
/// polled between line chunks inside each pass and between passes; a tripped
/// token aborts the sweep and returns `Err(Cancelled)` (any partial pass
/// output is discarded with the transform).
pub fn try_feature_transform_obs(
    dims: [usize; 3],
    spacing: [f64; 3],
    origin: Point3,
    is_site: impl Fn(usize, usize, usize) -> bool + Sync,
    threads: usize,
    mut rec: Option<&mut ThreadRecorder>,
    cancel: Option<&CancelToken>,
) -> Result<FeatureTransform, Cancelled> {
    let [nx, ny, nz] = dims;
    let n = nx * ny * nz;
    let mut dist2 = vec![f64::INFINITY; n];
    let mut feat = vec![NO_SITE; n];
    let lin = |i: usize, j: usize, k: usize| (k * ny + j) * nx + i;

    if let Some(r) = rec.as_deref_mut() {
        r.inc(metrics::EDT_VOXELS, n as u64);
    }
    let pass_done = |rec: &mut Option<&mut ThreadRecorder>, t0: Instant| {
        if let Some(r) = rec.as_deref_mut() {
            r.inc(metrics::EDT_PASSES, 1);
            r.observe(metrics::EDT_PASS_SECONDS, t0.elapsed().as_secs_f64());
        }
    };

    // ---- pass X: initialize from sites and sweep along i ----
    let t_pass = Instant::now();
    {
        let df = LineOutput::new(&mut dist2);
        let sf = LineOutput::new(&mut feat);
        parallel_lines(ny * nz, threads, cancel, |line| {
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
                // SAFETY: line (j,k) is processed by exactly one worker.
                unsafe {
                    df.write(lin(i, j, k), of[i]);
                    sf.write(lin(i, j, k), os[i]);
                }
            }
        });
    }

    if let Some(c) = cancel {
        c.check()?;
    }
    pass_done(&mut rec, t_pass);

    // ---- pass Y: sweep along j ----
    let t_pass = Instant::now();
    {
        let src_f = dist2.clone();
        let src_s = feat.clone();
        let df = LineOutput::new(&mut dist2);
        let sf = LineOutput::new(&mut feat);
        parallel_lines(nx * nz, threads, cancel, |line| {
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
                // SAFETY: line (i,k) is processed by exactly one worker.
                unsafe {
                    df.write(lin(i, j, k), of[j]);
                    sf.write(lin(i, j, k), os[j]);
                }
            }
        });
    }

    if let Some(c) = cancel {
        c.check()?;
    }
    pass_done(&mut rec, t_pass);

    // ---- pass Z: sweep along k ----
    let t_pass = Instant::now();
    {
        let src_f = dist2.clone();
        let src_s = feat.clone();
        let df = LineOutput::new(&mut dist2);
        let sf = LineOutput::new(&mut feat);
        parallel_lines(nx * ny, threads, cancel, |line| {
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
                // SAFETY: line (i,j) is processed by exactly one worker.
                unsafe {
                    df.write(lin(i, j, k), of[k]);
                    sf.write(lin(i, j, k), os[k]);
                }
            }
        });
    }

    if let Some(c) = cancel {
        c.check()?;
    }
    pass_done(&mut rec, t_pass);

    Ok(FeatureTransform {
        dims,
        spacing,
        origin,
        feat,
        dist2,
    })
}

/// Feature transform whose sites are the image's *surface voxels* — exactly
/// what the refinement rules query (paper §3: "the EDT returns the surface
/// voxel q which is closest to p").
pub fn surface_feature_transform(img: &LabeledImage, threads: usize) -> FeatureTransform {
    surface_feature_transform_obs(img, threads, None)
}

/// [`surface_feature_transform`] with observability (see
/// [`feature_transform_obs`]).
pub fn surface_feature_transform_obs(
    img: &LabeledImage,
    threads: usize,
    rec: Option<&mut ThreadRecorder>,
) -> FeatureTransform {
    feature_transform_obs(
        img.dims(),
        img.spacing(),
        img.origin(),
        |i, j, k| img.is_surface_voxel(i, j, k),
        threads,
        rec,
    )
}

/// [`surface_feature_transform_obs`] with cooperative cancellation (see
/// [`try_feature_transform_obs`]).
pub fn try_surface_feature_transform_obs(
    img: &LabeledImage,
    threads: usize,
    rec: Option<&mut ThreadRecorder>,
    cancel: Option<&CancelToken>,
) -> Result<FeatureTransform, Cancelled> {
    try_feature_transform_obs(
        img.dims(),
        img.spacing(),
        img.origin(),
        |i, j, k| img.is_surface_voxel(i, j, k),
        threads,
        rec,
        cancel,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2m_image::phantoms;

    /// O(n · sites) brute-force reference.
    fn brute_force(dims: [usize; 3], spacing: [f64; 3], sites: &[[usize; 3]]) -> Vec<f64> {
        let [nx, ny, nz] = dims;
        let mut out = vec![f64::INFINITY; nx * ny * nz];
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let mut best = f64::INFINITY;
                    for s in sites {
                        let dx = (i as f64 - s[0] as f64) * spacing[0];
                        let dy = (j as f64 - s[1] as f64) * spacing[1];
                        let dz = (k as f64 - s[2] as f64) * spacing[2];
                        best = best.min(dx * dx + dy * dy + dz * dz);
                    }
                    out[(k * ny + j) * nx + i] = best;
                }
            }
        }
        out
    }

    #[test]
    fn single_site() {
        let dims = [7, 5, 6];
        let ft = feature_transform(
            dims,
            [1.0, 1.0, 1.0],
            Point3::ORIGIN,
            |i, j, k| (i, j, k) == (3, 2, 4),
            1,
        );
        assert_eq!(ft.nearest_site(0, 0, 0), Some([3, 2, 4]));
        assert_eq!(ft.dist2(3, 2, 4), 0.0);
        assert_eq!(ft.dist2(3, 2, 0), 16.0);
        assert_eq!(ft.dist2(0, 0, 0), 9.0 + 4.0 + 16.0);
    }

    #[test]
    fn no_sites_yields_sentinels() {
        let ft = feature_transform([4, 4, 4], [1.0; 3], Point3::ORIGIN, |_, _, _| false, 1);
        assert_eq!(ft.nearest_site(1, 1, 1), None);
        assert_eq!(ft.dist2(1, 1, 1), f64::INFINITY);
        assert!(ft.nearest_site_world(Point3::new(1.0, 1.0, 1.0)).is_none());
    }

    #[test]
    fn matches_brute_force_pattern() {
        let dims = [9, 8, 7];
        let spacing = [0.5, 1.0, 2.0];
        let sites = [[0, 0, 0], [8, 7, 6], [4, 3, 2], [1, 6, 5]];
        let ft = feature_transform(
            dims,
            spacing,
            Point3::ORIGIN,
            |i, j, k| sites.contains(&[i, j, k]),
            2,
        );
        let bf = brute_force(dims, spacing, &sites);
        for k in 0..dims[2] {
            for j in 0..dims[1] {
                for i in 0..dims[0] {
                    let got = ft.dist2(i, j, k);
                    let want = bf[(k * dims[1] + j) * dims[0] + i];
                    assert!(
                        (got - want).abs() < 1e-9,
                        "voxel ({i},{j},{k}): {got} vs {want}"
                    );
                    // the feature must achieve the reported distance
                    let [si, sj, sk] = ft.nearest_site(i, j, k).unwrap();
                    let dx = (i as f64 - si as f64) * spacing[0];
                    let dy = (j as f64 - sj as f64) * spacing[1];
                    let dz = (k as f64 - sk as f64) * spacing[2];
                    assert!((dx * dx + dy * dy + dz * dz - got).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let img = phantoms::nested_spheres(20, 1.0);
        let ft1 = surface_feature_transform(&img, 1);
        let ft4 = surface_feature_transform(&img, 4);
        for k in 0..20 {
            for j in 0..20 {
                for i in 0..20 {
                    assert_eq!(ft1.dist2(i, j, k), ft4.dist2(i, j, k));
                }
            }
        }
    }

    #[test]
    fn surface_sites_have_zero_distance() {
        let img = phantoms::sphere(16, 1.0);
        let ft = surface_feature_transform(&img, 2);
        for [i, j, k] in img.surface_voxels() {
            assert_eq!(ft.dist2(i, j, k), 0.0);
            assert_eq!(ft.nearest_site(i, j, k), Some([i, j, k]));
        }
    }

    #[test]
    fn nearest_site_world_clamps() {
        let img = phantoms::sphere(16, 1.0);
        let ft = surface_feature_transform(&img, 1);
        // far outside the grid still answers via clamping
        let q = ft
            .nearest_site_world(Point3::new(-100.0, 8.0, 8.0))
            .unwrap();
        // nearest surface point from the -x direction is on the -x side
        assert!(q.x < 8.0);
    }

    /// The per-voxel query sweep over an envelope `(v, z)`: the reference
    /// the blocked sweep in `dt1d` must match to the bit.
    fn sweep_per_voxel(
        fvals: &[f64],
        sites: &[u32],
        step: f64,
        v: &[usize],
        z: &[f64],
    ) -> (Vec<f64>, Vec<u32>) {
        let mut k = 0usize;
        let (mut out_f, mut out_site) = (Vec::new(), Vec::new());
        for q in 0..fvals.len() {
            let xq = q as f64 * step;
            while k + 1 < v.len() && z[k + 1] < xq {
                k += 1;
            }
            let p = v[k];
            let xp = p as f64 * step;
            out_f.push((xq - xp) * (xq - xp) + fvals[p]);
            out_site.push(sites[p]);
        }
        (out_f, out_site)
    }

    #[test]
    fn blocked_sweep_is_bitwise_per_voxel() {
        // Scan lines of every length around the block width, anisotropic
        // steps, holes, and distances small enough that breakpoints fall
        // inside most blocks as well as between them.
        let mut s = 0x5eed_ed70u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s >> 11
        };
        let (mut v, mut z) = (Vec::new(), Vec::new());
        let mut straddled = 0usize;
        for n in 1..=4 * EDT_BATCH_WIDTH + 3 {
            for step in [0.7, 1.0, 2.5] {
                for spread in [2u64, 40, 4000] {
                    let fvals: Vec<f64> = (0..n)
                        .map(|_| match next() % 4 {
                            0 => f64::INFINITY,
                            _ => (next() % spread) as f64 * step * 0.37,
                        })
                        .collect();
                    if fvals.iter().all(|f| *f == f64::INFINITY) {
                        continue;
                    }
                    let sites: Vec<u32> = (0..n).map(|_| next() as u32).collect();
                    let (mut out_f, mut out_site) = (vec![0.0; n], vec![0u32; n]);
                    dt1d(
                        &fvals,
                        &sites,
                        step,
                        &mut out_f,
                        &mut out_site,
                        &mut v,
                        &mut z,
                    );
                    let (want_f, want_site) = sweep_per_voxel(&fvals, &sites, step, &v, &z);
                    for q in 0..n {
                        assert_eq!(out_f[q].to_bits(), want_f[q].to_bits(), "n {n} voxel {q}");
                    }
                    assert_eq!(out_site, want_site, "n {n}");
                    straddled += usize::from(v.len() > n.div_ceil(EDT_BATCH_WIDTH));
                }
            }
        }
        assert!(straddled > 100, "generator lost its dense envelopes");
    }

    #[test]
    fn anisotropic_prefers_cheap_axis() {
        // two sites equidistant in index space; spacing makes z expensive
        let dims = [9, 3, 9];
        let ft = feature_transform(
            dims,
            [1.0, 1.0, 10.0],
            Point3::ORIGIN,
            |i, j, k| (i, j, k) == (8, 1, 4) || (i, j, k) == (4, 1, 8),
            1,
        );
        // from (4,1,4): site (8,1,4) costs 16, site (4,1,8) costs 1600
        assert_eq!(ft.nearest_site(4, 1, 4), Some([8, 1, 4]));
    }
}
