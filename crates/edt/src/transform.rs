//! Separable exact Euclidean feature transform.

use pi2m_geometry::Point3;
use pi2m_image::LabeledImage;
use pi2m_obs::cancel::{CancelToken, Cancelled};
use pi2m_obs::metrics::{self, ThreadRecorder};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Sentinel feature value when the image contains no sites at all.
pub const NO_SITE: u32 = u32::MAX;

/// Voxels processed per inner step of the batched query sweep (see `dt1d`).
pub const EDT_BATCH_WIDTH: usize = 8;

/// The result of a feature transform: for every voxel, the linear index of a
/// nearest site voxel — 4 bytes a voxel and nothing else. Distances are
/// recomputed from the site on demand ([`FeatureTransform::dist2`]).
#[derive(Clone, Debug)]
pub struct FeatureTransform {
    dims: [usize; 3],
    spacing: [f64; 3],
    origin: Point3,
    feat: Vec<u32>,
    num_sites: usize,
}

/// Squared distance along one axis between grid positions `q` and `p`, in
/// the form the passes use: `d = q·step − p·step`, then `d·d`.
#[inline]
fn axis_d2(q: usize, p: usize, step: f64) -> f64 {
    let d = q as f64 * step - p as f64 * step;
    d * d
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

    /// Squared world distance from voxel `(i, j, k)` to its nearest site
    /// (infinite without one).
    ///
    /// Recomputed from the site in the order the passes accumulate it —
    /// x, then y, then z: `dz² + (dy² + dx²)` — so it is, to the bit, the
    /// running value the last pass's lower envelope was built from.
    pub fn dist2(&self, i: usize, j: usize, k: usize) -> f64 {
        let Some([si, sj, sk]) = self.nearest_site(i, j, k) else {
            return f64::INFINITY;
        };
        let [sx, sy, sz] = self.spacing;
        axis_d2(k, sk, sz) + (axis_d2(j, sj, sy) + axis_d2(i, si, sx))
    }

    /// Euclidean world distance.
    pub fn dist(&self, i: usize, j: usize, k: usize) -> f64 {
        self.dist2(i, j, k).sqrt()
    }

    /// Number of site voxels, counted while the transform was built.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// World coordinates of the nearest site's voxel center for an arbitrary
    /// world point `p` (clamped to the image grid, matching the paper's use:
    /// "the EDT returns the surface voxel q which is closest to p").
    pub fn nearest_site_world(&self, p: Point3) -> Option<Point3> {
        self.voxel_and_site_world(p).map(|(_, q)| q)
    }

    /// For an arbitrary world point `p`: the center of the voxel it falls in
    /// (clamped to the image grid) and the center of that voxel's nearest
    /// site. The transform is exact between those two centers, not from `p`.
    pub fn voxel_and_site_world(&self, p: Point3) -> Option<(Point3, Point3)> {
        let rel = p - self.origin;
        let clamp = |v: f64, n: usize| -> usize {
            if v < 0.0 {
                0
            } else {
                (v as usize).min(n - 1)
            }
        };
        let voxel = [
            clamp(rel.x / self.spacing[0], self.dims[0]),
            clamp(rel.y / self.spacing[1], self.dims[1]),
            clamp(rel.z / self.spacing[2], self.dims[2]),
        ];
        let site = self.nearest_site(voxel[0], voxel[1], voxel[2])?;
        Some((self.center(voxel), self.center(site)))
    }

    fn center(&self, [i, j, k]: [usize; 3]) -> Point3 {
        self.origin
            + Point3::new(
                (i as f64 + 0.5) * self.spacing[0],
                (j as f64 + 0.5) * self.spacing[1],
                (k as f64 + 0.5) * self.spacing[2],
            )
    }
}

/// Shared view of one buffer letting worker threads read and write disjoint
/// scan lines of it without locks.
///
/// Safety contract: callers must hand each element index to at most one
/// thread per pass. The dimensional passes partition the voxels by line, so
/// element sets are disjoint by construction.
struct SharedLines<'a, T> {
    cells: &'a [UnsafeCell<T>],
}

// SAFETY: the one field is a slice of cells that is only ever accessed
// through `read`/`write`, whose contract gives every element to one thread
// per pass, so no element is reached from two threads at once. Values move
// between threads (written by a worker, read back after the pass), hence
// `T: Send`.
unsafe impl<T: Send> Sync for SharedLines<'_, T> {}

impl<'a, T: Copy> SharedLines<'a, T> {
    fn new(slice: &'a mut [T]) -> Self {
        // SAFETY: `UnsafeCell<T>` has the same layout as `T`, and the
        // exclusive borrow of `slice` is held for the view's lifetime.
        let cells = unsafe { &*(slice as *mut [T] as *const [UnsafeCell<T>]) };
        SharedLines { cells }
    }

    /// # Safety
    /// Each index must be accessed by exactly one thread per pass.
    #[inline]
    unsafe fn read(&self, idx: usize) -> T {
        *self.cells[idx].get()
    }

    /// # Safety
    /// Each index must be accessed by exactly one thread per pass.
    #[inline]
    unsafe fn write(&self, idx: usize, v: T) {
        *self.cells[idx].get() = v;
    }
}

/// One worker's buffers for a pass, sized to a scan line: the line's
/// running squared distances and sites in, its new sites out, and the
/// lower envelope (`v`, `z`) that `dt1d` builds.
struct LineScratch {
    f: Vec<f64>,
    site: Vec<u32>,
    out: Vec<u32>,
    v: Vec<usize>,
    z: Vec<f64>,
}

impl LineScratch {
    fn new(len: usize) -> Self {
        LineScratch {
            f: vec![f64::INFINITY; len],
            site: vec![NO_SITE; len],
            out: vec![NO_SITE; len],
            v: Vec::with_capacity(len),
            z: Vec::with_capacity(len),
        }
    }

    /// Run `dt1d` over the staged line: `out[q]` becomes the site of `q`'s
    /// lower-envelope parabola.
    fn sweep(&mut self, step: f64) {
        dt1d(
            &self.f,
            &self.site,
            step,
            &mut self.out,
            &mut self.v,
            &mut self.z,
        );
    }
}

/// Run `f(scratch, line_index)` for all `0..lines` across `threads` workers,
/// each with its own [`LineScratch`] of `line_len` voxels.
///
/// When `cancel` is provided, workers stop claiming new line chunks as soon
/// as the token trips; the caller is responsible for checking the token
/// afterwards and discarding the partially written pass output.
fn parallel_lines(
    lines: usize,
    line_len: usize,
    threads: usize,
    cancel: Option<&CancelToken>,
    f: impl Fn(&mut LineScratch, usize) + Sync,
) {
    let cancelled = || cancel.is_some_and(|c| c.is_cancelled());
    let threads = threads.clamp(1, lines.max(1));
    let chunk = (lines / (threads * 8)).max(1);
    if threads == 1 {
        let mut scratch = LineScratch::new(line_len);
        for start in (0..lines).step_by(chunk) {
            if cancelled() {
                return;
            }
            for l in start..(start + chunk).min(lines) {
                f(&mut scratch, l);
            }
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut scratch = LineScratch::new(line_len);
                loop {
                    if cancelled() {
                        break;
                    }
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= lines {
                        break;
                    }
                    for l in start..(start + chunk).min(lines) {
                        f(&mut scratch, l);
                    }
                }
            });
        }
    });
}

/// One 1D lower-envelope pass over a scan line.
///
/// `fvals[q]` is the squared distance achieved so far for position `q`,
/// `sites[q]` the corresponding feature; positions are at `q * step` in world
/// units. Writes into `out_site[q]` the feature of the parabola that is
/// lowest at `q` (`NO_SITE` everywhere when every `fvals` is infinite).
///
/// The query sweep processes [`EDT_BATCH_WIDTH`] voxels per inner step: the
/// envelope segment index `k` is monotone in `q` (breakpoints `z` are
/// sorted), so if the first and last voxel of a block land on the same
/// parabola, the whole block does and is filled with one site; blocks
/// straddling a breakpoint advance per voxel.
fn dt1d(
    fvals: &[f64],
    sites: &[u32],
    step: f64,
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
            // One parabola covers the block.
            out_site[q0..qe].fill(sites[v[k]]);
        } else {
            for (q, out) in (q0..qe).zip(&mut out_site[q0..qe]) {
                let xq = q as f64 * step;
                while k + 1 < v.len() && z[k + 1] < xq {
                    k += 1;
                }
                *out = sites[v[k]];
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
    try_feature_transform_obs(dims, spacing, origin, is_site, threads, None, None)
        .expect("infallible without a cancel token")
}

/// [`feature_transform`] with observability and cooperative cancellation.
/// When `rec` is given, records voxel count, pass count, and per-axis pass
/// wall time into it; the recorder belongs to the calling (pipeline) thread,
/// and worker threads inside the passes record nothing, keeping the hot
/// loops untouched. The token is polled between line chunks inside each
/// pass and between passes; a tripped token aborts the sweep and returns
/// `Err(Cancelled)` (any partial pass output is discarded with the
/// transform).
///
/// The three passes share one `u32` feature per voxel and update it in
/// place: a scan line reads its voxels' sites, recomputes from each the
/// squared distance the earlier passes accumulated for it, and writes the
/// new sites back. Lines of one pass touch disjoint voxels.
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
    let [sx, sy, sz] = spacing;
    let plane = nx * ny;
    let n = plane * nz;
    let mut feat = vec![NO_SITE; n];
    let num_sites = AtomicUsize::new(0);

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
        let feat = SharedLines::new(&mut feat);
        // line = k·ny + j is row (j, k), which starts at voxel line·nx
        parallel_lines(ny * nz, nx, threads, cancel, |s, line| {
            let (j, k, row) = (line % ny, line / ny, line * nx);
            let mut found = 0;
            for i in 0..nx {
                let site = is_site(i, j, k);
                found += usize::from(site);
                (s.f[i], s.site[i]) = if site {
                    (0.0, (row + i) as u32)
                } else {
                    (f64::INFINITY, NO_SITE)
                };
            }
            // Relaxed: a count that publishes nothing; the workers' join
            // orders every add before the final read.
            num_sites.fetch_add(found, Ordering::Relaxed);
            s.sweep(sx);
            for i in 0..nx {
                // SAFETY: row (j,k) is processed by exactly one worker.
                unsafe { feat.write(row + i, s.out[i]) };
            }
        });
    }

    if let Some(c) = cancel {
        c.check()?;
    }
    pass_done(&mut rec, t_pass);

    // ---- pass Y: sweep along j ----
    // A voxel's site after pass X lies in its own row, so the site's column
    // is one subtraction away and its running value is dx².
    let t_pass = Instant::now();
    {
        let feat = SharedLines::new(&mut feat);
        parallel_lines(nx * nz, ny, threads, cancel, |s, line| {
            let (i, k) = (line % nx, line / nx);
            for j in 0..ny {
                let row = (k * ny + j) * nx;
                // SAFETY: line (i,k) is processed by exactly one worker.
                let q = unsafe { feat.read(row + i) };
                s.site[j] = q;
                s.f[j] = if q == NO_SITE {
                    f64::INFINITY
                } else {
                    axis_d2(i, q as usize - row, sx)
                };
            }
            s.sweep(sy);
            for j in 0..ny {
                // SAFETY: line (i,k) is processed by exactly one worker.
                unsafe { feat.write((k * ny + j) * nx + i, s.out[j]) };
            }
        });
    }

    if let Some(c) = cancel {
        c.check()?;
    }
    pass_done(&mut rec, t_pass);

    // ---- pass Z: sweep along k ----
    // A voxel's site after pass Y lies in its own plane: one division by nx
    // gives the site's row and column, and its running value is dy² + dx².
    let t_pass = Instant::now();
    {
        let feat = SharedLines::new(&mut feat);
        // line = j·nx + i is column (i, j), voxel k·plane + line of it
        parallel_lines(plane, nz, threads, cancel, |s, line| {
            let (i, j) = (line % nx, line / nx);
            for k in 0..nz {
                // SAFETY: line (i,j) is processed by exactly one worker.
                let q = unsafe { feat.read(k * plane + line) };
                s.site[k] = q;
                s.f[k] = if q == NO_SITE {
                    f64::INFINITY
                } else {
                    let in_plane = q as usize - k * plane;
                    let sj = in_plane / nx;
                    axis_d2(j, sj, sy) + axis_d2(i, in_plane - sj * nx, sx)
                };
            }
            s.sweep(sz);
            for k in 0..nz {
                // SAFETY: line (i,j) is processed by exactly one worker.
                unsafe { feat.write(k * plane + line, s.out[k]) };
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
        num_sites: num_sites.into_inner(),
    })
}

/// Feature transform whose sites are the image's *surface voxels* — exactly
/// what the refinement rules query (paper §3: "the EDT returns the surface
/// voxel q which is closest to p").
pub fn surface_feature_transform(img: &LabeledImage, threads: usize) -> FeatureTransform {
    try_surface_feature_transform_obs(img, threads, None, None)
        .expect("infallible without a cancel token")
}

/// [`surface_feature_transform`] with observability and cooperative
/// cancellation (see [`try_feature_transform_obs`]).
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
    /// the blocked sweep in `dt1d` must match site for site.
    fn sweep_per_voxel(n: usize, sites: &[u32], step: f64, v: &[usize], z: &[f64]) -> Vec<u32> {
        let mut k = 0usize;
        let mut out_site = Vec::new();
        for q in 0..n {
            let xq = q as f64 * step;
            while k + 1 < v.len() && z[k + 1] < xq {
                k += 1;
            }
            out_site.push(sites[v[k]]);
        }
        out_site
    }

    #[test]
    fn blocked_sweep_matches_per_voxel() {
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
                    let mut out_site = vec![0u32; n];
                    dt1d(&fvals, &sites, step, &mut out_site, &mut v, &mut z);
                    let want = sweep_per_voxel(n, &sites, step, &v, &z);
                    assert_eq!(out_site, want, "n {n}");
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
