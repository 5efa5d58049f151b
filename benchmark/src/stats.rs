//! Order statistics for timing samples.

/// The `q`-quantile (0..=1) of `samples`, by linear interpolation between
/// the two nearest ranks. Panics on an empty slice: every caller measures
/// at least one sample first.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median with its quartiles, extremes and sample count, as the timings
/// are printed.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

pub fn summary(samples: &[f64]) -> Summary {
    Summary {
        median: median(samples),
        q1: quantile(samples, 0.25),
        q3: quantile(samples, 0.75),
        min: quantile(samples, 0.0),
        max: quantile(samples, 1.0),
        n: samples.len(),
    }
}

/// The highest percentile, among 99/95/90/75 and no higher than `cap`, that
/// still has at least ten samples beyond it; the median when none has. A
/// tail read off fewer than ten samples is one slow request, not a
/// percentile.
pub fn tail_percentile(n: usize, cap: u32) -> u32 {
    [99u32, 95, 90, 75]
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| n * (100 - p as usize) / 100 >= 10)
        .unwrap_or(50)
}

/// Latency at [`tail_percentile`].
pub fn tail(samples: &[f64], cap: u32) -> f64 {
    quantile(samples, tail_percentile(samples.len(), cap) as f64 / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = summary(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!((s.min, s.max), (1.0, 5.0));
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 160 jobs: 16 beyond p90, only 8 beyond p95.
        assert_eq!(tail_percentile(160, 99), 90);
        assert_eq!(tail_percentile(200, 99), 95);
        assert_eq!(tail_percentile(1000, 99), 99);
        assert_eq!(tail_percentile(1000, 90), 90, "the cap holds");
        assert_eq!(tail_percentile(99, 99), 75);
        assert_eq!(tail_percentile(40, 99), 75);
        assert_eq!(tail_percentile(39, 99), 50);
        assert_eq!(tail_percentile(7, 99), 50, "a handful of reps has no tail");
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert!((tail(&xs, 90) - 180.1).abs() < 1e-9);
    }
}
