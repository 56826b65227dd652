//! Summaries of timing samples: medians, the tail percentile the sample
//! size supports, and geometric means.

/// The `p`-th percentile (0–100) of an ascending-sorted slice, nearest
/// rank. Empty input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Samples that must lie beyond a percentile for it to be reported: with
/// fewer, the value is one or two outliers, not a property of the system.
pub const TAIL_SUPPORT: usize = 10;

/// The tail percentile reported when the sample supports it or more.
/// Ten samples beyond is necessary, not sufficient: on a shared 2-core
/// machine p99 and up are scheduler stalls that do not repeat within a
/// tenth from run to run (they stay per-layer), p95 does.
pub const TAIL_CAP_PCT: f64 = 95.0;

/// Median, supported tail and sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The highest percentile with at least [`TAIL_SUPPORT`] samples
    /// beyond it, up to [`TAIL_CAP_PCT`]; the median when the sample is
    /// too small for any.
    pub tail: f64,
}

/// Summarises a sample (any order). Empty input reads all zeros.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let p50 = percentile(&s, 50.0);
    // `n - 1 - TAIL_SUPPORT` is the highest index with TAIL_SUPPORT
    // samples above it; below the median it says nothing about a tail.
    let tail = match n.checked_sub(1 + TAIL_SUPPORT) {
        Some(idx) if 2 * idx > n - 1 => {
            percentile(&s, (100.0 * idx as f64 / (n - 1) as f64).min(TAIL_CAP_PCT))
        }
        _ => p50,
    };
    Summary { n, p50, tail }
}

/// Median of a sample (any order).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// Smallest value of a sample; 0 when empty.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Geometric mean of positive values; 0 when empty or any value is not
/// positive (a time of zero means the measurement is broken, and the
/// mean must not hide it).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1..=100: index 89 (value 90) has exactly ten samples above it.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let sum = summarize(&s);
        assert_eq!(sum.n, 100);
        assert_eq!(sum.tail, 90.0);
        // 1000 samples support p98.9; the report stops at p95.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&s).tail, 950.0);
    }

    #[test]
    fn small_samples_report_the_median_as_their_tail() {
        let s: Vec<f64> = (1..=11).map(f64::from).collect();
        let sum = summarize(&s);
        // Index 0 has ten samples beyond it but sits below the median.
        assert_eq!((sum.p50, sum.tail), (6.0, 6.0));
        assert_eq!(summarize(&[]).tail, 0.0);
        assert_eq!(summarize(&[3.0]).tail, 3.0);
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut s: Vec<f64> = (1..=40).map(f64::from).collect();
        s.reverse();
        assert_eq!(summarize(&s).tail, 30.0);
    }

    #[test]
    fn geomean_is_scale_balanced() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        // Halving one program moves the mean by the same factor
        // whichever program it is.
        let a = geomean(&[1.0, 100.0]) / geomean(&[0.5, 100.0]);
        let b = geomean(&[1.0, 100.0]) / geomean(&[1.0, 50.0]);
        assert!((a - b).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
