//! Order statistics used by every reported timing.
//!
//! Percentiles are nearest-rank: the `p`-th percentile of `n` samples is
//! the `ceil(p/100 · n)`-th smallest. A tail percentile is only meaningful
//! when at least [`MIN_BEYOND`] samples lie strictly beyond its rank, so
//! every report names its sample count and [`highest_supported`] says which
//! tail the count supports.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based rank of the `p`-th percentile among `n` samples (nearest rank).
fn rank(p: f64, n: usize) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the `p`-th percentile of `n` samples.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(p, n)
}

/// Whether `n` samples support the `p`-th percentile under the
/// ten-beyond rule.
pub fn supports(p: f64, n: usize) -> bool {
    beyond(p, n) >= MIN_BEYOND
}

/// The highest of the usual report percentiles that `n` samples support,
/// if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| supports(p, n))
}

/// Nearest-rank percentile of `samples` (any order); 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()) - 1]
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_samples_must_lie_beyond_a_tail_percentile() {
        // p90 of 100 samples is the 90th smallest: exactly ten beyond.
        assert_eq!(beyond(90.0, 100), 10);
        assert!(supports(90.0, 100));
        assert!(!supports(90.0, 99));
        // p95 needs 200, p99 needs 1000.
        assert!(supports(95.0, 200) && !supports(95.0, 199));
        assert!(supports(99.0, 1000) && !supports(99.0, 999));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(250), Some(95.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
