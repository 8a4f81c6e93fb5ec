//! Order statistics for the benchmark's samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the one at rank `ceil(p/100 · n)` (1-based). A
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! above its rank, so a run is long enough when [`enough_beyond`] holds
//! for every named percentile.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank `ceil(p/100 · n)` of percentile `p`
/// (1 ≤ p ≤ 100, whole percent so the rank is exact) among `n` samples, or
/// `None` when there are no samples or `p` is out of range.
pub fn nearest_rank(p: usize, n: usize) -> Option<usize> {
    if n == 0 || p == 0 || p > 100 {
        return None;
    }
    Some((p * n).div_ceil(100))
}

/// Nearest-rank percentile `p` of `samples` (any order).
pub fn percentile(samples: &[u64], p: usize) -> Option<u64> {
    let rank = nearest_rank(p, samples.len())?;
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted.get(rank - 1).copied()
}

/// Number of samples strictly beyond the rank of percentile `p`.
pub fn beyond(p: usize, n: usize) -> usize {
    nearest_rank(p, n).map_or(0, |r| n - r)
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
pub fn enough_beyond(p: usize, n: usize) -> bool {
    beyond(p, n) >= MIN_BEYOND
}

/// The median as the 50th nearest-rank percentile.
pub fn median(samples: &[u64]) -> Option<u64> {
    percentile(samples, 50)
}

/// Median of floating-point values (mean of the two middle values for an
/// even count), used for ratios derived from several passes.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(50, 1), Some(1));
        assert_eq!(nearest_rank(50, 4), Some(2));
        assert_eq!(nearest_rank(50, 5), Some(3));
        assert_eq!(nearest_rank(99, 100), Some(99));
        assert_eq!(nearest_rank(99, 101), Some(100));
        assert_eq!(nearest_rank(100, 7), Some(7));
        assert_eq!(nearest_rank(0, 7), None);
        assert_eq!(nearest_rank(101, 7), None);
        assert_eq!(nearest_rank(50, 0), None);
    }

    #[test]
    fn percentile_picks_a_sample_not_an_interpolation() {
        let s: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(percentile(&s, 50), Some(5));
        assert_eq!(percentile(&s, 90), Some(9));
        assert_eq!(percentile(&s, 95), Some(10));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(median(&[7, 1, 3]), Some(3));
    }

    #[test]
    fn ten_beyond_rule_sets_the_minimum_run_length() {
        // p50 needs 20 samples, p95 needs 200, p99 needs 1000.
        for (p, need) in [(50, 20), (95, 200), (99, 1000)] {
            assert!(enough_beyond(p, need), "p{p} at {need}");
            assert!(!enough_beyond(p, need - 1), "p{p} at {}", need - 1);
        }
        assert_eq!(beyond(99, 1000), 10);
        assert_eq!(beyond(50, 0), 0);
    }

    #[test]
    fn median_f64_averages_the_middle_pair() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_f64(&[]), None);
    }
}
