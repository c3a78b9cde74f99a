//! Latency distribution summaries (nearest-rank percentiles).
//!
//! clp-serve reports job sojourn times in virtual ticks; figure and CI
//! tooling want the usual tail percentiles rather than raw sample lists.
//! Everything here is integer-in / deterministic-out: nearest-rank
//! percentiles over a sorted sample vector, so the same samples always
//! produce the same summary on every platform.
//!
//! An empty sample set has no percentiles; the summary carries `None`
//! (serialized as `null`) rather than a sentinel zero that downstream
//! thresholds would mistake for a real zero-tick latency.

use serde::{Deserialize, Serialize};

/// Summary statistics of a latency sample set. The statistics are
/// `None` exactly when `count == 0`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: Option<f64>,
    /// Nearest-rank 50th percentile.
    pub p50: Option<u64>,
    /// Nearest-rank 90th percentile.
    pub p90: Option<u64>,
    /// Nearest-rank 99th percentile.
    pub p99: Option<u64>,
    /// Largest sample.
    pub max: Option<u64>,
}

/// Nearest-rank percentile of a sorted, non-empty slice: the smallest
/// sample such that at least `pct`% of the set is `<=` it.
fn nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = (sorted.len() as u64 * pct).div_ceil(100).max(1);
    sorted[(rank as usize - 1).min(sorted.len() - 1)]
}

impl LatencySummary {
    /// Summarizes a sample set. The input is sorted in place; an empty
    /// set produces the `count: 0` summary with every statistic `None`,
    /// so services that completed no jobs still render a well-formed
    /// report without inventing a zero-tick percentile.
    #[must_use]
    pub fn from_samples(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let sum: u64 = samples.iter().sum();
        LatencySummary {
            count: samples.len(),
            mean: Some(sum as f64 / samples.len() as f64),
            p50: Some(nearest_rank(samples, 50)),
            p90: Some(nearest_rank(samples, 90)),
            p99: Some(nearest_rank(samples, 99)),
            max: Some(*samples.last().expect("non-empty")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_percentiles() {
        let s = LatencySummary::from_samples(&mut []);
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, None);
        assert_eq!(s.p99, None);
        assert_eq!(s.mean, None);
        assert_eq!(s.max, None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = LatencySummary::from_samples(&mut [7]);
        let all = (s.p50, s.p90, s.p99, s.max);
        assert_eq!(all, (Some(7), Some(7), Some(7), Some(7)));
        assert_eq!(s.mean, Some(7.0));
    }

    #[test]
    fn nearest_rank_matches_hand_computation() {
        // 1..=100: pN is exactly N.
        let mut v: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::from_samples(&mut v);
        assert_eq!(s.p50, Some(50));
        assert_eq!(s.p90, Some(90));
        assert_eq!(s.p99, Some(99));
        assert_eq!(s.max, Some(100));
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut v = vec![30, 10, 20];
        let s = LatencySummary::from_samples(&mut v);
        assert_eq!(s.p50, Some(20));
        assert_eq!(s.max, Some(30));
    }
}
