//! Shared latency summarization: one statistics type for analytical
//! simulations (`simulate`) and for runtimes that measure real end-to-end
//! latencies (`bw-serve`), so predictions and measurements compare
//! field-for-field.

/// Nearest-rank quantile over an ascending-sorted slice (the convention
/// every report in this workspace uses). Returns 0.0 on an empty slice.
pub(crate) fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)) as usize]
}

/// A latency distribution summary: the percentile set the paper's serving
/// story is judged by (millisecond-scale SLOs hold at the *tail*, §I).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Samples summarized.
    pub count: usize,
    /// Mean latency, seconds.
    pub mean_s: f64,
    /// Median latency.
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
    /// 99.9th percentile.
    pub p999_s: f64,
    /// Largest observed latency.
    pub max_s: f64,
}

impl LatencySummary {
    /// Summarizes an ascending-sorted latency slice.
    pub(crate) fn from_sorted(sorted: &[f64]) -> LatencySummary {
        LatencySummary {
            count: sorted.len(),
            mean_s: if sorted.is_empty() {
                0.0
            } else {
                sorted.iter().sum::<f64>() / sorted.len() as f64
            },
            p50_s: nearest_rank(sorted, 0.50),
            p95_s: nearest_rank(sorted, 0.95),
            p99_s: nearest_rank(sorted, 0.99),
            p999_s: nearest_rank(sorted, 0.999),
            max_s: sorted.last().copied().unwrap_or(0.0),
        }
    }

    /// Summarizes an arbitrary latency sample (sorts a copy).
    pub fn from_unsorted(samples: &[f64]) -> LatencySummary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        Self::from_sorted(&sorted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zero() {
        let s = LatencySummary::from_sorted(&[]);
        assert_eq!(s, LatencySummary::default());
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencySummary::from_sorted(&sorted);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_s, nearest_rank(&sorted, 0.5));
        assert_eq!(s.p99_s, 99.0);
        assert_eq!(s.max_s, 100.0);
        assert!((s.mean_s - 50.5).abs() < 1e-12);
    }

    #[test]
    fn unsorted_matches_sorted() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(
            LatencySummary::from_unsorted(&samples),
            LatencySummary::from_sorted(&sorted)
        );
    }
}
