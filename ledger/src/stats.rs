//! Order statistics.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank ⌈p·n⌉, so `⌊(1−p)·n⌋` samples lie beyond it. `0.0` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of unsorted floats (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of unsorted integer samples, as a float.
pub fn median_u64(values: &[u64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile(&v, 0.5)
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) — the
/// spread the benchmark contract is judged by.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
        // 38 samples: p90 is the 35th.
        let v: Vec<u64> = (1..=38).collect();
        assert_eq!(percentile(&v, 0.9), 35.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_u64(&[5, 1, 9]), 5.0);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0; 10]), 0.0);
        assert_eq!(iqr_share(&[1.0]), 0.0);
    }
}
