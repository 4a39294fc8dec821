//! Quantization-error instrumentation.

/// Summary statistics comparing an approximate signal against a reference.
///
/// Used by the narrow-precision experiments to quantify BFP quantization
/// noise (§VI reports "negligible impact on accuracy (within 1-2% of
/// baseline)"; we measure signal-to-noise directly since we have no
/// production scoring sets).
///
/// # Example
///
/// ```
/// use bw_bfp::ErrorStats;
///
/// let stats = ErrorStats::compare(&[1.0, 2.0], &[1.01, 1.98]).unwrap();
/// assert!(stats.max_abs_error <= 0.021);
/// assert!(stats.snr_db > 30.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorStats {
    /// Largest absolute difference.
    pub max_abs_error: f64,
    /// Largest relative difference among reference elements with magnitude
    /// above `1e-12` (0 when no such element exists).
    pub max_rel_error: f64,
    /// Mean absolute difference.
    pub mean_abs_error: f64,
    /// Root-mean-square difference.
    pub rmse: f64,
    /// Signal-to-noise ratio in decibels; `f64::INFINITY` when the error is
    /// exactly zero.
    pub snr_db: f64,
}

impl ErrorStats {
    /// Compares `actual` against `reference`.
    ///
    /// Returns `None` when the slices differ in length or are empty, since
    /// no meaningful statistic exists in either case.
    pub fn compare(reference: &[f32], actual: &[f32]) -> Option<ErrorStats> {
        if reference.len() != actual.len() || reference.is_empty() {
            return None;
        }
        let mut max_abs = 0.0f64;
        let mut max_rel = 0.0f64;
        let mut sum_abs = 0.0f64;
        let mut sum_sq_err = 0.0f64;
        let mut sum_sq_sig = 0.0f64;
        for (&r, &a) in reference.iter().zip(actual) {
            let err = (f64::from(a) - f64::from(r)).abs();
            max_abs = max_abs.max(err);
            sum_abs += err;
            sum_sq_err += err * err;
            sum_sq_sig += f64::from(r) * f64::from(r);
            if f64::from(r).abs() > 1e-12 {
                max_rel = max_rel.max(err / f64::from(r).abs());
            }
        }
        let n = reference.len() as f64;
        let snr_db = if sum_sq_err == 0.0 {
            f64::INFINITY
        } else if sum_sq_sig == 0.0 {
            f64::NEG_INFINITY
        } else {
            10.0 * (sum_sq_sig / sum_sq_err).log10()
        };
        Some(ErrorStats {
            max_abs_error: max_abs,
            max_rel_error: max_rel,
            mean_abs_error: sum_abs / n,
            rmse: (sum_sq_err / n).sqrt(),
            snr_db,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_signals_have_infinite_snr() {
        let s = ErrorStats::compare(&[1.0, -2.0, 3.0], &[1.0, -2.0, 3.0]).unwrap();
        assert_eq!(s.max_abs_error, 0.0);
        assert_eq!(s.rmse, 0.0);
        assert!(s.snr_db.is_infinite() && s.snr_db > 0.0);
    }

    #[test]
    fn mismatched_or_empty_inputs_return_none() {
        assert!(ErrorStats::compare(&[1.0], &[1.0, 2.0]).is_none());
        assert!(ErrorStats::compare(&[], &[]).is_none());
    }

    #[test]
    fn known_error_statistics() {
        let s = ErrorStats::compare(&[1.0, 2.0, 4.0], &[1.1, 2.0, 4.0]).unwrap();
        assert!((s.max_abs_error - 0.1).abs() < 1e-6);
        assert!((s.max_rel_error - 0.1).abs() < 1e-6);
        assert!((s.mean_abs_error - 0.1 / 3.0).abs() < 1e-6);
        let expected_rmse = (0.01f64 / 3.0).sqrt();
        assert!((s.rmse - expected_rmse).abs() < 1e-6);
    }

    #[test]
    fn zero_reference_with_error_has_neg_infinite_snr() {
        let s = ErrorStats::compare(&[0.0, 0.0], &[0.1, 0.0]).unwrap();
        assert!(s.snr_db.is_infinite() && s.snr_db < 0.0);
        // Relative error skips near-zero reference elements.
        assert_eq!(s.max_rel_error, 0.0);
    }

    #[test]
    fn snr_of_ten_percent_noise() {
        let reference = vec![1.0f32; 100];
        let actual = vec![1.1f32; 100];
        let s = ErrorStats::compare(&reference, &actual).unwrap();
        assert!((s.snr_db - 20.0).abs() < 0.1, "snr {}", s.snr_db);
    }
}
