//! Narrow-precision accuracy experiments (§VI).
//!
//! The paper trims BFP mantissas "to as low as 2 to 5 bits with negligible
//! impact on accuracy (within 1-2% of baseline)". Without the production
//! scoring sets we measure the directly observable quantity: how closely
//! the NPU's outputs track the `f32` golden model as the mantissa width
//! varies, over a randomized model and input distribution.

use bw_bfp::{BfpFormat, ErrorStats};
use bw_core::{Npu, NpuConfig, SimError};

use crate::lstm::Lstm;
use crate::reference;
use crate::rnn::{LstmWeights, RnnDims};

/// The accuracy of one precision point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrecisionPoint {
    /// Mantissa bits of the weight/activation BFP format.
    pub mantissa_bits: u8,
    /// Error statistics of the final hidden state against the f32
    /// reference.
    pub stats: ErrorStats,
}

/// Runs an LSTM of dimension `hidden` for `steps` time steps at each
/// mantissa width in `2..=max_mantissa`, comparing the final hidden state
/// against the `f32` reference. All randomness is seeded.
///
/// # Errors
///
/// Returns [`SimError`] if a configuration fails to execute (a bug, for
/// the in-range parameters this accepts).
///
/// # Panics
///
/// Panics if `hidden` is zero, `steps` is zero, or `max_mantissa < 2`.
pub fn lstm_precision_sweep(
    hidden: usize,
    steps: usize,
    max_mantissa: u8,
    seed: u64,
) -> Result<Vec<PrecisionPoint>, SimError> {
    assert!(hidden > 0 && steps > 0, "dimensions must be positive");
    assert!(max_mantissa >= 2, "the paper's narrowest format is 2 bits");

    let dims = RnnDims::square(hidden);
    let weights = LstmWeights::random(dims, seed);
    let inputs: Vec<Vec<f32>> = (0..steps)
        .map(|t| {
            (0..hidden)
                .map(|i| ((t * hidden + i) as f32 * 0.37 + seed as f32 * 0.11).sin() * 0.5)
                .collect()
        })
        .collect();

    // f32 reference trajectory.
    let mut h = vec![0.0f32; hidden];
    let mut c = vec![0.0f32; hidden];
    for x in &inputs {
        let (h2, c2) = reference::lstm_cell(
            &weights.w_x,
            &weights.w_h,
            &weights.bias,
            hidden,
            hidden,
            x,
            &h,
            &c,
        );
        h = h2;
        c = c2;
    }

    let mut points = Vec::new();
    for mantissa in 2..=max_mantissa {
        let cfg = NpuConfig::builder()
            .name(format!("sweep-m{mantissa}"))
            .native_dim(16)
            .lanes(8)
            .tile_engines(2)
            .mrf_entries(4096)
            .vrf_entries(1024)
            .matrix_format(BfpFormat::new(5, mantissa, 128).expect("static widths"))
            .build()
            .expect("sweep configuration is valid");
        let lstm = Lstm::new(&cfg, dims);
        let mut npu = Npu::new(cfg);
        lstm.load_weights(&mut npu, &weights)?;
        let (outputs, _) = lstm.run(&mut npu, &inputs)?;
        let last = outputs.last().expect("steps > 0");
        let stats = ErrorStats::compare(&h, last).expect("equal lengths");
        points.push(PrecisionPoint {
            mantissa_bits: mantissa,
            stats,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_shrinks_monotonically_with_mantissa_width() {
        let points = lstm_precision_sweep(24, 4, 6, 7).unwrap();
        assert_eq!(points.len(), 5);
        for w in points.windows(2) {
            assert!(
                w[1].stats.rmse <= w[0].stats.rmse * 1.25,
                "m{} rmse {} vs m{} rmse {}",
                w[0].mantissa_bits,
                w[0].stats.rmse,
                w[1].mantissa_bits,
                w[1].stats.rmse
            );
        }
        // The widest point is clearly better than the narrowest.
        assert!(points.last().unwrap().stats.rmse < points[0].stats.rmse);
    }

    #[test]
    fn five_bit_mantissas_are_negligible_loss() {
        // §VI: 2-5 bit mantissas with "negligible impact". At 5 bits the
        // final hidden state should track the reference within a few
        // percent of its scale.
        let points = lstm_precision_sweep(32, 6, 5, 3).unwrap();
        let m5 = points.iter().find(|p| p.mantissa_bits == 5).unwrap();
        assert!(m5.stats.snr_db > 20.0, "SNR {} dB", m5.stats.snr_db);
        assert!(m5.stats.max_abs_error < 0.1, "{}", m5.stats.max_abs_error);
    }

    #[test]
    fn two_bit_mantissas_still_bounded() {
        // Even the narrowest production format keeps outputs in range
        // (tanh-bounded, finite, correlated with the reference).
        let points = lstm_precision_sweep(32, 6, 2, 3).unwrap();
        let m2 = &points[0];
        assert!(m2.stats.rmse.is_finite());
        assert!(m2.stats.snr_db > 3.0, "SNR {} dB", m2.stats.snr_db);
    }
}
