//! Synthesis specialization (§VI): choosing datapath parameters per model.
//!
//! A soft NPU can pick its native dimension, lane count, tile count, and
//! numeric precision *per model* at synthesis time. This module implements
//! that search: given a device and a model's characteristic dimensions, it
//! enumerates feasible datapaths and maximizes the *effective* peak —
//! raw peak throughput discounted by tile-padding waste.

use bw_core::NpuConfig;

use crate::device::Device;
use crate::estimate::ResourceEstimate;

/// What a model demands of a specialized datapath.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelRequirements {
    /// The matrix dimensions the model multiplies against (e.g. the hidden
    /// sizes of its layers); padding waste is computed against these.
    pub dims: Vec<u64>,
    /// Total weight parameters that must pin on chip.
    pub weight_params: u64,
    /// Smallest mantissa width the model tolerates (§VI: 2–5 bits
    /// validated in production).
    pub min_mantissa_bits: u8,
}

/// The outcome of a specialization search.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecializedDesign {
    /// The chosen configuration.
    pub config: NpuConfig,
    /// Its estimated resource footprint.
    pub estimate: ResourceEstimate,
    /// Fraction of dispatched MACs that are useful model work (1.0 = no
    /// padding waste).
    pub padding_efficiency: f64,
    /// `peak_tflops × padding_efficiency`.
    pub effective_peak_tflops: f64,
}

/// Fraction of a `rows × cols` tile-padded matrix product that is useful
/// when both dimensions pad to multiples of `native_dim`.
pub(crate) fn padding_efficiency(dim: u64, native_dim: u64) -> f64 {
    let padded = dim.div_ceil(native_dim) * native_dim;
    let linear = dim as f64 / padded as f64;
    linear * linear
}

/// Searches the synthesis parameter space for the best datapath for
/// `model` on `device`. Returns `None` if nothing fits (e.g. the weights
/// exceed on-chip memory at every precision).
pub fn specialize(device: &Device, model: &ModelRequirements) -> Option<SpecializedDesign> {
    let mut best: Option<SpecializedDesign> = None;
    let lanes_candidates = [8u32, 10, 16, 20, 25, 32, 40, 50];

    for mantissa in model.min_mantissa_bits..=5 {
        let format = bw_bfp::BfpFormat::new(5, mantissa, 128).expect("static widths are valid");
        for native_dim in (50..=500).step_by(10) {
            for &lanes in &lanes_candidates {
                if native_dim % lanes != 0 {
                    continue;
                }
                for tiles in 1..=12u32 {
                    // MRF entries to pin the model: each native tile holds
                    // native_dim^2 parameters.
                    let tile_params = u64::from(native_dim) * u64::from(native_dim);
                    // Account for padding in storage too.
                    let padded_params: u64 = model
                        .dims
                        .iter()
                        .map(|&d| {
                            let p = d.div_ceil(u64::from(native_dim)) * u64::from(native_dim);
                            p * p
                        })
                        .sum::<u64>()
                        .max(model.weight_params);
                    let mrf_entries = padded_params.div_ceil(tile_params).max(1) as u32;

                    let Ok(config) = NpuConfig::builder()
                        .name(format!("{}-specialized", device.name))
                        .native_dim(native_dim)
                        .lanes(lanes)
                        .tile_engines(tiles)
                        .mrf_entries(mrf_entries)
                        .clock_mhz(device.clock_mhz)
                        .matrix_format(format)
                        .build()
                    else {
                        continue;
                    };
                    let estimate = ResourceEstimate::for_config(&config, device);
                    if !estimate.fits(device) {
                        continue;
                    }
                    let eff = if model.dims.is_empty() {
                        1.0
                    } else {
                        model
                            .dims
                            .iter()
                            .map(|&d| padding_efficiency(d, u64::from(native_dim)))
                            .sum::<f64>()
                            / model.dims.len() as f64
                    };
                    let effective = estimate.peak_tflops * eff;
                    if best
                        .as_ref()
                        .is_none_or(|b| effective > b.effective_peak_tflops)
                    {
                        best = Some(SpecializedDesign {
                            config,
                            estimate,
                            padding_efficiency: eff,
                            effective_peak_tflops: effective,
                        });
                    }
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_efficiency_bounds() {
        assert_eq!(padding_efficiency(400, 400), 1.0);
        assert_eq!(padding_efficiency(800, 400), 1.0);
        // 401 pads to 800: efficiency (401/800)^2 ≈ 0.25.
        let e = padding_efficiency(401, 400);
        assert!((0.24..0.26).contains(&e));
        // Small models on large tiles waste almost everything.
        assert!(padding_efficiency(256, 400) < 0.45);
    }

    #[test]
    fn specializing_for_large_gru_fills_stratix10() {
        let model = ModelRequirements {
            dims: vec![2816],
            weight_params: 6 * 2816 * 2816,
            min_mantissa_bits: 2,
        };
        let design = specialize(&Device::stratix_10_280(), &model).expect("fits");
        // The search should find a near-divisor native dim (2816 = 8*352,
        // 2816 = 64*44...) with high efficiency, and tens of TFLOPS.
        assert!(
            design.padding_efficiency > 0.9,
            "{}",
            design.padding_efficiency
        );
        assert!(
            design.effective_peak_tflops > 30.0,
            "{}",
            design.effective_peak_tflops
        );
        assert!(design.config.mac_count() > 50_000);
    }

    #[test]
    fn small_model_prefers_small_native_dim() {
        let model = ModelRequirements {
            dims: vec![256],
            weight_params: 8 * 256 * 256,
            min_mantissa_bits: 2,
        };
        let design = specialize(&Device::stratix_10_280(), &model).expect("fits");
        // 256 pads terribly onto 400-wide tiles (efficiency 0.41); the
        // specializer must trade peak for fit and land well above that.
        assert!(
            design.padding_efficiency > 0.8,
            "{}",
            design.padding_efficiency
        );
        assert!(design.config.native_dim() < 400);
        let baseline = 48.0 * padding_efficiency(256, 400);
        assert!(design.effective_peak_tflops > baseline);
    }

    #[test]
    fn wide_mantissa_requirement_shrinks_the_datapath() {
        let narrow = ModelRequirements {
            dims: vec![1024],
            weight_params: 8 * 1024 * 1024,
            min_mantissa_bits: 2,
        };
        let wide = ModelRequirements {
            min_mantissa_bits: 5,
            ..narrow.clone()
        };
        let dev = Device::stratix_10_280();
        let dn = specialize(&dev, &narrow).unwrap();
        let dw = specialize(&dev, &wide).unwrap();
        assert!(dn.config.mac_count() > dw.config.mac_count());
    }

    #[test]
    fn impossible_model_returns_none() {
        // 10 billion parameters cannot pin on any of these devices.
        let model = ModelRequirements {
            dims: vec![50_000],
            weight_params: 10_000_000_000,
            min_mantissa_bits: 2,
        };
        assert!(specialize(&Device::stratix_v_d5(), &model).is_none());
    }
}
