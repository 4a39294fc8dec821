//! Analytic resource estimation for BW NPU configurations.
//!
//! Substitutes for Quartus synthesis (see `DESIGN.md`): an area model whose
//! coefficients are fitted to the paper's three post-fit data points
//! (Table III). The model is interpretable rather than curve-fit per
//! device:
//!
//! * **ALMs** — a fixed shell/scheduler/control base plus a per-MAC soft
//!   logic cost that grows with mantissa width (narrow multipliers "map
//!   extremely efficiently onto lookup tables", §VI);
//! * **DSPs** — MACs divided by a packing factor that improves as mantissas
//!   narrow ("packing 2 or 3 bit multiplications into DSP blocks", §VI);
//! * **M20Ks** — the MRF footprint at the configured BFP width, with a
//!   fitted overhead factor for VRFs, instruction buffers, and I/O queues.

use bw_core::NpuConfig;

use crate::device::Device;

/// Fixed ALM cost of the shell, schedulers, decoders, and scalar control
/// processor, independent of datapath scale.
const BASE_ALMS: f64 = 20_000.0;
/// Soft-logic ALMs per MAC per mantissa bit (fit to Table III: 8.6 ALM/MAC
/// at 2 bits on Stratix 10, 21.6 at 5 bits on Stratix V).
const ALMS_PER_MAC_PER_BIT: f64 = 4.33;
/// MACs per DSP block: `36 / mantissa_bits - 1.2` (fit: 6.0 at 5 bits,
/// 16.8 at 2 bits).
fn macs_per_dsp(mantissa_bits: f64) -> f64 {
    36.0 / mantissa_bits - 1.2
}
/// Overhead factor on MRF M20Ks for VRFs, queues, and buffers.
const M20K_OVERHEAD: f64 = 1.2;
/// Fixed M20Ks for network I/O and instruction memory.
const M20K_BASE: f64 = 150.0;

/// An estimated resource footprint for one NPU configuration on one device.
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceEstimate {
    /// Adaptive logic modules used.
    pub alms: u64,
    /// M20K block RAMs used.
    pub m20ks: u64,
    /// DSP blocks used.
    pub dsps: u64,
    /// Peak teraflops at the device clock.
    pub peak_tflops: f64,
}

impl ResourceEstimate {
    /// Estimates the footprint of `config` assuming the device's clock.
    pub fn for_config(config: &NpuConfig, device: &Device) -> ResourceEstimate {
        let macs = config.mac_count() as f64;
        let m = f64::from(config.matrix_format().mantissa_bits());
        let alms = BASE_ALMS + macs * ALMS_PER_MAC_PER_BIT * m;
        let dsps = (macs / macs_per_dsp(m)).ceil();
        let m20ks = (config.mrf_bytes() as f64 / 2_560.0) * M20K_OVERHEAD + M20K_BASE;
        let peak_tflops = 2.0 * macs * device.clock_mhz * 1e6 / 1e12;
        ResourceEstimate {
            alms: alms as u64,
            m20ks: m20ks.ceil() as u64,
            dsps: dsps as u64,
            peak_tflops,
        }
    }

    /// Returns `true` if the estimate fits within the device.
    pub fn fits(&self, device: &Device) -> bool {
        self.alms <= device.alms && self.m20ks <= device.m20ks && self.dsps <= device.dsps
    }

    /// Utilization fractions `(alm, m20k, dsp)` against a device.
    pub fn utilization(&self, device: &Device) -> (f64, f64, f64) {
        (
            self.alms as f64 / device.alms as f64,
            self.m20ks as f64 / device.m20ks as f64,
            self.dsps as f64 / device.dsps as f64,
        )
    }
}

/// Power efficiency in GFLOPS/W at a given effective throughput — §VII-B4
/// estimates 287 GFLOPS/W for BW_S10 at high utilization against the 125 W
/// peak-power measurement.
pub fn gflops_per_watt(effective_tflops: f64, device: &Device) -> f64 {
    effective_tflops * 1000.0 / device.peak_watts
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_bfp::BfpFormat;

    fn with_format(cfg: NpuConfig, m: u8) -> NpuConfig {
        let mut b = NpuConfig::builder();
        b.name(cfg.name())
            .native_dim(cfg.native_dim())
            .lanes(cfg.lanes())
            .tile_engines(cfg.tile_engines())
            .mfus(cfg.mfus())
            .mrf_entries(cfg.mrf_entries())
            .clock_mhz(cfg.clock_hz() / 1e6)
            .matrix_format(BfpFormat::new(5, m, 128).unwrap());
        b.build().unwrap()
    }

    #[test]
    fn reproduces_table3_within_tolerance() {
        // (config, mantissa bits, device, paper ALMs, M20Ks, DSPs)
        let cases = [
            (
                with_format(NpuConfig::bw_s5(), 5),
                Device::stratix_v_d5(),
                149_641u64,
                1_192u64,
                1_047u64,
            ),
            (
                with_format(NpuConfig::bw_a10(), 3),
                Device::arria_10_1150(),
                216_602,
                2_171,
                1_518,
            ),
            (
                with_format(NpuConfig::bw_s10(), 2),
                Device::stratix_10_280(),
                845_719,
                8_192,
                5_245,
            ),
        ];
        for (cfg, dev, alms, m20ks, dsps) in cases {
            let est = ResourceEstimate::for_config(&cfg, &dev);
            let alm_err = (est.alms as f64 - alms as f64).abs() / alms as f64;
            let m20k_err = (est.m20ks as f64 - m20ks as f64).abs() / m20ks as f64;
            let dsp_err = (est.dsps as f64 - dsps as f64).abs() / dsps as f64;
            assert!(alm_err < 0.10, "{}: ALM {} vs {alms}", cfg.name(), est.alms);
            assert!(
                m20k_err < 0.15,
                "{}: M20K {} vs {m20ks}",
                cfg.name(),
                est.m20ks
            );
            assert!(dsp_err < 0.12, "{}: DSP {} vs {dsps}", cfg.name(), est.dsps);
            assert!(est.fits(&dev), "{} must fit its device", cfg.name());
        }
    }

    #[test]
    fn peak_tflops_match_table3() {
        let est = ResourceEstimate::for_config(&NpuConfig::bw_s10(), &Device::stratix_10_280());
        assert_eq!(est.peak_tflops, 48.0);
        let est = ResourceEstimate::for_config(&NpuConfig::bw_s5(), &Device::stratix_v_d5());
        assert_eq!(est.peak_tflops, 2.4);
    }

    #[test]
    fn narrower_mantissas_shrink_logic() {
        let wide = with_format(NpuConfig::bw_s10(), 5);
        let narrow = with_format(NpuConfig::bw_s10(), 2);
        let dev = Device::stratix_10_280();
        let we = ResourceEstimate::for_config(&wide, &dev);
        let ne = ResourceEstimate::for_config(&narrow, &dev);
        assert!(we.alms > ne.alms);
        assert!(we.dsps > ne.dsps);
        // The 96,000-MAC datapath only fits at narrow precision (§VI).
        assert!(!we.fits(&dev));
        assert!(ne.fits(&dev));
    }

    #[test]
    fn power_efficiency_matches_section7b4() {
        // 35.9 effective TFLOPS at 125 W ≈ 287 GFLOPS/W.
        let g = gflops_per_watt(35.9, &Device::stratix_10_280());
        assert!((285.0..290.0).contains(&g), "{g}");
    }

    #[test]
    fn utilization_fractions() {
        let dev = Device::stratix_10_280();
        let est = ResourceEstimate::for_config(&NpuConfig::bw_s10(), &dev);
        let (a, m, d) = est.utilization(&dev);
        assert!((0.8..1.0).contains(&a));
        assert!((0.6..0.85).contains(&m));
        assert!((0.8..1.0).contains(&d));
    }
}
