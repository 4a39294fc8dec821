//! The Intel FPGA device catalog (§VII-A).

/// An FPGA device's resource envelope.
///
/// The three devices the paper targets span three process generations; the
/// resource totals below are the public device datasheet values, consistent
/// with Table III's utilization percentages (e.g. 845,719 ALMs reported as
/// 91% of a Stratix 10 280's 933,120).
#[derive(Clone, Debug, PartialEq)]
pub struct Device {
    /// Marketing name, e.g. `"Stratix 10 280"`.
    pub name: &'static str,
    /// Adaptive logic modules available.
    pub alms: u64,
    /// M20K block RAMs available (20 kilobits each).
    pub m20ks: u64,
    /// Hardened DSP blocks available.
    pub dsps: u64,
    /// Achievable BW NPU clock on this generation, in MHz (Table III).
    pub clock_mhz: f64,
    /// Measured peak chip power in watts (125 W for Stratix 10 280,
    /// §VII-B4; others scaled by device size and process).
    pub peak_watts: f64,
}

impl Device {
    /// The Stratix V D5 of BW_S5.
    pub fn stratix_v_d5() -> Device {
        Device {
            name: "Stratix V D5",
            alms: 172_600,
            m20ks: 2_014,
            dsps: 1_590,
            clock_mhz: 200.0,
            peak_watts: 45.0,
        }
    }

    /// The Arria 10 1150 of BW_A10.
    pub fn arria_10_1150() -> Device {
        Device {
            name: "Arria 10 1150",
            alms: 427_200,
            m20ks: 2_713,
            dsps: 1_518,
            clock_mhz: 300.0,
            peak_watts: 70.0,
        }
    }

    /// The Stratix 10 280 of BW_S10 (pre-production silicon in the paper).
    pub fn stratix_10_280() -> Device {
        Device {
            name: "Stratix 10 280",
            alms: 933_120,
            m20ks: 11_721,
            dsps: 5_760,
            clock_mhz: 250.0,
            peak_watts: 125.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_percentages_are_consistent_with_catalog() {
        // Table III reports absolute usage and percentage; the catalog's
        // totals must make those pairs agree within 2%.
        let cases = [
            (
                Device::stratix_v_d5(),
                149_641u64,
                0.87,
                1_192u64,
                0.59,
                1_047u64,
                0.66,
            ),
            (
                Device::arria_10_1150(),
                216_602,
                0.51,
                2_171,
                0.80,
                1_518,
                1.00,
            ),
            (
                Device::stratix_10_280(),
                845_719,
                0.91,
                8_192,
                0.69,
                5_245,
                0.91,
            ),
        ];
        for (dev, alms, alm_pct, m20ks, m20k_pct, dsps, dsp_pct) in cases {
            let got_alm = alms as f64 / dev.alms as f64;
            let got_m20k = m20ks as f64 / dev.m20ks as f64;
            let got_dsp = dsps as f64 / dev.dsps as f64;
            assert!(
                (got_alm - alm_pct).abs() < 0.02,
                "{}: ALM {got_alm}",
                dev.name
            );
            assert!(
                (got_m20k - m20k_pct).abs() < 0.02,
                "{}: M20K {got_m20k}",
                dev.name
            );
            assert!(
                (got_dsp - dsp_pct).abs() < 0.02,
                "{}: DSP {got_dsp}",
                dev.name
            );
        }
    }

    #[test]
    fn on_chip_memory_capacity() {
        // Stratix 10 280: ~28.6 MiB of M20K (20 kilobits each) — enough
        // to pin a 2000-dim LSTM's 32M parameters in narrow BFP, per §V-A.
        let s10 = Device::stratix_10_280();
        let mib = (s10.m20ks * 2_560) as f64 / (1024.0 * 1024.0);
        assert!((27.0..30.0).contains(&mib), "{mib} MiB");
    }
}
