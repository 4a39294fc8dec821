//! NPU configuration: the synthesis-time parameters of the Brainwave
//! processor family.
//!
//! The paper (§VI) exposes four major synthesis-specialization parameters —
//! data type (precision), native vector size, number of lanes, and number of
//! matrix-vector tile engines — plus secondary sizing (MFU count, register
//! file depths). [`NpuConfig`] captures all of them together with the
//! microarchitectural timing parameters of the simulator, and provides the
//! three production instances of Table III as named constructors.

use bw_bfp::BfpFormat;

/// A complete synthesis-time configuration of a Brainwave NPU instance.
///
/// Construct with [`NpuConfig::builder`] or one of the named instances
/// ([`NpuConfig::bw_s5`], [`NpuConfig::bw_a10`], [`NpuConfig::bw_s10`])
/// matching Table III of the paper.
///
/// # Example
///
/// ```
/// use bw_core::NpuConfig;
///
/// let cfg = NpuConfig::bw_s10();
/// assert_eq!(cfg.mac_count(), 96_000);
/// assert_eq!(cfg.peak_tflops(), 48.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct NpuConfig {
    name: String,
    native_dim: u32,
    lanes: u32,
    tile_engines: u32,
    mfus: u32,
    mrf_entries: u32,
    vrf_entries: u32,
    clock_hz: f64,
    matrix_format: BfpFormat,
    mfu_lanes: u32,
    timing: TimingParams,
}

/// Microarchitectural pipeline-depth and dispatch parameters used by the
/// cycle model. All values are in clock cycles.
///
/// Defaults are calibrated against the paper's published measurements (see
/// `DESIGN.md` §4): the compound-instruction dispatch interval comes from
/// §V-C ("one compound instruction dispatched from the Nios every four clock
/// cycles"); the pipeline depths are fitted so BW_S10 reproduces the
/// per-timestep latencies of Table V.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingParams {
    /// Cycles between successive compound instructions leaving the control
    /// processor (§V-C: 4).
    pub dispatch_interval: u32,
    /// Pipeline depth of a vector register file access (read or write).
    pub vrf_access_depth: u32,
    /// Pipeline depth of the matrix-vector unit: multiplier, accumulation
    /// tree, and inter-tile add-reduction.
    pub mvm_depth: u32,
    /// Pipeline depth of one multifunction-unit operation.
    pub mfu_op_depth: u32,
    /// Additional depth for network input/output queue traversal.
    pub net_depth: u32,
    /// Cycles to transfer one native matrix tile from DRAM into the MRF.
    pub dram_tile_cycles: u32,
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams {
            dispatch_interval: 4,
            vrf_access_depth: 12,
            mvm_depth: 220,
            mfu_op_depth: 24,
            net_depth: 40,
            dram_tile_cycles: 400,
        }
    }
}

/// Error produced when an [`NpuConfigBuilder`] describes an invalid
/// configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A structural parameter that must be non-zero was zero.
    ZeroParameter(&'static str),
    /// The lane count must divide the native dimension so each dot-product
    /// engine streams an integral number of cycles per native vector.
    LanesDontDivideNativeDim {
        /// Configured lane count.
        lanes: u32,
        /// Configured native dimension.
        native_dim: u32,
    },
    /// The clock frequency must be positive and finite.
    BadClock(f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroParameter(p) => write!(f, "parameter `{p}` must be non-zero"),
            ConfigError::LanesDontDivideNativeDim { lanes, native_dim } => write!(
                f,
                "lane count {lanes} must divide native dimension {native_dim}"
            ),
            ConfigError::BadClock(hz) => write!(f, "clock frequency {hz} Hz is not positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl NpuConfig {
    /// Starts building a custom configuration.
    pub fn builder() -> NpuConfigBuilder {
        NpuConfigBuilder::default()
    }

    /// BW_S5: the Stratix V D5 instance of Table III
    /// (6 tiles × 100 native dim × 10 lanes, 200 MHz, 2.4 peak TFLOPS).
    pub fn bw_s5() -> NpuConfig {
        NpuConfig::builder()
            .name("BW_S5")
            .native_dim(100)
            .lanes(10)
            .tile_engines(6)
            .mfus(2)
            .mrf_entries(306)
            .clock_mhz(200.0)
            .build()
            .expect("BW_S5 constants are valid")
    }

    /// BW_A10: the Arria 10 1150 instance of Table III
    /// (8 tiles × 128 native dim × 16 lanes, 300 MHz, 9.8 peak TFLOPS).
    pub fn bw_a10() -> NpuConfig {
        NpuConfig::builder()
            .name("BW_A10")
            .native_dim(128)
            .lanes(16)
            .tile_engines(8)
            .mfus(2)
            .mrf_entries(512)
            .clock_mhz(300.0)
            .build()
            .expect("BW_A10 constants are valid")
    }

    /// BW_S10: the Stratix 10 280 instance of Table III
    /// (6 tiles × 400 native dim × 40 lanes, 250 MHz, 48 peak TFLOPS,
    /// 96,000 MACs) — the configuration evaluated throughout §VII.
    pub fn bw_s10() -> NpuConfig {
        NpuConfig::builder()
            .name("BW_S10")
            .native_dim(400)
            .lanes(40)
            .tile_engines(6)
            .mfus(2)
            .mrf_entries(306)
            .clock_mhz(250.0)
            .build()
            .expect("BW_S10 constants are valid")
    }

    /// The BW_CNN_A10 variant used for the ResNet-50 featurizer of Table VI:
    /// the Arria 10 datapath specialized with the 5-bit-mantissa BFP format,
    /// its MFU stream widened to one native vector per cycle for the
    /// position-heavy layers (§VII-B2's "increasing MFU resources").
    pub fn bw_cnn_a10() -> NpuConfig {
        NpuConfig::builder()
            .name("BW_CNN_A10")
            .native_dim(128)
            .lanes(16)
            .tile_engines(8)
            .mfus(2)
            .mrf_entries(1024)
            .mfu_lanes(128)
            .clock_mhz(300.0)
            .matrix_format(BfpFormat::BFP_1S_5E_5M)
            .build()
            .expect("BW_CNN_A10 constants are valid")
    }

    /// Human-readable instance name (e.g. `"BW_S10"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The native vector dimension `N`; all ISA vectors are length `N` and
    /// matrices are `N × N` tiles.
    #[inline]
    pub fn native_dim(&self) -> u32 {
        self.native_dim
    }

    /// Parallel multiplier lanes per dot-product engine.
    #[inline]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Number of matrix-vector tile engines.
    #[inline]
    pub fn tile_engines(&self) -> u32 {
        self.tile_engines
    }

    /// Number of multifunction units in the vector pipeline.
    #[inline]
    pub fn mfus(&self) -> u32 {
        self.mfus
    }

    /// Matrix register file capacity, in native `N × N` tile entries.
    #[inline]
    pub fn mrf_entries(&self) -> u32 {
        self.mrf_entries
    }

    /// Capacity of each vector register file, in native vector entries.
    #[inline]
    pub fn vrf_entries(&self) -> u32 {
        self.vrf_entries
    }

    /// Clock frequency in hertz.
    #[inline]
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// The block floating point format weights are stored in.
    #[inline]
    pub fn matrix_format(&self) -> BfpFormat {
        self.matrix_format
    }

    /// The timing parameters of the cycle model.
    #[inline]
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Vector-pipeline (MFU) lane width in elements per cycle. Defaults to
    /// the MVM lane count; CNN-specialized instances widen it so the MFU
    /// stream keeps up with many small tile grids (§VII-B2's "increasing
    /// MFU resources" direction).
    #[inline]
    pub fn mfu_lanes(&self) -> u32 {
        self.mfu_lanes
    }

    /// Cycles for the MFU pipeline to stream one native vector:
    /// `ceil(native_dim / mfu_lanes)`.
    #[inline]
    pub(crate) fn mfu_stream_cycles(&self) -> u32 {
        self.native_dim.div_ceil(self.mfu_lanes)
    }

    /// Total multiply-accumulate units:
    /// `tile_engines × native_dim × lanes` (96,000 for BW_S10).
    #[inline]
    pub fn mac_count(&self) -> u64 {
        u64::from(self.tile_engines) * u64::from(self.native_dim) * u64::from(self.lanes)
    }

    /// Peak floating point operations per cycle (`2 × mac_count`), matching
    /// the paper's throughput expression in §V-A.
    #[inline]
    pub fn peak_flops_per_cycle(&self) -> u64 {
        2 * self.mac_count()
    }

    /// Peak teraflops at the configured clock.
    #[inline]
    pub fn peak_tflops(&self) -> f64 {
        self.peak_flops_per_cycle() as f64 * self.clock_hz / 1e12
    }

    /// Cycles for one dot-product engine to stream one native vector:
    /// `native_dim / lanes` (10 on BW_S10).
    #[inline]
    pub(crate) fn tile_stream_cycles(&self) -> u32 {
        self.native_dim / self.lanes
    }

    /// Converts a cycle count to seconds at the configured clock.
    #[inline]
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz
    }

    /// On-chip MRF storage in bytes, given the matrix BFP format.
    pub fn mrf_bytes(&self) -> u64 {
        let per_tile = self
            .matrix_format
            .storage_bytes(u64::from(self.native_dim) * u64::from(self.native_dim));
        per_tile * u64::from(self.mrf_entries)
    }
}

/// Builder for [`NpuConfig`]; see [`NpuConfig::builder`].
#[derive(Clone, Debug)]
pub struct NpuConfigBuilder {
    name: String,
    native_dim: u32,
    lanes: u32,
    tile_engines: u32,
    mfus: u32,
    mrf_entries: u32,
    vrf_entries: u32,
    clock_hz: f64,
    matrix_format: BfpFormat,
    mfu_lanes: Option<u32>,
    timing: TimingParams,
}

impl Default for NpuConfigBuilder {
    fn default() -> Self {
        NpuConfigBuilder {
            name: "custom".to_owned(),
            native_dim: 128,
            lanes: 16,
            tile_engines: 4,
            mfus: 2,
            mrf_entries: 512,
            vrf_entries: 4096,
            clock_hz: 250e6,
            matrix_format: BfpFormat::BFP_1S_5E_2M,
            mfu_lanes: None,
            timing: TimingParams::default(),
        }
    }
}

impl NpuConfigBuilder {
    /// Sets the instance name.
    pub fn name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = name.into();
        self
    }

    /// Sets the native vector dimension.
    pub fn native_dim(&mut self, native_dim: u32) -> &mut Self {
        self.native_dim = native_dim;
        self
    }

    /// Sets the lane count per dot-product engine.
    pub fn lanes(&mut self, lanes: u32) -> &mut Self {
        self.lanes = lanes;
        self
    }

    /// Sets the number of matrix-vector tile engines.
    pub fn tile_engines(&mut self, tile_engines: u32) -> &mut Self {
        self.tile_engines = tile_engines;
        self
    }

    /// Sets the number of multifunction units.
    pub fn mfus(&mut self, mfus: u32) -> &mut Self {
        self.mfus = mfus;
        self
    }

    /// Sets the matrix register file capacity in native tile entries.
    pub fn mrf_entries(&mut self, entries: u32) -> &mut Self {
        self.mrf_entries = entries;
        self
    }

    /// Sets each vector register file's capacity in native vector entries.
    pub fn vrf_entries(&mut self, entries: u32) -> &mut Self {
        self.vrf_entries = entries;
        self
    }

    /// Sets the clock frequency in megahertz.
    pub fn clock_mhz(&mut self, mhz: f64) -> &mut Self {
        self.clock_hz = mhz * 1e6;
        self
    }

    /// Sets the weight storage format.
    pub fn matrix_format(&mut self, format: BfpFormat) -> &mut Self {
        self.matrix_format = format;
        self
    }

    /// Widens the vector pipeline to `mfu_lanes` elements per cycle
    /// (defaults to the MVM lane count).
    pub fn mfu_lanes(&mut self, mfu_lanes: u32) -> &mut Self {
        self.mfu_lanes = Some(mfu_lanes);
        self
    }

    /// Overrides the cycle-model timing parameters.
    pub fn timing(&mut self, timing: TimingParams) -> &mut Self {
        self.timing = timing;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any structural parameter is zero, the lane
    /// count does not divide the native dimension, or the clock is not
    /// positive.
    pub fn build(&self) -> Result<NpuConfig, ConfigError> {
        for (value, label) in [
            (self.native_dim, "native_dim"),
            (self.lanes, "lanes"),
            (self.tile_engines, "tile_engines"),
            (self.mfus, "mfus"),
            (self.mrf_entries, "mrf_entries"),
            (self.vrf_entries, "vrf_entries"),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroParameter(label));
            }
        }
        if !self.native_dim.is_multiple_of(self.lanes) {
            return Err(ConfigError::LanesDontDivideNativeDim {
                lanes: self.lanes,
                native_dim: self.native_dim,
            });
        }
        if !(self.clock_hz.is_finite() && self.clock_hz > 0.0) {
            return Err(ConfigError::BadClock(self.clock_hz));
        }
        let mfu_lanes = self.mfu_lanes.unwrap_or(self.lanes);
        if mfu_lanes == 0 {
            return Err(ConfigError::ZeroParameter("mfu_lanes"));
        }
        Ok(NpuConfig {
            name: self.name.clone(),
            native_dim: self.native_dim,
            lanes: self.lanes,
            tile_engines: self.tile_engines,
            mfus: self.mfus,
            mrf_entries: self.mrf_entries,
            vrf_entries: self.vrf_entries,
            clock_hz: self.clock_hz,
            matrix_format: self.matrix_format,
            mfu_lanes,
            timing: self.timing,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_peak_tflops() {
        assert_eq!(NpuConfig::bw_s5().peak_tflops(), 2.4);
        let a10 = NpuConfig::bw_a10().peak_tflops();
        assert!((a10 - 9.83).abs() < 0.01, "A10 peak {a10}");
        assert_eq!(NpuConfig::bw_s10().peak_tflops(), 48.0);
    }

    #[test]
    fn bw_s10_structural_parameters() {
        let cfg = NpuConfig::bw_s10();
        assert_eq!(cfg.native_dim(), 400);
        assert_eq!(cfg.lanes(), 40);
        assert_eq!(cfg.tile_engines(), 6);
        assert_eq!(cfg.mfus(), 2);
        assert_eq!(cfg.mac_count(), 96_000);
        assert_eq!(cfg.tile_stream_cycles(), 10);
        assert_eq!(cfg.peak_flops_per_cycle(), 192_000);
    }

    #[test]
    fn builder_validation() {
        assert_eq!(
            NpuConfig::builder().native_dim(0).build(),
            Err(ConfigError::ZeroParameter("native_dim"))
        );
        assert_eq!(
            NpuConfig::builder().native_dim(100).lanes(33).build(),
            Err(ConfigError::LanesDontDivideNativeDim {
                lanes: 33,
                native_dim: 100
            })
        );
        assert_eq!(
            NpuConfig::builder().clock_mhz(0.0).build(),
            Err(ConfigError::BadClock(0.0))
        );
        assert!(NpuConfig::builder().clock_mhz(f64::NAN).build().is_err());
    }

    #[test]
    fn cycles_to_seconds_at_250mhz() {
        let cfg = NpuConfig::bw_s10();
        assert!((cfg.cycles_to_seconds(250_000) - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn mrf_capacity_accounting() {
        let cfg = NpuConfig::bw_s10();
        // 306 entries of 400x400 BFP(1s.5e.2m) tiles: each tile is 160k
        // elements at ~3.04 bits -> ~60.8 KB; total ~18.6 MB, which fits the
        // ~20 MB of M20K on a Stratix 10 280 at the paper's 69% usage.
        let mb = cfg.mrf_bytes() as f64 / (1024.0 * 1024.0);
        assert!((17.0..20.0).contains(&mb), "MRF {mb} MiB");
    }

    #[test]
    fn cnn_variant_uses_wide_mantissa() {
        let cfg = NpuConfig::bw_cnn_a10();
        assert_eq!(cfg.matrix_format().mantissa_bits(), 5);
        assert_eq!(cfg.name(), "BW_CNN_A10");
    }

    #[test]
    fn default_timing_matches_paper_dispatch_rate() {
        assert_eq!(TimingParams::default().dispatch_interval, 4);
    }
}
