//! Ablation studies of the design choices the paper argues for.
//!
//! Three sweeps, each isolating one synthesis/microarchitecture knob on
//! the calibrated simulator:
//!
//! 1. **Native dimension** (§IV-C, §VI): "a too-large vector requires
//!    inefficient padding, whereas a too-small vector increases control
//!    overhead" — utilization vs. native dim for a fixed model.
//! 2. **Dispatch interval** (§V-C): how fast must the control processor
//!    stream compound instructions before HDD buffering stops hiding it.
//! 3. **Clock frequency** (§IX): "As we push the frequency ... performance
//!    will grow but efficiencies will drop with increased pipeline
//!    bubbles" — logic delay is fixed in wall-clock terms, so pipeline
//!    depths in cycles scale with frequency.

use crate::render_table;
use bw_core::{ExecMode, Npu, NpuConfig, TimingParams};
use bw_models::{Gru, RnnDims};

/// Runs a GRU benchmark on a custom configuration; returns
/// (latency_ms, utilization_pct).
fn run_gru(cfg: NpuConfig, hidden: usize, steps: u32) -> (f64, f64) {
    let dims = RnnDims::square(hidden);
    let gru = Gru::new(&cfg, dims);
    let cfg = NpuConfig::builder()
        .name(cfg.name())
        .native_dim(cfg.native_dim())
        .lanes(cfg.lanes())
        .tile_engines(cfg.tile_engines())
        .mrf_entries(gru.mrf_entries_required().max(cfg.mrf_entries()))
        .vrf_entries(4096)
        .clock_mhz(cfg.clock_hz() / 1e6)
        .matrix_format(cfg.matrix_format())
        .timing(*cfg.timing())
        .build()
        .expect("ablation configuration is valid");
    let gru = Gru::new(&cfg, dims);
    let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
    let stats = gru.run_timing_only(&mut npu, steps).expect("sized");
    let ops = gru.ops(steps);
    (stats.latency_ms(), stats.effective_utilization(ops) * 100.0)
}

fn native_dim_ablation(out: &mut String) {
    outln!(
        out,
        "1. native dimension vs. utilization (GRU h=1024, t=100, ~96k MACs)\n"
    );
    let mut rows = Vec::new();
    // Keep the MAC budget ~constant while sweeping the native dimension.
    for (nd, lanes, tiles) in [
        (100u32, 10u32, 96u32),
        (128, 16, 47),
        (200, 20, 24),
        (256, 32, 12),
        (400, 40, 6),
        (512, 32, 6),
    ] {
        let cfg = NpuConfig::builder()
            .name(format!("nd{nd}"))
            .native_dim(nd)
            .lanes(lanes)
            .tile_engines(tiles)
            .mrf_entries(4096)
            .clock_mhz(250.0)
            .build()
            .expect("valid");
        let macs = cfg.mac_count();
        let (lat, util) = run_gru(cfg, 1024, 100);
        let padded = (1024u64.div_ceil(u64::from(nd)) * u64::from(nd)) as f64;
        rows.push(vec![
            nd.to_string(),
            macs.to_string(),
            format!("{:.0}%", (1024.0 / padded) * (1024.0 / padded) * 100.0),
            format!("{lat:.3}"),
            format!("{util:.1}"),
        ]);
    }
    outln!(
        out,
        "{}",
        render_table(
            &["native dim", "MACs", "pad eff", "latency ms", "% util"],
            &rows
        )
    );
    outln!(
        out,
        "Shape: mid-sized native dims win — large tiles waste MACs on padding\n\
         (1024 = 2.56 x 400), tiny tiles multiply per-chain control overhead.\n"
    );
}

fn dispatch_ablation(out: &mut String) {
    outln!(
        out,
        "2. control-processor dispatch interval (GRU h=512 vs h=2816, t=50)\n"
    );
    let mut rows = Vec::new();
    for interval in [1u32, 2, 4, 8, 16, 32] {
        let timing = TimingParams {
            dispatch_interval: interval,
            ..TimingParams::default()
        };
        let mk = || {
            let mut b = NpuConfig::builder();
            b.native_dim(400)
                .lanes(40)
                .tile_engines(6)
                .mrf_entries(4096)
                .clock_mhz(250.0)
                .timing(timing);
            b.build().expect("valid")
        };
        let (lat_small, _) = run_gru(mk(), 512, 50);
        let (lat_large, _) = run_gru(mk(), 2816, 50);
        rows.push(vec![
            interval.to_string(),
            format!("{:.4}", lat_small),
            format!("{:.4}", lat_large),
        ]);
    }
    outln!(
        out,
        "{}",
        render_table(&["cycles/instr", "GRU-512 ms", "GRU-2816 ms"], &rows)
    );
    outln!(
        out,
        "Shape: at the paper's 4 cycles/instruction the Nios is never the\n\
         bottleneck; small models begin to feel dispatch beyond ~8-16 cycles\n\
         while large tiled instructions amortize it — the HDD design point.\n"
    );
}

fn frequency_ablation(out: &mut String) {
    outln!(
        out,
        "3. clock frequency vs. efficiency (GRU h=2816, t=50)\n"
    );
    let base = TimingParams::default();
    let mut rows = Vec::new();
    for mhz in [125.0f64, 250.0, 375.0, 500.0, 750.0] {
        // Fixed wall-clock logic delay: depths in cycles scale with f.
        let scale = mhz / 250.0;
        let timing = TimingParams {
            dispatch_interval: base.dispatch_interval,
            vrf_access_depth: (f64::from(base.vrf_access_depth) * scale).round() as u32,
            mvm_depth: (f64::from(base.mvm_depth) * scale).round() as u32,
            mfu_op_depth: (f64::from(base.mfu_op_depth) * scale).round() as u32,
            net_depth: (f64::from(base.net_depth) * scale).round() as u32,
            dram_tile_cycles: base.dram_tile_cycles,
        };
        let mut b = NpuConfig::builder();
        b.native_dim(400)
            .lanes(40)
            .tile_engines(6)
            .mrf_entries(4096)
            .clock_mhz(mhz)
            .timing(timing);
        let (lat, util) = run_gru(b.build().expect("valid"), 2816, 50);
        rows.push(vec![
            format!("{mhz:.0}"),
            format!("{lat:.4}"),
            format!("{util:.1}"),
            format!("{:.1}", 48.0 * mhz / 250.0 * util / 100.0),
        ]);
    }
    outln!(
        out,
        "{}",
        render_table(&["MHz", "latency ms", "% util", "effective TF"], &rows)
    );
    outln!(
        out,
        "Shape (§IX): raw performance grows with frequency but sub-linearly —\n\
         deeper pipelines (in cycles) expose more dependent-chain latency, so\n\
         utilization falls. \"The NPU space must find the best balance of\n\
         frequency and efficiency.\""
    );
}

/// Builds the ablation report: utilization against native dimension,
/// dispatch interval and clock frequency.
pub fn ablations_report() -> String {
    let mut out = String::new();
    outln!(out, "Ablations of the Brainwave design choices\n");
    native_dim_ablation(&mut out);
    dispatch_ablation(&mut out);
    frequency_ablation(&mut out);
    out
}
