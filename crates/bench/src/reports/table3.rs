//! Regenerates Table III: hardware implementation results for the three
//! BW NPU instances, from the analytic resource model next to the paper's
//! post-fit figures.

use crate::render_table;
use bw_bfp::BfpFormat;
use bw_core::NpuConfig;
use bw_fpga::{Device, ResourceEstimate};

struct Row {
    cfg: NpuConfig,
    device: Device,
    paper: (u64, u64, u64), // ALMs, M20Ks, DSPs
}

fn with_mantissa(cfg: &NpuConfig, m: u8) -> NpuConfig {
    NpuConfig::builder()
        .name(cfg.name())
        .native_dim(cfg.native_dim())
        .lanes(cfg.lanes())
        .tile_engines(cfg.tile_engines())
        .mfus(cfg.mfus())
        .mrf_entries(cfg.mrf_entries())
        .clock_mhz(cfg.clock_hz() / 1e6)
        .matrix_format(BfpFormat::new(5, m, 128).expect("static widths"))
        .build()
        .expect("Table III instances are valid")
}

/// Builds the Table III report: the analytic resource model of the three
/// NPU instances next to the paper's post-fit figures.
pub fn table3_report() -> String {
    let mut out = String::new();
    let rows = [
        Row {
            cfg: with_mantissa(&NpuConfig::bw_s5(), 5),
            device: Device::stratix_v_d5(),
            paper: (149_641, 1_192, 1_047),
        },
        Row {
            cfg: with_mantissa(&NpuConfig::bw_a10(), 3),
            device: Device::arria_10_1150(),
            paper: (216_602, 2_171, 1_518),
        },
        Row {
            cfg: with_mantissa(&NpuConfig::bw_s10(), 2),
            device: Device::stratix_10_280(),
            paper: (845_719, 8_192, 5_245),
        },
    ];

    let mut table = Vec::new();
    for row in &rows {
        let est = ResourceEstimate::for_config(&row.cfg, &row.device);
        let (ua, um, ud) = est.utilization(&row.device);
        table.push(vec![
            row.cfg.name().to_owned(),
            row.cfg.tile_engines().to_string(),
            row.cfg.lanes().to_string(),
            row.cfg.native_dim().to_string(),
            row.cfg.mrf_entries().to_string(),
            row.cfg.mfus().to_string(),
            row.device.name.to_owned(),
            format!("{} ({:.0}%)", est.alms, ua * 100.0),
            format!("{} ({:.0}%)", est.m20ks, um * 100.0),
            format!("{} ({:.0}%)", est.dsps, ud * 100.0),
            format!("{:.0}", row.device.clock_mhz),
            format!("{:.1}", est.peak_tflops),
        ]);
        table.push(vec![
            "  (paper)".to_owned(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            row.paper.0.to_string(),
            row.paper.1.to_string(),
            row.paper.2.to_string(),
            String::new(),
            String::new(),
        ]);
    }

    outln!(
        out,
        "Table III: hardware implementation results (analytic area model vs. paper post-fit)\n"
    );
    outln!(
        out,
        "{}",
        render_table(
            &[
                "instance", "tiles", "lanes", "dim", "MRF", "MFUs", "device", "ALMs", "M20Ks",
                "DSPs", "MHz", "TFLOPS"
            ],
            &table
        )
    );
    out
}
