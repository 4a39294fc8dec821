//! Regenerates Table IV: the experiment hardware specifications.

use crate::render_table;
use bw_baselines::TITAN_XP;
use bw_core::NpuConfig;
use bw_fpga::Device;

/// Builds the Table IV report: the experiment hardware specifications.
pub fn table4_report() -> String {
    let mut out = String::new();
    let bw = NpuConfig::bw_s10();
    let s10 = Device::stratix_10_280();
    let rows = vec![
        vec![
            "Numerical type".to_owned(),
            "Float32".to_owned(),
            format!("BFP ({})", bw.matrix_format()),
        ],
        vec![
            "Peak TFLOPS".to_owned(),
            format!("{:.1}", TITAN_XP.peak_tflops),
            format!("{:.1}", bw.peak_tflops()),
        ],
        vec![
            "TDP (W)".to_owned(),
            format!("{:.0}", TITAN_XP.tdp_watts),
            format!("{:.0}", s10.peak_watts),
        ],
        vec![
            "Process".to_owned(),
            "TSMC 16nm".to_owned(),
            "Intel 14nm".to_owned(),
        ],
        vec![
            "Memory BW (GB/s)".to_owned(),
            format!("{:.1}", TITAN_XP.mem_bw_gbs),
            "on-chip SRAM (TB/s-class)".to_owned(),
        ],
    ];
    outln!(out, "Table IV: experiment hardware specifications\n");
    outln!(out, "{}", render_table(&["", "Titan Xp", "BW_S10"], &rows));
    out
}
