//! Regenerates the §VII-B4 power-efficiency estimate: GFLOPS/W at the
//! measured peak chip power.

use crate::run_bw_s10;
use bw_fpga::{gflops_per_watt, Device};
use bw_models::table5_suite;

/// Builds the §VII-B4 power-efficiency report.
pub fn power_report() -> String {
    let mut out = String::new();
    let s10 = Device::stratix_10_280();
    outln!(out, "Power efficiency (§VII-B4)\n");
    outln!(
        out,
        "peak chip power (power-virus measurement in the paper): {:.0} W",
        s10.peak_watts
    );

    // The paper's conservative estimate uses the large-model effective
    // throughput against peak power.
    let best = table5_suite()
        .iter()
        .map(run_bw_s10)
        .max_by(|a, b| a.tflops.partial_cmp(&b.tflops).expect("finite"))
        .expect("non-empty suite");
    let eff = gflops_per_watt(best.tflops, &s10);
    outln!(
        out,
        "best simulated effective throughput: {:.1} TFLOPS on {}",
        best.tflops,
        best.bench.name()
    );
    outln!(out, "simulated power efficiency: {eff:.0} GFLOPS/W");
    outln!(
        out,
        "paper: 35.9 TFLOPS at 125 W -> {:.0} GFLOPS/W",
        gflops_per_watt(35.9, &s10)
    );
    outln!(
        out,
        "\nfor context, the Titan Xp's batch-1 figure is {:.1} GFLOPS/W (0.40 TFLOPS / 250 W).",
        0.40 * 1000.0 / 250.0
    );
    out
}
