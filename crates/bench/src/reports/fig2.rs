//! Regenerates Figure 2: LSTM critical-path operation count and latency as
//! functions of the dimension `N` and the number of functional units.

use crate::render_table;
use bw_dataflow::RnnCriticalPath;

/// Builds the Figure 2 report: LSTM critical-path operation count and
/// latency against the dimension and the number of functional units.
pub fn fig2_report() -> String {
    let mut out = String::new();
    outln!(out, "Figure 2: LSTM critical-path analysis\n");

    // Panel 1: per-step operations and UDM latency vs. dimension.
    let mut rows = Vec::new();
    for n in [256u64, 512, 1024, 2000, 2048, 2816, 4096] {
        let cp = RnnCriticalPath::lstm(n, n);
        rows.push(vec![
            n.to_string(),
            format!("{:.1}M", cp.ops_per_step as f64 / 1e6),
            cp.udm_step_cycles.to_string(),
        ]);
    }
    outln!(
        out,
        "per-step operation count and UDM latency vs. dimension N:"
    );
    outln!(
        out,
        "{}",
        render_table(&["N", "ops/step", "UDM cycles"], &rows)
    );

    // Panel 2: SDM latency vs. functional unit count at N = 2000.
    let cp = RnnCriticalPath::lstm(2000, 2000);
    let mut rows = Vec::new();
    for fu in [
        1_000u64,
        10_000,
        96_000,
        1_000_000,
        10_000_000,
        u64::MAX / 4,
    ] {
        let label = if fu > 1_000_000_000 {
            "unbounded (UDM)".to_owned()
        } else {
            fu.to_string()
        };
        rows.push(vec![label, cp.sdm_cycles(1, fu).to_string()]);
    }
    outln!(out, "SDM latency of one 2000-dim LSTM step vs. #FU (MACs):");
    outln!(out, "{}", render_table(&["#FU", "SDM cycles"], &rows));
    outln!(
        out,
        "The 18x UDM-to-SDM gap at 96,000 MACs ({} vs {} cycles) is the\n\
         \"further performance improvements can be gained with more resources\"\n\
         headroom of §III.",
        cp.udm_step_cycles,
        cp.sdm_cycles(1, 96_000)
    );
    out
}
