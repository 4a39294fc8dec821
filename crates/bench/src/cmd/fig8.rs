//! Regenerates Figure 8: utilization scaling with batch size.
//!
//! BW executes a single input at a time, so its utilization is flat in
//! batch (verified by actually simulating sequential multi-request
//! execution); the GPU's utilization climbs with batch per the analytic
//! model anchored at the published batch-1 points.

use bw_baselines::{titan_xp_point, GpuBatchModel, TITAN_XP};
use bw_bench::{bw_s10_sized, render_table, run_bw_s10};
use bw_core::{ExecMode, Npu, NpuConfig};
use bw_models::{table5_suite, Gru, Lstm, RnnBenchmark, RnnKind};

/// Simulated BW utilization at a given batch size: the NPU serves the
/// requests back to back (§VII-B3: "BW executes a single input at a time").
fn bw_utilization(bench: &RnnBenchmark, batch: u32) -> f64 {
    let mut back_to_back = *bench;
    back_to_back.timesteps *= batch;
    run_bw_s10(&back_to_back).utilization_pct
}

/// Simulated utilization of the batch-interleaved firmware — the §VII-B3
/// future-work optimization ("interleaving the computation for each RNN
/// timestep among all input batches").
fn interleaved_utilization(bench: &RnnBenchmark, batch: u32) -> f64 {
    let stats = match bench.kind {
        RnnKind::Lstm => {
            let cfg =
                bw_s10_sized(Lstm::new(&NpuConfig::bw_s10(), bench.dims()).mrf_entries_required());
            let lstm = Lstm::new(&cfg, bench.dims());
            let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
            lstm.run_timing_only_batched(&mut npu, bench.timesteps, batch)
                .expect("sized")
        }
        RnnKind::Gru => {
            let cfg =
                bw_s10_sized(Gru::new(&NpuConfig::bw_s10(), bench.dims()).mrf_entries_required());
            let gru = Gru::new(&cfg, bench.dims());
            let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
            gru.run_timing_only_batched(&mut npu, bench.timesteps, batch)
                .expect("sized")
        }
    };
    stats.effective_utilization(bench.ops() * u64::from(batch)) * 100.0
}

pub fn run() {
    let batches = [1u32, 2, 4, 32];
    // The subset of layers Figure 8 plots (medium and large dims; the
    // t=1500/t=750 layers are truncated to keep run time modest — per-step
    // behaviour is batch-independent).
    let layers: Vec<RnnBenchmark> = table5_suite()
        .into_iter()
        .filter(|b| b.hidden >= 1024)
        .map(|mut b| {
            b.timesteps = b.timesteps.min(50);
            b
        })
        .collect();

    let mut rows = Vec::new();
    for bench in &layers {
        let xp_b1 = titan_xp_point(&RnnBenchmark::new(bench.kind, bench.hidden, {
            // Utilization is per-step; look up via the canonical suite entry.
            table5_suite()
                .into_iter()
                .find(|c| c.kind == bench.kind && c.hidden == bench.hidden)
                .expect("subset of the suite")
                .timesteps
        }))
        .expect("dataset covers the suite");
        let gpu = GpuBatchModel::from_point(&xp_b1, TITAN_XP.peak_tflops);

        let mut bw_cells = Vec::new();
        let mut gpu_cells = Vec::new();
        let mut il_cells = Vec::new();
        for &b in &batches {
            bw_cells.push(format!("{:.1}", bw_utilization(bench, b)));
            gpu_cells.push(format!("{:.1}", gpu.utilization(b) * 100.0));
            il_cells.push(format!("{:.1}", interleaved_utilization(bench, b)));
        }
        rows.push(
            std::iter::once(format!("{} {}", bench.kind, bench.hidden))
                .chain(std::iter::once("BW (sim)".to_owned()))
                .chain(bw_cells)
                .collect(),
        );
        rows.push(
            std::iter::once(String::new())
                .chain(std::iter::once("BW interleaved".to_owned()))
                .chain(il_cells)
                .collect(),
        );
        rows.push(
            std::iter::once(String::new())
                .chain(std::iter::once("Titan Xp".to_owned()))
                .chain(gpu_cells)
                .collect(),
        );
    }

    println!("Figure 8: % utilization vs. batch size");
    println!("(BW utilization is flat — it serves requests one at a time; the GPU");
    println!(" needs batching to fill its SMs. 'BW interleaved' implements the");
    println!(" paper's §VII-B3 future-work timestep interleaving for LSTMs.)\n");
    println!(
        "{}",
        render_table(&["layer", "device", "b=1", "b=2", "b=4", "b=32"], &rows)
    );

    // Consistency check against the single-request harness.
    let check = run_bw_s10(&table5_suite()[2]);
    println!(
        "cross-check: GRU-2048 single-request utilization {:.1}%",
        check.utilization_pct
    );
}
