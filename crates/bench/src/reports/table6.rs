//! Regenerates Table VI: the ResNet-50-based image featurizer on a
//! CNN-specialized Arria 10 BW NPU vs. the published NVIDIA P40 points.
//!
//! Every one of the featurizer's 53 convolutions is simulated (timing-only)
//! on the BW_CNN_A10 configuration; the end-to-end latency adds the PCIe
//! transfer the paper's measurement includes.

use crate::render_table;
use bw_baselines::{BW_CNN_A10_BATCH1, P40_BATCH1, P40_BATCH16};
use bw_core::{ExecMode, Npu, NpuConfig};
use bw_models::resnet::{resnet50_featurizer, resnet50_ops};
use bw_models::ConvLayer;

/// Host-accelerator PCIe transfer for one 224x224x3 image plus the
/// featurizer output, at PCIe gen3 x8 effective bandwidth (~6 GB/s):
/// ~0.1 ms, matching the paper's note that its latency "includes ... the
/// transfer time over PCI express".
const PCIE_MS: f64 = 0.1;

/// Builds the Table VI report: the ResNet-50 featurizer's 53
/// convolutions, timing-only on BW_CNN_A10, against the published P40
/// points.
pub fn table6_report() -> String {
    let mut out = String::new();
    let layers = resnet50_featurizer();
    let cfg = NpuConfig::bw_cnn_a10();

    let mut total_cycles = 0u64;
    let mut total_macs = 0u64;
    for layer in &layers {
        let conv = ConvLayer::new(&cfg, layer.shape);
        let mut npu = Npu::with_mode(cfg.clone(), ExecMode::TimingOnly);
        let stats = conv
            .run_timing_only(&mut npu, 0)
            .expect("featurizer layers fit the CNN A10 configuration");
        total_cycles += stats.cycles;
        total_macs += stats.mvm_macs;
    }

    let compute_ms = total_cycles as f64 / cfg.clock_hz() * 1e3;
    let latency_ms = compute_ms + PCIE_MS;
    let ips = 1000.0 / latency_ms;
    let ops = resnet50_ops();
    let util = ops as f64 / (total_cycles as f64 * cfg.peak_flops_per_cycle() as f64) * 100.0;

    let rows = vec![
        vec![
            "Technology node".to_owned(),
            "16nm TSMC".to_owned(),
            "20nm TSMC".to_owned(),
        ],
        vec![
            "Precision".to_owned(),
            "INT8".to_owned(),
            format!("BFP ({})", cfg.matrix_format()),
        ],
        vec![
            "IPS (batch 1)".to_owned(),
            format!("{:.0}", P40_BATCH1.ips),
            format!("{ips:.0} (paper {:.0})", BW_CNN_A10_BATCH1.ips),
        ],
        vec![
            "Latency (batch 1)".to_owned(),
            format!("{:.2} ms", P40_BATCH1.latency_ms),
            format!(
                "{latency_ms:.2} ms (paper {:.1} ms)",
                BW_CNN_A10_BATCH1.latency_ms
            ),
        ],
    ];
    outln!(out, "Table VI: ResNet-50 featurizer serving at batch 1\n");
    outln!(
        out,
        "{}",
        render_table(&["", "NVIDIA P40", "BW_CNN_A10 (sim)"], &rows)
    );
    outln!(
        out,
        "simulated detail: {} conv layers, {:.2} GMAC dispatched ({:.2} GMAC useful),\n\
         {} cycles compute = {compute_ms:.2} ms + {PCIE_MS} ms PCIe; effective utilization {util:.0}%",
        layers.len(),
        total_macs as f64 / 1e9,
        ops as f64 / 2e9,
        total_cycles,
    );
    outln!(
        out,
        "\nbatch-16 context (paper §VII-C): the P40 reaches {:.0} IPS but at {:.0} ms per\n\
         batch — the latency/throughput trade the BW NPU avoids.",
        P40_BATCH16.ips,
        P40_BATCH16.latency_ms
    );
    out
}
