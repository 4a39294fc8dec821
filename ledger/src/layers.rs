//! The per-layer metric catalog and the layer probes that need no
//! workload: they time one layer's public calls on the harness thread.

use std::hint::black_box;
use std::time::Instant;

use bw_bfp::{BfpBlock, BfpMatrix, Rounding};
use bw_core::NpuConfig;
use bw_gir::{LowerOptions, ModelArtifact, ShardedArtifact};
use bw_serve::demo::{demo_config, mlp_graph};
use bw_serve::{try_extract_frame, WireRequest, WireResponse};

use crate::pool::SplitMix64;
use crate::serving::{MLP_WIDTHS, MODEL_SEED, SHARD_BUDGET, WIDE_WIDTHS};
use crate::stats::{median, Better};

/// `(name, unit, better)` of every per-layer metric, in `BENCHMARK.json`
/// order. A traced run of any workload reports all of them: the selected
/// workload runs at full size and the other layers' sessions at reduced
/// size, so one traced run is the whole ledger.
pub const PER_LAYER: [(&str, &str, Better); 67] = {
    use Better::{Higher, Lower};
    [
        ("bfp.mv_mul_ns_per_mac", "ns", Lower),
        ("bfp.mv_mul_naive_ns_per_mac", "ns", Lower),
        ("bfp.dot_ns_per_mac", "ns", Lower),
        ("bfp.quantize_ns_per_elem", "ns", Lower),
        ("core.timing_host_ns_per_cycle", "ns", Lower),
        ("core.timing_host_ns_per_chain", "ns", Lower),
        ("core.npu_new_us", "us", Lower),
        ("core.prepare_us", "us", Lower),
        ("models.program_build_us", "us", Lower),
        ("core.full_host_ns_per_cycle", "ns", Lower),
        ("core.full_host_ns_per_mac", "ns", Lower),
        ("core.kernel_share_pct", "%", Higher),
        ("core.reference_ratio", "ratio", Higher),
        ("core.cycles_per_op", "count", Lower),
        ("core.chains_per_op", "count", Lower),
        ("core.instructions_per_op", "count", Lower),
        ("core.mvm_macs_per_op", "count", Lower),
        ("core.mvm_busy_cycles_per_op", "count", Lower),
        ("core.dep_stall_cycles_per_op", "count", Lower),
        ("core.resource_stall_cycles_per_op", "count", Lower),
        ("gir.compile_ms", "ms", Lower),
        ("gir.pin_ms", "ms", Lower),
        ("gir.shard_compile_ms", "ms", Lower),
        ("gir.infer_us", "us", Lower),
        ("gir.infer_batch8_us_per_col", "us", Lower),
        ("gir.batch8_amortization", "ratio", Higher),
        ("serve.spawn_ms", "ms", Lower),
        ("serve.submit_us", "us", Lower),
        ("serve.wait_us", "us", Lower),
        ("serve.queue_wait_us", "us", Lower),
        ("serve.service_us", "us", Lower),
        ("serve.overhead_us", "us", Lower),
        ("serve.overhead_share_pct", "%", Lower),
        ("serve.lat_p99_us", "us", Lower),
        ("serve.lat_max_us", "us", Lower),
        ("serve.loaded_lat_p90_us", "us", Lower),
        ("serve.completed", "count", Higher),
        ("serve.shed", "count", Lower),
        ("serve.failed", "count", Lower),
        ("serve.retries", "count", Lower),
        ("wire.req_encode_ns", "ns", Lower),
        ("wire.req_decode_ns", "ns", Lower),
        ("wire.resp_encode_ns", "ns", Lower),
        ("wire.resp_decode_ns", "ns", Lower),
        ("wire.extract_frame_ns", "ns", Lower),
        ("tcp.connect_us", "us", Lower),
        ("tcp.frontend_overhead_us", "us", Lower),
        ("tcp.lat_p99_us", "us", Lower),
        ("batch.hold_us", "us", Lower),
        ("batch.mean_size", "count", Higher),
        ("batch.loaded_lat_p90_us", "us", Lower),
        ("shard.segments", "count", Lower),
        ("shard.width", "count", Lower),
        ("shard.group_overhead_us", "us", Lower),
        ("shard.vs_single_ratio", "ratio", Lower),
        ("shard.lat_p99_us", "us", Lower),
        ("serve.metrics_snapshot_us", "us", Lower),
        ("serve.prometheus_render_us", "us", Lower),
        ("serve.trace_sample_cost_pct", "%", Lower),
        ("trace.chrome_export_us_per_kspan", "us", Lower),
        ("obs.observe_us", "us", Lower),
        ("fleet.step_us", "us", Lower),
        ("host.canary_ns", "ns", Lower),
        ("host.canary_spread", "ratio", Lower),
        ("trace_overhead_pct", "%", Lower),
        ("trials", "count", Higher),
        ("ops_per_trial", "count", Higher),
    ]
};

/// Metric values by name, in the order they were measured.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} measured twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Median time of one call of `f`, in nanoseconds: `reps` timings of
/// `calls` back-to-back calls each.
pub fn time_ns(reps: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_call)
}

/// What later layers need from the workload-free probes.
pub struct Probes {
    /// `bfp.mv_mul_ns_per_mac`, for `core.kernel_share_pct`.
    pub mv_mul_ns_per_mac: f64,
}

/// Runs the workload-free probes: `bfp.*`, `wire.*` and `gir.*`.
pub fn probe_layers(seed: u64, out: &mut Metrics) -> Probes {
    let mv_mul_ns_per_mac = probe_bfp(seed, out);
    probe_wire(seed, out);
    probe_gir(seed, out);
    Probes { mv_mul_ns_per_mac }
}

/// The BFP kernels on one native tile of the BW_S10 shape (400 × 400).
fn probe_bfp(seed: u64, out: &mut Metrics) -> f64 {
    let cfg = NpuConfig::bw_s10();
    let (n, format) = (cfg.native_dim() as usize, cfg.matrix_format());
    let mut rng = SplitMix64::new(seed);
    let weights: Vec<f32> = (0..n * n).map(|_| rng.next_f32()).collect();
    let x_f32: Vec<f32> = (0..n).map(|_| rng.next_f32()).collect();
    let tile = BfpMatrix::quantize(n, n, &weights, format).expect("tile shape matches its data");
    let x = BfpBlock::quantize(&x_f32, format);
    let row = BfpBlock::quantize(&weights[..n], format);
    let macs = (n * n) as f64;

    let mut y = Vec::new();
    let fast = time_ns(15, 20, || {
        tile.mv_mul_into(black_box(&x), &mut y)
            .expect("shapes agree");
        black_box(&y);
    }) / macs;
    out.put("bfp.mv_mul_ns_per_mac", fast);
    let naive = time_ns(9, 4, || {
        black_box(tile.mv_mul_naive(black_box(&x)).expect("shapes agree"));
    }) / macs;
    out.put("bfp.mv_mul_naive_ns_per_mac", naive);
    let dot = time_ns(15, 2_000, || {
        black_box(row.dot(black_box(&x)).expect("shapes agree"));
    }) / n as f64;
    out.put("bfp.dot_ns_per_mac", dot);
    let mut scratch = BfpBlock::empty(format);
    let quantize = time_ns(15, 2_000, || {
        BfpBlock::quantize_into(black_box(&x_f32), format, Rounding::Nearest, &mut scratch);
        black_box(&scratch);
    }) / n as f64;
    out.put("bfp.quantize_ns_per_elem", quantize);
    fast
}

/// The wire codec on the serving workloads' frames.
fn probe_wire(seed: u64, out: &mut Metrics) {
    let mut rng = SplitMix64::new(seed);
    let req = WireRequest::Infer {
        model: "mlp".to_owned(),
        deadline_us: 2_000_000,
        input: (0..MLP_WIDTHS[0]).map(|_| rng.next_f32()).collect(),
    };
    let resp = WireResponse::Infer {
        request_id: 1,
        latency_us: 20,
        worker: 0,
        retries: 0,
        queue_wait_us: 3,
        service_us: 9,
        npu_cycles: 1_000,
        npu_macs: 4_000,
        dep_stall_cycles: 10,
        resource_stall_cycles: 10,
        network_us: 0,
        output: (0..MLP_WIDTHS[MLP_WIDTHS.len() - 1])
            .map(|_| rng.next_f32())
            .collect(),
    };
    let (req_bytes, resp_bytes) = (req.encode(), resp.encode());
    out.put(
        "wire.req_encode_ns",
        time_ns(15, 5_000, || {
            black_box(black_box(&req).encode());
        }),
    );
    out.put(
        "wire.req_decode_ns",
        time_ns(15, 5_000, || {
            black_box(WireRequest::decode(black_box(&req_bytes)).expect("own encoding decodes"));
        }),
    );
    out.put(
        "wire.resp_encode_ns",
        time_ns(15, 5_000, || {
            black_box(black_box(&resp).encode());
        }),
    );
    out.put(
        "wire.resp_decode_ns",
        time_ns(15, 5_000, || {
            black_box(WireResponse::decode(black_box(&resp_bytes)).expect("own encoding decodes"));
        }),
    );
    // Sixteen request frames in one buffer, as a loaded event loop reads
    // them; the time is per frame.
    const FRAMES: usize = 16;
    let mut stream = Vec::new();
    for _ in 0..FRAMES {
        stream.extend_from_slice(&(req_bytes.len() as u32).to_le_bytes());
        stream.extend_from_slice(&req_bytes);
    }
    let extract = time_ns(15, 300, || {
        let mut buf = stream.clone();
        while let Some(frame) = try_extract_frame(&mut buf).expect("frames are well formed") {
            black_box(frame);
        }
    });
    out.put("wire.extract_frame_ns", extract / FRAMES as f64);
}

/// The toolflow and single-device execution of the serving models.
fn probe_gir(seed: u64, out: &mut Metrics) {
    let (config, opts) = (demo_config(), LowerOptions::default());
    let graph = mlp_graph(&MLP_WIDTHS, MODEL_SEED);
    let compile = |graph| {
        ModelArtifact::compile("mlp", graph, 1 << 24, &config, &opts).expect("demo MLP compiles")
    };
    let artifact = compile(&graph);
    out.put(
        "gir.compile_ms",
        time_ns(9, 1, || {
            black_box(compile(black_box(&graph)));
        }) / 1e6,
    );
    let mut pinned = artifact.pin().expect("demo MLP pins");
    out.put(
        "gir.pin_ms",
        time_ns(9, 1, || {
            black_box(artifact.pin().expect("demo MLP pins"));
        }) / 1e6,
    );
    let wide = mlp_graph(&WIDE_WIDTHS, MODEL_SEED);
    out.put(
        "gir.shard_compile_ms",
        time_ns(5, 1, || {
            black_box(
                ShardedArtifact::compile("wide", black_box(&wide), SHARD_BUDGET, &config, &opts)
                    .expect("wide MLP shards"),
            );
        }) / 1e6,
    );

    let mut rng = SplitMix64::new(seed);
    let inputs: Vec<Vec<f32>> = (0..8)
        .map(|_| (0..MLP_WIDTHS[0]).map(|_| rng.next_f32()).collect())
        .collect();
    let single = time_ns(15, 500, || {
        black_box(pinned.infer(black_box(&inputs[0])).expect("demo MLP runs"));
    }) / 1e3;
    let per_col = time_ns(15, 100, || {
        black_box(
            pinned
                .infer_batch(black_box(&inputs))
                .expect("demo MLP runs"),
        );
    }) / 1e3
        / inputs.len() as f64;
    out.put("gir.infer_us", single);
    out.put("gir.infer_batch8_us_per_col", per_col);
    out.put("gir.batch8_amortization", single / per_col);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        names.extend(crate::trial::END_TO_END.iter().map(|(n, _, _)| *n));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    /// `BENCHMARK.json` is what the driver holds a run's metric names
    /// against; it must say what this catalog says.
    #[test]
    fn benchmark_json_states_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = bw_trace::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| -> Vec<(String, String, String)> {
            let field = |row: &bw_trace::json::Value, f: &str| {
                row.get(f).and_then(|v| v.as_str()).unwrap().to_owned()
            };
            let rows = doc.get(key).and_then(|v| v.as_arr()).unwrap();
            rows.iter()
                .map(|r| (field(r, "name"), field(r, "unit"), field(r, "better")))
                .collect()
        };
        let row = |(name, unit, better): &(&str, &str, Better)| {
            let better = if *better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            (name.to_string(), unit.to_string(), better.to_owned())
        };
        assert_eq!(
            rows("per_layer"),
            PER_LAYER.iter().map(row).collect::<Vec<_>>()
        );
        let end_to_end = crate::trial::END_TO_END.iter().map(row).collect::<Vec<_>>();
        assert_eq!(rows("end_to_end"), end_to_end);
        let command = doc.get("command").and_then(|v| v.as_arr()).unwrap();
        assert!(command
            .iter()
            .any(|v| v.as_str() == Some("ledger/Cargo.toml")));
    }

    #[test]
    fn probes_fill_their_layers() {
        let mut out = Metrics::default();
        let probes = probe_layers(3, &mut out);
        for prefix in ["bfp.", "wire.", "gir."] {
            for (name, _, _) in PER_LAYER.iter().filter(|(n, _, _)| n.starts_with(prefix)) {
                let v = out
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} not measured"));
                assert!(v > 0.0, "{name} = {v}");
            }
        }
        assert_eq!(
            out.get("bfp.mv_mul_ns_per_mac"),
            Some(probes.mv_mul_ns_per_mac)
        );
    }
}
