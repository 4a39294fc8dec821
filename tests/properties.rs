//! Workspace-level property tests: randomized models and programs pushed
//! through the whole stack.

use brainwave::bfp::BfpFormat;
use brainwave::core::{ExecMode, KernelMode, Npu, NpuConfig};
use brainwave::gir::{LowerOptions, ModelArtifact};
use brainwave::models::reference;
use brainwave::models::{Gru, GruWeights, Lstm, LstmWeights, RnnDims};
use brainwave::serve::demo::mlp_graph;
use proptest::prelude::*;

fn small_cfg() -> NpuConfig {
    NpuConfig::builder()
        .native_dim(8)
        .lanes(4)
        .tile_engines(2)
        .mfus(2)
        .mrf_entries(512)
        .vrf_entries(512)
        .matrix_format(BfpFormat::BFP_1S_5E_5M)
        .build()
        .expect("valid test configuration")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any randomly weighted LSTM tracks its f32 reference within
    /// quantization noise, for any dimension and step count in range.
    #[test]
    fn lstm_tracks_reference(
        hidden in 4usize..24,
        steps in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let cfg = small_cfg();
        let dims = RnnDims::square(hidden);
        let lstm = Lstm::new(&cfg, dims);
        let weights = LstmWeights::random(dims, seed);
        let mut npu = Npu::new(cfg);
        lstm.load_weights(&mut npu, &weights).unwrap();

        let inputs: Vec<Vec<f32>> = (0..steps)
            .map(|t| (0..hidden).map(|i| ((t * hidden + i) as f32 * 0.37 + seed as f32).sin() * 0.5).collect())
            .collect();
        let (outputs, _) = lstm.run(&mut npu, &inputs).unwrap();

        let mut h = vec![0.0f32; hidden];
        let mut c = vec![0.0f32; hidden];
        for (t, x) in inputs.iter().enumerate() {
            let (h2, c2) = reference::lstm_cell(
                &weights.w_x, &weights.w_h, &weights.bias, hidden, hidden, x, &h, &c,
            );
            h = h2;
            c = c2;
            for (got, want) in outputs[t].iter().zip(&h) {
                prop_assert!((got - want).abs() < 0.12, "step {t}: {got} vs {want}");
            }
        }
    }

    /// GRU likewise.
    #[test]
    fn gru_tracks_reference(
        hidden in 4usize..24,
        steps in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let cfg = small_cfg();
        let dims = RnnDims::square(hidden);
        let gru = Gru::new(&cfg, dims);
        let weights = GruWeights::random(dims, seed);
        let mut npu = Npu::new(cfg);
        gru.load_weights(&mut npu, &weights).unwrap();

        let inputs: Vec<Vec<f32>> = (0..steps)
            .map(|t| (0..hidden).map(|i| ((t * 3 + i) as f32 * 0.23 + seed as f32).cos() * 0.4).collect())
            .collect();
        let (outputs, _) = gru.run(&mut npu, &inputs).unwrap();

        let mut h = vec![0.0f32; hidden];
        for (t, x) in inputs.iter().enumerate() {
            h = reference::gru_cell(
                &weights.w_x, &weights.w_h, &weights.bias, hidden, hidden, x, &h,
            );
            for (got, want) in outputs[t].iter().zip(&h) {
                prop_assert!((got - want).abs() < 0.12, "step {t}: {got} vs {want}");
            }
        }
    }

    /// Timing is deterministic: the same program on the same NPU state
    /// yields identical statistics, and doubling steps at least doubles
    /// neither... precisely: cycles scale monotonically with steps.
    #[test]
    fn cycles_monotone_in_steps(hidden in 8usize..64, steps in 2u32..12) {
        let cfg = small_cfg();
        let dims = RnnDims::square(hidden);
        let lstm = Lstm::new(&cfg, dims);

        let run = |s: u32| {
            let mut npu = Npu::with_mode(small_cfg(), ExecMode::TimingOnly);
            lstm.run_timing_only(&mut npu, s).unwrap().cycles
        };
        let c1 = run(steps);
        let c1b = run(steps);
        prop_assert_eq!(c1, c1b, "determinism");
        let c2 = run(steps + 3);
        prop_assert!(c2 > c1, "monotonicity: {} vs {}", c1, c2);
    }

    /// MLPs of random shape, compiled by the toolflow, track their
    /// graph's f32 evaluation.
    #[test]
    fn mlp_tracks_reference(
        l1 in 4usize..20,
        l2 in 4usize..20,
        l3 in 2usize..12,
        seed in 0u64..100,
    ) {
        let graph = mlp_graph(&[l1, l2, l3], seed);
        let mut model =
            ModelArtifact::compile("mlp", &graph, 1 << 24, &small_cfg(), &LowerOptions::default())
                .unwrap()
                .pin()
                .unwrap();
        let x: Vec<f32> = (0..l1).map(|i| ((i as f32) * 0.31).sin() * 0.5).collect();
        let y = model.infer(&x).unwrap();
        prop_assert_eq!(y.len(), l3);
        let want = graph.evaluate(&x).unwrap();
        for (got, want) in y.iter().zip(&want) {
            prop_assert!((got - want).abs() < 0.05, "{} vs {}", got, want);
        }
    }

    /// The fast simulator kernels are a pure optimization: on any random
    /// LSTM, `KernelMode::Fast` and `KernelMode::Reference` (the
    /// pre-optimization clone-and-naive-BFP strategy) produce bit-identical
    /// outputs and identical run statistics.
    #[test]
    fn fast_kernels_bit_identical_to_reference(
        hidden in 4usize..20,
        steps in 1usize..4,
        seed in 0u64..500,
    ) {
        let dims = RnnDims::square(hidden);
        let weights = LstmWeights::random(dims, seed);
        let inputs: Vec<Vec<f32>> = (0..steps)
            .map(|t| (0..hidden).map(|i| ((t * hidden + i) as f32 * 0.41 + seed as f32).sin() * 0.6).collect())
            .collect();

        let run = |kernel: KernelMode| {
            let cfg = small_cfg();
            let lstm = Lstm::new(&cfg, dims);
            let mut npu = Npu::new(cfg);
            npu.set_kernel_mode(kernel);
            lstm.load_weights(&mut npu, &weights).unwrap();
            lstm.run(&mut npu, &inputs).unwrap()
        };
        let (fast_out, fast_stats) = run(KernelMode::Fast);
        let (ref_out, ref_stats) = run(KernelMode::Reference);

        prop_assert_eq!(fast_stats, ref_stats);
        for (t, (a, b)) in fast_out.iter().zip(&ref_out).enumerate() {
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "step {}: {} vs {}", t, x, y);
            }
        }
    }

    /// The BFP pipeline is numerically sane end to end: no NaN/inf escapes
    /// the NPU for bounded inputs, at any tested precision.
    #[test]
    fn no_non_finite_values_escape(
        mantissa in 2u8..=5,
        hidden in 4usize..16,
        scale in 0.1f32..2.0,
    ) {
        let cfg = NpuConfig::builder()
            .native_dim(8)
            .lanes(4)
            .tile_engines(2)
            .mrf_entries(256)
            .vrf_entries(256)
            .matrix_format(BfpFormat::new(5, mantissa, 128).unwrap())
            .build()
            .unwrap();
        let dims = RnnDims::square(hidden);
        let lstm = Lstm::new(&cfg, dims);
        let mut npu = Npu::new(cfg);
        lstm.load_weights(&mut npu, &LstmWeights::random(dims, 5)).unwrap();
        let x: Vec<f32> = (0..hidden).map(|i| (i as f32 * 0.7).sin() * scale).collect();
        let (outputs, _) = lstm.run(&mut npu, std::slice::from_ref(&x)).unwrap();
        prop_assert!(outputs[0].iter().all(|v| v.is_finite() && v.abs() <= 1.0),
            "LSTM outputs are tanh-bounded: {:?}", outputs[0]);
    }

    /// Row-sharding an oversized dense stage is semantics-preserving
    /// *bit for bit*: each shard computes the same f32 dot products over
    /// the same weight rows in the same order, so concatenating shard
    /// outputs must equal the unsplit stage exactly — for any layer
    /// shape, any per-device budget that admits at least one row, any
    /// bias/activation combination, and any input.
    #[test]
    fn row_sharded_execution_concatenates_bit_identical(
        rows in 1usize..96,
        cols in 1usize..48,
        budget_rows in 1usize..20,
        weight_seed in 0u64..1_000,
        bias_sel in 0usize..2,
        act_sel in 0usize..4,
    ) {
        use brainwave::gir::{
            shard_outputs_concat, split_oversized_stages, ActFn, Pipeline, Stage,
        };

        let weights: Vec<f32> = (0..rows * cols)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(weight_seed);
                ((x >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 3.0
            })
            .collect();
        let bias = (bias_sel == 1).then(|| (0..rows).map(|r| (r as f32 - 2.0) * 0.05).collect());
        let act = [None, Some(ActFn::Relu), Some(ActFn::Sigmoid), Some(ActFn::Tanh)][act_sel];
        let stage = Stage::Dense { rows, cols, weights, bias, act };
        let pipeline = Pipeline { input_dim: cols, stages: vec![stage] };

        // A budget of `budget_rows` rows: always admits a single row, so
        // the split must succeed; a budget >= the whole stage must leave
        // the pipeline untouched.
        let budget = (budget_rows * cols) as u64;
        let (sharded, report) = split_oversized_stages(&pipeline, budget).unwrap();
        if budget >= (rows * cols) as u64 {
            prop_assert_eq!(&sharded, &pipeline);
            prop_assert!(report.splits.is_empty());
        } else {
            prop_assert_eq!(report.splits.len(), 1);
            prop_assert_eq!(report.splits[0].1, sharded.stages.len());
            for s in &sharded.stages {
                prop_assert!(s.weight_params() <= budget);
            }
        }

        let x: Vec<f32> = (0..cols).map(|i| ((i as f32) * 0.61 + 0.2).cos() * 1.5).collect();
        let whole = shard_outputs_concat(&[&pipeline.stages[0]], &x);
        let shards: Vec<&Stage> = sharded.stages.iter().collect();
        let concat = shard_outputs_concat(&shards, &x);
        prop_assert_eq!(whole.len(), concat.len());
        for (r, (a, b)) in whole.iter().zip(&concat).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "row {}: {} vs {}", r, a, b);
        }
    }
}

// Few cases: each spawns a live worker pool. The cheap per-shard math is
// already covered exhaustively above; this block checks the *serve* path
// (registry + pinning + scatter/gather over workers) end to end.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Serving a shard group over live workers is bit-identical to
    /// single-device execution of the unsplit model, for random MLP
    /// shapes, shard budgets, and inputs.
    #[test]
    fn sharded_serving_matches_single_device(
        input in 4usize..20,
        hidden in 12usize..36,
        out in 2usize..10,
        budget_rows in 2usize..8,
        seed in 0u64..100,
    ) {
        use std::time::Duration;
        use brainwave::serve::demo::{demo_input, mlp_artifact, mlp_graph};
        use brainwave::serve::{Server, ShardedArtifact};
        use bw_gir::LowerOptions;

        // Admit at least one row of every dense stage (rows of the
        // second matmul are `hidden` wide), otherwise shard as tightly
        // as `budget_rows` rows of the first stage allow.
        let widths = [input, hidden, out];
        let budget = (budget_rows * input).max(hidden) as u64;
        let sharded = ShardedArtifact::compile(
            "m",
            &mlp_graph(&widths, seed),
            budget,
            &brainwave::serve::demo::demo_config(),
            &LowerOptions::default(),
        ).unwrap();
        let width = sharded.max_width();
        for member in sharded.segments().iter().flat_map(|s| s.members()) {
            prop_assert!(member.binary().is_some(), "{} has no binary", member.name());
            prop_assert!(member.weight_params() <= budget, "{} over budget", member.name());
        }

        let expected = mlp_artifact("ref", &widths, seed)
            .pin()
            .unwrap()
            .infer(&demo_input(input, seed))
            .unwrap();

        let server = Server::builder()
            .sharded_model(sharded)
            .replicas(width.max(2))
            .spawn()
            .unwrap();
        let got = server
            .client()
            .call("m", &demo_input(input, seed), Duration::from_secs(10))
            .unwrap();
        prop_assert_eq!(got.output.len(), out);
        for (r, (a, b)) in got.output.iter().zip(&expected).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "row {}: {} vs {}", r, a, b);
        }
    }
}
