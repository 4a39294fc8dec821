//! Cross-crate integration tests: the full path from model definition
//! through firmware generation, simulation, and golden-model validation.

use brainwave::bfp::{BfpBlock, BfpFormat, F16};
use brainwave::core::isa::{MemId, ProgramBuilder};
use brainwave::core::{ExecMode, KernelMode, Npu, NpuConfig};
use brainwave::fpga::{Device, ModelRequirements};
use brainwave::gir::{LowerOptions, ModelArtifact};
use brainwave::models::reference;
use brainwave::models::{ConvLayer, ConvShape, Gru, GruWeights, Lstm, LstmWeights, RnnDims};
use brainwave::serve::demo::mlp_graph;
use brainwave::system::{simulate, ArrivalProcess, Microservice, ServiceModel};

fn small_cfg() -> NpuConfig {
    NpuConfig::builder()
        .native_dim(8)
        .lanes(4)
        .tile_engines(2)
        .mfus(2)
        .mrf_entries(256)
        .vrf_entries(256)
        .matrix_format(BfpFormat::BFP_1S_5E_5M)
        .build()
        .expect("valid test configuration")
}

#[test]
fn lstm_firmware_matches_reference() {
    let cfg = small_cfg();
    let dims = RnnDims::square(16);
    let lstm = Lstm::new(&cfg, dims);
    let weights = LstmWeights::random(dims, 77);
    let program = lstm.program(3);

    let mut npu = Npu::new(cfg);
    lstm.load_weights(&mut npu, &weights).unwrap();
    let inputs: Vec<Vec<f32>> = (0..3)
        .map(|t| {
            (0..16)
                .map(|i| ((t * 16 + i) as f32 * 0.21).cos() * 0.4)
                .collect()
        })
        .collect();
    for x in &inputs {
        lstm.push_step_input(&mut npu, x).unwrap();
    }
    let stats = npu.run(&program).expect("firmware runs");
    assert!(stats.cycles > 0);

    // Validate the last hidden state against the f32 reference.
    let mut h = vec![0.0f32; 16];
    let mut c = vec![0.0f32; 16];
    for x in &inputs {
        let (h2, c2) =
            reference::lstm_cell(&weights.w_x, &weights.w_h, &weights.bias, 16, 16, x, &h, &c);
        h = h2;
        c = c2;
    }
    let grid_h = lstm.grid_h() as usize;
    let mut last = Vec::new();
    for _ in 0..inputs.len() {
        last = npu
            .pop_output_concat(grid_h, 16)
            .expect("one output per step");
    }
    for (got, want) in last.iter().zip(&h) {
        assert!((got - want).abs() < 0.08, "{got} vs {want}");
    }
}

#[test]
fn gru_and_lstm_share_one_npu_sequentially() {
    // Two models pinned at disjoint MRF regions would need a layout
    // manager; here we validate the simpler production pattern of
    // re-deploying a device between models.
    let cfg = small_cfg();
    let dims = RnnDims::square(8);
    let mut npu = Npu::new(cfg.clone());

    let lstm = Lstm::new(&cfg, dims);
    lstm.load_weights(&mut npu, &LstmWeights::random(dims, 1))
        .unwrap();
    let (out_l, _) = lstm.run(&mut npu, &[vec![0.1; 8]]).unwrap();
    assert_eq!(out_l[0].len(), 8);

    let gru = Gru::new(&cfg, dims);
    gru.load_weights(&mut npu, &GruWeights::random(dims, 2))
        .unwrap();
    gru.reset_state(&mut npu).unwrap();
    let (out_g, _) = gru.run(&mut npu, &[vec![0.1; 8]]).unwrap();
    assert_eq!(out_g[0].len(), 8);
    assert_ne!(out_l[0], out_g[0]);
}

#[test]
fn conv_then_mlp_feature_pipeline() {
    // A miniature featurizer: conv -> flatten -> dense, all on one NPU,
    // validated against the composed f32 reference.
    let cfg = small_cfg();
    let shape = ConvShape {
        h: 4,
        w: 4,
        c_in: 2,
        k: 3,
        c_out: 4,
        stride: 1,
        pad: 1,
    };
    let conv = ConvLayer::new(&cfg, shape);
    let kernel: Vec<f32> = (0..shape.weight_count())
        .map(|i| ((i % 7) as f32 - 3.0) / 12.0)
        .collect();

    let mut npu = Npu::new(cfg.clone());
    conv.load_weights(&mut npu, 0, &kernel).unwrap();
    let image: Vec<f32> = (0..32).map(|i| ((i % 5) as f32 - 2.0) / 4.0).collect();
    let (features, _) = conv.run(&mut npu, 0, &image, true).unwrap();
    assert_eq!(features.len(), 64); // 4x4x4

    // Dense head on a second NPU (a two-device microservice), compiled
    // by the toolflow and checked against its graph's f32 evaluation.
    let head = mlp_graph(&[64, 8], 9);
    let scores = ModelArtifact::compile("head", &head, 1 << 24, &cfg, &LowerOptions::default())
        .unwrap()
        .pin()
        .unwrap()
        .infer(&features)
        .unwrap();
    assert_eq!(scores.len(), 8);
    let want = head.evaluate(&features).unwrap();
    for (got, want) in scores.iter().zip(&want) {
        assert!((got - want).abs() < 0.05, "{got} vs {want}");
    }

    // Reference.
    let ref_features: Vec<f32> = reference::conv2d(&image, 4, 4, 2, &kernel, 3, 4, 1, 1)
        .into_iter()
        .map(|v| v.max(0.0))
        .collect();
    for (a, b) in features.iter().zip(&ref_features) {
        assert!((a - b).abs() < 0.15, "{a} vs {b}");
    }
}

#[test]
fn dataflow_bounds_order_the_simulator() {
    // UDM <= SDM <= simulated BW, per §III, at a mid-sized dimension.
    use brainwave::dataflow::RnnCriticalPath;
    let dims = RnnDims::square(1024);
    let base = NpuConfig::bw_s10();
    let gru = Gru::new(&base, dims);
    let cfg = NpuConfig::builder()
        .native_dim(400)
        .lanes(40)
        .tile_engines(6)
        .mrf_entries(gru.mrf_entries_required())
        .vrf_entries(1024)
        .clock_mhz(250.0)
        .build()
        .unwrap();
    let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
    let steps = 20;
    let stats = Gru::new(npu.config(), dims)
        .run_timing_only(&mut npu, steps)
        .unwrap();

    let cp = RnnCriticalPath::gru(1024, 1024);
    let udm = cp.udm_cycles(u64::from(steps));
    let sdm = cp.sdm_cycles(u64::from(steps), 96_000);
    assert!(udm < sdm, "UDM {udm} < SDM {sdm}");
    assert!(sdm < stats.cycles, "SDM {sdm} < BW {}", stats.cycles);
    // And the BW NPU stays within an order of magnitude of the SDM.
    assert!(stats.cycles < sdm * 10);
}

#[test]
fn serving_latency_grounded_in_simulated_service_time() {
    // bw-core -> bw-system: use a simulated model latency as the service
    // time of a microservice and check the idle-system latency.
    let cfg = small_cfg();
    let dims = RnnDims::square(16);
    let lstm = Lstm::new(&cfg, dims);
    let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
    let stats = lstm.run_timing_only(&mut npu, 10).unwrap();
    let service_s = stats.latency_seconds();
    assert!(service_s > 0.0);

    let svc = Microservice {
        service: ServiceModel::PerRequest { seconds: service_s },
        servers: 1,
        network_hop_s: 5e-6,
    };
    let arrivals = ArrivalProcess::Uniform { interval_s: 1.0 }.generate(10, 0);
    let report = simulate(&arrivals, &svc);
    let expect = service_s + 1e-5;
    assert!((report.latency.mean_s - expect).abs() < 1e-9);
}

#[test]
fn specialized_design_actually_simulates() {
    // bw-fpga -> bw-core: a design from the specializer must be a valid,
    // runnable NpuConfig.
    let model = ModelRequirements {
        dims: vec![512],
        weight_params: 6 * 512 * 512,
        min_mantissa_bits: 2,
    };
    let design = brainwave::fpga::specialize(&Device::stratix_10_280(), &model).expect("fits");
    let dims = RnnDims::square(512);
    let base = design.config.clone();
    let gru = Gru::new(&base, dims);
    // Rebuild with VRF headroom for the firmware's temporaries.
    let cfg = NpuConfig::builder()
        .native_dim(base.native_dim())
        .lanes(base.lanes())
        .tile_engines(base.tile_engines())
        .mrf_entries(base.mrf_entries().max(gru.mrf_entries_required()))
        .vrf_entries(1024)
        .clock_mhz(base.clock_hz() / 1e6)
        .matrix_format(base.matrix_format())
        .build()
        .unwrap();
    let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
    let stats = Gru::new(npu.config(), dims)
        .run_timing_only(&mut npu, 5)
        .unwrap();
    assert!(stats.cycles > 0);
}

/// A kernel written by hand with the firmware builder — a gated residual
/// update, the kind of fused subgraph the chain ISA was designed for:
///
/// ```text
/// g = sigmoid(W·x + b)   (one chain: read, mv_mul, add, sigmoid)
/// y = g ∘ x + x          (one chain: read, mul, add, out to the network)
/// ```
///
/// on an 8-wide NPU, in both kernel modes. Its MFU ops are the [`F16`]
/// operators bit for bit: `W` is the identity and `x` lies on its block's
/// grid, so `W·x` is `x` exactly.
#[test]
fn a_hand_written_kernel_computes_the_f16_operators_bit_for_bit() {
    let cfg = NpuConfig::builder()
        .name("kernel-demo")
        .native_dim(8)
        .lanes(4)
        .tile_engines(2)
        .mrf_entries(64)
        .vrf_entries(64)
        .matrix_format(BfpFormat::BFP_1S_5E_5M)
        .build()
        .unwrap();
    const IVRF_X: u32 = 0;
    const MRF_W: u32 = 0;
    const ASVRF0_B: u32 = 0;
    const ASVRF0_X: u32 = 1; // x again, as the residual's add operand
    const MULVRF0_G: u32 = 0;

    let mut b = ProgramBuilder::new();
    b.set_rows(1).set_cols(1);
    // Stage x from the network into every file that needs it.
    b.v_rd(MemId::NetQ, 0)
        .v_wr(MemId::InitialVrf, IVRF_X)
        .v_wr(MemId::AddSubVrf(0), ASVRF0_X)
        .end_chain()
        .unwrap();
    b.v_rd(MemId::InitialVrf, IVRF_X)
        .mv_mul(MRF_W)
        .vv_add(ASVRF0_B)
        .v_sigm()
        .v_wr(MemId::MultiplyVrf(0), MULVRF0_G)
        .end_chain()
        .unwrap();
    b.v_rd(MemId::InitialVrf, IVRF_X)
        .vv_mul(MULVRF0_G)
        .vv_add(ASVRF0_X)
        .v_wr(MemId::NetQ, 0)
        .end_chain()
        .unwrap();
    let program = b.build();

    let x = [0.5f32, -0.5, 1.0, -1.0, 2.0, -2.0, 0.0, 0.25];
    let bias = [0.0f32, 0.125, -0.25, 0.5, -1.0, 1.5, -2.0, 3.0];
    let on_grid = BfpBlock::quantize(&x, cfg.matrix_format()).dequantize();
    assert_eq!(on_grid, x, "x is on its block's grid");
    let want: Vec<u32> = x
        .iter()
        .zip(&bias)
        .map(|(&x, &b)| {
            let (x, b) = (F16::from_f32(x), F16::from_f32(b));
            let g = (x + b).sigmoid();
            (g * x + x).to_f32().to_bits()
        })
        .collect();

    for kernel in [KernelMode::Fast, KernelMode::Reference] {
        let mut npu = Npu::new(cfg.clone());
        npu.set_kernel_mode(kernel);
        let identity: Vec<f32> = (0..64).map(|i| f32::from(i % 9 == 0)).collect();
        npu.load_tiled_matrix(MRF_W, 1, 1, 8, 8, &identity).unwrap();
        npu.load_vector(MemId::AddSubVrf(0), ASVRF0_B, &bias)
            .unwrap();
        npu.push_input(x.to_vec()).unwrap();
        let stats = npu.run(&program).unwrap();
        let y = npu.pop_output().expect("the kernel writes one vector");
        let got: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{kernel:?}");
        assert_eq!(stats.chains, 3, "{kernel:?}");
    }
}
