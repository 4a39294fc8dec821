//! Regression pins for the zero-copy register files and the dense
//! cross-chain scoreboards: behavioral contracts the fast kernels must
//! not change.

use brainwave::bfp::{BfpFormat, BfpMatrix};
use brainwave::core::isa::{MemId, ProgramBuilder};
use brainwave::core::{
    cycle_bounds, AnalysisOptions, ExecMode, KernelMode, Npu, NpuConfig, SimError,
};

fn cfg() -> NpuConfig {
    NpuConfig::builder()
        .native_dim(8)
        .lanes(4)
        .tile_engines(2)
        .mfus(2)
        .mrf_entries(64)
        .vrf_entries(64)
        .matrix_format(BfpFormat::BFP_1S_5E_5M)
        .build()
        .expect("valid test configuration")
}

/// Reading a VRF range that was never written yields exact zeros — the
/// register files are defined to power on cleared, and the slab-backed
/// implementation must preserve that.
#[test]
fn uninitialized_vrf_reads_as_zero() {
    let mut b = ProgramBuilder::new();
    b.set_rows(2);
    b.v_rd(MemId::InitialVrf, 5);
    b.v_wr(MemId::NetQ, 0);
    b.end_chain().unwrap();
    let program = b.build();

    let mut npu = Npu::new(cfg());
    npu.run(&program).unwrap();
    for _ in 0..2 {
        let v = npu.pop_output().expect("two native vectors written");
        assert_eq!(v.len(), 8);
        assert!(v.iter().all(|x| x.to_bits() == 0), "exact +0.0 required");
    }
}

/// A chain's write list is a multicast: the same result vector lands in
/// every named destination, including a destination that aliases the
/// chain's own source range (the read happens at chain start, the write
/// at chain end).
#[test]
fn aliased_multicast_writes_see_pre_chain_values() {
    let cfg = cfg();
    let x: Vec<f32> = (0..8).map(|i| i as f32 * 0.25 - 1.0).collect();

    let mut npu = Npu::new(cfg);
    npu.load_vector(MemId::InitialVrf, 0, &x).unwrap();

    // relu(x) multicast to: InitialVrf[0] (aliases the source),
    // InitialVrf[9], and AddSubVrf(0)[4].
    let mut b = ProgramBuilder::new();
    b.set_rows(1);
    b.v_rd(MemId::InitialVrf, 0);
    b.v_relu();
    b.v_wr(MemId::InitialVrf, 0);
    b.v_wr(MemId::InitialVrf, 9);
    b.v_wr(MemId::AddSubVrf(0), 4);
    b.end_chain().unwrap();
    // Second chain: read the aliased slot back out, add the AddSubVrf
    // copy (RAW on both files), and emit.
    b.v_rd(MemId::InitialVrf, 0);
    b.vv_add(4);
    b.v_wr(MemId::NetQ, 0);
    b.end_chain().unwrap();
    let program = b.build();
    npu.run(&program).unwrap();

    let out = npu.pop_output().expect("one native vector");
    let relu: Vec<f32> = x.iter().map(|v| v.max(0.0)).collect();
    // Both copies carry relu(x), so the sum is 2·relu(x) (exact in f16:
    // doubling only bumps the exponent).
    let want: Vec<f32> = relu.iter().map(|v| v * 2.0).collect();
    assert_eq!(out, want);
}

/// Cross-chain RAW dependencies through a VRF stall the consumer: the
/// dense scoreboard must report the producer's completion, exactly as the
/// old per-slot hash map did.
#[test]
fn raw_dependency_through_vrf_stalls_consumer() {
    let mut b = ProgramBuilder::new();
    b.set_rows(1);
    // Producer: a long matrix-free compute chain into InitialVrf[3].
    b.v_rd(MemId::InitialVrf, 0);
    b.v_relu();
    b.v_wr(MemId::InitialVrf, 3);
    b.end_chain().unwrap();
    // Consumer: reads InitialVrf[3] immediately.
    b.v_rd(MemId::InitialVrf, 3);
    b.v_wr(MemId::NetQ, 0);
    b.end_chain().unwrap();
    let program = b.build();

    let mut npu = Npu::with_mode(cfg(), ExecMode::TimingOnly);
    npu.set_trace(true);
    let stats = npu.run(&program).unwrap();
    assert!(stats.dep_stall_cycles > 0, "consumer must stall on the RAW");
    let trace = npu.take_trace();
    assert_eq!(trace.len(), 2);
    // The consumer cannot start before the producer's write is visible
    // (minus the forwarding credit, which is what dep_ready_at records).
    assert!(trace[1].start >= trace[1].dep_ready_at);
    assert!(trace[1].dep_ready_at > trace[0].start);
}

/// The trace and statistics are kernel-independent: Fast and Reference
/// modes must report byte-identical `RunStats` and chain traces.
#[test]
fn trace_output_unchanged_by_kernel_mode() {
    let run = |kernel: KernelMode| {
        let mut b = ProgramBuilder::new();
        b.set_rows(2);
        b.v_rd(MemId::InitialVrf, 0);
        b.v_relu();
        b.v_wr(MemId::InitialVrf, 4);
        b.end_chain().unwrap();
        b.v_rd(MemId::InitialVrf, 4);
        b.vv_add(0);
        b.v_tanh();
        b.v_wr(MemId::NetQ, 0);
        b.end_chain().unwrap();
        let program = b.build();

        let mut npu = Npu::new(cfg());
        npu.set_kernel_mode(kernel);
        npu.set_trace(true);
        let stats = npu.run(&program).unwrap();
        (stats, npu.take_trace())
    };
    let (fast_stats, fast_trace) = run(KernelMode::Fast);
    let (ref_stats, ref_trace) = run(KernelMode::Reference);
    assert_eq!(fast_stats, ref_stats);
    assert_eq!(fast_trace, ref_trace);
}

/// `rows × cols` was once multiplied in unchecked `u32`: a 65 536 × 65 536
/// grid panicked the simulator in debug builds and wrapped to zero tiles
/// (an `Ok` of 20 cycles) in release, while `cycle_bounds` said `None`. The
/// one scheduler both now run does the arithmetic in `u64`, so every
/// profile sees the same typed fault — and the bound stays `None`.
#[test]
fn tile_grid_beyond_u32_is_a_typed_fault_not_a_wrap() {
    let grid = |build: &dyn Fn(&mut ProgramBuilder)| {
        let mut b = ProgramBuilder::new();
        b.set_rows(65_536).set_cols(65_536);
        build(&mut b);
        b.build()
    };
    let out_of_mrf = SimError::MrfIndexOutOfRange {
        index: 64,
        capacity: 64,
    };
    let matrix_move = grid(&|b| {
        b.m_rd(MemId::Dram, 0)
            .m_wr(MemId::MatrixRf, 0)
            .end_chain()
            .unwrap();
    });
    let mv_mul = grid(&|b| {
        b.v_rd(MemId::Dram, 0)
            .mv_mul(0)
            .v_wr(MemId::Dram, 0)
            .end_chain()
            .unwrap();
    });
    for program in [&matrix_move, &mv_mul] {
        for mode in [ExecMode::TimingOnly, ExecMode::Full] {
            let mut npu = Npu::with_mode(cfg(), mode);
            assert_eq!(npu.run(program), Err(out_of_mrf.clone()), "{mode:?}");
        }
        assert_eq!(
            cycle_bounds(program, &cfg(), &AnalysisOptions::default()),
            None
        );
    }

    // With no MRF in the path the grid runs into the end of modelled DRAM.
    let dram_to_dram = grid(&|b| {
        b.m_rd(MemId::Dram, 0)
            .m_wr(MemId::Dram, 0)
            .end_chain()
            .unwrap();
    });
    let mut npu = Npu::with_mode(cfg(), ExecMode::TimingOnly);
    assert!(matches!(
        npu.run(&dram_to_dram),
        Err(SimError::DramIndexOutOfRange { .. })
    ));
    assert_eq!(
        cycle_bounds(&dram_to_dram, &cfg(), &AnalysisOptions::default()),
        None
    );
}

/// A replayed chain costs one dispatch cycle at every dispatch interval. At
/// an interval of 1 a replay once passed for streaming, whose cost per
/// instruction is the same, and paid `len + 1` cycles. A loop of one
/// two-instruction chain streams its first iteration (three instructions
/// with the `end_chain`) and replays the other two; a second batch column
/// replays all three.
#[test]
fn a_replayed_chain_costs_one_dispatch_cycle_at_every_interval() {
    let mut b = ProgramBuilder::new();
    b.begin_loop(3).unwrap();
    b.v_rd(MemId::InitialVrf, 0)
        .v_wr(MemId::InitialVrf, 1)
        .end_chain()
        .unwrap();
    b.end_loop().unwrap();
    let program = b.build();
    for (interval, batch, want) in [
        (1, 1, vec![3, 4, 5]),
        (1, 2, vec![3, 4, 5, 6, 7, 8]),
        (4, 2, vec![12, 13, 14, 15, 16, 17]),
    ] {
        let config = NpuConfig::builder()
            .native_dim(8)
            .lanes(4)
            .timing(brainwave::core::TimingParams {
                dispatch_interval: interval,
                ..Default::default()
            })
            .build()
            .expect("valid test configuration");
        for mode in [ExecMode::TimingOnly, ExecMode::Full] {
            let mut npu = Npu::with_mode(config.clone(), mode);
            npu.set_trace(true);
            npu.run_batch(&program, batch).expect("the loop runs");
            let dispatched: Vec<u64> = npu.take_trace().iter().map(|c| c.dispatched_at).collect();
            assert_eq!(
                dispatched, want,
                "interval {interval}, batch {batch}, {mode:?}"
            );
        }
    }
}

/// Every run starts with every scoreboard at 0, however little of them the
/// previous run touched (`crates/core/src/sched.rs`, "Scoreboards"). A
/// first program writes, late, the top entry of every VRF file, the last
/// MRF tile (a matrix move into it and an `mv_mul` streaming it) and DRAM
/// vectors and matrices; a second reads all of them at once. Its chain
/// trace and statistics must be what a fresh NPU reports, in both modes.
#[test]
fn a_run_schedules_as_on_a_fresh_npu_whatever_ran_before() {
    let (top, last_tile, dram_vector, dram_matrix) = (63, 63, 9, 5);
    let mut b = ProgramBuilder::new();
    b.set_rows(1).set_cols(1);
    // Forty streamed chains first, so that what follows dispatches, and
    // its writes complete, hundreds of cycles in.
    for _ in 0..40 {
        b.v_rd(MemId::InitialVrf, 0)
            .v_relu()
            .v_wr(MemId::InitialVrf, 0)
            .end_chain()
            .unwrap();
    }
    b.m_rd(MemId::Dram, 0)
        .m_wr(MemId::MatrixRf, last_tile)
        .end_chain()
        .unwrap();
    b.v_rd(MemId::InitialVrf, 0)
        .mv_mul(last_tile)
        .v_wr(MemId::InitialVrf, top)
        .end_chain()
        .unwrap();
    b.v_rd(MemId::InitialVrf, 0)
        .v_wr(MemId::AddSubVrf(0), top)
        .v_wr(MemId::AddSubVrf(1), top)
        .v_wr(MemId::MultiplyVrf(0), top)
        .v_wr(MemId::MultiplyVrf(1), top)
        .v_wr(MemId::Dram, dram_vector)
        .end_chain()
        .unwrap();
    b.m_rd(MemId::Dram, 0)
        .m_wr(MemId::Dram, dram_matrix)
        .end_chain()
        .unwrap();
    let first = b.build();

    let mut b = ProgramBuilder::new();
    b.set_rows(1).set_cols(1);
    // RAW on InitialVrf's top entry and the last tile; the `mv_mul` then
    // holds that tile until it has streamed it.
    b.v_rd(MemId::InitialVrf, top)
        .mv_mul(last_tile)
        .v_wr(MemId::InitialVrf, 1)
        .end_chain()
        .unwrap();
    // WAR on the last tile, RAW on a DRAM matrix.
    b.m_rd(MemId::Dram, dram_matrix)
        .m_wr(MemId::MatrixRf, last_tile)
        .end_chain()
        .unwrap();
    // RAW on a DRAM vector and the top of both add/sub files...
    b.v_rd(MemId::Dram, dram_vector)
        .vv_add(top)
        .vv_a_sub_b(top)
        .v_wr(MemId::InitialVrf, 2)
        .end_chain()
        .unwrap();
    // ...and of both multiply files.
    b.v_rd(MemId::InitialVrf, 1)
        .vv_mul(top)
        .vv_mul(top)
        .v_wr(MemId::InitialVrf, 3)
        .end_chain()
        .unwrap();
    let second = b.build();

    let nd = cfg().native_dim() as usize;
    let tile = || BfpMatrix::quantize(nd, nd, &vec![0.25; nd * nd], BfpFormat::BFP_1S_5E_5M);
    let schedule = |npu: &mut Npu| {
        npu.set_trace(true);
        let stats = npu.run(&second).expect("the second program runs");
        (stats, npu.take_trace())
    };
    for mode in [ExecMode::TimingOnly, ExecMode::Full] {
        let prepared = || {
            let mut npu = Npu::with_mode(cfg(), mode);
            for index in [0, dram_matrix] {
                npu.load_dram_matrix(index, tile().expect("a native tile"))
                    .expect("a native tile in range");
            }
            npu.reserve_matrix_grid(last_tile, 1, 1)
                .expect("the tile fits");
            npu
        };
        let mut fresh = prepared();
        let mut warm = prepared();
        warm.set_trace(true);
        warm.run(&first).expect("the first program runs");
        let dirtying = &warm.take_trace()[40..];
        let (want, got) = (schedule(&mut fresh), schedule(&mut warm));
        // A stale entry would delay the second program: every write it
        // reads completed after the second program, run alone, ends.
        assert!(dirtying.iter().all(|c| c.completion > want.0.cycles));
        assert_eq!(got, want, "{mode:?}");
    }
}

/// A Fast and a Reference run of `program` over the same preloaded state
/// give the same output bits and the same `RunStats`.
fn assert_kernels_agree(program: &brainwave::core::isa::Program, what: &str) {
    let run = |kernel| {
        let cfg = cfg();
        let mut npu = Npu::new(cfg.clone());
        npu.set_kernel_mode(kernel);
        let n = 16usize;
        let m: Vec<f32> = (0..n * n)
            .map(|i| ((i * 7) % 11) as f32 / 8.0 - 0.6)
            .collect();
        npu.load_tiled_matrix(0, 2, 2, n, n, &m).unwrap();
        for slot in 0..16 {
            let v: Vec<f32> = (0..8)
                .map(|i| ((slot * 8 + i) as f32 * 0.37).sin())
                .collect();
            for mem in [
                MemId::InitialVrf,
                MemId::AddSubVrf(0),
                MemId::MultiplyVrf(0),
            ] {
                npu.load_vector(mem, slot, &v).unwrap();
            }
        }
        let stats = npu.run(program).unwrap();
        let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let outputs: Vec<_> = std::iter::from_fn(|| npu.pop_output()).map(bits).collect();
        (stats, outputs)
    };
    let (fast, reference) = (run(KernelMode::Fast), run(KernelMode::Reference));
    assert_eq!(fast.0, reference.0, "{what}: statistics");
    assert_eq!(fast.1, reference.1, "{what}: outputs");
    assert!(!fast.1.is_empty(), "{what}: the program writes the network");
}

/// A chain computes its whole value before its first write: a multicast
/// `v_wr` that lands, at another offset, on the `AddSubVrf` range its own
/// `vv_add` reads does not feed the add.
#[test]
fn a_multicast_write_over_the_chains_own_operand_lands_after_its_value() {
    let mut b = ProgramBuilder::new();
    b.set_rows(2).set_cols(2);
    b.v_rd(MemId::InitialVrf, 0).mv_mul(0).vv_add(4).v_tanh();
    // The add reads AddSubVrf(0)[4..6]; these land on [5..7] and [3..5].
    b.v_wr(MemId::AddSubVrf(0), 5).v_wr(MemId::AddSubVrf(0), 3);
    b.v_wr(MemId::NetQ, 0).end_chain().unwrap();
    b.v_rd(MemId::AddSubVrf(0), 3)
        .v_wr(MemId::NetQ, 0)
        .end_chain()
        .unwrap();
    assert_kernels_agree(&b.build(), "overlapping multicast");
}

/// An `mv_mul` multiplies the blocks an earlier one quantized only where
/// it reads that range and nothing wrote over it since (`bw_core::npu`
/// module doc, "The data pass"). The pins: a chain's written range read
/// exactly by the next `mv_mul`, a chain between them that writes over
/// part of it, and a next `mv_mul` that reads it at another offset or
/// width.
#[test]
fn an_mv_mul_reading_what_a_chain_wrote_quantizes_it_afresh() {
    let program = |between: bool, read: (u32, u32)| {
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(2);
        b.v_rd(MemId::InitialVrf, 0).mv_mul(0).vv_add(0).v_relu();
        b.v_wr(MemId::InitialVrf, 8).end_chain().unwrap();
        if between {
            b.set_rows(1);
            b.v_rd(MemId::InitialVrf, 3)
                .vv_mul(2)
                .v_wr(MemId::InitialVrf, 9);
            b.end_chain().unwrap();
            b.set_rows(2);
        }
        let (at, cols) = read;
        b.set_cols(cols);
        b.v_rd(MemId::InitialVrf, at).mv_mul(0).v_sigm();
        b.v_wr(MemId::NetQ, 0).end_chain().unwrap();
        b.build()
    };
    assert_kernels_agree(&program(false, (8, 2)), "exact read");
    assert_kernels_agree(&program(true, (8, 2)), "a chain writes over part of it");
    assert_kernels_agree(&program(false, (9, 2)), "read at another offset");
    assert_kernels_agree(&program(false, (8, 1)), "read at another width");
}
