//! Randomized-program fuzzing of the simulator: arbitrary *valid* chain
//! programs must execute without panics, produce finite outputs, and agree
//! between functional and timing-only modes on every cycle count.

use brainwave::bfp::BfpFormat;
use brainwave::core::isa::{Chain, Instruction, Item, Opcode, ScalarReg, Segment};
use brainwave::core::isa::{MemId, Program, ProgramBuilder};
use brainwave::core::{
    analyze_artifact, analyze_with, artifact_cycle_bounds, cycle_bounds, AnalysisOptions,
    ArtifactUnit, ArtifactView, CycleBounds, DiagCode, ExecMode, KernelMode, Npu, NpuConfig,
    RunStats, SimError,
};
use proptest::prelude::*;

const ND: u32 = 8;
const VRF: u32 = 32;
const MRF_GRID: u32 = 2; // a 2x2 grid of tiles is pre-loaded at index 0

fn cfg() -> NpuConfig {
    NpuConfig::builder()
        .native_dim(ND)
        .lanes(4)
        .tile_engines(2)
        .mfus(2)
        .mrf_entries(MRF_GRID * MRF_GRID)
        .vrf_entries(VRF)
        .matrix_format(BfpFormat::BFP_1S_5E_5M)
        .build()
        .expect("valid fuzz configuration")
}

/// One random-but-valid vector chain description.
#[derive(Clone, Debug)]
struct ChainSpec {
    /// Source: 0 = NetQ, 1 = InitialVrf, 2 = AddSubVrf0, 3 = MultiplyVrf0.
    src: u8,
    src_index: u32,
    with_mvmul: bool,
    /// MFU ops: subset encoded as bitmask (add, mul, tanh, relu, max);
    /// bits 5 and 6 make the add one of the subtracts (`vv_a_sub_b`, then
    /// `vv_b_sub_a`), bit 7 the `tanh` a `sigm`.
    ops: u8,
    dst_index: u32,
    to_net: bool,
}

fn chain_strategy() -> impl Strategy<Value = ChainSpec> {
    (
        0u8..4,
        0u32..(VRF / 2),
        any::<bool>(),
        any::<u8>(),
        0u32..(VRF / 2),
        any::<bool>(),
    )
        .prop_map(
            |(src, src_index, with_mvmul, ops, dst_index, to_net)| ChainSpec {
                src,
                src_index,
                with_mvmul,
                ops,
                dst_index,
                to_net,
            },
        )
}

/// Builds a program from specs; every chain is rows=cols=MRF_GRID wide so
/// the mv_mul grid and the widths stay in bounds.
fn build_program(specs: &[ChainSpec]) -> Program {
    build_writing(specs, false)
}

/// [`build_program`], or with `low` the same chains landing instead in the
/// lower halves of the files a built program reads: `InitialVrf`,
/// `AddSubVrf(0)` and `MultiplyVrf(0)`.
fn build_writing(specs: &[ChainSpec], low: bool) -> Program {
    let mut b = ProgramBuilder::new();
    b.set_rows(MRF_GRID).set_cols(MRF_GRID);
    for s in specs {
        match s.src {
            0 => b.v_rd(MemId::NetQ, 0),
            1 => b.v_rd(MemId::InitialVrf, s.src_index),
            2 => b.v_rd(MemId::AddSubVrf(0), s.src_index),
            _ => b.v_rd(MemId::MultiplyVrf(0), s.src_index),
        };
        if s.with_mvmul {
            b.mv_mul(0);
        }
        // At most one of each MFU unit kind per MFU; we have two MFUs, so
        // allow up to two add/sub-family ops and keep one multiply and two
        // activations.
        if s.ops & 1 != 0 {
            let index = s.src_index % (VRF / 2);
            match s.ops >> 5 & 3 {
                1 => b.vv_a_sub_b(index),
                2 => b.vv_b_sub_a(index),
                _ => b.vv_add(index),
            };
        }
        if s.ops & 2 != 0 {
            b.vv_mul(s.dst_index % (VRF / 2));
        }
        if s.ops & 4 != 0 {
            if s.ops & 128 != 0 {
                b.v_sigm();
            } else {
                b.v_tanh();
            }
        }
        if s.ops & 8 != 0 {
            b.v_relu();
        }
        if s.ops & 16 != 0 {
            b.vv_max(s.dst_index % (VRF / 2));
        }
        if low {
            let at = s.dst_index % (VRF / 2 - MRF_GRID);
            b.v_wr(MemId::InitialVrf, at);
            b.v_wr(MemId::AddSubVrf(0), at);
            b.v_wr(MemId::MultiplyVrf(0), at);
        } else {
            // Land in the upper half of a VRF so reads of the lower half
            // see stable preloaded data.
            b.v_wr(
                MemId::InitialVrf,
                VRF / 2 + s.dst_index % (VRF / 2 - MRF_GRID),
            );
        }
        if s.to_net {
            b.v_wr(MemId::NetQ, 0);
        }
        b.end_chain().expect("specs construct valid chains");
    }
    b.build()
}

/// A random loop: an optional straight-line prelude, then `body` inside
/// `begin_loop(iterations)` behind `padding` set-reg items.
#[derive(Clone, Debug)]
struct LoopSpec {
    prelude: Vec<ChainSpec>,
    body: Vec<ChainSpec>,
    iterations: u32,
    padding: usize,
    /// Every input vector's arrival stamp: 0, or one cycle in the future.
    arrival: u64,
}

fn loop_strategy() -> impl Strategy<Value = LoopSpec> {
    (
        prop::collection::vec(chain_strategy(), 0..4),
        prop::collection::vec(chain_strategy(), 1..5),
        2u32..300,
        0usize..4,
        any::<bool>(),
        1u64..5_000,
    )
        .prop_map(
            |(prelude, body, iterations, padding, staged, future)| LoopSpec {
                prelude,
                body,
                iterations,
                padding,
                arrival: if staged { 0 } else { future },
            },
        )
}

/// [`build_program`]'s items for the prelude and, behind the padding, for
/// the loop body.
fn build_loop(spec: &LoopSpec) -> Program {
    let items = |specs: &[ChainSpec]| {
        build_program(specs)
            .segments
            .into_iter()
            .flat_map(|s| s.items)
    };
    let padding = (0..spec.padding).map(|_| Item::SetReg {
        reg: ScalarReg::Cols,
        value: MRF_GRID,
    });
    let prelude = Segment {
        items: items(&spec.prelude).collect(),
        iterations: 1,
    };
    let body = Segment {
        items: padding.chain(items(&spec.body)).collect(),
        iterations: spec.iterations,
    };
    Program {
        segments: if spec.prelude.is_empty() {
            vec![body]
        } else {
            vec![prelude, body]
        },
    }
}

/// A loop that resizes its own chains: [`build_program`]'s register writes
/// as a one-pass prelude, then its chains, optionally a chain writing DRAM
/// near the top of its address space, and `set_rows`/`set_cols` as a body
/// of `iterations`.
#[derive(Clone, Debug)]
struct ResizingSpec {
    chains: Vec<ChainSpec>,
    dram: Option<u32>,
    iterations: u32,
    rows: u32,
    cols: u32,
}

fn resizing_strategy() -> impl Strategy<Value = ResizingSpec> {
    (
        prop::collection::vec(chain_strategy(), 1..6),
        any::<bool>(),
        (1u32 << 22) - 8..1 << 22,
        1u32..=4,
        1u32..=4,
        1u32..=4,
    )
        .prop_map(|(chains, dram, at, iterations, rows, cols)| ResizingSpec {
            chains,
            dram: dram.then_some(at),
            iterations,
            rows,
            cols,
        })
}

fn build_resizing(spec: &ResizingSpec) -> Program {
    let items = build_program(&spec.chains).segments.remove(0).items;
    let (prelude, mut body): (Vec<_>, Vec<_>) = items
        .into_iter()
        .partition(|item| matches!(item, Item::SetReg { .. }));
    if let Some(at) = spec.dram {
        let mut b = ProgramBuilder::new();
        b.v_rd(MemId::NetQ, 0).v_wr(MemId::Dram, at);
        b.end_chain().expect("a valid chain");
        body.extend(b.build().segments.remove(0).items);
    }
    body.push(Item::SetReg {
        reg: ScalarReg::Rows,
        value: spec.rows,
    });
    body.push(Item::SetReg {
        reg: ScalarReg::Cols,
        value: spec.cols,
    });
    Program {
        segments: vec![
            Segment {
                items: prelude,
                iterations: 1,
            },
            Segment {
                items: body,
                iterations: spec.iterations,
            },
        ],
    }
}

/// NetQ vectors the program built from `spec` pops.
fn loop_vectors(spec: &LoopSpec) -> u64 {
    let per = |specs: &[ChainSpec]| net_vectors(specs) as u64;
    per(&spec.prelude) + per(&spec.body) * u64::from(spec.iterations)
}

/// NetQ vectors the program built from `specs` pops.
fn net_vectors(specs: &[ChainSpec]) -> usize {
    specs.iter().filter(|s| s.src == 0).count() * MRF_GRID as usize
}

fn prepare(npu: &mut Npu, specs: &[ChainSpec]) {
    preload(npu);
    npu.push_input_zeros(net_vectors(specs));
}

/// Pre-loads a well-conditioned tile grid and every VRF's lower half.
fn preload(npu: &mut Npu) {
    let n = (MRF_GRID * ND) as usize;
    let mut m = vec![0.0f32; n * n];
    for i in 0..n {
        m[i * n + i] = 0.5;
    }
    npu.load_tiled_matrix(0, MRF_GRID, MRF_GRID, n, n, &m)
        .expect("grid fits");
    for slot in 0..VRF {
        let v: Vec<f32> = (0..ND)
            .map(|i| ((slot + i) as f32 * 0.13).sin() * 0.5)
            .collect();
        npu.load_vector(MemId::InitialVrf, slot, &v).unwrap();
        npu.load_vector(MemId::AddSubVrf(0), slot, &v).unwrap();
        npu.load_vector(MemId::AddSubVrf(1), slot, &v).unwrap();
        npu.load_vector(MemId::MultiplyVrf(0), slot, &v).unwrap();
        npu.load_vector(MemId::MultiplyVrf(1), slot, &v).unwrap();
    }
}

/// The analyzer's view of what [`prepare`] establishes: the tile grid,
/// every VRF's preloaded slots, and the exact input-vector budget.
fn fuzz_options(specs: &[ChainSpec]) -> AnalysisOptions {
    budget_options(net_vectors(specs) as u64)
}

/// [`fuzz_options`] for a budget of `vectors` input vectors.
fn budget_options(vectors: u64) -> AnalysisOptions {
    AnalysisOptions::default()
        .preload(MemId::MatrixRf, 0, MRF_GRID * MRF_GRID)
        .preload(MemId::InitialVrf, 0, VRF)
        .preload(MemId::AddSubVrf(0), 0, VRF)
        .preload(MemId::AddSubVrf(1), 0, VRF)
        .preload(MemId::MultiplyVrf(0), 0, VRF)
        .preload(MemId::MultiplyVrf(1), 0, VRF)
        .with_input_vectors(vectors)
}

/// One corruption of a built program: a single field flipped in place.
#[derive(Clone, Copy, Debug)]
struct Mutation {
    /// Picks the segment, then an item in it, then an instruction of a
    /// chain item.
    site: u32,
    /// 0: the segment's `iterations`; 1: an operand index or a `SetReg`
    /// value; 2: a `MemId`; 3: the opcode, swapped for `OPCODES[bit]`.
    field: u8,
    bit: u8,
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    (any::<u32>(), 0u8..4, 0u8..32).prop_map(|(site, field, bit)| Mutation { site, field, bit })
}

/// Every opcode of Table II, the targets of an opcode swap.
const OPCODES: [Opcode; 15] = [
    Opcode::VRd,
    Opcode::VWr,
    Opcode::MRd,
    Opcode::MWr,
    Opcode::MvMul,
    Opcode::VvAdd,
    Opcode::VvASubB,
    Opcode::VvBSubA,
    Opcode::VvMax,
    Opcode::VvMul,
    Opcode::VRelu,
    Opcode::VSigm,
    Opcode::VTanh,
    Opcode::SWr,
    Opcode::EndChain,
];

/// An instruction's operands: its memory (`InitialVrf` when it names
/// none) and its index or value (0 when it has none).
fn operands(i: Instruction) -> (MemId, u32) {
    match i {
        Instruction::VRd { mem, index }
        | Instruction::VWr { mem, index }
        | Instruction::MRd { mem, index }
        | Instruction::MWr { mem, index } => (mem, index),
        Instruction::MvMul { mrf_index: index }
        | Instruction::VvAdd { index }
        | Instruction::VvASubB { index }
        | Instruction::VvBSubA { index }
        | Instruction::VvMax { index }
        | Instruction::VvMul { index }
        | Instruction::SWr { value: index, .. } => (MemId::InitialVrf, index),
        Instruction::VRelu | Instruction::VSigm | Instruction::VTanh | Instruction::EndChain => {
            (MemId::InitialVrf, 0)
        }
    }
}

/// The instruction of opcode `op` with the given operands.
fn instruction(op: Opcode, mem: MemId, index: u32) -> Instruction {
    match op {
        Opcode::VRd => Instruction::VRd { mem, index },
        Opcode::VWr => Instruction::VWr { mem, index },
        Opcode::MRd => Instruction::MRd { mem, index },
        Opcode::MWr => Instruction::MWr { mem, index },
        Opcode::MvMul => Instruction::MvMul { mrf_index: index },
        Opcode::VvAdd => Instruction::VvAdd { index },
        Opcode::VvASubB => Instruction::VvASubB { index },
        Opcode::VvBSubA => Instruction::VvBSubA { index },
        Opcode::VvMax => Instruction::VvMax { index },
        Opcode::VvMul => Instruction::VvMul { index },
        Opcode::VRelu => Instruction::VRelu,
        Opcode::VSigm => Instruction::VSigm,
        Opcode::VTanh => Instruction::VTanh,
        Opcode::SWr => Instruction::SWr {
            reg: ScalarReg::Rows,
            value: index,
        },
        Opcode::EndChain => Instruction::EndChain,
    }
}

/// `mem` with one bit of its code flipped: three bits name the file and
/// the rest the MFU that owns it. `None` for a code that names no file.
fn flip_mem(mem: MemId, bit: u8) -> Option<MemId> {
    let code = match mem {
        MemId::InitialVrf => 0,
        MemId::AddSubVrf(k) => 1 | u32::from(k) << 3,
        MemId::MultiplyVrf(k) => 2 | u32::from(k) << 3,
        MemId::MatrixRf => 3,
        MemId::NetQ => 4,
        MemId::Dram => 5,
    } ^ 1 << (bit % 8);
    let k = (code >> 3) as u8;
    match code & 7 {
        0 => Some(MemId::InitialVrf),
        1 => Some(MemId::AddSubVrf(k)),
        2 => Some(MemId::MultiplyVrf(k)),
        3 => Some(MemId::MatrixRf),
        4 => Some(MemId::NetQ),
        5 => Some(MemId::Dram),
        _ => None,
    }
}

/// `program` with `m` applied. A corrupted chain is rebuilt through
/// [`Chain::new`]; `None` when the chain rules refuse it, or when a
/// flipped `MemId` names no file.
fn mutate(program: &Program, m: Mutation) -> Option<Program> {
    let mut out = program.clone();
    let segments = out.segments.len();
    let seg = &mut out.segments[m.site as usize % segments];
    let flip = 1u32 << (m.bit % 32);
    if m.field == 0 || seg.items.is_empty() {
        seg.iterations ^= flip;
        return Some(out);
    }
    let site = m.site as usize / segments;
    let items = seg.items.len();
    match &mut seg.items[site % items] {
        Item::SetReg { value, .. } => *value ^= flip,
        Item::Chain(chain) => {
            let mut instructions = chain.instructions().to_vec();
            let at = site / items % instructions.len();
            let old = instructions[at];
            let (mem, index) = operands(old);
            instructions[at] = match m.field {
                1 => instruction(old.opcode(), mem, index ^ flip),
                2 => instruction(old.opcode(), flip_mem(mem, m.bit)?, index),
                _ => instruction(OPCODES[usize::from(m.bit) % OPCODES.len()], mem, index),
            };
            *chain = Chain::new(instructions).ok()?;
        }
    }
    Some(out)
}

/// The mutator is not vacuous: over a fixed set of draws it yields chains
/// the chain rules refuse, programs the linter catches, and programs that
/// still run.
#[test]
fn the_mutator_reaches_every_outcome() {
    let (mut refused, mut caught, mut ran) = (0, 0, 0);
    for case in 0..64 {
        let mut rng = proptest::test_runner::TestRng::for_case(case);
        let specs = prop::collection::vec(chain_strategy(), 1..10).generate(&mut rng);
        let mutation = mutation_strategy().generate(&mut rng);
        let Some(program) = mutate(&build_program(&specs), mutation) else {
            // Only a flipped `MemId` can name no file; the rest is `Chain::new`.
            refused += usize::from(mutation.field != 2);
            continue;
        };
        if analyze_with(&program, &cfg(), fuzz_options(&specs)).error_count() > 0 {
            caught += 1;
        } else if program.segments.iter().all(|s| s.iterations <= 1_000) {
            let mut npu = Npu::new(cfg());
            prepare(&mut npu, &specs);
            ran += usize::from(npu.run(&program).is_ok());
        }
    }
    assert!(
        refused > 0 && caught > 0 && ran > 0,
        "refused {refused}, caught {caught}, ran {ran}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_programs_execute_and_stay_finite(
        specs in prop::collection::vec(chain_strategy(), 1..12)
    ) {
        let program = build_program(&specs);
        // Statically clean...
        prop_assert!(program.validate(&cfg()).is_empty());

        // ...and dynamically clean.
        let mut npu = Npu::new(cfg());
        prepare(&mut npu, &specs);
        let stats = npu.run(&program).expect("valid program runs");
        prop_assert!(stats.cycles > 0);
        prop_assert_eq!(stats.chains, specs.len() as u64);
        while let Some(v) = npu.pop_output() {
            prop_assert!(v.iter().all(|x| x.is_finite()), "{v:?}");
        }
    }

    #[test]
    fn functional_and_timing_modes_agree_on_cycles(
        specs in prop::collection::vec(chain_strategy(), 1..10)
    ) {
        let program = build_program(&specs);
        let mut full = Npu::new(cfg());
        prepare(&mut full, &specs);
        let fs = full.run(&program).expect("runs");

        let mut timing = Npu::with_mode(cfg(), ExecMode::TimingOnly);
        prepare(&mut timing, &specs);
        let ts = timing.run(&program).expect("runs");

        prop_assert_eq!(fs.cycles, ts.cycles);
        prop_assert_eq!(fs.mvm_macs, ts.mvm_macs);
        prop_assert_eq!(fs.instructions, ts.instructions);
    }

    /// Every run starts with its scoreboards at 0: a program run right
    /// after a different one — which wrote what it reads — schedules
    /// exactly as on a fresh NPU.
    #[test]
    fn a_program_after_another_schedules_as_on_a_fresh_npu(
        before in prop::collection::vec(chain_strategy(), 1..10),
        specs in prop::collection::vec(chain_strategy(), 1..10),
    ) {
        let (first, program) = (build_writing(&before, true), build_program(&specs));
        for mode in [ExecMode::TimingOnly, ExecMode::Full] {
            let schedule = |npu: &mut Npu| {
                prepare(npu, &specs);
                npu.set_trace(true);
                let stats = npu.run(&program).expect("valid program runs");
                (stats, npu.take_trace())
            };
            let mut warm = Npu::with_mode(cfg(), mode);
            prepare(&mut warm, &before);
            warm.run(&first).expect("valid program runs");
            let mut fresh = Npu::with_mode(cfg(), mode);
            prop_assert_eq!(schedule(&mut warm), schedule(&mut fresh), "{:?}", mode);
        }
    }

    /// The bound's content once exactness at a point is true by
    /// construction: any per-vector arrival stamps inside the declared
    /// window — not only "everything staged at 0" — measure inside it.
    #[test]
    fn arrivals_inside_the_window_measure_inside_the_bound(
        specs in prop::collection::vec(chain_strategy(), 1..10),
        lo in 0u64..400,
        width in 0u64..3_000,
        offsets in prop::collection::vec(any::<u64>(), 18..19), // ≥ 9 chains × MRF_GRID
    ) {
        let program = build_program(&specs);
        let hi = lo + width;
        let bound = cycle_bounds(
            &program,
            &cfg(),
            &fuzz_options(&specs).with_input_arrival(lo, hi),
        )
        .expect("a valid program has a provable bound");
        let staged = cycle_bounds(&program, &cfg(), &fuzz_options(&specs)).expect("bounded");
        prop_assert!(staged.lower <= bound.lower, "later arrivals never finish sooner");

        for mode in [ExecMode::TimingOnly, ExecMode::Full] {
            let mut npu = Npu::with_mode(cfg(), mode);
            preload(&mut npu);
            for offset in &offsets[..net_vectors(&specs)] {
                npu.push_input_at(vec![0.0; ND as usize], lo + offset % (width + 1))
                    .expect("native vector");
            }
            let cycles = npu.run(&program).expect("runs").cycles;
            prop_assert!(
                bound.contains(cycles),
                "{:?}: {} outside [{}, {}]", mode, cycles, bound.lower, bound.upper
            );
        }
    }

    /// Untraced, a run in either mode may skip the periodic middle of a loop
    /// (`bw_core::sched`, "Fast-forward"); traced, it steps every chain.
    /// Both agree, statistic for statistic and output bit for bit, the two
    /// modes on every statistic, and the static bound at the arrivals' one
    /// stamp on the cycles.
    #[test]
    fn untraced_loops_schedule_exactly_as_traced_ones(spec in loop_strategy()) {
        let program = build_loop(&spec);
        let vectors = loop_vectors(&spec);
        let run = |mode, traced: bool| {
            let mut npu = Npu::with_mode(cfg(), mode);
            preload(&mut npu);
            for i in 0..vectors {
                let v = (0..u64::from(ND)).map(|j| ((i * 7 + j) as f32 * 0.31).cos()).collect();
                npu.push_input_at(v, spec.arrival).expect("native vector");
            }
            npu.set_trace(traced);
            let stats = npu.run(&program).expect("valid program runs");
            let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let outputs: Vec<_> = std::iter::from_fn(|| npu.pop_output()).map(bits).collect();
            (stats, outputs)
        };
        let fast = run(ExecMode::TimingOnly, false);
        prop_assert_eq!(&fast, &run(ExecMode::TimingOnly, true));
        let full = run(ExecMode::Full, false);
        prop_assert_eq!(&full, &run(ExecMode::Full, true));
        prop_assert_eq!(&full.0, &fast.0);
        let options = budget_options(vectors).with_input_arrival(spec.arrival, spec.arrival);
        prop_assert_eq!(
            cycle_bounds(&program, &cfg(), &options),
            Some(CycleBounds { lower: fast.0.cycles, upper: fast.0.cycles })
        );
    }

    /// A run is its two halves, `Npu::schedule` then `Npu::execute`, and a
    /// schedule is a value: executed on a twin primed as its own NPU was,
    /// or round after round where it started, it gives what a fresh
    /// `run_batch` gives — statistics, output bits and fault, with a fault
    /// emptying the queues — in either mode, at batch sizes 1 to 4. The
    /// programs are straight ones with an input short (a fault of the
    /// timeline) or no weights (one of the data pass), or resizing loops
    /// that may write the top of DRAM, fault past a register file or leave
    /// vectors queued; without their prelude, such a loop's first chains
    /// run at the registers the last run left.
    #[test]
    fn a_kept_schedule_runs_as_a_fresh_one(
        specs in prop::collection::vec(chain_strategy(), 1..10),
        resize in resizing_strategy(),
        resized in any::<bool>(),
        bare in any::<bool>(),
        batch in 1usize..=4,
        later in any::<bool>(),
        short in any::<bool>(),
        weighted in any::<bool>(),
    ) {
        let (program, vectors) = if resized {
            let mut program = build_resizing(&resize);
            if bare {
                program.segments.remove(0);
            }
            (program, 16 * batch)
        } else {
            let needed = net_vectors(&specs) * batch;
            (build_program(&specs), needed.saturating_sub(usize::from(short)))
        };
        let at = if later { 700 } else { 0 };
        for mode in [ExecMode::TimingOnly, ExecMode::Full] {
            let machine = || {
                let mut npu = Npu::with_mode(cfg(), mode);
                if weighted {
                    preload(&mut npu);
                }
                npu
            };
            let prime = |npu: &mut Npu| {
                for i in 0..vectors {
                    let v = (0..ND).map(|j| ((i as u32 * 5 + j) as f32 * 0.37).sin()).collect();
                    npu.push_input_at(v, at).expect("native vector");
                }
            };
            let outcome = |npu: &mut Npu, result: Result<RunStats, SimError>| {
                let queued = (npu.input_len(), npu.output_len());
                let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let outputs: Vec<_> = std::iter::from_fn(|| npu.pop_output()).map(bits).collect();
                (result, queued, outputs)
            };
            let (mut fresh, mut own, mut twin) = (machine(), machine(), machine());
            let mut kept = None;
            for round in 0..3 {
                for npu in [&mut fresh, &mut own, &mut twin] {
                    prime(npu);
                }
                let ran = fresh.run_batch(&program, batch);
                let want = outcome(&mut fresh, ran);
                if want.0.is_err() {
                    prop_assert_eq!(want.1, (0, 0), "{:?} round {}", mode, round);
                }
                // `own` schedules only where no kept schedule starts; the
                // twin executes the kept one, or refuses it exactly when
                // `own` does.
                let reused = kept.as_ref().filter(|s| own.can_execute(s)).is_some();
                if !reused {
                    kept = Some(own.schedule(&program, batch));
                }
                let schedule = kept.as_ref().expect("kept");
                prop_assert_eq!(twin.can_execute(schedule), true);
                let ran = twin.execute(schedule);
                prop_assert_eq!(&outcome(&mut twin, ran), &want, "{:?} round {}", mode, round);
                let ran = own.execute(schedule);
                prop_assert_eq!(&outcome(&mut own, ran), &want, "{:?} round {}", mode, round);
            }
        }
    }

    /// An `mv_mul` quantizes its input where the step list finds the
    /// quantized blocks stale, and multiplies what they hold where no step
    /// has written its input since (`bw_core::npu`, module doc). On chains
    /// that rewrite the register ranges later products read, the fast
    /// kernels give the bits of the reference ones, which quantize every
    /// input afresh.
    #[test]
    fn an_mv_mul_requantizes_exactly_where_its_input_was_written(
        specs in prop::collection::vec(chain_strategy(), 1..12),
        low in any::<bool>(),
    ) {
        // Every chain reads `InitialVrf` near the ranges the others write.
        let near = |s: &ChainSpec| ChainSpec {
            src: 1,
            src_index: s.src_index % 3,
            dst_index: s.dst_index % 4,
            ..s.clone()
        };
        let specs: Vec<ChainSpec> = specs.iter().map(near).collect();
        let program = build_writing(&specs, low);
        let run = |kernel| {
            let mut npu = Npu::new(cfg());
            npu.set_kernel_mode(kernel);
            prepare(&mut npu, &specs);
            let result = npu.run(&program);
            let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let outputs: Vec<_> = std::iter::from_fn(|| npu.pop_output()).map(bits).collect();
            (result, outputs)
        };
        prop_assert_eq!(run(KernelMode::Fast), run(KernelMode::Reference));
    }

    /// The data pass lowers a loop body once from the registers it enters
    /// with and, when the body changes them, once more from the ones every
    /// later iteration enters with (`bw_core::npu`, module doc). So a
    /// resizing loop computes what its body written out once per iteration
    /// computes — output bits, fault, and the counts of chains, MACs and
    /// vectors in and out — at batch sizes 1 to 3.
    #[test]
    fn a_resizing_loop_computes_as_its_body_written_out(
        resize in resizing_strategy(),
        batch in 1usize..=3,
    ) {
        let looped = build_resizing(&resize);
        let mut unrolled = looped.clone();
        let body = unrolled.segments.pop().expect("a loop body");
        let once = Segment { iterations: 1, ..body.clone() };
        unrolled.segments.extend(std::iter::repeat_n(once, body.iterations as usize));
        let run = |program: &Program| {
            let mut npu = Npu::new(cfg());
            preload(&mut npu);
            for i in 0..16 * batch {
                let v = (0..ND).map(|j| ((i as u32 * 5 + j) as f32 * 0.37).sin()).collect();
                npu.push_input(v).expect("native vector");
            }
            let counts = |s: RunStats| (s.chains, s.mvm_macs, s.net_vectors_in, s.net_vectors_out);
            let result = npu.run_batch(program, batch).map(counts);
            let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let outputs: Vec<_> = std::iter::from_fn(|| npu.pop_output()).map(bits).collect();
            (result, outputs)
        };
        prop_assert_eq!(run(&looped), run(&unrolled));
    }

    /// The deploy gate's contract (`bw_core::sched`, "Faults"), on loops
    /// whose bodies resize their own chains and may write past DRAM: a
    /// program `validate` passes raises no data-free fault but an empty
    /// queue, and the fault a run raises is the first `validate` reports.
    /// (And it rejects no program that runs to the end.)
    #[test]
    fn the_gate_and_the_timeline_raise_the_same_faults(spec in resizing_strategy()) {
        let program = build_resizing(&spec);
        let errors = program.validate(&cfg());
        let mut npu = Npu::with_mode(cfg(), ExecMode::TimingOnly);
        npu.push_input_zeros(1 << 30);
        match npu.run(&program) {
            Ok(_) => prop_assert!(errors.is_empty(), "ran clean, rejected: {:?}", errors),
            Err(SimError::NetQueueEmpty { .. }) => {}
            Err(e) => {
                prop_assert!(!errors.is_empty(), "validate passed; the run raised {}", e);
                prop_assert_eq!(&errors[0].fault, &e);
            }
        }
    }

    #[test]
    fn random_valid_programs_lint_without_errors(
        specs in prop::collection::vec(chain_strategy(), 1..12)
    ) {
        let program = build_program(&specs);
        let report = analyze_with(&program, &cfg(), fuzz_options(&specs));
        prop_assert_eq!(report.error_count(), 0, "{}", report);
    }

    #[test]
    fn corrupted_programs_are_caught_or_fail_safely(
        specs in prop::collection::vec(chain_strategy(), 1..10),
        mutation in mutation_strategy(),
    ) {
        // Either the chain rules reject the corruption, or the linter
        // flags it, or the program is still coherent enough to execute —
        // in which case it must fault through `SimError`, never panic.
        // (Corruptions that only inflate a loop count are skipped to
        // bound test time.)
        if let Some(program) = mutate(&build_program(&specs), mutation) {
            let report = analyze_with(&program, &cfg(), fuzz_options(&specs));
            let caught = report.error_count() > 0;
            let looping = program.segments.iter().any(|s| s.iterations > 1_000);
            if !caught && !looping {
                // A lint-clean program raises no capacity fault: only an
                // empty queue or a fault of the data pass.
                let mut npu = Npu::new(cfg());
                prepare(&mut npu, &specs);
                let result = npu.run(&program);
                prop_assert!(
                    matches!(
                        result,
                        Ok(_)
                            | Err(SimError::NetQueueEmpty { .. }
                                | SimError::MrfEntryUninitialized { .. }
                                | SimError::DramMatrixUninitialized { .. })
                    ),
                    "a lint-clean program faulted: {:?}", result.err()
                );
            }
            // Whatever the linter made of it: with budgets declared from
            // what was actually pushed, a bound is unprovable exactly when
            // the timing-only machine faults, and otherwise is its count.
            if !looping {
                let bound = cycle_bounds(&program, &cfg(), &fuzz_options(&specs));
                let mut npu = Npu::with_mode(cfg(), ExecMode::TimingOnly);
                prepare(&mut npu, &specs);
                match npu.run(&program) {
                    Ok(stats) => prop_assert_eq!(
                        bound,
                        Some(CycleBounds { lower: stats.cycles, upper: stats.cycles })
                    ),
                    Err(e) => prop_assert_eq!(bound, None, "simulator faulted with {}", e),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The NetQ count against the timeline, on loops whose bodies resize
    /// their own chains: the vectors a gate-clean run pops are the least
    /// budget free of BW030 (one fewer and the run faults on an empty
    /// queue), and the vectors it pushes the one count free of BW032.
    #[test]
    fn the_netq_count_agrees_with_the_timeline(spec in resizing_strategy()) {
        let program = build_resizing(&spec);
        if !program.validate(&cfg()).is_empty() {
            return Ok(());
        }
        let queued = 1usize << 30;
        let mut npu = Npu::with_mode(cfg(), ExecMode::TimingOnly);
        npu.push_input_zeros(queued);
        let ran = npu.run(&program);
        prop_assert!(ran.is_ok(), "a gate-clean program faulted: {:?}", ran);
        let needed = (queued - npu.input_len()) as u64;
        let outputs = npu.output_len() as u64;
        let flags = |options: AnalysisOptions, code: DiagCode| {
            let report = analyze_with(&program, &cfg(), options);
            report.diagnostics.iter().any(|d| d.code == code)
        };
        prop_assert!(!flags(budget_options(needed), DiagCode::NetUnderflow));
        if needed > 0 {
            prop_assert!(flags(budget_options(needed - 1), DiagCode::NetUnderflow));
            let mut short = Npu::with_mode(cfg(), ExecMode::TimingOnly);
            short.push_input_zeros(needed as usize - 1);
            let fault = short.run(&program);
            let empty = matches!(fault, Err(SimError::NetQueueEmpty { .. }));
            prop_assert!(empty, "{} vectors: {:?}", needed - 1, fault);
        }
        let expecting = |count| budget_options(needed).with_expected_outputs(count);
        prop_assert!(!flags(expecting(outputs), DiagCode::NetOutputMismatch));
        prop_assert!(flags(expecting(outputs + 1), DiagCode::NetOutputMismatch));
    }
}

// ---------------------------------------------------------------------------
// Whole-artifact plan fuzzing: scatter/gather pipelines assembled from
// random shard programs, checked against a reference executor. The
// cross-shard passes must never panic on mutated or bit-corrupted plans,
// and must never report an artifact as deadlocking when the reference
// scatter/gather execution completes cleanly.
// ---------------------------------------------------------------------------

/// Per-stage plan: one entry per member giving that member's output
/// vector count. Member input pops are derived from the upstream gather,
/// so a generated plan is balanced by construction.
type StagePlan = Vec<u32>;

fn stages_strategy() -> impl Strategy<Value = Vec<StagePlan>> {
    prop::collection::vec(prop::collection::vec(1u32..4, 1..4), 1..4)
}

/// A shard program popping `pops` NetQ vectors and pushing `pushes`
/// output vectors, staging through the InitialVrf halves.
fn shard_program(pops: u32, pushes: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.set_rows(1).set_cols(1);
    for i in 0..pops {
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, VRF / 2 + i % (VRF / 2))
            .end_chain()
            .expect("pop chain is valid");
    }
    for i in 0..pushes {
        b.v_rd(MemId::InitialVrf, i % (VRF / 2))
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .expect("push chain is valid");
    }
    b.build()
}

/// The deployment facts a serving runtime declares for one shard.
fn shard_options(pops: u32, pushes: u32) -> AnalysisOptions {
    AnalysisOptions::default()
        .preload(MemId::InitialVrf, 0, VRF)
        .with_input_vectors(u64::from(pops))
        .with_expected_outputs(u64::from(pushes))
}

/// Owned pieces of a generated artifact plan; programs must outlive the
/// borrowed [`ArtifactView`].
struct Plan {
    programs: Vec<Program>,
    /// `(pops, pushes)` per unit, in stage order.
    meta: Vec<(u32, u32)>,
    stages: Vec<StagePlan>,
    input_vectors: u32,
}

fn build_plan(input_vectors: u32, stages: &[StagePlan]) -> Plan {
    let mut programs = Vec::new();
    let mut meta = Vec::new();
    let mut vin = input_vectors;
    for members in stages {
        for &pushes in members {
            programs.push(shard_program(vin, pushes));
            meta.push((vin, pushes));
        }
        vin = members.iter().sum();
    }
    Plan {
        programs,
        meta,
        stages: stages.to_vec(),
        input_vectors,
    }
}

/// Assembles the artifact view over `programs` (usually the plan's own,
/// or a mutated copy). `dim_bump` misdeclares one unit's input width.
fn plan_view<'a>(
    plan: &Plan,
    programs: &'a [Program],
    config: &'a NpuConfig,
    dim_bump: Option<usize>,
) -> ArtifactView<'a> {
    let mut view = ArtifactView::new("fuzz", (plan.input_vectors * ND) as usize);
    let mut ui = 0;
    for (si, members) in plan.stages.iter().enumerate() {
        let mut us = Vec::new();
        for mi in 0..members.len() {
            let (pops, pushes) = plan.meta[ui];
            let mut input_dim = (pops * ND) as usize;
            if dim_bump == Some(ui) {
                input_dim += ND as usize;
            }
            us.push(view.add_unit(ArtifactUnit {
                name: format!("fuzz#g{si}s{mi}"),
                program: &programs[ui],
                config,
                options: shard_options(pops, pushes),
                input_dim,
                output_dim: (pushes * ND) as usize,
            }));
            ui += 1;
        }
        if us.len() == 1 {
            view.push_single(us[0]);
        } else {
            view.push_sharded(us);
        }
    }
    view
}

/// The reference scatter/gather executor for one shard: push the full
/// scatter payload, run, collect the gathered outputs.
fn run_shard(program: &Program, payload: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let mut npu = Npu::new(cfg());
    for slot in 0..VRF {
        let v: Vec<f32> = (0..ND)
            .map(|i| ((slot + i) as f32 * 0.21).cos() * 0.5)
            .collect();
        npu.load_vector(MemId::InitialVrf, slot, &v).unwrap();
    }
    for v in payload {
        npu.push_input(v.clone()).expect("scatter push fits");
    }
    npu.run(program).expect("a balanced shard runs cleanly");
    let mut outs = Vec::new();
    while let Some(v) = npu.pop_output() {
        outs.push(v);
    }
    outs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The differential guarantee: an artifact whose reference
    /// scatter/gather execution completes cleanly must never be reported
    /// as deadlocking (no BW110), and its composed bound is provable.
    #[test]
    fn clean_artifacts_match_the_reference_scatter_gather_executor(
        v0 in 1u32..4,
        stages in stages_strategy(),
    ) {
        let plan = build_plan(v0, &stages);
        let config = cfg();
        let view = plan_view(&plan, &plan.programs, &config, None);

        // Reference execution: scatter the payload to every member of a
        // stage, run each on a live NPU, gather the concatenated outputs
        // into the next stage's payload.
        let mut payload: Vec<Vec<f32>> = (0..v0)
            .map(|k| (0..ND).map(|i| ((k * ND + i) as f32 * 0.07).sin()).collect())
            .collect();
        let mut ui = 0;
        for members in &stages {
            let mut gathered = Vec::new();
            for &pushes in members {
                let outs = run_shard(&plan.programs[ui], &payload);
                prop_assert_eq!(outs.len(), pushes as usize, "gather count");
                gathered.extend(outs);
                ui += 1;
            }
            payload = gathered;
        }
        prop_assert!(payload.iter().all(|v| v.iter().all(|x| x.is_finite())));

        // The static verdict must agree with the clean execution.
        let report = analyze_artifact(&view);
        prop_assert!(
            !report.diagnostics.iter().any(|d| d.code == DiagCode::ShardPopUnmatched),
            "clean artifact reported as deadlocking:\n{}", report
        );
        prop_assert_eq!(report.error_count(), 0, "{}", report);
        let b = artifact_cycle_bounds(&view).expect("clean artifact has a provable bound");
        prop_assert!(b.lower > 0 && b.lower <= b.upper);
    }

    /// Structural mutations of a balanced plan — excess/missing pops or
    /// pushes, a misdeclared width — are each flagged as errors, never
    /// panics, and the report is deterministic.
    #[test]
    fn mutated_artifact_plans_are_flagged_never_panicked(
        v0 in 1u32..4,
        stages in stages_strategy(),
        pick in any::<u16>(),
        kind in 0u8..5,
    ) {
        let plan = build_plan(v0, &stages);
        let config = cfg();
        let ui = usize::from(pick) % plan.programs.len();
        let (pops, pushes) = plan.meta[ui];

        let mut programs = plan.programs.clone();
        let mut dim_bump = None;
        match kind {
            0 => programs[ui] = shard_program(pops + 1, pushes),
            1 => programs[ui] = shard_program(pops - 1, pushes),
            2 => programs[ui] = shard_program(pops, pushes + 1),
            3 => programs[ui] = shard_program(pops, pushes - 1),
            _ => dim_bump = Some(ui),
        }
        let view = plan_view(&plan, &programs, &config, dim_bump);

        let report = analyze_artifact(&view);
        prop_assert!(
            report.error_count() > 0,
            "mutation kind {} on unit {} went unflagged:\n{}", kind, ui, report
        );
        // Deterministic: a second run renders the identical report.
        prop_assert_eq!(report.to_string(), analyze_artifact(&view).to_string());
        // Bounds may be unprovable on a corrupted plan, but never panic.
        let _ = artifact_cycle_bounds(&view);
    }

    /// Bit-level corruption of one shard's firmware: whatever a flipped
    /// field makes of it, the artifact checks classify it — they never
    /// panic.
    #[test]
    fn byte_corrupted_shard_plans_never_panic_the_artifact_passes(
        v0 in 1u32..4,
        stages in stages_strategy(),
        pick in any::<u16>(),
        mutation in mutation_strategy(),
    ) {
        let plan = build_plan(v0, &stages);
        let ui = usize::from(pick) % plan.programs.len();
        if let Some(corrupt) = mutate(&plan.programs[ui], mutation) {
            let mut programs = plan.programs.clone();
            programs[ui] = corrupt;
            let config = cfg();
            let view = plan_view(&plan, &programs, &config, None);
            let report = analyze_artifact(&view);
            let _ = artifact_cycle_bounds(&view);
            prop_assert_eq!(report.to_string(), analyze_artifact(&view).to_string());
        }
    }
}
