//! The assembled NPU: the scheduler timeline plus functional execution.
//!
//! Every cycle an [`Npu`] reports comes from [`crate::sched`], which states
//! the timing recurrence (dispatch, dependency and resource edges) once;
//! this module adds what a timeline cannot know — the values. A run is two
//! passes. [`Npu::schedule`] runs the timeline over the whole of it and
//! returns a [`Schedule`]; [`Npu::execute`] runs a pass that reads no
//! timing over the chains it placed, in program order, over the data
//! planes of [`crate::mem`] (in [`ExecMode::Full`]; in
//! [`ExecMode::TimingOnly`] the timeline is the whole machine), and applies
//! the run's queue and register effects. [`Npu::run_batch`] is the two
//! calls. A schedule depends only on the program, the configuration, the
//! batch size, the tiling registers and the queued arrival stamps, so it
//! can be kept and executed again from the same start state.
//!
//! Chains with an `mv_mul` read `cols` native vectors and emit `rows`;
//! chains without one operate at `rows` width throughout. Binary MFU
//! operations read their operand from the register file of the MFU they
//! execute on: the k-th add/sub operation of a chain reads `AddSubVrf(k)`,
//! the k-th multiply reads `MultiplyVrf(k)`.
//!
//! # The data pass
//!
//! The data pass decodes nothing. In [`ExecMode::Full`], `schedule` also
//! lowers the program's data half into step lists the [`Schedule`] keeps,
//! as the hardware's decode expands each compound instruction once
//! (§V-C): a step is one instruction of a chain with its operands resolved
//! for the tiling registers the chain runs under — register files by
//! ordinal, entries by index, `(w_in, w_out)`, the MRF tile grid, each MFU
//! operation with its operand file and its kernel, the multicast writes.
//! There is one list per segment body, replayed once per iteration. A
//! body's register writes each set a constant, so the registers it enters
//! with take at most two values, the first iteration's and the one every
//! later iteration starts from, and a body needs at most two lists; a
//! batch's later columns likewise all start where the first ends. A
//! [`ExecMode::TimingOnly`] NPU lowers nothing, and an unpinned
//! [`Npu::run_batch`] lowers into lists the NPU keeps, so a warm run
//! allocates nothing.
//!
//! The lists make visible what a chain-at-a-time interpreter could only
//! compare at run time. An `mv_mul` quantizes its input vectors once per
//! value written to them: a step whose input is the register range the
//! `mv_mul` before it quantized, with no write to that range between
//! them, multiplies the blocks already held (a recurrent cell's gates
//! share `x_t` and `h_{t-1}` so). The kernel mode is a choice each step
//! makes when it is lowered, not a branch the pass takes per chain: a
//! lowering detects the host's vector unit once ([`bw_bfp::Simd`]) and
//! every MFU operation and operand quantization of a `Fast` list carries
//! it, so no step detects the CPU; a [`KernelMode::Reference`] list runs
//! the naive MVM and the portable float16 loops.
//!
//! The pass counts chains as it replays them and stops at the first the
//! timeline did not place, so a content fault —
//! [`SimError::MrfEntryUninitialized`], [`SimError::DramMatrixUninitialized`]
//! — surfaces at the chain it always did ([`crate::sched`], "Faults").
//! Lowering stops at a chain whose operands do not resolve: the timeline
//! faults at that chain or before it, so no step past it runs.

use std::fmt;
use std::ops::Range;

use bw_bfp::{BfpBlock, BfpFormat, BfpMatrix, Simd};

use crate::config::NpuConfig;
use crate::isa::{Chain, Instruction, Item, MemId, Program, ScalarReg};
use crate::mem::{Dram, MatrixFile, NetQueues, VectorFile};
use crate::mfu;
use crate::mvm;
use crate::sched::{
    dram_span, mrf_span, vrf_span, ChainTiming, FastForward, OperandFiles, Queued, Scheduled,
    Timeline,
};
use crate::stats::RunStats;
use crate::trace::{SpanKind, SpanRecord};

/// Whether a run computes real values or only models time.
///
/// Either way the cycles come from the same scheduler timeline (see
/// [`crate::sched`]), so both modes report identical [`RunStats`] and
/// [`ChainTrace`]s for the same program and arrivals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Execute arithmetic functionally (BFP matrix math, float16 MFU ops)
    /// and model cycles. The default.
    #[default]
    Full,
    /// Model cycles only: the NPU is the scheduler timeline and nothing
    /// else — no register-file, DRAM or queue contents are allocated, host
    /// loads are checked as in `Full` and dropped, and popped outputs are
    /// zero vectors. Used for large performance sweeps where computing tens
    /// of gigaMACs in software would dominate run time without changing any
    /// timing result. Faults that depend on contents (an uninitialized MRF
    /// entry or DRAM matrix) are not raised.
    TimingOnly,
}

/// Which functional kernel implementation an [`ExecMode::Full`] run uses.
/// Cycle counts and computed values are identical in both modes; only
/// host-side wall-clock cost differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelMode {
    /// The optimized kernels: reusable MVM quantization scratch,
    /// flat-accumulator BFP dot products and the MFU's float16 loops at
    /// the host's vector width. The default.
    #[default]
    Fast,
    /// The retained reference kernels: fresh quantization and accumulator
    /// allocations per `mv_mul`, naive element-by-element BFP dot products
    /// and the MFU's portable float16 loops. The oracle of the
    /// differential test suite.
    Reference,
}

/// The resource class a traced chain executed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChainKind {
    /// A chain containing an `mv_mul` (occupies the MVM).
    Mvm,
    /// A compute chain without an `mv_mul` (occupies the MFU stream).
    Mfu,
    /// A pure data move (rides the vector arbitration network).
    Move,
    /// A matrix move (`m_rd` → `m_wr`, on the memory path).
    MatrixMove,
}

/// One chain's timing record, collected when tracing is enabled with
/// [`Npu::set_trace`]. All times are cycles.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainTrace {
    /// Which resource the chain used.
    pub kind: ChainKind,
    /// When the control processor finished streaming the chain.
    pub dispatched_at: u64,
    /// The earliest start its data dependencies allowed.
    pub dep_ready_at: u64,
    /// When it actually started (max of dispatch, dependencies, resource).
    pub start: u64,
    /// Cycles it occupied its resource.
    pub occupancy: u64,
    /// When its results became architecturally visible.
    pub completion: u64,
}

/// Error produced while loading state or executing a program.
///
/// # Errors
///
/// Each variant has one source — the host loaders, the timeline or the
/// data pass — named in [Faults](crate::sched#faults).
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// A VRF access fell outside the file's capacity.
    VrfIndexOutOfRange {
        /// Name of the register file.
        file: &'static str,
        /// First entry accessed.
        index: u32,
        /// Number of entries accessed.
        width: u32,
        /// File capacity in entries.
        capacity: u32,
    },
    /// A DRAM access fell outside the modelled address space.
    DramIndexOutOfRange {
        /// First entry accessed.
        index: u32,
        /// Number of entries accessed.
        width: u32,
        /// Entries in the modelled address space.
        capacity: u32,
    },
    /// An MRF access fell outside its capacity.
    MrfIndexOutOfRange {
        /// Entry accessed.
        index: u32,
        /// MRF capacity in entries.
        capacity: u32,
    },
    /// An `mv_mul` referenced an MRF entry never written.
    MrfEntryUninitialized {
        /// The uninitialized entry.
        index: u32,
    },
    /// An `m_rd` referenced a DRAM matrix never written.
    DramMatrixUninitialized {
        /// The uninitialized entry.
        index: u32,
    },
    /// The network input queue had fewer vectors than a read required.
    NetQueueEmpty {
        /// Vectors requested.
        requested: u32,
        /// Vectors available.
        available: u32,
    },
    /// A vector or buffer had the wrong length.
    VectorLengthMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A matrix exceeds the `rows × cols` native tile grid it was loaded
    /// into.
    MatrixDoesNotFitGrid {
        /// Source matrix rows.
        mat_rows: usize,
        /// Source matrix columns.
        mat_cols: usize,
        /// Grid rows (native tiles).
        grid_rows: u32,
        /// Grid columns (native tiles).
        grid_cols: u32,
        /// The configuration's native dimension.
        native_dim: u32,
    },
    /// A chain required more function units of one kind than the
    /// configuration provides.
    MfuCapacityExceeded {
        /// Unit kind (`"add/sub"`, `"multiply"`, `"activation"`).
        kind: &'static str,
        /// Units the chain requires.
        used: usize,
        /// Units available (one per MFU).
        available: u32,
    },
    /// An `AddSubVrf(i)`/`MultiplyVrf(i)` index exceeded the MFU count.
    BadVrfFileIndex {
        /// The offending memory identifier.
        mem: MemId,
        /// Number of MFUs in the configuration.
        mfus: u32,
    },
    /// A tiling register was set to zero.
    BadRegValue {
        /// The register written.
        reg: ScalarReg,
    },
    /// A host-supplied matrix tile is not one native `N × N` tile in the
    /// configuration's matrix format.
    ForeignTile {
        /// Tile rows.
        rows: usize,
        /// Tile columns.
        cols: usize,
        /// The tile's block floating-point format.
        format: BfpFormat,
    },
    /// A [`Schedule`] was executed on an NPU whose tiling registers or
    /// queued arrivals are not the ones it was computed from, or whose
    /// modes are not the ones its data half was lowered for.
    StaleSchedule,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::VrfIndexOutOfRange {
                file,
                index,
                width,
                capacity,
            } => write!(
                f,
                "{file} access [{index}, {index}+{width}) exceeds capacity {capacity}"
            ),
            SimError::DramIndexOutOfRange {
                index,
                width,
                capacity,
            } => write!(
                f,
                "Dram access [{index}, {index}+{width}) exceeds capacity {capacity}"
            ),
            SimError::MrfIndexOutOfRange { index, capacity } => {
                write!(f, "MRF entry {index} exceeds capacity {capacity}")
            }
            SimError::MrfEntryUninitialized { index } => {
                write!(f, "MRF entry {index} read before initialization")
            }
            SimError::DramMatrixUninitialized { index } => {
                write!(f, "DRAM matrix {index} read before initialization")
            }
            SimError::NetQueueEmpty {
                requested,
                available,
            } => write!(
                f,
                "network input queue has {available} vectors, read needs {requested}"
            ),
            SimError::VectorLengthMismatch { expected, actual } => {
                write!(
                    f,
                    "vector length {actual} does not match expected {expected}"
                )
            }
            SimError::MatrixDoesNotFitGrid {
                mat_rows,
                mat_cols,
                grid_rows,
                grid_cols,
                native_dim,
            } => write!(
                f,
                "matrix {mat_rows}x{mat_cols} exceeds {grid_rows}x{grid_cols} grid of \
                 {native_dim}x{native_dim} native tiles"
            ),
            SimError::MfuCapacityExceeded {
                kind,
                used,
                available,
            } => write!(
                f,
                "chain uses {used} {kind} operations but only {available} MFUs exist"
            ),
            SimError::BadVrfFileIndex { mem, mfus } => {
                write!(f, "{mem} does not exist in a {mfus}-MFU configuration")
            }
            SimError::BadRegValue { reg } => {
                write!(f, "control register {reg} must be non-zero")
            }
            SimError::ForeignTile { rows, cols, format } => {
                write!(
                    f,
                    "{rows}x{cols} {format} tile is not a native tile of this NPU"
                )
            }
            SimError::StaleSchedule => write!(
                f,
                "schedule was computed from other tiling registers, queued arrivals or modes"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Where a lowered step reads or writes the chain value: the network
/// queue, a DRAM entry, or entry `index` of register file `file` (in
/// `vrf_file` order).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Place {
    NetQ,
    Dram(u32),
    Vrf(usize, u32),
}

/// One step of a lowered list: an instruction of a chain with every operand
/// resolved for the tiling registers the chain runs under.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// A chain begins: the chain-count cutoff counts here.
    Chain,
    /// `m_rd` → `m_wr` of `count` tiles: `(from, to, count)`.
    Move((MemId, u32), (MemId, u32), u32),
    /// A head `v_rd` of `width` native vectors, no `mv_mul` after it.
    Read(Place, u32),
    /// The head `v_rd` and the `mv_mul` of the `grid` — `(base, rows,
    /// cols)` — by the kernels of `kernel`, its `cols` input vectors read
    /// from `from`. The fast kernel quantizes them only if `quantize`:
    /// otherwise the blocks already hold them, as no step wrote them since
    /// the step that did. The reference kernel quantizes afresh.
    MvMul {
        from: Place,
        quantize: bool,
        grid: (u32, u32, u32),
        kernel: KernelMode,
        simd: Simd,
    },
    /// An MFU operation; a binary one reads the chain's width of its
    /// operand file from an index.
    Mfu(mfu::MfuOp, Option<(usize, u32)>),
    /// A `v_wr` of the chain's final value.
    Write(Place),
}

/// A program's data half lowered from one start state for one kernel mode:
/// the step lists [`Npu::execute`] replays (module doc).
#[derive(Clone, Debug, Default)]
struct Lowered {
    kernel: KernelMode,
    /// The bodies `kernel` runs, resolved once per lowering.
    simd: Simd,
    steps: Vec<Step>,
    /// `(steps, times)`: a step list, replayed `times` times in a row.
    runs: Vec<(Range<usize>, u32)>,
    /// The runs of the first batch column, and of every later one.
    columns: [Range<usize>; 2],
}

impl Lowered {
    /// Lowers `batch` columns of `program` from tiling registers `regs`,
    /// reusing this list's storage. A column ends in the registers every
    /// later one starts from (each is set to a constant or passed through),
    /// so the later columns share one lowering.
    fn lower(&mut self, config: &NpuConfig, program: &Program, regs: (u32, u32), batch: usize) {
        self.simd = mfu::simd(self.kernel);
        self.steps.clear();
        self.runs.clear();
        let first = self.column(config, program, regs);
        let n = self.runs.len();
        self.columns = [0..n, 0..n];
        if let Some(end) = first.ok().filter(|&end| batch > 1 && end != regs) {
            let _ = self.column(config, program, end);
            self.columns[1] = n..self.runs.len();
        }
    }

    /// Lowers one column from `regs` and returns the registers it leaves.
    /// A body's first iteration is lowered from its entry registers; if it
    /// leaves them changed, the second from those, which every later
    /// iteration starts from too. Lowering stops at a chain whose operands
    /// do not resolve: the timeline faults at or before that chain, so no
    /// step after it runs.
    fn column(
        &mut self,
        config: &NpuConfig,
        program: &Program,
        mut regs: (u32, u32),
    ) -> Result<(u32, u32), SimError> {
        for segment in &program.segments {
            let mut left = segment.iterations;
            while left > 0 {
                let (start, entry) = (self.steps.len(), regs);
                // Each replay of a list starts with blocks of unknown contents.
                let mut quantized = None;
                let ended = segment.items.iter().try_for_each(|item| match *item {
                    Item::SetReg { reg, value } => {
                        match reg {
                            ScalarReg::Rows => regs.0 = value,
                            ScalarReg::Cols => regs.1 = value,
                        }
                        Ok(())
                    }
                    Item::Chain(ref chain) => {
                        self.steps.push(Step::Chain);
                        let widths = chain.widths(regs.0, regs.1);
                        self.chain(config, chain, widths, &mut quantized)
                    }
                });
                let times = if ended.is_ok() && regs == entry {
                    left
                } else {
                    1
                };
                if start < self.steps.len() {
                    self.runs.push((start..self.steps.len(), times));
                }
                ended?;
                left -= times;
            }
        }
        Ok(regs)
    }

    /// Lowers one chain, `w_in` native vectors in and `w_out` out;
    /// `quantized` is the VRF range, `(file, index, width)`, that the
    /// quantized blocks hold.
    fn chain(
        &mut self,
        config: &NpuConfig,
        chain: &Chain,
        (w_in, w_out): (u32, u32),
        quantized: &mut Option<(usize, u32, u32)>,
    ) -> Result<(), SimError> {
        use Instruction::{MRd, MWr, MvMul, VRd, VWr};
        let place = |mem, index, width| match mem {
            MemId::NetQ => Ok(Place::NetQ),
            MemId::Dram => Ok(Place::Dram(index)),
            _ => vrf_span(config, mem, index, width).map(|(file, _)| Place::Vrf(file, index)),
        };
        let (from, rest) = match *chain.instructions() {
            [MRd { mem, index }, MWr { mem: to, index: at }] => {
                self.steps.push(Step::Move((mem, index), (to, at), w_out));
                return Ok(());
            }
            [VRd { mem, index }, ref rest @ ..] => (place(mem, index, w_in)?, rest),
            _ => unreachable!("`Chain::new` admits no other head"),
        };
        let rest = match *rest {
            [MvMul { mrf_index }, ref rest @ ..] => {
                let source = match from {
                    Place::Vrf(file, index) => Some((file, index, w_in)),
                    _ => None,
                };
                self.steps.push(Step::MvMul {
                    from,
                    quantize: source.is_none() || source != *quantized,
                    grid: (mrf_index, w_out, w_in),
                    kernel: self.kernel,
                    simd: self.simd,
                });
                *quantized = source;
                rest
            }
            ref rest => {
                self.steps.push(Step::Read(from, w_in));
                rest
            }
        };
        let mut operands = OperandFiles::default();
        for instr in rest {
            let step = match *instr {
                VWr { mem, index } => {
                    let to = place(mem, index, w_out)?;
                    // A write over the quantized range makes its blocks stale.
                    if let (Place::Vrf(file, at), Some((f, i, w))) = (to, *quantized) {
                        if file == f && at < i + w && i < at + w_out {
                            *quantized = None;
                        }
                    }
                    Step::Write(to)
                }
                Instruction::VvAdd { index }
                | Instruction::VvASubB { index }
                | Instruction::VvBSubA { index }
                | Instruction::VvMax { index }
                | Instruction::VvMul { index } => {
                    let (file, _) = vrf_span(config, operands.next(instr), index, w_out)?;
                    Step::Mfu(
                        mfu::MfuOp::new(instr.opcode(), self.simd),
                        Some((file, index)),
                    )
                }
                _ => Step::Mfu(mfu::MfuOp::new(instr.opcode(), self.simd), None),
            };
            self.steps.push(step);
        }
        Ok(())
    }
}

/// The data pass's reusable buffers, retained across chains and runs so
/// the steady-state hot path performs no allocation.
#[derive(Clone, Debug, Default)]
struct Buffers {
    /// The chain's current value: `width` native vectors, flat.
    cur: Vec<f32>,
    /// An `mv_mul`'s input read from the network queue or DRAM.
    aux: Vec<f32>,
    /// An `mv_mul`'s quantized input vectors, one block per grid column.
    blocks: Vec<BfpBlock>,
}

/// Everything an [`ExecMode::Full`] NPU holds beyond the timeline: storage
/// contents, the data pass's buffers and the lowering an unpinned run
/// reuses.
#[derive(Clone, Debug)]
struct DataPlanes {
    mrf: MatrixFile,
    /// The `1 + 2·mfus` vector register files, in `vrf_file` order.
    vrfs: Vec<VectorFile>,
    dram: Dram,
    net: NetQueues,
    /// The kernels a program is lowered for.
    kernel: KernelMode,
    buf: Buffers,
    /// What [`Npu::run_batch`] lowers into, run after run.
    lowered: Lowered,
}

impl DataPlanes {
    fn new(config: &NpuConfig) -> Self {
        let nd = config.native_dim() as usize;
        DataPlanes {
            mrf: MatrixFile::new(config.mrf_entries() as usize),
            vrfs: vec![VectorFile::new(nd); 1 + 2 * config.mfus() as usize],
            dram: Dram::default(),
            net: NetQueues::default(),
            kernel: KernelMode::Fast,
            buf: Buffers::default(),
            lowered: Lowered::default(),
        }
    }

    /// The data pass: `batch` columns of the step lists of `lowered`, as
    /// far as their first `chains` chains, the ones the timeline placed
    /// before any fault ([`crate::sched`], "Faults").
    fn run(
        &mut self,
        config: &NpuConfig,
        lowered: &Lowered,
        batch: usize,
        mut chains: u64,
    ) -> Result<(), SimError> {
        let mut buf = std::mem::take(&mut self.buf);
        let mut replay = || {
            for column in 0..batch {
                let runs = lowered.columns[usize::from(column > 0)].clone();
                for (steps, times) in &lowered.runs[runs] {
                    for _ in 0..*times {
                        for step in &lowered.steps[steps.clone()] {
                            if let Step::Chain = step {
                                let Some(left) = chains.checked_sub(1) else {
                                    return Ok(());
                                };
                                chains = left;
                            }
                            self.step(config, *step, &mut buf)?;
                        }
                    }
                }
            }
            Ok(())
        };
        let result = replay();
        self.buf = buf;
        result
    }

    /// Appends `width` native vectors read from `from` to `out`.
    fn read(&mut self, from: Place, width: u32, nd: usize, out: &mut Vec<f32>) {
        match from {
            Place::NetQ => self.net.input.pop_into(width as usize * nd, out),
            Place::Dram(index) => self.dram.read_vectors_into(index, width, nd, out),
            Place::Vrf(file, index) => out.extend_from_slice(self.vrfs[file].read(index, width)),
        }
    }

    /// One step, which the timeline has already checked: only a content
    /// fault can arise.
    fn step(&mut self, config: &NpuConfig, step: Step, buf: &mut Buffers) -> Result<(), SimError> {
        let nd = config.native_dim() as usize;
        match step {
            Step::Chain => buf.cur.clear(),
            Step::Move(from, to, count) => self.move_tiles(from, to, count)?,
            Step::Read(from, width) => self.read(from, width, nd, &mut buf.cur),
            Step::MvMul {
                from,
                quantize,
                grid,
                kernel,
                simd,
            } => {
                let input = match from {
                    Place::Vrf(file, index) => self.vrfs[file].read(index, grid.2),
                    _ => {
                        buf.aux.clear();
                        self.read(from, grid.2, nd, &mut buf.aux);
                        &buf.aux
                    }
                };
                match kernel {
                    KernelMode::Fast => {
                        if quantize {
                            mvm::quantize_columns(config, simd, input, &mut buf.blocks);
                        }
                        mvm::compute_into(config, &self.mrf, grid, &buf.blocks, &mut buf.cur)?;
                    }
                    KernelMode::Reference => {
                        buf.cur = mvm::compute_naive(config, &self.mrf, grid, input)?.concat();
                    }
                }
            }
            Step::Mfu(op, operand) => {
                let width = (buf.cur.len() / nd) as u32;
                let operand = match operand {
                    Some((file, index)) => self.vrfs[file].read(index, width),
                    None => &[],
                };
                op.apply(&mut buf.cur, operand);
            }
            Step::Write(to) => match to {
                Place::NetQ => self.net.output.push(&buf.cur, buf.cur.len()),
                Place::Dram(index) => self.dram.write_vectors(index, &buf.cur, nd),
                Place::Vrf(file, index) => self.vrfs[file].write(index, &buf.cur),
            },
        }
        Ok(())
    }

    fn move_tiles(
        &mut self,
        (src, from): (MemId, u32),
        (dst, to): (MemId, u32),
        count: u32,
    ) -> Result<(), SimError> {
        // Read every source tile before writing any, so overlapping DRAM
        // ranges move as a block.
        let tiles = (0..count)
            .map(|i| match src {
                MemId::NetQ => Ok(self.net.pop_input_matrix()),
                _ => self.dram.read_matrix(from + i),
            })
            .collect::<Result<Vec<_>, _>>()?;
        for (i, tile) in (0..count).zip(tiles) {
            match dst {
                MemId::MatrixRf => self.mrf.store(to + i, tile),
                _ => self.dram.write_matrix(to + i, tile),
            }
        }
        Ok(())
    }
}

/// What a run reports: statistics and, while tracing is armed, the chain
/// records and spans — each derived from the timeline's [`ChainTiming`]s
/// in [`Recorder::record`] and nowhere else.
#[derive(Clone, Debug, Default)]
struct Recorder {
    stats: RunStats,
    /// `Some` exactly while [`Npu::set_trace`] has tracing armed.
    trace: Option<Trace>,
}

/// What an armed NPU has recorded and not yet handed out.
#[derive(Clone, Debug, Default)]
struct Trace {
    chains: Vec<ChainTrace>,
    spans: Vec<SpanRecord>,
}

impl Trace {
    /// Records one span. The NPU stamps no identity: `trace_id` and
    /// `device` are left 0 for the layer that owns them.
    fn span(&mut self, kind: SpanKind, chain: u64, start_cycle: u64, end_cycle: u64) {
        self.spans.push(SpanRecord {
            trace_id: 0,
            device: 0,
            kind,
            chain,
            start_cycle,
            end_cycle,
        });
    }
}

impl Recorder {
    fn record(&mut self, t: &ChainTiming, native_dim: u32) {
        let stall = t.charge(&mut self.stats, native_dim).span;
        let Some(trace) = &mut self.trace else {
            return;
        };
        let c = &t.trace;
        trace.chains.push(c.clone());
        let ordinal = self.stats.chains;
        let stream = match c.kind {
            ChainKind::Mvm => Some((SpanKind::MvmStream, c.start, c.start + t.mvm_occupancy)),
            ChainKind::Mfu => Some((SpanKind::MfuStream, c.start, c.start + c.occupancy)),
            ChainKind::Move | ChainKind::MatrixMove => None,
        };
        let chain = (SpanKind::Chain(c.kind), c.start, c.completion);
        for (kind, from, to) in [chain].into_iter().chain(stream).chain(stall) {
            trace.span(kind, ordinal, from, to);
        }
    }
}

/// The Brainwave NPU simulator. See the [crate-level docs](crate) for an
/// end-to-end example.
///
/// An `Npu` is the scheduler timeline of [`crate::sched`] — all timing
/// state, scoreboards and NetQ arrival stamps — plus, in
/// [`ExecMode::Full`], the data planes in which a data pass, run after the
/// timeline, computes real values.
#[derive(Clone, Debug)]
pub struct Npu {
    config: NpuConfig,
    timeline: Timeline,
    /// `Some` exactly in [`ExecMode::Full`].
    data: Option<DataPlanes>,
    /// [`ExecMode::TimingOnly`]: output vectors produced and not yet
    /// popped, materialised as zeros on demand.
    zero_outputs: usize,
    rec: Recorder,
    /// Lent to the timeline by a run that keeps no per-chain record.
    ff: FastForward,
}

impl Npu {
    /// Creates an NPU in [`ExecMode::Full`].
    pub fn new(config: NpuConfig) -> Self {
        Npu::with_mode(config, ExecMode::Full)
    }

    /// Creates an NPU with an explicit execution mode.
    pub fn with_mode(config: NpuConfig, mode: ExecMode) -> Self {
        Npu {
            timeline: Timeline::new(&config),
            data: (mode == ExecMode::Full).then(|| DataPlanes::new(&config)),
            zero_outputs: 0,
            rec: Recorder::default(),
            ff: FastForward::default(),
            config,
        }
    }

    /// The configuration this NPU was instantiated with.
    pub fn config(&self) -> &NpuConfig {
        &self.config
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        match self.data {
            Some(_) => ExecMode::Full,
            None => ExecMode::TimingOnly,
        }
    }

    /// Selects the functional kernel implementation of the data pass (a
    /// [`ExecMode::TimingOnly`] NPU has none). Cycle counts and computed
    /// values are unaffected; [`KernelMode::Reference`] trades speed for
    /// the original allocate-per-`mv_mul` naive kernels and the portable
    /// MFU loops.
    pub fn set_kernel_mode(&mut self, kernel: KernelMode) {
        if let Some(data) = &mut self.data {
            data.kernel = kernel;
        }
    }

    /// The NPU's one tracing switch. Armed, every run records, off the
    /// same scheduler events, one [`ChainTrace`] per chain (drained by
    /// [`Npu::take_trace`]) and the span tree (drained by
    /// [`Npu::take_spans`]): per chain a [`SpanKind::Chain`] span, its
    /// MVM or MFU streaming span and its exposed stall, per column of a
    /// multi-column batch a [`SpanKind::BatchColumn`] span, and per run a
    /// [`SpanKind::Run`] envelope. Spans carry `trace_id` and `device` 0:
    /// the layer that owns request identity stamps them.
    ///
    /// Tracing changes the records kept, never a statistic. A traced run
    /// steps every chain; an untraced run may fast-forward a loop
    /// ([`crate::sched`], "Fast-forward"), and a warm untraced run
    /// allocates nothing (pinned by `tests/trace_cost.rs`). Arming clears
    /// what an earlier arming recorded; disarming drops it.
    pub fn set_trace(&mut self, enabled: bool) {
        self.rec.trace = enabled.then(Trace::default);
    }

    /// Takes the chain records kept so far (empty unless
    /// [tracing](Npu::set_trace) is armed). Tracing stays armed.
    pub fn take_trace(&mut self) -> Vec<ChainTrace> {
        self.rec
            .trace
            .as_mut()
            .map(|t| std::mem::take(&mut t.chains))
            .unwrap_or_default()
    }

    /// Takes the spans recorded so far (empty unless
    /// [tracing](Npu::set_trace) is armed). Tracing stays armed.
    pub fn take_spans(&mut self) -> Vec<SpanRecord> {
        self.rec
            .trace
            .as_mut()
            .map(|t| std::mem::take(&mut t.spans))
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Host-side loading (the role of the toolflow / runtime, §II-B)
    // ------------------------------------------------------------------

    /// Enqueues one native input vector on the network queue, arriving at
    /// cycle 0.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::VectorLengthMismatch`] unless the vector is
    /// exactly `native_dim` long.
    pub fn push_input(&mut self, vector: Vec<f32>) -> Result<(), SimError> {
        self.push_input_at(vector, 0)
    }

    /// Enqueues one native input vector arriving at the given cycle — used
    /// by the serving simulator to model request arrival.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::VectorLengthMismatch`] unless the vector is
    /// exactly `native_dim` long.
    pub fn push_input_at(&mut self, vector: Vec<f32>, at_cycle: u64) -> Result<(), SimError> {
        let nd = self.config.native_dim() as usize;
        if vector.len() != nd {
            return Err(SimError::VectorLengthMismatch {
                expected: nd,
                actual: vector.len(),
            });
        }
        self.timeline.arrivals.push_vectors(at_cycle, 1);
        if let Some(data) = &mut self.data {
            data.net.input.push(&vector, nd);
        }
        Ok(())
    }

    /// Splits an arbitrary-length vector into zero-padded native vectors and
    /// enqueues them all; returns how many native vectors were pushed.
    pub fn push_input_padded(&mut self, data: &[f32]) -> usize {
        let nd = self.config.native_dim() as usize;
        let count = data.len().div_ceil(nd).max(1);
        self.timeline.arrivals.push_vectors(0, count as u64);
        if let Some(planes) = &mut self.data {
            planes.net.input.push(data, count * nd);
        }
        count
    }

    /// Enqueues `count` zero native vectors (placeholder inputs for
    /// [`ExecMode::TimingOnly`] sweeps, where they cost nothing).
    pub fn push_input_zeros(&mut self, count: usize) {
        self.timeline.arrivals.push_vectors(0, count as u64);
        if let Some(data) = &mut self.data {
            let nd = self.config.native_dim() as usize;
            data.net.input.push(&[], count * nd);
        }
    }

    /// Enqueues a native matrix tile on the network queue for a program to
    /// move into the MRF with `m_rd(NetQ)` → `m_wr(MatrixRf)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ForeignTile`], and queues nothing, unless the
    /// tile is `native_dim × native_dim` in the configuration's matrix
    /// format. Both modes check it.
    pub fn push_input_matrix(&mut self, tile: BfpMatrix) -> Result<(), SimError> {
        self.native_tile(&tile)?;
        self.timeline.arrivals.push_matrices(1);
        if let Some(data) = &mut self.data {
            data.net.push_input_matrix(tile);
        }
        Ok(())
    }

    /// The host's check of a matrix tile: one native tile in the
    /// configuration's format, the only kind the MVM multiplies.
    fn native_tile(&self, tile: &BfpMatrix) -> Result<(), SimError> {
        let nd = self.config.native_dim() as usize;
        let (rows, cols, format) = (tile.rows(), tile.cols(), tile.format());
        if (rows, cols, format) != (nd, nd, self.config.matrix_format()) {
            return Err(SimError::ForeignTile { rows, cols, format });
        }
        Ok(())
    }

    /// Quantizes and pins an `mat_rows × mat_cols` row-major `f32` matrix
    /// into the MRF as a `grid_rows × grid_cols` native tile grid starting
    /// at `base` — the host runtime's model-pinning step. Returns the number
    /// of MRF entries consumed. ([`ExecMode::TimingOnly`] checks the shapes
    /// the same way and quantizes nothing.)
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the matrix exceeds the grid, the grid
    /// exceeds MRF capacity, or the data length mismatches the shape.
    pub fn load_tiled_matrix(
        &mut self,
        base: u32,
        grid_rows: u32,
        grid_cols: u32,
        mat_rows: usize,
        mat_cols: usize,
        data: &[f32],
    ) -> Result<u32, SimError> {
        let entries = self.grid_entries(base, grid_rows, grid_cols)?;
        let cfg = &self.config;
        if mat_rows.checked_mul(mat_cols) != Some(data.len()) {
            return Err(SimError::VectorLengthMismatch {
                expected: mat_rows.saturating_mul(mat_cols),
                actual: data.len(),
            });
        }
        let nd = cfg.native_dim() as usize;
        if mat_rows > grid_rows as usize * nd || mat_cols > grid_cols as usize * nd {
            return Err(SimError::MatrixDoesNotFitGrid {
                mat_rows,
                mat_cols,
                grid_rows,
                grid_cols,
                native_dim: cfg.native_dim(),
            });
        }
        if let Some(planes) = &mut self.data {
            let tiles = mvm::tile_matrix(cfg, mat_rows, mat_cols, data, grid_rows, grid_cols);
            for (i, tile) in (base..).zip(tiles) {
                planes.mrf.store(i, tile);
            }
        }
        Ok(entries)
    }

    /// Reserves the MRF entries of a `grid_rows × grid_cols` grid with
    /// zero-valued tiles without computing a quantization per tile — the
    /// placeholder counterpart of [`Npu::load_tiled_matrix`]. In
    /// [`ExecMode::TimingOnly`] this is the bounds check alone.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MrfIndexOutOfRange`] if the grid exceeds MRF
    /// capacity.
    pub fn reserve_matrix_grid(
        &mut self,
        base: u32,
        grid_rows: u32,
        grid_cols: u32,
    ) -> Result<u32, SimError> {
        let entries = self.grid_entries(base, grid_rows, grid_cols)?;
        if let Some(data) = &mut self.data {
            let nd = self.config.native_dim() as usize;
            for i in base..base + entries {
                let zero = BfpMatrix::zeros(nd, nd, self.config.matrix_format());
                data.mrf.store(i, zero);
            }
        }
        Ok(entries)
    }

    /// The entry count of a tile grid, once it is known to fit the MRF.
    fn grid_entries(&self, base: u32, grid_rows: u32, grid_cols: u32) -> Result<u32, SimError> {
        let tiles = u64::from(grid_rows) * u64::from(grid_cols);
        Ok(mrf_span(&self.config, base, tiles)?.len() as u32)
    }

    /// Writes an arbitrary-length vector into consecutive entries of a
    /// vector register file, zero-padded to native vectors (used to stage
    /// biases and initial state). Returns the number of entries written.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on capacity overflow or a non-VRF target.
    pub fn load_vector(&mut self, mem: MemId, index: u32, data: &[f32]) -> Result<u32, SimError> {
        let nd = self.config.native_dim() as usize;
        let count = data.len().div_ceil(nd).max(1);
        let entries = u32::try_from(count).unwrap_or(u32::MAX);
        let (file, _) = vrf_span(&self.config, mem, index, entries)?;
        if let Some(planes) = &mut self.data {
            let mut flat = vec![0.0f32; count * nd];
            flat[..data.len()].copy_from_slice(data);
            planes.vrfs[file].write(index, &flat);
        }
        Ok(entries)
    }

    /// Stages a DRAM matrix tile (for `m_rd(DRAM)` initialization paths).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DramIndexOutOfRange`] if `index` lies beyond the
    /// modelled address space, and [`SimError::ForeignTile`] unless the
    /// tile is native, as [`Npu::push_input_matrix`] does. Both modes check
    /// both; a refused load stages nothing.
    pub fn load_dram_matrix(&mut self, index: u32, tile: BfpMatrix) -> Result<(), SimError> {
        dram_span(index, 1)?;
        self.native_tile(&tile)?;
        if let Some(data) = &mut self.data {
            data.dram.write_matrix(index, tile);
        }
        Ok(())
    }

    /// Pops one native vector from the network output queue.
    pub fn pop_output(&mut self) -> Option<Vec<f32>> {
        self.pop_output_concat(1, self.config.native_dim() as usize)
    }

    /// Pops and concatenates `count` native output vectors, truncated to
    /// `len` elements. Returns `None` if fewer than `count` are available.
    pub fn pop_output_concat(&mut self, count: usize, len: usize) -> Option<Vec<f32>> {
        if self.output_len() < count {
            return None;
        }
        let elements = count * self.config.native_dim() as usize;
        let mut out = Vec::with_capacity(elements);
        match &mut self.data {
            Some(data) => data.net.output.pop_into(elements, &mut out),
            None => {
                self.zero_outputs -= count;
                out.resize(elements, 0.0);
            }
        }
        out.truncate(len);
        Some(out)
    }

    /// Native vectors currently waiting in the output queue.
    pub fn output_len(&self) -> usize {
        match &self.data {
            Some(data) => data.net.output.len() / self.config.native_dim() as usize,
            None => self.zero_outputs,
        }
    }

    /// Native vectors currently waiting in the input queue.
    pub fn input_len(&self) -> usize {
        self.timeline.arrivals.vectors() as usize
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Runs a program to completion and returns its cycle statistics.
    ///
    /// Register file and queue contents persist across runs (models stay
    /// pinned); the cycle clock restarts at zero for each run.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] raised by validation or execution.
    pub fn run(&mut self, program: &Program) -> Result<RunStats, SimError> {
        self.run_batch(program, 1)
    }

    /// Runs a program `batch` times inside one run envelope — the
    /// multi-column entry point the serving batcher dispatches through —
    /// as its two halves, [`Npu::schedule`] then [`Npu::execute`].
    ///
    /// Column 0 streams from the Nios exactly as [`Npu::run`] does;
    /// every later column replays the already-buffered instructions at
    /// one cycle each, which is where coalescing a micro-batch wins its
    /// throughput: the matrix stays resident in the MRF and the
    /// dispatch cost is paid once. Functional execution is independent
    /// of timing state, so the per-column outputs are bit-identical to
    /// `batch` sequential [`Npu::run`] calls over the same inputs.
    ///
    /// Statistics accumulate across columns into one [`RunStats`]; with
    /// `batch > 1` a [`SpanKind::BatchColumn`] span is emitted per
    /// column (chain ordinal = column + 1) inside the usual run
    /// envelope. `batch == 0` is an empty run.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] raised by validation or execution
    /// (which is first: [`crate::sched`], "Faults"). A run that faults
    /// empties the network input and output queues, in either mode, so
    /// nothing queued before it reaches the next run.
    pub fn run_batch(&mut self, program: &Program, batch: usize) -> Result<RunStats, SimError> {
        let kept = self
            .data
            .as_mut()
            .map(|data| std::mem::take(&mut data.lowered));
        let mut schedule = self.timeline_half(program, batch);
        self.lower(program, &mut schedule, kept.unwrap_or_default());
        let result = self.execute(&schedule);
        if let (Some(data), Some(lowered)) = (&mut self.data, schedule.lowered.take()) {
            data.lowered = lowered;
        }
        result
    }

    /// The timeline half of [`Npu::run_batch`]: places `batch` columns of
    /// `program` from this NPU's tiling registers and queued arrivals, and
    /// changes neither. Armed [tracing](Npu::set_trace) records the run's
    /// chains and spans here; a faulting run's [`SpanKind::Run`] envelope
    /// is left out.
    pub fn schedule(&mut self, program: &Program, batch: usize) -> Schedule {
        let mut schedule = self.timeline_half(program, batch);
        self.lower(program, &mut schedule, Lowered::default());
        schedule
    }

    /// In [`ExecMode::Full`], lowers `program`'s data half for `schedule`
    /// (module doc, "The data pass") into `lowered`'s storage.
    fn lower(&self, program: &Program, schedule: &mut Schedule, lowered: Lowered) {
        if let Some(data) = &self.data {
            let mut lowered = Lowered {
                kernel: data.kernel,
                ..lowered
            };
            lowered.lower(&self.config, program, schedule.regs, schedule.batch);
            schedule.lowered = Some(lowered);
        }
    }

    /// [`Npu::schedule`] without its data half.
    fn timeline_half(&mut self, program: &Program, batch: usize) -> Schedule {
        let Npu {
            config,
            timeline,
            rec,
            ff,
            ..
        } = self;
        let (regs, queued) = ((timeline.rows, timeline.cols), timeline.arrivals.snapshot());
        timeline.begin_run();
        rec.stats = RunStats {
            peak_flops_per_cycle: config.peak_flops_per_cycle(),
            clock_hz: config.clock_hz(),
            ..RunStats::default()
        };
        let timed = (0..batch).try_for_each(|column| {
            let column_start = timeline.high_water();
            // Only a run that keeps no per-chain record takes a loop's
            // skipped iterations as one sum (`sched`'s Fast-forward).
            let ff = rec.trace.is_none().then_some(&mut *ff);
            timeline.run_column(config, program, column == 0, ff, |step| match step {
                Scheduled::Chain(t) => rec.record(t, config.native_dim()),
                Scheduled::Skipped(stats) => rec.stats.accumulate(stats),
            })?;
            if let Some(trace) = rec.trace.as_mut().filter(|_| batch > 1) {
                let (ordinal, end) = (column as u64 + 1, timeline.high_water());
                trace.span(SpanKind::BatchColumn, ordinal, column_start, end);
            }
            Ok(())
        });
        rec.stats.instructions = timeline.instructions();
        rec.stats.cycles = timeline.high_water();
        if let Some(trace) = rec.trace.as_mut().filter(|_| timed.is_ok()) {
            trace.span(SpanKind::Run, 0, 0, rec.stats.cycles);
        }
        let arrivals = &mut timeline.arrivals;
        let left = (arrivals.vectors(), arrivals.matrices());
        arrivals.restore(&queued);
        let end_regs = (timeline.rows, timeline.cols);
        (timeline.rows, timeline.cols) = regs;
        Schedule {
            batch,
            regs,
            queued,
            stats: rec.stats.clone(),
            fault: timed.err(),
            end_regs,
            left,
            lowered: None,
        }
    }

    /// Whether this NPU stands where `schedule` started: the same tiling
    /// registers, and the same vectors, tiles and arrival stamps queued;
    /// and whether the schedule's data half was lowered for this NPU's
    /// [`ExecMode`] and [`KernelMode`].
    pub fn can_execute(&self, schedule: &Schedule) -> bool {
        let timeline = &self.timeline;
        let kernel = |l: &Lowered| l.kernel;
        (timeline.rows, timeline.cols) == schedule.regs
            && timeline.arrivals.is(&schedule.queued)
            && schedule.lowered.as_ref().map(kernel) == self.data.as_ref().map(|d| d.kernel)
    }

    /// The data half of [`Npu::run_batch`]: replays the step lists
    /// `schedule` holds over the chains it placed, in program order, then
    /// leaves the tiling registers and the queues as the run does.
    /// `schedule` must have been computed on an NPU of this configuration;
    /// it may be executed any number of times, each from the state it
    /// started from.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StaleSchedule`], and changes nothing, unless
    /// [`Npu::can_execute`]. Otherwise faults as [`Npu::run_batch`] does:
    /// a fault of the data pass among the chains placed before the
    /// schedule's, else the schedule's, and either empties the network
    /// input and output queues.
    pub fn execute(&mut self, schedule: &Schedule) -> Result<RunStats, SimError> {
        if !self.can_execute(schedule) {
            return Err(SimError::StaleSchedule);
        }
        let Npu {
            config,
            timeline,
            data,
            zero_outputs,
            ..
        } = self;
        let computed = match (data.as_mut(), &schedule.lowered) {
            (Some(data), Some(lowered)) => {
                data.run(config, lowered, schedule.batch, schedule.stats.chains)
            }
            _ => Ok(()),
        };
        (timeline.rows, timeline.cols) = schedule.end_regs;
        let timed = schedule.fault.clone().map_or(Ok(()), Err);
        if let Err(e) = computed.and(timed) {
            timeline.arrivals = Default::default();
            *zero_outputs = 0;
            if let Some(data) = data {
                data.net = NetQueues::default();
            }
            return Err(e);
        }
        let (vectors, matrices) = schedule.left;
        timeline.arrivals.leave(vectors, matrices);
        *zero_outputs += schedule.stats.net_vectors_out as usize;
        Ok(schedule.stats.clone())
    }
}

/// One run's place in time, computed by [`Npu::schedule`] and applied by
/// [`Npu::execute`].
///
/// A run's timeline is a function of the program, the configuration, the
/// batch size and what the run starts from: the tiling registers and the
/// queued arrival stamps ([`crate::sched`]). A `Schedule` records that
/// start, the run's [`RunStats`] (which count the chains placed before a
/// fault), the fault, and the registers and queue counts the run leaves;
/// in [`ExecMode::Full`] it also holds the run's data half, lowered to
/// step lists (module doc, "The data pass") for the [`KernelMode`] the NPU
/// had. So one computed schedule serves every run that starts where it
/// did; [`Npu::execute`] checks that it does.
#[derive(Clone, Debug)]
pub struct Schedule {
    batch: usize,
    /// Tiling registers and queued inputs the run starts from.
    regs: (u32, u32),
    queued: Queued,
    /// What the timeline counted; its `chains` are the chains placed
    /// before the fault, if there is one.
    stats: RunStats,
    fault: Option<SimError>,
    /// Tiling registers the run leaves, and the vectors and tiles it
    /// leaves queued (a fault empties the queues instead).
    end_regs: (u32, u32),
    left: (u64, u64),
    /// The data half's step lists (`Some` exactly in [`ExecMode::Full`]).
    lowered: Option<Lowered>,
}

impl Schedule {
    /// Columns the schedule runs.
    pub fn batch(&self) -> usize {
        self.batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ProgramBuilder;

    fn tiny_config() -> NpuConfig {
        NpuConfig::builder()
            .native_dim(4)
            .lanes(2)
            .tile_engines(2)
            .mfus(2)
            .mrf_entries(64)
            .vrf_entries(64)
            // Functional tests use the 5-bit-mantissa format; the default
            // 2-bit format is intentionally coarse (§VI).
            .matrix_format(bw_bfp::BfpFormat::BFP_1S_5E_5M)
            .build()
            .unwrap()
    }

    fn identity_grid(npu: &mut Npu, base: u32, grid: u32) {
        let nd = npu.config().native_dim() as usize;
        let n = grid as usize * nd;
        let mut data = vec![0.0f32; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        npu.load_tiled_matrix(base, grid, grid, n, n, &data)
            .unwrap();
    }

    #[test]
    fn relu_pass_through_netq() {
        let mut npu = Npu::new(tiny_config());
        npu.push_input(vec![1.0, -2.0, 3.0, -4.0]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_relu()
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let stats = npu.run(&b.build()).unwrap();
        assert_eq!(npu.pop_output().unwrap(), vec![1.0, 0.0, 3.0, 0.0]);
        assert!(stats.cycles > 0);
        assert_eq!(stats.chains, 1);
        assert_eq!(stats.net_vectors_in, 1);
        assert_eq!(stats.net_vectors_out, 1);
    }

    #[test]
    fn identity_mv_mul_through_vrfs() {
        let mut npu = Npu::new(tiny_config());
        identity_grid(&mut npu, 0, 1);
        npu.push_input(vec![0.5, 1.5, -2.0, 3.0]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 0)
            .mv_mul(0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap();
        let out = npu.pop_output().unwrap();
        for (got, want) in out.iter().zip([0.5, 1.5, -2.0, 3.0]) {
            assert!((got - want).abs() < 0.2, "{got} vs {want}");
        }
    }

    #[test]
    fn tiled_mv_mul_widths() {
        // rows=2, cols=2 with an identity over an 8-dim space.
        let mut npu = Npu::new(tiny_config());
        identity_grid(&mut npu, 0, 2);
        let x: Vec<f32> = (0..8).map(|i| i as f32 / 2.0).collect();
        npu.push_input_padded(&x);
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(2);
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let stats = npu.run(&b.build()).unwrap();
        let out = npu.pop_output_concat(2, 8).unwrap();
        for (got, want) in out.iter().zip(&x) {
            assert!((got - want).abs() < 0.3, "{got} vs {want}");
        }
        // 2x2 grid of 4x4 tiles = 64 MACs.
        assert_eq!(stats.mvm_macs, 64);
    }

    #[test]
    fn bias_add_uses_addsub_vrf() {
        let mut npu = Npu::new(tiny_config());
        identity_grid(&mut npu, 0, 1);
        npu.load_vector(MemId::AddSubVrf(0), 3, &[10.0, 20.0, 30.0, 40.0])
            .unwrap();
        npu.push_input(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(0)
            .vv_add(3)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap();
        let out = npu.pop_output().unwrap();
        for (got, want) in out.iter().zip([11.0, 22.0, 33.0, 44.0]) {
            assert!((got - want).abs() < 0.5, "{got} vs {want}");
        }
    }

    #[test]
    fn second_addsub_op_reads_mfu1_file() {
        let mut npu = Npu::new(tiny_config());
        identity_grid(&mut npu, 0, 1);
        npu.load_vector(MemId::AddSubVrf(0), 0, &[1.0; 4]).unwrap();
        npu.load_vector(MemId::AddSubVrf(1), 0, &[100.0; 4])
            .unwrap();
        npu.push_input(vec![0.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .vv_add(0) // reads AddSubVrf(0)
            .vv_add(0) // reads AddSubVrf(1)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap();
        assert_eq!(npu.pop_output().unwrap(), vec![101.0; 4]);
    }

    #[test]
    fn mfu_capacity_enforced() {
        let mut npu = Npu::new(tiny_config()); // 2 MFUs
        npu.push_input(vec![0.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .vv_add(0)
            .vv_add(1)
            .vv_add(2)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let err = npu.run(&b.build()).unwrap_err();
        assert_eq!(
            err,
            SimError::MfuCapacityExceeded {
                kind: "add/sub",
                used: 3,
                available: 2
            }
        );
    }

    #[test]
    fn net_queue_underflow_detected() {
        let mut npu = Npu::new(tiny_config());
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        assert_eq!(
            npu.run(&b.build()).unwrap_err(),
            SimError::NetQueueEmpty {
                requested: 1,
                available: 0
            }
        );
    }

    #[test]
    fn zero_reg_rejected() {
        let mut npu = Npu::new(tiny_config());
        let mut b = ProgramBuilder::new();
        b.set_rows(0);
        assert_eq!(
            npu.run(&b.build()).unwrap_err(),
            SimError::BadRegValue {
                reg: ScalarReg::Rows
            }
        );
    }

    #[test]
    fn dependent_chains_serialize_independent_chains_overlap() {
        let cfg = tiny_config();
        // Dependent: chain 2 reads what chain 1 writes.
        let mut npu = Npu::new(cfg.clone());
        npu.push_input(vec![1.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 0)
            .v_relu()
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let dependent = npu.run(&b.build()).unwrap();

        // Independent: chain 2 reads a different, preloaded slot.
        let mut npu2 = Npu::new(cfg);
        npu2.push_input(vec![1.0; 4]).unwrap();
        npu2.load_vector(MemId::InitialVrf, 8, &[1.0; 4]).unwrap();
        let mut b2 = ProgramBuilder::new();
        b2.set_rows(1).set_cols(1);
        b2.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 0)
            .end_chain()
            .unwrap();
        b2.v_rd(MemId::InitialVrf, 8)
            .v_relu()
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let independent = npu2.run(&b2.build()).unwrap();

        assert!(
            dependent.cycles > independent.cycles,
            "dependent {} vs independent {}",
            dependent.cycles,
            independent.cycles
        );
        assert!(dependent.dep_stall_cycles > 0);
        assert_eq!(independent.dep_stall_cycles, 0);
    }

    #[test]
    fn input_arrival_time_delays_start() {
        let cfg = tiny_config();
        let mut npu = Npu::new(cfg);
        npu.push_input_at(vec![1.0; 4], 10_000).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let stats = npu.run(&b.build()).unwrap();
        assert!(stats.cycles > 10_000);
    }

    #[test]
    fn timing_only_matches_full_cycle_count() {
        let build = || {
            let mut b = ProgramBuilder::new();
            b.set_rows(2).set_cols(2);
            b.v_rd(MemId::NetQ, 0)
                .mv_mul(0)
                .vv_add(0)
                .v_tanh()
                .v_wr(MemId::InitialVrf, 0)
                .v_wr(MemId::NetQ, 0)
                .end_chain()
                .unwrap();
            b.build()
        };
        let mut full = Npu::new(tiny_config());
        identity_grid(&mut full, 0, 2);
        full.push_input_padded(&[1.0; 8]);
        let fs = full.run(&build()).unwrap();

        let mut timing = Npu::with_mode(tiny_config(), ExecMode::TimingOnly);
        timing.reserve_matrix_grid(0, 2, 2).unwrap();
        timing.push_input_zeros(2);
        let ts = timing.run(&build()).unwrap();

        assert_eq!(fs.cycles, ts.cycles);
        assert_eq!(fs.mvm_macs, ts.mvm_macs);
    }

    #[test]
    fn load_faults_are_the_same_in_both_modes() {
        // (grid, shape, data length, result): a data length that is not the
        // shape's, a shape whose size overflows, a matrix too tall and one
        // too wide for its grid, a grid past the MRF, and a load that fits.
        let short = |expected, actual| SimError::VectorLengthMismatch { expected, actual };
        let unfit = |grid_rows, grid_cols, mat_rows, mat_cols| SimError::MatrixDoesNotFitGrid {
            mat_rows,
            mat_cols,
            grid_rows,
            grid_cols,
            native_dim: 4,
        };
        let past = SimError::MrfIndexOutOfRange {
            index: 64,
            capacity: 64,
        };
        let cases = [
            ((2, 2), (8, 8), 63, Err(short(64, 63))),
            ((1, 1), (usize::MAX, 2), 0, Err(short(usize::MAX, 0))),
            ((2, 1), (9, 4), 36, Err(unfit(2, 1, 9, 4))),
            ((1, 2), (4, 9), 36, Err(unfit(1, 2, 4, 9))),
            ((9, 9), (8, 8), 64, Err(past)),
            ((2, 2), (5, 7), 35, Ok(4)),
        ];
        for ((grid_rows, grid_cols), (rows, cols), len, want) in cases {
            for mode in [ExecMode::Full, ExecMode::TimingOnly] {
                let data = vec![0.5; len];
                let got = Npu::with_mode(tiny_config(), mode)
                    .load_tiled_matrix(0, grid_rows, grid_cols, rows, cols, &data);
                assert_eq!(got, want, "{rows} x {cols} of {len} elements, {mode:?}");
            }
        }
    }

    #[test]
    fn host_tiles_are_checked_where_they_enter() {
        let cfg = tiny_config();
        let native = BfpMatrix::zeros(4, 4, cfg.matrix_format());
        let small = BfpMatrix::zeros(2, 2, cfg.matrix_format());
        let coarse = BfpMatrix::zeros(4, 4, BfpFormat::BFP_1S_5E_2M);
        let foreign = |t: &BfpMatrix| {
            Err(SimError::ForeignTile {
                rows: t.rows(),
                cols: t.cols(),
                format: t.format(),
            })
        };
        let past = |index| {
            Err(SimError::DramIndexOutOfRange {
                index,
                width: 1,
                capacity: 1 << 22,
            })
        };
        let move_tile = |from, index| {
            let mut b = ProgramBuilder::new();
            b.set_rows(1).set_cols(1);
            b.m_rd(from, index)
                .m_wr(MemId::MatrixRf, 0)
                .end_chain()
                .unwrap();
            b.build()
        };
        for mode in [ExecMode::Full, ExecMode::TimingOnly] {
            let mut npu = Npu::with_mode(cfg.clone(), mode);
            for tile in [&small, &coarse] {
                assert_eq!(
                    npu.push_input_matrix(tile.clone()),
                    foreign(tile),
                    "{mode:?}"
                );
                assert_eq!(
                    npu.load_dram_matrix(0, tile.clone()),
                    foreign(tile),
                    "{mode:?}"
                );
            }
            for index in [u32::MAX, 1 << 22] {
                assert_eq!(
                    npu.load_dram_matrix(index, native.clone()),
                    past(index),
                    "{mode:?}"
                );
            }
            // A refused tile is neither queued nor staged.
            assert!(matches!(
                npu.run(&move_tile(MemId::NetQ, 0)),
                Err(SimError::NetQueueEmpty { .. })
            ));
            let unwritten = SimError::DramMatrixUninitialized { index: 0 };
            let staged = npu.run(&move_tile(MemId::Dram, 0)).err();
            assert_eq!(staged, (mode == ExecMode::Full).then_some(unwritten));
            npu.push_input_matrix(native.clone()).unwrap();
            npu.load_dram_matrix(3, native.clone()).unwrap();
            npu.run(&move_tile(MemId::NetQ, 0)).unwrap();
            npu.run(&move_tile(MemId::Dram, 3)).unwrap();
        }
    }

    #[test]
    fn reserved_grid_multiplies_to_positive_zero() {
        let mut npu = Npu::new(tiny_config());
        npu.reserve_matrix_grid(0, 2, 2).unwrap();
        npu.push_input_padded(&[-1.0, 2.0, -3.0, 4.0, 5.0, -6.0, 7.0, -8.0]);
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(2);
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap();
        for _ in 0..2 {
            let out = npu.pop_output().expect("two native vectors");
            assert!(out.len() == 4 && out.iter().all(|v| v.to_bits() == 0));
        }
        // An entry no grid reserved is still uninitialized weights.
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(4)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        npu.push_input_padded(&[1.0; 4]);
        assert_eq!(
            npu.run(&b.build()),
            Err(SimError::MrfEntryUninitialized { index: 4 })
        );
    }

    #[test]
    fn matrix_chain_moves_tile_from_dram() {
        let mut npu = Npu::new(tiny_config());
        let nd = 4;
        let data: Vec<f32> = (0..16).map(|i| i as f32 / 8.0).collect();
        let tile = BfpMatrix::quantize(nd, nd, &data, npu.config().matrix_format()).unwrap();
        npu.load_dram_matrix(5, tile).unwrap();
        npu.push_input(vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.m_rd(MemId::Dram, 5)
            .m_wr(MemId::MatrixRf, 2)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(2)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let stats = npu.run(&b.build()).unwrap();
        let out = npu.pop_output().unwrap();
        // First column of the tile.
        for (r, got) in out.iter().enumerate() {
            let want = data[r * nd];
            assert!((got - want).abs() < 0.1, "{got} vs {want}");
        }
        // The mv_mul waited on the DRAM move.
        assert!(stats.dep_stall_cycles > 0 || stats.cycles >= 400);
    }

    #[test]
    fn matrix_chain_initializes_weights_from_the_network() {
        // §IV-C: "Matrices can be read only from the network (for
        // initialization) or from DRAM" — the program-driven model
        // deployment path.
        let mut npu = Npu::new(tiny_config());
        let nd = 4;
        let data: Vec<f32> = (0..16).map(|i| ((i % 5) as f32 - 2.0) / 4.0).collect();
        let tile = BfpMatrix::quantize(nd, nd, &data, npu.config().matrix_format()).unwrap();
        npu.push_input_matrix(tile).unwrap();
        npu.push_input(vec![0.0, 1.0, 0.0, 0.0]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.m_rd(MemId::NetQ, 0)
            .m_wr(MemId::MatrixRf, 5)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(5)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap();
        let out = npu.pop_output().unwrap();
        // Second column of the tile.
        for (r, got) in out.iter().enumerate() {
            let want = data[r * nd + 1];
            assert!((got - want).abs() < 0.1, "{got} vs {want}");
        }
        // Underflow of the matrix queue is detected.
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.m_rd(MemId::NetQ, 0)
            .m_wr(MemId::MatrixRf, 6)
            .end_chain()
            .unwrap();
        assert!(matches!(
            npu.run(&b.build()).unwrap_err(),
            SimError::NetQueueEmpty { .. }
        ));
    }

    #[test]
    fn matrix_chain_spills_mrf_to_dram_and_back() {
        // m_wr(DRAM) is the spill direction of Table II's matrix moves.
        let mut npu = Npu::new(tiny_config());
        let nd = 4;
        let data: Vec<f32> = (0..16).map(|i| i as f32 / 8.0).collect();
        let tile = BfpMatrix::quantize(nd, nd, &data, npu.config().matrix_format()).unwrap();
        npu.load_dram_matrix(0, tile).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        // DRAM -> DRAM round trip through the matrix path.
        b.m_rd(MemId::Dram, 0)
            .m_wr(MemId::Dram, 9)
            .end_chain()
            .unwrap();
        b.m_rd(MemId::Dram, 9)
            .m_wr(MemId::MatrixRf, 0)
            .end_chain()
            .unwrap();
        npu.push_input(vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap();
        let out = npu.pop_output().unwrap();
        for (r, got) in out.iter().enumerate() {
            let want = data[r * nd];
            assert!((got - want).abs() < 0.1, "{got} vs {want}");
        }
    }

    #[test]
    fn uninitialized_mrf_entry_errors() {
        let mut npu = Npu::new(tiny_config());
        npu.push_input(vec![0.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(7)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        assert_eq!(
            npu.run(&b.build()).unwrap_err(),
            SimError::MrfEntryUninitialized { index: 7 }
        );

        // A loop whose body widens its `mv_mul` to an unwritten tile once
        // it has run: the second iteration's list faults at its `mv_mul`,
        // after its first chain has counted up once more.
        let mut npu = Npu::new(tiny_config());
        identity_grid(&mut npu, 0, 1);
        npu.load_vector(MemId::AddSubVrf(0), 0, &[1.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.begin_loop(3).unwrap();
        b.v_rd(MemId::InitialVrf, 0).vv_add(0);
        b.v_wr(MemId::InitialVrf, 0).end_chain().unwrap();
        b.v_rd(MemId::InitialVrf, 0).mv_mul(0);
        b.v_wr(MemId::InitialVrf, 2).end_chain().unwrap();
        b.set_cols(2);
        b.end_loop().unwrap();
        let fault = SimError::MrfEntryUninitialized { index: 1 };
        assert_eq!(npu.run(&b.build()), Err(fault));
        // Entry 0 was counted up twice, entry 2 written by the one product.
        let mut b = ProgramBuilder::new();
        b.set_rows(3).set_cols(1);
        b.v_rd(MemId::InitialVrf, 0).v_wr(MemId::NetQ, 0);
        b.end_chain().unwrap();
        npu.run(&b.build()).unwrap();
        let want = [[2.0; 4], [0.0; 4], [1.0; 4]].concat();
        assert_eq!(npu.pop_output_concat(3, 12), Some(want));
    }

    #[test]
    fn vrf_bounds_checked() {
        let mut npu = Npu::new(tiny_config()); // 64 vrf entries
        npu.push_input(vec![0.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 63)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap(); // index 63 is the last valid entry

        let mut npu = Npu::new(tiny_config());
        npu.push_input(vec![0.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 64)
            .end_chain()
            .unwrap();
        assert!(matches!(
            npu.run(&b.build()).unwrap_err(),
            SimError::VrfIndexOutOfRange { .. }
        ));
    }

    #[test]
    fn multicast_write_lands_everywhere() {
        let mut npu = Npu::new(tiny_config());
        npu.push_input(vec![2.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 1)
            .v_wr(MemId::MultiplyVrf(0), 2)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 1)
            .vv_mul(2)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap();
        assert_eq!(npu.pop_output().unwrap(), vec![2.0; 4]);
        assert_eq!(npu.pop_output().unwrap(), vec![4.0; 4]);
    }

    #[test]
    fn stats_expose_busy_and_peak() {
        let mut npu = Npu::new(tiny_config());
        identity_grid(&mut npu, 0, 1);
        npu.push_input(vec![1.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let stats = npu.run(&b.build()).unwrap();
        assert!(stats.mvm_busy_cycles > 0);
        assert!(stats.pipeline_busy_cycles >= stats.mvm_busy_cycles);
        assert_eq!(
            stats.peak_flops_per_cycle,
            npu.config().peak_flops_per_cycle()
        );
        assert!(stats.latency_seconds() > 0.0);
    }

    #[test]
    fn trace_records_every_chain_with_consistent_times() {
        let mut npu = Npu::new(tiny_config());
        identity_grid(&mut npu, 0, 1);
        npu.set_trace(true);
        npu.push_input(vec![1.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 0)
            .mv_mul(0)
            .v_wr(MemId::InitialVrf, 1)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 1)
            .v_relu()
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap();
        let trace = npu.take_trace();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].kind, ChainKind::Move);
        assert_eq!(trace[1].kind, ChainKind::Mvm);
        assert_eq!(trace[2].kind, ChainKind::Mfu);
        for t in &trace {
            assert!(t.start >= t.dep_ready_at.min(t.dispatched_at));
            assert!(t.completion >= t.start + t.occupancy);
        }
        // The dependent chains start only after their producers complete.
        assert!(trace[1].start >= trace[0].completion);
        assert!(trace[2].start >= trace[1].completion);
        // take_trace drains but keeps tracing enabled.
        assert!(npu.take_trace().is_empty());
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut npu = Npu::new(tiny_config());
        npu.push_input(vec![0.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap();
        assert!(npu.take_trace().is_empty());
    }

    #[test]
    fn a_faulted_run_leaves_no_queued_vectors_for_the_next() {
        // Chain 0 moves the first of two inputs to the output queue; chain
        // 1 faults, on weights never written (a fault of the data pass) or
        // past the VRF (one of the timeline).
        let copy = |b: &mut ProgramBuilder| {
            b.set_rows(1).set_cols(1);
            b.v_rd(MemId::NetQ, 0).v_wr(MemId::NetQ, 0);
            b.end_chain().unwrap();
        };
        let unwritten = SimError::MrfEntryUninitialized { index: 7 };
        let past_vrf = SimError::VrfIndexOutOfRange {
            file: "InitialVrf",
            index: 64,
            width: 1,
            capacity: 64,
        };
        for (mode, index, fault) in [
            (ExecMode::Full, 0, unwritten),
            (ExecMode::Full, 64, past_vrf.clone()),
            (ExecMode::TimingOnly, 64, past_vrf),
        ] {
            let mut npu = Npu::with_mode(tiny_config(), mode);
            npu.push_input(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
            npu.push_input(vec![5.0; 4]).unwrap();
            let mut b = ProgramBuilder::new();
            copy(&mut b);
            b.v_rd(MemId::InitialVrf, index).mv_mul(7);
            b.v_wr(MemId::NetQ, 0).end_chain().unwrap();
            assert_eq!(npu.run(&b.build()), Err(fault));
            assert_eq!((npu.input_len(), npu.output_len()), (0, 0), "{mode:?}");

            npu.push_input(vec![9.0; 4]).unwrap();
            let mut b = ProgramBuilder::new();
            copy(&mut b);
            npu.run(&b.build()).unwrap();
            let nine = if mode == ExecMode::Full { 9.0 } else { 0.0 };
            assert_eq!(npu.pop_output(), Some(vec![nine; 4]), "{mode:?}");
            assert_eq!(npu.output_len(), 0);
        }
    }

    #[test]
    fn run_resets_clock_but_keeps_state() {
        let mut npu = Npu::new(tiny_config());
        npu.push_input(vec![5.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 9)
            .end_chain()
            .unwrap();
        let s1 = npu.run(&b.build()).unwrap();

        // Second run reads the value the first run pinned.
        let mut b2 = ProgramBuilder::new();
        b2.set_rows(1).set_cols(1);
        b2.v_rd(MemId::InitialVrf, 9)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let s2 = npu.run(&b2.build()).unwrap();
        assert_eq!(npu.pop_output().unwrap(), vec![5.0; 4]);
        // Clock restarted: second run is not longer than first plus slack.
        assert!(s2.cycles <= s1.cycles + 100);
    }
}
