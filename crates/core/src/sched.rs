//! The top-level scheduler's timing recurrence — the one place the cycle
//! model lives.
//!
//! The paper's latency story rests on a static schedule (§V-C): hierarchical
//! decode and dispatch plus a deterministic top-level scheduler mean a run's
//! cycles depend only on the program, the [`NpuConfig`] timing parameters
//! and the arrival cycles of NetQ inputs — never on the data. This module's
//! `Timeline` is that dependence and nothing else: it holds no `f32`, only
//! cycle counts. An [`Npu`](crate::Npu) is a `Timeline` plus (in
//! [`ExecMode::Full`](crate::ExecMode::Full)) data planes;
//! [`cycle_bounds`](crate::cycle_bounds) is two `Timeline` runs. There is
//! no second copy to keep in step. (Every item here is crate-private; the
//! module is public so that this page is.)
//!
//! # The recurrence
//!
//! The microarchitecture (Figure 3) is a single linear vector pipeline —
//! matrix-vector multiplier at the head, multifunction units in series —
//! fed by the vector arbitration network, with matrix moves on a memory
//! path beside it. Each chain gets its place (a `ChainTiming`) from three
//! kinds of edge:
//!
//! * **Dispatch.** The control processor streams compound instructions at
//!   `dispatch_interval` cycles each (§V-C: one per four cycles) on a
//!   segment's first pass — a chain cannot begin before its instructions
//!   and its `end_chain` have been streamed; later iterations and later
//!   batch columns replay the buffered chain from the scheduler at one
//!   cycle. `dispatched_at` is the running sum.
//! * **Dependency.** Every operand has a ready cycle: a VRF/MRF/DRAM entry
//!   is ready when the last chain that wrote it completed (the scoreboards
//!   here, one `u64` per entry, zero at the start of every run: see
//!   [Scoreboards](#scoreboards)), a NetQ vector when it
//!   arrived (`Arrivals`), and an MRF tile may be overwritten only after
//!   the last `mv_mul` streaming it has drained (`mrf_read_until`). An
//!   operand consumed `depth` pipeline stages into the chain — the `vv_mul`
//!   operand after an `mv_mul`, say — need only be ready when the stream
//!   reaches that stage, so `dep_ready_at = max(ready_i ∸ depth_i)`: the
//!   dataflow forwarding that lets an RNN's recurrent chains overlap.
//! * **Resource.** The chain holds one of three frontiers for `occupancy`
//!   cycles from `start = max(dispatched_at, dep_ready_at, frontier)`: the
//!   MVM if it has an `mv_mul` (`ceil(rows·cols·N/lanes / engines)` cycles,
//!   or its output's MFU streaming time if longer), the MFU stream for
//!   other compute (`max(w_in, w_out)` vectors' streaming time), the memory
//!   path for pure moves and for matrix moves (`rows·cols` tiles at
//!   `dram_tile_cycles`). Its writes land at
//!   `completion = start + occupancy + depth`, `depth` being the pipeline
//!   it traversed (register-file access, MVM accumulation tree, one stage
//!   per MFU op, network queues) — the exposed latency that limits small
//!   models (§VII-B1). An MFU tail drains in later stages and so overlaps
//!   the next chain's MVM work.
//!
//! A run ends at the latest completion or still-draining frontier.
//!
//! Only `max`, `+` and saturating `−` of cycle counts appear, so every
//! output is **monotone in the arrival stamps**: delaying an input can only
//! delay (never advance) any start or completion. That is what lets
//! `cycle_bounds` bracket a window of arrivals by running the two ends.
//!
//! # Scoreboards
//!
//! A scoreboard is one cycle per entry. Every run starts with every entry
//! at 0, and a run's writes are the only thing that makes one non-zero. So
//! each board records the extent it was written over — lowest to highest
//! entry written since its last reset — and the reset at the start of a
//! run zeroes that extent alone. Every entry outside it is already 0, so
//! the state is the one a fill of the whole board leaves and no cycle can
//! depend on the difference; the work is what the last run wrote, never
//! more than the board, and a warm run of a small program does not pay
//! for register files it never touched. The VRF and MRF boards are sized
//! by the [`NpuConfig`]; the DRAM ones grow on write up to
//! `DRAM_ENTRIES` and read as 0 past their length.
//!
//! A read scans only the part of its range inside the written extent, for
//! the same reason: a board no chain of the run wrote — the MRF's when the
//! weights were pinned before it, DRAM's in most programs — reads in O(1),
//! whatever the tile grid. The MRF write-after-read board is written as a
//! fill, not a running `max`: only an `mv_mul` writes it, with the cycle it
//! leaves the MVM frontier at (`start + occupancy`); the next `mv_mul`
//! starts at or after that frontier, which never moves back within a run,
//! batch columns included. So no entry exceeds what the next `mv_mul`
//! writes (a `debug_assert!` checks it).
//!
//! # Faults
//!
//! The timeline raises every fault that does not need data:
//! [`SimError::BadRegValue`], [`SimError::MfuCapacityExceeded`],
//! [`SimError::BadVrfFileIndex`], [`SimError::VrfIndexOutOfRange`] (also
//! for DRAM beyond the 2²²-entry modelled address space),
//! [`SimError::MrfIndexOutOfRange`], [`SimError::NetQueueEmpty`] and
//! [`SimError::MalformedChain`]. All index arithmetic is done in `u64`
//! before any scoreboard is touched, so a `rows × cols` grid that overflows
//! `u32` is an out-of-range fault, not a wrap, and cycle sums saturate.
//! Faults that need contents ([`SimError::MrfEntryUninitialized`],
//! [`SimError::DramMatrixUninitialized`], [`SimError::Numeric`]) belong to
//! the data pass and so only to `ExecMode::Full`.

use std::collections::VecDeque;
use std::ops::Range;

use crate::config::NpuConfig;
use crate::isa::{Chain, Instruction, Item, MemId, Opcode, Program, ScalarReg};
use crate::mvm;
use crate::npu::{ChainKind, ChainTrace, SimError};

/// Size of the modelled DRAM vector and matrix address spaces, in entries.
/// DRAM grows on write, so this is what bounds the scoreboards (and the
/// data planes behind them) against indices from a corrupt program.
pub(crate) const DRAM_ENTRIES: u64 = 1 << 22;

fn saturate(n: u64) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// `[index, index + count)` as a slice range, if it lies within `capacity`.
fn span(index: u32, count: u64, capacity: u64) -> Option<Range<usize>> {
    let end = u64::from(index).checked_add(count)?;
    (end <= capacity).then_some(index as usize..end as usize)
}

/// One cycle per entry — ready or read-until — and the extent written since
/// the last [`Board::reset`] (module docs: [Scoreboards](self#scoreboards)).
#[derive(Clone, Debug, Default)]
struct Board {
    cycles: Vec<u64>,
    /// Empty, or spans every entry not 0.
    written: Range<usize>,
}

impl Board {
    fn zeros(len: usize) -> Self {
        Board {
            cycles: vec![0; len],
            written: 0..0,
        }
    }

    /// Latest cycle in `range`, read over the written extent alone: every
    /// entry outside it, or past the board's length, is 0.
    fn latest(&self, range: &Range<usize>) -> u64 {
        let within = range.start.max(self.written.start)..range.end.min(self.written.end);
        self.cycles
            .get(within)
            .map_or(0, |s| s.iter().copied().fold(0, u64::max))
    }

    /// The entries of `range` to write, the board grown to hold them and
    /// its written extent widened to cover them.
    fn write(&mut self, range: Range<usize>) -> &mut [u64] {
        if !range.is_empty() {
            if self.cycles.len() < range.end {
                self.cycles.resize(range.end, 0);
            }
            self.written = if self.written.is_empty() {
                range.clone()
            } else {
                self.written.start.min(range.start)..self.written.end.max(range.end)
            };
        }
        &mut self.cycles[range]
    }

    /// Zeroes what was written since the last reset: all of the board that
    /// is not already 0.
    fn reset(&mut self) {
        self.cycles[self.written.clone()].fill(0);
        self.written = 0..0;
    }
}

/// The NetQ input side as the scheduler sees it: how many vectors and
/// matrix tiles are queued and when each vector arrived. The one thing a
/// [`Timeline`] is parameterised by — an [`Npu`](crate::Npu) pushes a stamp
/// per host `push_input*`, `cycle_bounds` declares its whole vector budget
/// as one run arriving at an end of its window.
#[derive(Clone, Debug, Default)]
pub(crate) struct Arrivals {
    /// Run-length encoded arrival stamps, oldest first: `(cycle, vectors)`.
    runs: VecDeque<(u64, u64)>,
    vectors: u64,
    matrices: u64,
}

impl Arrivals {
    /// Enqueues `count` vectors arriving at cycle `at`.
    pub(crate) fn push_vectors(&mut self, at: u64, count: u64) {
        if count == 0 {
            return;
        }
        match self.runs.back_mut() {
            Some((t, n)) if *t == at => *n = n.saturating_add(count),
            _ => self.runs.push_back((at, count)),
        }
        self.vectors = self.vectors.saturating_add(count);
    }

    /// Enqueues `count` matrix tiles (tiles carry no arrival stamp).
    pub(crate) fn push_matrices(&mut self, count: u64) {
        self.matrices = self.matrices.saturating_add(count);
    }

    /// Vectors currently queued.
    pub(crate) fn vectors(&self) -> u64 {
        self.vectors
    }

    /// Pops `width` vectors; returns the latest arrival among them (the
    /// cycle the read could begin).
    fn pop_vectors(&mut self, width: u32) -> Result<u64, SimError> {
        let mut need = u64::from(width);
        if self.vectors < need {
            return Err(SimError::NetQueueEmpty {
                requested: width,
                available: saturate(self.vectors),
            });
        }
        self.vectors -= need;
        let mut arrival = 0;
        while need > 0 {
            let (at, n) = self.runs.front_mut().expect("runs sum to `vectors`");
            arrival = arrival.max(*at);
            let take = need.min(*n);
            *n -= take;
            need -= take;
            if *n == 0 {
                self.runs.pop_front();
            }
        }
        Ok(arrival)
    }

    fn pop_matrices(&mut self, count: u64) -> Result<(), SimError> {
        if self.matrices < count {
            return Err(SimError::NetQueueEmpty {
                requested: saturate(count),
                available: saturate(self.matrices),
            });
        }
        self.matrices -= count;
        Ok(())
    }
}

/// Name and ordinal of vector register file `mem` among the `1 + 2·mfus` an
/// NPU has, laid out `[initial, addsub 0.., multiply 0..]`.
pub(crate) fn vrf_file(mem: MemId, mfus: u32) -> Result<(&'static str, usize), SimError> {
    match mem {
        MemId::InitialVrf => Ok(("InitialVrf", 0)),
        MemId::AddSubVrf(i) if u32::from(i) < mfus => Ok(("AddSubVrf", 1 + i as usize)),
        MemId::MultiplyVrf(i) if u32::from(i) < mfus => {
            Ok(("MultiplyVrf", 1 + mfus as usize + i as usize))
        }
        _ => Err(SimError::BadVrfFileIndex { mem, mfus }),
    }
}

/// Which register file each binary MFU operation of a chain reads its
/// operand from: the k-th add/sub-family op reads `AddSubVrf(k)`, the k-th
/// multiply `MultiplyVrf(k)` — the file of the MFU it executes on. Counted
/// wide so a pathological chain reaches the file fault instead of wrapping.
#[derive(Default)]
pub(crate) struct OperandFiles {
    addsub: usize,
    multiply: usize,
}

impl OperandFiles {
    /// The operand file of `op`, the next binary MFU operation in chain order.
    pub(crate) fn next(&mut self, op: &Instruction) -> MemId {
        let (seen, file): (_, fn(u8) -> MemId) = match op {
            Instruction::VvMul { .. } => (&mut self.multiply, MemId::MultiplyVrf),
            _ => (&mut self.addsub, MemId::AddSubVrf),
        };
        *seen += 1;
        file(u8::try_from(*seen - 1).unwrap_or(u8::MAX))
    }
}

/// One chain's place in the schedule: the record [`Npu::take_trace`]
/// publishes, plus the widths and counts the statistics, spans and data
/// pass derive from.
///
/// [`Npu::take_trace`]: crate::Npu::take_trace
#[derive(Clone, Debug)]
pub(crate) struct ChainTiming {
    pub(crate) trace: ChainTrace,
    /// When its resource frontier came free.
    pub(crate) resource_free_at: u64,
    /// The MVM's share of `trace.occupancy` (0 without an `mv_mul`).
    pub(crate) mvm_occupancy: u64,
    /// Native vectors read at the head / carried from `mv_mul` onward. For
    /// a matrix chain both are the tile count.
    pub(crate) w_in: u32,
    pub(crate) w_out: u32,
    pub(crate) net_vectors_in: u64,
    pub(crate) net_vectors_out: u64,
    pub(crate) mvm_macs: u64,
    pub(crate) mfu_ops: u64,
}

/// The scheduler's whole state: see the [module docs](self).
#[derive(Clone, Debug)]
pub(crate) struct Timeline {
    pub(crate) arrivals: Arrivals,
    rows: u32,
    cols: u32,
    nios_cursor: u64,
    /// Whether the current pass streams from the Nios (`interval` cycles an
    /// instruction) or replays the scheduler's buffer (a cycle a unit).
    streaming: bool,
    instructions: u64,
    /// Per-config constants, read once: the dispatch interval, an MFU
    /// vector's streaming cycles and a native tile's MACs.
    interval: u64,
    mfu_stream: u64,
    tile_macs: u64,
    /// When each resource frontier comes free: MVM, MFU stream, memory path.
    free_at: [u64; 3],
    /// Latest chain completion so far.
    completed: u64,
    /// RAW scoreboards: the VRFs as
    /// `[initial, addsub 0.., multiply 0..] × vrf_entries`; DRAM grows on
    /// write up to [`DRAM_ENTRIES`].
    vrf_ready: Board,
    mrf_ready: Board,
    /// WAR scoreboard: the cycle until which an in-flight `mv_mul` is still
    /// streaming each tile (double-buffering's correctness condition).
    mrf_read_until: Board,
    dram_vector_ready: Board,
    dram_matrix_ready: Board,
}

impl Timeline {
    pub(crate) fn new(config: &NpuConfig) -> Self {
        let files = 1 + 2 * config.mfus() as usize;
        let mrf = config.mrf_entries() as usize;
        Timeline {
            arrivals: Arrivals::default(),
            rows: 1,
            cols: 1,
            nios_cursor: 0,
            streaming: false,
            instructions: 0,
            interval: u64::from(config.timing().dispatch_interval),
            mfu_stream: u64::from(config.mfu_stream_cycles()),
            tile_macs: mvm::macs(config, 1, 1),
            free_at: [0; 3],
            completed: 0,
            vrf_ready: Board::zeros(files * config.vrf_entries() as usize),
            mrf_ready: Board::zeros(mrf),
            mrf_read_until: Board::zeros(mrf),
            dram_vector_ready: Board::default(),
            dram_matrix_ready: Board::default(),
        }
    }

    /// Restarts the clock: cursor, frontiers and scoreboards go to zero
    /// (the scoreboards over what the last run wrote: module docs). The
    /// tiling registers and queued arrivals persist, as the state they
    /// describe does.
    pub(crate) fn begin_run(&mut self) {
        self.nios_cursor = 0;
        self.instructions = 0;
        self.free_at = [0; 3];
        self.completed = 0;
        for board in [
            &mut self.vrf_ready,
            &mut self.mrf_ready,
            &mut self.mrf_read_until,
            &mut self.dram_vector_ready,
            &mut self.dram_matrix_ready,
        ] {
            board.reset();
        }
    }

    /// Schedules one pass over `program`, handing each chain's timing to
    /// `each` as it is fixed. `streamed` is false for a batch column after
    /// the first, whose every instruction is a scheduler replay.
    pub(crate) fn run_column(
        &mut self,
        config: &NpuConfig,
        program: &Program,
        streamed: bool,
        mut each: impl FnMut(&Chain, &ChainTiming) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        for segment in &program.segments {
            for iteration in 0..segment.iterations {
                self.streaming = streamed && iteration == 0;
                for item in &segment.items {
                    match item {
                        Item::SetReg { reg, value } => self.set_reg(*reg, *value)?,
                        Item::Chain(chain) => {
                            // Every chain instruction plus its end_chain.
                            self.dispatch(chain.len() as u64 + 1);
                            let timing = if chain.is_matrix_chain() {
                                self.matrix_chain(config, chain)?
                            } else {
                                self.vector_chain(config, chain)?
                            };
                            each(chain, &timing)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The latest architecturally visible effect so far in this run. Every
    /// published ready time is bounded by a chain completion, so only the
    /// still-draining resource frontiers can extend it.
    pub(crate) fn high_water(&self) -> u64 {
        self.free_at.iter().fold(self.completed, |t, &f| t.max(f))
    }

    /// Instructions streamed or replayed so far in this run.
    pub(crate) fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Charges `n` instructions dispatched as a unit: `interval` cycles each
    /// when streamed, one cycle for the unit when replayed.
    fn dispatch(&mut self, n: u64) {
        self.instructions += n;
        self.nios_cursor += if self.streaming { n * self.interval } else { 1 };
    }

    fn set_reg(&mut self, reg: ScalarReg, value: u32) -> Result<(), SimError> {
        if value == 0 {
            return Err(SimError::BadRegValue { reg });
        }
        self.dispatch(1);
        match reg {
            ScalarReg::Rows => self.rows = value,
            ScalarReg::Cols => self.cols = value,
        }
        Ok(())
    }

    /// The scoreboard range of `width` entries of VRF `mem` from `index`.
    pub(crate) fn vrf_span(
        config: &NpuConfig,
        mem: MemId,
        index: u32,
        width: u32,
    ) -> Result<Range<usize>, SimError> {
        let (file, slot) = vrf_file(mem, config.mfus())?;
        let capacity = config.vrf_entries();
        let within = span(index, u64::from(width), u64::from(capacity)).ok_or(
            SimError::VrfIndexOutOfRange {
                file,
                index,
                width,
                capacity,
            },
        )?;
        let base = slot * capacity as usize;
        Ok(base + within.start..base + within.end)
    }

    /// The scoreboard range of `count` MRF entries from `index`.
    pub(crate) fn mrf_span(&self, index: u32, count: u64) -> Result<Range<usize>, SimError> {
        let capacity = self.mrf_ready.cycles.len() as u32;
        span(index, count, u64::from(capacity)).ok_or(SimError::MrfIndexOutOfRange {
            index: index.max(capacity),
            capacity,
        })
    }

    fn dram_span(index: u32, count: u64) -> Result<Range<usize>, SimError> {
        span(index, count, DRAM_ENTRIES).ok_or(SimError::VrfIndexOutOfRange {
            file: "Dram",
            index,
            width: saturate(count),
            capacity: DRAM_ENTRIES as u32,
        })
    }

    fn matrix_chain(&mut self, config: &NpuConfig, chain: &Chain) -> Result<ChainTiming, SimError> {
        let count = u64::from(self.rows) * u64::from(self.cols);
        let malformed = |opcode| SimError::MalformedChain { opcode };
        let (src, dst) = match *chain.instructions() {
            [Instruction::MRd { mem, index }, Instruction::MWr { mem: to, index: at }] => {
                ((mem, index), (to, at))
            }
            _ => return Err(malformed(Opcode::MRd)),
        };

        // Write-after-read: do not overwrite tiles an earlier mv_mul is
        // still streaming.
        let (dst_span, mut dep_ready) = match dst.0 {
            MemId::MatrixRf => {
                let s = self.mrf_span(dst.1, count)?;
                let t = self.mrf_read_until.latest(&s);
                (s, t)
            }
            MemId::Dram => (Self::dram_span(dst.1, count)?, 0),
            _ => return Err(malformed(Opcode::MWr)),
        };
        match src.0 {
            MemId::NetQ => self.arrivals.pop_matrices(count)?,
            MemId::Dram => {
                // Host-staged tiles were never written this run: ready at 0.
                let s = Self::dram_span(src.1, count)?;
                dep_ready = dep_ready.max(self.dram_matrix_ready.latest(&s));
            }
            _ => return Err(malformed(Opcode::MRd)),
        }

        let occupancy = count.saturating_mul(u64::from(config.timing().dram_tile_cycles));
        let width = saturate(count);
        let t = self.place(ChainKind::MatrixMove, dep_ready, occupancy, 0, width, width);
        let board = match dst.0 {
            MemId::MatrixRf => &mut self.mrf_ready,
            _ => &mut self.dram_matrix_ready,
        };
        board.write(dst_span).fill(t.trace.completion);
        Ok(t)
    }

    /// The resource edge, common to every chain: claims `kind`'s frontier
    /// for `occupancy` cycles from the first cycle dispatch, operands and
    /// the frontier all allow; results land `depth` cycles after that.
    fn place(
        &mut self,
        kind: ChainKind,
        dep_ready_at: u64,
        occupancy: u64,
        depth: u64,
        w_in: u32,
        w_out: u32,
    ) -> ChainTiming {
        let frontier = &mut self.free_at[match kind {
            ChainKind::Mvm => 0,
            ChainKind::Mfu => 1,
            ChainKind::Move | ChainKind::MatrixMove => 2,
        }];
        let resource_free_at = *frontier;
        let start = self.nios_cursor.max(dep_ready_at).max(resource_free_at);
        *frontier = start.saturating_add(occupancy);
        let completion = frontier.saturating_add(depth);
        self.completed = self.completed.max(completion);
        ChainTiming {
            trace: ChainTrace {
                kind,
                dispatched_at: self.nios_cursor,
                dep_ready_at,
                start,
                occupancy,
                completion,
            },
            resource_free_at,
            mvm_occupancy: 0,
            w_in,
            w_out,
            net_vectors_in: 0,
            net_vectors_out: 0,
            mvm_macs: 0,
            mfu_ops: 0,
        }
    }

    fn vector_chain(&mut self, config: &NpuConfig, chain: &Chain) -> Result<ChainTiming, SimError> {
        for (kind, used) in [
            ("add/sub", chain.addsub_ops()),
            ("multiply", chain.multiply_ops()),
            ("activation", chain.activation_ops()),
        ] {
            if used > config.mfus() as usize {
                return Err(SimError::MfuCapacityExceeded {
                    kind,
                    used,
                    available: config.mfus(),
                });
            }
        }

        let timing = config.timing();
        let (rows, cols) = (self.rows, self.cols);
        // Chains with an mv_mul read `cols` native vectors and emit `rows`;
        // chains without one are `rows` wide throughout.
        let w_in = if chain.has_mv_mul() { cols } else { rows };
        let w_out = rows;

        // `dep_ready` accumulates the earliest legal chain start implied by
        // each operand: an operand consumed at pipeline offset `depth` may
        // arrive `depth` cycles after the chain starts streaming.
        let mut dep_ready = 0u64;
        let mut depth = 0u64;
        let mut mvm_occ = 0u64;
        let mut mvm_tiles = 0..0;
        let (mut net_vectors_in, mut mvm_macs) = (0, 0);
        let mfu_ops = chain.mfu_ops() as u64;
        let mut operands = OperandFiles::default();

        for instr in chain.instructions() {
            match *instr {
                Instruction::VRd { mem, index } => {
                    let ready = match mem {
                        MemId::NetQ => {
                            let arrival = self.arrivals.pop_vectors(w_in)?;
                            net_vectors_in += u64::from(w_in);
                            let credited = arrival.saturating_sub(depth);
                            depth += u64::from(timing.net_depth);
                            credited
                        }
                        MemId::Dram => {
                            let s = Self::dram_span(index, u64::from(w_in))?;
                            self.dram_vector_ready.latest(&s).saturating_sub(depth)
                        }
                        vrf => {
                            let s = Self::vrf_span(config, vrf, index, w_in)?;
                            self.vrf_ready.latest(&s).saturating_sub(depth)
                        }
                    };
                    dep_ready = dep_ready.max(ready);
                    depth += u64::from(timing.vrf_access_depth);
                }
                Instruction::MvMul { mrf_index } => {
                    let tiles = u64::from(rows) * u64::from(cols);
                    mvm_tiles = self.mrf_span(mrf_index, tiles)?;
                    mvm_occ = mvm::occupancy(config, rows, cols);
                    mvm_macs += tiles * self.tile_macs;
                    let ready = self.mrf_ready.latest(&mvm_tiles);
                    dep_ready = dep_ready.max(ready.saturating_sub(depth));
                    depth += u64::from(timing.mvm_depth);
                }
                Instruction::VWr { mem, .. } => {
                    depth += u64::from(timing.vrf_access_depth);
                    if mem == MemId::NetQ {
                        depth += u64::from(timing.net_depth);
                    }
                }
                Instruction::VvAdd { index }
                | Instruction::VvASubB { index }
                | Instruction::VvBSubA { index }
                | Instruction::VvMax { index }
                | Instruction::VvMul { index } => {
                    let s = Self::vrf_span(config, operands.next(instr), index, w_out)?;
                    let ready = self.vrf_ready.latest(&s);
                    dep_ready = dep_ready.max(ready.saturating_sub(depth));
                    depth += u64::from(timing.mfu_op_depth);
                }
                Instruction::VRelu | Instruction::VSigm | Instruction::VTanh => {
                    depth += u64::from(timing.mfu_op_depth);
                }
                Instruction::MRd { .. }
                | Instruction::MWr { .. }
                | Instruction::SWr { .. }
                | Instruction::EndChain => {
                    return Err(SimError::MalformedChain {
                        opcode: instr.opcode(),
                    })
                }
            }
        }

        // Chains with an mv_mul are throughput-bound by the MVM (input
        // vectors stream into the tile engines as part of the tile
        // occupancy) unless their output side outruns the MFU stream;
        // compute chains without one stream through the MFU pipeline; pure
        // data moves (v_rd → v_wr with no arithmetic) ride the vector
        // arbitration network and leave both compute resources free.
        let mfu_stream = self.mfu_stream;
        let (kind, occupancy) = if mvm_occ > 0 {
            (ChainKind::Mvm, mvm_occ.max(u64::from(w_out) * mfu_stream))
        } else if mfu_ops > 0 {
            (ChainKind::Mfu, u64::from(w_in.max(w_out)) * mfu_stream)
        } else {
            (ChainKind::Move, u64::from(w_in.max(w_out)) * mfu_stream)
        };
        let mut t = ChainTiming {
            mvm_occupancy: mvm_occ,
            net_vectors_in,
            mvm_macs,
            mfu_ops,
            ..self.place(kind, dep_ready, occupancy, depth, w_in, w_out)
        };
        // The MVM frontier this chain leaves: at least every entry (module
        // docs, Scoreboards).
        let busy_until = t.trace.start.saturating_add(occupancy);
        let read_until = self.mrf_read_until.write(mvm_tiles);
        debug_assert!(read_until.iter().all(|&c| c <= busy_until));
        read_until.fill(busy_until);

        for (mem, index) in chain.write_targets() {
            match mem {
                MemId::NetQ => t.net_vectors_out += u64::from(w_out),
                MemId::Dram => {
                    let s = Self::dram_span(index, u64::from(w_out))?;
                    self.dram_vector_ready.write(s).fill(t.trace.completion);
                }
                vrf => {
                    let s = Self::vrf_span(config, vrf, index, w_out)?;
                    self.vrf_ready.write(s).fill(t.trace.completion);
                }
            }
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ProgramBuilder;

    fn cfg() -> NpuConfig {
        NpuConfig::builder()
            .native_dim(8)
            .lanes(4)
            .tile_engines(2)
            .mfus(2)
            .mrf_entries(16)
            .vrf_entries(8)
            .build()
            .unwrap()
    }

    #[test]
    fn vrf_scoreboard_tracks_ranges() {
        let mut t = Timeline::new(&cfg());
        let all = Timeline::vrf_span(&cfg(), MemId::InitialVrf, 0, 8).unwrap();
        assert_eq!(t.vrf_ready.latest(&all), 0);
        let s = Timeline::vrf_span(&cfg(), MemId::InitialVrf, 2, 3).unwrap();
        t.vrf_ready.write(s).fill(100);
        let one = |t: &Timeline, i, w| {
            t.vrf_ready
                .latest(&Timeline::vrf_span(&cfg(), MemId::InitialVrf, i, w).unwrap())
        };
        assert_eq!(one(&t, 2, 1), 100);
        assert_eq!(one(&t, 0, 8), 100);
        assert_eq!(one(&t, 0, 2), 0);
        let s = Timeline::vrf_span(&cfg(), MemId::InitialVrf, 3, 1).unwrap();
        t.vrf_ready.write(s).fill(50); // overwrite lowers that entry
        assert_eq!(one(&t, 3, 1), 50);
        assert_eq!(one(&t, 2, 3), 100);
        // Files do not alias: the same indices of another file are clear.
        let other = Timeline::vrf_span(&cfg(), MemId::AddSubVrf(1), 0, 8).unwrap();
        assert_eq!(t.vrf_ready.latest(&other), 0);
        t.begin_run();
        assert_eq!(one(&t, 0, 8), 0);
    }

    #[test]
    fn a_reset_zeroes_the_written_extent_and_leaves_every_entry_zero() {
        let mut board = Board::zeros(16);
        board.write(0..0);
        assert!(board.written.is_empty(), "an empty write widens nothing");
        board.write(9..11).fill(7);
        board.write(3..4).fill(5);
        assert_eq!(board.written, 3..11);
        board.write(5..6).fill(6);
        assert_eq!(board.written, 3..11, "inside the extent");
        board.reset();
        assert!(board.cycles.iter().all(|&c| c == 0));
        assert!(board.written.is_empty());
        // The top entry alone, then the bottom one: the extent spans both.
        board.write(15..16).fill(1);
        board.write(0..1).fill(1);
        assert_eq!(board.written, 0..16);
        board.reset();
        assert!(board.cycles.iter().all(|&c| c == 0));
    }

    #[test]
    fn a_read_over_the_written_extent_equals_a_scan_of_the_whole_board() {
        // Writes (an empty one, one lowering an entry, one of 0) and resets
        // (`None`), on a DRAM board that grows and a sized one, each
        // followed by every read of `0..16`, past both boards' lengths.
        let steps = [
            Some((4..6, 9)),
            Some((0..0, 7)),
            Some((10..12, 3)),
            Some((5..6, 2)),
            None,
            Some((7..8, 5)),
            Some((2..3, 0)),
            None,
            None,
        ];
        for mut board in [Board::default(), Board::zeros(12)] {
            for step in steps.clone() {
                match step {
                    Some((range, cycle)) => board.write(range).fill(cycle),
                    None => board.reset(),
                }
                let cycles = board.cycles.iter().copied().enumerate();
                assert!(cycles
                    .clone()
                    .all(|(i, c)| c == 0 || board.written.contains(&i)));
                for start in 0..16 {
                    for end in start..16 {
                        let scan = cycles.clone().filter(|(i, _)| (start..end).contains(i));
                        let scan = scan.fold(0, |t, (_, c)| t.max(c));
                        assert_eq!(board.latest(&(start..end)), scan, "{start}..{end}");
                    }
                }
            }
        }
    }

    #[test]
    fn spans_fault_on_width_file_and_u32_overflow() {
        let t = Timeline::new(&cfg());
        assert!(Timeline::vrf_span(&cfg(), MemId::InitialVrf, 7, 1).is_ok());
        assert_eq!(
            Timeline::vrf_span(&cfg(), MemId::MultiplyVrf(0), 7, 2),
            Err(SimError::VrfIndexOutOfRange {
                file: "MultiplyVrf",
                index: 7,
                width: 2,
                capacity: 8
            })
        );
        assert!(Timeline::vrf_span(&cfg(), MemId::InitialVrf, u32::MAX, u32::MAX).is_err());
        for mem in [MemId::AddSubVrf(2), MemId::MatrixRf, MemId::NetQ] {
            assert_eq!(
                Timeline::vrf_span(&cfg(), mem, 0, 1),
                Err(SimError::BadVrfFileIndex { mem, mfus: 2 })
            );
        }
        assert_eq!(t.mrf_span(12, 4), Ok(12..16));
        assert_eq!(
            t.mrf_span(12, 5),
            Err(SimError::MrfIndexOutOfRange {
                index: 16,
                capacity: 16
            })
        );
        assert!(t.mrf_span(0, 1 << 32).is_err());
        assert!(Timeline::dram_span(0, DRAM_ENTRIES).is_ok());
        assert!(Timeline::dram_span(1, DRAM_ENTRIES).is_err());
    }

    #[test]
    fn dram_scoreboards_grow_on_demand() {
        let mut board = Board::default();
        assert_eq!(board.latest(&(1000..1004)), 0);
        board.write(5..7).fill(42);
        assert_eq!(board.cycles.len(), 7);
        assert_eq!(board.latest(&(4..8)), 42);
        assert_eq!(board.latest(&(7..9)), 0);
        board.reset();
        assert_eq!(board.latest(&(5..7)), 0);
    }

    #[test]
    fn arrivals_are_fifo_and_report_the_latest_stamp() {
        let mut q = Arrivals::default();
        q.push_vectors(5, 1);
        q.push_vectors(9, 1);
        q.push_vectors(2, 1);
        assert_eq!(q.vectors(), 3);
        // Popping two returns the later of their arrival times.
        assert_eq!(q.pop_vectors(2), Ok(9));
        // Underflow reports counts and pops nothing.
        assert_eq!(
            q.pop_vectors(2),
            Err(SimError::NetQueueEmpty {
                requested: 2,
                available: 1
            })
        );
        assert_eq!(q.pop_vectors(1), Ok(2));
        assert_eq!(q.vectors(), 0);
        // Equal stamps share a run; a pop may split one.
        q.push_vectors(7, 2);
        q.push_vectors(7, u64::MAX);
        assert_eq!(q.runs.len(), 1);
        assert_eq!(q.pop_vectors(3), Ok(7));
        assert_eq!(q.vectors(), u64::MAX - 3);
        // Matrix tiles are counted, not stamped.
        assert!(q.pop_matrices(1).is_err());
        q.push_matrices(2);
        assert!(q.pop_matrices(2).is_ok());
        assert!(q.pop_matrices(1).is_err());
    }

    #[test]
    fn later_arrivals_never_advance_a_completion() {
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(2);
        b.begin_loop(3).unwrap();
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(0)
            .vv_add(0)
            .v_wr(MemId::InitialVrf, 4)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 4)
            .v_relu()
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.end_loop().unwrap();
        let program = b.build();
        let completions = |stamps: [u64; 6]| {
            let mut t = Timeline::new(&cfg());
            for at in stamps {
                t.arrivals.push_vectors(at, 1);
            }
            t.begin_run();
            let mut out = Vec::new();
            t.run_column(&cfg(), &program, true, |_, c| {
                out.push((c.trace.start, c.trace.completion));
                Ok(())
            })
            .unwrap();
            (out, t.high_water())
        };
        let (early, early_end) = completions([0, 0, 40, 40, 90, 90]);
        let (late, late_end) = completions([0, 30, 40, 400, 90, 95]);
        assert!(early
            .iter()
            .zip(&late)
            .all(|(e, l)| e.0 <= l.0 && e.1 <= l.1));
        assert!(early_end < late_end);
    }
}
