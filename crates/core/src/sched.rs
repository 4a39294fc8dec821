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
//! A scoreboard is one cycle per entry of one store: each VRF has its own,
//! the MRF two (ready and read-until), DRAM two (vectors and matrices).
//! Every run starts with every entry at 0, and a run's writes are the only
//! thing that makes one non-zero. So a board holds only the entries up to
//! the highest one ever written, zeroed as a write first reaches them, and
//! reads every entry past them as 0 — the rule the data-plane register
//! files follow. The VRF and MRF boards reserve their [`NpuConfig`]
//! capacity when the timeline is built, which zeroes nothing, so a write
//! never moves them. The DRAM ones are pages of 4,096 entries, each
//! reserved when a write first reaches it and kept sorted; a page no write
//! reached reads 0. A cold run pays for the entries it writes, and for the
//! pages they lie in, not for the configuration or the highest address.
//!
//! Each board, and each DRAM page, also records the extent it was written
//! over — lowest to highest entry written since its last reset — and the
//! reset at the start of a run zeroes that extent alone. Every entry
//! outside it is already 0, so the state is the one a fill of the whole
//! board leaves and no cycle can depend on the difference; the work is
//! what the last run wrote, never more than the board, and a warm run of a
//! small program does not pay for register files it never touched.
//!
//! A read scans only the part of its range inside the written extent, for
//! the same reason: a board no chain of the run wrote — the MRF's when the
//! weights were pinned before it, DRAM's in most programs — reads in O(1),
//! whatever the tile grid. The MRF write-after-read board is written as a
//! fill, not a running `max`: only an `mv_mul` writes it, with the cycle it
//! leaves the MVM frontier at (`start + occupancy`); the next `mv_mul`
//! starts at or after that frontier, which never moves back within a run,
//! batch columns included. So no entry exceeds what the next `mv_mul`
//! writes (a `debug_assert!` checks it, except from the extrapolated state
//! a fast-forward verifies, which no run need reach).
//!
//! # Fast-forward
//!
//! Every loop iteration after the first replays the same items, so each is
//! one map F from the state S it starts in to the state after it and its
//! chains' timings T. S is the cursor, the instruction count, the
//! frontiers, `completed`, the tiling registers, the queued vector and tile
//! counts, and the scoreboard entries the iteration writes; an entry it
//! reads and does not write is a constant of F. F uses only `max`, `+` of
//! a constant, saturating `−` of a constant (a `max` with 0) and
//! assignment. So while nothing saturates and every NetQ pop returns the
//! same stamp, each field of F(S) and T is a max of affine functions of S,
//! and along any ray S + m·d it is convex in m.
//!
//! S holds those entries as the fills that wrote them. Every scoreboard
//! write is a fill of one cycle over a range, and the snapshots compared
//! below come from iterations that made the same fills over the same
//! ranges in the same order. So each entry is the value of the last fill
//! over it, a fixed selection of the iteration's fill values, and a
//! snapshot stores one value per fill, not one per entry (a `mv_mul`'s
//! read-until fill covers its whole tile grid). Restoring S replays the
//! fills in order, which leaves every entry what the iteration left it. A
//! fixed selection is linear: fill values that step evenly give entries
//! that step evenly, a line through fill values selects a line through
//! entries, and F and T are still max-affine in them. The argument is the
//! same over fills as over entries.
//!
//! When the caller takes skipped chains as summed statistics (an
//! untraced run, or `cycle_bounds`), `run_column` snapshots S after each
//! iteration. It sizes
//! each scratch buffer once per segment, from the segment's chains and
//! fills: a cold run allocates each buffer once, a warm one none. Once
//! three snapshots in a row step evenly, d = S_{i+1} − S_i = S_{i+2} −
//! S_{i+1} value by value, each at its own rate, it tests the line once,
//! at the far end. It sets the state to S_i + M·d, M reaching the
//! segment's last iteration, and runs that iteration for real. It accepts
//! only if the result is S_i + (M+1)·d with timings T_i + M·e, e = T_{i+1}
//! − T_i. A convex function that meets a line at m = 0, 1 and M is that
//! line on all of [0, M]. So, by induction, every iteration in between
//! starts on the ray with timings T_i + m·e, and skipping them is exact.
//!
//! The skipped iterations' statistics come from the per-chain charge the
//! stepped path uses (`ChainTiming::charge`), applied to two timings the
//! run holds: T_{i+1}, observed at m = 1, and the verified one at m = M.
//! Both are on the line, so the M − 2 iterations between sum by the
//! trapezoid rule, (M − 2)·(f(1) + f(M))/2, exact for an integer affine f.
//! Each comparison that classifies a chain's stall compares two affine
//! functions of m, so the same outcomes at 1 and M mean the same outcomes
//! on all of [1, M]; a chain whose outcomes differ rejects the block.
//!
//! Preconditions, each checked:
//! * every NetQ pop of the observed, skipped and verifying iterations
//!   comes from the queue's front run: none emptied while the observed
//!   iterations ran, and it holds the vectors the later ones pop;
//! * M is capped by the vectors and tiles queued, so an underflow still
//!   faults at its own chain, stepped;
//! * every observed and extrapolated value is at most `u64::MAX / 2`.
//!   Each saturating `+` yields a value S or T holds, so none saturated
//!   at m = 0, 1 or M, and the line keeps every value between below the
//!   bound too.
//!
//! A rejected verification restores S_{i+2}, arrivals included, and
//! retries at half the span. A segment of n iterations gets 2·⌈log₂(n+1)⌉
//! verifications; then it steps. Traced runs and short or aperiodic loops
//! step every chain, and that path is the reference the tests compare
//! against.
//!
//! # Faults
//!
//! Each [`SimError`] has one source:
//! * **The host loaders** check outside data where it enters, in both
//!   modes, before anything is queued or stored: a vector of the wrong
//!   length ([`SimError::VectorLengthMismatch`]), a tile that is not native
//!   ([`SimError::ForeignTile`]), a matrix too big for its grid
//!   ([`SimError::MatrixDoesNotFitGrid`]), and a target out of range, by
//!   the same span functions a chain's accesses use.
//! * **The timeline** raises every fault of a run that needs no data:
//!   [`SimError::BadRegValue`], [`SimError::MfuCapacityExceeded`],
//!   [`SimError::BadVrfFileIndex`], [`SimError::VrfIndexOutOfRange`],
//!   [`SimError::DramIndexOutOfRange`] (beyond the 2²²-entry modelled
//!   address space), [`SimError::MrfIndexOutOfRange`] and
//!   [`SimError::NetQueueEmpty`]. All index arithmetic is done in `u64`
//!   before any scoreboard is touched, so a `rows × cols` grid that
//!   overflows `u32` is an out-of-range fault, not a wrap, and cycle sums
//!   saturate. A chain that breaks the ISA's rules never reaches it:
//!   [`Chain::new`] is the only way to build one.
//! * **The data pass** raises only the two faults that need contents,
//!   [`SimError::MrfEntryUninitialized`] and
//!   [`SimError::DramMatrixUninitialized`], and so only in
//!   `ExecMode::Full`. Every other access it makes, the timeline or a
//!   loader has checked.
//! * **[`Npu::execute`](crate::Npu::execute)** refuses, with
//!   [`SimError::StaleSchedule`] and before anything else, a schedule
//!   whose start state — tiling registers, queued arrivals — is not the
//!   NPU's.
//!
//! The data pass runs after the whole timeline, over the chains it placed
//! before its first fault. A data fault among them is the earlier one and
//! is the run's; otherwise the timeline's is, as if the passes ran chain by
//! chain.
//!
//! Each capacity fault is raised by one function here: `reg_write`,
//! `mfu_units`, `vrf_span` (with `OperandFiles` naming an MFU operand's
//! file), `mrf_span` and `dram_span`. The deploy gate,
//! [`Program::validate`] (the linter's BW001–BW005), calls the same
//! functions in the same order over the runtime walk: zero-iteration
//! segments skipped, loop bodies twice. Twice is exact, because a loop's
//! second iteration starts in the register state every later one does.
//! Only NetQ pops are left out; their budget is the NetQ check's. So:
//! * a program `validate` passes raises no data-free fault but
//!   [`SimError::NetQueueEmpty`];
//! * a program the timeline faults on otherwise has that fault first in
//!   `validate`'s list, located at the item that raised it.

use std::collections::VecDeque;
use std::ops::Range;

use crate::config::NpuConfig;
use crate::isa::{Chain, Instruction, Item, MemId, Program, ScalarReg, Segment};
use crate::mvm;
use crate::npu::{ChainKind, ChainTrace, SimError};
use crate::stats::RunStats;
use crate::trace::SpanKind;

/// Size of the modelled DRAM vector and matrix address spaces, in entries:
/// the range an index from a corrupt program is checked against.
pub(crate) const DRAM_ENTRIES: u64 = 1 << 22;

fn saturate(n: u64) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// `[index, index + count)` as a slice range, if it lies within `capacity`.
fn span(index: u32, count: u64, capacity: u64) -> Option<Range<usize>> {
    let end = u64::from(index).checked_add(count)?;
    (end <= capacity).then_some(index as usize..end as usize)
}

/// The largest value a fast-forward observes or extrapolates (module docs:
/// [Fast-forward](self#fast-forward)).
const LIMIT: u64 = u64::MAX / 2;

/// `a + m·(b − a)`: the value `m` steps along the line through `a` (at 0)
/// and `b` (at 1), if it and both ends are at most [`LIMIT`].
fn line(a: u64, b: u64, m: u64) -> Option<u64> {
    let at = i128::from(a) + i128::from(m) * (i128::from(b) - i128::from(a));
    u64::try_from(at).ok().filter(|&v| v.max(a).max(b) <= LIMIT)
}

/// Whether `b − a == c − b`, entry by entry.
fn evenly(a: &[u64], b: &[u64], c: &[u64]) -> bool {
    let ends = a.iter().zip(c);
    ends.zip(b)
        .all(|((&a, &c), &b)| u128::from(a) + u128::from(c) == 2 * u128::from(b))
}

/// One cycle per entry — ready or read-until — and the extent written since
/// the last [`Board::reset`] (module docs: [Scoreboards](self#scoreboards)).
#[derive(Clone, Debug, Default)]
struct Board {
    /// Zeroed as far as writes have reached; every entry past its length
    /// is 0.
    cycles: Vec<u64>,
    /// Empty, or spans every entry not 0.
    written: Range<usize>,
}

impl Board {
    /// A board of `capacity` entries, reserved and not yet zeroed.
    fn reserved(capacity: usize) -> Self {
        Board {
            cycles: Vec::with_capacity(capacity),
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

    /// Sets every entry of `range` to `cycle`: the board is zeroed as far
    /// as `range` reaches and its written extent widened to cover it.
    fn fill(&mut self, range: Range<usize>, cycle: u64) {
        if range.is_empty() {
            return;
        }
        if self.cycles.len() < range.end {
            self.cycles.resize(range.end, 0);
        }
        self.written = if self.written.is_empty() {
            range.clone()
        } else {
            self.written.start.min(range.start)..self.written.end.max(range.end)
        };
        self.cycles[range].fill(cycle);
    }

    /// Zeroes what was written since the last reset: all of the board that
    /// is not already 0.
    fn reset(&mut self) {
        self.cycles[self.written.clone()].fill(0);
        self.written = 0..0;
    }
}

/// Entries in one page of a DRAM scoreboard.
const PAGE: usize = 4096;

/// A DRAM scoreboard: a [`Board`] of [`PAGE`] entries per page a write has
/// reached, sorted by page. A page no write reached reads 0, so a write at
/// the top of the 2²² entries costs one page, not a board reaching it
/// (module docs: [Scoreboards](self#scoreboards)).
#[derive(Clone, Debug, Default)]
struct Paged {
    /// `(page number, page)`, ascending.
    pages: Vec<(usize, Board)>,
}

impl Paged {
    /// Each page `range` reaches, with the part of `range` inside it as
    /// the page's own entries.
    fn split(range: &Range<usize>) -> impl Iterator<Item = (usize, Range<usize>)> {
        let (first, last) = (range.start / PAGE, range.end.saturating_sub(1) / PAGE);
        let (start, end) = (range.start, range.end);
        (first..=last).filter(move |_| start < end).map(move |n| {
            (
                n,
                start.max(n * PAGE) - n * PAGE..end.min((n + 1) * PAGE) - n * PAGE,
            )
        })
    }

    /// Latest cycle in `range`; pages never written read 0.
    fn latest(&self, range: &Range<usize>) -> u64 {
        Self::split(range)
            .filter_map(|(n, within)| {
                let i = self.pages.binary_search_by_key(&n, |&(k, _)| k).ok()?;
                Some(self.pages[i].1.latest(&within))
            })
            .fold(0, u64::max)
    }

    /// Sets every entry of `range` to `cycle`, reserving a page the first
    /// time a write reaches it.
    fn fill(&mut self, range: Range<usize>, cycle: u64) {
        for (n, within) in Self::split(&range) {
            let i = match self.pages.binary_search_by_key(&n, |&(k, _)| k) {
                Ok(i) => i,
                Err(i) => {
                    self.pages.insert(i, (n, Board::reserved(PAGE)));
                    i
                }
            };
            self.pages[i].1.fill(within, cycle);
        }
    }

    /// Zeroes what was written since the last reset, page by page.
    fn reset(&mut self) {
        for (_, page) in &mut self.pages {
            page.reset();
        }
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

    /// Matrix tiles currently queued.
    pub(crate) fn matrices(&self) -> u64 {
        self.matrices
    }

    /// The queue as it stands.
    pub(crate) fn snapshot(&self) -> Queued {
        let mut runs = self.runs.iter().copied();
        Queued {
            vectors: self.vectors,
            matrices: self.matrices,
            front: runs.next(),
            rest: runs.collect(),
        }
    }

    /// Whether the queue is `queued`, run for run.
    pub(crate) fn is(&self, queued: &Queued) -> bool {
        (self.vectors, self.matrices) == (queued.vectors, queued.matrices)
            && self.runs.iter().eq(queued.front.iter().chain(&queued.rest))
    }

    /// Sets the queue to `queued`.
    pub(crate) fn restore(&mut self, queued: &Queued) {
        self.runs.clear();
        self.runs.extend(queued.front.iter().chain(&queued.rest));
        (self.vectors, self.matrices) = (queued.vectors, queued.matrices);
    }

    /// Leaves `vectors` and `matrices` queued, taking the vectors from the
    /// front, as a run that popped the rest does.
    pub(crate) fn leave(&mut self, vectors: u64, matrices: u64) {
        self.take(self.vectors - vectors);
        self.matrices = matrices;
    }

    /// Pops `width` vectors; returns the latest arrival among them (the
    /// cycle the read could begin).
    fn pop_vectors(&mut self, width: u32) -> Result<u64, SimError> {
        if self.vectors < u64::from(width) {
            return Err(SimError::NetQueueEmpty {
                requested: width,
                available: saturate(self.vectors),
            });
        }
        Ok(self.take(u64::from(width)))
    }

    /// Pops `need` of the queued vectors, oldest first; returns the latest
    /// arrival among them.
    fn take(&mut self, mut need: u64) -> u64 {
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
        arrival
    }

    /// The oldest run, `(cycle, vectors)` or `(0, 0)` if none, and how many
    /// runs are queued.
    fn front(&self) -> ((u64, u64), usize) {
        (
            self.runs.front().copied().unwrap_or((0, 0)),
            self.runs.len(),
        )
    }

    /// Gives the oldest run `front`'s count, putting it back first if pops
    /// emptied it since [`Arrivals::front`] counted `runs`.
    fn set_front(&mut self, front: (u64, u64), runs: usize) {
        if self.runs.len() < runs {
            self.runs.push_front(front);
        } else if let Some((_, n)) = self.runs.front_mut() {
            *n = front.1;
        }
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

/// A copy of the NetQ input side: what a
/// [`Schedule`](crate::Schedule) records a run started from. The oldest
/// run is held inline, so a queue of one stamp — a served request's, a
/// sweep's — is copied without allocating.
#[derive(Clone, Debug)]
pub(crate) struct Queued {
    vectors: u64,
    matrices: u64,
    front: Option<(u64, u64)>,
    /// Every later run, oldest first.
    rest: Vec<(u64, u64)>,
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

/// A tiling register write: `rows` and `cols` must be non-zero.
pub(crate) fn reg_write(reg: ScalarReg, value: u32) -> Result<(), SimError> {
    if value == 0 {
        return Err(SimError::BadRegValue { reg });
    }
    Ok(())
}

/// A vector chain's MFU operations of each kind fit the units there are:
/// one of each kind per MFU.
pub(crate) fn mfu_units(config: &NpuConfig, chain: &Chain) -> Result<(), SimError> {
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
    Ok(())
}

/// The ordinal of VRF `mem` (its scoreboard, in [`vrf_file`] order) and the
/// range of `width` entries from `index` in it.
pub(crate) fn vrf_span(
    config: &NpuConfig,
    mem: MemId,
    index: u32,
    width: u32,
) -> Result<(usize, Range<usize>), SimError> {
    let (file, slot) = vrf_file(mem, config.mfus())?;
    let capacity = config.vrf_entries();
    let within =
        span(index, u64::from(width), u64::from(capacity)).ok_or(SimError::VrfIndexOutOfRange {
            file,
            index,
            width,
            capacity,
        })?;
    Ok((slot, within))
}

/// The scoreboard range of `count` MRF entries from `index`.
pub(crate) fn mrf_span(
    config: &NpuConfig,
    index: u32,
    count: u64,
) -> Result<Range<usize>, SimError> {
    let capacity = config.mrf_entries();
    span(index, count, u64::from(capacity)).ok_or(SimError::MrfIndexOutOfRange {
        index: index.max(capacity),
        capacity,
    })
}

/// The scoreboard range of `count` DRAM entries from `index`.
pub(crate) fn dram_span(index: u32, count: u64) -> Result<Range<usize>, SimError> {
    span(index, count, DRAM_ENTRIES).ok_or(SimError::DramIndexOutOfRange {
        index,
        width: saturate(count),
        capacity: DRAM_ENTRIES as u32,
    })
}

/// One chain's place in the schedule: the record [`Npu::take_trace`]
/// publishes, plus the widths and counts the statistics and spans derive
/// from.
///
/// [`Npu::take_trace`]: crate::Npu::take_trace
#[derive(Clone, Debug)]
pub(crate) struct ChainTiming {
    pub(crate) trace: ChainTrace,
    /// When its resource frontier came free.
    pub(crate) resource_free_at: u64,
    /// The MVM's share of `trace.occupancy` (0 without an `mv_mul`).
    pub(crate) mvm_occupancy: u64,
    /// Native vectors carried from `mv_mul` onward, or a matrix chain's
    /// tiles ([`Chain::widths`]).
    pub(crate) w_out: u32,
    pub(crate) net_vectors_in: u64,
    pub(crate) net_vectors_out: u64,
    pub(crate) mvm_macs: u64,
    pub(crate) mfu_ops: u64,
}

/// How [`ChainTiming::charge`] classified a chain's wait.
pub(crate) struct Stall {
    /// The wait, `(kind, from, to)`, if the chain waited.
    pub(crate) span: Option<(SpanKind, u64, u64)>,
    /// One bit per comparison behind the classification: two timings with
    /// the same bits are charged by one affine formula of their fields.
    branches: u8,
}

impl ChainTiming {
    /// Adds this chain to `stats` and classifies its wait: the one place a
    /// chain's statistics come from, stepped or summed over a
    /// fast-forward.
    pub(crate) fn charge(&self, stats: &mut RunStats, native_dim: u32) -> Stall {
        let s = stats;
        s.chains += 1;
        s.net_vectors_in += self.net_vectors_in;
        s.net_vectors_out += self.net_vectors_out;
        s.mvm_macs += self.mvm_macs;
        s.mfu_element_ops += self.mfu_ops * u64::from(self.w_out) * u64::from(native_dim);

        // A chain waits on whichever of its three edges is last; the wait
        // is charged to dependencies if they outlast dispatch and the
        // resource, else to the resource if it outlasts the other two.
        let c = &self.trace;
        let other = c.dispatched_at.max(self.resource_free_at);
        let ready = c.dispatched_at.max(c.dep_ready_at);
        let comparisons = [
            c.dispatched_at >= self.resource_free_at,
            c.dispatched_at >= c.dep_ready_at,
            c.dep_ready_at > other,
            self.resource_free_at > ready,
        ];
        let branches = comparisons
            .iter()
            .fold(0, |bits, &b| bits << 1 | u8::from(b));
        let span = if c.kind == ChainKind::MatrixMove {
            // Matrix moves ride the memory path beside the vector
            // pipeline: their waits are traced but are not pipeline stalls.
            (c.dep_ready_at > c.dispatched_at).then_some((
                SpanKind::DepStall,
                c.dispatched_at,
                c.dep_ready_at,
            ))
        } else {
            s.mvm_busy_cycles += self.mvm_occupancy;
            s.pipeline_busy_cycles += c.occupancy;
            if c.dep_ready_at > other {
                s.dep_stall_cycles += c.dep_ready_at - other;
                Some((SpanKind::DepStall, other, c.dep_ready_at))
            } else if self.resource_free_at > ready {
                s.resource_stall_cycles += self.resource_free_at - ready;
                Some((SpanKind::ResourceStall, ready, self.resource_free_at))
            } else {
                None
            }
        };
        Stall { span, branches }
    }

    /// Every cycle and count, in a fixed order.
    fn fields(&self) -> [u64; 12] {
        let c = &self.trace;
        [
            c.dispatched_at,
            c.dep_ready_at,
            c.start,
            c.occupancy,
            c.completion,
            self.resource_free_at,
            self.mvm_occupancy,
            u64::from(self.w_out),
            self.net_vectors_in,
            self.net_vectors_out,
            self.mvm_macs,
            self.mfu_ops,
        ]
    }

    /// Whether `at` is the timing `m` steps along the line from this one
    /// (at 0) through `next` (at 1), field by field, with no field outside
    /// `0..=LIMIT`.
    fn lands(&self, next: &ChainTiming, m: u64, at: &ChainTiming) -> bool {
        let ends = self.fields().into_iter().zip(next.fields());
        at.trace.kind == self.trace.kind
            && ends
                .zip(at.fields())
                .all(|((a, b), v)| line(a, b, m) == Some(v))
    }
}

/// What [`Timeline::run_column`] hands its caller.
pub(crate) enum Scheduled<'a> {
    /// One chain, as its place in the schedule is fixed.
    Chain(&'a ChainTiming),
    /// The summed statistics of the loop iterations a fast-forward skipped
    /// (module docs: [Fast-forward](self#fast-forward)). Only a caller that
    /// asked for sums receives one.
    Skipped(&'a RunStats),
}

/// Names one of a [`Timeline`]'s scoreboards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BoardId {
    /// A vector register file, by its [`vrf_file`] ordinal.
    Vrf(usize),
    Mrf,
    MrfReadUntil,
    DramVector,
    DramMatrix,
}

/// Whether board writes are logged for a fast-forward, and whether the
/// iteration writing them started from an extrapolated state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Logging {
    #[default]
    Off,
    Observing,
    Verifying,
}

/// Where the fills of one iteration landed, `(board, range)` in order: the
/// layout of a snapshot's scoreboard part, which holds their values.
type Writes = Vec<(BoardId, Range<usize>)>;

/// A snapshot's scalars: cursor, instructions, the three frontiers,
/// `completed`, rows, cols, queued vectors and queued tiles.
const SCALARS: usize = 10;
const VECTORS: usize = 8;
const MATRICES: usize = 9;

/// The fast-forward's scratch (module docs:
/// [Fast-forward](self#fast-forward)), which a caller keeps across runs so
/// that a warm run allocates nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct FastForward {
    /// Where the fills of the last iteration observed landed.
    writes: Writes,
    /// Snapshots at the last three iteration boundaries, oldest first, of
    /// `SCALARS + writes.len()` values each.
    states: Vec<u64>,
    /// The arrival queue's front at each of the three boundaries.
    fronts: [((u64, u64), usize); 3],
    /// The chain timings of the last two iterations, then of the one
    /// being stepped, `chains` each.
    timings: Vec<ChainTiming>,
    /// Chains in one iteration of the segment.
    chains: usize,
    /// Snapshots in a row taken over the same writes.
    seen: u32,
    /// Verifications left in this segment.
    attempts: u32,
    #[cfg(test)]
    rejected: u32,
}

impl FastForward {
    /// Prepares for `segment`; false if it is too short to skip any, with
    /// three observed and one verified. Otherwise sizes every buffer that
    /// holds an iteration, the timeline's fill log (`log`, `logged`)
    /// included, from the segment's chains and fills.
    fn begin(&mut self, segment: &Segment, log: &mut Writes, logged: &mut Vec<u64>) -> bool {
        self.seen = 0;
        self.attempts = 2 * (u32::BITS - segment.iterations.leading_zeros());
        if segment.iterations < 6 {
            return false;
        }
        // At most one fill per matrix move, per `mv_mul`'s read-until and
        // per VRF or DRAM write target (`Timeline::write`).
        let (chains, fills) = segment.items.iter().fold((0, 0), |(n, fills), item| {
            let Item::Chain(chain) = item else {
                return (n, fills);
            };
            let targets = chain.write_targets().filter(|&(mem, _)| mem != MemId::NetQ);
            let extra = chain.is_matrix_chain() || chain.has_mv_mul();
            (n + 1, fills + usize::from(extra) + targets.count())
        });
        self.chains = chains;
        for buffer in [&mut self.writes, log] {
            buffer.clear();
            buffer.reserve(fills);
        }
        for (buffer, len) in [(&mut self.states, 3 * (SCALARS + fills)), (logged, fills)] {
            buffer.clear();
            buffer.reserve(len);
        }
        self.timings.clear();
        self.timings.reserve(3 * chains);
        true
    }
}

/// The last three snapshots in `states`, laid out over `writes`.
fn snapshots<'a>(states: &'a [u64], writes: &Writes) -> (&'a [u64], &'a [u64], &'a [u64]) {
    let (s0, s) = states.split_at(SCALARS + writes.len());
    let (s1, s2) = s.split_at(s0.len());
    (s0, s1, s2)
}

/// The scheduler's whole state: see the [module docs](self).
#[derive(Clone, Debug)]
pub(crate) struct Timeline {
    pub(crate) arrivals: Arrivals,
    /// The tiling registers, which persist across runs.
    pub(crate) rows: u32,
    pub(crate) cols: u32,
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
    /// RAW scoreboards: one per VRF, in [`vrf_file`] order, and the MRF's,
    /// each reserved at its capacity; DRAM's are paged over
    /// [`DRAM_ENTRIES`].
    vrf_ready: Vec<Board>,
    mrf_ready: Board,
    /// WAR scoreboard: the cycle until which an in-flight `mv_mul` is still
    /// streaming each tile (double-buffering's correctness condition).
    mrf_read_until: Board,
    dram_vector_ready: Paged,
    dram_matrix_ready: Paged,
    /// While a fast-forward observes or verifies an iteration, where its
    /// fills land goes to `log` and their values to `logged`.
    logging: Logging,
    log: Writes,
    logged: Vec<u64>,
}

impl Timeline {
    pub(crate) fn new(config: &NpuConfig) -> Self {
        let files = 1 + 2 * config.mfus() as usize;
        let vrf = config.vrf_entries() as usize;
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
            vrf_ready: (0..files).map(|_| Board::reserved(vrf)).collect(),
            mrf_ready: Board::reserved(mrf),
            mrf_read_until: Board::reserved(mrf),
            dram_vector_ready: Paged::default(),
            dram_matrix_ready: Paged::default(),
            logging: Logging::Off,
            log: Writes::new(),
            logged: Vec::new(),
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
        let rest = [&mut self.mrf_ready, &mut self.mrf_read_until];
        for board in self.vrf_ready.iter_mut().chain(rest) {
            board.reset();
        }
        self.dram_vector_ready.reset();
        self.dram_matrix_ready.reset();
    }

    /// Schedules one pass over `program`, handing each chain's timing to
    /// `each` as it is fixed. `streamed` is false for a batch column after
    /// the first, whose every instruction is a scheduler replay. Given
    /// fast-forward scratch, `each` may instead get the summed statistics
    /// of loop iterations skipped (module docs:
    /// [Fast-forward](self#fast-forward)).
    pub(crate) fn run_column(
        &mut self,
        config: &NpuConfig,
        program: &Program,
        streamed: bool,
        mut ff: Option<&mut FastForward>,
        mut each: impl FnMut(Scheduled<'_>),
    ) -> Result<(), SimError> {
        let result = program.segments.iter().try_for_each(|segment| {
            let ff = ff.as_deref_mut().and_then(|ff| {
                ff.begin(segment, &mut self.log, &mut self.logged)
                    .then_some(ff)
            });
            self.run_segment(config, segment, streamed, ff, &mut each)
        });
        self.logging = Logging::Off;
        result
    }

    fn run_segment<F: FnMut(Scheduled<'_>)>(
        &mut self,
        config: &NpuConfig,
        segment: &Segment,
        streamed: bool,
        mut ff: Option<&mut FastForward>,
        each: &mut F,
    ) -> Result<(), SimError> {
        let mut iteration = 0;
        while iteration < segment.iterations {
            self.streaming = streamed && iteration == 0;
            iteration += 1;
            let Some(ff) = ff.as_deref_mut().filter(|ff| ff.attempts > 0) else {
                self.step(config, &segment.items, |t| each(Scheduled::Chain(&t)))?;
                continue;
            };
            self.start_logging(Logging::Observing);
            let timings = &mut ff.timings;
            self.step(config, &segment.items, |t| {
                each(Scheduled::Chain(&t));
                timings.push(t);
            })?;
            self.logging = Logging::Off;
            self.observe(ff);
            let remaining = segment.iterations - iteration;
            iteration += self.fast_forward(config, &segment.items, remaining, ff, each);
        }
        Ok(())
    }

    /// Schedules one iteration of `items`, handing over each chain's timing.
    fn step(
        &mut self,
        config: &NpuConfig,
        items: &[Item],
        mut each: impl FnMut(ChainTiming),
    ) -> Result<(), SimError> {
        for item in items {
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
                    each(timing);
                }
            }
        }
        Ok(())
    }

    /// Closes an observed iteration: where its fills landed becomes the
    /// snapshot layout, the state after it the newest snapshot, and its
    /// timings the newest of the two kept.
    fn observe(&mut self, ff: &mut FastForward) {
        if self.log == ff.writes {
            ff.seen = ff.seen.saturating_add(1);
        } else {
            ff.seen = 1;
            ff.states.clear();
        }
        std::mem::swap(&mut self.log, &mut ff.writes);
        let stride = SCALARS + ff.writes.len();
        if ff.states.len() == 3 * stride {
            ff.states.drain(..stride);
        }
        ff.states.extend(self.state());
        ff.fronts.rotate_left(1);
        ff.fronts[2] = self.arrivals.front();
        let older = ff.timings.len().saturating_sub(2 * ff.chains);
        ff.timings.drain(..older);
    }

    /// After an observed iteration `i + 1`, with `remaining` to go: if the
    /// last three snapshots step evenly, skips along the line they start,
    /// as far as one verified iteration proves it. Returns how many
    /// iterations it advanced.
    fn fast_forward(
        &mut self,
        config: &NpuConfig,
        items: &[Item],
        remaining: u32,
        ff: &mut FastForward,
        each: &mut impl FnMut(Scheduled<'_>),
    ) -> u32 {
        if ff.seen < 3 {
            return 0;
        }
        let (s0, s1, s2) = snapshots(&ff.states, &ff.writes);
        let (t0, t1) = ff.timings.split_at(ff.chains);
        let kinds = t0.iter().zip(t1).all(|(a, b)| a.trace.kind == b.trace.kind);
        let ((_, front), runs) = ff.fronts[2];
        // No run emptied while the observed iterations popped.
        if !kinds || ff.fronts[0].1 != runs || !evenly(s0, s1, s2) {
            return 0;
        }
        // Span M: from S_i to the last iteration, or as far as the queues
        // fund the M − 1 iterations from S_{i+2} on.
        let mut span = u64::from(remaining) + 1;
        for (queued, used) in [
            (front, s0[VECTORS] - s1[VECTORS]),
            (s2[MATRICES], s0[MATRICES] - s1[MATRICES]),
        ] {
            if let Some(funded) = queued.checked_div(used) {
                span = span.min(funded + 1);
            }
        }
        while span >= 3 && ff.attempts > 0 {
            ff.attempts -= 1;
            if let Some(skipped) = self.verify(config, items, span, ff) {
                each(Scheduled::Skipped(&skipped));
                for t in ff.timings.drain(2 * ff.chains..) {
                    each(Scheduled::Chain(&t));
                }
                ff.seen = 0;
                return u32::try_from(span - 1).expect("within the segment");
            }
            #[cfg(test)]
            {
                ff.rejected += 1;
            }
            span /= 2;
        }
        0
    }

    /// Runs iteration `i + span` from `S_i + span·d` and returns the
    /// statistics of iterations `i + 2 .. i + span`, skipped, if it lands
    /// on the line, its timings left after the observed two. Otherwise
    /// restores `S_{i+2}` and those two, and returns `None`.
    fn verify(
        &mut self,
        config: &NpuConfig,
        items: &[Item],
        span: u64,
        ff: &mut FastForward,
    ) -> Option<RunStats> {
        let (s0, s1, s2) = snapshots(&ff.states, &ff.writes);
        let ends = || s0.iter().copied().zip(s1.iter().copied());
        // Within `LIMIT` at `span + 1` means within it at `span`, nearer `b`.
        if !ends().all(|(a, b)| line(a, b, span + 1).is_some()) {
            return None;
        }
        let ((stamp, front), runs) = ff.fronts[2];
        let popped = (span - 2) * (s0[VECTORS] - s1[VECTORS]);
        let start = ends().map(|(a, b)| line(a, b, span).expect("within LIMIT at span + 1"));
        self.restore(&ff.writes, start);
        self.arrivals.set_front((stamp, front - popped), runs);
        self.streaming = false;
        self.start_logging(Logging::Verifying);
        let timings = &mut ff.timings;
        let stepped = self.step(config, items, |t| timings.push(t));
        let (t0, t) = timings.split_at(ff.chains);
        let (t1, tv) = t.split_at(ff.chains);
        self.logging = Logging::Off;
        let landed = stepped.is_ok()
            && self.log == ff.writes
            && ends()
                .zip(self.state())
                .all(|((a, b), v)| line(a, b, span + 1) == Some(v))
            && tv.len() == t0.len()
            && t0
                .iter()
                .zip(t1)
                .zip(tv)
                .all(|((a, b), v)| a.lands(b, span, v));
        let skipped = landed
            .then(|| Self::skipped(t1, tv, span, config.native_dim()))
            .flatten();
        if skipped.is_none() {
            ff.timings.truncate(2 * ff.chains);
            self.restore(&ff.writes, s2.iter().copied());
            self.arrivals.set_front((stamp, front), runs);
        }
        skipped
    }

    /// The summed statistics of the `span − 2` iterations strictly between
    /// `t1`, at m = 1, and `tv`, at m = `span`, both on the line: by the
    /// trapezoid rule, `(span − 2)·(f(1) + f(span))/2`, if every chain's
    /// stall is charged by one formula at both ends.
    fn skipped(
        t1: &[ChainTiming],
        tv: &[ChainTiming],
        span: u64,
        native_dim: u32,
    ) -> Option<RunStats> {
        let mut sum = RunStats::default();
        for (a, v) in t1.iter().zip(tv) {
            let (mut first, mut last) = (RunStats::default(), RunStats::default());
            let from = a.charge(&mut first, native_dim);
            if from.branches != v.charge(&mut last, native_dim).branches {
                return None;
            }
            sum.add_arithmetic(&first, &last, span - 2);
        }
        Some(sum)
    }

    /// The state an iteration starts from: the [`SCALARS`], then the value
    /// of each fill the last iteration logged.
    fn state(&self) -> impl Iterator<Item = u64> + '_ {
        let scalars = [
            self.nios_cursor,
            self.instructions,
            self.free_at[0],
            self.free_at[1],
            self.free_at[2],
            self.completed,
            u64::from(self.rows),
            u64::from(self.cols),
            self.arrivals.vectors,
            self.arrivals.matrices,
        ];
        scalars.into_iter().chain(self.logged.iter().copied())
    }

    /// Sets the state [`Timeline::state`] reads, replaying its fills in
    /// order where `writes` says they landed; the arrival queue's runs are
    /// the caller's.
    fn restore(&mut self, writes: &Writes, mut state: impl Iterator<Item = u64>) {
        let [cursor, instructions, mvm, mfu, memory, completed, rows, cols, vectors, matrices] =
            std::array::from_fn(|_| state.next().expect("a snapshot's scalars"));
        self.nios_cursor = cursor;
        self.instructions = instructions;
        self.free_at = [mvm, mfu, memory];
        self.completed = completed;
        (self.rows, self.cols) = (saturate(rows), saturate(cols));
        (self.arrivals.vectors, self.arrivals.matrices) = (vectors, matrices);
        for ((board, range), cycle) in writes.iter().zip(state) {
            self.fill(*board, range.clone(), cycle);
        }
    }

    fn fill(&mut self, board: BoardId, range: Range<usize>, cycle: u64) {
        match board {
            BoardId::Vrf(file) => self.vrf_ready[file].fill(range, cycle),
            BoardId::Mrf => self.mrf_ready.fill(range, cycle),
            BoardId::MrfReadUntil => self.mrf_read_until.fill(range, cycle),
            BoardId::DramVector => self.dram_vector_ready.fill(range, cycle),
            BoardId::DramMatrix => self.dram_matrix_ready.fill(range, cycle),
        }
    }

    /// Logs fills afresh, as `logging` says.
    fn start_logging(&mut self, logging: Logging) {
        self.logging = logging;
        self.log.clear();
        self.logged.clear();
    }

    /// Fills `range` of `board` with `cycle`, logged while a fast-forward
    /// watches.
    fn write(&mut self, board: BoardId, range: Range<usize>, cycle: u64) {
        // No read-until entry exceeds the MVM frontier the next `mv_mul`
        // leaves (module docs, Scoreboards), except in the extrapolated
        // state a verification starts from.
        debug_assert!(
            board != BoardId::MrfReadUntil
                || self.logging == Logging::Verifying
                || self.mrf_read_until.latest(&range) <= cycle
        );
        if self.logging != Logging::Off && !range.is_empty() {
            self.log.push((board, range.clone()));
            self.logged.push(cycle);
        }
        self.fill(board, range, cycle);
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
        reg_write(reg, value)?;
        self.dispatch(1);
        match reg {
            ScalarReg::Rows => self.rows = value,
            ScalarReg::Cols => self.cols = value,
        }
        Ok(())
    }

    fn matrix_chain(&mut self, config: &NpuConfig, chain: &Chain) -> Result<ChainTiming, SimError> {
        let count = u64::from(self.rows) * u64::from(self.cols);
        let (width, _) = chain.widths(self.rows, self.cols);
        // `Chain::new` admits no other matrix chain: `m_rd` reads NetQ or
        // DRAM, `m_wr` writes the MRF or DRAM.
        use Instruction::{MRd, MWr};
        let [MRd { mem, index }, MWr { mem: to, index: at }] = *chain.instructions() else {
            unreachable!("a matrix chain is m_rd → m_wr")
        };

        // Write-after-read: do not overwrite tiles an earlier mv_mul is
        // still streaming.
        let (dst_span, mut dep_ready) = match to {
            MemId::MatrixRf => {
                let s = mrf_span(config, at, count)?;
                let t = self.mrf_read_until.latest(&s);
                (s, t)
            }
            _ => (dram_span(at, count)?, 0),
        };
        match mem {
            MemId::NetQ => self.arrivals.pop_matrices(count)?,
            _ => {
                // Host-staged tiles were never written this run: ready at 0.
                let s = dram_span(index, count)?;
                dep_ready = dep_ready.max(self.dram_matrix_ready.latest(&s));
            }
        }

        let occupancy = count.saturating_mul(u64::from(config.timing().dram_tile_cycles));
        let t = self.place(ChainKind::MatrixMove, dep_ready, occupancy, 0, width);
        let board = match to {
            MemId::MatrixRf => BoardId::Mrf,
            _ => BoardId::DramMatrix,
        };
        self.write(board, dst_span, t.trace.completion);
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
            w_out,
            net_vectors_in: 0,
            net_vectors_out: 0,
            mvm_macs: 0,
            mfu_ops: 0,
        }
    }

    fn vector_chain(&mut self, config: &NpuConfig, chain: &Chain) -> Result<ChainTiming, SimError> {
        mfu_units(config, chain)?;
        let timing = config.timing();
        let (rows, cols) = (self.rows, self.cols);
        let (w_in, w_out) = chain.widths(rows, cols);

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
                            let s = dram_span(index, u64::from(w_in))?;
                            self.dram_vector_ready.latest(&s).saturating_sub(depth)
                        }
                        vrf => {
                            let (file, s) = vrf_span(config, vrf, index, w_in)?;
                            self.vrf_ready[file].latest(&s).saturating_sub(depth)
                        }
                    };
                    dep_ready = dep_ready.max(ready);
                    depth += u64::from(timing.vrf_access_depth);
                }
                Instruction::MvMul { mrf_index } => {
                    let tiles = u64::from(rows) * u64::from(cols);
                    mvm_tiles = mrf_span(config, mrf_index, tiles)?;
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
                    let (file, s) = vrf_span(config, operands.next(instr), index, w_out)?;
                    let ready = self.vrf_ready[file].latest(&s);
                    dep_ready = dep_ready.max(ready.saturating_sub(depth));
                    depth += u64::from(timing.mfu_op_depth);
                }
                Instruction::VRelu | Instruction::VSigm | Instruction::VTanh => {
                    depth += u64::from(timing.mfu_op_depth);
                }
                Instruction::MRd { .. }
                | Instruction::MWr { .. }
                | Instruction::SWr { .. }
                | Instruction::EndChain => unreachable!("`Chain::new` refuses {instr} here"),
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
            ..self.place(kind, dep_ready, occupancy, depth, w_out)
        };
        // The MVM frontier this chain leaves: at least every entry (module
        // docs, Scoreboards).
        let busy_until = t.trace.start.saturating_add(occupancy);
        self.write(BoardId::MrfReadUntil, mvm_tiles, busy_until);

        for (mem, index) in chain.write_targets() {
            match mem {
                MemId::NetQ => t.net_vectors_out += u64::from(w_out),
                MemId::Dram => {
                    let s = dram_span(index, u64::from(w_out))?;
                    self.write(BoardId::DramVector, s, t.trace.completion);
                }
                vrf => {
                    let (file, s) = vrf_span(config, vrf, index, w_out)?;
                    self.write(BoardId::Vrf(file), s, t.trace.completion);
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
        let one = |t: &Timeline, mem, i, w| {
            let (file, s) = vrf_span(&cfg(), mem, i, w).unwrap();
            t.vrf_ready[file].latest(&s)
        };
        let fill = |t: &mut Timeline, i, w, cycle| {
            let (file, s) = vrf_span(&cfg(), MemId::InitialVrf, i, w).unwrap();
            t.write(BoardId::Vrf(file), s, cycle);
        };
        assert_eq!(one(&t, MemId::InitialVrf, 0, 8), 0);
        fill(&mut t, 2, 3, 100);
        assert_eq!(one(&t, MemId::InitialVrf, 2, 1), 100);
        assert_eq!(one(&t, MemId::InitialVrf, 0, 8), 100);
        assert_eq!(one(&t, MemId::InitialVrf, 0, 2), 0);
        fill(&mut t, 3, 1, 50); // overwrite lowers that entry
        assert_eq!(one(&t, MemId::InitialVrf, 3, 1), 50);
        assert_eq!(one(&t, MemId::InitialVrf, 2, 3), 100);
        // Files do not alias: the same indices of another file are clear.
        assert_eq!(one(&t, MemId::AddSubVrf(1), 0, 8), 0);
        t.begin_run();
        assert_eq!(one(&t, MemId::InitialVrf, 0, 8), 0);
    }

    #[test]
    fn a_reset_zeroes_the_written_extent_and_leaves_every_entry_zero() {
        let mut board = Board::reserved(16);
        board.fill(0..0, 3);
        assert!(board.written.is_empty(), "an empty write widens nothing");
        assert!(board.cycles.is_empty(), "and zeroes nothing");
        board.fill(9..11, 7);
        board.fill(3..4, 5);
        assert_eq!(board.written, 3..11);
        board.fill(5..6, 6);
        assert_eq!(board.written, 3..11, "inside the extent");
        board.reset();
        assert!(board.cycles.iter().all(|&c| c == 0));
        assert!(board.written.is_empty());
        // The top entry alone, then the bottom one: the extent spans both.
        board.fill(15..16, 1);
        board.fill(0..1, 1);
        assert_eq!(board.written, 0..16);
        board.reset();
        assert!(board.cycles.iter().all(|&c| c == 0));
    }

    #[test]
    fn a_run_zeroes_and_resets_only_the_files_it_writes() {
        // `InitialVrf[0]` and the last `MultiplyVrf`'s top entry: two
        // one-entry extents. (One board over all five files spanned them
        // as 4·vrf_entries entries.)
        let config = cfg();
        let mut b = ProgramBuilder::new();
        b.v_rd(MemId::NetQ, 0).v_wr(MemId::InitialVrf, 0);
        b.v_wr(MemId::MultiplyVrf(1), 7).end_chain().unwrap();
        let mut t = Timeline::new(&config);
        assert!(t.vrf_ready.iter().all(|board| board.cycles.is_empty()));
        t.arrivals.push_vectors(0, 1);
        t.begin_run();
        t.run_column(&config, &b.build(), true, None, |_| {})
            .unwrap();
        let written: Vec<_> = t.vrf_ready.iter().map(|b| b.written.clone()).collect();
        assert_eq!(written, [0..1, 0..0, 0..0, 0..0, 7..8]);
        // Zeroed as far as the writes reach, in the files they reach.
        let zeroed: Vec<_> = t.vrf_ready.iter().map(|b| b.cycles.len()).collect();
        assert_eq!(zeroed, [1, 0, 0, 0, 8]);
        assert!(t.vrf_ready.iter().all(|b| b.cycles.capacity() == 8));
        t.begin_run();
        assert!(t.vrf_ready.iter().all(|b| b.latest(&(0..8)) == 0));
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
        for mut board in [Board::default(), Board::reserved(12)] {
            for step in steps.clone() {
                match step {
                    Some((range, cycle)) => board.fill(range, cycle),
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
        assert!(vrf_span(&cfg(), MemId::InitialVrf, 7, 1).is_ok());
        assert_eq!(
            vrf_span(&cfg(), MemId::MultiplyVrf(0), 7, 2),
            Err(SimError::VrfIndexOutOfRange {
                file: "MultiplyVrf",
                index: 7,
                width: 2,
                capacity: 8
            })
        );
        assert!(vrf_span(&cfg(), MemId::InitialVrf, u32::MAX, u32::MAX).is_err());
        for mem in [MemId::AddSubVrf(2), MemId::MatrixRf, MemId::NetQ] {
            assert_eq!(
                vrf_span(&cfg(), mem, 0, 1),
                Err(SimError::BadVrfFileIndex { mem, mfus: 2 })
            );
        }
        assert_eq!(mrf_span(&cfg(), 12, 4), Ok(12..16));
        assert_eq!(
            mrf_span(&cfg(), 12, 5),
            Err(SimError::MrfIndexOutOfRange {
                index: 16,
                capacity: 16
            })
        );
        assert!(mrf_span(&cfg(), 0, 1 << 32).is_err());
        assert!(dram_span(0, DRAM_ENTRIES).is_ok());
        assert!(dram_span(1, DRAM_ENTRIES).is_err());
    }

    #[test]
    fn dram_scoreboards_grow_on_demand() {
        let mut board = Paged::default();
        assert_eq!(board.latest(&(1000..1004)), 0);
        board.fill(5..7, 42);
        assert_eq!(board.pages.len(), 1);
        assert_eq!(board.pages[0].1.cycles.len(), 7);
        assert_eq!(board.latest(&(4..8)), 42);
        assert_eq!(board.latest(&(7..9)), 0);
        // A write at the top of DRAM reserves the one page it lies in, and
        // one across a page boundary the two it reaches.
        let top = DRAM_ENTRIES as usize;
        board.fill(top - 8..top, 9);
        board.fill(2 * PAGE - 1..2 * PAGE + 1, 3);
        let pages: Vec<_> = board.pages.iter().map(|&(n, _)| n).collect();
        assert_eq!(pages, [0, 1, 2, top / PAGE - 1]);
        assert!(board.pages.iter().all(|(_, p)| p.cycles.capacity() == PAGE));
        assert_eq!(board.latest(&(0..top)), 42);
        assert_eq!(board.latest(&(PAGE..top - 8)), 3);
        assert_eq!(board.latest(&(top - 1..top)), 9);
        board.reset();
        assert_eq!(board.latest(&(0..top)), 0);
        assert_eq!(board.pages.len(), 4, "a reset keeps the pages");
    }

    #[test]
    fn a_paged_board_reads_as_one_board() {
        // Fills and resets across page boundaries, each followed by reads
        // from and to every point near a boundary, against one board
        // spanning the pages.
        let steps = [
            Some((PAGE - 2..PAGE + 2, 9)),
            Some((3 * PAGE - 1..3 * PAGE, 4)),
            Some((PAGE..PAGE, 7)),
            Some((0..1, 5)),
            Some((PAGE + 1..2 * PAGE + 1, 2)),
            None,
            Some((2 * PAGE..2 * PAGE + 1, 6)),
            None,
        ];
        let points = [
            0,
            1,
            PAGE - 1,
            PAGE,
            PAGE + 1,
            2 * PAGE,
            2 * PAGE + 1,
            3 * PAGE,
        ];
        let (mut paged, mut flat) = (Paged::default(), Board::default());
        for step in steps {
            match step {
                Some((range, cycle)) => {
                    paged.fill(range.clone(), cycle);
                    flat.fill(range, cycle);
                }
                None => {
                    paged.reset();
                    flat.reset();
                }
            }
            for (i, &start) in points.iter().enumerate() {
                for &end in &points[i..] {
                    let range = start..end;
                    assert_eq!(paged.latest(&range), flat.latest(&range), "{range:?}");
                }
            }
        }
    }

    #[test]
    fn a_schedule_is_refused_where_it_did_not_start() {
        use crate::Npu;
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0).v_relu().v_wr(MemId::NetQ, 0);
        b.end_chain().unwrap();
        let program = b.build();
        let input = |at| {
            let mut npu = Npu::new(cfg());
            let v = (0..8).map(|i| i as f32 - 3.5).collect();
            npu.push_input_at(v, at).unwrap();
            npu
        };
        let mut npu = input(0);
        let schedule = npu.schedule(&program, 1);
        assert_eq!(npu.input_len(), 1, "scheduling leaves the queue");

        // One more vector queued, a later stamp, other tiling registers.
        let mut more = input(0);
        more.push_input(vec![0.0; 8]).unwrap();
        let mut later = input(5);
        let mut wider = input(0);
        let mut b = ProgramBuilder::new();
        b.set_rows(2);
        wider.run(&b.build()).unwrap();
        for stale in [&mut more, &mut later, &mut wider] {
            let queued = stale.input_len();
            assert!(!stale.can_execute(&schedule));
            assert_eq!(stale.execute(&schedule), Err(SimError::StaleSchedule));
            assert_eq!((stale.input_len(), stale.output_len()), (queued, 0));
        }

        // Where it started, as often as it stands there again.
        let fresh = input(0).run(&program);
        for _ in 0..2 {
            assert_eq!(npu.execute(&schedule), fresh);
            let relu = (0..8).map(|i| (i as f32 - 3.5).max(0.0)).collect();
            assert_eq!(npu.pop_output(), Some(relu));
            npu.push_input((0..8).map(|i| i as f32 - 3.5).collect())
                .unwrap();
        }
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
            t.run_column(&cfg(), &program, true, None, |step| {
                if let Scheduled::Chain(c) = step {
                    out.push((c.trace.start, c.trace.completion));
                }
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

    /// One column of `program` with `(cycle, vectors)` runs queued, stepped
    /// or fast-forwarded: the fault if any, the statistics summed as `Npu`
    /// sums them, the chains handed over one by one, and the scratch.
    fn schedule(
        program: &Program,
        stamps: &[(u64, u64)],
        fast: bool,
    ) -> (Result<(), SimError>, RunStats, u64, FastForward) {
        let mut t = Timeline::new(&cfg());
        for &(at, n) in stamps {
            t.arrivals.push_vectors(at, n);
        }
        t.begin_run();
        let (mut stats, mut handed) = (RunStats::default(), 0);
        let mut ff = FastForward::default();
        let lent = fast.then_some(&mut ff);
        let result = t.run_column(&cfg(), program, true, lent, |step| match step {
            Scheduled::Chain(c) => {
                c.charge(&mut stats, cfg().native_dim());
                handed += 1;
            }
            Scheduled::Skipped(skipped) => stats.accumulate(skipped),
        });
        stats.instructions = t.instructions();
        stats.cycles = t.high_water();
        (result, stats, handed, ff)
    }

    /// A GRU time step on 1 × 1 grids, laid out as `bw_models::Gru` lays
    /// out its firmware: eight chains, one NetQ pop and one push.
    fn gru_loop(steps: u32) -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_loop(steps).unwrap();
        b.v_rd(MemId::NetQ, 0).v_wr(MemId::InitialVrf, 0);
        b.end_chain().unwrap();
        for (gate, out) in [(0, MemId::AddSubVrf(0)), (1, MemId::AddSubVrf(0))] {
            b.v_rd(MemId::InitialVrf, 0).mv_mul(gate).vv_add(3 + gate);
            b.v_wr(out, gate).end_chain().unwrap();
        }
        b.v_rd(MemId::InitialVrf, 0)
            .mv_mul(2)
            .v_wr(MemId::AddSubVrf(1), 0);
        b.end_chain().unwrap();
        for (gate, at) in [(3, 0), (4, 1)] {
            b.v_rd(MemId::InitialVrf, 1)
                .mv_mul(gate)
                .vv_add(at)
                .v_sigm();
            b.v_wr(MemId::MultiplyVrf(0), at).end_chain().unwrap();
        }
        b.v_rd(MemId::InitialVrf, 1).mv_mul(5).vv_add(5).vv_mul(0);
        b.vv_add(0).v_tanh().v_wr(MemId::AddSubVrf(0), 2);
        b.v_wr(MemId::AddSubVrf(1), 1).end_chain().unwrap();
        b.v_rd(MemId::InitialVrf, 1)
            .vv_a_sub_b(2)
            .vv_mul(1)
            .vv_add(1);
        b.v_wr(MemId::InitialVrf, 1).v_wr(MemId::NetQ, 0);
        b.end_chain().unwrap();
        b.end_loop().unwrap();
        b.build()
    }

    #[test]
    fn a_periodic_loop_hands_over_a_few_iterations_and_the_same_sums() {
        let steps = 500;
        let program = gru_loop(steps);
        let stamps = [(0, u64::from(steps))];
        let (stepped, want, all, _) = schedule(&program, &stamps, false);
        let (fast, got, handed, _) = schedule(&program, &stamps, true);
        assert_eq!((stepped, fast), (Ok(()), Ok(())));
        assert_eq!(all, 8 * u64::from(steps));
        assert!(handed <= 8 * 6, "{handed} chains handed over one by one");
        assert_eq!(got, want);
        assert!(want.resource_stall_cycles > want.cycles, "{want:?}");
    }

    #[test]
    fn a_line_that_bends_late_is_rejected_and_still_stepped_exactly() {
        // Q runs a recurrent vector through two activations, 86 cycles an
        // iteration; replaying 82 set-regs and three chains takes 85. A
        // late first vector puts Q behind dispatch from the start. C reads
        // the vector P moved from the queue at its head and Q's deep in
        // the pipeline, after an `mv_mul`. P's binds first; Q's gains a
        // cycle an iteration and overtakes it mid-loop. No comparison
        // behind a stall changes sides along the early line, so only the
        // verified far end shows the bend.
        let steps = 300;
        let mut b = ProgramBuilder::new();
        b.v_rd(MemId::NetQ, 0).v_wr(MemId::InitialVrf, 1);
        b.end_chain().unwrap();
        b.begin_loop(steps).unwrap();
        for _ in 0..82 {
            b.set_rows(1);
        }
        b.v_rd(MemId::NetQ, 0).v_wr(MemId::InitialVrf, 0); // P
        b.end_chain().unwrap();
        b.v_rd(MemId::InitialVrf, 1).v_relu().v_tanh(); // Q
        b.v_wr(MemId::InitialVrf, 1).v_wr(MemId::AddSubVrf(0), 1);
        b.end_chain().unwrap();
        b.v_rd(MemId::InitialVrf, 0).mv_mul(0).vv_add(1); // C
        b.v_wr(MemId::InitialVrf, 2).end_chain().unwrap();
        b.end_loop().unwrap();
        let program = b.build();
        let stamps = [(450, 1), (0, u64::from(steps))];
        let (stepped, want, all, _) = schedule(&program, &stamps, false);
        let (fast, got, handed, ff) = schedule(&program, &stamps, true);
        assert_eq!((stepped, fast), (Ok(()), Ok(())));
        assert_eq!(got, want);
        assert!(ff.rejected > 0, "the far end is off the early line");
        assert!(handed < all, "some iterations are skipped before the bend");
    }

    #[test]
    fn a_block_whose_stall_changes_cause_is_not_summed_as_one() {
        // Every pop waits for vectors stamped at cycle 300, so the move's
        // starts step at its memory-path occupancy while replay dispatch,
        // three units an iteration, catches up a cycle an iteration. It
        // passes the stamp near iteration 95, which moves where each
        // resource stall is counted from while the starts still step
        // evenly, and overtakes the starts near iteration 280.
        let steps = 400;
        let mut b = ProgramBuilder::new();
        b.begin_loop(steps).unwrap();
        b.set_rows(1).set_rows(1);
        b.v_rd(MemId::NetQ, 0).v_wr(MemId::InitialVrf, 0);
        b.end_chain().unwrap();
        b.end_loop().unwrap();
        let program = b.build();
        let stamps = [(300, u64::from(steps))];
        let (stepped, want, all, _) = schedule(&program, &stamps, false);
        let (fast, got, handed, ff) = schedule(&program, &stamps, true);
        assert_eq!((stepped, fast), (Ok(()), Ok(())));
        assert!(ff.rejected > 0, "the far end is off the early line");
        assert!(handed < all, "some iterations are skipped");
        assert_eq!(got, want);
    }

    #[test]
    fn a_loop_popping_several_arrival_runs_skips_within_each() {
        let program = gru_loop(120);
        let stamps = [(0, 30), (3_000, 30), (1_000, 30), (9_000, 30)];
        let (stepped, want, all, _) = schedule(&program, &stamps, false);
        let (fast, got, handed, ff) = schedule(&program, &stamps, true);
        assert_eq!((stepped, fast), (Ok(()), Ok(())));
        assert_eq!(got, want);
        assert!(handed < all / 2, "{handed} of {all} chains handed over");
        // Blocks skipped between stepped iterations leave the scratch as
        // the segment sized it.
        assert_eq!(ff.timings.capacity(), 3 * ff.chains);
    }

    #[test]
    fn fills_that_overlap_within_an_iteration_are_restored_in_order() {
        // Each iteration fills VRF [0, 4) then [2, 3) with a later cycle,
        // and read-until tiles 0..4 then tile 1 with a later one. The next
        // iteration's first chains read both overlaps — A's head reads
        // [0, 4), the matrix move's WAR tile 1 — so a state restored with
        // the earlier fill on top would start them early.
        let steps = 200;
        let mut b = ProgramBuilder::new();
        b.begin_loop(steps).unwrap();
        b.set_rows(1).set_cols(1);
        b.m_rd(MemId::Dram, 0).m_wr(MemId::MatrixRf, 1);
        b.end_chain().unwrap();
        b.set_rows(4);
        b.v_rd(MemId::InitialVrf, 0).v_relu(); // A
        b.v_wr(MemId::InitialVrf, 0).end_chain().unwrap();
        b.set_rows(2).set_cols(2);
        b.v_rd(MemId::InitialVrf, 0).mv_mul(0);
        b.v_wr(MemId::AddSubVrf(0), 0).end_chain().unwrap();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::AddSubVrf(0), 0).v_tanh().v_sigm();
        b.v_wr(MemId::InitialVrf, 2).end_chain().unwrap();
        b.v_rd(MemId::InitialVrf, 2).mv_mul(1);
        b.v_wr(MemId::InitialVrf, 5).end_chain().unwrap();
        b.end_loop().unwrap();
        let program = b.build();
        let (stepped, want, all, _) = schedule(&program, &[], false);
        let (fast, got, handed, _) = schedule(&program, &[], true);
        assert_eq!((stepped, fast), (Ok(()), Ok(())));
        assert!(handed < all / 10, "{handed} of {all} chains handed over");
        assert_eq!(got, want);
    }

    #[test]
    fn a_queue_that_runs_dry_mid_loop_faults_at_the_same_chain() {
        let program = gru_loop(300);
        let stamps = [(0, 200)];
        let (stepped, want, _, _) = schedule(&program, &stamps, false);
        let (fast, got, _, _) = schedule(&program, &stamps, true);
        assert_eq!(
            stepped,
            Err(SimError::NetQueueEmpty {
                requested: 1,
                available: 0
            })
        );
        assert_eq!(fast, stepped);
        assert_eq!(got, want, "the same chains ran before the fault");
        assert_eq!(want.chains, 200 * 8);
    }
}
