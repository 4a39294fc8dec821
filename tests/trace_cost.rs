//! Pins the cost of disabled tracing and of the steady-state hot path:
//! with `set_trace(false)` (the default), re-running a warm program
//! performs **zero** heap allocation, and enabling tracing changes no
//! cycle statistic. The `ExecMode::TimingOnly` counterpart: building the
//! NPU reserves its scoreboards, zeroes none of them and allocates nothing
//! that scales with `native_dim`; its first run zeroes only what it
//! writes; its first fast-forwarded run allocates each scratch buffer once
//! and reallocates none; generating its firmware reallocates nothing; and
//! neither a weight load nor a warm run allocates. A full-mode DRAM write
//! costs its width wherever it lands. And `read_frame` does not reserve a
//! frame a header merely announces.
//!
//! This file holds exactly one `#[test]` so no concurrent test can
//! allocate inside the measurement window of the process-global counting
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use brainwave::bfp::{BfpFormat, BfpMatrix};
use brainwave::core::isa::{MemId, ProgramBuilder};
use brainwave::core::{ExecMode, Npu, NpuConfig, SpanKind, SpanRecord};
use brainwave::models::{RnnBenchmark, RnnKind};

struct CountingAlloc;

/// Allocator calls: allocations and reallocations.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static REALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static ZEROED: AtomicUsize = AtomicUsize::new(0);

/// While set, each plain allocation is filled with `POISON` bytes and
/// recorded in `WATCHED`, so that the test can count the words of those
/// blocks the program has written since, zeroing included.
static WATCHING: AtomicBool = AtomicBool::new(false);
const POISON: u8 = 0xA5;

#[derive(Clone, Copy)]
struct Watched {
    /// `(address, size)` of each block allocated while watching.
    blocks: [(usize, usize); 32],
    len: usize,
    /// Whether a watched block was freed or moved, or did not fit
    /// `blocks`: the count would then miss or misread it.
    lost: bool,
}

static WATCHED: Mutex<Watched> = Mutex::new(Watched {
    blocks: [(0, 0); 32],
    len: 0,
    lost: false,
});

/// The watch list, recovered if a panic poisoned it: the allocator must
/// not panic.
fn watch_list() -> MutexGuard<'static, Watched> {
    WATCHED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Marks the watch lost if `ptr` is a watched block.
fn forget(ptr: *mut u8) {
    let mut w = watch_list();
    let len = w.len;
    if w.blocks[..len].iter().any(|&(at, _)| at == ptr as usize) {
        w.lost = true;
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        let ptr = System.alloc(layout);
        if WATCHING.load(Ordering::Relaxed) && !ptr.is_null() {
            // SAFETY: `ptr` is a fresh allocation of `layout.size()` bytes.
            ptr.write_bytes(POISON, layout.size());
            let mut w = watch_list();
            let len = w.len;
            match w.blocks.get_mut(len) {
                Some(slot) => {
                    *slot = (ptr as usize, layout.size());
                    w.len += 1;
                }
                None => w.lost = true,
            }
        }
        ptr
    }

    // Forwarded, so that a large zeroed buffer stays untouched pages.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        ZEROED.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        forget(ptr);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        forget(ptr);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

fn reallocations() -> usize {
    REALLOCS.load(Ordering::Relaxed)
}

/// Bytes requested so far (frees are not subtracted).
fn allocated_bytes() -> usize {
    BYTES.load(Ordering::Relaxed)
}

/// `alloc_zeroed` calls so far.
fn zeroed_allocations() -> usize {
    ZEROED.load(Ordering::Relaxed)
}

/// Runs `build` with every block it allocates watched.
fn watched<T>(build: impl FnOnce() -> T) -> T {
    WATCHING.store(true, Ordering::Relaxed);
    let built = build();
    WATCHING.store(false, Ordering::Relaxed);
    built
}

/// Whole words of the watched blocks that no longer hold `POISON`.
fn written_words() -> usize {
    let w = *watch_list();
    assert!(!w.lost, "a watched block was freed, moved or not recorded");
    let poison = u64::from_ne_bytes([POISON; 8]);
    let written = w.blocks[..w.len].iter().flat_map(|&(at, size)| {
        // SAFETY: no watched block was freed or moved (asserted above), and
        // this thread is the only one running, so each is `size` live
        // bytes, all written: `POISON` first, the program's values since.
        (0..size / 8).map(move |i| unsafe { (at as *const u64).add(i).read_unaligned() })
    });
    written.filter(|&word| word != poison).count()
}

#[test]
fn untraced_hot_path_does_not_allocate() {
    let cfg = NpuConfig::builder()
        .native_dim(8)
        .lanes(4)
        .tile_engines(2)
        .mfus(2)
        .mrf_entries(64)
        .vrf_entries(64)
        .matrix_format(BfpFormat::BFP_1S_5E_5M)
        .build()
        .expect("valid test configuration");
    let nd = cfg.native_dim() as usize;

    // A VRF-to-VRF program (no NetQ: the network queues hand over owned
    // vectors, which inherently allocates): mv_mul into the MFU pipeline,
    // looped so the steady state dominates.
    let mut b = ProgramBuilder::new();
    b.set_rows(2);
    b.set_cols(2);
    b.begin_loop(10).unwrap();
    b.v_rd(MemId::InitialVrf, 0);
    b.mv_mul(0);
    b.vv_add(0);
    b.v_relu();
    b.v_wr(MemId::InitialVrf, 0);
    b.end_chain().unwrap();
    b.end_loop().unwrap();
    let program = b.build();

    let mut npu = Npu::new(cfg.clone());
    let ident: Vec<f32> = {
        let n = 2 * nd;
        let mut m = vec![0.0; n * n];
        for i in 0..n {
            m[i * n + i] = 1.0;
        }
        m
    };
    npu.load_tiled_matrix(0, 2, 2, 2 * nd, 2 * nd, &ident)
        .unwrap();
    npu.load_vector(MemId::InitialVrf, 0, &vec![0.5; nd])
        .unwrap();
    npu.load_vector(MemId::AddSubVrf(0), 0, &vec![0.25; nd])
        .unwrap();

    // Warm-up: first run sizes every scratch buffer.
    let warm = npu.run(&program).expect("program runs");

    // Measured run: trace off, steady state — zero allocations.
    let before = allocations();
    let untraced = npu.run(&program).expect("program runs");
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "untraced steady-state run must not allocate"
    );
    assert_eq!(untraced, warm, "steady-state runs are deterministic");

    // Tracing changes the records kept, never the simulated timing: one
    // chain record per executed chain, and a span tree whose run envelope
    // covers the run, with one chain span per chain.
    npu.set_trace(true);
    let traced = npu.run(&program).expect("program runs");
    assert_eq!(traced, untraced, "tracing must not perturb statistics");
    let chains = npu.take_trace();
    let spans = npu.take_spans();
    assert_eq!(chains.len(), 10, "one record per executed chain");
    assert!(
        spans.iter().all(|s| s.trace_id == 0 && s.device == 0),
        "the NPU stamps no identity"
    );
    let run_cycles: u64 = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Run)
        .map(|s| s.cycles())
        .sum();
    assert_eq!(run_cycles, traced.cycles, "run spans cover the whole run");
    let chain_spans: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Chain(_)))
        .collect();
    assert_eq!(
        chain_spans.len() as u64,
        traced.chains,
        "one chain span per chain"
    );
    // Both records come off the same scheduler events: the k-th chain
    // span is the k-th chain record's start to completion.
    for (span, chain) in chain_spans.iter().zip(&chains) {
        assert_eq!(
            (span.kind, span.start_cycle, span.end_cycle),
            (SpanKind::Chain(chain.kind), chain.start, chain.completion)
        );
    }

    // Disarming restores the zero-allocation steady state: the untraced
    // path must cost nothing.
    npu.set_trace(false);
    let before = allocations();
    let resumed = npu.run(&program).expect("program runs");
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state run with tracing disarmed must not allocate"
    );
    assert_eq!(resumed, untraced, "disarming restores determinism");

    // DRAM holds only the entries written, wherever they land in its 2²²
    // entries: staging a tile at the last matrix entry, or a chain's
    // `v_wr Dram` at the top of the vector space, costs the entries
    // written, not a slab reaching them (at native 4, a slab up to the last
    // tile is 402,653,184 bytes).
    let tile = BfpMatrix::zeros(nd, nd, cfg.matrix_format());
    let mut full = Npu::with_mode(cfg.clone(), ExecMode::Full);
    let before = allocated_bytes();
    full.load_dram_matrix((1 << 22) - 1, tile).unwrap();
    let staged = allocated_bytes() - before;
    assert!(
        staged <= 4096,
        "staging the last DRAM tile allocated {staged} bytes"
    );
    let s10 = NpuConfig::bw_s10();
    const WIDTH: u32 = 8;
    let mut b = ProgramBuilder::new();
    b.set_rows(WIDTH);
    b.v_rd(MemId::NetQ, 0);
    b.v_wr(MemId::Dram, (1 << 22) - WIDTH);
    b.end_chain().unwrap();
    let spill = b.build();
    let spilled = |mode| {
        let mut npu = Npu::with_mode(s10.clone(), mode);
        npu.push_input_zeros(WIDTH as usize);
        let before = allocated_bytes();
        npu.run(&spill).expect("program runs");
        allocated_bytes() - before
    };
    let (full, timing) = (spilled(ExecMode::Full), spilled(ExecMode::TimingOnly));
    // The timeline's DRAM scoreboards are paged: the write costs the page
    // of 4,096 eight-byte entries it lies in, not a board reaching the top
    // of DRAM (33,554,432 bytes).
    const PAGE_BYTES: usize = 4096 * 8;
    assert!(
        timing <= PAGE_BYTES + 1024,
        "a timing-only v_wr to the top of DRAM allocated {timing} bytes, one page is {PAGE_BYTES}"
    );
    let written = WIDTH as usize * s10.native_dim() as usize * 4;
    // Beyond the timeline both modes share, the data pass grows its
    // scratch to the chain's width and stores the entries written.
    assert!(
        full - timing <= 4 * written,
        "a full-mode v_wr of {written} bytes to DRAM allocated {} bytes more than timing-only",
        full - timing
    );

    // The timing-only machine at the largest Table V shape (GRU h=2816 on
    // a BW_S10 sized to hold it) is the scheduler's scoreboards — one u64
    // reserved per VRF entry per file, two per MRF entry — plus a
    // constant. Nothing is proportional to native_dim: a single zeroed VRF
    // slab alone (vrf_entries × native_dim × 4 bytes) would be 50× the
    // whole bound.
    let largest = brainwave::models::table5_suite()
        .iter()
        .map(RnnBenchmark::dims)
        .max_by_key(|d| d.hidden)
        .expect("Table V has points");
    let (cfg, gru) = bw_bench::bw_s10_rnn(RnnKind::Gru, largest);
    let scoreboards = 8
        * ((1 + 2 * cfg.mfus() as usize) * cfg.vrf_entries() as usize
            + 2 * cfg.mrf_entries() as usize);
    let one_vrf_slab = cfg.vrf_entries() as usize * cfg.native_dim() as usize * 4;
    // The full machine at that shape adds empty data planes: a register
    // file grows to the highest entry touched (the warm runs above went
    // through that growth and still allocated nothing), so five of them
    // are not five zeroed slabs.
    let before = allocated_bytes();
    drop(Npu::with_mode(cfg.clone(), ExecMode::Full));
    let built = allocated_bytes() - before;
    assert!(
        built < 256 * 1024,
        "full-mode NPU allocated {built} bytes before any load, one slab is {one_vrf_slab}"
    );

    // Reserved, not zeroed: building it calls `alloc_zeroed` (`calloc`)
    // for no scoreboard.
    let (before, zeroed) = (allocated_bytes(), zeroed_allocations());
    let mut timing = watched(|| Npu::with_mode(cfg.clone(), ExecMode::TimingOnly));
    assert_eq!(zeroed_allocations() - zeroed, 0, "a scoreboard was zeroed");
    gru.prepare_timing_only(&mut timing)
        .expect("sized configuration holds the model");
    let built = allocated_bytes() - before;
    assert!(
        built <= scoreboards + 1024,
        "timing-only NPU allocated {built} bytes, scoreboards are {scoreboards}"
    );
    assert!(
        built < one_vrf_slab,
        "{built} bytes vs one slab {one_vrf_slab}"
    );

    // Its first run zeroes only what the program writes: of the 21,248
    // entries reserved, the read-until board of the MRF tiles its
    // `mv_mul`s stream and, in each VRF, the entries up to its highest
    // slot (`AddSubVrf(0)`'s n_t, at 5·grid_h).
    let files = 1 + 2 * cfg.mfus() as usize;
    let reach = cfg.mrf_entries() as usize + files * 6 * gru.grid_h() as usize;
    let before = written_words();
    timing.push_input_zeros(gru.grid_x() as usize * 3);
    timing.run(&gru.program(3)).expect("program runs");
    let zeroed = written_words() - before;
    assert!(
        0 < zeroed && zeroed <= reach,
        "the first run wrote {zeroed} scoreboard words, the program reaches {reach}"
    );
    while timing.pop_output().is_some() {}

    // Loading weights into the timing-only machine checks their shape and
    // does nothing else: a 4,096 × 4,096 matrix (an 11 × 11 grid of tiles
    // that a full-mode load quantizes) allocates nothing.
    let weights = vec![0.0f32; 4096 * 4096];
    let before = allocations();
    let entries = timing
        .load_tiled_matrix(0, 11, 11, 4096, 4096, &weights)
        .expect("the grid fits the MRF");
    assert_eq!(allocations() - before, 0, "a timing-only load allocated");
    assert_eq!(entries, 121);
    drop(weights);

    // The first run that skips a loop's periodic middle allocates the
    // fast-forward's scratch, sized from the loop, one call per buffer
    // (`allocations` counts reallocations too): `FastForward::{writes,
    // states, timings}` and the fill log, `Timeline::{log, logged}`. The
    // 3-step loop is too short to skip, and it already ran above.
    const SCRATCH_BUFFERS: usize = 5;
    // Warm timing-only runs — NetQ traffic included, since queues hold
    // counts and stamps rather than vectors — allocate nothing: stepped
    // (3 steps), or skipping a loop's periodic middle (64 steps), whose
    // snapshots reuse the timeline's scratch.
    for (steps, cold) in [(3, 0), (64, SCRATCH_BUFFERS)] {
        // Generating the firmware reallocates nothing: every chain and
        // the loop's items are allocated at their size.
        let before = reallocations();
        let program = gru.program(steps);
        assert_eq!(
            reallocations() - before,
            0,
            "gru.program({steps}) reallocated"
        );
        let run = |npu: &mut Npu| {
            npu.push_input_zeros(gru.grid_x() as usize * steps as usize);
            let before = allocations();
            let stats = npu.run(&program).expect("program runs");
            (stats, allocations() - before)
        };
        let (first, allocated) = run(&mut timing);
        assert!(
            allocated <= cold,
            "first timing-only run of {steps} steps made {allocated} allocator calls"
        );
        let (second, allocated) = run(&mut timing);
        assert_eq!(
            allocated, 0,
            "warm timing-only run of {steps} steps allocated"
        );
        assert_eq!(second, first, "timing-only runs are deterministic");
        assert_eq!(
            timing.output_len(),
            2 * gru.grid_h() as usize * steps as usize
        );
        while timing.pop_output().is_some() {}
    }

    // Simulated-cycle parity: the tracing plumbing must leave the Table V
    // suite at exactly the cycle count `ledger/src/workload.rs` checks on
    // every benchmark run. A deliberate timing-model change moves both.
    let suite = brainwave::models::table5_suite();
    let total: u64 = bw_bench::run_suite(&suite).iter().map(|r| r.cycles).sum();
    assert_eq!(total, 2_571_339, "Table V suite simulated cycles");

    // A frame's length prefix is the peer's claim, not its bytes: a reader
    // that announces a full 16 MiB (`MAX_FRAME`) payload and then ends must
    // fail without the 16 MiB request.
    let header = (16u32 << 20).to_le_bytes();
    let before = allocated_bytes();
    let err = brainwave::serve::read_frame(&mut &header[..]).expect_err("no payload followed");
    let reserved = allocated_bytes() - before;
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(
        reserved < 1 << 20,
        "a bare header reserved {reserved} bytes"
    );
}
