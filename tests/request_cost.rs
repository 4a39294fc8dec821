//! Pins what a warm batch-1 in-process request allocates, so that a change
//! to the request path which allocates more per request fails here, not in
//! a benchmark:
//!
//! * a warm one-column `PinnedModel::infer_batch` of the demo MLP
//!   (16-64-32-8) allocates at most 2 times — measured 2, 88 B: the list
//!   of outputs (24 B) and the output handed back (64 B). The input is
//!   pushed to the network queue from the caller's column, and the
//!   queues are flat element FIFOs the NPU keeps, so neither the pushed
//!   vector nor the one the NPU outputs is allocated;
//! * 1,000 warm `Client::call`s of it on a one-replica pool allocate at
//!   most 5 times per call on average — measured 5.00 — with a slack
//!   of one per hundred calls, and ask for at most 470 B per call —
//!   measured 424 B, with about a tenth of slack. A call allocates the
//!   input's copy (64 B) and the columns that share it (40 B); the
//!   attempt's reply slot (232 B: the completion is held inline); and
//!   the two allocations of `infer_batch` above (88 B), whose output is
//!   the response's. The run's member, leg, tried-worker and outcome
//!   lists keep their one element inline, the router walks its order
//!   without collecting it, and the job is held inline in the worker's
//!   queue, which is allocated once, at spawn;
//! * 100 warm 8-member `Client::call_batch` windows of it allocate at
//!   most 14 times per window (1.75 per member) — measured 14 — with a
//!   slack of one per hundred windows, and ask for at most 490 B per
//!   member — measured 448 B. A window allocates its result list
//!   (1,152 B), the columns the members' inputs move into (208 B), the
//!   member list's tail (280 B), the reply slot (232 B), `infer_batch`'s
//!   list of outputs (192 B) and eight outputs (64 B each), and the
//!   outcome list's tail (1,008 B). No member's input is copied: a copy
//!   per member would put the window at 512 B per member.
//!
//! A warm call on an idle replica runs on the calling thread: its job
//! heads the parked worker's queue, so the caller takes the device and
//! runs it, and the worker's thread stays parked. The counting allocator
//! is process-global all the same, so this file holds exactly one
//! `#[test]`, and no concurrent test allocates inside the measurement. It
//! counts every allocator call, `alloc_zeroed` and `realloc` among them,
//! and sums the sizes they ask for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use brainwave::serve::demo::mlp_artifact;
use brainwave::serve::{BatchItem, Server};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

/// Counts one allocator call that asks for `size` bytes.
fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and asserts that it made at most `calls` allocator calls,
/// on any thread, asking for at most `bytes` bytes.
fn assert_allocates(what: &str, calls: usize, bytes: usize, f: impl FnOnce()) {
    let (calls_before, bytes_before) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    f();
    let made = ALLOCS.load(Ordering::Relaxed) - calls_before;
    let asked = BYTES.load(Ordering::Relaxed) - bytes_before;
    assert!(made <= calls, "{what} allocated {made} times");
    assert!(asked <= bytes, "{what} asked for {asked} B");
}

const WIDTHS: [usize; 4] = [16, 64, 32, 8];
const CALLS: usize = 1_000;
const PER_CALL: usize = 5;
const PER_INFER_BATCH: usize = 2;
const BYTES_PER_CALL: usize = 470;
const WINDOW: usize = 8;
const WINDOWS: usize = 100;
const PER_WINDOW: usize = 14;
const BYTES_PER_MEMBER: usize = 490;

#[test]
fn warm_requests_allocate_a_pinned_number_of_times() {
    let artifact = mlp_artifact("mlp", &WIDTHS, 7);
    let input: Vec<f32> = (0..WIDTHS[0]).map(|i| i as f32 / 32.0 - 0.25).collect();

    let mut pinned = artifact.pin().expect("demo MLP pins");
    let column = vec![input.clone()];
    let (want, _) = pinned.infer_batch(&column).expect("demo MLP runs");
    // The first runs size the data pass's scratch buffers.
    for _ in 0..3 {
        pinned.infer_batch(&column).expect("demo MLP runs");
    }
    assert_allocates(
        "a warm one-column infer_batch",
        PER_INFER_BATCH,
        usize::MAX,
        || {
            let (got, _) = pinned.infer_batch(&column).expect("demo MLP runs");
            assert_eq!(got, want, "warm runs are deterministic");
        },
    );

    let server = Server::builder()
        .model(artifact)
        .replicas(1)
        .queue_cap(256)
        .spawn()
        .expect("demo pool spawns");
    let client = server.client();
    let call = || {
        client
            .call("mlp", &input, Duration::from_secs(10))
            .expect("an unloaded pool serves every request")
    };
    for _ in 0..100 {
        call();
    }
    let (calls, bytes) = (PER_CALL * CALLS + CALLS / 100, BYTES_PER_CALL * CALLS);
    assert_allocates(&format!("{CALLS} warm calls"), calls, bytes, || {
        for _ in 0..CALLS {
            assert_eq!(call().output, want[0], "the pool serves the pinned model");
        }
    });

    let window = || {
        let member = |_| BatchItem::new(input.clone(), Duration::from_secs(10));
        (0..WINDOW).map(member).collect::<Vec<_>>()
    };
    for _ in 0..10 {
        client.call_batch("mlp", window());
    }
    let windows: Vec<Vec<BatchItem>> = (0..WINDOWS).map(|_| window()).collect();
    let what = format!("{WINDOWS} warm {WINDOW}-member windows");
    let bytes = BYTES_PER_MEMBER * WINDOW * WINDOWS;
    assert_allocates(&what, PER_WINDOW * WINDOWS + WINDOWS / 100, bytes, || {
        for items in windows {
            for outcome in client.call_batch("mlp", items) {
                assert_eq!(outcome.expect("served").output, want[0]);
            }
        }
    });
}
