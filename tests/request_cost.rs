//! Pins what a warm batch-1 in-process request allocates, so that a change
//! to the request path which allocates more per request fails here, not in
//! a benchmark:
//!
//! * a warm one-column `PinnedModel::infer_batch` of the demo MLP
//!   (16-64-32-8) allocates at most 5 times — measured 5: the column
//!   vector and its copy, the native input vector pushed to the network
//!   queue, the output vector the NPU pushes there and the output handed
//!   back;
//! * 1,000 warm `Client::call`s of it on a one-replica pool allocate at
//!   most 16 times per call on average — measured 16.00 — with a slack
//!   of one per hundred calls: a call allocates one less, or one more,
//!   now and then, by whether the reply or the caller's wait comes first.
//!
//! The counting allocator is process-global, so the worker thread's
//! allocations count with the caller's, and this file holds exactly one
//! `#[test]` so that no concurrent test allocates inside the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use brainwave::serve::demo::mlp_artifact;
use brainwave::serve::Server;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations `f` makes, on any thread, while it runs.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

const WIDTHS: [usize; 4] = [16, 64, 32, 8];
const CALLS: usize = 1_000;
const PER_CALL: usize = 16;
const PER_INFER_BATCH: usize = 5;

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
    let allocated = allocations_in(|| {
        let (got, _) = pinned.infer_batch(&column).expect("demo MLP runs");
        assert_eq!(got, want, "warm runs are deterministic");
    });
    assert!(
        allocated <= PER_INFER_BATCH,
        "a warm one-column infer_batch allocated {allocated} times"
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
    let allocated = allocations_in(|| {
        for _ in 0..CALLS {
            assert_eq!(call().output, want[0], "the pool serves the pinned model");
        }
    });
    assert!(
        allocated <= PER_CALL * CALLS + CALLS / 100,
        "{CALLS} warm calls allocated {allocated} times"
    );
}
