//! Admission batching end to end: coalesced multi-column dispatches must
//! be bit-identical to sequential batch-1 serving, keep the accounting
//! identity through mid-batch worker kills, and never let the hold
//! window convert a meetable deadline into a breach.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bw_serve::demo::{demo_input, mlp_artifact, sharded_mlp};
use bw_serve::{BatchConfig, BatchItem, Batcher, Routing, ServeError, Server};
use proptest::prelude::*;

const DEADLINE: Duration = Duration::from_secs(10);

/// A coalesced K-batch must produce exactly the outputs of K sequential
/// batch-1 calls: batching is a scheduling decision, never a numerics
/// one. A shard group's window is one run too: each of its legs carries
/// the K columns, so every member row counts one leg per window.
#[test]
fn coalesced_batch_is_bit_identical_to_sequential_runs() {
    let whole = Server::builder().model(mlp_artifact("mlp", &[16, 32, 8], 7));
    // A 2-wide shard segment, then the tail whole: three legs.
    let sharded = Server::builder().sharded_model(sharded_mlp("mlp", &[16, 64, 8], 7, 600));
    for builder in [whole, sharded] {
        let server = builder.spawn().unwrap();
        let client = server.client();

        for k in [1usize, 2, 4, 8] {
            let inputs: Vec<Vec<f32>> = (0..k).map(|i| demo_input(16, i as u64 * 31)).collect();
            let sequential: Vec<Vec<f32>> = inputs
                .iter()
                .map(|input| client.call("mlp", input, DEADLINE).unwrap().output)
                .collect();

            let items: Vec<BatchItem> = inputs
                .into_iter()
                .map(|input| BatchItem::new(input, DEADLINE))
                .collect();
            let batched: Vec<Vec<f32>> = client
                .call_batch("mlp", items)
                .into_iter()
                .map(|r| r.unwrap().output)
                .collect();

            assert_eq!(
                batched, sequential,
                "K={k}: coalesced outputs must match batch-1 bit for bit"
            );
        }

        let m = client.metrics();
        let ms = m.models.iter().find(|r| r.model == "mlp").unwrap();
        // 15 sequential + 15 batched members; every call_batch was one
        // coalesced run.
        assert_eq!(ms.submitted, 30);
        assert_eq!(ms.completed, 30);
        assert_eq!(ms.batches, 4);
        assert_eq!(ms.batched_requests, 15);
        assert_eq!(ms.completed + ms.shed + ms.failed, ms.submitted);
        // A member row: one leg per sequential call, one per window.
        for row in m.models.iter().filter(|r| r.model != "mlp") {
            assert_eq!((row.submitted, row.completed), (15 + 4, 15 + 4), "{row:?}");
        }
    }
}

/// Per-member attribution of a coalesced batch splits the NPU counters
/// exactly: the members' shares sum to the whole dispatch, nothing is
/// double-counted or lost to rounding.
#[test]
fn batch_attribution_splits_counters_exactly() {
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 32, 8], 3))
        .spawn()
        .unwrap();
    let client = server.client();

    let k = 3usize; // deliberately not a divisor-friendly batch size
    let items: Vec<BatchItem> = (0..k)
        .map(|i| BatchItem::new(demo_input(16, i as u64), DEADLINE))
        .collect();
    let responses: Vec<_> = client
        .call_batch("mlp", items)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();

    let batch_cycles: u64 = responses.iter().map(|r| r.attribution.npu_cycles).sum();
    let batch_macs: u64 = responses.iter().map(|r| r.attribution.npu_macs).sum();
    let m = client.metrics();
    assert_eq!(batch_cycles, m.models[0].npu_cycles);
    assert_eq!(batch_macs, m.models[0].npu_macs);

    // Every member of one dispatch reports the same worker and the same
    // retry count — they shared the attempt.
    assert!(responses.windows(2).all(|w| w[0].worker == w[1].worker));
    assert!(responses.windows(2).all(|w| w[0].retries == w[1].retries));
}

/// Kill a worker while coalesced batches are in flight: every member of
/// every batch terminates exactly once (completed on a replica after
/// whole-batch failover, or failed with a classified error) and the
/// metrics identity `completed + shed + failed == submitted` holds.
#[test]
fn mid_batch_worker_kill_keeps_the_accounting_identity() {
    let server = Arc::new(
        Server::builder()
            .model(mlp_artifact("mlp", &[16, 32, 8], 9))
            .replicas(3)
            .queue_cap(8)
            .policy(Routing::RoundRobin)
            .max_retries(2)
            .spawn()
            .unwrap(),
    );
    let client = server.client();

    let batches = 12usize;
    let k = 4usize;
    let killer = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            // Kill worker 0 mid-run, once a member has been served.
            let give_up = Instant::now() + DEADLINE;
            while server.metrics().models[0].completed == 0 {
                assert!(Instant::now() < give_up, "no member was served");
                std::thread::yield_now();
            }
            assert!(server.kill_worker(0));
        })
    };

    let handles: Vec<_> = (0..batches)
        .map(|b| {
            let client = client.clone();
            std::thread::spawn(move || {
                let items: Vec<BatchItem> = (0..k)
                    .map(|i| BatchItem::new(demo_input(16, (b * k + i) as u64), DEADLINE))
                    .collect();
                client.call_batch("mlp", items)
            })
        })
        .collect();

    let mut completed = 0u64;
    let mut errored = 0u64;
    for h in handles {
        let results = h.join().expect("batch threads must not panic");
        assert_eq!(results.len(), k, "one result per member, always");
        for r in results {
            match r {
                Ok(resp) => {
                    completed += 1;
                    assert_eq!(resp.output.len(), 8);
                }
                Err(e) => {
                    assert!(
                        matches!(
                            e,
                            ServeError::Shed { .. }
                                | ServeError::DeadlineExceeded { .. }
                                | ServeError::WorkerFault { .. }
                                | ServeError::NoReplica { .. }
                        ),
                        "unclassified failure: {e}"
                    );
                    errored += 1;
                }
            }
        }
    }
    killer.join().unwrap();

    assert_eq!(completed + errored, (batches * k) as u64);
    assert!(completed > 0, "replicas must absorb the load");

    let m = server.metrics();
    let ms = &m.models[0];
    assert_eq!(ms.submitted, (batches * k) as u64);
    assert_eq!(
        ms.completed + ms.shed + ms.failed,
        ms.submitted,
        "coalescing must not leak a member: {ms:?}"
    );
    assert_eq!(ms.completed, completed);
    assert!(!m.workers_alive[0], "worker 0 stays dead");
}

/// The batcher's hold budget is carved out of deadline slack, so waiting
/// in the coalescing window must never turn a meetable request into a
/// deadline breach — even when the window never fills and the request
/// waits out its whole hold.
#[test]
fn hold_time_never_breaches_a_deadline() {
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 32, 8], 5))
        .spawn()
        .unwrap();
    // max_batch of 16 with a single submitter: every request waits out
    // its full hold budget before dispatch.
    let batcher = Batcher::new(
        server.client(),
        BatchConfig {
            max_batch: 16,
            max_hold: Duration::from_millis(50),
            slack_fraction: 1.0,
            dispatchers: 2,
        },
    );

    for (i, deadline) in [
        Duration::from_millis(150),
        Duration::from_millis(400),
        Duration::from_secs(2),
    ]
    .into_iter()
    .enumerate()
    {
        let started = Instant::now();
        let resp = batcher
            .call("mlp", demo_input(16, i as u64), deadline)
            .unwrap_or_else(|e| panic!("deadline {deadline:?} breached by the hold window: {e}"));
        assert!(
            started.elapsed() < deadline,
            "request resolved after its own deadline"
        );
        // The hold is charged to the request: latency includes the wait
        // but stays under the deadline.
        assert!(resp.latency < deadline);
    }

    let m = server.metrics();
    assert_eq!(m.models[0].completed, 3);
    assert_eq!(m.models[0].failed, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random arrival patterns through the batcher: every submitted
    /// request resolves exactly once (no hangs, no lost replies),
    /// completed outputs are bit-identical to an unbatched reference
    /// call, and the metrics identity holds after every pattern.
    #[test]
    fn random_arrivals_resolve_exactly_once_and_bit_identically(
        n in 1usize..=8,
        max_batch in 1usize..=6,
        gaps in prop::collection::vec(0u64..4, 8..9),
        seeds in prop::collection::vec(0u64..1000, 8..9),
    ) {
        let server = Server::builder()
            .model(mlp_artifact("mlp", &[16, 32, 8], 11))
            .replicas(2)
            .spawn()
            .unwrap();
        let reference = server.client();
        let batcher = Batcher::new(
            server.client(),
            BatchConfig {
                max_batch,
                max_hold: Duration::from_millis(5),
                slack_fraction: 0.25,
                dispatchers: 2,
            },
        );
        let receivers: Vec<_> = (0..n)
            .map(|i| {
                // Arrival pacing: the gap before request `i`.
                std::thread::sleep(Duration::from_millis(gaps[i]));
                (
                    seeds[i],
                    batcher.submit("mlp", demo_input(16, seeds[i]), DEADLINE),
                )
            })
            .collect();
        for (seed, rx) in receivers {
            let resp = rx
                .recv()
                .expect("reply channel must resolve")
                .expect("generous deadline must complete");
            let expected = reference
                .call("mlp", &demo_input(16, seed), DEADLINE)
                .unwrap()
                .output;
            prop_assert_eq!(&resp.output, &expected, "seed {} diverged", seed);
        }
        let m = server.metrics();
        let ms = &m.models[0];
        prop_assert_eq!(ms.completed + ms.shed + ms.failed, ms.submitted);
        prop_assert_eq!(ms.completed, n as u64 * 2);
    }
}
