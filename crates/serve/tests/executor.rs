//! The request executor, shape × fault: every fault script below runs
//! over the four request shapes — a whole model or a shard group, each
//! alone or as a coalesced window — and asserts the terminal variant,
//! `Response::retries`, bit-identity where served, and `completed + shed + failed == submitted` on every
//! metrics row (group and member rows alike). A traced request of each
//! shape checks how the executor stamps its spans.
//!
//! Faults are scripted, not raced. A worker is *stalled* by pinning a
//! throw-away model onto it under a preload model with a fixed set-up
//! time: the worker sleeps that long inside its queue loop, so whatever
//! is dispatched to it meanwhile stays queued. `LeastOutstanding`
//! routing breaks ties towards the lowest worker id, so the first leg of
//! the first request on an idle pool always lands on worker 0.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bw_core::{SpanKind, SpanRecord};
use bw_serve::demo::{demo_input, mlp_artifact, sharded_mlp};
use bw_serve::{
    BatchConfig, BatchItem, Batcher, Client, NetworkModel, Pending, PreloadModel, Response,
    Routing, ServeError, Server, ServerBuilder,
};

const MODEL: &str = "m";
const SEED: u64 = 7;
const SINGLE_WIDTHS: [usize; 3] = [16, 32, 8];
/// 64 × 16 weights over a 600-weight budget: a 2-wide shard segment,
/// then the 8 × 64 tail whole — two stages, three legs.
const SHARDED_WIDTHS: [usize; 3] = [16, 64, 8];
const SHARD_BUDGET: u64 = 600;
const BATCH: usize = 3;
const LONG: Duration = Duration::from_secs(10);
/// How long a stalled worker sleeps: longer than the 50 ms attempt
/// timeout plus a replica's answer, and than the 80 ms deadline, with room
/// for a slow debug build.
const STALL: Duration = Duration::from_millis(200);

#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    Single,
    Sharded,
    Batched,
    /// A window of [`BATCH`] members of the shard group: one run.
    ShardedBatch,
}

const SHAPES: [Shape; 4] = [
    Shape::Single,
    Shape::Sharded,
    Shape::Batched,
    Shape::ShardedBatch,
];

impl Shape {
    fn sharded(self) -> bool {
        matches!(self, Shape::Sharded | Shape::ShardedBatch)
    }

    /// Whether a request of this shape is a window through
    /// `Client::call_batch`.
    fn coalesced(self) -> bool {
        matches!(self, Shape::Batched | Shape::ShardedBatch)
    }
}

type Outcomes = Vec<Result<Response, ServeError>>;

/// One pool serving [`MODEL`] in one shape, with the inputs a request of
/// that shape carries and what single-device execution answers for them.
struct Case {
    shape: Shape,
    server: Arc<Server>,
    client: Client,
    inputs: Vec<Vec<f32>>,
    expected: Vec<Vec<f32>>,
}

impl Case {
    fn boot(shape: Shape, tune: impl FnOnce(ServerBuilder) -> ServerBuilder) -> Case {
        let (widths, builder) = if shape.sharded() {
            let group = sharded_mlp(MODEL, &SHARDED_WIDTHS, SEED, SHARD_BUDGET);
            (SHARDED_WIDTHS, Server::builder().sharded_model(group))
        } else {
            let model = mlp_artifact(MODEL, &SINGLE_WIDTHS, SEED);
            (SINGLE_WIDTHS, Server::builder().model(model))
        };
        let members = if shape.coalesced() { BATCH } else { 1 };
        let inputs: Vec<Vec<f32>> = (0..members as u64)
            .map(|i| demo_input(widths[0], 3 + i))
            .collect();
        let mut reference = mlp_artifact("reference", &widths, SEED).pin().unwrap();
        let expected = inputs.iter().map(|x| reference.infer(x).unwrap()).collect();
        let builder = builder
            .replicas(4)
            .policy(Routing::LeastOutstanding)
            .max_retries(2)
            .preload(PreloadModel::free().setup(STALL.as_secs_f64()));
        let server = Arc::new(tune(builder).spawn().unwrap());
        // What `stall` pins; registered, never served.
        server
            .register_model(mlp_artifact("aux", &[16, 8], 1))
            .unwrap();
        let client = server.client();
        Case {
            shape,
            server,
            client,
            inputs,
            expected,
        }
    }

    /// One blocking request of the case's shape: one outcome per member.
    fn request(&self, deadline: Duration) -> Outcomes {
        self.request_after(deadline, Duration::ZERO)
    }

    /// [`Case::request`] that sleeps for `lag` between the request's
    /// arrival and its wait: between `submit` and `Pending::wait`, or
    /// between the window's members arriving and `Client::call_batch`.
    fn request_after(&self, deadline: Duration, lag: Duration) -> Outcomes {
        if self.shape.coalesced() {
            let member = |x: &Vec<f32>| BatchItem::new(x.clone(), deadline);
            let items = self.inputs.iter().map(member).collect();
            std::thread::sleep(lag);
            self.client.call_batch(MODEL, items)
        } else {
            let pending = self.client.submit(MODEL, &self.inputs[0], deadline);
            std::thread::sleep(lag);
            vec![pending.and_then(Pending::wait)]
        }
    }

    /// Stalls `worker` for [`STALL`]. Returns once the worker has taken
    /// the stall's `Pin` off its queue; join the handle to wait it out.
    fn stall(&self, worker: usize) -> JoinHandle<()> {
        let before = self.server.metrics().link_transfers[worker];
        let handle = {
            let server = Arc::clone(&self.server);
            // A worker killed while stalled never acks: not an error here.
            std::thread::spawn(move || {
                let _ = server.pin_model("aux", worker);
            })
        };
        // The worker meters the preload on its link as it takes the `Pin`
        // and falls asleep.
        let start = Instant::now();
        while self.server.metrics().link_transfers[worker] == before {
            assert!(start.elapsed() < LONG, "the stall's pin never queued");
            std::thread::yield_now();
        }
        handle
    }

    fn assert_served(&self, outcomes: Outcomes, retries: u32, row: &str) {
        assert_eq!(outcomes.len(), self.inputs.len());
        for (outcome, expected) in outcomes.into_iter().zip(&self.expected) {
            let resp = outcome.unwrap_or_else(|e| panic!("{row} / {:?}: {e}", self.shape));
            assert_eq!(&resp.output, expected, "{row} / {:?}: bits", self.shape);
            assert_eq!(resp.retries, retries, "{row} / {:?}: retries", self.shape);
        }
    }

    fn assert_all(&self, outcomes: &Outcomes, row: &str, want: impl Fn(&ServeError) -> bool) {
        assert_eq!(outcomes.len(), self.inputs.len());
        for outcome in outcomes {
            match outcome {
                Err(e) if want(e) => {}
                other => panic!("{row} / {:?}: unexpected outcome {other:?}", self.shape),
            }
        }
    }

    /// The accounting identity on every row, and `MODEL`'s
    /// `(completed, shed, failed)`.
    fn settled(&self, row: &str) -> (u64, u64, u64) {
        let snapshot = self.server.metrics();
        for m in &snapshot.models {
            assert_eq!(
                m.completed + m.shed + m.failed,
                m.submitted,
                "{row} / {:?}: row `{}` leaks requests",
                self.shape,
                m.model
            );
        }
        let m = snapshot.models.iter().find(|m| m.model == MODEL).unwrap();
        (m.completed, m.shed, m.failed)
    }

    fn members(&self) -> u64 {
        self.inputs.len() as u64
    }
}

#[test]
fn no_fault_serves_bit_identically_without_retries() {
    for shape in SHAPES {
        let case = Case::boot(shape, |b| b);
        case.assert_served(case.request(LONG), 0, "no fault");
        assert_eq!(case.settled("no fault"), (case.members(), 0, 0));
    }
}

#[test]
fn worker_killed_with_the_job_queued_fails_over_once() {
    for shape in SHAPES {
        let case = Case::boot(shape, |b| b);
        let stalled = case.stall(0);
        std::thread::scope(|scope| {
            let flying = scope.spawn(|| case.request(LONG));
            // The first leg is queued behind the stall on worker 0.
            while case.server.metrics().queue_depths[0] == 0 {
                std::thread::yield_now();
            }
            assert!(case.server.kill_worker(0));
            case.assert_served(flying.join().unwrap(), 1, "kill");
        });
        stalled.join().unwrap();
        assert_eq!(case.settled("kill"), (case.members(), 0, 0));
        assert!(!case.server.workers_alive()[0]);
    }
}

#[test]
fn attempt_timeout_fails_over_to_a_replica() {
    for shape in SHAPES {
        let case = Case::boot(shape, |b| b.attempt_timeout(Duration::from_millis(50)));
        let stalled = case.stall(0);
        let started = Instant::now();
        case.assert_served(case.request(LONG), 1, "attempt timeout");
        assert!(
            started.elapsed() < STALL,
            "{shape:?}: the replica must answer before the stalled worker wakes"
        );
        stalled.join().unwrap();
        assert_eq!(case.settled("attempt timeout"), (case.members(), 0, 0));
        let snapshot = case.server.metrics();
        let row = snapshot.models.iter().find(|m| m.model == MODEL).unwrap();
        assert_eq!(
            row.retries,
            case.members(),
            "{shape:?}: one retry per member"
        );
    }
}

#[test]
fn every_queue_full_at_admission_sheds() {
    for shape in SHAPES {
        // Two workers, one queue slot each, both asleep: the pool holds
        // exactly what the fillers put there.
        let case = Case::boot(shape, |b| b.replicas(2).queue_cap(1));
        let stalls: Vec<_> = (0..2).map(|w| case.stall(w)).collect();
        let mut fillers = Vec::new();
        let filler_shed = loop {
            match case.client.submit(MODEL, &case.inputs[0], LONG) {
                Ok(pending) => fillers.push(pending),
                Err(e) => break e,
            }
            assert!(fillers.len() < 8, "{shape:?}: a 2 × 1 pool never filled");
        };
        assert!(filler_shed.is_shed(), "{shape:?}: {filler_shed}");

        let outcomes = case.request(LONG);
        case.assert_all(&outcomes, "shed", ServeError::is_shed);

        for stall in stalls {
            stall.join().unwrap();
        }
        let served = fillers.len() as u64;
        for filler in fillers {
            assert_eq!(filler.wait().unwrap().output, case.expected[0]);
        }
        assert_eq!(case.settled("shed"), (served, 1 + case.members(), 0));
    }
}

#[test]
fn no_live_replica_fails_at_admission() {
    for shape in SHAPES {
        let case = Case::boot(shape, |b| b);
        for w in 0..case.server.worker_count() {
            assert!(case.server.kill_worker(w));
        }
        let outcomes = case.request(LONG);
        case.assert_all(
            &outcomes,
            "no replica",
            |e| matches!(e, ServeError::NoReplica { model } if model == MODEL),
        );
        assert_eq!(case.settled("no replica"), (0, 0, case.members()));
    }
}

#[test]
fn deadline_lapse_fails_without_retries() {
    for shape in SHAPES {
        let case = Case::boot(shape, |b| b.replicas(2));
        let stalls: Vec<_> = (0..2).map(|w| case.stall(w)).collect();
        let outcomes = case.request(Duration::from_millis(80));
        case.assert_all(&outcomes, "deadline", |e| {
            matches!(e, ServeError::DeadlineExceeded { retries: 0, .. })
        });
        for stall in stalls {
            stall.join().unwrap();
        }
        assert_eq!(case.settled("deadline"), (0, 0, case.members()));
    }
}

/// A wait that begins after the deadline fails the request: the leg
/// driver's first check may read admission's stale stamp, but a device
/// that takes the job past its deadline reports it expired, and the
/// late-response check reads a stamp taken after the work. A window's
/// members whose deadlines lapsed before `call_batch` are admitted by
/// their budgets, as `submit` admits, and fail the same way.
#[test]
fn a_wait_that_begins_after_the_deadline_fails() {
    let deadline = Duration::from_millis(20);
    for shape in SHAPES {
        let case = Case::boot(shape, |b| b);
        let outcomes = case.request_after(deadline, 2 * deadline);
        case.assert_all(&outcomes, "stale", |e| {
            matches!(e, ServeError::DeadlineExceeded { retries: 0, .. })
        });
        assert_eq!(case.settled("stale"), (0, 0, case.members()));
    }
}

#[test]
fn dropped_unwaited_request_is_accounted() {
    for shape in SHAPES {
        let case = Case::boot(shape, |b| b);
        if shape.coalesced() {
            // A coalesced member has no `Pending`; a caller that drops
            // its reply channel is still served, and counted.
            let batcher = Batcher::new(case.client.clone(), BatchConfig::default());
            drop(batcher.submit(MODEL, case.inputs[0].clone(), LONG));
            drop(batcher);
            assert_eq!(case.settled("dropped"), (1, 0, 0));
        } else {
            // A dropped `Pending` is an abandoned request: failed.
            drop(case.client.submit(MODEL, &case.inputs[0], LONG).unwrap());
            assert_eq!(case.settled("dropped"), (0, 0, 1));
        }
    }
}

/// A response delivered past its deadline is a failure on every shape,
/// not only on the coalesced one: the modeled response leg alone can
/// carry a request over its budget.
#[test]
fn late_response_is_a_deadline_failure_on_every_shape() {
    let deadline = Duration::from_millis(120);
    // Two messages per leg: 200 ms for the one-leg plans, 2 × 80 ms for
    // the sharded plan's two stages. Execution takes well under 1 ms.
    for shape in SHAPES {
        let hop_s = if shape.sharded() { 0.040 } else { 0.100 };
        let case = Case::boot(shape, |b| {
            b.network(NetworkModel::with_hop(hop_s))
                .tail_sample(Duration::from_secs(100))
        });
        let started = Instant::now();
        let outcomes = case.request(deadline);
        assert!(started.elapsed() >= deadline, "{shape:?}: nothing was late");
        case.assert_all(&outcomes, "late", |e| {
            matches!(e, ServeError::DeadlineExceeded { retries: 0, .. })
        });
        assert_eq!(case.settled("late"), (0, 0, case.members()));
        let traces = case.server.take_traces();
        assert_eq!(traces.len(), case.inputs.len(), "{shape:?}");
        for trace in &traces {
            assert!(trace.error.is_some(), "{shape:?}: {trace:?}");
            assert_eq!(trace.worker, None, "{shape:?}");
        }
    }
}

/// A sampled trace is stamped by the executor: every span carries the
/// trace's id (the first member's request id), a shard leg's NPU spans
/// carry that leg's worker as the device, and each device run left one
/// run envelope.
#[test]
fn sampled_traces_carry_their_trace_id_on_every_shape() {
    for shape in SHAPES {
        let case = Case::boot(shape, |b| {
            b.trace_sample(1).network(NetworkModel::with_hop(0.001))
        });
        let outcomes = case.request(LONG);
        let first = outcomes[0].as_ref().map(|r| r.request_id).unwrap();
        case.assert_served(outcomes, 0, "traced");
        let traces = case.server.take_traces();
        assert_eq!(traces.len() as u64, case.members(), "{shape:?}");
        // A sharded request runs three legs, all of group members
        // (`SHARDED_WIDTHS`), whatever its columns.
        let (runs, shard_legs) = if shape.sharded() { (3, 3) } else { (1, 0) };
        for t in &traces {
            assert_eq!(t.trace_id, first, "{shape:?}");
            assert!(
                t.spans.iter().all(|s| s.trace_id == t.trace_id),
                "{shape:?}"
            );
            let run_spans = t.spans.iter().filter(|s| s.kind == SpanKind::Run);
            assert_eq!(
                run_spans.count(),
                runs,
                "{shape:?}: one run span per device run"
            );
            // A shard leg's NPU spans come just before its transfer span,
            // which names the leg's worker.
            let legs: Vec<&[SpanRecord]> = t
                .spans
                .split_inclusive(|s| s.kind == SpanKind::NetTransfer)
                .filter(|leg| leg.last().unwrap().kind == SpanKind::NetTransfer)
                .collect();
            assert_eq!(legs.len(), shard_legs, "{shape:?}");
            for leg in legs {
                let (transfer, npu) = leg.split_last().unwrap();
                assert!(!npu.is_empty());
                assert!(npu.iter().all(|s| s.device == transfer.device), "{leg:?}");
            }
        }
    }
}

/// Shard-group members of one batcher window run as one run: not one
/// after another, and the time a member spent held in the window is
/// part of its latency.
#[test]
fn sharded_members_of_a_window_overlap_and_are_charged_their_hold() {
    // 25 ms per message: 2 stages × 2 messages put 100 ms of modeled
    // network into every request.
    let network = Duration::from_millis(100);
    let case = Case::boot(Shape::Sharded, |b| b.network(NetworkModel::with_hop(0.025)));
    let input = &case.inputs[0];
    let solo = case.client.call(MODEL, input, LONG).unwrap().latency;
    assert!(solo >= network, "solo took {solo:?}");

    let batcher = Batcher::new(
        case.client.clone(),
        BatchConfig {
            max_batch: BATCH,
            max_hold: LONG,
            slack_fraction: 1.0,
            dispatchers: 1,
        },
    );
    let hold = Duration::from_millis(150);
    let first = batcher.submit(MODEL, input.clone(), LONG);
    // The hold under test: the window keeps `first` this long.
    std::thread::sleep(hold);
    let flushed = Instant::now();
    let rest: Vec<_> = (1..BATCH)
        .map(|_| batcher.submit(MODEL, input.clone(), LONG))
        .collect();
    let first = first.recv().unwrap().unwrap();
    let rest: Vec<Response> = rest.iter().map(|rx| rx.recv().unwrap().unwrap()).collect();
    let wall = flushed.elapsed();

    assert!(
        first.latency >= hold + network,
        "the {hold:?} hold was dropped from the reported {:?}",
        first.latency
    );
    assert!(
        wall < solo.mul_f64(2.5),
        "{BATCH} members took {wall:?} against {solo:?} solo: they ran one after another"
    );
    for resp in std::iter::once(&first).chain(&rest) {
        assert_eq!(resp.output, case.expected[0]);
    }
    assert_eq!(case.settled("window"), (1 + BATCH as u64, 0, 0));
}
