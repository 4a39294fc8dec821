//! Admission-side dynamic micro-batching: the Fig. 8 lever.
//!
//! The BW service discipline is batch-1 — that is what makes the
//! millisecond SLOs of §III possible — but at high offered load the
//! serving layer's per-request overhead (thread wakeups, channel hops,
//! dispatch streaming) caps goodput long before the MACs saturate. The
//! TPU paper quantifies the classic answer: coalesce compatible
//! requests into one multi-column dispatch, trading a bounded hold time
//! for amortized dispatch cost.
//!
//! [`Batcher`] implements the admission side of that trade as a
//! *deadline-slack-aware* coalescing window, per model:
//!
//! 1. A request arrives with a deadline. Its **hold budget** is
//!    `min(max_hold, slack_fraction × remaining slack)` — a request with
//!    a tight deadline flushes almost immediately, a relaxed one can
//!    wait for company.
//! 2. The request joins its model's pending queue. The queue flushes
//!    when it reaches `max_batch` members **or** when any member's hold
//!    budget expires, whichever comes first.
//! 3. A flushed batch travels as **one** multi-column run
//!    ([`Client::call_batch`]): one queue slot, one worker pop and one
//!    [`Npu::run_batch`](bw_core::Npu::run_batch) envelope per leg.
//!    Results split back into per-member responses, and the accounting
//!    identity `completed + shed + failed == submitted` holds
//!    member-for-member.
//!
//! The batcher never mixes models in one batch (columns must share the
//! pinned program) and never holds a request past its own hold budget
//! while a dispatcher is free, so a correctly provisioned pool cannot
//! breach a deadline *because of* coalescing — `tests/batching.rs` pins
//! that property.
//!
//! # What wakes a dispatcher
//!
//! The batcher runs one kind of thread, the dispatcher, and the
//! dispatchers are also the hold timers. All state — the open windows,
//! the windows that filled, the shutdown flag — sits behind one mutex
//! with one condvar. An idle dispatcher takes a full window if there is
//! one, else the open window whose earliest hold deadline has passed,
//! else sleeps on the condvar until the earliest hold deadline over all
//! open windows (indefinitely when none is open). Three things end that
//! sleep:
//!
//! - a submit (`notify_one`): the woken dispatcher re-reads the earliest
//!   deadline, which the new member may have moved or whose window it may
//!   have filled;
//! - the deadline itself passing;
//! - shutdown (`notify_all`), which makes every window due so nothing
//!   submitted is dropped.
//!
//! A dispatcher that leaves with a batch while windows remain wakes one
//! more, so the timer is never carried off into a blocking dispatch.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::request::{Response, ServeError};
use crate::server::{BatchItem, Client};

/// Tuning for one [`Batcher`].
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Largest coalesced batch (columns per dispatch). `1` disables
    /// coalescing while keeping the batched code path.
    pub max_batch: usize,
    /// Hard ceiling on any request's hold time, regardless of slack.
    pub max_hold: Duration,
    /// Fraction of a request's remaining deadline slack spendable as
    /// hold time. Clamped to `[0, 1]`.
    pub slack_fraction: f64,
    /// Threads concurrently driving flushed batches through the
    /// blocking [`Client::call_batch`] lifecycle. Bounds how many
    /// batches can be in flight at once from this batcher. The
    /// dispatchers are also the hold timers: an idle one sleeps until
    /// the earliest pending hold deadline, so while every dispatcher is
    /// inside a dispatch a partial window waits for the first to return.
    pub dispatchers: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 4,
            max_hold: Duration::from_millis(2),
            slack_fraction: 0.25,
            dispatchers: 4,
        }
    }
}

/// What resolves one member: called exactly once with its outcome, or
/// dropped uncalled if the batcher shuts down first.
pub(crate) type Reply = Box<dyn FnOnce(Result<Response, ServeError>) + Send>;

/// One queued member plus the instant its hold budget expires.
struct PendingMember {
    item: BatchItem,
    flush_at: Instant,
    reply: Reply,
}

/// A flushed batch awaiting dispatch.
struct BatchWork {
    model: String,
    members: Vec<PendingMember>,
}

struct BatcherState {
    /// Per-model open windows, arrival order. Never holds an empty one.
    queues: HashMap<String, Vec<PendingMember>>,
    /// Windows that reached `max_batch`: due now, whatever their holds.
    full: VecDeque<BatchWork>,
    shutdown: bool,
}

struct BatcherInner {
    client: Client,
    cfg: BatchConfig,
    state: Mutex<BatcherState>,
    /// Wakes one idle dispatcher when a member arrives, when a departing
    /// dispatcher leaves windows behind, or (all of them) on shutdown.
    cv: Condvar,
}

/// The per-model coalescing front: submit requests, receive individual
/// responses, let the window pack compatible neighbors into one
/// multi-column dispatch. Dropping the batcher flushes everything still
/// pending and joins its threads.
pub struct Batcher {
    inner: Arc<BatcherInner>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl Batcher {
    /// Builds a batcher over an in-process [`Client`].
    pub fn new(client: Client, cfg: BatchConfig) -> Batcher {
        let cfg = BatchConfig {
            max_batch: cfg.max_batch.max(1),
            slack_fraction: cfg.slack_fraction.clamp(0.0, 1.0),
            dispatchers: cfg.dispatchers.max(1),
            ..cfg
        };
        let inner = Arc::new(BatcherInner {
            client,
            cfg,
            state: Mutex::new(BatcherState {
                queues: HashMap::new(),
                full: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let dispatchers = (0..cfg.dispatchers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("bw-batch-dispatch-{i}"))
                    .spawn(move || {
                        while let Some(work) = next_work(&inner) {
                            dispatch_batch(&inner.client, work);
                        }
                    })
                    .expect("dispatcher thread spawns")
            })
            .collect();
        Batcher { inner, dispatchers }
    }

    /// Enqueues one request into its model's coalescing window. Returns
    /// a receiver the caller blocks on (or polls) for the individual
    /// outcome; the send side disconnecting means the batcher shut down
    /// before dispatch, which [`Batcher::call`] maps to
    /// [`ServeError::Disconnected`].
    pub fn submit(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Duration,
    ) -> Receiver<Result<Response, ServeError>> {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        // A caller that stopped listening just drops its receiver; the
        // request is already accounted in the server metrics.
        let reply = move |result| drop(reply_tx.send(result));
        self.submit_with(model, input, deadline, Box::new(reply));
        reply_rx
    }

    /// [`Batcher::submit`] with the caller's own completion: `reply`
    /// runs on the dispatcher thread that resolved the member.
    pub(crate) fn submit_with(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Duration,
        reply: Reply,
    ) {
        let item = BatchItem::new(input, deadline);
        let hold = self.hold_budget(&item);
        let member = PendingMember {
            flush_at: item.arrived_at + hold,
            item,
            reply,
        };
        {
            let mut state = self.inner.state.lock().unwrap();
            if state.shutdown {
                // Shutting down: drop the member and, with it, the reply
                // undelivered.
                return;
            }
            let queue = state.queues.entry(model.to_owned()).or_default();
            queue.push(member);
            if queue.len() >= self.inner.cfg.max_batch {
                // The window filled: due now, no hold time wasted.
                let (model, members) = state
                    .queues
                    .remove_entry(model)
                    .expect("the window just pushed to");
                state.full.push_back(BatchWork { model, members });
            }
        }
        // Whichever dispatcher this wakes takes the full window, or
        // re-reads the earliest hold deadline this member may have moved.
        self.inner.cv.notify_one();
    }

    /// [`Batcher::submit`] + blocking receive: the drop-in replacement
    /// for [`Client::call`] behind the coalescing window.
    ///
    /// # Errors
    ///
    /// As [`Client::call`], plus [`ServeError::Disconnected`] if the
    /// batcher shuts down before the request dispatches.
    pub fn call(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Duration,
    ) -> Result<Response, ServeError> {
        self.submit(model, input, deadline)
            .recv()
            .unwrap_or(Err(ServeError::Disconnected))
    }

    /// The hold budget for one arriving member:
    /// `min(max_hold, slack_fraction × its deadline budget)`.
    fn hold_budget(&self, item: &BatchItem) -> Duration {
        let from_slack = item.budget().mul_f64(self.inner.cfg.slack_fraction);
        from_slack.min(self.inner.cfg.max_hold)
    }

    /// Requests currently held in coalescing windows (for tests).
    pub fn pending(&self) -> usize {
        let state = self.inner.state.lock().unwrap();
        state.queues.values().map(Vec::len).sum()
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock().unwrap();
            state.shutdown = true;
        }
        self.inner.cv.notify_all();
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Blocks an idle dispatcher until a window is due and takes it: a full
/// window first, else the open window whose earliest hold deadline has
/// passed. Shutdown makes every window due, so no submitted request is
/// dropped; `None` means shut down and drained.
fn next_work(inner: &BatcherInner) -> Option<BatchWork> {
    let mut state = inner.state.lock().unwrap();
    let work = loop {
        if let Some(work) = state.full.pop_front() {
            break work;
        }
        let earliest = state
            .queues
            .iter()
            .filter_map(|(model, q)| Some((q.iter().map(|m| m.flush_at).min()?, model)))
            .min();
        let now = Instant::now();
        state = match earliest {
            Some((at, model)) if state.shutdown || at <= now => {
                let model = model.clone();
                let members = state.queues.remove(&model).expect("the window just seen");
                break BatchWork { model, members };
            }
            Some((at, _)) => {
                let (state, _timed_out) = inner.cv.wait_timeout(state, at - now).unwrap();
                state
            }
            None if state.shutdown => return None,
            None => inner.cv.wait(state).unwrap(),
        };
    };
    // This thread is about to block in a dispatch: hand the hold timer to
    // another idle dispatcher if windows remain.
    if !(state.full.is_empty() && state.queues.is_empty()) {
        inner.cv.notify_one();
    }
    Some(work)
}

/// Drives one flushed batch through the blocking coalesced lifecycle,
/// handing its members' inputs over, and fans the per-member outcomes
/// back to their replies.
fn dispatch_batch(client: &Client, work: BatchWork) {
    let (items, replies): (Vec<BatchItem>, Vec<Reply>) =
        work.members.into_iter().map(|m| (m.item, m.reply)).unzip();
    let results = client.call_batch(&work.model, items);
    for (reply, result) in replies.into_iter().zip(results) {
        reply(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_input, mlp_artifact};
    use crate::server::Server;

    fn server() -> Server {
        Server::builder()
            .model(mlp_artifact("m", &[16, 8], 3))
            .replicas(1)
            .queue_cap(64)
            .spawn()
            .unwrap()
    }

    #[test]
    fn full_window_flushes_as_one_batch() {
        let server = server();
        let batcher = Batcher::new(
            server.client(),
            BatchConfig {
                max_batch: 4,
                max_hold: Duration::from_secs(5),
                slack_fraction: 1.0,
                dispatchers: 1,
            },
        );
        let receivers: Vec<_> = (0..4)
            .map(|i| batcher.submit("m", demo_input(16, i), Duration::from_secs(10)))
            .collect();
        for rx in receivers {
            let resp = rx.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
            assert_eq!(resp.output.len(), 8);
        }
        let m = &server.client().metrics().models[0];
        assert_eq!(m.completed, 4);
        assert_eq!(m.batches, 1, "one coalesced dispatch");
        assert_eq!(m.batched_requests, 4);
    }

    #[test]
    fn hold_expiry_flushes_a_partial_window() {
        let server = server();
        let batcher = Batcher::new(
            server.client(),
            BatchConfig {
                max_batch: 64,
                max_hold: Duration::from_millis(5),
                slack_fraction: 1.0,
                dispatchers: 1,
            },
        );
        let resp = batcher
            .call("m", demo_input(16, 0), Duration::from_secs(10))
            .unwrap();
        assert_eq!(resp.output.len(), 8);
        let m = &server.client().metrics().models[0];
        assert_eq!((m.completed, m.batches, m.batched_requests), (1, 1, 1));
    }

    /// The one dispatcher is asleep on model A's far-off hold deadline
    /// when model B's near one arrives: the submit wakes it to re-read
    /// the earliest deadline, so B is not held for A's sake.
    #[test]
    fn a_later_member_with_an_earlier_hold_deadline_flushes_first() {
        let server = Server::builder()
            .model(mlp_artifact("a", &[16, 8], 3))
            .model(mlp_artifact("b", &[16, 8], 4))
            .replicas(1)
            .queue_cap(64)
            .spawn()
            .unwrap();
        let batcher = Batcher::new(
            server.client(),
            BatchConfig {
                max_batch: 64,
                max_hold: Duration::from_secs(60),
                slack_fraction: 0.005,
                dispatchers: 1,
            },
        );
        // Holds: 0.005 × 10,000 s = 50 s for A, 0.005 × 1 s = 5 ms for B.
        let a = batcher.submit("a", demo_input(16, 0), Duration::from_secs(10_000));
        let b = batcher.submit("b", demo_input(16, 1), Duration::from_secs(1));
        let resp = b.recv_timeout(Duration::from_secs(20)).unwrap().unwrap();
        assert_eq!(resp.output.len(), 8);
        assert_eq!(batcher.pending(), 1, "A is still inside its own hold");
        drop(batcher);
        assert!(a.recv_timeout(Duration::from_secs(10)).unwrap().is_ok());
    }

    #[test]
    fn drop_flushes_pending_members() {
        let server = server();
        let batcher = Batcher::new(
            server.client(),
            BatchConfig {
                max_batch: 64,
                max_hold: Duration::from_secs(60),
                slack_fraction: 1.0,
                dispatchers: 1,
            },
        );
        let rx = batcher.submit("m", demo_input(16, 1), Duration::from_secs(30));
        drop(batcher);
        let resp = rx.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
        assert_eq!(resp.output.len(), 8);
    }

    #[test]
    fn unknown_model_resolves_per_member() {
        let server = server();
        let batcher = Batcher::new(server.client(), BatchConfig::default());
        let err = batcher
            .call("nope", demo_input(16, 0), Duration::from_secs(5))
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel(_)));
    }
}
