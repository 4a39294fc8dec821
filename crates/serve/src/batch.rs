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
//! 3. A flushed batch travels as **one** multi-column dispatch
//!    ([`Client::call_batch`]): one queue slot, one worker pop, one
//!    [`Npu::run_batch`](bw_core::Npu::run_batch) envelope. Results
//!    split back into per-member responses, and the accounting identity
//!    `completed + shed + failed == submitted` holds member-for-member.
//!    (A shard group's window does not coalesce: its members are
//!    admitted together as separate requests and overlap.)
//!
//! The batcher never mixes models in one batch (columns must share the
//! pinned program) and never holds a request past its own hold budget,
//! so a correctly provisioned pool cannot breach a deadline *because
//! of* coalescing — `tests/batching.rs` pins that property.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
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
    /// batches can be in flight at once from this batcher.
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

/// One queued member plus the instant its hold budget expires.
struct PendingMember {
    item: BatchItem,
    flush_at: Instant,
    reply: Sender<Result<Response, ServeError>>,
}

/// A flushed batch awaiting dispatch.
struct BatchWork {
    model: String,
    members: Vec<PendingMember>,
}

struct BatcherState {
    /// Per-model pending queues, arrival order.
    queues: HashMap<String, Vec<PendingMember>>,
    shutdown: bool,
}

struct BatcherInner {
    client: Client,
    cfg: BatchConfig,
    state: Mutex<BatcherState>,
    /// Wakes the flusher when work arrives or shutdown starts.
    cv: Condvar,
    /// Set once the flusher has drained and exited.
    done: AtomicBool,
}

/// The per-model coalescing front: submit requests, receive individual
/// responses, let the window pack compatible neighbors into one
/// multi-column dispatch. Dropping the batcher flushes everything still
/// pending and joins its threads.
pub struct Batcher {
    inner: Arc<BatcherInner>,
    work_tx: Option<Sender<BatchWork>>,
    flusher: Option<JoinHandle<()>>,
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
                shutdown: false,
            }),
            cv: Condvar::new(),
            done: AtomicBool::new(false),
        });
        let (work_tx, work_rx) = std::sync::mpsc::channel::<BatchWork>();
        let work_rx = Arc::new(Mutex::new(work_rx));
        let dispatchers = (0..cfg.dispatchers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let work_rx = Arc::clone(&work_rx);
                std::thread::Builder::new()
                    .name(format!("bw-batch-dispatch-{i}"))
                    .spawn(move || loop {
                        let work = {
                            let rx = work_rx.lock().unwrap_or_else(|e| e.into_inner());
                            rx.recv()
                        };
                        match work {
                            Ok(work) => dispatch_batch(&inner.client, work),
                            Err(_) => break, // all senders gone: drained
                        }
                    })
                    .expect("dispatcher thread spawns")
            })
            .collect();
        let flusher = {
            let inner = Arc::clone(&inner);
            let work_tx = work_tx.clone();
            std::thread::Builder::new()
                .name("bw-batch-flusher".to_owned())
                .spawn(move || flusher_loop(&inner, &work_tx))
                .expect("flusher thread spawns")
        };
        Batcher {
            inner,
            work_tx: Some(work_tx),
            flusher: Some(flusher),
            dispatchers,
        }
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
        let item = BatchItem::new(input, deadline);
        let hold = self.hold_budget(&item);
        let member = PendingMember {
            flush_at: item.arrived_at + hold,
            item,
            reply: reply_tx,
        };
        let full = {
            let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            if state.shutdown {
                // Shutting down: drop the member, disconnecting the
                // reply channel.
                return reply_rx;
            }
            let queue = state.queues.entry(model.to_owned()).or_default();
            queue.push(member);
            if queue.len() >= self.inner.cfg.max_batch {
                Some(BatchWork {
                    model: model.to_owned(),
                    members: std::mem::take(queue),
                })
            } else {
                None
            }
        };
        match full {
            // The window filled: flush inline, no hold time wasted.
            Some(work) => {
                if let Some(tx) = &self.work_tx {
                    let _ = tx.send(work);
                }
            }
            // Otherwise the flusher owns the member's hold deadline.
            None => self.inner.cv.notify_all(),
        }
        reply_rx
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
    /// `min(max_hold, slack_fraction × remaining slack)`.
    fn hold_budget(&self, item: &BatchItem) -> Duration {
        let slack = item.slack(item.arrived_at);
        let from_slack = slack.mul_f64(self.inner.cfg.slack_fraction);
        from_slack.min(self.inner.cfg.max_hold)
    }

    /// Requests currently held in coalescing windows (for tests).
    pub fn pending(&self) -> usize {
        let state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        state.queues.values().map(Vec::len).sum()
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            state.shutdown = true;
        }
        self.inner.cv.notify_all();
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
        debug_assert!(self.inner.done.load(Ordering::Acquire));
        // Dropping the last sender lets the dispatcher pool drain the
        // already-flushed batches and exit.
        self.work_tx = None;
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The flusher: sleeps until the earliest hold deadline (or new work),
/// then moves every due queue to the dispatcher pool. On shutdown it
/// flushes everything still pending so no submitted request is dropped.
fn flusher_loop(inner: &BatcherInner, work_tx: &Sender<BatchWork>) {
    let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if state.shutdown {
            for (model, members) in state.queues.drain() {
                if !members.is_empty() {
                    let _ = work_tx.send(BatchWork { model, members });
                }
            }
            inner.done.store(true, Ordering::Release);
            return;
        }
        let now = Instant::now();
        // Flush every queue whose oldest member's hold budget expired
        // (the inline path in `submit` already handles full queues).
        let due: Vec<String> = state
            .queues
            .iter()
            .filter(|(_, q)| q.iter().any(|m| m.flush_at <= now))
            .map(|(model, _)| model.clone())
            .collect();
        for model in due {
            if let Some(members) = state.queues.remove(&model) {
                if !members.is_empty() {
                    let _ = work_tx.send(BatchWork { model, members });
                }
            }
        }
        let next = state
            .queues
            .values()
            .flat_map(|q| q.iter().map(|m| m.flush_at))
            .min();
        state = match next {
            Some(at) => {
                let timeout = at.saturating_duration_since(Instant::now());
                inner
                    .cv
                    .wait_timeout(state, timeout)
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
            None => inner.cv.wait(state).unwrap_or_else(|e| e.into_inner()),
        };
    }
}

/// Drives one flushed batch through the blocking coalesced lifecycle
/// and fans the per-member outcomes back to their reply channels.
fn dispatch_batch(client: &Client, work: BatchWork) {
    let items: Vec<BatchItem> = work.members.iter().map(|m| m.item.clone()).collect();
    let results = client.call_batch(&work.model, &items);
    for (member, result) in work.members.into_iter().zip(results) {
        // A caller that stopped listening just drops its receiver; the
        // request is already accounted in the server metrics.
        let _ = member.reply.send(result);
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
