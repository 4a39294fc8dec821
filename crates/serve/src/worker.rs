//! Worker threads: each owns one live NPU pool per pinned model.
//!
//! A worker is one disaggregated instance of the published hardware
//! microservices (§II-A): at spawn it pins catalog artifacts onto its
//! own `bw-core` NPUs (fast kernels) and then drains a *bounded* request
//! queue, one batch-1 inference at a time — the BW service discipline.
//! Ordinary models pin on every worker; shard members of a scatter/gather
//! group pin only on their owning workers (distinct per shard), so the
//! pin table is sparse — a job for an unpinned slot faults and fails over.
//! Bounding the queue is what makes load shedding possible: admission
//! fails fast instead of building an unbounded backlog.
//!
//! Fault injection: a worker can be killed. The kill takes effect
//! immediately for routing (the liveness flag drops, so no new work is
//! admitted to it) and at the next queue pop for the thread, which exits
//! *without* draining — every queued job is dropped, its reply slot
//! closes unfilled, and the request lifecycle fails over to a replica.
//!
//! # Control plane
//!
//! The pin table is *dynamic*: the server can pin a new model replica
//! onto a running worker (paying a modeled weight-preload time), unpin
//! one, or insert a drain barrier — all via [`Control`] messages that
//! travel the same bounded FIFO queue as jobs. FIFO ordering is the
//! correctness lever: an `Unpin` enqueued after the routing flag is
//! cleared drains every job already queued for the slot before the model
//! is actually dropped, so cutover loses nothing; the ack slot turns
//! any control message into a barrier.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bw_core::{RunStats, SpanRecord};
use bw_gir::PinnedModel;

use crate::metrics::LinkMetrics;
use crate::reply_slot::{reply_slot, Fill};

/// The input (or output) columns of one leg: one vector per member
/// request, shared by every attempt of the leg.
pub(crate) type Columns = Arc<[Vec<f32>]>;

/// A served attempt: the outputs and where the time and NPU work went.
#[derive(Clone, Debug)]
pub(crate) struct Served {
    /// Worker that served it.
    pub worker: usize,
    /// Per-column model outputs, in input order.
    pub outputs: Vec<Vec<f32>>,
    /// Time the job waited in the queue before this worker popped it.
    pub queue_wait_s: f64,
    /// Wall time the (possibly multi-column) inference spent executing.
    pub service_s: f64,
    /// When the inference finished: the modeled response message leaves
    /// the worker at this instant.
    pub done_at: Instant,
    /// Accelerator statistics accumulated over every column.
    pub stats: RunStats,
    /// NPU spans, when the job asked for span collection (empty
    /// otherwise).
    pub spans: Vec<SpanRecord>,
}

/// What a worker reports back for one attempt. Every attempt has its
/// own reply slot, so a completion needs no attempt number: one that
/// outlives its attempt finds the reader gone.
#[derive(Clone, Debug)]
pub(crate) enum Completion {
    /// The attempt produced one output per column.
    Done(Served),
    /// The attempt failed in the simulator.
    Fault {
        /// Worker that faulted.
        worker: usize,
        /// The simulator error.
        message: String,
    },
    /// The worker popped the job after its deadline had already passed.
    Expired,
}

/// One queued attempt of one leg.
pub(crate) struct Job {
    /// Catalog slot of the model.
    pub model: usize,
    /// The leg's input columns: one is the batch-1 BW default, N are a
    /// coalesced micro-batch the worker runs as one multi-column
    /// dispatch.
    pub columns: Columns,
    pub deadline: Instant,
    /// The attempt's reply slot, filled once when the worker is done
    /// with the job and closed unfilled if the job is dropped.
    pub reply: Fill<Completion>,
    /// When the job entered the queue (for queue-wait measurement).
    pub enqueued_at: Instant,
    /// Whether to collect NPU spans for this attempt.
    pub collect_spans: bool,
}

/// A control-plane operation on a running worker. Travels the same FIFO
/// queue as jobs; each carries an ack slot the server can block on.
pub(crate) enum Control {
    /// Install a pinned replica into `slot`, first sleeping the modeled
    /// weight-preload time (network ship + MRF fill + setup).
    Pin {
        /// The catalog slot to install into.
        slot: usize,
        /// The already-pinned model instance.
        model: Box<PinnedModel>,
        /// Modeled preload seconds to sleep before the replica serves.
        preload_s: f64,
        /// Weight bytes the preload ships over the worker's link.
        bytes: usize,
    },
    /// Drop the replica in `slot`. Jobs already queued ahead of this
    /// message still execute (FIFO drain); jobs that race in behind it
    /// fault and fail over.
    Unpin {
        /// The catalog slot to clear.
        slot: usize,
    },
    /// No-op: the ack alone is the point — a barrier past everything
    /// queued before it.
    Flush,
}

/// A message on the worker queue.
enum WorkerMsg {
    Work(Box<Job>),
    Control(Control, Fill<()>),
    Stop,
}

/// The server-side handle to one worker thread.
pub(crate) struct WorkerHandle {
    tx: SyncSender<WorkerMsg>,
    /// Jobs queued or executing on this worker.
    pub outstanding: Arc<AtomicUsize>,
    /// Cleared on kill or thread exit; routing skips dead workers.
    pub alive: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
    /// Jobs the worker has fully processed (for tests and metrics).
    pub processed: Arc<AtomicU64>,
    /// This worker's client↔worker network link.
    pub link: Arc<LinkMetrics>,
    /// Which catalog slots this worker pins (`true` = can serve).
    /// Shared with the worker thread: the thread sets a slot after
    /// applying a `Pin`; the server clears it *before* enqueueing an
    /// `Unpin` so routing stops first and the queue drains.
    pins: Arc<RwLock<Vec<bool>>>,
    /// When each pinned slot became resident (`None` = not pinned).
    pinned_since: Arc<Mutex<Vec<Option<Instant>>>>,
    join: Mutex<Option<JoinHandle<()>>>,
}

/// Why a dispatch to this worker was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DispatchRefused {
    /// The bounded queue is full.
    QueueFull,
    /// The worker is dead.
    Dead,
}

/// Why a control operation was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ControlRefused {
    /// The worker is dead (or died before acking).
    Dead,
}

impl WorkerHandle {
    /// Attempts to enqueue a job without blocking.
    pub(crate) fn try_dispatch(&self, job: Job) -> Result<(), DispatchRefused> {
        if !self.alive.load(Ordering::Acquire) {
            return Err(DispatchRefused::Dead);
        }
        match self.tx.try_send(WorkerMsg::Work(Box::new(job))) {
            Ok(()) => {
                self.outstanding.fetch_add(1, Ordering::AcqRel);
                Ok(())
            }
            Err(TrySendError::Full(_)) => Err(DispatchRefused::QueueFull),
            Err(TrySendError::Disconnected(_)) => {
                self.alive.store(false, Ordering::Release);
                Err(DispatchRefused::Dead)
            }
        }
    }

    /// Jobs queued or executing.
    pub(crate) fn queue_depth(&self) -> usize {
        self.outstanding.load(Ordering::Acquire)
    }

    /// Whether the worker accepts work.
    pub(crate) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Jobs this worker has fully processed.
    pub(crate) fn processed_count(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// Whether this worker pins catalog slot `model`.
    pub(crate) fn pins(&self, model: usize) -> bool {
        self.pins
            .read()
            .unwrap()
            .get(model)
            .copied()
            .unwrap_or(false)
    }

    /// Clears the routing flag for `slot` immediately, so no new work is
    /// dispatched there while an `Unpin` drains the queue behind it.
    pub(crate) fn clear_pin(&self, slot: usize) {
        let mut pins = self.pins.write().unwrap();
        if let Some(flag) = pins.get_mut(slot) {
            *flag = false;
        }
    }

    /// `(slot, resident_for)` for every model currently pinned here, in
    /// slot order.
    pub(crate) fn resident_slots(&self) -> Vec<(usize, Duration)> {
        let now = Instant::now();
        self.pinned_since
            .lock()
            .unwrap()
            .iter()
            .enumerate()
            .filter_map(|(slot, since)| since.map(|t| (slot, now.saturating_duration_since(t))))
            .collect()
    }

    /// Sends a control message and blocks until the worker acks it —
    /// i.e. until everything queued ahead of it has been served. Errors
    /// if the worker is dead (or dies mid-wait).
    pub(crate) fn control(&self, op: Control) -> Result<(), ControlRefused> {
        if !self.alive.load(Ordering::Acquire) {
            return Err(ControlRefused::Dead);
        }
        let (ack, ack_slot) = reply_slot();
        // A blocking send: control ops may wait behind a full job queue,
        // which is exactly the drain semantics we want. A dying worker
        // drops its receiver, erroring the send instead of deadlocking.
        self.tx
            .send(WorkerMsg::Control(op, ack))
            .map_err(|_| ControlRefused::Dead)?;
        ack_slot.wait().map_err(|_| ControlRefused::Dead)
    }

    /// Injects a fault: the worker stops accepting work immediately and
    /// its thread exits at the next queue pop, dropping queued jobs.
    pub(crate) fn kill(&self) {
        self.kill.store(true, Ordering::Release);
        self.alive.store(false, Ordering::Release);
    }

    /// Graceful shutdown: asks the thread to stop after the work already
    /// queued, then joins it. Safe to call on killed workers (the blocked
    /// stop message unblocks when the dying thread drops its receiver).
    pub(crate) fn stop_and_join(&self) {
        let _ = self.tx.send(WorkerMsg::Stop);
        if let Some(handle) = self.join.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

/// Spawns a worker that serves `models` (slot order; `None` = not
/// pinned here) from a bounded queue of `queue_cap` jobs.
pub(crate) fn spawn_worker(
    id: usize,
    mut models: Vec<Option<PinnedModel>>,
    queue_cap: usize,
) -> WorkerHandle {
    let (tx, rx): (SyncSender<WorkerMsg>, Receiver<WorkerMsg>) =
        std::sync::mpsc::sync_channel(queue_cap.max(1));
    let now = Instant::now();
    let pins = Arc::new(RwLock::new(
        models.iter().map(Option::is_some).collect::<Vec<bool>>(),
    ));
    let pinned_since = Arc::new(Mutex::new(
        models
            .iter()
            .map(|m| m.as_ref().map(|_| now))
            .collect::<Vec<Option<Instant>>>(),
    ));
    let outstanding = Arc::new(AtomicUsize::new(0));
    let alive = Arc::new(AtomicBool::new(true));
    let kill = Arc::new(AtomicBool::new(false));
    let processed = Arc::new(AtomicU64::new(0));
    let link = Arc::new(LinkMetrics::default());

    let t_outstanding = Arc::clone(&outstanding);
    let t_alive = Arc::clone(&alive);
    let t_kill = Arc::clone(&kill);
    let t_processed = Arc::clone(&processed);
    let t_link = Arc::clone(&link);
    let t_pins = Arc::clone(&pins);
    let t_pinned_since = Arc::clone(&pinned_since);
    let join = std::thread::Builder::new()
        .name(format!("bw-serve-worker-{id}"))
        .spawn(move || {
            while let Ok(msg) = rx.recv() {
                if t_kill.load(Ordering::Acquire) {
                    // Injected fault: exit without serving or draining.
                    // Dropping `rx` closes every queued job's reply slot
                    // unfilled, which the lifecycle treats as worker loss.
                    break;
                }
                let job = match msg {
                    WorkerMsg::Work(job) => job,
                    WorkerMsg::Control(op, ack) => {
                        match op {
                            Control::Pin {
                                slot,
                                model,
                                preload_s,
                                bytes,
                            } => {
                                // The device is busy streaming weights
                                // for the modeled preload window, metered
                                // on its link as the window opens.
                                if preload_s > 0.0 {
                                    if bytes > 0 {
                                        t_link.record(bytes, preload_s);
                                    }
                                    std::thread::sleep(Duration::from_secs_f64(preload_s));
                                }
                                if models.len() <= slot {
                                    models.resize_with(slot + 1, || None);
                                }
                                models[slot] = Some(*model);
                                {
                                    let mut p = t_pins.write().unwrap();
                                    if p.len() <= slot {
                                        p.resize(slot + 1, false);
                                    }
                                    p[slot] = true;
                                }
                                let mut since = t_pinned_since.lock().unwrap();
                                if since.len() <= slot {
                                    since.resize(slot + 1, None);
                                }
                                since[slot] = Some(Instant::now());
                            }
                            Control::Unpin { slot } => {
                                if let Some(m) = models.get_mut(slot) {
                                    *m = None;
                                }
                                if let Some(flag) = t_pins.write().unwrap().get_mut(slot) {
                                    *flag = false;
                                }
                                if let Some(s) = t_pinned_since.lock().unwrap().get_mut(slot) {
                                    *s = None;
                                }
                            }
                            Control::Flush => {}
                        }
                        ack.fill(());
                        continue;
                    }
                    WorkerMsg::Stop => break,
                };
                let popped = Instant::now();
                let completion = if popped >= job.deadline {
                    Completion::Expired
                } else if models.get(job.model).is_none_or(Option::is_none) {
                    // A mis-routed job for a slot this worker does not
                    // pin: fault so the request fails over to an owner.
                    Completion::Fault {
                        worker: id,
                        message: format!("model slot {} not pinned on worker {id}", job.model),
                    }
                } else {
                    let queue_wait_s = (popped - job.enqueued_at).as_secs_f64();
                    let model = models[job.model].as_mut().expect("pinned slot");
                    serve(model, &job, id, queue_wait_s, popped)
                };
                t_outstanding.fetch_sub(1, Ordering::AcqRel);
                t_processed.fetch_add(1, Ordering::Relaxed);
                // The requester may have moved on (failover); that drops
                // the reader and this fill becomes a no-op.
                job.reply.fill(completion);
            }
            t_alive.store(false, Ordering::Release);
        })
        .expect("worker thread spawns");

    WorkerHandle {
        tx,
        outstanding,
        alive,
        kill,
        processed,
        link,
        pins,
        pinned_since,
        join: Mutex::new(Some(join)),
    }
}

/// Runs one popped job on its pinned model as one multi-column
/// dispatch; a single column takes the batch-1 kernel path inside it.
fn serve(
    model: &mut PinnedModel,
    job: &Job,
    worker: usize,
    queue_wait_s: f64,
    popped: Instant,
) -> Completion {
    let result = if job.collect_spans {
        model.infer_batch_traced(&job.columns)
    } else {
        model
            .infer_batch(&job.columns)
            .map(|(outputs, stats)| (outputs, stats, Vec::new()))
    };
    let done_at = Instant::now();
    match result {
        Ok((outputs, stats, spans)) => Completion::Done(Served {
            worker,
            outputs,
            queue_wait_s,
            service_s: (done_at - popped).as_secs_f64(),
            done_at,
            stats,
            spans,
        }),
        Err(e) => Completion::Fault {
            worker,
            message: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_input, mlp_artifact};
    use crate::reply_slot::{ReplySlot, Unfilled};
    use std::time::Duration;

    fn worker_with(queue_cap: usize) -> WorkerHandle {
        let artifact = mlp_artifact("m", &[16, 8], 3);
        spawn_worker(0, vec![Some(artifact.pin().unwrap())], queue_cap)
    }

    fn job(reply: Fill<Completion>) -> Job {
        Job {
            model: 0,
            columns: Arc::new([demo_input(16, 0)]),
            deadline: Instant::now() + Duration::from_secs(5),
            reply,
            enqueued_at: Instant::now(),
            collect_spans: false,
        }
    }

    #[test]
    fn worker_serves_jobs() {
        let w = worker_with(4);
        let (tx, rx) = reply_slot();
        w.try_dispatch(job(tx)).unwrap();
        match rx.wait_timeout(Duration::from_secs(10)).unwrap() {
            Completion::Done(served) => {
                assert_eq!(served.worker, 0);
                assert_eq!(served.outputs.len(), 1, "one output per column");
                assert_eq!(served.outputs[0].len(), 8);
                assert!(served.queue_wait_s >= 0.0 && served.service_s > 0.0);
                assert!(served.stats.cycles > 0);
                assert!(served.spans.is_empty(), "no spans unless requested");
            }
            other => panic!("unexpected completion {other:?}"),
        }
        assert_eq!(w.processed.load(Ordering::Relaxed), 1);
        assert_eq!(w.queue_depth(), 0);
        w.stop_and_join();
        assert!(!w.is_alive());
    }

    #[test]
    fn traced_jobs_carry_stamped_spans() {
        let w = worker_with(4);
        let (tx, rx) = reply_slot();
        let mut j = job(tx);
        j.collect_spans = true;
        w.try_dispatch(j).unwrap();
        match rx.wait_timeout(Duration::from_secs(10)).unwrap() {
            Completion::Done(Served { stats, spans, .. }) => {
                assert!(!spans.is_empty());
                // The one-device model's ordinal; the executor stamps the
                // request's trace id.
                assert!(spans.iter().all(|s| s.device == 0 && s.trace_id == 0));
                // The Run spans' cycles reconcile with the stats.
                let run_cycles: u64 = spans
                    .iter()
                    .filter(|s| s.kind == bw_core::SpanKind::Run)
                    .map(|s| s.cycles())
                    .sum();
                assert_eq!(run_cycles, stats.cycles);
            }
            other => panic!("unexpected completion {other:?}"),
        }
        w.stop_and_join();
    }

    #[test]
    fn expired_jobs_are_reported_not_served() {
        let w = worker_with(4);
        let (tx, rx) = reply_slot();
        let mut j = job(tx);
        j.deadline = Instant::now() - Duration::from_millis(1);
        w.try_dispatch(j).unwrap();
        assert!(matches!(
            rx.wait_timeout(Duration::from_secs(10)).unwrap(),
            Completion::Expired
        ));
        w.stop_and_join();
    }

    #[test]
    fn killed_worker_refuses_and_drops_queued_jobs() {
        let w = worker_with(8);
        // Queue several jobs, then kill: queued replies must disconnect
        // (or complete, if the worker raced past them before the kill).
        let receivers: Vec<_> = (0..4)
            .map(|_| {
                let (tx, rx) = reply_slot();
                w.try_dispatch(job(tx)).unwrap();
                rx
            })
            .collect();
        w.kill();
        assert!(!w.is_alive());
        let (tx, _rx) = reply_slot();
        assert_eq!(w.try_dispatch(job(tx)), Err(DispatchRefused::Dead));
        for rx in receivers {
            match rx.wait_timeout(Duration::from_secs(10)) {
                Ok(_) | Err(Unfilled::Disconnected) => {}
                Err(e) => panic!("queued job left hanging: {e:?}"),
            }
        }
        w.stop_and_join();
    }

    #[test]
    fn full_queue_refuses_with_queue_full() {
        let artifact = mlp_artifact("m", &[16, 8], 3);
        let w = spawn_worker(0, vec![Some(artifact.pin().unwrap())], 1);
        // The worker may already be executing the first job; keep
        // dispatching, one reply slot per job, until the bounded queue
        // refuses.
        let mut accepted: Vec<ReplySlot<Completion>> = Vec::new();
        let mut refused = None;
        for _ in 0..16 {
            let (tx, rx) = reply_slot();
            match w.try_dispatch(job(tx)) {
                Ok(()) => accepted.push(rx),
                Err(r) => {
                    refused = Some(r);
                    break;
                }
            }
        }
        assert_eq!(refused, Some(DispatchRefused::QueueFull));
        for rx in accepted {
            assert!(matches!(
                rx.wait_timeout(Duration::from_secs(10)),
                Ok(Completion::Done(_))
            ));
        }
        w.stop_and_join();
    }
}
