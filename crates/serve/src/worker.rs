//! Workers: each is one device — its pinned models behind one lock —
//! and a bounded queue that a thread of its own drains.
//!
//! A worker is one disaggregated instance of the published hardware
//! microservices (§II-A): at spawn it pins catalog artifacts onto its
//! own `bw-core` NPUs (fast kernels) and then serves a *bounded* FIFO
//! queue, one batch-1 inference at a time — the BW service discipline.
//! Ordinary models pin on every worker; shard members of a scatter/gather
//! group pin only on their owning workers (distinct per shard), so the
//! pin table is sparse — a job for an unpinned slot faults and fails over.
//! Bounding the queue is what makes load shedding possible: admission
//! fails fast instead of building an unbounded backlog.
//!
//! # One path, two ways to reach it
//!
//! The pinned models sit behind one `Mutex`, the *device*, and a job
//! leaves the queue only with the device held, so a queued job counts
//! against `queue_cap` until a device takes it. Whoever holds the device
//! pops the queue's head and runs it through [`Worker::run`]: the
//! expired check, the not-pinned fault, then the simulation. Two threads
//! can do that:
//!
//! - the worker's own thread, which parks on the queue's condvar while
//!   the queue is empty and otherwise takes the device, blocking;
//! - a caller waiting on its own attempt ([`WorkerHandle::run_here`]):
//!   when the attempt's job heads the queue, it takes the device with a
//!   `try_lock` under the queue lock and runs the job on its own thread.
//!   A caller never runs a job queued behind another job or a control,
//!   and never waits for the device.
//!
//! The queue is one lock and one condvar, built like the reply slot: the
//! worker sets `parked` before it waits, and a dispatch signals only a
//! parked worker. A dispatch may also leave a parked worker parked: the
//! dispatching thread then *owes* the wake, and pays it at the points
//! the executor names ([`pay_owed_wakes`]; the rule is in the
//! [server documentation](crate::server)). A caller that finds its job
//! at the head of an idle worker's queue therefore runs it with no
//! thread hand-off at all.
//!
//! # Faults
//!
//! A worker can be killed. The kill takes effect immediately for routing
//! (the liveness flag drops, so no new work is admitted to it), and for
//! the thread at its next pop: it wakes, takes the device once the run
//! in progress ends, and exits *without* draining — every queued job is
//! dropped, its reply slot closes unfilled, and the request lifecycle
//! fails over to a replica. A caller never takes a killed worker's job.
//!
//! A panic in the simulation is caught inside the device lock, so the
//! lock is not poisoned and the thread that ran the job — the worker's or
//! a caller's — survives. The attempt completes as
//! [`Completion::Fault`], and the replica leaves service as a kill takes
//! it.
//!
//! # Control plane
//!
//! The pin table is *dynamic*: the server can pin a new model replica
//! onto a running worker (paying a modeled weight-preload time), unpin
//! one, or insert a drain barrier — all via [`Control`] messages that
//! travel the same FIFO queue as jobs and are run by the worker's own
//! thread with the device held. A control never waits for queue room.
//! FIFO ordering is the correctness lever: an `Unpin` enqueued after the
//! routing flag is cleared drains every job already queued for the slot
//! before the model is actually dropped, so cutover loses nothing; the
//! ack slot turns any control message into a barrier. A `Pin` holds the
//! device for its whole preload window, so nothing runs on the worker
//! meanwhile, on either thread.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bw_core::{RunStats, SpanRecord};
use bw_gir::{DeployError, PinnedModel};

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
    /// Time the job waited in the queue before a device took it.
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
    /// The attempt failed in the simulator, or the simulation panicked.
    Fault {
        /// Worker that faulted.
        worker: usize,
        /// The simulator error or the panic's message.
        message: String,
    },
    /// A device took the job after its deadline had already passed.
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
    /// The attempt's reply slot, filled once when the job has run and
    /// closed unfilled if the job is dropped.
    pub reply: Fill<Completion>,
    /// When the job entered the queue (for queue-wait measurement).
    pub enqueued_at: Instant,
    /// Whether to collect NPU spans for this attempt.
    pub collect_spans: bool,
}

/// What one run of a replica returns: per-column outputs, the
/// accumulated statistics and, when traced, the NPU spans.
type RunOutcome = Result<(Vec<Vec<f32>>, RunStats, Vec<SpanRecord>), DeployError>;

/// What a device runs a job on: the replica pinned in one catalog slot.
/// A trait object, so that a test can pin a replica whose simulation
/// panics.
pub(crate) trait Replica: Send {
    /// Runs `columns` as one multi-column dispatch, collecting NPU spans
    /// when `traced`.
    fn run(&mut self, columns: &[Vec<f32>], traced: bool) -> RunOutcome;
}

impl Replica for PinnedModel {
    fn run(&mut self, columns: &[Vec<f32>], traced: bool) -> RunOutcome {
        if traced {
            self.infer_batch_traced(columns)
        } else {
            let (outputs, stats) = self.infer_batch(columns)?;
            Ok((outputs, stats, Vec::new()))
        }
    }
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
        model: Box<dyn Replica>,
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
enum Msg {
    Work(Job),
    Control(Control, Fill<()>),
    Stop,
}

/// The replicas of one worker, by catalog slot (`None` = not pinned).
type Device = Vec<Option<Box<dyn Replica>>>;

/// A worker's queue: its messages and whether its thread is parked.
struct Queue {
    /// Jobs, controls and the stop marker, in arrival order.
    items: VecDeque<Msg>,
    /// The ticket of `items[0]`: every message ever queued is numbered
    /// in arrival order.
    head: u64,
    /// Jobs in `items`: what `queue_cap` bounds.
    jobs: usize,
    /// The worker's thread waits on the condvar and no wake is on its
    /// way.
    parked: bool,
    /// The thread has exited: the queue refuses everything.
    closed: bool,
}

impl Queue {
    /// Appends `msg`, returning its ticket.
    fn push(&mut self, msg: Msg) -> u64 {
        self.jobs += usize::from(matches!(msg, Msg::Work(_)));
        self.items.push_back(msg);
        self.head + self.items.len() as u64 - 1
    }

    fn pop(&mut self) -> Option<Msg> {
        let msg = self.items.pop_front()?;
        self.head += 1;
        self.jobs -= usize::from(matches!(msg, Msg::Work(_)));
        Some(msg)
    }

    /// Whether the job numbered `ticket` is queued at the head.
    fn heads(&self, ticket: u64) -> bool {
        self.head == ticket && !self.items.is_empty()
    }

    /// Clears the `parked` flag, returning whether the thread needs a
    /// signal: it is parked and something is queued.
    fn take_wake(&mut self) -> bool {
        let wake = self.parked && !self.items.is_empty();
        self.parked &= !wake;
        wake
    }
}

/// The state a worker's thread shares with the server and with callers.
pub(crate) struct Worker {
    id: usize,
    queue: Mutex<Queue>,
    /// Signalled when a parked worker's thread has something to do.
    ready: Condvar,
    /// The one lock held while the simulator runs.
    device: Mutex<Device>,
    queue_cap: usize,
    /// Jobs queued or executing on this worker.
    pub(crate) outstanding: AtomicUsize,
    /// Cleared on kill or thread exit; routing skips dead workers.
    alive: AtomicBool,
    kill: AtomicBool,
    /// Jobs fully processed, by either thread (for tests and metrics).
    processed: AtomicU64,
    /// The subset of `processed` that a waiting caller ran.
    caller_runs: AtomicU64,
    /// This worker's client↔worker network link.
    link: LinkMetrics,
    /// Which catalog slots this worker pins (`true` = can serve). The
    /// worker sets a slot after applying a `Pin`; the server clears it
    /// *before* enqueueing an `Unpin` so routing stops first and the
    /// queue drains.
    pins: RwLock<Vec<bool>>,
    /// When each pinned slot became resident (`None` = not pinned).
    pinned_since: Mutex<Vec<Option<Instant>>>,
}

thread_local! {
    /// Workers this thread left parked with a job of its own queued.
    static OWED: RefCell<Vec<Arc<Worker>>> = const { RefCell::new(Vec::new()) };
}

/// Wakes every worker the calling thread owes a wake, except `keep`,
/// which stays owed. The executor calls it before the thread parks
/// without having run its job, dispatches to another worker, runs a job
/// itself, sleeps for the modeled network or settles a run unserved.
pub(crate) fn pay_owed_wakes(keep: Option<&WorkerHandle>) {
    OWED.with_borrow_mut(|owed| {
        owed.retain(|worker| {
            let kept = keep.is_some_and(|k| Arc::ptr_eq(&k.worker, worker));
            if !kept {
                worker.wake();
            }
            kept
        });
    });
}

impl Worker {
    /// Signals the thread if it is parked with something queued.
    fn wake(&self) {
        if self.queue.lock().unwrap().take_wake() {
            self.ready.notify_one();
        }
    }

    /// Takes the worker out of service (module doc, "Faults").
    fn kill(&self) {
        self.kill.store(true, Ordering::Release);
        self.alive.store(false, Ordering::Release);
        // The thread must wake to exit, queued work or not.
        let mut queue = self.queue.lock().unwrap();
        if std::mem::take(&mut queue.parked) {
            drop(queue);
            self.ready.notify_one();
        }
    }

    /// The one way a job runs, on the worker's thread or a caller's,
    /// with the device held and the job just popped: the expired check,
    /// the not-pinned fault, then the simulation, under `catch_unwind` so
    /// that a panic leaves the device usable and the thread alive.
    fn run(&self, device: &mut Device, job: Job) {
        let (worker, popped) = (self.id, Instant::now());
        let completion = if popped >= job.deadline {
            Completion::Expired
        } else if let Some(replica) = device.get_mut(job.model).and_then(Option::as_mut) {
            // One multi-column dispatch; a single column takes the
            // batch-1 kernel path inside it.
            let run = || replica.run(&job.columns, job.collect_spans);
            let ran = catch_unwind(AssertUnwindSafe(run));
            let done_at = Instant::now();
            match ran {
                Ok(Ok((outputs, stats, spans))) => Completion::Done(Served {
                    worker,
                    outputs,
                    queue_wait_s: (popped - job.enqueued_at).as_secs_f64(),
                    service_s: (done_at - popped).as_secs_f64(),
                    done_at,
                    stats,
                    spans,
                }),
                Ok(Err(e)) => Completion::Fault {
                    worker,
                    message: e.to_string(),
                },
                Err(panic) => {
                    // The replica's state is unknown: out of service.
                    self.kill();
                    let message = panic_message(&*panic);
                    Completion::Fault {
                        worker,
                        message: format!("the simulation panicked: {message}"),
                    }
                }
            }
        } else {
            // A mis-routed job for a slot this worker does not pin:
            // fault so the request fails over to an owner.
            Completion::Fault {
                worker,
                message: format!("model slot {} not pinned on worker {worker}", job.model),
            }
        };
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
        self.processed.fetch_add(1, Ordering::Relaxed);
        // The requester may have moved on (failover); that drops the
        // reader and this fill becomes a no-op.
        job.reply.fill(completion);
    }

    /// Applies a control operation with the device held.
    fn apply(&self, device: &mut Device, op: Control) {
        match op {
            Control::Pin {
                slot,
                model,
                preload_s,
                bytes,
            } => {
                // The device is busy streaming weights for the modeled
                // preload window, metered on its link as the window
                // opens.
                if preload_s > 0.0 {
                    if bytes > 0 {
                        self.link.record(bytes, preload_s);
                    }
                    std::thread::sleep(Duration::from_secs_f64(preload_s));
                }
                if device.len() <= slot {
                    device.resize_with(slot + 1, || None);
                }
                device[slot] = Some(model);
                {
                    let mut pins = self.pins.write().unwrap();
                    if pins.len() <= slot {
                        pins.resize(slot + 1, false);
                    }
                    pins[slot] = true;
                }
                let mut since = self.pinned_since.lock().unwrap();
                if since.len() <= slot {
                    since.resize(slot + 1, None);
                }
                since[slot] = Some(Instant::now());
            }
            Control::Unpin { slot } => {
                if let Some(replica) = device.get_mut(slot) {
                    *replica = None;
                }
                if let Some(flag) = self.pins.write().unwrap().get_mut(slot) {
                    *flag = false;
                }
                if let Some(since) = self.pinned_since.lock().unwrap().get_mut(slot) {
                    *since = None;
                }
            }
            Control::Flush => {}
        }
    }

    /// The worker's thread: park while the queue is empty, then take the
    /// device and pop, until a stop message or a kill.
    fn work(&self) {
        let device = loop {
            {
                let mut queue = self.queue.lock().unwrap();
                while queue.items.is_empty() && !self.kill.load(Ordering::Acquire) {
                    queue.parked = true;
                    queue = self.ready.wait(queue).unwrap();
                }
                queue.parked = false;
            }
            let mut device = self.device.lock().unwrap();
            let msg = {
                let mut queue = self.queue.lock().unwrap();
                if self.kill.load(Ordering::Acquire) {
                    // Killed, or retired by a panic: exit without
                    // serving or draining.
                    break device;
                }
                queue.pop()
            };
            match msg {
                Some(Msg::Work(job)) => self.run(&mut device, job),
                Some(Msg::Control(op, ack)) => {
                    self.apply(&mut device, op);
                    ack.fill(());
                }
                Some(Msg::Stop) => break device,
                // A caller took the job first.
                None => {}
            }
        };
        self.close(device);
    }

    /// Marks the worker gone and drops what is still queued, closing
    /// every queued job's reply slot and control ack unfilled.
    fn close(&self, device: MutexGuard<'_, Device>) {
        self.alive.store(false, Ordering::Release);
        let dropped = {
            let mut queue = self.queue.lock().unwrap();
            queue.closed = true;
            std::mem::take(&mut queue.items)
        };
        drop(device);
        let jobs = dropped.iter().filter(|m| matches!(m, Msg::Work(_))).count();
        self.outstanding.fetch_sub(jobs, Ordering::AcqRel);
    }
}

/// The server-side handle to one worker.
pub(crate) struct WorkerHandle {
    pub(crate) worker: Arc<Worker>,
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

impl WorkerHandle {
    /// Enqueues a job without blocking and returns its ticket, the
    /// number [`WorkerHandle::run_here`] takes. A parked worker is
    /// signalled when `wake` is set; otherwise it stays parked and the
    /// calling thread owes the wake ([`pay_owed_wakes`]).
    pub(crate) fn try_dispatch(&self, job: Job, wake: bool) -> Result<u64, DispatchRefused> {
        let worker = &self.worker;
        if !worker.alive.load(Ordering::Acquire) {
            return Err(DispatchRefused::Dead);
        }
        let mut queue = worker.queue.lock().unwrap();
        if queue.closed {
            return Err(DispatchRefused::Dead);
        }
        if queue.jobs >= worker.queue_cap {
            return Err(DispatchRefused::QueueFull);
        }
        let ticket = queue.push(Msg::Work(job));
        worker.outstanding.fetch_add(1, Ordering::AcqRel);
        let owed = queue.parked && !wake;
        let signal = wake && queue.take_wake();
        drop(queue);
        if signal {
            worker.ready.notify_one();
        } else if owed {
            OWED.with_borrow_mut(|owed| {
                if !owed.iter().any(|w| Arc::ptr_eq(w, worker)) {
                    owed.push(Arc::clone(worker));
                }
            });
        }
        Ok(ticket)
    }

    /// Runs the job numbered `ticket` on the calling thread, if it heads
    /// the queue of a live worker whose device is free; returns whether
    /// it did. The device is taken by `try_lock` under the queue lock,
    /// and the job leaves the queue only once it is held.
    pub(crate) fn run_here(&self, ticket: u64) -> bool {
        let worker = &self.worker;
        let (mut device, job) = {
            let mut queue = worker.queue.lock().unwrap();
            if !queue.heads(ticket) || worker.kill.load(Ordering::Acquire) {
                return false;
            }
            let device = match worker.device.try_lock() {
                Ok(device) => device,
                Err(TryLockError::WouldBlock) => return false,
                Err(TryLockError::Poisoned(e)) => panic!("{e}"),
            };
            let Some(Msg::Work(job)) = queue.pop() else {
                unreachable!("a ticket numbers a job");
            };
            (device, job)
        };
        // Whatever else this thread queued runs meanwhile.
        pay_owed_wakes(Some(self));
        worker.caller_runs.fetch_add(1, Ordering::Relaxed);
        worker.run(&mut device, job);
        true
    }

    /// Signals the worker's thread if it is parked with something
    /// queued.
    pub(crate) fn wake(&self) {
        self.worker.wake();
    }

    /// Jobs queued or executing.
    pub(crate) fn queue_depth(&self) -> usize {
        self.worker.outstanding.load(Ordering::Acquire)
    }

    /// Whether the worker accepts work.
    pub(crate) fn is_alive(&self) -> bool {
        self.worker.alive.load(Ordering::Acquire)
    }

    /// Jobs this worker has fully processed, on either thread.
    pub(crate) fn processed_count(&self) -> u64 {
        self.worker.processed.load(Ordering::Relaxed)
    }

    /// Jobs a waiting caller ran on this worker's device.
    pub(crate) fn caller_runs(&self) -> u64 {
        self.worker.caller_runs.load(Ordering::Relaxed)
    }

    /// This worker's client↔worker network link.
    pub(crate) fn link(&self) -> &LinkMetrics {
        &self.worker.link
    }

    /// Whether this worker pins catalog slot `model`.
    pub(crate) fn pins(&self, model: usize) -> bool {
        let pins = self.worker.pins.read().unwrap();
        pins.get(model).copied().unwrap_or(false)
    }

    /// Clears the routing flag for `slot` immediately, so no new work is
    /// dispatched there while an `Unpin` drains the queue behind it.
    pub(crate) fn clear_pin(&self, slot: usize) {
        let mut pins = self.worker.pins.write().unwrap();
        if let Some(flag) = pins.get_mut(slot) {
            *flag = false;
        }
    }

    /// `(slot, resident_for)` for every model currently pinned here, in
    /// slot order.
    pub(crate) fn resident_slots(&self) -> Vec<(usize, Duration)> {
        let now = Instant::now();
        self.worker
            .pinned_since
            .lock()
            .unwrap()
            .iter()
            .enumerate()
            .filter_map(|(slot, since)| since.map(|t| (slot, now.saturating_duration_since(t))))
            .collect()
    }

    /// Queues a message whatever the queue's fill and wakes the thread;
    /// `false` once the thread has exited.
    fn send(&self, msg: Msg) -> bool {
        let mut queue = self.worker.queue.lock().unwrap();
        if queue.closed {
            return false;
        }
        queue.push(msg);
        let signal = queue.take_wake();
        drop(queue);
        if signal {
            self.worker.ready.notify_one();
        }
        true
    }

    /// Sends a control message and blocks until the worker acks it —
    /// i.e. until everything queued ahead of it has been served. Returns
    /// whether it was acked: `false` if the worker is dead (or dies
    /// mid-wait).
    pub(crate) fn control(&self, op: Control) -> bool {
        let (ack, ack_slot) = reply_slot();
        if !self.is_alive() || !self.send(Msg::Control(op, ack)) {
            return false;
        }
        // The ack may wait behind jobs this thread queued elsewhere.
        pay_owed_wakes(None);
        ack_slot.wait().is_ok()
    }

    /// Injects a fault: the worker stops accepting work immediately and
    /// its thread exits at the next queue pop, dropping queued jobs.
    pub(crate) fn kill(&self) {
        self.worker.kill();
    }

    /// Graceful shutdown: asks the thread to stop after the work already
    /// queued, then joins it. Safe to call on killed workers, whose
    /// thread exits without the stop message.
    pub(crate) fn stop_and_join(&self) {
        self.send(Msg::Stop);
        if let Some(handle) = self.join.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

/// Spawns a worker that serves `models` (slot order; `None` = not
/// pinned) from a bounded queue of `queue_cap` jobs.
pub(crate) fn spawn_worker(
    id: usize,
    models: Vec<Option<PinnedModel>>,
    queue_cap: usize,
) -> WorkerHandle {
    let now = Instant::now();
    let pins = models.iter().map(Option::is_some).collect();
    let since = models.iter().map(|m| m.as_ref().map(|_| now)).collect();
    let device = models
        .into_iter()
        .map(|m| m.map(|m| Box::new(m) as Box<dyn Replica>))
        .collect();
    let queue_cap = queue_cap.max(1);
    let worker = Arc::new(Worker {
        id,
        queue: Mutex::new(Queue {
            // Room for a full queue of jobs plus a control and a stop.
            items: VecDeque::with_capacity(queue_cap + 2),
            head: 0,
            jobs: 0,
            parked: false,
            closed: false,
        }),
        ready: Condvar::new(),
        device: Mutex::new(device),
        queue_cap,
        outstanding: AtomicUsize::new(0),
        alive: AtomicBool::new(true),
        kill: AtomicBool::new(false),
        processed: AtomicU64::new(0),
        caller_runs: AtomicU64::new(0),
        link: LinkMetrics::default(),
        pins: RwLock::new(pins),
        pinned_since: Mutex::new(since),
    });
    let thread = Arc::clone(&worker);
    let join = std::thread::Builder::new()
        .name(format!("bw-serve-worker-{id}"))
        .spawn(move || thread.work())
        .expect("worker thread spawns");
    WorkerHandle {
        worker,
        join: Mutex::new(Some(join)),
    }
}

/// The message a panic was raised with, when it is a string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "a non-string payload"
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::demo::{demo_input, mlp_artifact};
    use crate::reply_slot::{ReplySlot, Unfilled};
    use std::time::Duration;

    /// Long enough that a job left queued fails the test rather than
    /// reading its outcome by luck.
    const BOUND: Duration = Duration::from_secs(10);

    fn bound() -> Option<Instant> {
        Some(Instant::now() + BOUND)
    }
    /// A preload window: long enough for the test to act inside it.
    const STALL: Duration = Duration::from_millis(200);

    /// A replica whose simulation panics.
    pub(crate) struct Panics;

    impl Replica for Panics {
        fn run(&mut self, _: &[Vec<f32>], _: bool) -> RunOutcome {
            panic!("injected simulator panic")
        }
    }

    /// A replica that sleeps for `.0` before each run of `.1`.
    pub(crate) struct Slow(pub(crate) Duration, pub(crate) PinnedModel);

    impl Replica for Slow {
        fn run(&mut self, columns: &[Vec<f32>], traced: bool) -> RunOutcome {
            std::thread::sleep(self.0);
            self.1.run(columns, traced)
        }
    }

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

    /// Queues one job, waking a parked worker only when `wake` is set.
    fn dispatch(w: &WorkerHandle, wake: bool) -> (u64, ReplySlot<Completion>) {
        let (tx, rx) = reply_slot();
        (w.try_dispatch(job(tx), wake).unwrap(), rx)
    }

    /// Whether the worker's thread waits on its queue's condvar.
    pub(crate) fn parked(w: &WorkerHandle) -> bool {
        w.worker.queue.lock().unwrap().parked
    }

    /// Returns once the worker's thread waits on an empty queue.
    pub(crate) fn until_parked(w: &WorkerHandle) {
        let start = Instant::now();
        while !parked(w) {
            assert!(start.elapsed() < BOUND, "the worker never parked");
            std::thread::yield_now();
        }
    }

    /// Holds the worker's device for [`STALL`] with a pin of a second
    /// replica. Returns once the worker has taken the pin off its queue.
    fn stall(w: &Arc<WorkerHandle>) -> std::thread::JoinHandle<()> {
        let pin = {
            let w = Arc::clone(w);
            std::thread::spawn(move || {
                let model = mlp_artifact("aux", &[16, 8], 1).pin().unwrap();
                let _ = w.control(Control::Pin {
                    slot: 1,
                    model: Box::new(model),
                    preload_s: STALL.as_secs_f64(),
                    bytes: 1,
                });
            })
        };
        // The worker meters the preload on its link as it takes the pin.
        let start = Instant::now();
        while w.link().transfers.load(Ordering::Relaxed) == 0 {
            assert!(start.elapsed() < BOUND, "the stall's pin never ran");
            std::thread::yield_now();
        }
        pin
    }

    #[test]
    fn worker_serves_jobs() {
        let w = worker_with(4);
        let (_, rx) = dispatch(&w, true);
        match rx.wait_until(bound()).unwrap() {
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
        assert_eq!(w.processed_count(), 1);
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
        w.try_dispatch(j, true).unwrap();
        match rx.wait_until(bound()).unwrap() {
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
        w.try_dispatch(j, true).unwrap();
        assert!(matches!(
            rx.wait_until(bound()).unwrap(),
            Completion::Expired
        ));
        w.stop_and_join();
    }

    #[test]
    fn killed_worker_refuses_and_drops_queued_jobs() {
        let w = worker_with(8);
        // Queue several jobs, then kill: queued replies must disconnect
        // (or complete, if the worker raced past them before the kill).
        let receivers: Vec<_> = (0..4).map(|_| dispatch(&w, true).1).collect();
        w.kill();
        assert!(!w.is_alive());
        let (tx, _rx) = reply_slot();
        assert_eq!(w.try_dispatch(job(tx), true), Err(DispatchRefused::Dead));
        for rx in receivers {
            match rx.wait_until(bound()) {
                Ok(_) | Err(Unfilled::Disconnected) => {}
                Err(e) => panic!("queued job left hanging: {e:?}"),
            }
        }
        w.stop_and_join();
    }

    #[test]
    fn full_queue_refuses_with_queue_full() {
        let w = worker_with(1);
        // The worker may already be executing the first job; keep
        // dispatching, one reply slot per job, until the bounded queue
        // refuses.
        let mut accepted: Vec<ReplySlot<Completion>> = Vec::new();
        let mut refused = None;
        for _ in 0..16 {
            let (tx, rx) = reply_slot();
            match w.try_dispatch(job(tx), true) {
                Ok(_) => accepted.push(rx),
                Err(r) => {
                    refused = Some(r);
                    break;
                }
            }
        }
        assert_eq!(refused, Some(DispatchRefused::QueueFull));
        for rx in accepted {
            assert!(matches!(rx.wait_until(bound()), Ok(Completion::Done(_))));
        }
        w.stop_and_join();
    }

    #[test]
    fn a_waiter_whose_job_heads_a_parked_queue_runs_it_itself() {
        let w = worker_with(4);
        until_parked(&w);
        let (ticket, rx) = dispatch(&w, false);
        assert!(parked(&w), "an unwoken dispatch leaves the worker parked");
        assert!(w.run_here(ticket));
        // Done before any wait: the caller ran it.
        assert!(matches!(rx.try_take(), Ok(Completion::Done(_))));
        assert!(parked(&w), "the worker's thread never woke");
        assert_eq!((w.processed_count(), w.caller_runs()), (1, 1));
        assert_eq!(w.queue_depth(), 0);
        assert!(!w.run_here(ticket), "a job runs once");
        w.stop_and_join();
    }

    #[test]
    fn no_caller_runs_behind_a_job_or_a_pin_in_its_preload_window() {
        let w = Arc::new(worker_with(4));
        until_parked(&w);
        let (_, first) = dispatch(&w, false);
        let (second_ticket, second) = dispatch(&w, false);
        assert!(
            !w.run_here(second_ticket),
            "the second job is behind the first"
        );
        w.wake();
        for rx in [first, second] {
            assert!(matches!(rx.wait_until(bound()), Ok(Completion::Done(_))));
        }
        assert_eq!((w.processed_count(), w.caller_runs()), (2, 0));

        let pin = stall(&w);
        let (ticket, rx) = dispatch(&w, false);
        assert!(!w.run_here(ticket), "the pin holds the device");
        match rx.wait_until(bound()) {
            Ok(Completion::Done(served)) => {
                // Queue wait runs until a device takes the job: here, the
                // end of the preload window.
                assert!(served.queue_wait_s >= STALL.as_secs_f64() / 2.0);
                assert!(served.service_s < served.queue_wait_s);
            }
            other => panic!("unexpected completion {other:?}"),
        }
        pin.join().unwrap();
        assert!(w.pins(1), "the pin landed");
        assert_eq!((w.processed_count(), w.caller_runs()), (3, 0));
        w.stop_and_join();
    }

    #[test]
    fn a_killed_workers_queued_unwoken_job_reads_disconnected() {
        let w = worker_with(4);
        until_parked(&w);
        let (ticket, rx) = dispatch(&w, false);
        w.kill();
        assert!(
            !w.run_here(ticket),
            "a caller never takes a killed worker's job"
        );
        assert_eq!(rx.wait_until(bound()).err(), Some(Unfilled::Disconnected));
        w.stop_and_join();
        assert_eq!(w.queue_depth(), 0);
    }

    #[test]
    fn paying_an_owed_wake_frees_a_one_deep_queue() {
        let w = worker_with(1);
        until_parked(&w);
        let (_, rx) = dispatch(&w, false);
        drop(rx);
        let (tx, _rx) = reply_slot();
        assert_eq!(
            w.try_dispatch(job(tx), false),
            Err(DispatchRefused::QueueFull)
        );
        // What a dropped `Pending` does as it settles.
        pay_owed_wakes(None);
        let start = Instant::now();
        while w.queue_depth() > 0 {
            assert!(start.elapsed() < BOUND, "the owed wake was never paid");
            std::thread::yield_now();
        }
        let (_, rx) = dispatch(&w, true);
        assert!(matches!(rx.wait_until(bound()), Ok(Completion::Done(_))));
        assert_eq!(w.caller_runs(), 0);
        w.stop_and_join();
    }

    #[test]
    fn a_job_counts_against_queue_cap_until_a_device_takes_it() {
        let w = Arc::new(worker_with(1));
        let pin = stall(&w);
        let (_, queued) = dispatch(&w, true);
        // However long the device stays busy, the queued job holds the
        // one place.
        std::thread::sleep(STALL / 4);
        let (tx, _rx) = reply_slot();
        assert_eq!(
            w.try_dispatch(job(tx), true),
            Err(DispatchRefused::QueueFull)
        );
        assert_eq!(w.queue_depth(), 1);
        assert!(matches!(
            queued.wait_until(bound()),
            Ok(Completion::Done(_))
        ));
        pin.join().unwrap();
        w.stop_and_join();
    }

    #[test]
    fn a_panicking_simulation_faults_the_attempt_and_retires_the_replica() {
        for caller_runs in [true, false] {
            let w = worker_with(4);
            assert!(w.control(Control::Pin {
                slot: 0,
                model: Box::new(Panics),
                preload_s: 0.0,
                bytes: 0,
            }));
            until_parked(&w);
            let (ticket, rx) = dispatch(&w, !caller_runs);
            if caller_runs {
                assert!(w.run_here(ticket), "the caller survives the panic");
            }
            match rx.wait_until(bound()) {
                Ok(Completion::Fault { worker, message }) => {
                    assert_eq!(worker, 0);
                    assert!(message.contains("injected simulator panic"), "{message}");
                }
                other => panic!("unexpected completion {other:?}"),
            }
            assert!(!w.is_alive(), "the replica left service");
            assert!(!w.worker.device.is_poisoned());
            let handle = w.join.lock().unwrap().take().unwrap();
            assert!(handle.join().is_ok(), "the worker's thread exited cleanly");
            assert_eq!(w.caller_runs(), u64::from(caller_runs));
        }
    }
}
