//! The serving runtime: a pool of NPU-backed workers behind a routing
//! policy, and the one request executor that drives every request shape.
//!
//! One [`Server`] is one published pool of hardware-microservice
//! instances (§II-A). This module holds the configuration, the builder
//! and the shared pool state; `control` holds the runtime control plane
//! (pin / unpin / drain / register / kill); `executor` holds the request
//! path. This page is the one description of that path — DESIGN.md and
//! ARCHITECTURE.md link here instead of restating it.
//!
//! # Plans, stages, legs
//!
//! The pool serves one kind of request: *run these columns on a worker
//! that pins this model, over the datacenter network*. Every published
//! name resolves to a [`Plan`]: an ordered list of **stages**, each
//! stage one or more **legs**, a leg being "run the stage's input
//! columns on a worker that pins catalog slot `S`". The request shapes
//! are sizes of the same thing, and a window of N member requests
//! ([`Client::call_batch`]) is one run of its plan with N columns:
//!
//! | shape | stages | legs per stage | columns |
//! |---|---|---|---|
//! | single (batch-1, the BW default) | 1 | 1 | 1 |
//! | batched (a coalesced window of N member requests) | 1 | 1 | N |
//! | sharded (a model partitioned across workers) | segments | K shards | 1 |
//! | coalesced shard group | segments | K shards | N |
//!
//! A whole model's plan is one leg on its own slot. A shard group
//! ([`ServerBuilder::sharded_model`]) gets one stage per scatter/gather
//! segment and one leg per shard; shard `k` of a `K`-wide segment pins
//! on the workers with `w % K == k`, so a stage's legs land on distinct
//! workers. Row sharding keeps the gathered result bit-identical to
//! single-device execution because BFP block exponents are shared only
//! along a row's column blocks.
//!
//! # Lifecycle
//!
//! 1. **resolve** — one catalog read maps the name to its plan (metrics
//!    row, static bound, input width, stages) and copies the network
//!    model the run routes and charges by. Unknown names, wrong
//!    input widths and deadlines below the static bound are rejected
//!    here, before anything is counted.
//! 2. **admit** — every member request gets an id and an absolute
//!    `(arrived_at, deadline_at)`, counts `submitted`, and stage 0 is
//!    scattered at once: if every candidate queue is full the request is
//!    *shed*, if no live worker pins a leg's slot it fails `NoReplica`.
//! 3. **leg driver** — the only wait loop. When the attempt's job heads
//!    an idle device's queue, the driver runs it on its own thread
//!    first. A reply that is then in — run here, or already by another
//!    thread — is taken without waking anything; otherwise the driver
//!    pays the thread's owed wakes (the wake rule, below) and parks. It
//!    waits on a leg's reply slot for the attempt timeout or the
//!    remaining deadline, whichever is sooner; on worker fault, worker
//!    death or attempt timeout it re-dispatches the leg to a worker that
//!    has not tried it (each attempt has a fresh slot, so
//!    an abandoned attempt's completion is dropped unseen), at most
//!    `max_retries` times per leg.
//! 4. **stage finisher** — once every leg of the stage is in, charges
//!    the network (rule below), concatenates the legs' outputs column by
//!    column in leg order, and scatters the next stage with the result.
//! 5. **request finisher** — terminal accounting, attribution, trace
//!    retention and the responses, once, for every member.
//!
//! # The accounting rule
//!
//! Every admitted member request terminates exactly once as completed,
//! shed or failed on its plan's metrics row, so `completed + shed +
//! failed == submitted` once nothing is in flight. Shedding is an
//! admission outcome only: a full pool met after stage 0 is a failure. A
//! `Pending` dropped unwaited counts as failed. Shard legs keep the same
//! identity on their member rows: a leg counts `submitted` when
//! scattered, `completed` when its attempt is accepted, and `failed`
//! when the request ends first — one leg, one count, however many
//! columns it carries. The N members of one coalesced leg split
//! its NPU counters into exact integer shares (remainders to the
//! earliest members) and its service and network time evenly, so the
//! per-model totals equal the dispatch totals.
//!
//! # The network-charging rule
//!
//! A leg crosses its worker's link as one request message and one
//! response message, however many columns it carries: each direction
//! pays the [`NetworkModel`]'s per-message hop once plus serialization
//! of all its bytes, metered on the per-link counters. The legs of a
//! stage travel in parallel, so the stage is delivered when its slowest
//! leg is — the executor sleeps until then, which makes measured latency
//! include the modeled network — and the request is charged that
//! slowest leg per stage. A down link makes its worker unreachable.
//!
//! # The late-response rule
//!
//! A response delivered at or after its member's `deadline_at` is not a
//! completion: the member fails `DeadlineExceeded`, counts `failed`, and
//! tail sampling keeps its trace — whatever the shape, and whether the
//! time went to queueing, execution, a coalescing hold or the modeled
//! network.
//!
//! # The staleness rule
//!
//! A run reads the clock once per stage boundary and carries the
//! reading, its *stamp*, instead of reading again. Admission's stamp is
//! the arrival epoch, the deadline's start and the first dispatch. A
//! device stamps a job when it takes it and when the run ends. The leg
//! driver stamps a reply another thread produced as it takes it, and a
//! modeled-network sleep stamps its end. Only the leg driver's check
//! before it looks at a reply may use a stale stamp (admission's, or
//! the previous reply's), so a wait that begins after the deadline goes
//! on to the reply. A lapsed request is still caught, because the two
//! checks that decide its outcome read fresh stamps: a device that
//! takes the job past its deadline reports it expired, and the late-
//! response check reads a stamp taken after the work (the run's end
//! when the finishing thread ran the last leg, else its receipt). A
//! wait that must park reads the clock to bound the park, so no park
//! outlasts the deadline.
//!
//! # The wake rule
//!
//! A job runs on its worker's thread or on the thread waiting for it,
//! through one function (the `worker` module). A dispatch to a parked
//! worker wakes it at once, except for the last leg of a stage and a
//! failover's re-dispatch: the leg driver comes to those next, so the
//! dispatching thread *owes* the wake instead. A thread pays every wake
//! it owes before it parks without having run its job, parks on a
//! control's ack, dispatches to another worker, runs a job itself,
//! sleeps for the modeled network, or settles a run unserved (a shed, a
//! failure, a dropped `Pending`). So a stage's legs run side by side,
//! and a request sent to an idle replica starts no later than the first
//! of: its submitter's next park, its next dispatch to another worker, a
//! modeled-network sleep, or the drop of its `Pending`.
//!
//! # The locking rule
//!
//! This rule holds for every lock in the workspace. A lock guards plain
//! data, and no caller code runs under a write guard. One lock is held
//! while the simulator runs: a worker's *device*, the mutex over its
//! pinned models. A caller takes a device only by `try_lock` under that
//! worker's queue lock, and a job leaves the queue only with the device
//! held; the worker's own thread takes the device before the queue
//! lock, so no two threads wait on each other's order. Pin (with its
//! preload window), unpin, drain and the kill's exit run with the device
//! held, so they serialize with runs on either thread. A panic in the
//! simulation is caught inside the device lock and faults the attempt,
//! so it poisons nothing. A poisoned lock therefore means a panic in the
//! middle of an update, which is a bug: `lock()`, `read()`, `write()`
//! and condvar waits are `.unwrap()`ed, and the panic propagates.

mod control;
mod executor;
mod few;

pub use control::{PinError, Server};
pub use executor::{BatchItem, Client, Pending};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use bw_gir::{ModelArtifact, ShardedArtifact};
use bw_system::{NetworkModel, PreloadModel, Routing};

use crate::metrics::{snapshot_model, LinkMetrics, MetricsSnapshot, ModelMetrics, ModelResidency};
use crate::request::{RequestId, RequestTrace, ServeError};
use crate::router::Router;
use crate::worker::{spawn_worker, WorkerHandle};

/// Request traces the log keeps before it drops the oldest.
const TRACE_LOG_CAP: usize = 256;

/// Tunables of one server pool, each documented on the [`ServerBuilder`]
/// method that sets it.
pub(crate) struct ServerConfig {
    pub(crate) replicas: usize,
    pub(crate) queue_cap: usize,
    pub(crate) policy: Routing,
    pub(crate) max_retries: u32,
    pub(crate) attempt_timeout: Option<Duration>,
    pub(crate) trace_sample: u64,
    pub(crate) preload: PreloadModel,
    pub(crate) tail_sample: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            replicas: 2,
            queue_cap: 32,
            policy: Routing::RoundRobin,
            max_retries: 1,
            attempt_timeout: None,
            trace_sample: 0,
            preload: PreloadModel::free(),
            tail_sample: None,
        }
    }
}

/// Error produced when a registration would publish a name twice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// The name already addresses a model, a shard-group member or a
    /// shard group.
    Duplicate(
        /// The colliding name.
        String,
    ),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Duplicate(name) => write!(f, "model `{name}` is already registered"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Error produced while spawning a server.
#[derive(Debug)]
pub enum SpawnError {
    /// The builder had no registered models.
    NoModels,
    /// A model name collided.
    Registry(RegistryError),
    /// Pinning an artifact onto a worker failed.
    Pin {
        /// The model that failed to pin.
        model: String,
        /// The deployment error.
        error: bw_gir::DeployError,
    },
    /// The configuration is unusable (zero replicas or queue capacity).
    BadConfig(
        /// What is wrong.
        String,
    ),
    /// A declared SLA budget is provably unmeetable: the model's static
    /// cycle lower bound already exceeds it, so no request could ever
    /// finish in time. Spawn refuses to pin the model.
    SlaUnmeetable {
        /// The model whose budget cannot be met.
        model: String,
        /// The static lower bound on one inference, in microseconds.
        bound_us: u64,
        /// The declared budget, in microseconds.
        budget_us: u64,
    },
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::NoModels => write!(f, "no models registered"),
            SpawnError::Registry(e) => write!(f, "{e}"),
            SpawnError::Pin { model, error } => write!(f, "pinning `{model}` failed: {error}"),
            SpawnError::BadConfig(msg) => write!(f, "bad config: {msg}"),
            SpawnError::SlaUnmeetable {
                model,
                bound_us,
                budget_us,
            } => write!(
                f,
                "sla unmeetable: `{model}` has a static lower bound of \
                 {bound_us}us against a {budget_us}us budget"
            ),
        }
    }
}

impl std::error::Error for SpawnError {}

impl From<RegistryError> for SpawnError {
    fn from(e: RegistryError) -> Self {
        SpawnError::Registry(e)
    }
}

/// Whether `trace_sample` head sampling selects this request for the
/// trace log.
fn head_sampled(cfg: &ServerConfig, request_id: RequestId) -> bool {
    cfg.trace_sample > 0 && request_id.is_multiple_of(cfg.trace_sample)
}

/// Ceil-converts a cycle count into whole microseconds on `clock_hz`.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn cycles_to_us_ceil(cycles: u64, clock_hz: f64) -> u64 {
    #[allow(clippy::cast_precision_loss)]
    let us = (cycles as f64) * 1e6 / clock_hz;
    if !us.is_finite() {
        return u64::MAX;
    }
    us.ceil() as u64
}

/// One leg of a plan stage: run the stage's input columns on a worker
/// that pins `slot`.
pub(crate) struct Leg {
    /// The catalog slot (worker-side pin index) the leg runs on.
    slot: usize,
    /// The slot's device clock, for stamping `NetTransfer` spans.
    clock_hz: f64,
    /// The member model's own metrics row when the leg is a shard of a
    /// group; `None` when the leg is the plan's whole model, whose row
    /// is the plan's.
    member: Option<Arc<ModelMetrics>>,
}

/// What a published name resolves to: everything the executor needs to
/// validate, admit, run and account a request, fixed at registration.
pub(crate) struct Plan {
    /// The published name.
    pub(crate) name: String,
    /// The name's metrics row.
    metrics: Arc<ModelMetrics>,
    /// Static lower bound on one inference in microseconds (`None`
    /// where no bound is provable): stage bounds add, and a stage takes
    /// its slowest leg — the gather waits on it.
    bound_us: Option<u64>,
    /// Input width one request consumes.
    pub(crate) input_dim: usize,
    /// The legs to run, stage by stage.
    pub(crate) stages: Vec<Vec<Leg>>,
}

impl Plan {
    /// The one-leg plan of a whole model; [`Catalog::add_model`] sets
    /// the leg's slot.
    pub(crate) fn for_model(artifact: &ModelArtifact) -> Plan {
        let clock_hz = artifact.config().clock_hz();
        Plan {
            name: artifact.name().to_owned(),
            metrics: Arc::new(ModelMetrics::default()),
            bound_us: artifact
                .static_bounds()
                .map(|b| cycles_to_us_ceil(b.lower, clock_hz)),
            input_dim: artifact.input_dim(),
            stages: vec![vec![Leg {
                slot: 0,
                clock_hz,
                member: None,
            }]],
        }
    }

    /// Pre-admission validation: the input must have the plan's width,
    /// and a deadline budget the static lower bound already exceeds is
    /// dead on arrival. Neither rejection is counted as submitted.
    fn check(&self, input_len: usize, budget: Duration) -> Result<(), ServeError> {
        if input_len != self.input_dim {
            return Err(ServeError::BadInput {
                expected: self.input_dim,
                got: input_len,
            });
        }
        let budget_us = u64::try_from(budget.as_micros()).unwrap_or(u64::MAX);
        match self.bound_us {
            Some(bound_us) if bound_us > budget_us => Err(ServeError::SlaUnmeetable {
                model: self.name.clone(),
                bound_us,
                budget_us,
            }),
            _ => Ok(()),
        }
    }
}

/// The published catalog: the artifacts workers pin, by slot, one
/// resolved [`Plan`] per published name, and the live network model.
/// Kept under one lock so a reader never sees a model without its plan,
/// and a request reads its plan and its network in one read.
///
/// A slot holds a whole model or one member of a shard group (named
/// `model#g0s1`, `model#seg0`, …, by [`ShardedArtifact::compile`]), in
/// registration order. A group's plan is the only record of which slots
/// are its members.
#[derive(Default)]
pub(crate) struct Catalog {
    /// What workers pin, by slot.
    pub(crate) artifacts: Vec<Arc<ModelArtifact>>,
    /// One plan per slot, in slot order; grows with
    /// [`Server::register_model`].
    models: Vec<Arc<Plan>>,
    /// One plan per shard group, fixed at spawn.
    groups: Vec<Arc<Plan>>,
    /// The live network model. Replaceable at runtime
    /// ([`Server::set_network`]) so a fleet controller can inject and
    /// repair link faults while traffic flows.
    network: NetworkModel,
}

impl Catalog {
    /// Every plan, in metrics-row order: slots, then groups.
    pub(crate) fn plans(&self) -> impl Iterator<Item = &Arc<Plan>> {
        self.models.iter().chain(&self.groups)
    }

    /// The slot of the model or member published as `name`.
    pub(crate) fn slot_of(&self, name: &str) -> Option<usize> {
        self.models.iter().position(|p| p.name == name)
    }

    /// `(shard ordinal, segment width)` of a group member's slot; `None`
    /// for a whole model.
    pub(crate) fn member_of(&self, slot: usize) -> Option<(usize, usize)> {
        let mut stages = self.groups.iter().flat_map(|g| &g.stages);
        stages.find_map(|legs| {
            let k = legs.iter().position(|leg| leg.slot == slot)?;
            Some((k, legs.len()))
        })
    }

    /// Publishes `artifact` in the next slot under `plan` (its
    /// [`Plan::for_model`]), returning the slot.
    pub(crate) fn add_model(
        &mut self,
        artifact: ModelArtifact,
        mut plan: Plan,
    ) -> Result<usize, RegistryError> {
        if self.plans().any(|p| p.name == plan.name) {
            return Err(RegistryError::Duplicate(plan.name));
        }
        let slot = self.artifacts.len();
        plan.stages[0][0].slot = slot;
        self.artifacts.push(Arc::new(artifact));
        self.models.push(Arc::new(plan));
        Ok(slot)
    }

    /// Publishes a sharded model: every member takes the next slot, and
    /// the group name resolves to one stage per segment with one leg per
    /// member. Nothing is published if the group name or any member name
    /// is taken.
    pub(crate) fn add_group(&mut self, sharded: &ShardedArtifact) -> Result<(), RegistryError> {
        let members = sharded.segments().iter().flat_map(|s| s.members());
        let mut names = std::iter::once(sharded.name()).chain(members.map(ModelArtifact::name));
        if let Some(taken) = names.find(|&n| self.plans().any(|p| p.name == n)) {
            return Err(RegistryError::Duplicate(taken.to_owned()));
        }
        let mut stages = Vec::with_capacity(sharded.segments().len());
        // Stage bounds add; a stage waits on its slowest leg.
        let mut bound_us = Some(0u64);
        for segment in sharded.segments() {
            let mut legs = Vec::with_capacity(segment.width());
            let mut slowest = Some(0u64);
            for member in segment.members() {
                let slot = self.add_model(member.clone(), Plan::for_model(member))?;
                let own = &self.models[slot];
                slowest = slowest.zip(own.bound_us).map(|(s, b)| s.max(b));
                legs.push(Leg {
                    slot,
                    clock_hz: own.stages[0][0].clock_hz,
                    member: Some(Arc::clone(&own.metrics)),
                });
            }
            bound_us = bound_us.zip(slowest).map(|(t, s)| t.saturating_add(s));
            stages.push(legs);
        }
        self.groups.push(Arc::new(Plan {
            name: sharded.name().to_owned(),
            metrics: Arc::new(ModelMetrics::default()),
            bound_us,
            input_dim: sharded.input_dim(),
            stages,
        }));
        Ok(())
    }
}

pub(crate) struct ServerInner {
    /// The published artifacts, their plans and the network. Behind a
    /// lock because models can be registered at runtime
    /// ([`Server::register_model`]) and the network replaced; shard
    /// groups are fixed at spawn.
    catalog: RwLock<Catalog>,
    workers: Vec<WorkerHandle>,
    router: Router,
    cfg: ServerConfig,
    next_id: AtomicU64,
    /// Kept request traces (head- and tail-sampled), oldest first,
    /// bounded at [`TRACE_LOG_CAP`].
    trace_log: Mutex<VecDeque<RequestTrace>>,
    /// Extra Prometheus renderers appended to the server's own
    /// exposition — how higher layers (fleet counters, SLO/alert gauges)
    /// publish through the one TAG_PROM scrape target. Each must render
    /// a complete, valid text exposition with family names disjoint from
    /// every other contributor's.
    extra_prom: RwLock<Vec<Arc<dyn Fn() -> String + Send + Sync>>>,
}

impl ServerInner {
    fn next_request_id(&self) -> RequestId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// A copy of the live network model.
    fn network(&self) -> NetworkModel {
        self.catalog.read().unwrap().network
    }

    /// The plan published as `name` (whole models and shard groups
    /// alike) and a copy of the live network model: the one catalog
    /// read of a request.
    fn resolve(&self, name: &str) -> Option<(Arc<Plan>, NetworkModel)> {
        let catalog = self.catalog.read().unwrap();
        let plan = catalog.plans().find(|p| p.name == name)?;
        Some((Arc::clone(plan), catalog.network))
    }

    /// Every plan, in metrics-row order.
    fn plans(&self) -> Vec<Arc<Plan>> {
        self.catalog.read().unwrap().plans().cloned().collect()
    }

    /// The one reading of worker, link and model state that every export
    /// renders (see [`crate::metrics`]).
    fn snapshot(&self) -> MetricsSnapshot {
        let (plans, slots) = {
            let catalog = self.catalog.read().unwrap();
            let plans: Vec<Arc<Plan>> = catalog.plans().cloned().collect();
            (plans, catalog.models.len())
        };
        // Residency: the name and pin age of every slot a worker pins.
        let resident = |w: &WorkerHandle| {
            let pins = w.resident_slots().into_iter();
            let pins = pins.filter_map(|(slot, age)| {
                Some(ModelResidency {
                    model: plans[..slots].get(slot)?.name.clone(),
                    pinned_for_s: age.as_secs_f64(),
                })
            });
            pins.collect()
        };
        let links = |read: fn(&LinkMetrics) -> &AtomicU64| {
            let counts = self
                .workers
                .iter()
                .map(|w| read(w.link()).load(Ordering::Relaxed));
            counts.collect::<Vec<u64>>()
        };
        let workers = self.workers.iter();
        MetricsSnapshot {
            models: plans
                .iter()
                .map(|p| snapshot_model(&p.name, &p.metrics))
                .collect(),
            queue_depths: workers.clone().map(WorkerHandle::queue_depth).collect(),
            workers_alive: workers.clone().map(WorkerHandle::is_alive).collect(),
            worker_processed: workers.clone().map(WorkerHandle::processed_count).collect(),
            worker_caller_runs: workers.clone().map(WorkerHandle::caller_runs).collect(),
            worker_models: workers.map(resident).collect(),
            link_transfers: links(|l| &l.transfers),
            link_bytes: links(|l| &l.bytes),
            link_busy_s: links(|l| &l.busy_ns)
                .into_iter()
                .map(|ns| ns as f64 * 1e-9)
                .collect(),
        }
    }

    fn prometheus(&self) -> String {
        let mut text = self.snapshot().to_prometheus();
        for render in self.extra_prom.read().unwrap().iter() {
            text.push_str(&render());
        }
        text
    }

    /// Meters one modeled message of `bytes` over worker `worker`'s link
    /// and returns its modeled seconds (a degraded link multiplies the
    /// cost).
    fn charge_leg(&self, net: &NetworkModel, worker: usize, bytes: usize) -> f64 {
        let s = net.one_way_on(worker, bytes);
        self.workers[worker].link().record(bytes, s);
        s
    }
}

/// Builds a [`Server`]: register models, set the pool shape, spawn.
#[derive(Default)]
pub struct ServerBuilder {
    catalog: Catalog,
    cfg: ServerConfig,
    registry_error: Option<RegistryError>,
    sla_budgets: Vec<(String, Duration)>,
    placements: Vec<(String, Vec<usize>)>,
}

impl ServerBuilder {
    /// Registers a model artifact.
    pub fn model(mut self, artifact: ModelArtifact) -> Self {
        if self.registry_error.is_none() {
            let plan = Plan::for_model(&artifact);
            self.registry_error = self.catalog.add_model(artifact, plan).err();
        }
        self
    }

    /// Registers a sharded model: its member artifacts pin on disjoint
    /// owner sets and a request for the group name runs scatter/gather
    /// across them. Requires `replicas >=` the group's widest segment at
    /// spawn.
    pub fn sharded_model(mut self, sharded: ShardedArtifact) -> Self {
        if self.registry_error.is_none() {
            self.registry_error = self.catalog.add_group(&sharded).err();
        }
        self
    }

    /// Declares a deadline budget the server must prove `model` (a
    /// whole model or a shard group) can meet: spawn refuses with
    /// [`SpawnError::SlaUnmeetable`] if the model's static cycle lower
    /// bound already exceeds `budget`.
    pub fn sla_budget(mut self, model: impl Into<String>, budget: Duration) -> Self {
        self.sla_budgets.push((model.into(), budget));
        self
    }

    /// Sets the datacenter network between the client and the workers:
    /// every request/response and scatter/gather leg is charged (and
    /// slept) per this model, and a down link makes its worker
    /// unreachable. The default ideal network charges nothing, preserving
    /// the single-machine behavior.
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.catalog.network = network;
        self
    }

    /// Sets the weight-preload cost model: what pinning a replica at
    /// runtime costs in simulated time ([`Server::pin_model`]). The
    /// default free model preloads instantly.
    pub fn preload(mut self, preload: PreloadModel) -> Self {
        self.cfg.preload = preload;
        self
    }

    /// Restricts a whole model's boot-time placement to the given
    /// workers instead of pinning it everywhere. The fleet layer uses
    /// this to start a model at a small replica count and let the
    /// controller grow it. Shard-group members keep their ownership rule
    /// and cannot be placed.
    pub fn pin_on(mut self, model: impl Into<String>, workers: impl Into<Vec<usize>>) -> Self {
        self.placements.push((model.into(), workers.into()));
        self
    }

    /// Sets the worker count (default 2); every worker pins every
    /// registered model unless [`ServerBuilder::pin_on`] places it.
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.cfg.replicas = replicas;
        self
    }

    /// Sets the bounded per-worker queue capacity, in jobs (default 32).
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.cfg.queue_cap = cap;
        self
    }

    /// Sets the routing policy (default [`Routing::RoundRobin`]).
    pub fn policy(mut self, policy: Routing) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Sets the failover retries permitted per request beyond the first
    /// attempt (default 1).
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.cfg.max_retries = retries;
        self
    }

    /// Sets the per-attempt timeout, after which an attempt that is
    /// queued or running on the worker's thread fails over. An attempt
    /// the waiting caller runs itself, on an idle replica, is not cut
    /// short (the deadline still applies). Unset, each attempt has the
    /// full remaining deadline, and failover triggers only on faults and
    /// death.
    pub fn attempt_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.attempt_timeout = Some(timeout);
        self
    }

    /// Sets span-trace sampling: full NPU span traces for one request in
    /// every `n`, by request id (0, the default, disables span collection;
    /// 1 traces all). Counter attribution (cycles, MACs, stalls,
    /// queue/service split) is always on.
    pub fn trace_sample(mut self, n: u64) -> Self {
        self.cfg.trace_sample = n;
        self
    }

    /// Sets tail sampling: every request collects spans, and the trace of
    /// each request that fails or takes longer than `objective` joins the
    /// head-sampled ones ([`Server::take_traces`]). Unlike `trace_sample`
    /// (decided at admission), this is decided at termination, when the
    /// outcome is known. Unset by default.
    pub fn tail_sample(mut self, objective: Duration) -> Self {
        self.cfg.tail_sample = Some(objective);
        self
    }

    /// Spawns the pool: every worker pins every whole model; shard
    /// members pin only on their owner set (worker `w` owns shard `k` of
    /// a `K`-wide segment iff `w % K == k`, so owner sets are disjoint
    /// across the segment and every shard has `replicas / K` owners).
    ///
    /// # Errors
    ///
    /// Returns [`SpawnError`] on a name collision, no models, a bad
    /// configuration (including fewer replicas than the widest shard
    /// segment), or a pin failure.
    pub fn spawn(self) -> Result<Server, SpawnError> {
        if let Some(e) = self.registry_error {
            return Err(e.into());
        }
        let catalog = self.catalog;
        if catalog.plans().next().is_none() {
            return Err(SpawnError::NoModels);
        }
        if self.cfg.replicas == 0 {
            return Err(SpawnError::BadConfig("replicas must be positive".into()));
        }
        if self.cfg.queue_cap == 0 {
            return Err(SpawnError::BadConfig("queue_cap must be positive".into()));
        }
        let stages = catalog.groups.iter().flat_map(|g| &g.stages);
        let widest = stages.map(Vec::len).max().unwrap_or(1);
        if self.cfg.replicas < widest {
            return Err(SpawnError::BadConfig(format!(
                "{} replicas cannot host a {widest}-shard segment (one distinct worker per shard)",
                self.cfg.replicas
            )));
        }

        // Declared budgets are a registration-time contract: refuse to
        // pin a model whose bound proves its budget unmeetable.
        for (model, budget) in &self.sla_budgets {
            let Some(plan) = catalog.plans().find(|p| p.name == *model) else {
                return Err(SpawnError::BadConfig(format!(
                    "sla budget declared for unregistered model `{model}`"
                )));
            };
            let Some(bound) = plan.bound_us else {
                return Err(SpawnError::BadConfig(format!(
                    "sla budget declared for `{model}` but no static cycle \
                     bound is provable"
                )));
            };
            let budget_us = u64::try_from(budget.as_micros()).unwrap_or(u64::MAX);
            if bound > budget_us {
                return Err(SpawnError::SlaUnmeetable {
                    model: model.clone(),
                    bound_us: bound,
                    budget_us,
                });
            }
        }

        // Explicit boot placements: whole models only, on known workers,
        // at least one replica each.
        let mut placement_of: Vec<Option<Vec<usize>>> = vec![None; catalog.artifacts.len()];
        for (model, workers) in &self.placements {
            let Some(slot) = catalog.slot_of(model) else {
                return Err(SpawnError::BadConfig(format!(
                    "placement declared for unregistered model `{model}`"
                )));
            };
            if catalog.member_of(slot).is_some() {
                return Err(SpawnError::BadConfig(format!(
                    "placement declared for shard-group member `{model}`"
                )));
            }
            if workers.is_empty() {
                return Err(SpawnError::BadConfig(format!(
                    "placement for `{model}` names no workers"
                )));
            }
            if let Some(&bad) = workers.iter().find(|&&w| w >= self.cfg.replicas) {
                return Err(SpawnError::BadConfig(format!(
                    "placement for `{model}` names worker {bad} but the pool \
                     has {} replicas",
                    self.cfg.replicas
                )));
            }
            placement_of[slot] = Some(workers.clone());
        }

        let mut workers = Vec::with_capacity(self.cfg.replicas);
        for id in 0..self.cfg.replicas {
            let mut pinned = Vec::with_capacity(catalog.artifacts.len());
            for (slot, artifact) in catalog.artifacts.iter().enumerate() {
                let owns = catalog
                    .member_of(slot)
                    .is_none_or(|(k, width)| id % width == k)
                    && placement_of[slot]
                        .as_ref()
                        .is_none_or(|set| set.contains(&id));
                if !owns {
                    pinned.push(None);
                    continue;
                }
                let pin = artifact.pin().map_err(|error| SpawnError::Pin {
                    model: artifact.name().to_owned(),
                    error,
                })?;
                pinned.push(Some(pin));
            }
            workers.push(spawn_worker(id, pinned, self.cfg.queue_cap));
        }

        Ok(Server {
            inner: Arc::new(ServerInner {
                router: Router::new(self.cfg.policy),
                catalog: RwLock::new(catalog),
                workers,
                cfg: self.cfg,
                next_id: AtomicU64::new(1),
                trace_log: Mutex::new(VecDeque::new()),
                extra_prom: RwLock::new(Vec::new()),
            }),
        })
    }
}
