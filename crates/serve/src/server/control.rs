//! The runtime control plane of a [`Server`]: fault injection, live
//! pin / unpin / drain, runtime model registration, network swaps, and
//! the operator-facing readings. None of it is on the request path.

use std::sync::Arc;
use std::time::Duration;

use bw_gir::ModelArtifact;
use bw_system::NetworkModel;

use super::{Catalog, Client, Plan, RegistryError, ServerBuilder, ServerInner};
use crate::metrics::MetricsSnapshot;
use crate::request::RequestTrace;
use crate::worker::{Control, WorkerHandle};

/// Error produced by the runtime pin/unpin control plane
/// ([`Server::pin_model`], [`Server::unpin_model`],
/// [`Server::drain_worker`]).
#[derive(Debug)]
pub enum PinError {
    /// The model name is not registered.
    UnknownModel(
        /// The unknown name.
        String,
    ),
    /// The name addresses a shard group or one of its members; both have
    /// fixed placement.
    GroupName(
        /// The group or member name.
        String,
    ),
    /// The worker id is outside the pool.
    UnknownWorker(
        /// The unknown id.
        usize,
    ),
    /// The worker is dead and cannot serve control operations.
    WorkerDead(
        /// The dead worker's id.
        usize,
    ),
    /// The model is already pinned on that worker.
    AlreadyPinned {
        /// The model.
        model: String,
        /// The worker already holding it.
        worker: usize,
    },
    /// The model is not pinned on that worker.
    NotPinned {
        /// The model.
        model: String,
        /// The worker.
        worker: usize,
    },
    /// Refusing to unpin the last live replica: doing so would strand
    /// the model with no serving capacity. Pin another replica first
    /// (that is what migration's dual-pin phase does).
    LastReplica {
        /// The model.
        model: String,
    },
    /// Deploying the artifact onto the simulated device failed.
    Pin {
        /// The model.
        model: String,
        /// The deployment error.
        error: bw_gir::DeployError,
    },
}

impl std::fmt::Display for PinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PinError::UnknownModel(m) => write!(f, "unknown model `{m}`"),
            PinError::GroupName(m) => write!(
                f,
                "`{m}` is a shard group or member; shard placement is fixed"
            ),
            PinError::UnknownWorker(w) => write!(f, "unknown worker {w}"),
            PinError::WorkerDead(w) => write!(f, "worker {w} is dead"),
            PinError::AlreadyPinned { model, worker } => {
                write!(f, "`{model}` is already pinned on worker {worker}")
            }
            PinError::NotPinned { model, worker } => {
                write!(f, "`{model}` is not pinned on worker {worker}")
            }
            PinError::LastReplica { model } => {
                write!(f, "refusing to unpin the last live replica of `{model}`")
            }
            PinError::Pin { model, error } => write!(f, "pinning `{model}` failed: {error}"),
        }
    }
}

impl std::error::Error for PinError {}

/// The slot of the whole model `model`: what the pin control plane
/// addresses. Shard groups and their members have fixed placement and are
/// refused.
fn whole_model_slot(catalog: &Catalog, model: &str) -> Result<usize, PinError> {
    match catalog.slot_of(model) {
        Some(slot) if catalog.member_of(slot).is_none() => Ok(slot),
        Some(_) => Err(PinError::GroupName(model.to_owned())),
        None if catalog.groups.iter().any(|g| g.name == model) => {
            Err(PinError::GroupName(model.to_owned()))
        }
        None => Err(PinError::UnknownModel(model.to_owned())),
    }
}

/// A running serving pool. Dropping the server stops every worker after
/// the work already queued (injected-fault workers stop immediately).
pub struct Server {
    pub(super) inner: Arc<ServerInner>,
}

impl Server {
    /// Starts building a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// An in-process client for this server. Clients are cheap to clone
    /// and usable from any thread.
    pub fn client(&self) -> Client {
        Client {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Number of workers (live or dead).
    pub fn worker_count(&self) -> usize {
        self.inner.workers.len()
    }

    /// Per-worker liveness, in worker order.
    pub fn workers_alive(&self) -> Vec<bool> {
        self.inner
            .workers
            .iter()
            .map(WorkerHandle::is_alive)
            .collect()
    }

    /// Injects a fault into worker `id`: it stops accepting work
    /// immediately and its thread dies at the next queue pop, dropping
    /// queued jobs (their requests fail over). Returns `false` for an
    /// unknown id.
    pub fn kill_worker(&self, id: usize) -> bool {
        match self.inner.workers.get(id) {
            Some(w) => {
                w.kill();
                true
            }
            None => false,
        }
    }

    /// Pins `model` onto worker `worker` at runtime, paying the
    /// configured weight-preload cost: the worker is busy streaming
    /// weights for the modeled interval (queued work waits behind it)
    /// and the preload transfer is charged against the worker's link.
    /// Returns the simulated preload duration. The model becomes
    /// routable the moment the worker finishes the preload.
    ///
    /// # Errors
    ///
    /// Returns [`PinError`] on an unknown model/worker, a shard group or
    /// member name, a dead worker, a double pin, or a deployment failure.
    pub fn pin_model(&self, model: &str, worker: usize) -> Result<Duration, PinError> {
        let inner = &self.inner;
        let Some(handle) = inner.workers.get(worker) else {
            return Err(PinError::UnknownWorker(worker));
        };
        if !handle.is_alive() {
            return Err(PinError::WorkerDead(worker));
        }
        let (slot, artifact) = {
            let catalog = inner.catalog.read().unwrap();
            let slot = whole_model_slot(&catalog, model)?;
            (slot, Arc::clone(&catalog.artifacts[slot]))
        };
        if handle.pins(slot) {
            return Err(PinError::AlreadyPinned {
                model: model.to_owned(),
                worker,
            });
        }
        // Deploy on the caller's thread; the worker only sleeps the
        // modeled preload and installs the finished instance.
        let pin = artifact.pin().map_err(|error| PinError::Pin {
            model: model.to_owned(),
            error,
        })?;
        let bytes = usize::try_from(artifact.mrf_fill_bytes()).unwrap_or(usize::MAX);
        let net = inner.network();
        let preload_s = inner.cfg.preload.preload_s(bytes, &net, worker);
        let pin = Control::Pin {
            slot,
            model: Box::new(pin),
            preload_s,
            bytes,
        };
        if !handle.control(pin) {
            return Err(PinError::WorkerDead(worker));
        }
        Ok(Duration::from_secs_f64(preload_s))
    }

    /// Unpins `model` from worker `worker`. Routing stops immediately;
    /// jobs already queued on the worker still drain (the unpin rides
    /// the same FIFO queue), so in-flight requests are never dropped.
    ///
    /// # Errors
    ///
    /// Returns [`PinError`]; notably [`PinError::LastReplica`] when the
    /// unpin would leave the model with no live replica.
    pub fn unpin_model(&self, model: &str, worker: usize) -> Result<(), PinError> {
        let inner = &self.inner;
        let Some(handle) = inner.workers.get(worker) else {
            return Err(PinError::UnknownWorker(worker));
        };
        let slot = whole_model_slot(&inner.catalog.read().unwrap(), model)?;
        if !handle.pins(slot) {
            return Err(PinError::NotPinned {
                model: model.to_owned(),
                worker,
            });
        }
        let live_replicas = inner
            .workers
            .iter()
            .filter(|w| w.is_alive() && w.pins(slot))
            .count();
        if handle.is_alive() && live_replicas <= 1 {
            return Err(PinError::LastReplica {
                model: model.to_owned(),
            });
        }
        // Clear the routing flag first so no new work lands, then let
        // the queued unpin drain behind the work already accepted. A
        // worker that died in between has already dropped its queue;
        // the unpin still holds.
        handle.clear_pin(slot);
        let _ = handle.control(Control::Unpin { slot });
        Ok(())
    }

    /// Blocks until every job worker `worker` had queued when the call
    /// was made has been served (a FIFO barrier). Returns immediately
    /// for a dead worker — its queue is already gone.
    ///
    /// # Errors
    ///
    /// Returns [`PinError::UnknownWorker`] for an id outside the pool.
    pub fn drain_worker(&self, worker: usize) -> Result<(), PinError> {
        let Some(handle) = self.inner.workers.get(worker) else {
            return Err(PinError::UnknownWorker(worker));
        };
        let _ = handle.control(Control::Flush);
        Ok(())
    }

    /// Registers a whole model at runtime without pinning it anywhere;
    /// follow with [`Server::pin_model`] to give it capacity. Returns
    /// the model's slot.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] when the name is already published as a
    /// model, a shard-group member or a shard group.
    pub fn register_model(&self, artifact: ModelArtifact) -> Result<usize, RegistryError> {
        // The static bound is worked out before the lock is taken; the
        // slot is only known under it.
        let plan = Plan::for_model(&artifact);
        self.inner
            .catalog
            .write()
            .unwrap()
            .add_model(artifact, plan)
    }

    /// Replaces the live network model (fault injection and repair).
    /// Requests admitted from now on, and preload costs, see the new
    /// model; a request already admitted routes and is charged by the
    /// model it read at admission.
    pub fn set_network(&self, net: NetworkModel) {
        self.inner.catalog.write().unwrap().network = net;
    }

    /// A copy of the live network model.
    pub fn network(&self) -> NetworkModel {
        self.inner.network()
    }

    /// The live workers currently pinning `model`, in worker order
    /// (empty for an unknown name).
    pub fn pinned_workers(&self, model: &str) -> Vec<usize> {
        let Some(slot) = self.inner.catalog.read().unwrap().slot_of(model) else {
            return Vec::new();
        };
        self.inner
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.is_alive() && w.pins(slot))
            .map(|(id, _)| id)
            .collect()
    }

    /// What pinning `model` onto `worker` would cost right now, given
    /// the live network model: `None` for anything [`Server::pin_model`]
    /// refuses by name (an unknown model, a shard group or a member).
    pub fn preload_cost(&self, model: &str, worker: usize) -> Option<Duration> {
        let bytes = {
            let catalog = self.inner.catalog.read().unwrap();
            let slot = whole_model_slot(&catalog, model).ok()?;
            usize::try_from(catalog.artifacts[slot].mrf_fill_bytes()).unwrap_or(usize::MAX)
        };
        let net = self.inner.network();
        Some(Duration::from_secs_f64(
            self.inner.cfg.preload.preload_s(bytes, &net, worker),
        ))
    }

    /// A point-in-time metrics reading.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.snapshot()
    }

    /// [`Server::metrics`] rendered by [`MetricsSnapshot::to_prometheus`],
    /// then every source added with [`Server::add_prometheus_source`].
    pub fn prometheus(&self) -> String {
        self.inner.prometheus()
    }

    /// Drains the kept request traces (oldest first): those of
    /// head-sampled requests (`trace_sample > 0`) and, under
    /// [`ServerBuilder::tail_sample`], of every request that failed or
    /// breached the objective. The log keeps the most recent 256.
    pub fn take_traces(&self) -> Vec<RequestTrace> {
        self.inner.trace_log.lock().unwrap().drain(..).collect()
    }

    /// Registers an extra Prometheus renderer whose output is appended
    /// to this server's exposition — every scrape of
    /// [`Server::prometheus`] (and the TCP `TAG_PROM` endpoint) then
    /// serves the combined document, so one scrape target carries
    /// serve, fleet, and SLO series together. `render` must produce a
    /// complete, valid text exposition whose family names are disjoint
    /// from the server's own (`bw_requests_*`, `bw_request_*`,
    /// `bw_npu_*`, `bw_worker_*`, `bw_link_*`) and from every other
    /// registered source.
    pub fn add_prometheus_source(&self, render: impl Fn() -> String + Send + Sync + 'static) {
        self.inner
            .extra_prom
            .write()
            .unwrap()
            .push(Arc::new(render));
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        for worker in &self.inner.workers {
            worker.stop_and_join();
        }
    }
}
