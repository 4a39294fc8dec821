//! The fleet control loop: observe the pool's metrics, decide, act.
//!
//! Each [`FleetController::step`] reads one
//! [`MetricsSnapshot`](bw_serve::MetricsSnapshot) plus the live
//! [`NetworkModel`](bw_system::NetworkModel) and drives every managed
//! model toward health:
//!
//! - **repair** — a model whose healthy replica count fell below
//!   `min_replicas` (worker death, link down) gets re-pinned on the best
//!   available worker, paying the weight-preload cost;
//! - **scale up** — shedding since the last tick, a mean outstanding
//!   depth at or above `scale_up_depth`, or a firing SLO alert from an
//!   installed [alert source](FleetController::with_alert_source) grows
//!   the replica set by one;
//! - **repack** — a replica sitting on a degraded link moves to a
//!   healthy worker (pin the new home first, then unpin the old — the
//!   model never loses capacity);
//! - **scale down** — `scale_down_idle_ticks` consecutive ticks with no
//!   shedding and empty queues shrink the replica set by one, never
//!   below `min_replicas`.
//!
//! Decisions are applied immediately against the [`Server`] control
//! plane and returned for inspection; every action is counted in
//! [`FleetMetrics`] and recorded as a `fleet-op` span.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bw_obs::{Alert, Ticker};
use bw_serve::{MetricsSnapshot, NetworkModel, Server};

use crate::metrics::FleetMetrics;
use crate::policy::{least_loaded, WorkerView};

/// Control-loop tunables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetConfig {
    /// Replica floor per managed model: repair restores to this count.
    pub min_replicas: usize,
    /// Replica ceiling per managed model (clamped by pool size).
    pub max_replicas: usize,
    /// Mean outstanding jobs per healthy replica that triggers a scale
    /// up (shedding since the last tick always does).
    pub scale_up_depth: usize,
    /// Consecutive idle ticks (no shedding, empty queues) before one
    /// replica is released.
    pub scale_down_idle_ticks: u32,
    /// Ticks a model rests after any scaling action before the next.
    pub cooldown_ticks: u32,
    /// Control period of [`FleetController::run`].
    pub tick: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            min_replicas: 1,
            max_replicas: usize::MAX,
            scale_up_depth: 3,
            scale_down_idle_ticks: 5,
            cooldown_ticks: 2,
            tick: Duration::from_millis(20),
        }
    }
}

/// One applied control decision.
#[derive(Clone, Debug, PartialEq)]
pub enum FleetDecision {
    /// Pinned one more replica under load pressure.
    ScaleUp {
        /// The model grown.
        model: String,
        /// The new replica's worker.
        worker: usize,
        /// Simulated preload time paid.
        preload: Duration,
    },
    /// Released one idle replica.
    ScaleDown {
        /// The model shrunk.
        model: String,
        /// The released worker.
        worker: usize,
    },
    /// Re-pinned a replica lost to a dead worker or faulted link, or
    /// repacked one off a degraded link.
    Repair {
        /// The model repaired.
        model: String,
        /// The replacement replica's worker.
        worker: usize,
        /// Simulated preload time paid.
        preload: Duration,
    },
}

#[derive(Default)]
struct ModelState {
    last_shed: u64,
    idle_ticks: u32,
    cooldown: u32,
}

/// The fleet controller: owns per-model control state, places replicas on
/// the least-loaded candidate, acts on a shared [`Server`].
pub struct FleetController {
    server: Arc<Server>,
    cfg: FleetConfig,
    metrics: Arc<FleetMetrics>,
    state: HashMap<String, ModelState>,
    alert_source: Option<Box<dyn Fn() -> Vec<Alert> + Send>>,
}

impl FleetController {
    /// A controller over `server`'s pool.
    pub fn new(server: Arc<Server>, cfg: FleetConfig) -> FleetController {
        FleetController {
            server,
            cfg,
            metrics: Arc::new(FleetMetrics::new()),
            state: HashMap::new(),
            alert_source: None,
        }
    }

    /// Installs a source of firing SLO alerts (typically
    /// `Monitor::alert_source` from `bw-obs`). A model with any alert
    /// firing counts as pressured on every tick the alert stays up, so
    /// burn-rate alerts drive scale-up even before queue depth or
    /// shedding show it.
    pub fn with_alert_source(
        mut self,
        source: impl Fn() -> Vec<Alert> + Send + 'static,
    ) -> FleetController {
        self.alert_source = Some(Box::new(source));
        self
    }

    /// The controller's metrics block (shared with [`FleetHandle`]).
    pub fn metrics(&self) -> Arc<FleetMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The models this controller manages: every registered whole model,
    /// i.e. every name the server quotes a preload for (shard groups and
    /// their members have fixed placement).
    fn managed_models(&self) -> Vec<String> {
        self.server
            .client()
            .model_names()
            .into_iter()
            .filter(|name| self.server.preload_cost(name, 0).is_some())
            .collect()
    }

    /// Candidate workers that could host a new replica of a model
    /// currently pinned on `exclude`: alive, reachable, not already
    /// hosting it.
    fn candidates(
        &self,
        snap: &MetricsSnapshot,
        net: &NetworkModel,
        exclude: &[usize],
    ) -> Vec<WorkerView> {
        (0..snap.workers_alive.len())
            .filter(|&w| snap.workers_alive[w] && net.link_up(w) && !exclude.contains(&w))
            .map(|w| WorkerView {
                id: w,
                queue_depth: snap.queue_depths[w],
                resident_models: snap.worker_models[w].len(),
                degraded: net.link_degraded(w),
            })
            .collect()
    }

    /// Pins `model` on `worker`, recording the op; `None` on failure.
    fn apply_pin(&self, model: &str, worker: usize) -> Option<Duration> {
        let started = Instant::now();
        match self.server.pin_model(model, worker) {
            Ok(preload) => {
                self.metrics.add_preload(preload.as_secs_f64());
                self.metrics
                    .record_op(worker, started, preload.as_secs_f64());
                Some(preload)
            }
            Err(_) => {
                self.metrics.apply_failures.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Unpins `model` from `worker`, recording the op.
    fn apply_unpin(&self, model: &str, worker: usize) -> bool {
        let started = Instant::now();
        match self.server.unpin_model(model, worker) {
            Ok(()) => {
                self.metrics.record_op(worker, started, 0.0);
                true
            }
            Err(_) => {
                self.metrics.apply_failures.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Runs one control tick: observe, decide, act. Returns the
    /// decisions applied this tick.
    pub fn step(&mut self) -> Vec<FleetDecision> {
        self.metrics.ticks.fetch_add(1, Ordering::Relaxed);
        let snap = self.server.metrics();
        let net = self.server.network();
        let firing: Vec<Alert> = self.alert_source.as_ref().map_or_else(Vec::new, |f| f());
        let mut decisions = Vec::new();

        for model in self.managed_models() {
            let shed = snap
                .models
                .iter()
                .find(|m| m.model == model)
                .map_or(0, |m| m.shed);
            let state = self.state.entry(model.clone()).or_default();
            let shed_delta = shed.saturating_sub(state.last_shed);
            state.last_shed = shed;
            let cooling = state.cooldown > 0;
            state.cooldown = state.cooldown.saturating_sub(1);

            let pinned = self.server.pinned_workers(&model);
            let healthy: Vec<usize> = pinned.iter().copied().filter(|&w| net.link_up(w)).collect();
            let depth: usize = healthy.iter().map(|&w| snap.queue_depths[w]).sum();
            let mean_depth = depth / healthy.len().max(1);

            let idle = shed_delta == 0 && depth == 0;
            let prev_idle = self.state.get(&model).map_or(0, |s| s.idle_ticks);
            let idle_ticks = if idle { prev_idle + 1 } else { 0 };

            let mut replicas = healthy.len();
            let mut hosts = pinned.clone();

            // Repair up to the floor: replicas lost to dead workers or
            // down links come back on the best available candidates.
            while replicas < self.cfg.min_replicas {
                let cands = self.candidates(&snap, &net, &hosts);
                let Some(worker) = least_loaded(&cands) else {
                    break;
                };
                let Some(preload) = self.apply_pin(&model, worker) else {
                    break;
                };
                self.metrics.repairs.fetch_add(1, Ordering::Relaxed);
                decisions.push(FleetDecision::Repair {
                    model: model.clone(),
                    worker,
                    preload,
                });
                hosts.push(worker);
                replicas += 1;
            }

            if !cooling {
                // Repack off a degraded link: new home first, old second,
                // so capacity never dips.
                let degraded_host = healthy.iter().copied().find(|&w| net.link_degraded(w));
                if let Some(bad) = degraded_host {
                    let cands: Vec<WorkerView> = self
                        .candidates(&snap, &net, &hosts)
                        .into_iter()
                        .filter(|c| !c.degraded)
                        .collect();
                    if let Some(worker) = least_loaded(&cands) {
                        if let Some(preload) = self.apply_pin(&model, worker) {
                            self.metrics.repairs.fetch_add(1, Ordering::Relaxed);
                            decisions.push(FleetDecision::Repair {
                                model: model.clone(),
                                worker,
                                preload,
                            });
                            hosts.push(worker);
                            if self.apply_unpin(&model, bad) {
                                decisions.push(FleetDecision::ScaleDown {
                                    model: model.clone(),
                                    worker: bad,
                                });
                            }
                            let state = self.state.entry(model.clone()).or_default();
                            state.cooldown = self.cfg.cooldown_ticks;
                            state.idle_ticks = 0;
                            continue;
                        }
                    }
                }

                // Scale up under pressure: raw deltas (shedding, queue
                // depth) or a firing burn-rate alert for this model.
                let alerted = firing.iter().any(|a| a.model == model);
                if alerted {
                    self.metrics.alert_signals.fetch_add(1, Ordering::Relaxed);
                }
                let pressured =
                    shed_delta > 0 || mean_depth >= self.cfg.scale_up_depth.max(1) || alerted;
                if pressured && replicas < self.cfg.max_replicas {
                    let cands = self.candidates(&snap, &net, &hosts);
                    if let Some(worker) = least_loaded(&cands) {
                        if let Some(preload) = self.apply_pin(&model, worker) {
                            self.metrics.scale_ups.fetch_add(1, Ordering::Relaxed);
                            decisions.push(FleetDecision::ScaleUp {
                                model: model.clone(),
                                worker,
                                preload,
                            });
                            let state = self.state.entry(model.clone()).or_default();
                            state.cooldown = self.cfg.cooldown_ticks;
                            state.idle_ticks = 0;
                            continue;
                        }
                    }
                }

                // Scale down after a sustained idle stretch.
                if idle_ticks >= self.cfg.scale_down_idle_ticks && replicas > self.cfg.min_replicas
                {
                    // Release the most crowded host (ties: highest id).
                    let victim = healthy
                        .iter()
                        .copied()
                        .max_by_key(|&w| (snap.worker_models[w].len(), w));
                    if let Some(worker) = victim {
                        if self.apply_unpin(&model, worker) {
                            self.metrics.scale_downs.fetch_add(1, Ordering::Relaxed);
                            decisions.push(FleetDecision::ScaleDown {
                                model: model.clone(),
                                worker,
                            });
                            let state = self.state.entry(model.clone()).or_default();
                            state.cooldown = self.cfg.cooldown_ticks;
                            state.idle_ticks = 0;
                            continue;
                        }
                    }
                }
            }

            let state = self.state.entry(model).or_default();
            state.idle_ticks = idle_ticks;
        }
        decisions
    }

    /// Spawns the control loop on its own thread, ticking every
    /// `cfg.tick` until the returned handle is stopped.
    pub fn run(mut self) -> FleetHandle {
        let metrics = self.metrics();
        let ticker = Ticker::spawn("bw-fleet-controller", self.cfg.tick, move || {
            self.step();
        });
        FleetHandle { ticker, metrics }
    }
}

/// A running control loop. Stop it with [`FleetHandle::stop`]; dropping
/// the handle also stops it.
pub struct FleetHandle {
    ticker: Ticker,
    metrics: Arc<FleetMetrics>,
}

impl FleetHandle {
    /// The controller's metrics block.
    pub fn metrics(&self) -> Arc<FleetMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Stops the loop and joins the controller thread.
    pub fn stop(self) {
        self.ticker.stop();
    }
}
