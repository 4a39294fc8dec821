//! The live monitor: a scrape loop that feeds a server's metrics into
//! the [`SloEngine`] and exports the result.
//!
//! [`Monitor`] wraps a [`Client`] of the server under watch. Each
//! [`scrape`](Monitor::scrape) snapshots the server's per-model
//! counters, converts them to [`ModelObservation`]s, and runs one
//! engine step; [`run`](Monitor::run) does that on a background thread
//! at the configured interval until the handle is stopped or dropped.
//! The monitor's state is behind one lock, so scraping manually and
//! from the loop at once is safe (each scrape is one engine step).
//!
//! Three export surfaces:
//!
//! - [`prometheus`](Monitor::prometheus) renders `bw_slo_*` /
//!   `bw_alert_*` series; register it on the server with
//!   [`install_exposition`](Monitor::install_exposition) so the one
//!   existing wire scrape target serves serving, fleet, and SLO series
//!   together.
//! - [`take_spans`](Monitor::take_spans) drains [`SpanKind::SloAlert`]
//!   spans — one per resolved alert, covering fire to clear in wall
//!   time — for the chrome trace timeline.
//! - [`alert_source`](Monitor::alert_source) returns a closure listing
//!   currently-firing alerts, shaped for
//!   `FleetController::with_alert_source` so burn-rate alerts become
//!   scale signals.

use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use bw_core::{SpanKind, SpanRecord};
use bw_serve::{Client, Server};
use bw_trace::Exposition;

use crate::alert::{Alert, AlertEvent, AlertSpeed, SloKind, Transition};
use crate::engine::{ModelObservation, SloEngine};
use crate::slo::{BurnRule, SloSpec};
use crate::ticker::Ticker;

/// Scrape-loop configuration.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Scrape interval for [`Monitor::run`]. Window math is in scrapes,
    /// so this also sets the wall-time meaning of every rule window.
    pub interval: Duration,
    /// The burn-rate rules applied to every SLO.
    pub rules: Vec<BurnRule>,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            interval: Duration::from_millis(10),
            rules: BurnRule::default_rules(),
        }
    }
}

struct MonitorState {
    engine: SloEngine,
    /// Every transition ever emitted, in order.
    events: Vec<AlertEvent>,
    /// Wall-clock fire marks for alerts currently firing, keyed by
    /// identity: (fire scrape, nanoseconds since the monitor was born).
    fire_marks: std::collections::HashMap<Alert, (u64, u64)>,
    /// Completed fire→clear spans awaiting drain.
    spans: Vec<SpanRecord>,
}

struct MonitorInner {
    client: Client,
    cfg: MonitorConfig,
    born: Instant,
    state: Mutex<MonitorState>,
}

/// A handle on a server plus the SLO engine watching it. Cheap to
/// clone; all clones share the engine.
#[derive(Clone)]
pub struct Monitor {
    inner: Arc<MonitorInner>,
}

/// Encodes an alert's (objective, speed) pair into a span's `chain`
/// field so the chrome timeline can tell alert flavors apart.
fn alert_chain(slo: SloKind, speed: AlertSpeed) -> u64 {
    match (slo, speed) {
        (SloKind::Availability, AlertSpeed::Fast) => 1,
        (SloKind::Availability, AlertSpeed::Slow) => 2,
        (SloKind::Latency, AlertSpeed::Fast) => 3,
        (SloKind::Latency, AlertSpeed::Slow) => 4,
    }
}

impl Monitor {
    /// A monitor over `server` policing `specs` under `cfg`'s rules.
    pub fn new(server: &Server, specs: Vec<SloSpec>, cfg: MonitorConfig) -> Monitor {
        let engine = SloEngine::new(specs, cfg.rules.clone());
        Monitor {
            inner: Arc::new(MonitorInner {
                client: server.client(),
                cfg,
                born: Instant::now(),
                state: Mutex::new(MonitorState {
                    engine,
                    events: Vec::new(),
                    fire_marks: std::collections::HashMap::new(),
                    spans: Vec::new(),
                }),
            }),
        }
    }

    /// The configured scrape interval.
    pub(crate) fn interval(&self) -> Duration {
        self.inner.cfg.interval
    }

    /// Takes one scrape: snapshots the server, runs one engine step,
    /// and returns the transitions this scrape caused.
    pub fn scrape(&self) -> Vec<AlertEvent> {
        let snapshot = self.inner.client.metrics();
        let observations: Vec<ModelObservation> =
            snapshot.models.iter().map(ModelObservation::from).collect();
        let now_ns = self.inner.born.elapsed().as_nanos() as u64;

        let mut state = self.inner.state.lock().unwrap();
        let events = state.engine.observe(&observations);
        for event in &events {
            match event.transition {
                Transition::Fire => {
                    state
                        .fire_marks
                        .insert(event.alert.clone(), (event.scrape, now_ns));
                }
                Transition::Clear => {
                    if let Some((fire_scrape, fire_ns)) = state.fire_marks.remove(&event.alert) {
                        let device = state
                            .engine
                            .specs()
                            .iter()
                            .position(|s| s.model == event.alert.model)
                            .unwrap_or(0) as u32;
                        // Wall time re-expressed as cycles at a nominal
                        // 1 GHz clock: 1 cycle == 1 ns on the timeline.
                        state.spans.push(SpanRecord {
                            trace_id: fire_scrape,
                            device,
                            kind: SpanKind::SloAlert,
                            chain: alert_chain(event.alert.slo, event.alert.speed),
                            start_cycle: fire_ns,
                            end_cycle: now_ns.max(fire_ns + 1),
                        });
                    }
                }
            }
        }
        state.events.extend(events.iter().cloned());
        events
    }

    /// Starts the scrape loop on a background thread, one scrape per
    /// configured interval until the returned handle is stopped.
    pub fn run(&self) -> Ticker {
        let monitor = self.clone();
        Ticker::spawn("bw-monitor", self.interval(), move || {
            monitor.scrape();
        })
    }

    /// Scrapes taken so far.
    pub fn scrapes(&self) -> u64 {
        self.inner.state.lock().unwrap().engine.scrapes()
    }

    /// Every transition emitted so far, in order.
    pub fn events(&self) -> Vec<AlertEvent> {
        self.inner.state.lock().unwrap().events.clone()
    }

    /// Alerts currently firing, in deterministic order.
    pub fn firing(&self) -> Vec<Alert> {
        self.inner.state.lock().unwrap().engine.firing_alerts()
    }

    /// Drains the fire→clear [`SpanKind::SloAlert`] spans of alerts
    /// that have resolved since the last drain. Timestamps are wall
    /// nanoseconds since the monitor was born, as cycles at a nominal
    /// 1 GHz (pass `1e9` as the clock to the chrome exporter).
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.inner.state.lock().unwrap().spans)
    }

    /// A closure listing currently-firing alerts, shaped for
    /// `FleetController::with_alert_source`.
    pub fn alert_source(&self) -> impl Fn() -> Vec<Alert> + Send + Sync + 'static {
        let monitor = self.clone();
        move || monitor.firing()
    }

    /// Registers this monitor's [`prometheus`](Monitor::prometheus)
    /// output as an extra exposition source on the watched server, so
    /// the server's existing wire scrape endpoint serves `bw_slo_*` /
    /// `bw_alert_*` series alongside its own. The registration holds
    /// only a weak reference: once every other handle on this monitor
    /// is dropped, the source renders nothing.
    pub fn install_exposition(&self, server: &Server) {
        let weak: Weak<MonitorInner> = Arc::downgrade(&self.inner);
        server.add_prometheus_source(move || match weak.upgrade() {
            Some(inner) => Monitor { inner }.prometheus(),
            None => String::new(),
        });
    }

    /// Renders the SLO and alert series in Prometheus text exposition
    /// format. Family names are disjoint from `bw-serve`'s and
    /// `bw-fleet`'s, so the output can be concatenated onto theirs.
    pub fn prometheus(&self) -> String {
        let state = self.inner.state.lock().unwrap();
        let engine = &state.engine;
        let mut exp = Exposition::new();

        const KINDS: [SloKind; 2] = [SloKind::Availability, SloKind::Latency];
        // Every (spec, SLO kind, burn rule) alert, in exposition order.
        let alerts = || {
            engine.specs().iter().flat_map(|spec| {
                KINDS.into_iter().flat_map(move |kind| {
                    let alert = move |rule: &BurnRule| Alert {
                        model: spec.model.clone(),
                        slo: kind,
                        speed: rule.speed,
                    };
                    engine.rules().iter().map(move |rule| (spec, alert(rule)))
                })
            })
        };

        exp.counter("bw_obs_scrapes_total", "Scrapes taken by the monitor")
            .value(engine.scrapes() as f64);
        let objectives = engine.specs().iter();
        let objectives = objectives.map(|s| ([&s.model], s.latency_objective.as_secs_f64()));
        exp.gauge(
            "bw_slo_latency_objective_seconds",
            "Configured latency objective per model",
        )
        .rows(["model"], objectives);
        let budgets = engine.specs().iter().flat_map(|spec| {
            KINDS.into_iter().filter_map(move |kind| {
                let remaining = engine.error_budget_remaining(spec, kind)?;
                Some(([spec.model.as_str(), kind.label()], remaining))
            })
        });
        exp.gauge(
            "bw_slo_error_budget_remaining",
            "Fraction of the error budget unspent since the monitor started (negative when overspent)",
        )
        .rows(["model", "slo"], budgets);

        // Two families whose samples interleave per (model, window).
        exp.gauge(
            "bw_slo_burn_rate",
            "Error-budget burn rate over each rule window",
        );
        exp.gauge(
            "bw_slo_window_quantile_seconds",
            "Latency at the SLO quantile over each rule window",
        );
        for spec in engine.specs() {
            for rule in engine.rules() {
                let window = rule.speed.label();
                for kind in KINDS {
                    if let Some(burn) = engine.burn_rate(spec, kind, rule.window) {
                        exp.sample(
                            "bw_slo_burn_rate",
                            &[
                                ("model", &spec.model),
                                ("slo", kind.label()),
                                ("window", window),
                            ],
                            burn,
                        );
                    }
                }
                if let Some(q) =
                    engine.windowed_quantile(&spec.model, rule.window, spec.latency_quantile)
                {
                    exp.sample(
                        "bw_slo_window_quantile_seconds",
                        &[("model", &spec.model), ("window", window)],
                        q,
                    );
                }
            }
        }

        let firing = alerts().map(|(spec, alert)| {
            let labels = [&spec.model, alert.slo.label(), alert.speed.label()];
            (labels, f64::from(u8::from(engine.is_firing(&alert))))
        });
        exp.gauge(
            "bw_alert_firing",
            "1 while the burn-rate alert is firing, 0 otherwise",
        )
        .rows(["model", "slo", "window"], firing);

        let mut counts: std::collections::HashMap<(Alert, Transition), u64> =
            std::collections::HashMap::new();
        for event in &state.events {
            *counts
                .entry((event.alert.clone(), event.transition))
                .or_insert(0) += 1;
        }
        let counts = &counts;
        let transitions = alerts().flat_map(|(spec, alert)| {
            let (slo, window) = (alert.slo.label(), alert.speed.label());
            let transitions = [Transition::Fire, Transition::Clear].into_iter();
            transitions.filter_map(move |t| {
                let n = *counts.get(&(alert.clone(), t))?;
                Some(([&spec.model, slo, window, t.label()], n as f64))
            })
        });
        exp.counter(
            "bw_alert_transitions_total",
            "Alert fire/clear transitions since the monitor started",
        )
        .rows(["model", "slo", "window", "transition"], transitions);

        exp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alert_chain_codes_are_distinct() {
        let codes: std::collections::HashSet<u64> = [
            alert_chain(SloKind::Availability, AlertSpeed::Fast),
            alert_chain(SloKind::Availability, AlertSpeed::Slow),
            alert_chain(SloKind::Latency, AlertSpeed::Fast),
            alert_chain(SloKind::Latency, AlertSpeed::Slow),
        ]
        .into_iter()
        .collect();
        assert_eq!(codes.len(), 4);
        assert!(!codes.contains(&0), "0 is the run-envelope chain ordinal");
    }
}
