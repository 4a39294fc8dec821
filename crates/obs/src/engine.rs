//! The pure SLO engine: cumulative observations in, alert transitions
//! out.
//!
//! [`SloEngine`] is deliberately clock-free — it consumes one
//! [`ModelObservation`] batch per scrape and does all window math in
//! scrape ordinals, so golden tests can feed handcrafted series and
//! assert the exact scrape index of every fire and clear. The live
//! [`Monitor`](crate::monitor::Monitor) is a thin loop that snapshots a
//! server, converts to observations, and calls [`SloEngine::observe`].
//!
//! Per model the engine keeps three things:
//!
//! - cumulative counter series (`submitted`, `bad = shed + failed`) in
//!   a ring sized to the longest rule window, so availability burn over
//!   window `w` is `Δbad / Δsubmitted / (1 - objective)`;
//! - a ring of cumulative latency [`Histogram`] snapshots, so the
//!   latency distribution of *just the last `w` scrapes* is
//!   [`Histogram::diff`] of the ring's ends, and latency burn is the
//!   fraction of those completions over the objective divided by the
//!   quantile's error budget `1 - q`;
//! - baseline counters captured at the engine's first sight of the
//!   model, so [`error budget`](SloEngine::error_budget_remaining)
//!   accounting covers the engine's whole lifetime rather than one
//!   window.
//!
//! A rule is evaluated only once a full window of scrapes exists
//! (scrape ordinal ≥ window); until then it neither fires nor clears.
//! A window with zero traffic burns at 0 — no traffic consumes no
//! budget.

use std::collections::{HashMap, HashSet, VecDeque};

use bw_serve::{Histogram, ModelSnapshot};

use crate::alert::{Alert, AlertEvent, SloKind, Transition};
use crate::series::Series;
use crate::slo::{BurnRule, SloSpec};

/// One model's cumulative counters at one scrape, the engine's only
/// input. Convertible from a [`ModelSnapshot`]; golden tests build them
/// by hand.
#[derive(Clone, Debug)]
pub struct ModelObservation {
    /// The model the counters belong to.
    pub model: String,
    /// Cumulative requests admitted.
    pub submitted: u64,
    /// Cumulative requests completed.
    pub completed: u64,
    /// Cumulative requests shed at admission.
    pub shed: u64,
    /// Cumulative requests failed after admission.
    pub failed: u64,
    /// Cumulative latency histogram of completed requests.
    pub latency: Histogram,
}

impl ModelObservation {
    /// Requests that terminated badly: shed plus failed.
    pub(crate) fn bad(&self) -> u64 {
        self.shed + self.failed
    }
}

impl From<&ModelSnapshot> for ModelObservation {
    fn from(snap: &ModelSnapshot) -> ModelObservation {
        ModelObservation {
            model: snap.model.clone(),
            submitted: snap.submitted,
            completed: snap.completed,
            shed: snap.shed,
            failed: snap.failed,
            latency: snap.latency.clone(),
        }
    }
}

/// Per-model windowed state: counter rings, histogram ring, and the
/// lifetime baseline for budget accounting.
struct ModelState {
    submitted: Series,
    bad: Series,
    hists: VecDeque<Histogram>,
    hist_cap: usize,
    baseline_submitted: u64,
    baseline_bad: u64,
    baseline_hist: Histogram,
}

impl ModelState {
    fn new(cap: usize, first: &ModelObservation) -> ModelState {
        ModelState {
            submitted: Series::new(cap),
            bad: Series::new(cap),
            hists: VecDeque::with_capacity(cap),
            hist_cap: cap.max(2),
            baseline_submitted: first.submitted,
            baseline_bad: first.bad(),
            baseline_hist: first.latency.clone(),
        }
    }

    fn push(&mut self, obs: &ModelObservation) {
        self.submitted.push(obs.submitted as f64);
        self.bad.push(obs.bad() as f64);
        if self.hists.len() == self.hist_cap {
            self.hists.pop_front();
        }
        self.hists.push_back(obs.latency.clone());
    }

    /// The latency distribution of just the last `window` scrapes, or
    /// `None` until a full window of snapshots exists.
    fn window_hist(&self, window: usize) -> Option<Histogram> {
        let n = self.hists.len();
        if window == 0 || window >= n {
            return None;
        }
        Some(Histogram::diff(
            &self.hists[n - 1],
            &self.hists[n - 1 - window],
        ))
    }
}

/// The burn-rate alert engine: declarative [`SloSpec`]s, a shared set
/// of [`BurnRule`]s, and the per-model history that turns cumulative
/// observations into windowed burn rates and fire/clear transitions.
pub struct SloEngine {
    specs: Vec<SloSpec>,
    rules: Vec<BurnRule>,
    models: HashMap<String, ModelState>,
    firing: HashSet<Alert>,
    scrapes: u64,
}

impl SloEngine {
    /// An engine policing `specs` with `rules`. History rings are sized
    /// to the longest rule window plus one.
    pub fn new(specs: Vec<SloSpec>, rules: Vec<BurnRule>) -> SloEngine {
        assert!(
            !rules.is_empty(),
            "an SLO engine needs at least one burn rule"
        );
        SloEngine {
            specs,
            rules,
            models: HashMap::new(),
            firing: HashSet::new(),
            scrapes: 0,
        }
    }

    /// The specs under watch.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// The burn rules applied to every spec.
    pub(crate) fn rules(&self) -> &[BurnRule] {
        &self.rules
    }

    /// Scrapes observed so far (the next `observe` call is scrape
    /// ordinal `scrapes()`).
    pub(crate) fn scrapes(&self) -> u64 {
        self.scrapes
    }

    /// Ingests one scrape's observations and returns the alert
    /// transitions it caused, in spec × objective × rule order. The
    /// first call is scrape 0; a rule with window `w` is first
    /// evaluated at scrape `w` (when a full window exists).
    pub fn observe(&mut self, observations: &[ModelObservation]) -> Vec<AlertEvent> {
        let scrape = self.scrapes;
        self.scrapes += 1;
        let cap = self.rules.iter().map(|r| r.window).max().unwrap_or(1) + 1;
        for obs in observations {
            self.models
                .entry(obs.model.clone())
                .or_insert_with(|| ModelState::new(cap, obs))
                .push(obs);
        }

        let mut events = Vec::new();
        for spec in &self.specs {
            let Some(state) = self.models.get(&spec.model) else {
                continue;
            };
            for kind in [SloKind::Availability, SloKind::Latency] {
                for rule in &self.rules {
                    let Some(burn) = Self::burn(state, spec, kind, rule.window) else {
                        continue; // insufficient data: never fire off a partial window
                    };
                    let alert = Alert {
                        model: spec.model.clone(),
                        slo: kind,
                        speed: rule.speed,
                    };
                    let was = self.firing.contains(&alert);
                    let now = burn >= rule.threshold;
                    if now == was {
                        continue;
                    }
                    let transition = if now {
                        Transition::Fire
                    } else {
                        Transition::Clear
                    };
                    if now {
                        self.firing.insert(alert.clone());
                    } else {
                        self.firing.remove(&alert);
                    }
                    events.push(AlertEvent {
                        scrape,
                        alert,
                        transition,
                        burn,
                    });
                }
            }
        }
        events
    }

    fn burn(state: &ModelState, spec: &SloSpec, kind: SloKind, window: usize) -> Option<f64> {
        match kind {
            SloKind::Availability => {
                let d_sub = state.submitted.delta(window)?;
                let d_bad = state.bad.delta(window)?;
                if d_sub <= 0.0 {
                    return Some(0.0);
                }
                Some((d_bad / d_sub) / (1.0 - spec.availability))
            }
            SloKind::Latency => {
                let diff = state.window_hist(window)?;
                if diff.count() == 0 {
                    return Some(0.0);
                }
                let over = diff.count_over(spec.latency_objective.as_secs_f64()) as f64;
                Some((over / diff.count() as f64) / (1.0 - spec.latency_quantile))
            }
        }
    }

    /// The burn rate a rule of the given window would see right now for
    /// `spec`'s objective of the given kind, or `None` on insufficient
    /// data.
    pub(crate) fn burn_rate(&self, spec: &SloSpec, kind: SloKind, window: usize) -> Option<f64> {
        Self::burn(self.models.get(&spec.model)?, spec, kind, window)
    }

    /// The fraction of `spec`'s error budget still unspent since the
    /// engine first saw the model, for the given objective. 1.0 with an
    /// untouched budget, negative once overspent, `None` before the
    /// model has been observed. With no traffic since baseline the
    /// budget is untouched.
    pub fn error_budget_remaining(&self, spec: &SloSpec, kind: SloKind) -> Option<f64> {
        let state = self.models.get(&spec.model)?;
        let (bad, total, budget_frac) = match kind {
            SloKind::Availability => {
                let total =
                    (state.submitted.latest()? as u64).saturating_sub(state.baseline_submitted);
                let bad = (state.bad.latest()? as u64).saturating_sub(state.baseline_bad);
                (bad, total, 1.0 - spec.availability)
            }
            SloKind::Latency => {
                let diff = Histogram::diff(state.hists.back()?, &state.baseline_hist);
                let bad = diff.count_over(spec.latency_objective.as_secs_f64());
                (bad, diff.count(), 1.0 - spec.latency_quantile)
            }
        };
        if total == 0 {
            return Some(1.0);
        }
        Some(1.0 - bad as f64 / (total as f64 * budget_frac))
    }

    /// The latency quantile of just the last `window` scrapes for
    /// `model`, in seconds. 0.0 for an empty window (the histogram's
    /// empty sentinel); `None` until a full window exists.
    pub fn windowed_quantile(&self, model: &str, window: usize, q: f64) -> Option<f64> {
        Some(self.models.get(model)?.window_hist(window)?.quantile(q))
    }

    /// Whether a specific alert identity is currently firing.
    pub(crate) fn is_firing(&self, alert: &Alert) -> bool {
        self.firing.contains(alert)
    }

    /// Every alert currently firing, in deterministic spec × objective
    /// × rule order.
    pub fn firing_alerts(&self) -> Vec<Alert> {
        let mut out = Vec::new();
        for spec in &self.specs {
            for kind in [SloKind::Availability, SloKind::Latency] {
                for rule in &self.rules {
                    let alert = Alert {
                        model: spec.model.clone(),
                        slo: kind,
                        speed: rule.speed,
                    };
                    if self.firing.contains(&alert) {
                        out.push(alert);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use crate::alert::AlertSpeed;

    use super::*;

    fn obs(model: &str, submitted: u64, bad: u64, lat: &[(f64, u64)]) -> ModelObservation {
        let mut h = Histogram::default();
        for &(s, n) in lat {
            for _ in 0..n {
                h.record(s);
            }
        }
        ModelObservation {
            model: model.into(),
            submitted,
            completed: submitted - bad,
            shed: bad,
            failed: 0,
            latency: h,
        }
    }

    fn engine() -> SloEngine {
        SloEngine::new(
            vec![SloSpec::new("m", 0.99, Duration::from_millis(10), 0.95)],
            vec![BurnRule {
                speed: AlertSpeed::Fast,
                window: 2,
                threshold: 4.0,
            }],
        )
    }

    #[test]
    fn availability_burn_fires_and_clears_at_exact_scrapes() {
        let mut e = engine();
        // Scrapes 0..2: clean traffic, 100 requests per scrape.
        let mut events = Vec::new();
        for i in 0..3u64 {
            events.extend(e.observe(&[obs("m", 100 * (i + 1), 0, &[])]));
        }
        assert!(
            events.is_empty(),
            "clean traffic must not alert: {events:?}"
        );
        // Scrape 3: 10% of the window's 200 requests go bad → burn
        // (20/200)/0.01 = 10 ≥ 4.
        let fired = e.observe(&[obs("m", 400, 20, &[])]);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].scrape, 3);
        assert_eq!(fired[0].transition, Transition::Fire);
        assert_eq!(fired[0].alert.slo, SloKind::Availability);
        assert!((fired[0].burn - 10.0).abs() < 1e-9);
        assert_eq!(e.firing_alerts().len(), 1);
        // Scrape 4 still has the bad scrape in its window; scrape 5
        // does not → clear.
        assert!(e.observe(&[obs("m", 500, 20, &[])]).is_empty());
        let cleared = e.observe(&[obs("m", 600, 20, &[])]);
        assert_eq!(cleared.len(), 1);
        assert_eq!(cleared[0].scrape, 5);
        assert_eq!(cleared[0].transition, Transition::Clear);
        assert!(e.firing_alerts().is_empty());
    }

    #[test]
    fn latency_burn_uses_the_window_distribution() {
        let mut e = engine();
        // Two scrapes of fast completions, then a scrape where 40% of
        // the window's completions exceed the 10 ms objective → burn
        // 0.4 / 0.05 = 8 ≥ 4.
        e.observe(&[obs("m", 10, 0, &[(0.001, 10)])]);
        e.observe(&[obs("m", 20, 0, &[(0.001, 20)])]);
        let mut events = e.observe(&[obs("m", 30, 0, &[(0.001, 22), (0.050, 8)])]);
        events.retain(|ev| ev.alert.slo == SloKind::Latency);
        assert_eq!(events.len(), 1, "latency alert expected");
        assert_eq!(events[0].transition, Transition::Fire);
        assert!((events[0].burn - 8.0).abs() < 1e-9);
        let q = e.windowed_quantile("m", 2, 0.5).unwrap();
        assert!(
            q < 0.002,
            "window median should be the fast bucket, got {q}"
        );
    }

    #[test]
    fn zero_traffic_windows_burn_nothing() {
        let mut e = engine();
        e.observe(&[obs("m", 100, 10, &[])]);
        // Traffic stops dead: counters freeze.
        for _ in 0..5 {
            let events = e.observe(&[obs("m", 100, 10, &[])]);
            assert!(events.is_empty(), "idle windows must not alert");
        }
        let spec = e.specs()[0].clone();
        assert_eq!(e.burn_rate(&spec, SloKind::Availability, 2), Some(0.0));
        assert_eq!(e.burn_rate(&spec, SloKind::Latency, 2), Some(0.0));
    }

    #[test]
    fn budget_accounting_spans_the_engine_lifetime() {
        let mut e = engine();
        // Baseline carries 1000 submitted / 5 bad from before the
        // engine was born; those must not count.
        e.observe(&[obs("m", 1000, 5, &[(0.001, 100)])]);
        let spec = e.specs()[0].clone();
        assert_eq!(
            e.error_budget_remaining(&spec, SloKind::Availability),
            Some(1.0)
        );
        // 1000 new requests, 5 bad: exactly half the 1% budget.
        e.observe(&[obs("m", 2000, 10, &[(0.001, 100)])]);
        let rem = e
            .error_budget_remaining(&spec, SloKind::Availability)
            .unwrap();
        assert!((rem - 0.5).abs() < 1e-9, "got {rem}");
        // 100 more, all bad: budget deeply overspent → negative.
        e.observe(&[obs("m", 2100, 110, &[(0.001, 100)])]);
        assert!(
            e.error_budget_remaining(&spec, SloKind::Availability)
                .unwrap()
                < 0.0
        );
        // Latency budget: no completion exceeded the objective.
        assert_eq!(e.error_budget_remaining(&spec, SloKind::Latency), Some(1.0));
    }

    #[test]
    fn unobserved_models_are_skipped_not_alerted() {
        let mut e = engine();
        for i in 0..10u64 {
            let events = e.observe(&[obs("other", 10 * (i + 1), 10 * (i + 1), &[])]);
            assert!(events.is_empty(), "no spec covers 'other'");
        }
        let spec = e.specs()[0].clone();
        assert!(e.burn_rate(&spec, SloKind::Availability, 2).is_none());
        assert!(e
            .error_budget_remaining(&spec, SloKind::Availability)
            .is_none());
    }
}
