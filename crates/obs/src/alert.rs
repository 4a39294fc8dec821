//! The typed alert vocabulary: what can fire, how fast, and the
//! fire/clear transitions the engine emits.

/// Which objective of an SLO an alert is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SloKind {
    /// The availability objective: the fraction of admitted requests
    /// that must terminate successfully (shed and failed both count
    /// against it).
    Availability,
    /// The latency objective: the configured quantile of completed
    /// requests must finish within the objective duration.
    Latency,
}

impl SloKind {
    /// A stable, export-friendly name.
    pub(crate) fn label(self) -> &'static str {
        match self {
            SloKind::Availability => "availability",
            SloKind::Latency => "latency",
        }
    }
}

/// Which burn-rate rule produced an alert: the fast window catches
/// sudden outages in a handful of scrapes, the slow window catches
/// sustained low-grade burns the fast window's high threshold ignores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlertSpeed {
    /// The short-window, high-threshold rule.
    Fast,
    /// The long-window, low-threshold rule.
    Slow,
}

impl AlertSpeed {
    /// A stable, export-friendly name.
    pub(crate) fn label(self) -> &'static str {
        match self {
            AlertSpeed::Fast => "fast",
            AlertSpeed::Slow => "slow",
        }
    }
}

/// One alert identity: a model's SLO objective at one rule speed. Two
/// firings of the same identity are the same alert flapping, not two
/// alerts.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Alert {
    /// The model the SLO belongs to.
    pub model: String,
    /// Which objective is burning.
    pub slo: SloKind,
    /// Which rule speed crossed its threshold.
    pub speed: AlertSpeed,
}

/// An alert's state change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Transition {
    /// The burn rate crossed up through the rule's threshold.
    Fire,
    /// The burn rate dropped back below the threshold.
    Clear,
}

impl Transition {
    /// A stable, export-friendly name.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Transition::Fire => "fire",
            Transition::Clear => "clear",
        }
    }
}

/// One emitted transition: which alert changed state at which scrape,
/// and the burn rate that decided it.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertEvent {
    /// The scrape ordinal the transition happened at (0 = the engine's
    /// first observation).
    pub scrape: u64,
    /// The alert that changed state.
    pub alert: Alert,
    /// Fire or clear.
    pub transition: Transition,
    /// The burn rate measured at this scrape (≥ threshold on fire,
    /// < threshold on clear).
    pub burn: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(SloKind::Availability.label(), "availability");
        assert_eq!(SloKind::Latency.label(), "latency");
        assert_eq!(AlertSpeed::Fast.label(), "fast");
        assert_eq!(AlertSpeed::Slow.label(), "slow");
        assert_eq!(Transition::Fire.label(), "fire");
        assert_eq!(Transition::Clear.label(), "clear");
    }

    #[test]
    fn alerts_are_identities() {
        let a = Alert {
            model: "m".into(),
            slo: SloKind::Latency,
            speed: AlertSpeed::Fast,
        };
        let b = a.clone();
        assert_eq!(a, b);
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
