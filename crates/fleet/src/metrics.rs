//! Fleet-controller observability: decision counters, a Prometheus
//! exposition (`bw_fleet_*`), and [`SpanKind::FleetOp`] spans for every
//! control operation so controller activity lands on the `fleet` lane of
//! a Chrome trace next to the request timeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bw_core::{SpanKind, SpanRecord};

/// Spans are stamped in nanoseconds-as-cycles: export them with
/// [`bw_trace::spans_to_chrome`] at this clock and one cycle is one
/// wall-clock nanosecond.
pub const FLEET_SPAN_CLOCK_HZ: f64 = 1e9;

/// Live counters for one fleet controller. All increments are lock-free;
/// span recording takes a short uncontended lock.
#[derive(Debug)]
pub struct FleetMetrics {
    /// Control-loop ticks executed.
    pub ticks: AtomicU64,
    /// Scale-up decisions applied (one replica pinned).
    pub scale_ups: AtomicU64,
    /// Scale-down decisions applied (one replica unpinned).
    pub scale_downs: AtomicU64,
    /// Repair decisions applied (replica re-pinned after worker or link
    /// loss).
    pub repairs: AtomicU64,
    /// Live migrations completed.
    pub migrations: AtomicU64,
    /// Simulated weight-preload time paid across all pins, nanoseconds.
    pub preload_ns: AtomicU64,
    /// Decisions that failed to apply (for example the chosen worker
    /// died between observation and action).
    pub apply_failures: AtomicU64,
    /// Ticks on which a firing SLO alert (from an installed alert
    /// source) contributed scale-up pressure.
    pub alert_signals: AtomicU64,
    /// When this controller was born: span timestamps are nanoseconds
    /// since this instant.
    born: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    next_op: AtomicU64,
}

impl Default for FleetMetrics {
    fn default() -> Self {
        FleetMetrics {
            ticks: AtomicU64::new(0),
            scale_ups: AtomicU64::new(0),
            scale_downs: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
            preload_ns: AtomicU64::new(0),
            apply_failures: AtomicU64::new(0),
            alert_signals: AtomicU64::new(0),
            born: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_op: AtomicU64::new(1),
        }
    }
}

impl FleetMetrics {
    /// Creates a fresh metrics block; spans are stamped relative to now.
    pub fn new() -> FleetMetrics {
        FleetMetrics::default()
    }

    /// Records one control operation against worker `worker` as a
    /// [`SpanKind::FleetOp`] span: `[started, started + duration_s]` in
    /// nanoseconds since the controller was born.
    pub(crate) fn record_op(&self, worker: usize, started: Instant, duration_s: f64) {
        let start_ns = started.saturating_duration_since(self.born).as_nanos() as u64;
        let dur_ns = (duration_s.max(0.0) * 1e9) as u64;
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        self.spans.lock().unwrap().push(SpanRecord {
            trace_id: op,
            device: worker as u32,
            kind: SpanKind::FleetOp,
            chain: op,
            start_cycle: start_ns,
            end_cycle: start_ns.saturating_add(dur_ns.max(1)),
        });
    }

    /// Adds simulated preload time to the running total.
    pub(crate) fn add_preload(&self, seconds: f64) {
        self.preload_ns
            .fetch_add((seconds.max(0.0) * 1e9) as u64, Ordering::Relaxed);
    }

    /// Drains the recorded control-operation spans (oldest first).
    /// Export with [`bw_trace::spans_to_chrome`] at
    /// [`FLEET_SPAN_CLOCK_HZ`].
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans.lock().unwrap())
    }

    /// The fleet counters as a Prometheus text exposition (format
    /// 0.0.4), composable by concatenation with
    /// [`Server::prometheus`](bw_serve::Server::prometheus) output.
    pub fn prometheus(&self) -> String {
        let mut e = bw_trace::Exposition::new();
        let counters: [(&str, &str, u64); 8] = [
            (
                "bw_fleet_ticks_total",
                "Control-loop ticks executed.",
                self.ticks.load(Ordering::Relaxed),
            ),
            (
                "bw_fleet_scale_up_total",
                "Scale-up decisions applied.",
                self.scale_ups.load(Ordering::Relaxed),
            ),
            (
                "bw_fleet_scale_down_total",
                "Scale-down decisions applied.",
                self.scale_downs.load(Ordering::Relaxed),
            ),
            (
                "bw_fleet_repairs_total",
                "Replicas re-pinned after worker or link loss.",
                self.repairs.load(Ordering::Relaxed),
            ),
            (
                "bw_fleet_migrations_total",
                "Live migrations completed.",
                self.migrations.load(Ordering::Relaxed),
            ),
            (
                "bw_fleet_apply_failures_total",
                "Decisions that failed to apply.",
                self.apply_failures.load(Ordering::Relaxed),
            ),
            (
                "bw_fleet_preload_nanoseconds_total",
                "Simulated weight-preload time paid across all pins.",
                self.preload_ns.load(Ordering::Relaxed),
            ),
            (
                "bw_fleet_alert_signals_total",
                "Ticks on which a firing SLO alert contributed scale-up pressure.",
                self.alert_signals.load(Ordering::Relaxed),
            ),
        ];
        for (name, help, value) in counters {
            e.counter(name, help).value(value as f64);
        }
        e.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_exposition_validates() {
        let m = FleetMetrics::new();
        m.ticks.fetch_add(3, Ordering::Relaxed);
        m.scale_ups.fetch_add(1, Ordering::Relaxed);
        m.add_preload(1.5e-3);
        let text = m.prometheus();
        let n = bw_trace::validate_exposition(&text).expect("valid exposition");
        assert_eq!(n, 8);
        assert!(text.contains("bw_fleet_ticks_total 3"));
        assert!(text.contains("bw_fleet_scale_up_total 1"));
        assert!(text.contains("bw_fleet_preload_nanoseconds_total 1500000"));
    }

    #[test]
    fn ops_become_fleet_spans_on_the_fleet_lane() {
        let m = FleetMetrics::new();
        let started = Instant::now();
        m.record_op(2, started, 1e-3);
        m.record_op(0, started, 0.0);
        let spans = m.take_spans();
        assert_eq!(spans.len(), 2);
        assert!(m.take_spans().is_empty(), "drained");
        assert_eq!(spans[0].kind, SpanKind::FleetOp);
        assert_eq!(spans[0].device, 2);
        assert!(spans[0].cycles() >= 1_000_000, "1 ms is 1e6 ns-cycles");
        // Zero-duration ops still render as (at least) 1-cycle spans.
        assert!(spans[1].cycles() >= 1);
        let events = bw_trace::spans_to_chrome(&spans, FLEET_SPAN_CLOCK_HZ, 0.0);
        let json = bw_trace::chrome_trace_json(&events);
        assert_eq!(bw_trace::validate_chrome_trace(&json), Ok(2));
        assert!(json.contains("fleet-op"));
    }
}
