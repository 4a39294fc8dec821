//! The serving metrics layer — the observability §II-A's resource
//! manager relies on to publish healthy instances — and the one statement
//! of what a *reading* of the pool is.
//!
//! **One write.** A completion is one [`ModelMetrics::complete`] call: it
//! takes its row's one lock and records the request's four durations and
//! four NPU counters together. `completed` *is* the latency histogram's
//! count, so `completed`, `latency`, `queue_wait`, `service` and `network`
//! count the same requests in every reading by construction. The
//! admission-side counters (`submitted`, `shed`, `failed`, `retries`,
//! `batches`, `batched_requests`) are lock-free; a row's completions are
//! read before its `submitted`, so `completed <= submitted` always and
//! `completed + shed + failed == submitted` once nothing is in flight.
//!
//! **One reading, one format.** [`MetricsSnapshot`] is the only export
//! of worker, link and model state, and Prometheus text
//! ([`MetricsSnapshot::to_prometheus`]) its only rendering. The scrape,
//! the fleet controller and the SLO monitor all read that one value;
//! nothing re-reads live state.
//!
//! **Two time domains.** `latency`, `queue_wait` and `service` are
//! *host-domain*: wall-clock seconds of this process. `service` is the
//! host time the NPU simulation took, not NPU time — that is `npu_cycles`
//! over the device clock. `network` and the per-link busy seconds are
//! *modeled-domain*: seconds charged by the `NetworkModel`, which
//! `latency` contains because the executor sleeps them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bw_system::LatencySummary;

/// Histogram bucket layout: geometric buckets from 1 µs upward, ×1.25 per
/// bucket. 96 buckets reach past 2000 s — far beyond any deadline this
/// runtime accepts — with ≤ 12% quantile resolution error.
const BUCKET_FLOOR_S: f64 = 1e-6;
const BUCKET_GROWTH: f64 = 1.25;
const BUCKETS: usize = 96;

/// A log-bucketed latency histogram. Records are seconds; quantiles come
/// back as the geometric midpoint of the owning bucket, so resolution is
/// bounded by the bucket growth factor, not sample count.
///
/// Histograms are also the unit of *snapshot-delta* math: two cumulative
/// readings of the same live histogram can be subtracted with
/// [`Histogram::diff`] to recover the distribution of just the samples
/// recorded between them, and per-window snapshots can be re-aggregated
/// with [`Histogram::merge`]. Both operate on the shared bucket layout,
/// so windowed quantiles inherit the same ≤ 12% resolution bound.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum_s: f64,
    min_s: f64,
    max_s: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_s: 0.0,
            min_s: f64::INFINITY,
            max_s: 0.0,
        }
    }
}

impl Histogram {
    fn bucket(latency_s: f64) -> usize {
        if latency_s <= BUCKET_FLOOR_S {
            return 0;
        }
        let idx = (latency_s / BUCKET_FLOOR_S).ln() / BUCKET_GROWTH.ln();
        (idx as usize).min(BUCKETS - 1)
    }

    /// The geometric midpoint of bucket `i` — the value quantiles resolve
    /// to, and the representative a reconstructed (diffed) histogram
    /// assigns to samples whose exact values are no longer known.
    fn bucket_mid(i: usize) -> f64 {
        let lo = BUCKET_FLOOR_S * BUCKET_GROWTH.powi(i as i32);
        (lo * (lo * BUCKET_GROWTH)).sqrt()
    }

    /// Records one latency sample (seconds).
    pub fn record(&mut self, latency_s: f64) {
        self.counts[Self::bucket(latency_s)] += 1;
        self.count += 1;
        self.sum_s += latency_s;
        self.min_s = self.min_s.min(latency_s);
        self.max_s = self.max_s.max(latency_s);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (seconds).
    pub fn sum_s(&self) -> f64 {
        self.sum_s
    }

    /// Smallest recorded sample, or `0.0` when empty.
    pub fn min_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min_s
        }
    }

    /// Largest recorded sample, or `0.0` when empty.
    pub fn max_s(&self) -> f64 {
        self.max_s
    }

    /// Cumulative `(upper_bound_s, count)` pairs through the last
    /// occupied bucket — the shape Prometheus `_bucket` series want. The
    /// implicit `+Inf` bucket (== total count) is not included. Empty for
    /// an empty histogram.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let last = match self.counts.iter().rposition(|&c| c > 0) {
            Some(i) => i,
            None => return Vec::new(),
        };
        let mut running = 0u64;
        (0..=last)
            .map(|i| {
                running += self.counts[i];
                (BUCKET_FLOOR_S * BUCKET_GROWTH.powi(i as i32 + 1), running)
            })
            .collect()
    }

    /// Nearest-rank quantile, resolved to the geometric midpoint of the
    /// owning bucket (exact min/max at the extremes).
    ///
    /// Edge behavior, relied on by the snapshot consumers: an **empty
    /// histogram returns the `0.0` sentinel for every `q`** (so idle
    /// models read as all-zero, not NaN); `q` outside `[0, 1]` clamps to
    /// the nearest extreme (`q ≤ 0` → min, `q ≥ 1` → max); a NaN `q` is
    /// treated as `0.0` and returns the min.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q.is_nan() || q <= 0.0 {
            return self.min_s;
        }
        if q >= 1.0 {
            return self.max_s;
        }
        let rank = ((self.count - 1) as f64 * q) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                return Self::bucket_mid(i).clamp(self.min_s, self.max_s);
            }
        }
        self.max_s
    }

    /// Folds another histogram's samples into this one. Counts and sums
    /// add per bucket; min/max take the extremes of both operands. An
    /// empty `other` is a no-op.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_s += other.sum_s;
        if other.count > 0 {
            self.min_s = self.min_s.min(other.min_s);
            self.max_s = self.max_s.max(other.max_s);
        }
    }

    /// Reconstructs the distribution of the samples recorded between two
    /// cumulative snapshots of the same histogram: per-bucket saturating
    /// subtraction of `before` from `after`.
    ///
    /// The window's exact min/max are unknowable from cumulative
    /// snapshots, so the result substitutes the geometric midpoints of
    /// its extreme occupied buckets — within the documented ≤ 12% bucket
    /// resolution, like every quantile. The sum is clamped at zero.
    /// Identical snapshots (and `after` lagging `before`, which cannot
    /// happen for snapshots taken in order) diff to an empty histogram.
    pub fn diff(after: &Histogram, before: &Histogram) -> Histogram {
        let mut out = Histogram::default();
        for (i, o) in out.counts.iter_mut().enumerate() {
            *o = after.counts[i].saturating_sub(before.counts[i]);
        }
        out.count = out.counts.iter().sum();
        if out.count > 0 {
            out.sum_s = (after.sum_s - before.sum_s).max(0.0);
            let first = out.counts.iter().position(|&c| c > 0).unwrap_or(0);
            let last = out.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
            out.min_s = Self::bucket_mid(first);
            out.max_s = Self::bucket_mid(last);
        }
        out
    }

    /// Samples whose owning bucket's representative (geometric midpoint)
    /// exceeds `threshold_s` — the "slow request" numerator of a latency
    /// SLO. Like quantiles, the answer is exact up to bucket resolution:
    /// samples within ≤ 12% of the threshold may fall on either side.
    pub fn count_over(&self, threshold_s: f64) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(i, _)| Self::bucket_mid(i) > threshold_s)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Summarizes the histogram in the shared `bw-system` vocabulary.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count as usize,
            mean_s: if self.count == 0 {
                0.0
            } else {
                self.sum_s / self.count as f64
            },
            p50_s: self.quantile(0.50),
            p95_s: self.quantile(0.95),
            p99_s: self.quantile(0.99),
            p999_s: self.quantile(0.999),
            max_s: if self.count == 0 { 0.0 } else { self.max_s },
        }
    }
}

/// What completions have added to one metrics row. One lock guards all
/// of it, so a reading sees each completion whole or not at all.
#[derive(Clone, Debug, Default)]
struct Completions {
    latency: Histogram,
    queue_wait: Histogram,
    service: Histogram,
    network: Histogram,
    npu_cycles: u64,
    npu_macs: u64,
    npu_dep_stall_cycles: u64,
    npu_resource_stall_cycles: u64,
}

/// Live counters for one registered model: lock-free admission-side
/// counters plus the completion record under its one lock.
#[derive(Debug, Default)]
pub(crate) struct ModelMetrics {
    /// Requests admitted (past validation).
    pub submitted: AtomicU64,
    /// Requests shed at admission (every replica queue full).
    pub shed: AtomicU64,
    /// Requests that failed after admission (deadline, faults, shutdown).
    pub failed: AtomicU64,
    /// Failover retries dispatched (attempts beyond each first).
    pub retries: AtomicU64,
    /// Coalesced multi-column dispatches issued (each packs ≥ 1
    /// requests; batch-1 requests that bypass the batcher don't count).
    pub batches: AtomicU64,
    /// Requests that travelled inside a coalesced dispatch.
    pub batched_requests: AtomicU64,
    completions: Mutex<Completions>,
}

impl ModelMetrics {
    /// Records one completed request — the only write a completion makes:
    /// its end-to-end latency, the winning attempt's queue wait and
    /// service time, its modeled network time and its NPU work.
    pub(crate) fn complete(
        &self,
        latency_s: f64,
        queue_wait_s: f64,
        service_s: f64,
        network_s: f64,
        stats: &bw_core::RunStats,
    ) {
        let mut c = self.completions.lock().unwrap();
        c.latency.record(latency_s);
        c.queue_wait.record(queue_wait_s);
        c.service.record(service_s);
        c.network.record(network_s);
        c.npu_cycles += stats.cycles;
        c.npu_macs += stats.mvm_macs;
        c.npu_dep_stall_cycles += stats.dep_stall_cycles;
        c.npu_resource_stall_cycles += stats.resource_stall_cycles;
    }
}

/// Live counters for one client↔worker network link. All increments are
/// lock-free.
#[derive(Debug, Default)]
pub(crate) struct LinkMetrics {
    /// Transfer legs charged over this link.
    pub transfers: AtomicU64,
    /// Payload bytes moved over this link.
    pub bytes: AtomicU64,
    /// Modeled busy time of this link, in nanoseconds.
    pub busy_ns: AtomicU64,
}

impl LinkMetrics {
    /// Records one transfer leg of `bytes` taking `seconds` of modeled
    /// link time.
    pub(crate) fn record(&self, bytes: usize, seconds: f64) {
        self.transfers.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.busy_ns
            .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
    }
}

/// A point-in-time reading of one model's metrics. The four histograms
/// are cumulative and come from one lock acquisition; consumers derive
/// summaries ([`Histogram::summary`]) and windows ([`Histogram::diff`])
/// from them.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelSnapshot {
    /// The model name.
    pub model: String,
    /// Requests admitted.
    pub submitted: u64,
    /// Requests completed: always `latency.count()`.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests failed after admission.
    pub failed: u64,
    /// Failover retries dispatched.
    pub retries: u64,
    /// Coalesced multi-column dispatches issued.
    pub batches: u64,
    /// Requests that travelled inside a coalesced dispatch.
    pub batched_requests: u64,
    /// End-to-end latency of completed requests (host-domain).
    pub latency: Histogram,
    /// NPU cycles attributed to completed requests.
    pub npu_cycles: u64,
    /// MVM multiply-accumulates attributed to completed requests.
    pub npu_macs: u64,
    /// [`RunStats::dep_stall_cycles`] attributed to completed requests: a
    /// sum of every chain's wait, not of pipeline cycles.
    ///
    /// [`RunStats::dep_stall_cycles`]: bw_core::RunStats::dep_stall_cycles
    pub npu_dep_stall_cycles: u64,
    /// [`RunStats::resource_stall_cycles`] attributed to completed requests:
    /// a sum of every chain's wait, which can exceed `npu_cycles` many times.
    ///
    /// [`RunStats::resource_stall_cycles`]: bw_core::RunStats::resource_stall_cycles
    pub npu_resource_stall_cycles: u64,
    /// Queue wait of each completed request's winning attempt
    /// (host-domain).
    pub queue_wait: Histogram,
    /// Host time each completed request's winning attempt spent
    /// simulating the NPU (host-domain; not NPU time).
    pub service: Histogram,
    /// Network time charged per completed request (modeled-domain;
    /// all-zero on an ideal network).
    pub network: Histogram,
}

impl ModelSnapshot {
    /// Requests the metrics account for: `completed + shed + failed`.
    /// Equals `submitted` whenever no request is still in flight.
    pub fn accounted(&self) -> u64 {
        self.completed + self.shed + self.failed
    }

    /// The row's counters, stated once — `(Prometheus family, HELP,
    /// value)` — in exposition order.
    fn counters(&self) -> [(&'static str, &'static str, u64); 11] {
        [
            (
                "bw_requests_submitted_total",
                "Requests admitted.",
                self.submitted,
            ),
            (
                "bw_requests_completed_total",
                "Requests answered with an output.",
                self.completed,
            ),
            (
                "bw_requests_shed_total",
                "Requests shed at admission.",
                self.shed,
            ),
            (
                "bw_requests_failed_total",
                "Requests failed after admission.",
                self.failed,
            ),
            (
                "bw_requests_retries_total",
                "Failover retries dispatched.",
                self.retries,
            ),
            (
                "bw_batches_total",
                "Coalesced multi-column dispatches issued.",
                self.batches,
            ),
            (
                "bw_batched_requests_total",
                "Requests served inside a coalesced dispatch.",
                self.batched_requests,
            ),
            (
                "bw_npu_cycles_total",
                "NPU cycles attributed to completed requests.",
                self.npu_cycles,
            ),
            (
                "bw_npu_macs_total",
                "MVM multiply-accumulates attributed to completed requests.",
                self.npu_macs,
            ),
            (
                "bw_npu_dep_stall_cycles_total",
                "Per-chain dependency waits, summed over chains, of completed requests; not pipeline cycles.",
                self.npu_dep_stall_cycles,
            ),
            (
                "bw_npu_resource_stall_cycles_total",
                "Per-chain resource waits, summed over chains, of completed requests; can exceed the NPU cycles.",
                self.npu_resource_stall_cycles,
            ),
        ]
    }

    /// The row's duration histograms, stated once like the counters; the
    /// HELP text names the time domain.
    fn durations(&self) -> [(&'static str, &'static str, &Histogram); 4] {
        [
            (
                "bw_request_latency_seconds",
                "End-to-end latency of completed requests (host wall time; includes modeled network).",
                &self.latency,
            ),
            (
                "bw_request_queue_wait_seconds",
                "Queue wait of completed requests, winning attempt (host wall time).",
                &self.queue_wait,
            ),
            (
                "bw_request_service_seconds",
                "Host wall time spent simulating the NPU for completed requests (not NPU time).",
                &self.service,
            ),
            (
                "bw_request_network_seconds",
                "Network time charged to completed requests (modeled seconds).",
                &self.network,
            ),
        ]
    }
}

/// One model pinned on one worker: the residency half of the fleet
/// control loop's observability.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelResidency {
    /// The pinned model's name.
    pub model: String,
    /// Seconds the pin has been resident on the worker.
    pub pinned_for_s: f64,
}

/// A point-in-time reading of the whole server.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-model readings: slots in registration order, then shard groups.
    pub models: Vec<ModelSnapshot>,
    /// Per-worker outstanding requests (queued + executing), in worker
    /// order.
    pub queue_depths: Vec<usize>,
    /// Per-worker liveness, in worker order.
    pub workers_alive: Vec<bool>,
    /// Per-worker jobs fully processed, on the worker's thread or a
    /// caller's, in worker order.
    pub worker_processed: Vec<u64>,
    /// Per-worker jobs that a waiting caller ran on the worker's device
    /// (a subset of `worker_processed`), in worker order.
    pub worker_caller_runs: Vec<u64>,
    /// Per-worker model residency (which models are pinned, and for how
    /// long), in worker order.
    pub worker_models: Vec<Vec<ModelResidency>>,
    /// Per-link transfer legs charged, in worker (link) order.
    pub link_transfers: Vec<u64>,
    /// Per-link payload bytes moved, in worker (link) order.
    pub link_bytes: Vec<u64>,
    /// Per-link modeled busy seconds, in worker (link) order.
    pub link_busy_s: Vec<f64>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a Prometheus text exposition (format
    /// 0.0.4): one series per model in the counter and histogram
    /// families, one per worker or link (labelled by index) in the rest.
    pub fn to_prometheus(&self) -> String {
        fn by_index(values: impl Iterator<Item = f64>) -> impl Iterator<Item = ([String; 1], f64)> {
            values.enumerate().map(|(i, v)| ([i.to_string()], v))
        }

        let mut e = bw_trace::Exposition::new();
        let first = self.models.first();
        let families = first.map(ModelSnapshot::counters).into_iter().flatten();
        for (c, (family, help, _)) in families.enumerate() {
            let rows = self.models.iter().map(|m| (&m.model, m.counters()[c].2));
            e.counter(family, help)
                .rows(["model"], rows.map(|(m, n)| ([m], n as f64)));
        }
        let families = first.map(ModelSnapshot::durations).into_iter().flatten();
        for (d, (family, help, _)) in families.enumerate() {
            let rows = self.models.iter().map(|m| (&m.model, m.durations()[d].2));
            let rows = rows.map(|(m, h)| ([m], h.cumulative_buckets(), h.sum_s(), h.count()));
            e.histograms(family, help, ["model"], rows);
        }
        let depths = by_index(self.queue_depths.iter().map(|&d| d as f64));
        e.gauge("bw_worker_queue_depth", "Jobs queued or executing.")
            .rows(["worker"], depths);
        let alive = by_index(self.workers_alive.iter().map(|&a| f64::from(u8::from(a))));
        e.gauge("bw_worker_alive", "Worker liveness (1 = accepting work).")
            .rows(["worker"], alive);
        let processed = by_index(self.worker_processed.iter().map(|&n| n as f64));
        e.counter("bw_worker_processed_total", "Jobs fully processed.")
            .rows(["worker"], processed);
        let caller_runs = by_index(self.worker_caller_runs.iter().map(|&n| n as f64));
        e.counter(
            "bw_worker_caller_runs_total",
            "Jobs a waiting caller ran on the worker's device.",
        )
        .rows(["worker"], caller_runs);
        let pins = || {
            let workers = self.worker_models.iter().enumerate();
            workers.flat_map(|(w, pins)| pins.iter().map(move |r| (w.to_string(), r)))
        };
        let pinned = pins().map(|(w, r)| ([w, r.model.clone()], 1.0));
        e.gauge(
            "bw_worker_model_pinned",
            "Model residency (1 = pinned on the worker).",
        )
        .rows(["worker", "model"], pinned);
        let ages = pins().map(|(w, r)| ([w, r.model.clone()], r.pinned_for_s));
        e.gauge(
            "bw_worker_pin_age_seconds",
            "Seconds each pinned model has been resident on the worker.",
        )
        .rows(["worker", "model"], ages);
        let transfers = by_index(self.link_transfers.iter().map(|&n| n as f64));
        e.counter(
            "bw_link_transfers_total",
            "Modeled network transfer legs charged per client-worker link.",
        )
        .rows(["link"], transfers);
        let bytes = by_index(self.link_bytes.iter().map(|&n| n as f64));
        e.counter(
            "bw_link_bytes_total",
            "Payload bytes moved per client-worker link.",
        )
        .rows(["link"], bytes);
        e.counter(
            "bw_link_busy_seconds_total",
            "Busy time per client-worker link (modeled seconds).",
        )
        .rows(["link"], by_index(self.link_busy_s.iter().copied()));
        e.finish()
    }
}

/// Snapshots one model's live metrics: the completion record under its
/// one lock first, `submitted` last (see the module documentation).
pub(crate) fn snapshot_model(name: &str, m: &ModelMetrics) -> ModelSnapshot {
    let c = m.completions.lock().unwrap().clone();
    ModelSnapshot {
        model: name.to_owned(),
        completed: c.latency.count(),
        latency: c.latency,
        queue_wait: c.queue_wait,
        service: c.service,
        network: c.network,
        npu_cycles: c.npu_cycles,
        npu_macs: c.npu_macs,
        npu_dep_stall_cycles: c.npu_dep_stall_cycles,
        npu_resource_stall_cycles: c.npu_resource_stall_cycles,
        shed: m.shed.load(Ordering::Relaxed),
        failed: m.failed.load(Ordering::Relaxed),
        retries: m.retries.load(Ordering::Relaxed),
        batches: m.batches.load(Ordering::Relaxed),
        batched_requests: m.batched_requests.load(Ordering::Relaxed),
        submitted: m.submitted.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bound_resolution() {
        let mut h = Histogram::default();
        for _ in 0..990 {
            h.record(1e-3);
        }
        for _ in 0..10 {
            h.record(50e-3);
        }
        // p50 within one bucket (±25%) of 1 ms; p999 near 50 ms.
        let p50 = h.quantile(0.50);
        assert!((0.75e-3..=1.3e-3).contains(&p50), "p50 {p50}");
        let p999 = h.quantile(0.999);
        assert!((35e-3..=65e-3).contains(&p999), "p999 {p999}");
        assert_eq!(h.quantile(0.0), 1e-3);
        assert_eq!(h.quantile(1.0), 50e-3);
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn histogram_summary_matches_quantiles() {
        let mut h = Histogram::default();
        for i in 1..=100 {
            h.record(i as f64 * 1e-4);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!((s.mean_s - 50.5e-4).abs() < 1e-9);
        assert_eq!(s.p50_s, h.quantile(0.5));
        assert_eq!(s.max_s, 1e-2);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.summary(), LatencySummary::default());
    }

    #[test]
    fn quantile_edges_are_documented_sentinels() {
        // Empty histogram: the 0.0 sentinel for every q, NaN included.
        let h = Histogram::default();
        for q in [0.0, 0.5, 1.0, -2.0, 3.0, f64::NAN] {
            assert_eq!(h.quantile(q), 0.0, "empty at q={q}");
        }
        assert!(h.cumulative_buckets().is_empty());
        assert_eq!((h.min_s(), h.max_s(), h.sum_s()), (0.0, 0.0, 0.0));
        // Non-empty: q clamps to [0,1] (exact min/max at the extremes)
        // and NaN is treated as 0.0.
        let mut h = Histogram::default();
        h.record(2e-3);
        h.record(7e-3);
        assert_eq!(h.quantile(0.0), 2e-3);
        assert_eq!(h.quantile(-5.0), 2e-3);
        assert_eq!(h.quantile(f64::NAN), 2e-3);
        assert_eq!(h.quantile(1.0), 7e-3);
        assert_eq!(h.quantile(9.0), 7e-3);
        assert_eq!((h.min_s(), h.max_s()), (2e-3, 7e-3));
        assert!((h.sum_s() - 9e-3).abs() < 1e-12);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_bounded() {
        let mut h = Histogram::default();
        for s in [0.5e-6, 3e-6, 3e-6, 1e-3] {
            h.record(s);
        }
        let b = h.cumulative_buckets();
        assert_eq!(b.last().map(|&(_, c)| c), Some(4));
        for w in b.windows(2) {
            assert!(w[0].0 < w[1].0, "bounds increase");
            assert!(w[0].1 <= w[1].1, "counts cumulative");
        }
        // Every recorded sample is ≤ its covering bound's bucket edge.
        assert!(b[0].0 >= 1e-6);
    }

    #[test]
    fn a_completion_is_one_record_on_every_component() {
        let m = ModelMetrics::default();
        let mut stats = bw_core::RunStats {
            cycles: 1000,
            mvm_macs: 4096,
            dep_stall_cycles: 100,
            resource_stall_cycles: 50,
            ..Default::default()
        };
        m.complete(6e-3, 1e-3, 4e-3, 0.0, &stats);
        stats.cycles = 500;
        m.complete(5e-3, 2e-3, 2e-3, 3e-4, &stats);
        let s = snapshot_model("m", &m);
        assert_eq!(s.completed, 2);
        assert_eq!(s.npu_cycles, 1500);
        assert_eq!(s.npu_macs, 8192);
        assert_eq!(s.npu_dep_stall_cycles, 200);
        assert_eq!(s.npu_resource_stall_cycles, 100);
        for h in [&s.latency, &s.queue_wait, &s.service, &s.network] {
            assert_eq!(h.count(), s.completed);
        }
        assert_eq!(s.latency.max_s(), 6e-3);
        assert_eq!(s.queue_wait.max_s(), 2e-3);
        assert_eq!(s.service.max_s(), 4e-3);
        assert_eq!(s.network.max_s(), 3e-4);
    }

    /// A two-worker, two-link reading with one model pinned on worker 0.
    fn reading(model: &str, m: &ModelMetrics) -> MetricsSnapshot {
        MetricsSnapshot {
            models: vec![snapshot_model(model, m)],
            queue_depths: vec![1, 0],
            workers_alive: vec![true, false],
            worker_processed: vec![2, 0],
            worker_caller_runs: vec![1, 0],
            worker_models: vec![
                vec![ModelResidency {
                    model: model.to_owned(),
                    pinned_for_s: 12.5,
                }],
                Vec::new(),
            ],
            link_transfers: vec![4, 0],
            link_bytes: vec![1024, 0],
            link_busy_s: vec![2e-4, 0.0],
        }
    }

    #[test]
    fn prometheus_exposition_round_trips_the_validator() {
        let m = ModelMetrics::default();
        m.submitted.store(3, Ordering::Relaxed);
        m.complete(2e-3, 1e-4, 19e-4, 2e-4, &bw_core::RunStats::default());
        m.shed.fetch_add(1, Ordering::Relaxed);
        m.failed.fetch_add(1, Ordering::Relaxed);
        let snap = reading("mlp", &m);
        assert_eq!(snap.models[0].accounted(), 3);
        let text = snap.to_prometheus();
        let n = bw_trace::validate_exposition(&text).expect("valid exposition");
        assert!(n >= 9 + 6, "sample lines: {n}");
        assert!(text.contains("bw_requests_submitted_total{model=\"mlp\"} 3"));
        assert!(text.contains("bw_requests_shed_total{model=\"mlp\"} 1"));
        assert!(text.contains("bw_requests_failed_total{model=\"mlp\"} 1"));
        assert!(text.contains("bw_batches_total{model=\"mlp\"} 0"));
        assert!(text.contains("bw_batched_requests_total{model=\"mlp\"} 0"));
        assert!(text.contains("# TYPE bw_request_latency_seconds histogram"));
        assert!(text.contains("bw_request_latency_seconds_count{model=\"mlp\"} 1"));
        assert!(text.contains("bw_request_network_seconds_count{model=\"mlp\"} 1"));
        assert!(text.contains("bw_worker_alive{worker=\"1\"} 0"));
        assert!(text.contains("bw_worker_queue_depth{worker=\"0\"} 1"));
        assert!(text.contains("bw_worker_processed_total{worker=\"0\"} 2"));
        assert!(text.contains("bw_worker_caller_runs_total{worker=\"0\"} 1"));
        assert!(text.contains("bw_worker_model_pinned{worker=\"0\",model=\"mlp\"} 1"));
        assert!(text.contains("bw_worker_pin_age_seconds{worker=\"0\",model=\"mlp\"} 12.5"));
        assert!(text.contains("bw_link_transfers_total{link=\"0\"} 4"));
        assert!(text.contains("bw_link_bytes_total{link=\"0\"} 1024"));
        assert!(text.contains("bw_link_busy_seconds_total{link=\"1\"} 0"));
        // A quote in a model name is escaped inside its label.
        let quoted = reading("mlp \"a\"", &m).to_prometheus();
        bw_trace::validate_exposition(&quoted).expect("valid exposition");
        assert!(quoted.contains(r#"bw_requests_submitted_total{model="mlp \"a\""} 3"#));
    }

    #[test]
    fn diff_recovers_the_window_distribution() {
        // Record a "before" epoch, snapshot, record a second epoch with a
        // very different shape, snapshot again: the diff must describe
        // only the second epoch.
        let mut live = Histogram::default();
        for _ in 0..100 {
            live.record(1e-3);
        }
        let before = live.clone();
        for _ in 0..50 {
            live.record(20e-3);
        }
        let window = Histogram::diff(&live, &before);
        assert_eq!(window.count(), 50);
        // Every window sample was 20 ms; the p50 must resolve there
        // (within bucket resolution), unpolluted by the 1 ms epoch.
        let p50 = window.quantile(0.5);
        assert!((15e-3..=25e-3).contains(&p50), "p50 {p50}");
        assert!((window.sum_s() - 50.0 * 20e-3).abs() < 1e-6);
        assert_eq!(window.count_over(10e-3), 50);
        assert_eq!(window.count_over(30e-3), 0);
    }

    #[test]
    fn diff_and_merge_edge_cases() {
        let mut a = Histogram::default();
        a.record(2e-3);
        a.record(8e-3);
        // Identical snapshots diff to an empty histogram with the
        // documented empty sentinels.
        let empty = Histogram::diff(&a, &a);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.quantile(0.99), 0.0);
        assert_eq!(
            (empty.min_s(), empty.max_s(), empty.sum_s()),
            (0.0, 0.0, 0.0)
        );
        // Diff against a fresh histogram is the identity on counts.
        let same = Histogram::diff(&a, &Histogram::default());
        assert_eq!(same.count(), 2);
        assert_eq!(same.cumulative_buckets(), a.cumulative_buckets());
        // Merge with empty is a no-op in both directions.
        let mut b = a.clone();
        b.merge(&Histogram::default());
        assert_eq!(b, a);
        let mut e = Histogram::default();
        e.merge(&a);
        assert_eq!(e.count(), 2);
        assert_eq!((e.min_s(), e.max_s()), (a.min_s(), a.max_s()));
        // Merging two windows is equivalent to recording both streams.
        let mut w1 = Histogram::default();
        let mut w2 = Histogram::default();
        let mut all = Histogram::default();
        for s in [1e-4, 5e-4, 2e-3] {
            w1.record(s);
            all.record(s);
        }
        for s in [7e-3, 9e-2] {
            w2.record(s);
            all.record(s);
        }
        w1.merge(&w2);
        // Sums can differ by an ulp from addition order; everything else
        // must match exactly.
        assert!((w1.sum_s() - all.sum_s()).abs() < 1e-12);
        assert_eq!(w1.cumulative_buckets(), all.cumulative_buckets());
        assert_eq!(
            (w1.count(), w1.min_s(), w1.max_s()),
            (all.count(), all.min_s(), all.max_s())
        );
    }

    #[test]
    fn count_over_respects_bucket_resolution() {
        let mut h = Histogram::default();
        for _ in 0..10 {
            h.record(1e-3);
        }
        for _ in 0..3 {
            h.record(100e-3);
        }
        // Thresholds far from any bucket edge are exact.
        assert_eq!(h.count_over(10e-3), 3);
        assert_eq!(h.count_over(500e-3), 0);
        assert_eq!(h.count_over(1e-7), 13);
        // An empty histogram has nothing over any threshold.
        assert_eq!(Histogram::default().count_over(0.0), 0);
    }

    #[test]
    fn out_of_range_latencies_clamp_to_edge_buckets() {
        let mut h = Histogram::default();
        h.record(0.0);
        h.record(1e9);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 1e9);
    }
}
