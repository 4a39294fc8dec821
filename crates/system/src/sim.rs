//! Discrete-event serving simulation.
//!
//! Models the paper's serving context (§I, §II): requests arrive one at a
//! time over the datacenter network at a hardware microservice backed by
//! one or more accelerators. Two service disciplines capture the paper's
//! central contrast:
//!
//! * [`ServiceModel::PerRequest`] — the BW NPU discipline: requests are
//!   served individually the moment a device frees up, so latency is
//!   service time plus queueing only;
//! * [`ServiceModel::Batched`] — the GPU discipline: a batching queue
//!   holds requests until `batch_max` accumulate or a timeout expires,
//!   trading latency for device efficiency (§VII-B3's "batching queues and
//!   runtime").

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::summary::{nearest_rank, LatencySummary};

/// How requests arrive at the microservice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals at the given mean rate.
    Poisson {
        /// Mean arrivals per second.
        rate_per_s: f64,
    },
    /// Deterministic arrivals at a fixed interval.
    Uniform {
        /// Seconds between arrivals.
        interval_s: f64,
    },
}

impl ArrivalProcess {
    /// Generates `n` arrival timestamps (seconds, ascending).
    ///
    /// # Panics
    ///
    /// Panics if the rate or interval is not positive.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut t = 0.0f64;
        let mut out = Vec::with_capacity(n);
        match *self {
            ArrivalProcess::Poisson { rate_per_s } => {
                assert!(rate_per_s > 0.0, "rate must be positive");
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..n {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    t += -u.ln() / rate_per_s;
                    out.push(t);
                }
            }
            ArrivalProcess::Uniform { interval_s } => {
                assert!(interval_s > 0.0, "interval must be positive");
                for _ in 0..n {
                    t += interval_s;
                    out.push(t);
                }
            }
        }
        out
    }
}

/// The service discipline of the microservice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ServiceModel {
    /// Serve each request individually in `seconds` (the BW discipline).
    PerRequest {
        /// Service time per request.
        seconds: f64,
    },
    /// Form batches before serving (the GPU discipline): dispatch when
    /// `batch_max` requests wait or when the oldest has waited
    /// `timeout_s`; a batch of `b` takes `base_s + per_item_s · b`.
    Batched {
        /// Largest batch dispatched.
        batch_max: u32,
        /// Longest a request may wait for batch formation.
        timeout_s: f64,
        /// Fixed batch overhead.
        base_s: f64,
        /// Incremental time per batched request.
        per_item_s: f64,
    },
}

impl ServiceModel {
    fn batch_service_time(&self, batch: usize) -> f64 {
        match *self {
            ServiceModel::PerRequest { seconds } => seconds,
            ServiceModel::Batched {
                base_s, per_item_s, ..
            } => base_s + per_item_s * batch as f64,
        }
    }
}

/// A hardware microservice: a service model replicated across `servers`
/// devices, reached over a network hop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Microservice {
    /// The per-device discipline.
    pub service: ServiceModel,
    /// Devices behind the service.
    pub servers: usize,
    /// One-way network latency between client and service, in seconds
    /// (paid twice per request).
    pub network_hop_s: f64,
}

/// Latency and throughput statistics from one simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct ServingReport {
    /// Requests completed.
    pub completed: usize,
    /// End-to-end latency over every request, seconds.
    pub latency: LatencySummary,
    /// Completions per second over the busy interval.
    pub throughput_rps: f64,
    /// Mean dispatched batch size (1.0 for per-request service).
    pub mean_batch: f64,
    /// Fraction of simulated time the devices were busy.
    pub server_utilization: f64,
    /// Per-request completion timestamps (seconds), in completion order.
    pub completion_times: Vec<f64>,
    /// Per-request end-to-end latencies (seconds), sorted ascending.
    pub sorted_latencies: Vec<f64>,
}

impl ServingReport {
    /// Fraction of requests whose end-to-end latency exceeded `deadline_s`
    /// — the SLA-violation rate (§I: services must "satisfy service-level
    /// agreements").
    pub fn sla_violation_rate(&self, deadline_s: f64) -> f64 {
        if self.sorted_latencies.is_empty() {
            return 0.0;
        }
        let violations = self.sorted_latencies.partition_point(|&l| l <= deadline_s);
        (self.sorted_latencies.len() - violations) as f64 / self.sorted_latencies.len() as f64
    }

    /// The latency at quantile `q` (0 ≤ q ≤ 1), by nearest-rank.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        nearest_rank(&self.sorted_latencies, q)
    }
}

/// Simulates `arrivals` (absolute seconds, ascending) against a
/// microservice.
///
/// # Panics
///
/// Panics if the microservice has zero servers or a non-positive service
/// time.
pub fn simulate(arrivals: &[f64], service: &Microservice) -> ServingReport {
    assert!(service.servers > 0, "need at least one server");

    #[derive(PartialEq)]
    struct Ev(f64, EvKind);
    #[derive(PartialEq, Eq)]
    enum EvKind {
        Arrival(usize),
        ServerFree,
        Timeout,
    }
    impl Eq for Ev {}
    impl Ord for Ev {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0
                .partial_cmp(&other.0)
                .expect("finite times")
                .then(std::cmp::Ordering::Equal)
        }
    }
    impl PartialOrd for Ev {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut events: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
    for (i, &t) in arrivals.iter().enumerate() {
        events.push(Reverse(Ev(t + service.network_hop_s, EvKind::Arrival(i))));
    }

    let mut queue: VecDeque<(usize, f64)> = VecDeque::new(); // (request, enqueue time)
    let mut free_servers = service.servers;
    let mut latencies = vec![0.0f64; arrivals.len()];
    let mut completions: Vec<f64> = Vec::with_capacity(arrivals.len());
    let mut busy_time = 0.0f64;
    let mut batches = 0u64;
    let mut batched_requests = 0u64;
    let mut completed = 0usize;

    let (batch_max, timeout) = match service.service {
        ServiceModel::PerRequest { .. } => (1usize, f64::INFINITY),
        ServiceModel::Batched {
            batch_max,
            timeout_s,
            ..
        } => (batch_max.max(1) as usize, timeout_s),
    };

    while let Some(Reverse(Ev(now, kind))) = events.pop() {
        match kind {
            EvKind::Arrival(i) => {
                queue.push_back((i, now));
                if timeout.is_finite() && queue.len() == 1 {
                    events.push(Reverse(Ev(now + timeout, EvKind::Timeout)));
                }
            }
            EvKind::ServerFree => free_servers += 1,
            EvKind::Timeout => {}
        }

        // Dispatch while possible.
        while free_servers > 0 && !queue.is_empty() {
            let head_wait = now - queue.front().expect("non-empty").1;
            let enough = queue.len() >= batch_max || head_wait >= timeout;
            if !enough {
                break;
            }
            let b = queue.len().min(batch_max);
            let service_time = service.service.batch_service_time(b);
            assert!(service_time > 0.0, "service time must be positive");
            free_servers -= 1;
            busy_time += service_time;
            batches += 1;
            batched_requests += b as u64;
            let done = now + service_time;
            for _ in 0..b {
                let (req, _) = queue.pop_front().expect("len checked");
                latencies[req] = done + service.network_hop_s - arrivals[req];
                completions.push(done + service.network_hop_s);
                completed += 1;
            }
            events.push(Reverse(Ev(done, EvKind::ServerFree)));
        }
    }

    let mut sorted = latencies;
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let span = completions
        .iter()
        .copied()
        .fold(0.0f64, f64::max)
        .max(f64::EPSILON);
    ServingReport {
        completed,
        latency: LatencySummary::from_sorted(&sorted),
        throughput_rps: completed as f64 / span,
        mean_batch: if batches > 0 {
            batched_requests as f64 / batches as f64
        } else {
            0.0
        },
        server_utilization: busy_time / (span * service.servers as f64),
        completion_times: completions,
        sorted_latencies: sorted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BW: Microservice = Microservice {
        service: ServiceModel::PerRequest { seconds: 2e-3 },
        servers: 1,
        network_hop_s: 10e-6,
    };

    #[test]
    fn idle_system_latency_is_service_plus_hops() {
        let arrivals = ArrivalProcess::Uniform { interval_s: 0.1 }.generate(50, 0);
        let r = simulate(&arrivals, &BW);
        assert_eq!(r.completed, 50);
        let expect = 2e-3 + 2.0 * 10e-6;
        assert!(
            (r.latency.mean_s - expect).abs() < 1e-9,
            "{}",
            r.latency.mean_s
        );
        assert!((r.latency.p99_s - expect).abs() < 1e-9);
    }

    #[test]
    fn queueing_grows_latency_near_saturation() {
        // Service 2 ms -> capacity 500 rps. At 480 rps Poisson, waits blow up.
        let low = simulate(
            &ArrivalProcess::Poisson { rate_per_s: 100.0 }.generate(2000, 1),
            &BW,
        );
        let high = simulate(
            &ArrivalProcess::Poisson { rate_per_s: 480.0 }.generate(2000, 1),
            &BW,
        );
        assert!(high.latency.mean_s > 3.0 * low.latency.mean_s);
        assert!(high.server_utilization > 0.9);
        assert!(low.server_utilization < 0.3);
    }

    #[test]
    fn mm1_mean_wait_sanity() {
        // M/D/1: W_q = ρ s / (2 (1 - ρ)). At ρ = 0.5, W_q = s/2.
        let s = 2e-3;
        let rate = 0.5 / s;
        let r = simulate(
            &ArrivalProcess::Poisson { rate_per_s: rate }.generate(60_000, 7),
            &Microservice {
                network_hop_s: 0.0,
                ..BW
            },
        );
        let wait = r.latency.mean_s - s;
        let theory = s / 2.0 * 0.5 / (1.0 - 0.5) * 2.0; // = s/2
        let _ = theory;
        assert!(
            (wait - s / 2.0).abs() < s * 0.15,
            "mean queueing wait {wait} vs theory {}",
            s / 2.0
        );
    }

    #[test]
    fn batching_raises_latency_at_low_load() {
        // 200 rps: the per-request server is at 40% load, comfortably
        // unsaturated, while the batching queue still forms real batches.
        let arrivals = ArrivalProcess::Poisson { rate_per_s: 200.0 }.generate(3000, 3);
        let gpu = Microservice {
            service: ServiceModel::Batched {
                batch_max: 16,
                timeout_s: 10e-3,
                base_s: 2e-3,
                per_item_s: 0.3e-3,
            },
            servers: 1,
            network_hop_s: 10e-6,
        };
        let bw = simulate(&arrivals, &BW);
        let gp = simulate(&arrivals, &gpu);
        // The batching queue adds formation delay the BW discipline avoids.
        assert!(gp.latency.mean_s > 2.0 * bw.latency.mean_s);
        assert!(gp.mean_batch > 1.5, "mean batch {}", gp.mean_batch);
    }

    #[test]
    fn batch_timeout_bounds_the_wait() {
        // A lone request must not wait forever for batch formation.
        let gpu = Microservice {
            service: ServiceModel::Batched {
                batch_max: 32,
                timeout_s: 5e-3,
                base_s: 1e-3,
                per_item_s: 0.1e-3,
            },
            servers: 1,
            network_hop_s: 0.0,
        };
        let r = simulate(&[0.0], &gpu);
        assert_eq!(r.completed, 1);
        let expect = 5e-3 + 1e-3 + 0.1e-3;
        assert!(
            (r.latency.mean_s - expect).abs() < 1e-9,
            "{}",
            r.latency.mean_s
        );
    }

    #[test]
    fn extra_servers_raise_capacity() {
        let arrivals = ArrivalProcess::Poisson { rate_per_s: 900.0 }.generate(4000, 5);
        let one = simulate(&arrivals, &BW);
        let two = simulate(&arrivals, &Microservice { servers: 2, ..BW });
        assert!(two.latency.mean_s < one.latency.mean_s / 2.0);
        assert!(two.throughput_rps > one.throughput_rps * 0.99);
    }

    #[test]
    fn network_hop_shifts_latency() {
        // The same lightly-loaded instance with no hop and behind a
        // 500 µs hop: every request pays the hop twice, so the mean
        // shifts by 1 ms while throughput is unchanged.
        let arrivals = ArrivalProcess::Uniform { interval_s: 5e-3 }.generate(400, 0);
        let over = |network_hop_s| Microservice {
            network_hop_s,
            ..BW
        };
        let near = simulate(&arrivals, &over(0.0));
        let far = simulate(&arrivals, &over(500e-6));
        let shift = far.latency.mean_s - near.latency.mean_s;
        assert!(
            (shift - 2.0 * 500e-6).abs() < 1e-9,
            "hop shifted mean by {shift:.6}s, expected 1 ms"
        );
        assert_eq!(far.completed, near.completed);
    }

    #[test]
    fn sla_violation_rate_and_quantiles() {
        let arrivals = ArrivalProcess::Poisson { rate_per_s: 400.0 }.generate(5000, 13);
        let r = simulate(&arrivals, &BW);
        // The floor latency is ~2.02 ms; a 1 ms SLA is always violated,
        // a 1 s SLA never.
        assert_eq!(r.sla_violation_rate(1e-3), 1.0);
        assert_eq!(r.sla_violation_rate(1.0), 0.0);
        // Violation rate decreases monotonically with the deadline.
        let mut prev = 1.0;
        for deadline in [2.0e-3, 2.5e-3, 4e-3, 10e-3, 50e-3] {
            let v = r.sla_violation_rate(deadline);
            assert!(v <= prev, "deadline {deadline}: {v} > {prev}");
            prev = v;
        }
        // Quantiles are consistent with the percentile fields.
        assert_eq!(r.latency_quantile(0.5), r.latency.p50_s);
        assert_eq!(r.latency_quantile(0.99), r.latency.p99_s);
        assert!(r.latency_quantile(0.0) <= r.latency_quantile(1.0));
    }

    #[test]
    fn poisson_arrivals_have_the_requested_rate() {
        let a = ArrivalProcess::Poisson { rate_per_s: 1000.0 }.generate(50_000, 42);
        let rate = a.len() as f64 / a.last().unwrap();
        assert!((rate - 1000.0).abs() < 30.0, "{rate}");
        assert!(a.windows(2).all(|w| w[1] > w[0]));
    }
}
