//! Open-loop load generation against a live server.
//!
//! Replays an [`ArrivalProcess`] (the same arrival model `bw-system`
//! simulates analytically) against an in-process [`Client`]: requests are
//! issued at their scheduled arrival times *regardless of completions* —
//! the open-loop discipline that actually exposes queueing, shedding, and
//! tail latency.
//!
//! The generator pre-spawns a fixed pool of sender threads and stripes
//! the arrival schedule across them, so thread-spawn cost never sits on
//! the request path. A sender blocked on a slow request delays only its
//! own stripe's later arrivals (the standard fixed-concurrency
//! approximation of an open loop); with the pool sized well above the
//! expected in-flight count the approximation error is negligible.
//! Results fold into a [`LoadgenReport`] whose latency summary shares its
//! vocabulary ([`LatencySummary`]) with the analytical simulator, so the
//! two are comparable field-for-field.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bw_system::{ArrivalProcess, LatencySummary};

use crate::server::Client;

/// One load-generation run's shape.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Registered model to drive.
    pub model: String,
    /// The arrival process replayed on the wall clock.
    pub arrivals: ArrivalProcess,
    /// Number of requests to issue.
    pub requests: usize,
    /// Per-request end-to-end deadline.
    pub deadline: Duration,
    /// Seed for arrival-time generation (and input variation).
    pub seed: u64,
}

/// What one run measured.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// The driven model.
    pub model: String,
    /// Requests issued (admitted or not).
    pub offered: usize,
    /// Requests that produced an output.
    pub completed: u64,
    /// Requests shed at admission (queues saturated).
    pub shed: u64,
    /// Requests that failed after admission (deadline, fault, no replica).
    pub failed: u64,
    /// Requests rejected before admission (unknown model, bad input).
    pub rejected: u64,
    /// Failover retries observed across completed requests.
    pub retries: u64,
    /// Wall-clock duration of the run in seconds.
    pub duration_s: f64,
    /// Completed requests per wall-clock second.
    pub goodput_rps: f64,
    /// Latency summary over completed requests.
    pub latency: LatencySummary,
}

/// Sender threads the generator stripes arrivals across: enough to keep
/// the expected in-flight count covered, capped so a small machine is not
/// drowned in scheduler churn.
fn sender_threads() -> usize {
    let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get());
    (4 * ncpu + 8).min(48)
}

/// Replays `cfg` against `client`, blocking until every request settles.
pub fn run_loadgen(client: &Client, cfg: &LoadgenConfig) -> LoadgenReport {
    let offsets = cfg.arrivals.generate(cfg.requests, cfg.seed);
    let offered = offsets.len();
    // Probe the model's input width once; an unknown model surfaces as
    // `rejected` on every request instead of a panic here.
    let input_dim = client.input_dim_of(&cfg.model).unwrap_or(0);

    let completed = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let retries = Arc::new(AtomicU64::new(0));
    let latencies: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::with_capacity(offered)));

    let senders = sender_threads().min(offered.max(1));
    let start = Instant::now();
    let mut handles = Vec::with_capacity(senders);
    for stripe in 0..senders {
        // Stripe `stripe` fires arrivals stripe, stripe+senders, ... —
        // the schedule is already ascending, so each stripe is too.
        let schedule: Vec<(usize, f64)> = offsets
            .iter()
            .enumerate()
            .skip(stripe)
            .step_by(senders)
            .map(|(i, &t)| (i, t))
            .collect();
        let client = client.clone();
        let model = cfg.model.clone();
        let deadline = cfg.deadline;
        let seed = cfg.seed;
        let completed = Arc::clone(&completed);
        let shed = Arc::clone(&shed);
        let failed = Arc::clone(&failed);
        let rejected = Arc::clone(&rejected);
        let retries = Arc::clone(&retries);
        let latencies = Arc::clone(&latencies);
        handles.push(std::thread::spawn(move || {
            for (i, offset_s) in schedule {
                // Open loop: fire at the scheduled arrival whether or not
                // earlier requests (on any stripe) have finished.
                let due = start + Duration::from_secs_f64(offset_s);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let input = crate::demo::demo_input(input_dim.max(1), seed + i as u64);
                match client.call(&model, &input, deadline) {
                    Ok(resp) => {
                        completed.fetch_add(1, Ordering::Relaxed);
                        retries.fetch_add(u64::from(resp.retries), Ordering::Relaxed);
                        latencies.lock().unwrap().push(resp.latency.as_secs_f64());
                    }
                    Err(e) if e.is_shed() => {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) if !e.was_admitted() => {
                        rejected.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    let duration_s = start.elapsed().as_secs_f64();

    let lat = latencies.lock().unwrap();
    let completed = completed.load(Ordering::Relaxed);
    LoadgenReport {
        model: cfg.model.clone(),
        offered,
        completed,
        shed: shed.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        rejected: rejected.load(Ordering::Relaxed),
        retries: retries.load(Ordering::Relaxed),
        duration_s,
        goodput_rps: if duration_s > 0.0 {
            completed as f64 / duration_s
        } else {
            0.0
        },
        latency: LatencySummary::from_unsorted(&lat),
    }
}
