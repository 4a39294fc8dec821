//! One reading of the pool: every export renders the same
//! `MetricsSnapshot`, and a completion is one record under one lock (the
//! rules are stated in `src/metrics.rs`).
//!
//! Two scenarios over a pool that serves a whole model and a shard group
//! behind a non-ideal network: readings taken while callers hammer the
//! pool never tear, and on the quiescent pool every Prometheus sample is
//! a snapshot field.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use bw_bfp::BfpFormat;
use bw_core::NpuConfig;
use bw_gir::{LowerOptions, ShardedArtifact};
use bw_serve::demo::{demo_input, mlp_artifact, mlp_graph};
use bw_serve::{Histogram, MetricsSnapshot, ModelSnapshot, NetworkModel, Server};

const DEADLINE: Duration = Duration::from_secs(10);
const MLP: &[usize] = &[16, 64, 32, 8];
const BIG: &[usize] = &[64, 256, 32];

/// Four workers behind a 20 µs-per-hop network: `mlp` pins everywhere,
/// `big` overflows one device's MRF and serves as a two-shard group
/// (rows `big#g*` for the members, `big` for the group).
fn pool() -> Server {
    let small = NpuConfig::builder()
        .name("BW_SMALL")
        .native_dim(16)
        .lanes(4)
        .tile_engines(2)
        .mrf_entries(64)
        .vrf_entries(512)
        .clock_mhz(250.0)
        .matrix_format(BfpFormat::BFP_1S_5E_5M)
        .build()
        .unwrap();
    let big = ShardedArtifact::compile(
        "big",
        &mlp_graph(BIG, 11),
        8192,
        &small,
        &LowerOptions::default(),
    )
    .unwrap();
    Server::builder()
        .model(mlp_artifact("mlp", MLP, 7))
        .sharded_model(big)
        .replicas(4)
        .network(NetworkModel::with_hop(20e-6))
        .spawn()
        .unwrap()
}

/// One parsed exposition sample: family-qualified name, labels, value.
type Sample = (String, Vec<(String, String)>, f64);

fn parse_samples(text: &str) -> Vec<Sample> {
    let samples = text.lines().filter(|line| !line.starts_with('#'));
    samples
        .map(|line| {
            let (series, value) = line.rsplit_once(' ').unwrap();
            let (name, labels) = series.split_once('{').unwrap();
            let labels = labels.strip_suffix('}').unwrap().split(',');
            let labels = labels.map(|label| {
                let (key, value) = label.split_once('=').unwrap();
                (key.to_owned(), value.trim_matches('"').to_owned())
            });
            (name.to_owned(), labels.collect(), value.parse().unwrap())
        })
        .collect()
}

fn sample(name: &str, labels: &[(&str, &str)], value: f64) -> Sample {
    let labels = labels.iter().map(|&(k, v)| (k.to_owned(), v.to_owned()));
    (name.to_owned(), labels.collect(), value)
}

/// The per-model counter families and where a row holds each.
fn counters(m: &ModelSnapshot) -> [(&'static str, u64); 11] {
    [
        ("bw_requests_submitted_total", m.submitted),
        ("bw_requests_completed_total", m.completed),
        ("bw_requests_shed_total", m.shed),
        ("bw_requests_failed_total", m.failed),
        ("bw_requests_retries_total", m.retries),
        ("bw_batches_total", m.batches),
        ("bw_batched_requests_total", m.batched_requests),
        ("bw_npu_cycles_total", m.npu_cycles),
        ("bw_npu_macs_total", m.npu_macs),
        ("bw_npu_dep_stall_cycles_total", m.npu_dep_stall_cycles),
        (
            "bw_npu_resource_stall_cycles_total",
            m.npu_resource_stall_cycles,
        ),
    ]
}

/// The per-model histogram families and where a row holds each.
fn durations(m: &ModelSnapshot) -> [(&'static str, &Histogram); 4] {
    [
        ("bw_request_latency_seconds", &m.latency),
        ("bw_request_queue_wait_seconds", &m.queue_wait),
        ("bw_request_service_seconds", &m.service),
        ("bw_request_network_seconds", &m.network),
    ]
}

/// Every sample `snap` must render, in exposition order.
fn expected_samples(snap: &MetricsSnapshot) -> Vec<Sample> {
    let mut out = Vec::new();
    for c in 0..counters(&snap.models[0]).len() {
        for m in &snap.models {
            let (family, n) = counters(m)[c];
            out.push(sample(family, &[("model", &m.model)], n as f64));
        }
    }
    for d in 0..durations(&snap.models[0]).len() {
        for m in &snap.models {
            let ((family, h), model) = (durations(m)[d], ("model", m.model.as_str()));
            let bucket = format!("{family}_bucket");
            for (le, count) in h.cumulative_buckets() {
                let le = le.to_string();
                out.push(sample(&bucket, &[model, ("le", &le)], count as f64));
            }
            out.push(sample(&bucket, &[model, ("le", "+Inf")], h.count() as f64));
            let (sum, count) = (format!("{family}_sum"), format!("{family}_count"));
            out.push(sample(&sum, &[model], h.sum_s()));
            out.push(sample(&count, &[model], h.count() as f64));
        }
    }
    let floats = |counts: &[u64]| counts.iter().map(|&n| n as f64).collect::<Vec<_>>();
    let depths = snap.queue_depths.iter().map(|&d| d as f64).collect();
    let alive = snap.workers_alive.iter().map(|&a| f64::from(u8::from(a)));
    by_index(&mut out, "bw_worker_queue_depth", "worker", depths);
    by_index(&mut out, "bw_worker_alive", "worker", alive.collect());
    let processed = floats(&snap.worker_processed);
    by_index(&mut out, "bw_worker_processed_total", "worker", processed);
    let caller_runs = floats(&snap.worker_caller_runs);
    by_index(
        &mut out,
        "bw_worker_caller_runs_total",
        "worker",
        caller_runs,
    );
    for (family, age) in [
        ("bw_worker_model_pinned", false),
        ("bw_worker_pin_age_seconds", true),
    ] {
        for (w, pins) in snap.worker_models.iter().enumerate() {
            for r in pins {
                let labels = [("worker", &*w.to_string()), ("model", &*r.model)];
                let value = if age { r.pinned_for_s } else { 1.0 };
                out.push(sample(family, &labels, value));
            }
        }
    }
    let (transfers, bytes) = (floats(&snap.link_transfers), floats(&snap.link_bytes));
    by_index(&mut out, "bw_link_transfers_total", "link", transfers);
    by_index(&mut out, "bw_link_bytes_total", "link", bytes);
    let busy = snap.link_busy_s.clone();
    by_index(&mut out, "bw_link_busy_seconds_total", "link", busy);
    out
}

fn by_index(out: &mut Vec<Sample>, family: &str, label: &str, values: Vec<f64>) {
    for (i, v) in values.into_iter().enumerate() {
        out.push(sample(family, &[(label, &i.to_string())], v));
    }
}

#[test]
fn every_prometheus_sample_is_a_snapshot_field() {
    let server = pool();
    let client = server.client();
    for i in 0..6 {
        client
            .call("mlp", &demo_input(MLP[0], i), DEADLINE)
            .unwrap();
        client
            .call("big", &demo_input(BIG[0], i), DEADLINE)
            .unwrap();
    }
    let snap = server.metrics();
    let members = snap.models.iter().filter(|m| m.model.starts_with("big#"));
    assert!(members.count() >= 2, "member rows are part of the reading");
    assert!(
        snap.link_bytes.iter().sum::<u64>() > 0,
        "the network charged"
    );
    for m in &snap.models {
        assert_eq!(m.completed, 6, "{}", m.model);
    }

    let text = snap.to_prometheus();
    bw_trace::validate_exposition(&text).expect("valid exposition");
    let (got, want) = (parse_samples(&text), expected_samples(&snap));
    assert_eq!(got.len(), want.len());
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got, want);
    }

    // The server's scrape is that rendering of a fresh reading: on the
    // quiescent pool only the pin ages have moved.
    let age = |line: &&str| !line.starts_with("bw_worker_pin_age_seconds{");
    let scraped = server.prometheus();
    let scraped: Vec<&str> = scraped.lines().filter(age).collect();
    assert_eq!(scraped, text.lines().filter(age).collect::<Vec<_>>());
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[test]
fn readings_under_load_never_tear() {
    const CALLERS: usize = 4;
    const READINGS: usize = 200;
    let server = pool();
    let stop = AtomicBool::new(false);
    let start = Barrier::new(CALLERS + 1);
    std::thread::scope(|scope| {
        for t in 0..CALLERS {
            let (client, stop, start) = (server.client(), &stop, &start);
            scope.spawn(move || {
                let (model, dim) = if t % 2 == 0 {
                    ("mlp", MLP[0])
                } else {
                    ("big", BIG[0])
                };
                start.wait();
                let mut i = 0;
                while !stop.load(Ordering::Relaxed) {
                    client.call(model, &demo_input(dim, i), DEADLINE).unwrap();
                    i += 1;
                }
            });
        }
        start.wait();
        // A failed assertion below must still release the callers.
        let _stop = StopOnDrop(&stop);
        while server.metrics().models.iter().any(|m| m.completed == 0) {
            std::thread::yield_now();
        }
        for reading in 0..READINGS {
            for m in server.metrics().models {
                let counts = [&m.latency, &m.queue_wait, &m.service, &m.network];
                for h in counts {
                    assert_eq!(h.count(), m.completed, "reading {reading}: {}", m.model);
                }
                assert!(m.completed <= m.submitted, "reading {reading}: {}", m.model);
            }
            let scrape = parse_samples(&server.prometheus());
            let count = |family: &str, model: &str| {
                let series = scrape.iter().find(|(name, labels, _)| {
                    name == family && labels[..] == [("model".to_owned(), model.to_owned())]
                });
                series.unwrap_or_else(|| panic!("{family} of {model}")).2
            };
            for model in server.client().model_names() {
                let completed = count("bw_requests_completed_total", &model);
                for duration in ["latency", "queue_wait", "service", "network"] {
                    let family = format!("bw_request_{duration}_seconds_count");
                    assert_eq!(
                        count(&family, &model),
                        completed,
                        "scrape {reading}: {family} of {model}"
                    );
                }
            }
        }
    });

    // Quiescent: the accounting identity holds on every row.
    for m in server.metrics().models {
        assert_eq!(m.accounted(), m.submitted, "{}", m.model);
    }
}
