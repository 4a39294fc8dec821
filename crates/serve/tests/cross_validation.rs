//! Cross-validation: the analytical serving simulator (`bw-system`) and
//! the live runtime (`bw-serve`) must agree on the same serving point.
//!
//! Protocol (recorded in EXPERIMENTS.md):
//! 1. measure the warm batch-1 service time `s` of the model on a
//!    private replica — this is the ground truth both sides share. The
//!    model is sized so that `s` ≥ 0.5 ms: the load generator paces
//!    arrivals with `thread::sleep`, whose granularity is tens of
//!    microseconds, so a microsecond-scale service time would make the
//!    comparison measure the host timer instead of the queueing model;
//! 2. pick a Poisson rate for ~30% utilization of a 1-replica pool
//!    (1 replica because CI machines may have a single core, where a
//!    multi-worker pool has no real parallel capacity for the analytical
//!    model to be right about);
//! 3. run the same (model, rate, policy) point through
//!    `bw_system::simulate` and a live `bw-serve` pool under the
//!    open-loop load generator;
//! 4. require order-of-magnitude agreement on p99 and mean: the live
//!    runtime carries OS scheduling jitter the discrete-event model does
//!    not, so the tolerance is a wide ratio band — wide enough for noisy
//!    single-core CI, tight enough to catch unit mistakes, double
//!    counting, or a broken queueing model (which show up as 10x-100x).
//!
//! The band is measured on the wall clock, so the test is ignored in the
//! debug profile and runs under `cargo test --release -q` only.

use std::time::{Duration, Instant};

use bw_bfp::BfpFormat;
use bw_core::NpuConfig;
use bw_gir::{LowerOptions, ModelArtifact};
use bw_serve::demo::{demo_input, mlp_graph};
use bw_serve::{run_loadgen, ArrivalProcess, LoadgenConfig, Routing, Server};
use bw_system::{simulate, Microservice, ServiceModel};

const MODEL: &str = "xval-mlp";
const WIDTHS: &[usize] = &[256, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 256];
const SEED: u64 = 29;
const UTILIZATION: f64 = 0.3;
const REQUESTS: usize = 80;

/// The demo NPU shape with a 16× larger MRF (and a VRF to hold every
/// layer's bias), so that 7.9 M weights pin
/// and one warm inference costs the host one to two milliseconds: twice
/// the 0.5 ms the protocol needs, however fast the narrow kernels get.
fn artifact() -> ModelArtifact {
    let config = NpuConfig::builder()
        .name("BW_XVAL")
        .native_dim(16)
        .lanes(4)
        .tile_engines(4)
        .mrf_entries(32768)
        .vrf_entries(1024)
        .clock_mhz(250.0)
        .matrix_format(BfpFormat::BFP_1S_5E_5M)
        .build()
        .unwrap();
    let graph = mlp_graph(WIDTHS, SEED);
    ModelArtifact::compile(MODEL, &graph, 1 << 24, &config, &LowerOptions::default()).unwrap()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock ratio band, slow unoptimized: runs under `cargo test --release`"
)]
fn live_pool_p99_tracks_the_analytical_simulator() {
    // 1. Ground-truth service time on a private replica of the same
    //    artifact (warm: the first inference pays one-time costs).
    let probe = artifact();
    let mut pinned = probe.pin().unwrap();
    let input = demo_input(probe.input_dim(), 0);
    pinned.infer(&input).unwrap();
    let t0 = Instant::now();
    let probes = 12;
    for _ in 0..probes {
        pinned.infer(&input).unwrap();
    }
    let service_s = t0.elapsed().as_secs_f64() / f64::from(probes);
    println!("probe service time {:.0} µs", service_s * 1e6);
    assert!(
        service_s >= 0.5e-3,
        "service time {:.1} µs is too short for sleep-paced arrivals; widen WIDTHS",
        service_s * 1e6
    );

    // 2. The shared serving point.
    let rate = UTILIZATION / service_s;
    let arrivals = ArrivalProcess::Poisson { rate_per_s: rate };

    // 3a. Analytical prediction.
    let instance = Microservice {
        service: ServiceModel::PerRequest { seconds: service_s },
        servers: 1,
        network_hop_s: 0.0,
    };
    let predicted = simulate(&arrivals.generate(REQUESTS, SEED), &instance);

    // 3b. Live measurement.
    let server = Server::builder()
        .model(artifact())
        .replicas(1)
        .queue_cap(64)
        .policy(Routing::RoundRobin)
        .spawn()
        .unwrap();
    let measured = run_loadgen(
        &server.client(),
        &LoadgenConfig {
            model: MODEL.to_owned(),
            arrivals,
            requests: REQUESTS,
            deadline: Duration::from_secs(30),
            seed: SEED,
        },
    );

    // Low load with a deep queue and a long deadline: nothing sheds.
    assert_eq!(measured.completed, REQUESTS as u64, "{measured:?}");
    assert_eq!(measured.shed + measured.failed + measured.rejected, 0);

    // 4. Agreement bands.
    let p99_ratio = measured.latency.p99_s / predicted.latency.p99_s.max(1e-12);
    let mean_ratio = measured.latency.mean_s / predicted.latency.mean_s.max(1e-12);
    eprintln!(
        "service {:.1} µs, rate {:.0} rps; p99 live {:.1} µs vs analytical {:.1} µs (x{:.2}); \
         mean live {:.1} µs vs analytical {:.1} µs (x{:.2})",
        service_s * 1e6,
        rate,
        measured.latency.p99_s * 1e6,
        predicted.latency.p99_s * 1e6,
        p99_ratio,
        measured.latency.mean_s * 1e6,
        predicted.latency.mean_s * 1e6,
        mean_ratio,
    );
    assert!(
        (0.2..10.0).contains(&p99_ratio),
        "live p99 {:.1} µs diverges from analytical {:.1} µs (x{:.2})",
        measured.latency.p99_s * 1e6,
        predicted.latency.p99_s * 1e6,
        p99_ratio
    );
    assert!(
        (0.2..10.0).contains(&mean_ratio),
        "live mean {:.1} µs diverges from analytical {:.1} µs (x{:.2})",
        measured.latency.mean_s * 1e6,
        predicted.latency.mean_s * 1e6,
        mean_ratio
    );
    // The live mean can't beat physics: it includes the full service time.
    assert!(measured.latency.mean_s >= service_s * 0.5);
}
