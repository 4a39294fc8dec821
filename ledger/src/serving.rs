//! The three serving workloads: one closed loop from the harness thread
//! over two transports (in-process `Client`, one TCP connection) and
//! three request paths (single replica, micro-batched, shard group).
//!
//! Every server here runs on `NetworkModel::ideal()`: a modeled hop is
//! paid as a real `thread::sleep`, and a sleep on a shared host is noise,
//! not signal.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bw_fleet::{FleetConfig, FleetController};
use bw_gir::PinnedModel;
use bw_obs::{BurnRule, ModelObservation, SloEngine, SloSpec};
use bw_serve::demo::{mlp_artifact, sharded_mlp};
use bw_serve::{
    read_frame, write_frame, BatchConfig, Client, Pending, Server, TcpFrontend, TcpFrontendConfig,
    WireRequest, WireResponse,
};

use crate::host::process_cpu_ns;
use crate::layers::{time_ns, Metrics, Probes};
use crate::pool::{input_pool, POOL_SIZE};
use crate::span::Tracer;
use crate::stats::{median_u64, percentile};
use crate::trial::{OpDetail, Phase, Sizes, Trial};
use crate::workload::{OpCounts, Workload};

/// Weights of every served model; the run's seed draws the inputs only.
pub const MODEL_SEED: u64 = 7;
/// The small MLP of `serve-inproc` and `serve-tcp`: a few µs of NPU work.
pub const MLP_WIDTHS: [usize; 4] = [16, 64, 32, 8];
/// The wide MLP of `serve-sharded`.
pub const WIDE_WIDTHS: [usize; 4] = [64, 512, 256, 64];
/// Per-worker weight budget that splits the 512 × 256 stage in two and
/// leaves the other stages whole.
pub const SHARD_BUDGET: u64 = 70_000;
/// Generous, so that a stall of the host fails no op.
const DEADLINE: Duration = Duration::from_secs(2);
/// The coalescing cap of the batched front end.
const BATCH_CAP: usize = 8;

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The seeded inputs of one model and what a single-device
/// `PinnedModel::infer` returns for each.
struct Pool {
    inputs: Vec<Vec<f32>>,
    expected: Vec<Vec<f32>>,
}

impl Pool {
    fn new(seed: u64, reference: &mut PinnedModel) -> Pool {
        let inputs = input_pool(seed, reference.input_dim());
        let expected = inputs
            .iter()
            .map(|x| reference.infer(x).expect("reference model runs"))
            .collect();
        Pool { inputs, expected }
    }
}

struct Reply {
    output: Vec<f32>,
    detail: OpDetail,
    sim_cycles: u64,
}

/// How the closed loop reaches the server.
trait Transport {
    type Ticket;
    fn send(&mut self, input: &[f32], op: u64, t: &mut Tracer) -> Result<Self::Ticket, String>;
    fn recv(&mut self, ticket: Self::Ticket, op: u64, t: &mut Tracer) -> Result<Reply, String>;
    /// What connecting cost; zero for a transport that does not connect.
    fn connect_ns(&self) -> u64 {
        0
    }
}

struct InProc {
    client: Client,
    model: &'static str,
}

impl Transport for InProc {
    type Ticket = Pending;

    fn send(&mut self, input: &[f32], op: u64, t: &mut Tracer) -> Result<Pending, String> {
        t.span("Client::submit", op, |_| {
            self.client.submit(self.model, input, DEADLINE)
        })
        .map_err(|e| format!("{e:?}"))
    }

    fn recv(&mut self, ticket: Pending, op: u64, t: &mut Tracer) -> Result<Reply, String> {
        let r = t
            .span("Pending::wait", op, |_| ticket.wait())
            .map_err(|e| format!("{e:?}"))?;
        Ok(Reply {
            output: r.output,
            detail: OpDetail {
                reported_ns: r.latency.as_nanos() as u64,
                queue_wait_ns: r.attribution.queue_wait.as_nanos() as u64,
                service_ns: r.attribution.service.as_nanos() as u64,
                network_ns: r.attribution.network.as_nanos() as u64,
            },
            sim_cycles: r.attribution.npu_cycles,
        })
    }
}

/// One client connection speaking the wire protocol.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    model: &'static str,
    connect_ns: u64,
}

impl Wire {
    fn connect(frontend: &TcpFrontend, model: &'static str) -> Wire {
        let t0 = Instant::now();
        let stream = TcpStream::connect(frontend.addr()).expect("front end accepts");
        let connect_ns = t0.elapsed().as_nanos() as u64;
        stream.set_nodelay(true).expect("TCP_NODELAY is settable");
        Wire {
            reader: BufReader::new(stream.try_clone().expect("socket clones")),
            writer: BufWriter::new(stream),
            model,
            connect_ns,
        }
    }
}

impl Transport for Wire {
    type Ticket = ();

    fn send(&mut self, input: &[f32], op: u64, t: &mut Tracer) -> Result<(), String> {
        let payload = t.span("WireRequest::encode", op, |_| {
            WireRequest::Infer {
                model: self.model.to_owned(),
                deadline_us: DEADLINE.as_micros() as u64,
                input: input.to_vec(),
            }
            .encode()
        });
        t.span("write_frame", op, |_| {
            write_frame(&mut self.writer, &payload)
        })
        .map_err(|e| e.to_string())
    }

    fn recv(&mut self, (): (), op: u64, t: &mut Tracer) -> Result<Reply, String> {
        let frame = t
            .span("read_frame", op, |_| read_frame(&mut self.reader))
            .map_err(|e| e.to_string())?
            .ok_or("connection closed")?;
        match t.span("WireResponse::decode", op, |_| WireResponse::decode(&frame)) {
            Ok(WireResponse::Infer {
                latency_us,
                queue_wait_us,
                service_us,
                network_us,
                npu_cycles,
                output,
                ..
            }) => Ok(Reply {
                output,
                detail: OpDetail {
                    reported_ns: latency_us * 1_000,
                    queue_wait_ns: queue_wait_us * 1_000,
                    service_ns: service_us * 1_000,
                    network_ns: network_us * 1_000,
                },
                sim_cycles: npu_cycles,
            }),
            other => Err(format!("{other:?}")),
        }
    }

    fn connect_ns(&self) -> u64 {
        self.connect_ns
    }
}

/// Where the next op takes its input and its id from.
#[derive(Default)]
struct Cursor {
    input: usize,
    op: u64,
}

/// `ops` ops with at most `window` in flight from this thread: the next
/// op is sent only when the oldest has been answered and checked.
fn closed_loop<T: Transport>(
    name: &'static str,
    transport: &mut T,
    pool: &Pool,
    cursor: &mut Cursor,
    ops: usize,
    window: usize,
    tracer: &mut Tracer,
) -> Phase {
    let mut phase = Phase::default();
    let mut latencies = Vec::with_capacity(ops);
    let traced = tracer.is_on();
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    tracer.span(name, cursor.op, |tracer| {
        let mut in_flight = VecDeque::with_capacity(window);
        let mut sent = 0;
        while sent < ops || !in_flight.is_empty() {
            while sent < ops && in_flight.len() < window {
                let (idx, op) = (cursor.input % POOL_SIZE, cursor.op);
                cursor.input += 1;
                cursor.op += 1;
                sent += 1;
                phase.attempted += 1;
                let started = Instant::now();
                match transport.send(&pool.inputs[idx], op, tracer) {
                    Ok(ticket) => in_flight.push_back((ticket, idx, op, started)),
                    Err(e) => fail(&mut phase, op, &e),
                }
            }
            let Some((ticket, idx, op, started)) = in_flight.pop_front() else {
                continue;
            };
            let reply = transport.recv(ticket, op, tracer);
            let lat_ns = started.elapsed().as_nanos() as u64;
            match reply {
                Ok(r) if same_bits(&r.output, &pool.expected[idx]) => {
                    phase.sim_cycles += r.sim_cycles;
                    latencies.push(lat_ns);
                    if traced {
                        phase.detail.push(r.detail);
                    }
                }
                Ok(_) => fail(&mut phase, op, "output differs from PinnedModel::infer"),
                Err(e) => fail(&mut phase, op, &e),
            }
        }
    });
    phase.wall_ns = t0.elapsed().as_nanos() as u64;
    phase.cpu_ns = process_cpu_ns() - cpu0;
    phase.set_latencies(latencies, traced);
    phase
}

fn fail(phase: &mut Phase, op: u64, why: &str) {
    if phase.failed < 5 {
        eprintln!("op {op} failed: {why}");
    }
    phase.failed += 1;
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    Single,
    Batched,
    Sharded,
}

/// A spawned pool, its seeded inputs and the two transports of a trial.
/// Fields drop in order: connections, then front ends, then the pool.
struct Serving<T: Transport> {
    path: Path,
    unloaded: T,
    loaded: T,
    _frontends: Vec<TcpFrontend>,
    server: Arc<Server>,
    model: &'static str,
    pool: Pool,
    reference: PinnedModel,
    sizes: Sizes,
    cursor: Cursor,
    spawn_ns: u64,
    /// `(segments, widest segment)` of the served plan.
    plan: (usize, usize),
    /// `(batches, batched requests)` the loaded phases added.
    loaded_batches: (u64, u64),
}

fn spawn(builder: bw_serve::ServerBuilder) -> (Arc<Server>, u64) {
    let t0 = Instant::now();
    let server = builder.spawn().expect("demo pool spawns");
    (Arc::new(server), t0.elapsed().as_nanos() as u64)
}

/// The small MLP, what a pinned copy answers for the seed's pool, and a
/// one-replica pool serving it.
fn mlp_pool(seed: u64) -> (PinnedModel, Pool, Arc<Server>, u64) {
    let artifact = mlp_artifact("mlp", &MLP_WIDTHS, MODEL_SEED);
    let mut reference = artifact.pin().expect("demo MLP pins");
    let pool = Pool::new(seed, &mut reference);
    let (server, spawn_ns) = spawn(Server::builder().model(artifact).replicas(1).queue_cap(256));
    (reference, pool, server, spawn_ns)
}

fn in_proc(server: &Server, model: &'static str) -> InProc {
    InProc {
        client: server.client(),
        model,
    }
}

/// `serve-inproc`: the small MLP on one replica through
/// `Client::submit`/`Pending::wait`. Admission, routing, channels and
/// wake-ups do most of the work of a ≈17 µs round trip.
pub fn inproc(seed: u64) -> Box<dyn Workload> {
    let (reference, pool, server, spawn_ns) = mlp_pool(seed);
    // ≈8 ms unloaded, ≈17 ms loaded.
    let sizes = Sizes {
        unloaded_ops: 400,
        loaded_ops: 1000,
        window: 8,
        warmup_ops: 512,
    };
    let (unloaded, loaded) = (in_proc(&server, "mlp"), in_proc(&server, "mlp"));
    Box::new(Serving::start(
        Path::Single,
        (unloaded, loaded),
        Vec::new(),
        (server, spawn_ns),
        "mlp",
        (pool, reference),
        sizes,
        (1, 1),
    ))
}

/// `serve-tcp`: the same MLP and pool behind two front ends on one
/// event loop each. `b1` (batch cap 1) serves the unloaded phase; `b8`
/// (cap 8) serves the loaded phase with 16 in flight, so that windows
/// flush full and never by the hold timer.
pub fn tcp(seed: u64) -> Box<dyn Workload> {
    let (reference, pool, server, spawn_ns) = mlp_pool(seed);
    let frontend = |max_batch, dispatchers| {
        let cfg = TcpFrontendConfig {
            event_loops: 1,
            batch: BatchConfig {
                max_batch,
                max_hold: Duration::from_millis(2),
                slack_fraction: 0.25,
                dispatchers,
            },
        };
        TcpFrontend::bind_with(&server, "127.0.0.1:0", cfg).expect("loopback binds")
    };
    let (b1, b8) = (frontend(1, 1), frontend(BATCH_CAP, 2));
    // ≈30 ms unloaded (the poll tick sets it), ≈25 ms loaded; the loaded
    // ops are a whole number of full windows.
    let sizes = Sizes {
        unloaded_ops: 25,
        loaded_ops: 32 * BATCH_CAP,
        window: 2 * BATCH_CAP,
        warmup_ops: 256,
    };
    let connections = (Wire::connect(&b1, "mlp"), Wire::connect(&b8, "mlp"));
    Box::new(Serving::start(
        Path::Batched,
        connections,
        vec![b1, b8],
        (server, spawn_ns),
        "mlp",
        (pool, reference),
        sizes,
        (1, 1),
    ))
}

/// `serve-sharded`: the wide MLP as a shard group on two workers through
/// the scatter/gather coordinator, checked against single-device
/// execution of the unsharded artifact.
pub fn sharded(seed: u64) -> Box<dyn Workload> {
    let mut reference = mlp_artifact("wide", &WIDE_WIDTHS, MODEL_SEED)
        .pin()
        .expect("wide MLP pins whole");
    let pool = Pool::new(seed, &mut reference);
    let plan = sharded_mlp("wide", &WIDE_WIDTHS, MODEL_SEED, SHARD_BUDGET);
    let shape = (plan.segments().len(), plan.max_width());
    let (server, spawn_ns) = spawn(Server::builder().sharded_model(plan).replicas(2));
    // ≈25 ms unloaded, ≈45 ms loaded.
    let sizes = Sizes {
        unloaded_ops: 50,
        loaded_ops: 64,
        window: 2,
        warmup_ops: 64,
    };
    let (unloaded, loaded) = (in_proc(&server, "wide"), in_proc(&server, "wide"));
    Box::new(Serving::start(
        Path::Sharded,
        (unloaded, loaded),
        Vec::new(),
        (server, spawn_ns),
        "wide",
        (pool, reference),
        sizes,
        shape,
    ))
}

impl<T: Transport> Serving<T> {
    /// Assembles the workload and warms it up.
    #[allow(clippy::too_many_arguments)]
    fn start(
        path: Path,
        (unloaded, loaded): (T, T),
        frontends: Vec<TcpFrontend>,
        (server, spawn_ns): (Arc<Server>, u64),
        model: &'static str,
        (pool, reference): (Pool, PinnedModel),
        sizes: Sizes,
        plan: (usize, usize),
    ) -> Self {
        Serving {
            path,
            unloaded,
            loaded,
            _frontends: frontends,
            server,
            model,
            pool,
            reference,
            sizes,
            cursor: Cursor::default(),
            spawn_ns,
            plan,
            loaded_batches: (0, 0),
        }
        .warmed_up()
    }

    /// Warm-up is by op count and touches both transports.
    fn warmed_up(mut self) -> Self {
        let sizes = self.sizes;
        self.sizes = Sizes {
            unloaded_ops: sizes.warmup_ops / 8,
            loaded_ops: sizes.warmup_ops,
            ..sizes
        };
        self.trial(&mut Tracer::new(false));
        self.sizes = sizes;
        self.loaded_batches = (0, 0);
        self
    }

    fn batch_counters(&self) -> (u64, u64) {
        let snapshot = self.server.metrics();
        let row = snapshot.models.iter().find(|m| m.model == self.model);
        row.map_or((0, 0), |m| (m.batches, m.batched_requests))
    }

    /// Every traced trial's phase of one kind, as one.
    fn pooled<'a>(trials: &'a [Trial], phase: impl Fn(&'a Trial) -> &'a Phase) -> Phase {
        let mut all = Phase::default();
        for p in trials.iter().map(phase) {
            all.lat_ns.extend_from_slice(&p.lat_ns);
            all.detail.extend_from_slice(&p.detail);
        }
        all
    }
}

/// Median over a phase's ops of the caller-observed latency minus the
/// parts of it `explained` names, in microseconds.
fn unexplained_us(phase: &Phase, explained: impl Fn(&OpDetail) -> u64) -> f64 {
    let rest: Vec<u64> = phase
        .lat_ns
        .iter()
        .zip(&phase.detail)
        .map(|(lat, d)| lat.saturating_sub(explained(d)))
        .collect();
    median_u64(&rest) / 1e3
}

fn detail_median_us(phase: &Phase, field: impl Fn(&OpDetail) -> u64) -> f64 {
    median_u64(&phase.detail.iter().map(field).collect::<Vec<_>>()) / 1e3
}

impl<T: Transport> Workload for Serving<T> {
    fn sizes(&self) -> Sizes {
        self.sizes
    }

    fn trial(&mut self, tracer: &mut Tracer) -> Trial {
        let Sizes {
            unloaded_ops,
            loaded_ops,
            window,
            ..
        } = self.sizes;
        let unloaded = closed_loop(
            "unloaded",
            &mut self.unloaded,
            &self.pool,
            &mut self.cursor,
            unloaded_ops,
            1,
            tracer,
        );
        let before = self.batch_counters();
        let loaded = closed_loop(
            "loaded",
            &mut self.loaded,
            &self.pool,
            &mut self.cursor,
            loaded_ops,
            window,
            tracer,
        );
        let after = self.batch_counters();
        self.loaded_batches.0 += after.0 - before.0;
        self.loaded_batches.1 += after.1 - before.1;
        Trial {
            unloaded: Some(unloaded),
            loaded,
            canary_ns: [0; 2],
        }
    }

    fn op_counts(&mut self) -> OpCounts {
        let (_, stats) = self
            .reference
            .infer_with_stats(&self.pool.inputs[0])
            .expect("reference model runs");
        let mut counts = OpCounts::default();
        counts.add(&stats);
        counts
    }

    fn finish(&mut self) -> Vec<String> {
        let mut errors = Vec::new();
        for m in &self.server.metrics().models {
            if m.accounted() != m.submitted {
                errors.push(format!(
                    "{}: completed {} + shed {} + failed {} != submitted {}",
                    m.model, m.completed, m.shed, m.failed, m.submitted
                ));
            }
            if m.shed + m.failed > 0 {
                errors.push(format!("{}: {} shed, {} failed", m.model, m.shed, m.failed));
            }
        }
        // Not an error: a stall of the host longer than the 2 ms hold
        // flushes a window early, and that says nothing about the code.
        let (batches, requests) = self.loaded_batches;
        if self.path == Path::Batched && (requests as f64) < 7.5 * batches as f64 {
            println!(
                "note: loaded windows were flushed by the hold timer: {requests} requests in {batches} batches"
            );
        }
        errors
    }

    fn layer_metrics(&mut self, trials: &[Trial], tracer: &Tracer, _: &Probes, out: &mut Metrics) {
        let unloaded = Self::pooled(trials, |t| t.latency_phase());
        let loaded = Self::pooled(trials, |t| &t.loaded);
        let (unloaded_sorted, loaded_sorted) =
            (unloaded.sorted_latencies(), loaded.sorted_latencies());
        let us = |ns: f64| ns / 1e3;
        let p50_us = us(percentile(&unloaded_sorted, 0.5));
        let p99_us = us(percentile(&unloaded_sorted, 0.99));
        let loaded_p90_us = us(percentile(&loaded_sorted, 0.9));
        match self.path {
            Path::Single => {
                let served = |d: &OpDetail| d.queue_wait_ns + d.service_ns;
                let overhead_us = unexplained_us(&unloaded, served);
                out.put("serve.spawn_ms", self.spawn_ns as f64 / 1e6);
                out.put(
                    "serve.submit_us",
                    us(median_u64(
                        &tracer.durations_under("Client::submit", "unloaded"),
                    )),
                );
                out.put(
                    "serve.wait_us",
                    us(median_u64(
                        &tracer.durations_under("Pending::wait", "unloaded"),
                    )),
                );
                out.put(
                    "serve.queue_wait_us",
                    detail_median_us(&unloaded, |d| d.queue_wait_ns),
                );
                out.put(
                    "serve.service_us",
                    detail_median_us(&unloaded, |d| d.service_ns),
                );
                out.put("serve.overhead_us", overhead_us);
                out.put("serve.overhead_share_pct", 100.0 * overhead_us / p50_us);
                out.put("serve.lat_p99_us", p99_us);
                out.put("serve.lat_max_us", us(percentile(&unloaded_sorted, 1.0)));
                out.put("serve.loaded_lat_p90_us", loaded_p90_us);
                self.observability(tracer, out);
                // After the cost-of-watching probes, so that their ops count.
                let snapshot = self.server.metrics();
                let row = &snapshot.models[0];
                out.put("serve.completed", row.completed as f64);
                out.put("serve.shed", row.shed as f64);
                out.put("serve.failed", row.failed as f64);
                out.put("serve.retries", row.retries as f64);
            }
            Path::Batched => {
                let connects = [self.unloaded.connect_ns(), self.loaded.connect_ns()];
                out.put("tcp.connect_us", us(median_u64(&connects)));
                out.put(
                    "tcp.frontend_overhead_us",
                    unexplained_us(&unloaded, |d| d.reported_ns),
                );
                out.put("tcp.lat_p99_us", p99_us);
                let held: Vec<u64> = loaded
                    .detail
                    .iter()
                    .map(|d| d.reported_ns.saturating_sub(d.queue_wait_ns + d.service_ns))
                    .collect();
                out.put("batch.hold_us", us(median_u64(&held)));
                let (batches, requests) = self.loaded_batches;
                out.put("batch.mean_size", requests as f64 / batches.max(1) as f64);
                out.put("batch.loaded_lat_p90_us", loaded_p90_us);
            }
            Path::Sharded => {
                out.put("shard.segments", self.plan.0 as f64);
                out.put("shard.width", self.plan.1 as f64);
                let parts = |d: &OpDetail| d.queue_wait_ns + d.service_ns + d.network_ns;
                let overhead: Vec<u64> = unloaded
                    .detail
                    .iter()
                    .map(|d| d.reported_ns.saturating_sub(parts(d)))
                    .collect();
                out.put("shard.group_overhead_us", us(median_u64(&overhead)));
                let (reference, input) = (&mut self.reference, &self.pool.inputs[0]);
                let single_us = us(time_ns(15, 50, || {
                    std::hint::black_box(reference.infer(input).expect("reference model runs"));
                }));
                out.put("shard.vs_single_ratio", p50_us / single_us);
                out.put("shard.lat_p99_us", p99_us);
            }
        }
    }
}

impl<T: Transport> Serving<T> {
    /// The cost of watching: what the operator-facing calls cost on this
    /// pool, and what sampling a span trace of every request costs it.
    fn observability(&mut self, tracer: &Tracer, out: &mut Metrics) {
        let server = &self.server;
        out.put(
            "serve.metrics_snapshot_us",
            time_ns(9, 20, || {
                std::hint::black_box(server.metrics());
            }) / 1e3,
        );
        out.put(
            "serve.prometheus_render_us",
            time_ns(9, 20, || {
                std::hint::black_box(server.prometheus());
            }) / 1e3,
        );

        let observations: Vec<ModelObservation> = server
            .metrics()
            .models
            .iter()
            .map(ModelObservation::from)
            .collect();
        let spec = SloSpec::new(self.model, 0.999, Duration::from_millis(1), 0.99);
        let mut engine = SloEngine::new(vec![spec], BurnRule::default_rules());
        out.put(
            "obs.observe_us",
            time_ns(9, 50, || {
                std::hint::black_box(engine.observe(&observations));
            }) / 1e3,
        );
        let mut fleet = FleetController::new(Arc::clone(server), FleetConfig::default());
        out.put(
            "fleet.step_us",
            time_ns(9, 20, || {
                std::hint::black_box(fleet.step());
            }) / 1e3,
        );

        let events = tracer.chrome_events(20_000);
        let export_ns = time_ns(3, 1, || {
            std::hint::black_box(bw_trace::chrome_trace_json(&events));
        });
        out.put(
            "trace.chrome_export_us_per_kspan",
            export_ns / 1e3 / (events.len().max(1) as f64 / 1e3),
        );

        // Loaded throughput with a span trace sampled for every request,
        // against this pool's (sampling off), alternating, best of five.
        let artifact = mlp_artifact(self.model, &MLP_WIDTHS, MODEL_SEED);
        let (sampled, _) = spawn(
            Server::builder()
                .model(artifact)
                .replicas(1)
                .queue_cap(256)
                .trace_sample(1),
        );
        let mut sampled_transport = in_proc(&sampled, self.model);
        let mut plain_transport = in_proc(server, self.model);
        let (ops, window) = (2 * self.sizes.loaded_ops, self.sizes.window);
        let (mut plain, mut traced) = (0f64, 0f64);
        for _ in 0..5 {
            let mut off = Tracer::new(false);
            let p = closed_loop(
                "loaded",
                &mut plain_transport,
                &self.pool,
                &mut self.cursor,
                ops,
                window,
                &mut off,
            );
            let s = closed_loop(
                "loaded",
                &mut sampled_transport,
                &self.pool,
                &mut self.cursor,
                ops,
                window,
                &mut off,
            );
            plain = plain.max(p.ops_per_s());
            traced = traced.max(s.ops_per_s());
        }
        out.put(
            "serve.trace_sample_cost_pct",
            100.0 * (1.0 - traced / plain),
        );
    }
}
