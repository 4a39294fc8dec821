//! Scale and backpressure properties of the readiness-loop front end:
//! thousands of idle connections must not cost threads, and a slow
//! reader must stall only its own connection — partial writes leave the
//! residue buffered, never dropped, never reordered.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bw_serve::demo::{demo_input, mlp_artifact};
use bw_serve::{
    read_frame, write_frame, Server, TcpClient, TcpFrontend, TcpFrontendConfig, WireRequest,
    WireResponse,
};

const DEADLINE: Duration = Duration::from_secs(10);

#[cfg(target_os = "linux")]
fn threads_now() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .unwrap()
        .trim()
        .parse()
        .unwrap()
}

#[cfg(target_os = "linux")]
fn fd_soft_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3)?.parse().ok())
        })
        .unwrap_or(1024)
}

/// Thread names and counts are per process, and the sibling tests run
/// front ends of their own concurrently, so a test that observes them
/// runs alone in a child process of this binary. Returns `true` in the
/// parent once the child has passed (the test then returns) and `false`
/// in the child, which goes on to run the body.
#[cfg(target_os = "linux")]
fn rerun_alone(test: &str) -> bool {
    const CHILD: &str = "BW_FRONTEND_SCALE_CHILD";
    if std::env::var_os(CHILD).is_some() {
        return false;
    }
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", test, "--nocapture"])
        .env(CHILD, "1")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&child.stdout);
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert!(child.status.success(), "{stdout}{stderr}");
    print!("{stdout}");
    true
}

/// `voluntary_ctxt_switches` (how often the thread has blocked) of every
/// front-end thread in this process — event loops and batcher threads —
/// keyed by its `/proc` task directory and carrying its `comm`.
#[cfg(target_os = "linux")]
fn frontend_thread_blocks() -> std::collections::BTreeMap<std::path::PathBuf, (String, u64)> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| {
            let dir = task.unwrap().path();
            let status = std::fs::read_to_string(dir.join("status")).ok()?;
            let field = |key| {
                status
                    .lines()
                    .find_map(|l| Some(l.strip_prefix(key)?.trim()))
            };
            let comm = field("Name:")?.to_owned();
            let blocks = field("voluntary_ctxt_switches:")?.parse().ok()?;
            (comm.starts_with("bw-serve-loop") || comm.starts_with("bw-batch"))
                .then_some((dir, (comm, blocks)))
        })
        .collect()
}

/// A connected-but-quiet server makes no wake-ups: every event loop sits
/// in one blocking poll and every dispatcher in one condvar wait, so no
/// front-end thread blocks a second time while nothing happens. Waiting
/// longer only gives a tick more chances to show, so a slow host cannot
/// fail this.
#[cfg(target_os = "linux")]
#[test]
fn idle_connected_server_makes_no_wakeups() {
    if rerun_alone("idle_connected_server_makes_no_wakeups") {
        return;
    }
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 8], 2))
        .spawn()
        .unwrap();
    let frontend = TcpFrontend::bind(&server, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(frontend.addr()).unwrap();
    client.call("mlp", &demo_input(16, 1), DEADLINE).unwrap();

    let idle_window = || {
        let before = frontend_thread_blocks();
        // The measurement window.
        std::thread::sleep(Duration::from_millis(500));
        (before, frontend_thread_blocks())
    };
    // The first window may still catch a thread on its way back to its
    // wait after serving the request; a periodic wake-up shows in all.
    let mut window = idle_window();
    for _ in 0..2 {
        if window.0 != window.1 {
            window = idle_window();
        }
    }
    let (before, after) = window;
    assert_eq!(before, after, "front-end threads woke while idle");
    let cfg = TcpFrontendConfig::default();
    assert_eq!(
        before.len(),
        cfg.event_loops + cfg.batch.dispatchers,
        "one thread per loop and per dispatcher, nothing else: {before:?}"
    );
    assert!(
        after
            .values()
            .all(|(comm, _)| !comm.starts_with("bw-batch-flushe")),
        "the batcher still runs a flusher thread: {after:?}"
    );

    drop(client);
    frontend.shutdown();
}

/// Thousands of concurrent idle connections, zero additional threads:
/// the readiness loop multiplexes them all, and the front end stays
/// live for real traffic underneath the idle mass. Both endpoints of
/// every connection live in this process, so the connection count is
/// half the fd limit, capped at 10k sockets held open at once.
#[cfg(target_os = "linux")]
#[test]
fn idle_connection_mass_needs_no_per_connection_threads() {
    if rerun_alone("idle_connection_mass_needs_no_per_connection_threads") {
        return;
    }
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 8], 2))
        .spawn()
        .unwrap();
    let frontend = TcpFrontend::bind(&server, "127.0.0.1:0").unwrap();

    // Each in-process connection consumes two fds (client end + server
    // end); leave slack for the server's own descriptors.
    let limit = fd_soft_limit();
    let conns = (limit.saturating_sub(200) / 2).min(10_000);
    assert!(
        conns >= 256,
        "fd limit {limit} too low to make this test meaningful"
    );
    println!("{conns} idle connections (fd soft limit {limit})");

    // The front end serves a fresh connection under the idle mass. The
    // accept queue is FIFO, so once it is served every connection made
    // before it has been accepted too.
    let served = || {
        let mut client = TcpClient::connect(frontend.addr()).unwrap();
        let resp = client.call("mlp", &demo_input(16, 1), DEADLINE).unwrap();
        assert_eq!(resp.output.len(), 8);
    };
    let baseline = threads_now();
    let mut idle = Vec::with_capacity(conns);
    while idle.len() < conns {
        // Waves well inside the listen backlog, each accepted before the
        // next starts: the backlog never overflows into SYN retransmits.
        let wave = (conns - idle.len()).min(64);
        idle.extend((0..wave).map(|_| TcpStream::connect(frontend.addr()).unwrap()));
        served();
    }

    let after = threads_now();
    assert!(
        after <= baseline + 2,
        "idle connections must not spawn threads: {baseline} -> {after} with {conns} conns"
    );

    drop(idle);
    frontend.shutdown();
}

/// A client that pipelines hundreds of requests and reads nothing forces
/// the kernel buffers full: the front end's write path must absorb the
/// partial writes and `WouldBlock`s, keep the residue buffered, and
/// deliver every response — in request order, bit-identical — once the
/// reader finally drains.
#[test]
fn slow_reader_sees_backpressure_not_lost_or_reordered_frames() {
    let server = Server::builder()
        .model(mlp_artifact("wide", &[16, 512], 4))
        .spawn()
        .unwrap();
    // A single event loop so one stalled connection demonstrably cannot
    // wedge the loop it lives on.
    let frontend = TcpFrontend::bind_with(
        &server,
        "127.0.0.1:0",
        TcpFrontendConfig {
            event_loops: 1,
            ..TcpFrontendConfig::default()
        },
    )
    .unwrap();

    let reference: Vec<Vec<f32>> = (0..512u64)
        .map(|i| {
            server
                .client()
                .call("wide", &demo_input(16, i), DEADLINE)
                .unwrap()
                .output
        })
        .collect();

    // Pipeline 512 requests (~2 KiB of response each, ~1 MiB total)
    // without reading a byte back.
    let mut stream = TcpStream::connect(frontend.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    for i in 0..512u64 {
        let req = WireRequest::Infer {
            model: "wide".into(),
            deadline_us: DEADLINE.as_micros() as u64,
            input: demo_input(16, i),
        };
        write_frame(&mut stream, &req.encode()).unwrap();
    }
    stream.flush().unwrap();

    // Wait until all 512 are served: their responses pile up against the
    // unread socket, the kernel buffers fill and the front end's wbuf
    // takes the overflow.
    let start = Instant::now();
    while server.metrics().models[0].completed < 512 + 512 {
        assert!(start.elapsed() < DEADLINE, "the pipelined requests stalled");
        // Poll interval: each check takes a metrics snapshot.
        std::thread::sleep(Duration::from_millis(1));
    }

    // While this connection is stalled, a second client on the same
    // (single) event loop must still get served.
    let mut other = TcpClient::connect(frontend.addr()).unwrap();
    let resp = other.call("wide", &demo_input(16, 0), DEADLINE).unwrap();
    assert_eq!(resp.output, reference[0]);

    // Now drain slowly; every response arrives, in order, intact.
    for (i, expected) in reference.iter().enumerate() {
        let payload = read_frame(&mut stream)
            .unwrap()
            .unwrap_or_else(|| panic!("connection closed early at response {i}"));
        match WireResponse::decode(&payload).unwrap() {
            WireResponse::Infer { output, .. } => {
                assert_eq!(&output, expected, "response {i} corrupted or reordered");
            }
            other => panic!("response {i}: unexpected frame {other:?}"),
        }
        if i % 64 == 0 {
            // Read slowly: the front end must keep buffering meanwhile.
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    let m = server.metrics();
    assert_eq!(m.models[0].completed, 512 + 512 + 1);
    frontend.shutdown();
}

/// A framing error terminates the connection with one final `Error`
/// frame — but only after the responses already owed have been
/// delivered in order.
#[test]
fn framing_error_drains_owed_responses_before_the_goodbye_frame() {
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 8], 6))
        .spawn()
        .unwrap();
    let frontend = TcpFrontend::bind(&server, "127.0.0.1:0").unwrap();

    let mut stream = TcpStream::connect(frontend.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    // Two valid requests, then garbage with an honest length prefix.
    for i in 0..2u64 {
        let req = WireRequest::Infer {
            model: "mlp".into(),
            deadline_us: DEADLINE.as_micros() as u64,
            input: demo_input(16, i),
        };
        write_frame(&mut stream, &req.encode()).unwrap();
    }
    write_frame(&mut stream, &[0x7F, 1, 2, 3]).unwrap();

    for i in 0..2 {
        let payload = read_frame(&mut stream).unwrap().unwrap();
        assert!(
            matches!(
                WireResponse::decode(&payload).unwrap(),
                WireResponse::Infer { .. }
            ),
            "owed response {i} must arrive before the error frame"
        );
    }
    let payload = read_frame(&mut stream).unwrap().unwrap();
    assert!(matches!(
        WireResponse::decode(&payload).unwrap(),
        WireResponse::Error(_)
    ));
    // Then the server closes.
    assert!(read_frame(&mut stream).unwrap().is_none());
    frontend.shutdown();
}
