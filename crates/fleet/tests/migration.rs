//! Live-migration correctness: dual-pin → cutover → drain drops nothing,
//! answers bit-identically to an undisturbed pool, and keeps the
//! accounting identity even when workers die mid-flight.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bw_fleet::{migrate, FleetConfig, FleetController, FleetDecision, FleetMetrics};
use bw_serve::demo::{demo_input, mlp_artifact};
use bw_serve::{PinError, Server};
use proptest::prelude::*;

const DEADLINE: Duration = Duration::from_secs(5);
const INPUT_DIM: usize = 16;

fn boot(workers: usize, home: usize) -> Arc<Server> {
    Arc::new(
        Server::builder()
            .model(mlp_artifact("mig", &[INPUT_DIM, 32, 8], 13))
            .replicas(workers)
            .queue_cap(128)
            .pin_on("mig", vec![home])
            .spawn()
            .unwrap(),
    )
}

/// Waits, at most [`DEADLINE`], until `completed` has moved past `since`;
/// returns the count it reached.
fn advanced(completed: &AtomicU64, since: u64) -> u64 {
    let start = Instant::now();
    loop {
        let now = completed.load(Ordering::Relaxed);
        if now > since {
            return now;
        }
        assert!(start.elapsed() < DEADLINE, "traffic stalled at {since}");
        thread::yield_now();
    }
}

/// Expected outputs from a pool nobody migrates, one per input seed.
fn undisturbed_outputs(seeds: u64) -> Vec<Vec<f32>> {
    let server = Server::builder()
        .model(mlp_artifact("mig", &[INPUT_DIM, 32, 8], 13))
        .replicas(1)
        .spawn()
        .unwrap();
    let client = server.client();
    (0..seeds)
        .map(|s| {
            client
                .call("mig", &demo_input(INPUT_DIM, s), DEADLINE)
                .unwrap()
                .output
        })
        .collect()
}

#[test]
fn migration_under_sustained_traffic_is_bit_identical_and_lossless() {
    let expected = Arc::new(undisturbed_outputs(16));
    let server = boot(3, 0);
    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));

    let traffic: Vec<_> = (0..2)
        .map(|t| {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let expected = Arc::clone(&expected);
            let completed = Arc::clone(&completed);
            thread::spawn(move || {
                let client = server.client();
                let mut i = t;
                while !stop.load(Ordering::Acquire) {
                    let seed = i % 16;
                    let resp = client
                        .call("mig", &demo_input(INPUT_DIM, seed), DEADLINE)
                        .expect("no request may be dropped during migration");
                    assert_eq!(
                        resp.output, expected[seed as usize],
                        "response diverged from the undisturbed pool"
                    );
                    completed.fetch_add(1, Ordering::Relaxed);
                    i += 2;
                }
            })
        })
        .collect();

    // Walk the model across the pool, each hop once traffic has completed
    // since the one before, and stop once it has completed since the last.
    let fm = FleetMetrics::new();
    let seen = advanced(&completed, 0);
    let hop1 = migrate(&server, "mig", 0, 1, &fm).unwrap();
    assert_eq!((hop1.from, hop1.to), (0, 1));
    let seen = advanced(&completed, seen);
    let hop2 = migrate(&server, "mig", 1, 2, &fm).unwrap();
    assert_eq!((hop2.from, hop2.to), (1, 2));
    advanced(&completed, seen);

    stop.store(true, Ordering::Release);
    for t in traffic {
        t.join().unwrap();
    }

    assert_eq!(server.pinned_workers("mig"), vec![2]);
    assert_eq!(fm.migrations.load(Ordering::Relaxed), 2);
    let m = server.metrics().models.remove(0);
    assert_eq!(m.failed, 0, "zero drops across both cutover windows");
    assert_eq!(m.shed, 0);
    assert_eq!(m.completed + m.shed + m.failed, m.submitted);
    assert!(
        completed.load(Ordering::Relaxed) > 0,
        "traffic actually flowed"
    );
}

/// Where, among `migrate`'s steps, the source worker dies.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kill {
    BeforeCheck,
    BetweenPinAndUnpin,
    BetweenUnpinAndDrain,
    AfterDrain,
}

#[test]
fn mid_migration_worker_kill_keeps_the_accounting_identity() {
    use Kill::*;
    for kill in [
        BeforeCheck,
        BetweenPinAndUnpin,
        BetweenUnpinAndDrain,
        AfterDrain,
    ] {
        let server = boot(3, 0);
        let stop = Arc::new(AtomicBool::new(false));
        let traffic: Vec<_> = (0..2)
            .map(|t| {
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let client = server.client();
                    let mut ok = 0u64;
                    let mut i = t;
                    while !stop.load(Ordering::Acquire) {
                        // Errors are legal here (the source dies under
                        // us); lost accounting is not — checked below.
                        let input = demo_input(INPUT_DIM, i % 8);
                        ok += u64::from(client.call("mig", &input, DEADLINE).is_ok());
                        i += 2;
                    }
                    ok
                })
            })
            .collect();
        while server.metrics().models[0].completed == 0 {
            thread::yield_now();
        }

        // Each ordering is run, not raced: `migrate` whole at either end,
        // its server steps in sequence in between.
        let fm = FleetMetrics::new();
        let kill_if = |at: Kill| {
            if kill == at {
                assert!(server.kill_worker(0));
            }
        };
        match kill {
            BeforeCheck => {
                assert!(server.kill_worker(0));
                let outcome = migrate(&server, "mig", 0, 1, &fm);
                assert!(
                    matches!(outcome, Err(PinError::NotPinned { worker: 0, .. })),
                    "{outcome:?}"
                );
            }
            AfterDrain => {
                let report = migrate(&server, "mig", 0, 1, &fm).unwrap();
                assert_eq!((report.from, report.to), (0, 1));
                assert!(server.kill_worker(0));
            }
            _ => {
                server.pin_model("mig", 1).unwrap();
                kill_if(BetweenPinAndUnpin);
                server.unpin_model("mig", 0).unwrap();
                kill_if(BetweenUnpinAndDrain);
                server.drain_worker(0).unwrap();
            }
        }
        stop.store(true, Ordering::Release);
        let served: u64 = traffic.into_iter().map(|t| t.join().unwrap()).sum();
        assert!(served > 0);

        // A kill before the check leaves the model pinned nowhere:
        // `migrate` does not re-home it, the controller's repair does.
        // Any later kill leaves it on the destination.
        if kill == BeforeCheck {
            assert_eq!(server.pinned_workers("mig"), Vec::<usize>::new());
            let mut ctl = FleetController::new(Arc::clone(&server), FleetConfig::default());
            let repaired = ctl.step();
            assert!(
                matches!(repaired[..], [FleetDecision::Repair { worker: 1 | 2, .. }]),
                "{repaired:?}"
            );
        } else {
            assert_eq!(server.pinned_workers("mig"), vec![1], "{kill:?}");
        }
        let resp = server
            .client()
            .call("mig", &demo_input(INPUT_DIM, 0), DEADLINE)
            .unwrap();
        assert_eq!(resp.output.len(), 8);

        let m = server.metrics().models.remove(0);
        assert_eq!(
            m.completed + m.shed + m.failed,
            m.submitted,
            "{kill:?}: identity must survive a mid-migration kill"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any chain of migrations across any pool size stays lossless and
    /// bit-identical, with queued work in flight at every hop.
    #[test]
    fn migration_chains_are_lossless(
        workers in 2usize..5,
        hops in 1usize..4,
        seed in 0u64..1000,
    ) {
        let expected = undisturbed_outputs(4);
        let server = boot(workers, 0);
        let client = server.client();
        let fm = FleetMetrics::new();
        let mut home = 0usize;
        for hop in 0..hops {
            let pending: Vec<_> = (0..8)
                .map(|i| {
                    client
                        .submit("mig", &demo_input(INPUT_DIM, (seed + i) % 4), DEADLINE)
                        .unwrap()
                })
                .collect();
            let to = (home + 1 + hop) % workers;
            if to != home {
                let report = migrate(&server, "mig", home, to, &fm).unwrap();
                prop_assert_eq!((report.from, report.to), (home, to));
                home = to;
            }
            for (i, p) in pending.into_iter().enumerate() {
                let out = p.wait().unwrap().output;
                prop_assert_eq!(&out, &expected[((seed + i as u64) % 4) as usize]);
            }
            prop_assert_eq!(server.pinned_workers("mig"), vec![home]);
        }
        let m = server.metrics().models.remove(0);
        prop_assert_eq!(m.failed, 0);
        prop_assert_eq!(m.completed + m.shed + m.failed, m.submitted);
    }
}
