//! Client-side routing over the worker pool.
//!
//! Implements the two policies of [`Routing`] (§II-A's client-side
//! instance selection) — round-robin and least-outstanding — over *live*
//! bounded worker queues. The router produces a preference order; the
//! dispatcher walks it skipping dead and saturated replicas, which is what
//! turns a policy into failover and load shedding.

use std::sync::atomic::{AtomicUsize, Ordering};

use bw_system::Routing;

use crate::worker::WorkerHandle;

/// Orders replicas for one dispatch attempt.
pub(crate) struct Router {
    policy: Routing,
    rr: AtomicUsize,
}

impl Router {
    pub(crate) fn new(policy: Routing) -> Router {
        Router {
            policy,
            rr: AtomicUsize::new(0),
        }
    }

    /// The preference order over `workers` for one dispatch, skipping
    /// dead workers and workers failing the `eligible` predicate (the
    /// dispatcher passes "not tried by this request, pins this model
    /// slot over a live network link"). The first worker is the
    /// policy's pick: round-robin's is the candidate at one global
    /// cursor, advanced per dispatch, least-outstanding's the one with
    /// the fewest jobs. The rest are the failover order: round-robin
    /// walks on from its pick, wrapping; least-outstanding goes up in
    /// load. Ties go to the lowest index, as in the analytical model's
    /// `free_at` ties. Only a dispatch that fails over collects the
    /// rest.
    pub(crate) fn order<'a>(
        &'a self,
        workers: &'a [WorkerHandle],
        eligible: impl Fn(usize) -> bool + 'a,
    ) -> impl Iterator<Item = usize> + 'a {
        let n = workers.len();
        let ok = move |&i: &usize| workers[i].is_alive() && eligible(i);
        let load = move |&i: &usize| (workers[i].queue_depth(), i);
        let pick = match self.policy {
            Routing::RoundRobin => match (0..n).filter(&ok).count() {
                0 => None,
                count => {
                    let cursor = self.rr.fetch_add(1, Ordering::Relaxed) % count;
                    // A worker that died since the count yields to the first.
                    (0..n).filter(&ok).nth(cursor).or_else(|| (0..n).find(&ok))
                }
            },
            Routing::LeastOutstanding => (0..n).filter(&ok).min_by_key(load),
        };
        let mut rest = None;
        let failover = std::iter::from_fn(move || {
            let pick = pick?;
            let rest = rest.get_or_insert_with(|| {
                let mut rest: Vec<usize> = (pick + 1..n).chain(0..pick).filter(&ok).collect();
                if self.policy == Routing::LeastOutstanding {
                    rest.sort_by_key(load);
                }
                rest.into_iter()
            });
            rest.next()
        });
        pick.into_iter().chain(failover)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::mlp_artifact;
    use crate::worker::spawn_worker;

    fn pool(n: usize) -> Vec<WorkerHandle> {
        let artifact = mlp_artifact("m", &[16, 8], 1);
        (0..n)
            .map(|i| spawn_worker(i, vec![Some(artifact.pin().unwrap())], 4))
            .collect()
    }

    #[test]
    fn round_robin_cycles() {
        let workers = pool(3);
        let r = Router::new(Routing::RoundRobin);
        let picks: Vec<usize> = (0..6)
            .map(|_| r.order(&workers, |_| true).next().unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        for w in &workers {
            w.stop_and_join();
        }
    }

    #[test]
    fn exclusion_and_death_shrink_the_plan() {
        let workers = pool(3);
        let r = Router::new(Routing::RoundRobin);
        workers[1].kill();
        let plan: Vec<usize> = r.order(&workers, |w| w != 2).collect();
        assert_eq!(plan, vec![0]);
        assert_eq!(r.order(&workers, |w| w == 1).next(), None);
        for w in &workers {
            w.stop_and_join();
        }
    }

    #[test]
    fn eligibility_filters_the_plan() {
        let workers = pool(4);
        let r = Router::new(Routing::RoundRobin);
        // Only even workers are eligible (e.g. owners of one shard).
        let plan: Vec<usize> = r.order(&workers, |w| w % 2 == 0).collect();
        assert_eq!(plan, vec![0, 2]);
        // Exclusion composes with eligibility.
        assert_eq!(r.order(&workers, |w| w != 0 && w % 2 == 0).next(), Some(2));
        for w in &workers {
            w.stop_and_join();
        }
    }

    #[test]
    fn least_outstanding_prefers_the_idle_replica() {
        let workers = pool(2);
        let r = Router::new(Routing::LeastOutstanding);
        // Artificially load worker 0.
        let outstanding = &workers[0].worker.outstanding;
        outstanding.fetch_add(5, Ordering::Relaxed);
        let order: Vec<usize> = r.order(&workers, |_| true).collect();
        assert_eq!(order, vec![1, 0]);
        outstanding.fetch_sub(5, Ordering::Relaxed);
        for w in &workers {
            w.stop_and_join();
        }
    }

    #[test]
    fn least_outstanding_fails_over_in_load_order() {
        let workers = pool(4);
        let r = Router::new(Routing::LeastOutstanding);
        for (w, jobs) in [(0, 3), (1, 1), (3, 2)] {
            workers[w]
                .worker
                .outstanding
                .fetch_add(jobs, Ordering::Relaxed);
        }
        let order: Vec<usize> = r.order(&workers, |_| true).collect();
        assert_eq!(order, vec![2, 1, 3, 0]);
        for (w, jobs) in [(0, 3), (1, 1), (3, 2)] {
            workers[w]
                .worker
                .outstanding
                .fetch_sub(jobs, Ordering::Relaxed);
        }
        for w in &workers {
            w.stop_and_join();
        }
    }

    #[test]
    fn concurrent_round_robin_dispatches_spread_evenly() {
        let workers = pool(3);
        let r = Router::new(Routing::RoundRobin);
        // Two dispatches in flight at once take different picks.
        let (mut a, mut b) = (r.order(&workers, |_| true), r.order(&workers, |_| true));
        assert_eq!((a.next(), b.next()), (Some(0), Some(1)));
        let picks: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..30_000 {
                        let w = r.order(&workers, |_| true).next().unwrap();
                        picks[w].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        // Every dispatch takes its own cursor, so the picks split
        // exactly, however the threads interleave.
        let picks: Vec<usize> = picks.iter().map(|p| p.load(Ordering::Relaxed)).collect();
        assert_eq!(picks, vec![40_000; 3]);
        for w in &workers {
            w.stop_and_join();
        }
    }
}
