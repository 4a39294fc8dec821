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

    /// The preference order over `workers` for one dispatch, excluding
    /// workers listed in `exclude` (already tried by this request), dead
    /// workers, and workers failing the `eligible` predicate (the
    /// dispatcher passes "pins this model slot over a live network
    /// link"). The first element is the policy's pick; the rest are the
    /// failover order.
    pub(crate) fn plan_eligible(
        &self,
        workers: &[WorkerHandle],
        exclude: &[usize],
        eligible: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        let mut candidates: Vec<usize> = (0..workers.len())
            .filter(|i| !exclude.contains(i) && workers[*i].is_alive() && eligible(*i))
            .collect();
        if candidates.is_empty() {
            return candidates;
        }
        match self.policy {
            Routing::RoundRobin => {
                // One global cursor, advanced per dispatch; rotate the
                // candidate list so the cursor's pick comes first.
                let cursor = self.rr.fetch_add(1, Ordering::Relaxed) % candidates.len();
                candidates.rotate_left(cursor);
            }
            Routing::LeastOutstanding => {
                // Stable sort: ties resolve to the lowest index, matching
                // the analytical model (`free_at` ties pick the first).
                candidates.sort_by_key(|&i| workers[i].queue_depth());
            }
        }
        candidates
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
            .map(|_| r.plan_eligible(&workers, &[], |_| true)[0])
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
        let plan = r.plan_eligible(&workers, &[2], |_| true);
        assert_eq!(plan, vec![0]);
        let none = r.plan_eligible(&workers, &[0, 2], |_| true);
        assert!(none.is_empty());
        for w in &workers {
            w.stop_and_join();
        }
    }

    #[test]
    fn eligibility_filters_the_plan() {
        let workers = pool(4);
        let r = Router::new(Routing::RoundRobin);
        // Only even workers are eligible (e.g. owners of one shard).
        let plan = r.plan_eligible(&workers, &[], |w| w % 2 == 0);
        let mut sorted = plan.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 2]);
        // Exclusion composes with eligibility.
        assert_eq!(r.plan_eligible(&workers, &[0], |w| w % 2 == 0), vec![2]);
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
        assert_eq!(r.plan_eligible(&workers, &[], |_| true)[0], 1);
        outstanding.fetch_sub(5, Ordering::Relaxed);
        for w in &workers {
            w.stop_and_join();
        }
    }
}
