//! Placement policies: given the candidate workers that could host a new
//! replica, pick one. The controller builds the candidate list (alive,
//! reachable, not already pinning the model); the policy only ranks it.

/// What a policy sees about one candidate worker at decision time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkerView {
    /// The worker's pool ordinal.
    pub id: usize,
    /// Outstanding jobs (queued + executing).
    pub queue_depth: usize,
    /// Models currently resident on the worker.
    pub resident_models: usize,
    /// Whether the worker's link is degraded (reachable but slow).
    pub degraded: bool,
}

/// Ranks candidate workers for a new replica. Implementations must be
/// deterministic given the same candidate list — the controller tests
/// assert exact placements.
pub trait PlacementPolicy: Send {
    /// Picks a worker id from `candidates`, or `None` to decline the
    /// placement (no candidate acceptable).
    fn choose(&mut self, model: &str, candidates: &[WorkerView]) -> Option<usize>;
}

/// The default policy: prefer healthy links, then the shallowest queue,
/// then the fewest resident models (spread weight pressure), then the
/// lowest id (determinism).
#[derive(Clone, Copy, Debug, Default)]
pub struct LeastLoaded;

impl PlacementPolicy for LeastLoaded {
    fn choose(&mut self, _model: &str, candidates: &[WorkerView]) -> Option<usize> {
        candidates
            .iter()
            .min_by_key(|w| (w.degraded, w.queue_depth, w.resident_models, w.id))
            .map(|w| w.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: usize, queue_depth: usize, resident: usize, degraded: bool) -> WorkerView {
        WorkerView {
            id,
            queue_depth,
            resident_models: resident,
            degraded,
        }
    }

    #[test]
    fn least_loaded_prefers_healthy_then_shallow_then_sparse() {
        let mut p = LeastLoaded;
        // Healthy beats shallow-but-degraded.
        let picked = p.choose("m", &[view(0, 0, 1, true), view(1, 3, 1, false)]);
        assert_eq!(picked, Some(1));
        // Shallower queue wins among healthy.
        let picked = p.choose("m", &[view(0, 2, 0, false), view(1, 1, 5, false)]);
        assert_eq!(picked, Some(1));
        // Fewer resident models breaks queue ties; id breaks the rest.
        let picked = p.choose("m", &[view(2, 1, 2, false), view(0, 1, 1, false)]);
        assert_eq!(picked, Some(0));
        assert_eq!(p.choose("m", &[]), None);
    }
}
