//! Placement: given the candidate workers that could host a new replica,
//! pick one. The controller builds the candidate list (alive, reachable,
//! not already pinning the model); [`least_loaded`] only ranks it.

/// What placement sees about one candidate worker at decision time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct WorkerView {
    /// The worker's pool ordinal.
    pub(crate) id: usize,
    /// Outstanding jobs (queued + executing).
    pub(crate) queue_depth: usize,
    /// Models currently resident on the worker.
    pub(crate) resident_models: usize,
    /// Whether the worker's link is degraded (reachable but slow).
    pub(crate) degraded: bool,
}

/// The worker a new replica lands on: prefer healthy links, then the
/// shallowest queue, then the fewest resident models (spread weight
/// pressure), then the lowest id (determinism, which the controller tests
/// rely on). `None` if there is no candidate.
pub(crate) fn least_loaded(candidates: &[WorkerView]) -> Option<usize> {
    candidates
        .iter()
        .min_by_key(|w| (w.degraded, w.queue_depth, w.resident_models, w.id))
        .map(|w| w.id)
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
        // Healthy beats shallow-but-degraded.
        let picked = least_loaded(&[view(0, 0, 1, true), view(1, 3, 1, false)]);
        assert_eq!(picked, Some(1));
        // Shallower queue wins among healthy.
        let picked = least_loaded(&[view(0, 2, 0, false), view(1, 1, 5, false)]);
        assert_eq!(picked, Some(1));
        // Fewer resident models breaks queue ties; id breaks the rest.
        let picked = least_loaded(&[view(2, 1, 2, false), view(0, 1, 1, false)]);
        assert_eq!(picked, Some(0));
        assert_eq!(least_loaded(&[]), None);
    }
}
