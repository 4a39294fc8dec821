//! Explicit operation-level dataflow graphs.
//!
//! The closed-form UDM/SDM expressions in `analysis` are tested against
//! this exact graph machinery at small sizes: a graph of
//! unit-latency arithmetic operations, its critical path (the UDM latency),
//! and a resource-constrained list schedule (the SDM latency).

/// A node identifier within a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct NodeId(pub(crate) u32);

/// A dataflow graph of unit-latency operations.
///
/// Only functional-unit latencies are modelled, matching §III: "When
/// modeling the critical path, only functional unit latencies are counted
/// in the UDM and SDM."
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Graph {
    /// Predecessor lists, indexed by node.
    preds: Vec<Vec<NodeId>>,
}

impl Graph {
    /// Creates an empty graph.
    pub(crate) fn new() -> Self {
        Graph::default()
    }

    /// Adds a unit-latency operation depending on `preds` and returns its
    /// id. Predecessors must already exist, which makes cycles impossible
    /// by construction.
    ///
    /// # Panics
    ///
    /// Panics if any predecessor id is out of range.
    pub(crate) fn add_node(&mut self, preds: &[NodeId]) -> NodeId {
        let id = NodeId(self.preds.len() as u32);
        for p in preds {
            assert!(p.0 < id.0, "predecessor {p:?} does not exist");
        }
        self.preds.push(preds.to_vec());
        id
    }

    /// Number of operations.
    pub(crate) fn len(&self) -> usize {
        self.preds.len()
    }

    /// Returns `true` if the graph has no operations.
    pub(crate) fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Per-node earliest start levels (ASAP schedule with unlimited
    /// resources).
    fn asap_levels(&self) -> Vec<u64> {
        let mut level = vec![0u64; self.preds.len()];
        for (i, preds) in self.preds.iter().enumerate() {
            level[i] = preds
                .iter()
                .map(|p| level[p.0 as usize] + 1)
                .max()
                .unwrap_or(0);
        }
        level
    }

    /// The UDM latency: length of the longest dependence chain with
    /// unbounded functional units (in cycles; each op takes one).
    pub(crate) fn critical_path(&self) -> u64 {
        self.asap_levels().iter().map(|l| l + 1).max().unwrap_or(0)
    }

    /// The SDM latency: cycles to execute the graph with at most
    /// `fu_limit` operations per cycle, using a level-order list schedule
    /// (greedy by ASAP level, which is optimal for unit-latency forests and
    /// a standard bound otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `fu_limit` is zero.
    pub(crate) fn sdm_cycles(&self, fu_limit: u64) -> u64 {
        assert!(fu_limit > 0, "fu_limit must be positive");
        if self.preds.is_empty() {
            return 0;
        }
        // Ready-driven list schedule: at each cycle issue up to `fu_limit`
        // ready ops, preferring those on the longest downstream path.
        let n = self.preds.len();
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut indeg: Vec<u32> = vec![0; n];
        for (i, preds) in self.preds.iter().enumerate() {
            indeg[i] = preds.len() as u32;
            for p in preds {
                succs[p.0 as usize].push(i as u32);
            }
        }
        // Downstream height for priority.
        let mut height = vec![0u64; n];
        for i in (0..n).rev() {
            height[i] = succs[i]
                .iter()
                .map(|&s| height[s as usize] + 1)
                .max()
                .unwrap_or(0);
        }

        // Ready ops bucketed by height (max-priority first).
        let mut ready: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        ready.sort_by_key(|&i| std::cmp::Reverse(height[i as usize]));
        let mut next_ready: Vec<u32> = Vec::new();
        let mut done = 0usize;
        let mut cycles = 0u64;
        while done < n {
            cycles += 1;
            let issue = ready.len().min(fu_limit as usize);
            for &op in &ready[..issue] {
                done += 1;
                for &s in &succs[op as usize] {
                    indeg[s as usize] -= 1;
                    if indeg[s as usize] == 0 {
                        next_ready.push(s);
                    }
                }
            }
            ready.drain(..issue);
            ready.append(&mut next_ready);
            ready.sort_by_key(|&i| std::cmp::Reverse(height[i as usize]));
        }
        cycles
    }
}

/// Builds the dataflow graph of a dot product of length `n`: `n` multiplies
/// feeding a binary reduction tree. Returns the graph and its root node.
///
/// # Panics
///
/// Panics if `n` is zero.
pub(crate) fn dot_product_graph(g: &mut Graph, n: usize) -> NodeId {
    assert!(n > 0, "dot product needs at least one element");
    let mut frontier: Vec<NodeId> = (0..n).map(|_| g.add_node(&[])).collect();
    while frontier.len() > 1 {
        let mut next = Vec::with_capacity(frontier.len().div_ceil(2));
        for pair in frontier.chunks(2) {
            if pair.len() == 2 {
                next.push(g.add_node(&[pair[0], pair[1]]));
            } else {
                next.push(pair[0]);
            }
        }
        frontier = next;
    }
    frontier[0]
}

/// Builds one full matrix-vector product (`rows` dot products of length
/// `cols`), returning the output nodes.
pub(crate) fn matvec_graph(g: &mut Graph, rows: usize, cols: usize) -> Vec<NodeId> {
    (0..rows).map(|_| dot_product_graph(g, cols)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert_eq!(g.critical_path(), 0);
        assert_eq!(g.sdm_cycles(4), 0);
        assert!(g.is_empty());
    }

    #[test]
    fn dot_product_depth_is_log() {
        for n in [1usize, 2, 3, 8, 100, 1000] {
            let mut g = Graph::new();
            dot_product_graph(&mut g, n);
            let want = 1 + (n as f64).log2().ceil() as u64;
            assert_eq!(g.critical_path(), want, "n={n}");
            // Total ops: n multiplies + n-1 adds.
            assert_eq!(g.len(), 2 * n - 1);
        }
    }

    #[test]
    fn sdm_with_unlimited_fus_equals_udm() {
        let mut g = Graph::new();
        matvec_graph(&mut g, 4, 16);
        assert_eq!(g.sdm_cycles(u64::MAX / 2), g.critical_path());
    }

    #[test]
    fn sdm_with_one_fu_equals_op_count() {
        let mut g = Graph::new();
        dot_product_graph(&mut g, 8);
        assert_eq!(g.sdm_cycles(1), g.len() as u64);
    }

    #[test]
    fn sdm_monotone_in_fu_count() {
        let mut g = Graph::new();
        matvec_graph(&mut g, 8, 32);
        let mut prev = u64::MAX;
        for fu in [1u64, 2, 4, 16, 64, 1024] {
            let c = g.sdm_cycles(fu);
            assert!(c <= prev, "fu={fu}: {c} > {prev}");
            assert!(c >= g.critical_path());
            prev = c;
        }
    }

    #[test]
    fn sdm_lower_bounds_hold() {
        let mut g = Graph::new();
        matvec_graph(&mut g, 6, 24);
        let fu = 10u64;
        let work_bound = (g.len() as u64).div_ceil(fu);
        assert!(g.sdm_cycles(fu) >= work_bound.max(g.critical_path()));
    }

    #[test]
    #[should_panic(expected = "predecessor")]
    fn forward_references_rejected() {
        let mut g = Graph::new();
        let _ = g.add_node(&[NodeId(5)]);
    }
}
