//! Element-level dataflow graph builders for RNN cell steps.
//!
//! These build the *exact* operation graphs whose critical paths the closed
//! forms in `analysis` summarize: the ground truth the closed forms are
//! tested against.

use crate::graph::{dot_product_graph, Graph, NodeId};

/// Builds one standard LSTM step over `hidden`/`input` dimensions at
/// element granularity: four gates (each an input dot product, a recurrent
/// dot product, a combine, a bias, an activation), the cell update, and the
/// output gate. Previous state enters as graph sources.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub(crate) fn lstm_step_graph(g: &mut Graph, hidden: usize, input: usize) {
    assert!(hidden > 0 && input > 0, "dimensions must be positive");
    let gate = |g: &mut Graph| -> Vec<NodeId> {
        (0..hidden)
            .map(|_| {
                let dx = dot_product_graph(g, input);
                let dh = dot_product_graph(g, hidden);
                let combine = g.add_node(&[dx, dh]);
                let bias = g.add_node(&[combine]);
                g.add_node(&[bias]) // activation
            })
            .collect()
    };
    let f = gate(g);
    let i = gate(g);
    let o = gate(g);
    let c_tilde = gate(g);
    for j in 0..hidden {
        let fc = g.add_node(&[f[j]]); // f ∘ c_prev (c_prev is a source)
        let ic = g.add_node(&[i[j], c_tilde[j]]);
        let c = g.add_node(&[fc, ic]);
        let tc = g.add_node(&[c]); // tanh(c)
        g.add_node(&[o[j], tc]); // h
    }
}

/// Builds one *standard-formulation* GRU step (reset gate applied to the
/// hidden state before the candidate's recurrent product — the formulation
/// whose serial double-dot-product critical path Table I's 31 cycles
/// reflects).
///
/// # Panics
///
/// Panics if either dimension is zero.
pub(crate) fn gru_step_graph(g: &mut Graph, hidden: usize, input: usize) {
    assert!(hidden > 0 && input > 0, "dimensions must be positive");
    // r and z gates.
    let gate = |g: &mut Graph| -> Vec<NodeId> {
        (0..hidden)
            .map(|_| {
                let dx = dot_product_graph(g, input);
                let dh = dot_product_graph(g, hidden);
                let combine = g.add_node(&[dx, dh]);
                let bias = g.add_node(&[combine]);
                g.add_node(&[bias]) // sigmoid
            })
            .collect()
    };
    let r = gate(g);
    let z = gate(g);
    // r ∘ h, element-wise.
    let rh: Vec<NodeId> = r.iter().map(|&rj| g.add_node(&[rj])).collect();
    // Candidate: dot over input + dot over (r ∘ h) — the recurrent dot's
    // inputs depend on rh, so wire each product's inputs from rh nodes.
    for &zj in z.iter().take(hidden) {
        let dx = dot_product_graph(g, input);
        // Recurrent dot over the gated hidden state: multiply layer
        // depends on rh, then a reduction tree.
        let mut leaves: Vec<NodeId> = (0..hidden).map(|k| g.add_node(&[rh[k]])).collect();
        while leaves.len() > 1 {
            let mut next = Vec::with_capacity(leaves.len().div_ceil(2));
            for pair in leaves.chunks(2) {
                if pair.len() == 2 {
                    next.push(g.add_node(&[pair[0], pair[1]]));
                } else {
                    next.push(pair[0]);
                }
            }
            leaves = next;
        }
        let combine = g.add_node(&[dx, leaves[0]]);
        let n = g.add_node(&[combine]); // tanh
                                        // h' = (1 - z) ∘ n + z ∘ h.
        let zn = g.add_node(&[zj, n]);
        let zh = g.add_node(&[zj]);
        g.add_node(&[zn, zh]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::RnnCriticalPath;

    #[test]
    fn lstm_graph_matches_closed_form_everywhere() {
        for (h, d) in [(4usize, 4usize), (8, 8), (16, 16), (8, 12), (12, 6)] {
            let mut g = Graph::new();
            lstm_step_graph(&mut g, h, d);
            let closed = RnnCriticalPath::lstm(h as u64, d as u64).udm_step_cycles;
            assert_eq!(g.critical_path(), closed, "h={h} d={d}");
        }
    }

    #[test]
    fn gru_graph_critical_path_tracks_closed_form() {
        // The closed form (2·dot_depth + 5, matching Table I's 31 at
        // n=2800) ends at the candidate's tanh and folds the bias into the
        // combine; the explicit graph separates the bias level and adds
        // the two levels of the h' = (1−z)∘ñ + z∘h update, so it sits
        // exactly 3 levels deeper at every size.
        for n in [4usize, 8, 16, 32] {
            let mut g = Graph::new();
            gru_step_graph(&mut g, n, n);
            let closed = RnnCriticalPath::gru(n as u64, n as u64).udm_step_cycles;
            assert_eq!(g.critical_path(), closed + 3, "n={n}");
        }
    }

    #[test]
    fn lstm_graph_op_count_scales_as_expected() {
        let (h, d) = (8usize, 8usize);
        let mut g = Graph::new();
        lstm_step_graph(&mut g, h, d);
        // Dot products dominate: 8 per element pair of dots x h elements
        // per gate x 4 gates: 4*h*((2d-1)+(2h-1)) plus pointwise terms.
        let dots = 4 * h * ((2 * d - 1) + (2 * h - 1));
        assert!(g.len() > dots, "{} ops, dots {dots}", g.len());
        assert!(g.len() < dots + 20 * h, "{} ops", g.len());
    }

    #[test]
    fn sdm_of_explicit_graph_respects_bounds() {
        let mut g = Graph::new();
        lstm_step_graph(&mut g, 8, 8);
        let fu = 64;
        let sdm = g.sdm_cycles(fu);
        assert!(sdm >= g.critical_path());
        assert!(sdm >= (g.len() as u64).div_ceil(fu));
    }
}
