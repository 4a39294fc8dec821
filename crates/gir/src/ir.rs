//! The graph intermediate representation (§II-B).
//!
//! Pre-trained models enter the toolflow as a GIR: a DAG of tensor
//! operations with shapes. The toolflow validates shapes, fuses operator
//! sequences, partitions the graph across accelerators and CPU, and lowers
//! accelerator subgraphs to BW ISA programs.

/// Identifier of a node within a [`GirGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GirNodeId(pub u32);

/// Activation functions the NPU supports natively.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ActFn {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

/// One GIR operation.
#[derive(Clone, Debug, PartialEq)]
pub enum GirOp {
    /// Graph input of the given dimension.
    Input {
        /// Feature dimension.
        dim: usize,
    },
    /// Dense matrix product `y = W·x` with a row-major `rows × cols`
    /// weight matrix.
    MatMul {
        /// Output dimension.
        rows: usize,
        /// Input dimension.
        cols: usize,
        /// The trained weights (row-major, `rows·cols` long).
        weights: Vec<f32>,
    },
    /// Bias addition.
    BiasAdd {
        /// The bias vector.
        bias: Vec<f32>,
    },
    /// A point-wise activation.
    Activation(ActFn),
    /// An operation the NPU cannot profitably accelerate; it is grouped
    /// into a CPU subgraph by the partitioner (§II-B: "Operations that are
    /// not supported ... are grouped into sub-graphs for execution on CPU
    /// cores"). The closure-free representation names the op; the host
    /// runs it.
    CpuOp {
        /// Operation name (`"softmax"` and `"l2norm"` are built in).
        name: String,
    },
    /// Graph output.
    Output,
}

/// A host op's implementation: one column in, one out.
type HostOp = fn(&[f32]) -> Vec<f32>;

/// The host's implementation of a named CPU op (the host-runtime side of
/// the federated execution model), or `None` for a name it does not know.
/// [`GirGraph::add`] refuses an unknown name, so a built graph's ops all
/// resolve.
pub(crate) fn cpu_op(name: &str) -> Option<HostOp> {
    match name {
        "softmax" => Some(|x| {
            let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = x.iter().map(|v| (v - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            exps.into_iter().map(|e| e / sum).collect()
        }),
        "l2norm" => Some(|x| {
            let norm = x.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-12);
            x.iter().map(|v| v / norm).collect()
        }),
        _ => None,
    }
}

/// Applies the host op `name`, which [`GirGraph::add`] admitted.
pub(crate) fn cpu_op_apply(name: &str, x: &[f32]) -> Vec<f32> {
    cpu_op(name).expect("a built graph names only known host ops")(x)
}

/// One node: an op plus its input edges.
#[derive(Clone, Debug, PartialEq)]
pub struct GirNode {
    /// The operation.
    pub op: GirOp,
    /// Input nodes (empty for `Input`).
    pub inputs: Vec<GirNodeId>,
}

/// Error produced while building or validating a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GirError {
    /// An edge referenced a node that does not (yet) exist.
    DanglingEdge {
        /// The referenced id.
        id: u32,
    },
    /// A node had the wrong number of inputs for its op.
    BadArity {
        /// The offending node.
        node: u32,
        /// Inputs expected.
        expected: usize,
        /// Inputs given.
        actual: usize,
    },
    /// Shape inference failed at a node.
    ShapeMismatch {
        /// The offending node.
        node: u32,
        /// Dimension expected by the op.
        expected: usize,
        /// Dimension produced by its input.
        actual: usize,
    },
    /// A `MatMul`'s weight buffer did not match `rows × cols`.
    BadWeights {
        /// The offending node.
        node: u32,
    },
    /// The graph cannot be fused into a linear pipeline (the current
    /// lowering supports operator chains; see `DESIGN.md`).
    NotAChain {
        /// The node with multiple consumers or producers.
        node: u32,
    },
    /// The graph has no `Input` or no `Output`.
    MissingEndpoints,
    /// A `CpuOp` names an op the host does not implement.
    UnknownCpuOp {
        /// The offending node.
        node: u32,
        /// The unknown name.
        name: String,
    },
}

impl std::fmt::Display for GirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GirError::DanglingEdge { id } => write!(f, "edge references missing node {id}"),
            GirError::BadArity {
                node,
                expected,
                actual,
            } => write!(f, "node {node} expects {expected} inputs, has {actual}"),
            GirError::ShapeMismatch {
                node,
                expected,
                actual,
            } => write!(f, "node {node} expects dimension {expected}, got {actual}"),
            GirError::BadWeights { node } => write!(f, "node {node} has malformed weights"),
            GirError::NotAChain { node } => {
                write!(f, "node {node} breaks the linear pipeline structure")
            }
            GirError::MissingEndpoints => write!(f, "graph needs an Input and an Output"),
            GirError::UnknownCpuOp { node, name } => {
                write!(f, "node {node} names unknown CPU op `{name}`")
            }
        }
    }
}

impl std::error::Error for GirError {}

/// A GIR graph. Nodes are added in topological order by construction
/// (edges may only point backwards).
///
/// # Example
///
/// ```
/// use bw_gir::{ActFn, GirGraph, GirOp};
///
/// let mut g = GirGraph::new();
/// let x = g.add(GirOp::Input { dim: 4 }, &[])?;
/// let w = g.add(GirOp::MatMul { rows: 2, cols: 4, weights: vec![0.0; 8] }, &[x])?;
/// let a = g.add(GirOp::Activation(ActFn::Relu), &[w])?;
/// g.add(GirOp::Output, &[a])?;
/// assert_eq!(g.output_dims(), vec![2]);
/// # Ok::<(), bw_gir::GirError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GirGraph {
    nodes: Vec<GirNode>,
    /// Inferred output dimension per node.
    dims: Vec<usize>,
}

impl GirGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        GirGraph::default()
    }

    /// Adds a node, validating arity, shapes, and weights eagerly.
    ///
    /// # Errors
    ///
    /// Returns [`GirError`] on dangling edges, arity violations, shape
    /// mismatches, or a host op the host does not implement.
    pub fn add(&mut self, op: GirOp, inputs: &[GirNodeId]) -> Result<GirNodeId, GirError> {
        let id = self.nodes.len() as u32;
        for e in inputs {
            if e.0 >= id {
                return Err(GirError::DanglingEdge { id: e.0 });
            }
        }
        let expected_arity = match op {
            GirOp::Input { .. } => 0,
            _ => 1,
        };
        if inputs.len() != expected_arity {
            return Err(GirError::BadArity {
                node: id,
                expected: expected_arity,
                actual: inputs.len(),
            });
        }
        let in_dim = inputs.first().map(|e| self.dims[e.0 as usize]);
        let out_dim = match &op {
            GirOp::Input { dim } => *dim,
            GirOp::MatMul {
                rows,
                cols,
                weights,
            } => {
                if weights.len() != rows * cols {
                    return Err(GirError::BadWeights { node: id });
                }
                let actual = in_dim.expect("arity checked");
                if actual != *cols {
                    return Err(GirError::ShapeMismatch {
                        node: id,
                        expected: *cols,
                        actual,
                    });
                }
                *rows
            }
            GirOp::BiasAdd { bias } => {
                let actual = in_dim.expect("arity checked");
                if actual != bias.len() {
                    return Err(GirError::ShapeMismatch {
                        node: id,
                        expected: bias.len(),
                        actual,
                    });
                }
                actual
            }
            GirOp::CpuOp { name } if cpu_op(name).is_none() => {
                return Err(GirError::UnknownCpuOp {
                    node: id,
                    name: name.clone(),
                });
            }
            GirOp::Activation(_) | GirOp::CpuOp { .. } | GirOp::Output => {
                in_dim.expect("arity checked")
            }
        };
        self.nodes.push(GirNode {
            op,
            inputs: inputs.to_vec(),
        });
        self.dims.push(out_dim);
        Ok(GirNodeId(id))
    }

    /// The nodes in topological order.
    pub fn nodes(&self) -> &[GirNode] {
        &self.nodes
    }

    /// The inferred output dimension of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn dim(&self, id: GirNodeId) -> usize {
        self.dims[id.0 as usize]
    }

    /// Output dimensions of all `Output` nodes.
    pub fn output_dims(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .zip(&self.dims)
            .filter(|(n, _)| matches!(n.op, GirOp::Output))
            .map(|(_, &d)| d)
            .collect()
    }

    /// Evaluates the graph on the host in `f32` (the toolflow's golden
    /// model). Supports linear chains only.
    ///
    /// # Errors
    ///
    /// Returns [`GirError`] if the graph is not a chain or lacks endpoints.
    pub fn evaluate(&self, input: &[f32]) -> Result<Vec<f32>, GirError> {
        let mut value: Option<Vec<f32>> = None;
        for (i, node) in self.nodes.iter().enumerate() {
            let out = match &node.op {
                GirOp::Input { dim } => {
                    if input.len() != *dim {
                        return Err(GirError::ShapeMismatch {
                            node: i as u32,
                            expected: *dim,
                            actual: input.len(),
                        });
                    }
                    input.to_vec()
                }
                GirOp::MatMul {
                    rows,
                    cols,
                    weights,
                } => {
                    let x = value.take().ok_or(GirError::MissingEndpoints)?;
                    (0..*rows)
                        .map(|r| {
                            weights[r * cols..(r + 1) * cols]
                                .iter()
                                .zip(&x)
                                .map(|(w, v)| w * v)
                                .sum()
                        })
                        .collect()
                }
                GirOp::BiasAdd { bias } => {
                    let x = value.take().ok_or(GirError::MissingEndpoints)?;
                    x.iter().zip(bias).map(|(a, b)| a + b).collect()
                }
                GirOp::Activation(act) => {
                    let x = value.take().ok_or(GirError::MissingEndpoints)?;
                    x.into_iter()
                        .map(|v| match act {
                            ActFn::Relu => v.max(0.0),
                            ActFn::Sigmoid => 1.0 / (1.0 + (-v).exp()),
                            ActFn::Tanh => v.tanh(),
                        })
                        .collect()
                }
                GirOp::CpuOp { name } => {
                    let x = value.take().ok_or(GirError::MissingEndpoints)?;
                    cpu_op_apply(name, &x)
                }
                GirOp::Output => value.take().ok_or(GirError::MissingEndpoints)?,
            };
            value = Some(out);
        }
        value.ok_or(GirError::MissingEndpoints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_inference_and_validation() {
        let mut g = GirGraph::new();
        let x = g.add(GirOp::Input { dim: 3 }, &[]).unwrap();
        let err = g
            .add(
                GirOp::MatMul {
                    rows: 2,
                    cols: 4, // input is 3-wide
                    weights: vec![0.0; 8],
                },
                &[x],
            )
            .unwrap_err();
        assert_eq!(
            err,
            GirError::ShapeMismatch {
                node: 1,
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn weight_length_checked() {
        let mut g = GirGraph::new();
        let x = g.add(GirOp::Input { dim: 3 }, &[]).unwrap();
        let err = g
            .add(
                GirOp::MatMul {
                    rows: 2,
                    cols: 3,
                    weights: vec![0.0; 5],
                },
                &[x],
            )
            .unwrap_err();
        assert_eq!(err, GirError::BadWeights { node: 1 });
    }

    #[test]
    fn dangling_and_arity_errors() {
        let mut g = GirGraph::new();
        assert_eq!(
            g.add(GirOp::Output, &[GirNodeId(7)]).unwrap_err(),
            GirError::DanglingEdge { id: 7 }
        );
        assert_eq!(
            g.add(GirOp::Output, &[]).unwrap_err(),
            GirError::BadArity {
                node: 0,
                expected: 1,
                actual: 0
            }
        );
    }

    #[test]
    fn evaluate_mlp_with_softmax() {
        let mut g = GirGraph::new();
        let x = g.add(GirOp::Input { dim: 2 }, &[]).unwrap();
        let m = g
            .add(
                GirOp::MatMul {
                    rows: 2,
                    cols: 2,
                    weights: vec![1.0, 0.0, 0.0, 2.0],
                },
                &[x],
            )
            .unwrap();
        let b = g
            .add(
                GirOp::BiasAdd {
                    bias: vec![0.5, -0.5],
                },
                &[m],
            )
            .unwrap();
        let s = g
            .add(
                GirOp::CpuOp {
                    name: "softmax".into(),
                },
                &[b],
            )
            .unwrap();
        g.add(GirOp::Output, &[s]).unwrap();
        let y = g.evaluate(&[1.0, 1.0]).unwrap();
        assert_eq!(y.len(), 2);
        assert!((y[0] + y[1] - 1.0).abs() < 1e-6);
        // Pre-softmax values are (1.5, 1.5), so probabilities are equal.
        assert!((y[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn cpu_op_builtins() {
        let s = cpu_op_apply("softmax", &[0.0, 0.0]);
        assert_eq!(s, vec![0.5, 0.5]);
        let n = cpu_op_apply("l2norm", &[3.0, 4.0]);
        assert!((n[0] - 0.6).abs() < 1e-6);
        assert!(cpu_op("unknown").is_none());
    }

    #[test]
    fn an_unknown_host_op_is_refused_where_it_is_added() {
        let mut g = GirGraph::new();
        let x = g.add(GirOp::Input { dim: 4 }, &[]).unwrap();
        let typo = GirOp::CpuOp {
            name: "sofmax".into(),
        };
        let want = GirError::UnknownCpuOp {
            node: 1,
            name: "sofmax".into(),
        };
        assert_eq!(g.add(typo, &[x]).unwrap_err(), want);
        assert_eq!(g.nodes().len(), 1, "nothing was added");
    }
}
