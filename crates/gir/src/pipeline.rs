//! Fusion and partitioning passes (§II-B).
//!
//! The toolflow first *fuses* the GIR into a linear pipeline of stages —
//! each dense stage absorbs its following bias and activation, mirroring
//! the NPU's ability to execute `mv_mul → vv_add → activation` in one
//! chain — then *partitions* the pipeline across accelerators under their
//! on-chip memory budgets, with unsupported operations grouped into CPU
//! segments.

use crate::ir::{ActFn, GirError, GirGraph, GirOp};

/// One fused pipeline stage.
#[derive(Clone, Debug, PartialEq)]
pub enum Stage {
    /// A dense layer, optionally with bias and activation fused.
    Dense {
        /// Output dimension.
        rows: usize,
        /// Input dimension.
        cols: usize,
        /// Row-major weights.
        weights: Vec<f32>,
        /// Fused bias, if any.
        bias: Option<Vec<f32>>,
        /// Fused activation, if any.
        act: Option<ActFn>,
    },
    /// A standalone activation (not preceded by a dense layer).
    Pointwise {
        /// The activation.
        act: ActFn,
        /// Dimension.
        dim: usize,
    },
    /// A CPU-only operation.
    Cpu {
        /// The op name (see [`GirOp::CpuOp`](crate::GirOp::CpuOp)).
        name: String,
        /// Dimension.
        dim: usize,
    },
}

impl Stage {
    /// Weight parameters this stage pins on an accelerator.
    pub fn weight_params(&self) -> u64 {
        match self {
            Stage::Dense { rows, cols, .. } => (*rows as u64) * (*cols as u64),
            _ => 0,
        }
    }

    /// Output dimension.
    pub(crate) fn out_dim(&self) -> usize {
        match self {
            Stage::Dense { rows, .. } => *rows,
            Stage::Pointwise { dim, .. } | Stage::Cpu { dim, .. } => *dim,
        }
    }

    /// Returns `true` if the NPU can execute this stage.
    pub fn accelerable(&self) -> bool {
        !matches!(self, Stage::Cpu { .. })
    }
}

/// A fused linear pipeline: input dimension plus stages in order.
#[derive(Clone, Debug, PartialEq)]
pub struct Pipeline {
    /// Model input dimension.
    pub input_dim: usize,
    /// The fused stages.
    pub stages: Vec<Stage>,
}

/// Fuses a linear GIR graph into a [`Pipeline`], absorbing `BiasAdd` and
/// `Activation` nodes into their producing `MatMul`.
///
/// # Errors
///
/// Returns [`GirError`] if the graph is not a single `Input → … → Output`
/// chain.
pub fn fuse(graph: &GirGraph) -> Result<Pipeline, GirError> {
    let nodes = graph.nodes();
    let mut input_dim = None;
    let mut stages: Vec<Stage> = Vec::new();
    let mut saw_output = false;

    for (i, node) in nodes.iter().enumerate() {
        if saw_output {
            return Err(GirError::NotAChain { node: i as u32 });
        }
        // Chain check: every non-input node consumes exactly the previous
        // node.
        if !matches!(node.op, GirOp::Input { .. })
            && node.inputs.first().map(|e| e.0 as usize) != Some(i.wrapping_sub(1))
        {
            return Err(GirError::NotAChain { node: i as u32 });
        }
        match &node.op {
            GirOp::Input { dim } => {
                if input_dim.is_some() {
                    return Err(GirError::NotAChain { node: i as u32 });
                }
                input_dim = Some(*dim);
            }
            GirOp::MatMul {
                rows,
                cols,
                weights,
            } => stages.push(Stage::Dense {
                rows: *rows,
                cols: *cols,
                weights: weights.clone(),
                bias: None,
                act: None,
            }),
            GirOp::BiasAdd { bias } => match stages.last_mut() {
                Some(Stage::Dense {
                    bias: slot @ None, ..
                }) => *slot = Some(bias.clone()),
                _ => return Err(GirError::NotAChain { node: i as u32 }),
            },
            GirOp::Activation(act) => match stages.last_mut() {
                Some(Stage::Dense {
                    act: slot @ None, ..
                }) => *slot = Some(*act),
                _ => stages.push(Stage::Pointwise {
                    act: *act,
                    dim: graph.dim(node.inputs[0]),
                }),
            },
            GirOp::CpuOp { name } => stages.push(Stage::Cpu {
                name: name.clone(),
                dim: graph.dim(node.inputs[0]),
            }),
            GirOp::Output => saw_output = true,
        }
    }
    if !saw_output {
        return Err(GirError::MissingEndpoints);
    }
    Ok(Pipeline {
        input_dim: input_dim.ok_or(GirError::MissingEndpoints)?,
        stages,
    })
}

/// Where one contiguous run of stages executes.
#[derive(Clone, Debug, PartialEq)]
pub enum Placement {
    /// On one accelerator.
    Accelerator {
        /// Stage indices (into [`Pipeline::stages`]) in order.
        stages: Vec<usize>,
    },
    /// On the host CPU.
    Cpu {
        /// Stage indices in order.
        stages: Vec<usize>,
    },
}

/// A partitioned deployment plan.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionPlan {
    /// Execution segments in pipeline order.
    pub segments: Vec<Placement>,
}

/// Error produced by partitioning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// One stage alone exceeds the per-device weight budget.
    StageTooLarge {
        /// The stage index.
        stage: usize,
        /// Its weight parameters.
        params: u64,
        /// The per-device budget.
        budget: u64,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::StageTooLarge {
                stage,
                params,
                budget,
            } => write!(
                f,
                "stage {stage} needs {params} parameters, over the per-device budget {budget}"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// Partitions a pipeline across accelerators, each holding at most
/// `device_param_budget` weight parameters on chip, grouping CPU-only
/// stages into host segments (§II-B). Greedy first-fit in pipeline order,
/// which preserves the dataflow and matches the paper's linear multi-FPGA
/// pipelines; a stage after a host segment opens a new device.
///
/// # Errors
///
/// Returns [`PartitionError::StageTooLarge`] if a single dense stage
/// exceeds the budget (such a stage would need intra-layer partitioning,
/// which the toolflow performs only across whole layers).
pub fn partition(
    pipeline: &Pipeline,
    device_param_budget: u64,
) -> Result<PartitionPlan, PartitionError> {
    let mut segments: Vec<Placement> = Vec::new();
    let mut used: u64 = 0;

    for (i, stage) in pipeline.stages.iter().enumerate() {
        if !stage.accelerable() {
            match segments.last_mut() {
                Some(Placement::Cpu { stages }) => stages.push(i),
                _ => segments.push(Placement::Cpu { stages: vec![i] }),
            }
            continue;
        }
        let params = stage.weight_params();
        if params > device_param_budget {
            return Err(PartitionError::StageTooLarge {
                stage: i,
                params,
                budget: device_param_budget,
            });
        }
        // Open a fresh device if this one cannot hold the stage, or if the
        // previous segment was a CPU hop (round-trips re-enter the pool).
        let need_new_device = match segments.last() {
            Some(Placement::Accelerator { .. }) => used + params > device_param_budget,
            _ => true,
        };
        if need_new_device {
            segments.push(Placement::Accelerator { stages: Vec::new() });
            used = 0;
        }
        used += params;
        match segments.last_mut() {
            Some(Placement::Accelerator { stages }) => stages.push(i),
            _ => unreachable!("accelerator segment just ensured"),
        }
    }
    Ok(PartitionPlan { segments })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::GirNodeId;

    fn mlp_graph(widths: &[usize], with_softmax: bool) -> GirGraph {
        let mut g = GirGraph::new();
        let mut prev = g.add(GirOp::Input { dim: widths[0] }, &[]).unwrap();
        for w in widths.windows(2) {
            let m = g
                .add(
                    GirOp::MatMul {
                        rows: w[1],
                        cols: w[0],
                        weights: vec![0.01; w[0] * w[1]],
                    },
                    &[prev],
                )
                .unwrap();
            let b = g
                .add(
                    GirOp::BiasAdd {
                        bias: vec![0.0; w[1]],
                    },
                    &[m],
                )
                .unwrap();
            prev = g.add(GirOp::Activation(ActFn::Relu), &[b]).unwrap();
        }
        if with_softmax {
            prev = g
                .add(
                    GirOp::CpuOp {
                        name: "softmax".into(),
                    },
                    &[prev],
                )
                .unwrap();
        }
        g.add(GirOp::Output, &[prev]).unwrap();
        g
    }

    #[test]
    fn fuse_absorbs_bias_and_activation() {
        let g = mlp_graph(&[4, 8, 2], false);
        let p = fuse(&g).unwrap();
        assert_eq!(p.input_dim, 4);
        assert_eq!(p.stages.len(), 2);
        for s in &p.stages {
            match s {
                Stage::Dense { bias, act, .. } => {
                    assert!(bias.is_some());
                    assert_eq!(*act, Some(ActFn::Relu));
                }
                other => panic!("unexpected stage {other:?}"),
            }
        }
    }

    #[test]
    fn fuse_keeps_cpu_ops_separate() {
        let g = mlp_graph(&[4, 8, 2], true);
        let p = fuse(&g).unwrap();
        assert_eq!(p.stages.len(), 3);
        assert!(matches!(&p.stages[2], Stage::Cpu { name, dim: 2 } if name == "softmax"));
    }

    #[test]
    fn fuse_rejects_non_chains() {
        let mut g = GirGraph::new();
        let x = g.add(GirOp::Input { dim: 2 }, &[]).unwrap();
        let _skip = g
            .add(
                GirOp::MatMul {
                    rows: 2,
                    cols: 2,
                    weights: vec![0.0; 4],
                },
                &[x],
            )
            .unwrap();
        // This node consumes x, not the previous node: a fork.
        let y = g.add(GirOp::Activation(ActFn::Relu), &[GirNodeId(0)]);
        let y = y.unwrap();
        g.add(GirOp::Output, &[y]).unwrap();
        assert!(matches!(fuse(&g), Err(GirError::NotAChain { .. })));
    }

    #[test]
    fn partition_splits_by_budget() {
        let g = mlp_graph(&[64, 64, 64, 64, 64], false); // 4 layers x 4096 params
        let p = fuse(&g).unwrap();
        // Budget of 2 layers per device -> 2 devices.
        let plan = partition(&p, 8192).unwrap();
        assert_eq!(plan.segments.len(), 2);
        // Budget for everything -> 1 device.
        let plan = partition(&p, 1 << 20).unwrap();
        assert_eq!(plan.segments.len(), 1);
    }

    #[test]
    fn partition_isolates_cpu_segments() {
        let g = mlp_graph(&[8, 8, 8], true);
        let p = fuse(&g).unwrap();
        let plan = partition(&p, 1 << 20).unwrap();
        assert_eq!(plan.segments.len(), 2);
        assert!(matches!(plan.segments[0], Placement::Accelerator { .. }));
        assert!(matches!(plan.segments[1], Placement::Cpu { .. }));
    }

    #[test]
    fn oversized_stage_is_an_error() {
        let g = mlp_graph(&[64, 64], false);
        let p = fuse(&g).unwrap();
        let err = partition(&p, 100).unwrap_err();
        assert!(matches!(err, PartitionError::StageTooLarge { .. }));
    }
}
