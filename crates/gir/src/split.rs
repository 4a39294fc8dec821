//! Intra-layer splitting: partitioning a single oversized dense layer
//! across devices.
//!
//! §II-A: "Large, partitionable problems can be spatially distributed
//! across multiple accelerators." When one dense stage's weights exceed a
//! device's on-chip budget, the whole-layer partitioner cannot help; this
//! pass rewrites the stage as `k` *row shards* — each device holds a
//! horizontal slice `W[i·r/k .. (i+1)·r/k, :]` and produces the matching
//! slice of the output, which the host (or downstream device) concatenates.
//! Row sharding needs no reduction step (unlike column sharding) and each
//! shard's bias/activation fuse locally, so the shards remain ordinary
//! pipeline stages.

use crate::pipeline::{Pipeline, Stage};

/// How a pipeline was rewritten by [`split_oversized_stages`].
///
/// `splits` records *what* was split (original stage index, shard count);
/// `groups` records *where* the shards landed in the rewritten pipeline,
/// which is what a federated runtime needs to scatter one input and
/// gather the concatenated outputs:
///
/// ```
/// use bw_gir::{split_oversized_stages, Pipeline, Stage};
///
/// let oversized = Pipeline {
///     input_dim: 32,
///     stages: vec![Stage::Dense {
///         rows: 64,
///         cols: 32,
///         weights: vec![0.01; 64 * 32], // 2048 params
///         bias: None,
///         act: None,
///     }],
/// };
/// let (rewritten, report) = split_oversized_stages(&oversized, 1024)?;
/// assert_eq!(report.splits, vec![(0, 2)]);      // stage 0 -> 2 shards
/// assert_eq!(report.groups, vec![vec![0, 1]]);  // shard stages 0 and 1
/// assert_eq!(rewritten.stages.len(), 2);
/// # Ok::<(), bw_gir::SplitError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SplitReport {
    /// `(original_stage_index, shards)` for every stage that was split.
    pub splits: Vec<(usize, usize)>,
    /// For each split, the indices of its shard stages in the *rewritten*
    /// pipeline. Shards of one group scatter the same input and gather
    /// (concatenate) their outputs; [`crate::ShardedArtifact::compile`]
    /// packages each group as one scatter/gather segment.
    pub groups: Vec<Vec<usize>>,
}

/// Error produced when a stage cannot be split under the budget.
///
/// The output row is the atomic unit of a matrix-vector product, so a
/// budget below one row's parameter count (= the stage's input
/// dimension) is unsatisfiable:
///
/// ```
/// use bw_gir::{split_oversized_stages, Pipeline, SplitError, Stage};
///
/// let p = Pipeline {
///     input_dim: 512,
///     stages: vec![Stage::Dense {
///         rows: 4,
///         cols: 512,
///         weights: vec![0.0; 4 * 512],
///         bias: None,
///         act: None,
///     }],
/// };
/// assert_eq!(
///     split_oversized_stages(&p, 256).unwrap_err(),
///     SplitError::RowTooLarge { stage: 0, row_params: 512, budget: 256 },
/// );
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SplitError {
    /// Even a single output row's weights exceed the budget.
    RowTooLarge {
        /// The offending stage index.
        stage: usize,
        /// Parameters in one output row (= the stage's input dimension).
        row_params: u64,
        /// The per-device parameter budget.
        budget: u64,
    },
}

impl std::fmt::Display for SplitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitError::RowTooLarge {
                stage,
                row_params,
                budget,
            } => write!(
                f,
                "stage {stage}: one output row needs {row_params} parameters, over the budget {budget}"
            ),
        }
    }
}

impl std::error::Error for SplitError {}

/// Rewrites every dense stage whose weights exceed `device_param_budget`
/// into row shards that each fit. Returns the rewritten pipeline and a
/// report of what was split.
///
/// The rewritten pipeline computes the same function when a sharded
/// stage's shards, which appear consecutively, all read the same input and
/// the downstream consumer sees the concatenation of their outputs.
/// [`crate::ShardedArtifact::compile`] packages the shards that way for a
/// serving runtime; [`shard_outputs_concat`] does the same gather on the
/// host for validation.
///
/// # Example
///
/// The stacked gate matrix of an LSTM — `W ∈ R^{4h×h}` for hidden size
/// `h` — is the paper's canonical oversized layer. With `h = 64` the
/// gates hold 16384 parameters; a 6000-parameter device budget shards
/// them into three row slices that each fit (see `DESIGN.md` §Scale-out
/// for how `bw-serve` executes such a group across workers):
///
/// ```
/// use bw_gir::{split_oversized_stages, Pipeline, Stage};
///
/// let h = 64;
/// let lstm_gates = Pipeline {
///     input_dim: h,
///     stages: vec![Stage::Dense {
///         rows: 4 * h, // i, f, g, o gates stacked row-wise
///         cols: h,
///         weights: vec![0.01; 4 * h * h],
///         bias: Some(vec![0.0; 4 * h]),
///         act: None, // gate nonlinearities apply after the split
///     }],
/// };
/// let (sharded, report) = split_oversized_stages(&lstm_gates, 6000)?;
/// assert_eq!(report.splits, vec![(0, 3)]);
/// assert!(sharded.stages.iter().all(|s| s.weight_params() <= 6000));
/// // Shards gather back to the full 4h gate vector.
/// let rows: usize = sharded
///     .stages
///     .iter()
///     .map(|s| match s {
///         Stage::Dense { rows, .. } => *rows,
///         _ => 0,
///     })
///     .sum();
/// assert_eq!(rows, 4 * h);
/// # Ok::<(), bw_gir::SplitError>(())
/// ```
///
/// # Errors
///
/// Returns [`SplitError::RowTooLarge`] if a single output row exceeds the
/// budget (the row is the atomic unit of a matrix-vector product).
pub fn split_oversized_stages(
    pipeline: &Pipeline,
    device_param_budget: u64,
) -> Result<(Pipeline, SplitReport), SplitError> {
    let mut out = Pipeline {
        input_dim: pipeline.input_dim,
        stages: Vec::with_capacity(pipeline.stages.len()),
    };
    let mut report = SplitReport::default();

    for (i, stage) in pipeline.stages.iter().enumerate() {
        match stage {
            Stage::Dense {
                rows,
                cols,
                weights,
                bias,
                act,
            } if stage.weight_params() > device_param_budget => {
                let row_params = *cols as u64;
                if row_params > device_param_budget {
                    return Err(SplitError::RowTooLarge {
                        stage: i,
                        row_params,
                        budget: device_param_budget,
                    });
                }
                let rows_per_shard = (device_param_budget / row_params) as usize;
                let shards = rows.div_ceil(rows_per_shard);
                let first_new = out.stages.len();
                for s in 0..shards {
                    let r0 = s * rows_per_shard;
                    let r1 = (r0 + rows_per_shard).min(*rows);
                    out.stages.push(Stage::Dense {
                        rows: r1 - r0,
                        cols: *cols,
                        weights: weights[r0 * cols..r1 * cols].to_vec(),
                        bias: bias.as_ref().map(|b| b[r0..r1].to_vec()),
                        act: *act,
                    });
                }
                report.splits.push((i, shards));
                report
                    .groups
                    .push((first_new..first_new + shards).collect());
            }
            other => out.stages.push(other.clone()),
        }
    }
    Ok((out, report))
}

/// Host-side gather for a sharded stage: evaluates each shard on the same
/// input and concatenates the outputs (used to validate sharded plans; the
/// production runtime does this across microservice responses).
pub fn shard_outputs_concat(shards: &[&Stage], input: &[f32]) -> Vec<f32> {
    let mut out = Vec::new();
    for stage in shards {
        if let Stage::Dense {
            rows,
            cols,
            weights,
            bias,
            act,
        } = stage
        {
            for r in 0..*rows {
                let mut acc: f32 = weights[r * cols..(r + 1) * cols]
                    .iter()
                    .zip(input)
                    .map(|(w, x)| w * x)
                    .sum();
                if let Some(b) = bias {
                    acc += b[r];
                }
                if let Some(act) = act {
                    acc = match act {
                        crate::ir::ActFn::Relu => acc.max(0.0),
                        crate::ir::ActFn::Sigmoid => 1.0 / (1.0 + (-acc).exp()),
                        crate::ir::ActFn::Tanh => acc.tanh(),
                    };
                }
                out.push(acc);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ActFn;

    fn dense(rows: usize, cols: usize) -> Stage {
        Stage::Dense {
            rows,
            cols,
            weights: (0..rows * cols)
                .map(|i| ((i % 13) as f32 - 6.0) / 10.0)
                .collect(),
            bias: Some((0..rows).map(|i| i as f32 / 100.0).collect()),
            act: Some(ActFn::Tanh),
        }
    }

    #[test]
    fn small_stages_pass_through_unchanged() {
        let p = Pipeline {
            input_dim: 8,
            stages: vec![dense(8, 8)],
        };
        let (q, report) = split_oversized_stages(&p, 1000).unwrap();
        assert_eq!(q, p);
        assert!(report.splits.is_empty());
    }

    #[test]
    fn oversized_stage_splits_into_fitting_shards() {
        // 64x16 = 1024 params; budget 300 -> 18 rows per shard -> 4 shards.
        let p = Pipeline {
            input_dim: 16,
            stages: vec![dense(64, 16)],
        };
        let (q, report) = split_oversized_stages(&p, 300).unwrap();
        assert_eq!(report.splits, vec![(0, 4)]);
        assert_eq!(q.stages.len(), 4);
        let total_rows: usize = q
            .stages
            .iter()
            .map(|s| match s {
                Stage::Dense { rows, .. } => *rows,
                _ => 0,
            })
            .sum();
        assert_eq!(total_rows, 64);
        for s in &q.stages {
            assert!(s.weight_params() <= 300, "{}", s.weight_params());
        }
    }

    #[test]
    fn sharded_computation_equals_unsharded() {
        let p = Pipeline {
            input_dim: 16,
            stages: vec![dense(40, 16)],
        };
        let (q, _) = split_oversized_stages(&p, 200).unwrap();
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.3).sin()).collect();
        let whole = shard_outputs_concat(&[&p.stages[0]], &x);
        let shards: Vec<&Stage> = q.stages.iter().collect();
        let sharded = shard_outputs_concat(&shards, &x);
        assert_eq!(whole.len(), sharded.len());
        for (a, b) in whole.iter().zip(&sharded) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn single_row_too_large_is_an_error() {
        let p = Pipeline {
            input_dim: 1000,
            stages: vec![dense(4, 1000)],
        };
        let err = split_oversized_stages(&p, 500).unwrap_err();
        assert_eq!(
            err,
            SplitError::RowTooLarge {
                stage: 0,
                row_params: 1000,
                budget: 500
            }
        );
    }

    #[test]
    fn split_then_partition_spreads_devices() {
        use crate::pipeline::partition;
        // One 64x64 layer (4096 params) under a 1200-param budget: splits
        // into ceil(64/18)=4 shards, which then occupy 4 devices... or
        // fewer if shards pack. 18 rows x 64 = 1152 <= 1200, so one shard
        // per device.
        let p = Pipeline {
            input_dim: 64,
            stages: vec![dense(64, 64)],
        };
        let (q, report) = split_oversized_stages(&p, 1200).unwrap();
        assert_eq!(report.splits.len(), 1);
        let plan = partition(&q, 1200).unwrap();
        assert_eq!(plan.segments.len(), q.stages.len());
    }
}
