//! A textual model description format for the toolflow's import step.
//!
//! §II-B begins with "a pre-trained DNN model is exported from a DNN
//! framework ... into BW's graph intermediate representation". This module
//! is that entry point for this repository: a small, line-oriented model
//! description that parses directly into a [`GirGraph`], with weights
//! generated deterministically from per-layer seeds (real checkpoints are
//! value-irrelevant for every experiment here; see `DESIGN.md`).
//!
//! # Format
//!
//! One declaration per line; `#` starts a comment.
//!
//! ```text
//! # a two-layer classifier
//! input 64
//! dense 128 relu seed=1     # rows=128, fused bias + ReLU
//! dense 10 seed=2           # rows=10, fused bias, no activation
//! cpu softmax
//! output
//! ```
//!
//! Supported lines:
//!
//! * `input <dim>` — the graph input (must be first);
//! * `dense <rows> [relu|sigmoid|tanh] [seed=<n>] [nobias]` — a fused
//!   dense layer; weights are `±1/√cols`-scaled, deterministic in the
//!   seed (default seed: the layer's position);
//! * `activation <relu|sigmoid|tanh>` — a standalone activation;
//! * `cpu <name>` — a host-executed op (`softmax`, `l2norm`);
//! * `output` — the graph output (must be last).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ir::{ActFn, GirGraph, GirNodeId, GirOp};

/// Error produced while parsing a model description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ModelParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ModelParseError {}

fn err(line: usize, message: impl Into<String>) -> ModelParseError {
    ModelParseError {
        line,
        message: message.into(),
    }
}

fn parse_act(s: &str) -> Option<ActFn> {
    match s {
        "relu" => Some(ActFn::Relu),
        "sigmoid" => Some(ActFn::Sigmoid),
        "tanh" => Some(ActFn::Tanh),
        _ => None,
    }
}

/// Parses a model description into a validated [`GirGraph`].
///
/// # Errors
///
/// Returns [`ModelParseError`] with the offending line on any syntax,
/// ordering, or shape violation.
pub fn parse_model(text: &str) -> Result<GirGraph, ModelParseError> {
    let mut graph = GirGraph::new();
    let mut prev: Option<GirNodeId> = None;
    let mut cur_dim = 0usize;
    let mut finished = false;
    let mut layer_counter = 0u64;

    for (ln, raw) in text.lines().enumerate() {
        let line = ln + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        if finished {
            return Err(err(line, "declarations after `output`"));
        }
        let mut words = content.split_whitespace();
        let head = words.next().expect("non-empty");
        let rest: Vec<&str> = words.collect();

        match head {
            "input" => {
                if prev.is_some() {
                    return Err(err(line, "`input` must be the first declaration"));
                }
                let dim: usize = rest
                    .first()
                    .and_then(|s| s.parse().ok())
                    .filter(|&d| d > 0)
                    .ok_or_else(|| err(line, "`input` needs a positive dimension"))?;
                cur_dim = dim;
                prev = Some(
                    graph
                        .add(GirOp::Input { dim }, &[])
                        .map_err(|e| err(line, e.to_string()))?,
                );
            }
            "dense" => {
                let from = prev.ok_or_else(|| err(line, "`dense` before `input`"))?;
                let rows: usize = rest
                    .first()
                    .and_then(|s| s.parse().ok())
                    .filter(|&d| d > 0)
                    .ok_or_else(|| err(line, "`dense` needs a positive row count"))?;
                let mut act: Option<ActFn> = None;
                let mut seed: u64 = layer_counter;
                let mut bias = true;
                for word in &rest[1..] {
                    if let Some(a) = parse_act(word) {
                        act = Some(a);
                    } else if let Some(s) = word.strip_prefix("seed=") {
                        seed = s
                            .parse()
                            .map_err(|_| err(line, format!("bad seed `{s}`")))?;
                    } else if *word == "nobias" {
                        bias = false;
                    } else {
                        return Err(err(line, format!("unknown dense attribute `{word}`")));
                    }
                }
                let cols = cur_dim;
                let mut rng = StdRng::seed_from_u64(seed);
                let scale = 1.0 / (cols as f32).sqrt();
                let weights: Vec<f32> = (0..rows * cols)
                    .map(|_| rng.gen_range(-scale..scale))
                    .collect();
                let mut node = graph
                    .add(
                        GirOp::MatMul {
                            rows,
                            cols,
                            weights,
                        },
                        &[from],
                    )
                    .map_err(|e| err(line, e.to_string()))?;
                if bias {
                    let b: Vec<f32> = (0..rows).map(|_| rng.gen_range(-0.1..0.1)).collect();
                    node = graph
                        .add(GirOp::BiasAdd { bias: b }, &[node])
                        .map_err(|e| err(line, e.to_string()))?;
                }
                if let Some(act) = act {
                    node = graph
                        .add(GirOp::Activation(act), &[node])
                        .map_err(|e| err(line, e.to_string()))?;
                }
                cur_dim = rows;
                prev = Some(node);
                layer_counter += 1;
            }
            "activation" => {
                let from = prev.ok_or_else(|| err(line, "`activation` before `input`"))?;
                let act = rest
                    .first()
                    .and_then(|s| parse_act(s))
                    .ok_or_else(|| err(line, "`activation` needs relu|sigmoid|tanh"))?;
                prev = Some(
                    graph
                        .add(GirOp::Activation(act), &[from])
                        .map_err(|e| err(line, e.to_string()))?,
                );
            }
            "cpu" => {
                let from = prev.ok_or_else(|| err(line, "`cpu` before `input`"))?;
                let name = rest
                    .first()
                    .ok_or_else(|| err(line, "`cpu` needs an op name"))?;
                prev = Some(
                    graph
                        .add(
                            GirOp::CpuOp {
                                name: (*name).to_owned(),
                            },
                            &[from],
                        )
                        .map_err(|e| err(line, e.to_string()))?,
                );
            }
            "output" => {
                let from = prev.ok_or_else(|| err(line, "`output` before `input`"))?;
                graph
                    .add(GirOp::Output, &[from])
                    .map_err(|e| err(line, e.to_string()))?;
                finished = true;
            }
            other => return Err(err(line, format!("unknown declaration `{other}`"))),
        }
    }
    if !finished {
        return Err(err(
            text.lines().count().max(1),
            "model ends without `output`",
        ));
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{fuse, Stage};

    const CLASSIFIER: &str = "\
# a two-layer classifier
input 8
dense 16 relu seed=1
dense 4 seed=2
cpu softmax
output
";

    #[test]
    fn parses_and_fuses() {
        let g = parse_model(CLASSIFIER).unwrap();
        assert_eq!(g.output_dims(), vec![4]);
        let p = fuse(&g).unwrap();
        assert_eq!(p.input_dim, 8);
        assert_eq!(p.stages.len(), 3);
        assert!(matches!(
            &p.stages[0],
            Stage::Dense {
                rows: 16,
                cols: 8,
                act: Some(ActFn::Relu),
                bias: Some(_),
                ..
            }
        ));
        assert!(matches!(
            &p.stages[1],
            Stage::Dense {
                rows: 4,
                act: None,
                ..
            }
        ));
        assert!(matches!(&p.stages[2], Stage::Cpu { name, .. } if name == "softmax"));
    }

    #[test]
    fn evaluation_is_deterministic_in_seeds() {
        let a = parse_model(CLASSIFIER)
            .unwrap()
            .evaluate(&[0.5; 8])
            .unwrap();
        let b = parse_model(CLASSIFIER)
            .unwrap()
            .evaluate(&[0.5; 8])
            .unwrap();
        assert_eq!(a, b);
        // Softmax output sums to one.
        assert!((a.iter().sum::<f32>() - 1.0).abs() < 1e-5);

        // Changing a seed changes the function.
        let other = CLASSIFIER.replace("seed=1", "seed=9");
        let c = parse_model(&other).unwrap().evaluate(&[0.5; 8]).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn nobias_and_standalone_activation() {
        let g = parse_model("input 4\ndense 4 nobias seed=3\nactivation tanh\noutput\n").unwrap();
        let p = fuse(&g).unwrap();
        // The standalone activation fuses into the dense stage.
        assert!(matches!(
            &p.stages[0],
            Stage::Dense {
                bias: None,
                act: Some(ActFn::Tanh),
                ..
            }
        ));
    }

    #[test]
    fn error_lines_are_reported() {
        let cases = [
            ("dense 4\noutput\n", 1, "before `input`"),
            ("input 4\nfoo 3\noutput\n", 2, "unknown declaration"),
            ("input 4\ndense 0\noutput\n", 2, "positive row count"),
            ("input 4\ndense 4 seed=x\noutput\n", 2, "bad seed"),
            ("input 4\noutput\ninput 4\n", 3, "after `output`"),
            ("input 4\ndense 4\n", 2, "without `output`"),
            ("input 4\ninput 4\noutput\n", 2, "must be the first"),
            (
                "input 4\ncpu sofmax\noutput\n",
                2,
                "unknown CPU op `sofmax`",
            ),
        ];
        for (text, line, needle) in cases {
            let e = parse_model(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.message.contains(needle), "{text:?}: {e}");
        }
    }

    #[test]
    fn end_to_end_through_the_toolflow() {
        use crate::{LowerOptions, ModelArtifact};
        use bw_core::NpuConfig;

        let g = parse_model(CLASSIFIER).unwrap();
        let cfg = NpuConfig::builder()
            .native_dim(8)
            .lanes(4)
            .tile_engines(2)
            .mrf_entries(64)
            .vrf_entries(64)
            .matrix_format(bw_bfp::BfpFormat::BFP_1S_5E_5M)
            .build()
            .unwrap();
        let artifact =
            ModelArtifact::compile("classifier", &g, 1 << 20, &cfg, &LowerOptions::default())
                .unwrap();
        let x = [0.25f32; 8];
        let y = artifact.pin().unwrap().infer(&x).unwrap();
        let want = g.evaluate(&x).unwrap();
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }
}
