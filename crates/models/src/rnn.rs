//! RNN dimensions and weight containers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input and hidden dimensions of an RNN cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RnnDims {
    /// Input (feature) dimension per time step.
    pub input: usize,
    /// Hidden state dimension.
    pub hidden: usize,
}

impl RnnDims {
    /// A square cell, as in the DeepBench RNN layers (input = hidden).
    pub fn square(hidden: usize) -> Self {
        RnnDims {
            input: hidden,
            hidden,
        }
    }
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, scale: f32) -> Vec<f32> {
    (0..rows * cols)
        .map(|_| rng.gen_range(-scale..scale))
        .collect()
}

/// The eight weight matrices and four bias vectors of an LSTM cell, gate
/// order `[f, i, o, c̃]`.
#[derive(Clone, Debug, PartialEq)]
pub struct LstmWeights {
    /// Input projections, each `hidden × input` row-major.
    pub w_x: [Vec<f32>; 4],
    /// Recurrent projections, each `hidden × hidden` row-major.
    pub w_h: [Vec<f32>; 4],
    /// Biases, each `hidden` long.
    pub bias: [Vec<f32>; 4],
}

impl LstmWeights {
    /// Random weights scaled like a trained model (`±1/√hidden`),
    /// deterministic in `seed`. Values only matter for functional tests;
    /// all performance metrics are shape-driven (see `DESIGN.md`).
    pub fn random(dims: RnnDims, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 1.0 / (dims.hidden as f32).sqrt();
        let wx = |rng: &mut StdRng| random_matrix(rng, dims.hidden, dims.input, scale);
        let wh = |rng: &mut StdRng| random_matrix(rng, dims.hidden, dims.hidden, scale);
        let b = |rng: &mut StdRng| random_matrix(rng, dims.hidden, 1, 0.1);
        LstmWeights {
            w_x: [wx(&mut rng), wx(&mut rng), wx(&mut rng), wx(&mut rng)],
            w_h: [wh(&mut rng), wh(&mut rng), wh(&mut rng), wh(&mut rng)],
            bias: [b(&mut rng), b(&mut rng), b(&mut rng), b(&mut rng)],
        }
    }

    /// All-zero weights of the right shapes.
    pub fn zeros(dims: RnnDims) -> Self {
        let wx = || vec![0.0; dims.hidden * dims.input];
        let wh = || vec![0.0; dims.hidden * dims.hidden];
        let b = || vec![0.0; dims.hidden];
        LstmWeights {
            w_x: [wx(), wx(), wx(), wx()],
            w_h: [wh(), wh(), wh(), wh()],
            bias: [b(), b(), b(), b()],
        }
    }
}

/// The six weight matrices and three bias vectors of a GRU cell, gate order
/// `[r, z, n]` (cuDNN formulation; see
/// [`reference::gru_cell`](crate::reference::gru_cell)).
#[derive(Clone, Debug, PartialEq)]
pub struct GruWeights {
    /// Input projections, each `hidden × input` row-major.
    pub w_x: [Vec<f32>; 3],
    /// Recurrent projections, each `hidden × hidden` row-major.
    pub w_h: [Vec<f32>; 3],
    /// Biases, each `hidden` long.
    pub bias: [Vec<f32>; 3],
}

impl GruWeights {
    /// Random weights, deterministic in `seed`.
    pub fn random(dims: RnnDims, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 1.0 / (dims.hidden as f32).sqrt();
        let wx = |rng: &mut StdRng| random_matrix(rng, dims.hidden, dims.input, scale);
        let wh = |rng: &mut StdRng| random_matrix(rng, dims.hidden, dims.hidden, scale);
        let b = |rng: &mut StdRng| random_matrix(rng, dims.hidden, 1, 0.1);
        GruWeights {
            w_x: [wx(&mut rng), wx(&mut rng), wx(&mut rng)],
            w_h: [wh(&mut rng), wh(&mut rng), wh(&mut rng)],
            bias: [b(&mut rng), b(&mut rng), b(&mut rng)],
        }
    }

    /// All-zero weights of the right shapes.
    pub fn zeros(dims: RnnDims) -> Self {
        let wx = || vec![0.0; dims.hidden * dims.input];
        let wh = || vec![0.0; dims.hidden * dims.hidden];
        let b = || vec![0.0; dims.hidden];
        GruWeights {
            w_x: [wx(), wx(), wx()],
            w_h: [wh(), wh(), wh()],
            bias: [b(), b(), b()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_consistent() {
        let dims = RnnDims {
            input: 3,
            hidden: 5,
        };
        let w = LstmWeights::random(dims, 1);
        assert_eq!(w.w_x[0].len(), 15);
        assert_eq!(w.w_h[3].len(), 25);
        assert_eq!(w.bias[2].len(), 5);
        let g = GruWeights::zeros(dims);
        assert_eq!(g.w_x[2].len(), 15);
        assert_eq!(g.w_h[0].len(), 25);
    }

    #[test]
    fn random_is_deterministic_in_seed() {
        let dims = RnnDims::square(4);
        assert_eq!(LstmWeights::random(dims, 7), LstmWeights::random(dims, 7));
        assert_ne!(LstmWeights::random(dims, 7), LstmWeights::random(dims, 8));
        assert_eq!(GruWeights::random(dims, 7), GruWeights::random(dims, 7));
    }

    #[test]
    fn square_dims() {
        let d = RnnDims::square(9);
        assert_eq!(d.input, 9);
        assert_eq!(d.hidden, 9);
    }
}
