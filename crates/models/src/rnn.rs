//! The recurrent-cell generator: one firmware skeleton for the LSTM and
//! the GRU, plus RNN dimensions and weight containers.

use bw_core::isa::{MemId, Program, ProgramBuilder};
use bw_core::{AnalysisOptions, Npu, NpuConfig, RunStats, SimError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::deepbench::RnnKind;

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

/// A recurrent cell mapped onto a BW NPU: register file layout, MRF
/// layout, and the per-timestep instruction chains.
///
/// Every step follows the paper's chain pattern (§IV-C): a network read of
/// `x_t`, one `x·W` precompute chain per gate, the recurrent gate chains,
/// and the state update that multicasts `h_t` to its recurrent slot and the
/// network queue. The skeleton — MRF layout, weight pinning, the step
/// loop, the deployment facts and the host-side runs — is shared; what a
/// cell adds is its VRF layout, the chains of one step, and its
/// recurrent-state slots ([`Lstm`](crate::Lstm), [`Gru`](crate::Gru)).
///
/// # Example
///
/// ```
/// use bw_core::{ExecMode, Npu, NpuConfig};
/// use bw_models::{Rnn, RnnDims, RnnKind};
///
/// let cfg = NpuConfig::bw_s10();
/// let gru = Rnn::new(RnnKind::Gru, &cfg, RnnDims::square(400));
/// let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
/// let stats = gru.run_timing_only(&mut npu, 3)?;
/// assert_eq!(stats.chains, 3 * 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rnn {
    kind: RnnKind,
    dims: RnnDims,
    /// Native tiles per hidden dimension: `ceil(hidden / N)`.
    grid_h: u32,
    /// Native tiles per input dimension: `ceil(input / N)`.
    grid_x: u32,
}

/// Why `ProgramBuilder` cannot fail here: the generators emit only
/// well-formed chains.
pub(crate) const FIRMWARE: &str = "statically valid recurrent-cell firmware";

/// Host-initialized recurrent state: `vectors` hidden-sized vectors
/// (`grid_h` entries each) from entry `start` of `mem`.
pub(crate) struct StateSlot {
    pub(crate) mem: MemId,
    pub(crate) start: u32,
    pub(crate) vectors: u32,
}

impl Rnn {
    /// Plans a cell of the given kind and dimensions for an NPU
    /// configuration.
    pub fn new(kind: RnnKind, config: &NpuConfig, dims: RnnDims) -> Self {
        let nd = config.native_dim();
        Rnn {
            kind,
            dims,
            grid_h: (dims.hidden as u32).div_ceil(nd),
            grid_x: (dims.input as u32).div_ceil(nd),
        }
    }

    /// The model dimensions.
    pub fn dims(&self) -> RnnDims {
        self.dims
    }

    /// Native tile rows of the hidden dimension.
    pub fn grid_h(&self) -> u32 {
        self.grid_h
    }

    /// Native tile columns of the input dimension.
    pub fn grid_x(&self) -> u32 {
        self.grid_x
    }

    /// MRF entries the pinned weights require:
    /// `gates·(grid_h·grid_x) + gates·(grid_h·grid_h)`.
    pub fn mrf_entries_required(&self) -> u32 {
        self.kind.gates() * self.grid_h * (self.grid_x + self.grid_h)
    }

    /// True model FLOPs per time step: two matrix products per gate at
    /// 2 FLOPs per MAC — the paper's accounting (Table I: 64M for a
    /// 2000-dim LSTM, 94M for a 2800-dim GRU).
    pub fn ops_per_step(&self) -> u64 {
        let h = self.dims.hidden as u64;
        let d = self.dims.input as u64;
        2 * u64::from(self.kind.gates()) * (h * d + h * h)
    }

    /// True model FLOPs for `steps` time steps.
    pub fn ops(&self, steps: u32) -> u64 {
        self.ops_per_step() * u64::from(steps)
    }

    // --- MRF layout: every gate's input tiles, then every gate's
    // recurrent tiles ---------------------------------------------------

    pub(crate) fn mrf_w(&self, gate: u32) -> u32 {
        gate * self.grid_h * self.grid_x
    }

    pub(crate) fn mrf_u(&self, gate: u32) -> u32 {
        self.kind.gates() * self.grid_h * self.grid_x + gate * self.grid_h * self.grid_h
    }

    // --- VRF layout (in native-vector entries) ---------------------------
    //
    // Each batch instance `b` gets its own copy of every per-sequence slot
    // (weights and biases are shared); instance 0 is the layout the
    // single-request firmware uses. Per sequence the IVRF holds `x_t`, then
    // the cell's IVRF state, which ends in `h_prev`; the ASVRF0 holds the
    // biases, then one `x·W` slot per gate and sequence. The cells lay out
    // the rest.

    fn ivrf_stride(&self) -> u32 {
        let state = match self.kind {
            RnnKind::Lstm => 2, // c_t, h_prev
            RnnKind::Gru => 1,  // h_prev
        };
        self.grid_x + state * self.grid_h
    }
    pub(crate) fn ivrf_xt(&self, b: u32) -> u32 {
        b * self.ivrf_stride()
    }
    pub(crate) fn ivrf_h_prev(&self, b: u32) -> u32 {
        (b + 1) * self.ivrf_stride() - self.grid_h
    }
    pub(crate) fn asvrf0_bias(&self, gate: u32) -> u32 {
        gate * self.grid_h
    }
    pub(crate) fn asvrf0_xw(&self, gate: u32, b: u32) -> u32 {
        let gates = self.kind.gates();
        (gates + b * gates + gate) * self.grid_h
    }

    /// Emits the precompute chain `xW_g = x_t · W_g + b_g` of sequence `b`.
    pub(crate) fn precompute(&self, p: &mut ProgramBuilder, gate: u32, b: u32) {
        p.v_rd(MemId::InitialVrf, self.ivrf_xt(b))
            .mv_mul(self.mrf_w(gate))
            .vv_add(self.asvrf0_bias(gate))
            .v_wr(MemId::AddSubVrf(0), self.asvrf0_xw(gate, b))
            .end_chain()
            .expect(FIRMWARE);
    }

    /// The recurrent state of sequence `b` the host zeroes before a run.
    fn state(&self, b: u32) -> Vec<StateSlot> {
        match self.kind {
            RnnKind::Lstm => self.lstm_state(b),
            RnnKind::Gru => self.gru_state(b),
        }
    }

    /// Generates the firmware for `steps` time steps (batch size 1).
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero (an RNN evaluation must advance time).
    pub fn program(&self, steps: u32) -> Program {
        self.program_batched(steps, 1)
    }

    /// Generates batch-interleaved firmware: `batch` independent sequences
    /// advance together, with each time step emitting every sequence's
    /// chains before the next step.
    ///
    /// This implements the optimization the paper leaves as future work
    /// (§VII-B3): "interleaving the computation for each RNN timestep among
    /// all input batches to further space out dependencies. This would be
    /// particularly effective at increasing utilization for small LSTM/GRU
    /// layers, which are not always able to fill the deep BW pipeline."
    /// Sequence `b`'s recurrent chains wait on its own `h`, but the other
    /// sequences' matrix products fill the MVM in the meantime.
    ///
    /// Inputs interleave per step on the network queue
    /// (`x[t=0][b=0], x[t=0][b=1], …`), and each step emits every
    /// sequence's hidden state in batch order.
    ///
    /// # Panics
    ///
    /// Panics if `steps` or `batch` is zero.
    pub fn program_batched(&self, steps: u32, batch: u32) -> Program {
        assert!(steps > 0, "steps must be positive");
        assert!(batch > 0, "batch must be positive");
        let mut p = ProgramBuilder::new();
        p.begin_loop(steps).expect(FIRMWARE);
        for b in 0..batch {
            // Read x_t[b] from the network into the initial VRF.
            p.set_rows(self.grid_x);
            p.v_rd(MemId::NetQ, 0)
                .v_wr(MemId::InitialVrf, self.ivrf_xt(b))
                .end_chain()
                .expect(FIRMWARE);
            p.set_rows(self.grid_h).set_cols(self.grid_x);
            match self.kind {
                RnnKind::Lstm => self.lstm_step(&mut p, b),
                RnnKind::Gru => self.gru_step(&mut p, b),
            }
        }
        p.end_loop().expect(FIRMWARE);
        p.build()
    }

    /// The deployment facts the host establishes before running
    /// [`Rnn::program`]`(steps)`: pinned weights and biases
    /// ([`Rnn::load_weights`]), zeroed recurrent state
    /// ([`Rnn::reset_state`]), `grid_x` input vectors per step, and
    /// `grid_h` emitted hidden vectors per step. Feed the result to
    /// [`bw_core::analyze_with`] to lint the generated firmware.
    pub fn analysis_options(&self, steps: u32) -> AnalysisOptions {
        self.analysis_options_batched(steps, 1)
    }

    /// [`Rnn::analysis_options`] for the batch-interleaved firmware,
    /// assuming the host resets every sequence's recurrent state.
    pub fn analysis_options_batched(&self, steps: u32, batch: u32) -> AnalysisOptions {
        let per_step = u64::from(steps) * u64::from(batch);
        let mut opts = AnalysisOptions::default()
            .preload(MemId::MatrixRf, 0, self.mrf_entries_required())
            .preload(MemId::AddSubVrf(0), 0, self.kind.gates() * self.grid_h)
            .with_input_vectors(u64::from(self.grid_x) * per_step)
            .with_expected_outputs(u64::from(self.grid_h) * per_step);
        for b in 0..batch {
            for slot in self.state(b) {
                opts = opts.preload(slot.mem, slot.start, slot.vectors * self.grid_h);
            }
        }
        opts
    }

    /// Pins weights into the NPU's MRF and stages biases in the MFU
    /// register files — the host runtime's model deployment step.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the weights exceed MRF/VRF capacity.
    ///
    /// # Panics
    ///
    /// Panics if the weights are for a cell with another gate count.
    pub fn load_weights<const G: usize>(
        &self,
        npu: &mut Npu,
        weights: &RnnWeights<G>,
    ) -> Result<(), SimError> {
        let gates = self.kind.gates();
        assert_eq!(
            G as u32, gates,
            "{} cells take {gates} gates of weights, not {G}",
            self.kind
        );
        let (h, d) = (self.dims.hidden, self.dims.input);
        for g in 0..G {
            let gate = g as u32;
            let (w_x, w_h) = (&weights.w_x[g], &weights.w_h[g]);
            npu.load_tiled_matrix(self.mrf_w(gate), self.grid_h, self.grid_x, h, d, w_x)?;
            npu.load_tiled_matrix(self.mrf_u(gate), self.grid_h, self.grid_h, h, h, w_h)?;
            npu.load_vector(
                MemId::AddSubVrf(0),
                self.asvrf0_bias(gate),
                &weights.bias[g],
            )?;
        }
        Ok(())
    }

    /// Reserves the MRF footprint without quantizing real weights — pair
    /// with [`bw_core::ExecMode::TimingOnly`] for large sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the footprint exceeds MRF capacity.
    pub fn prepare_timing_only(&self, npu: &mut Npu) -> Result<(), SimError> {
        for g in 0..self.kind.gates() {
            npu.reserve_matrix_grid(self.mrf_w(g), self.grid_h, self.grid_x)?;
            npu.reserve_matrix_grid(self.mrf_u(g), self.grid_h, self.grid_h)?;
        }
        Ok(())
    }

    /// Clears the recurrent state (`h`, and an LSTM's `c`) to zero.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on VRF capacity overflow.
    pub fn reset_state(&self, npu: &mut Npu) -> Result<(), SimError> {
        let zeros = vec![0.0f32; self.dims.hidden];
        for slot in self.state(0) {
            for v in 0..slot.vectors {
                npu.load_vector(slot.mem, slot.start + v * self.grid_h, &zeros)?;
            }
        }
        Ok(())
    }

    /// Enqueues one time step's input vector (padded to native vectors).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::VectorLengthMismatch`] if `x` is not the input
    /// dimension.
    pub fn push_step_input(&self, npu: &mut Npu, x: &[f32]) -> Result<(), SimError> {
        if x.len() != self.dims.input {
            return Err(SimError::VectorLengthMismatch {
                expected: self.dims.input,
                actual: x.len(),
            });
        }
        let pushed = npu.push_input_padded(x);
        debug_assert_eq!(pushed, self.grid_x as usize);
        Ok(())
    }

    /// Runs the cell over `inputs` (one vector per time step), returning
    /// the hidden state emitted at each step and the run statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on shape mismatch or execution failure.
    pub fn run(
        &self,
        npu: &mut Npu,
        inputs: &[Vec<f32>],
    ) -> Result<(Vec<Vec<f32>>, RunStats), SimError> {
        for x in inputs {
            self.push_step_input(npu, x)?;
        }
        let stats = npu.run(&self.program(inputs.len() as u32))?;
        let mut outputs = Vec::with_capacity(inputs.len());
        for _ in 0..inputs.len() {
            let h = npu
                .pop_output_concat(self.grid_h as usize, self.dims.hidden)
                .ok_or(SimError::NetQueueEmpty {
                    requested: self.grid_h,
                    available: 0,
                })?;
            outputs.push(h);
        }
        Ok((outputs, stats))
    }

    /// A timing-only evaluation: reserves state, pushes placeholder inputs,
    /// runs `steps` time steps, and returns the statistics. The NPU should
    /// be in [`bw_core::ExecMode::TimingOnly`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on capacity overflow.
    pub fn run_timing_only(&self, npu: &mut Npu, steps: u32) -> Result<RunStats, SimError> {
        self.run_timing_only_batched(npu, steps, 1)
    }

    /// Timing-only evaluation of the batch-interleaved firmware (see
    /// [`Rnn::program_batched`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on capacity overflow.
    pub fn run_timing_only_batched(
        &self,
        npu: &mut Npu,
        steps: u32,
        batch: u32,
    ) -> Result<RunStats, SimError> {
        self.prepare_timing_only(npu)?;
        npu.push_input_zeros(self.grid_x as usize * steps as usize * batch as usize);
        npu.run(&self.program_batched(steps, batch))
    }
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, scale: f32) -> Vec<f32> {
    (0..rows * cols)
        .map(|_| rng.gen_range(-scale..scale))
        .collect()
}

/// The weight matrices and bias vectors of a `G`-gate cell, in the cell's
/// gate order: [`LstmWeights`] `[f, i, o, c̃]`, [`GruWeights`] `[r, z, n]`
/// (cuDNN formulation; see
/// [`reference::gru_cell`](crate::reference::gru_cell)).
#[derive(Clone, Debug, PartialEq)]
pub struct RnnWeights<const G: usize> {
    /// Input projections, each `hidden × input` row-major.
    pub w_x: [Vec<f32>; G],
    /// Recurrent projections, each `hidden × hidden` row-major.
    pub w_h: [Vec<f32>; G],
    /// Biases, each `hidden` long.
    pub bias: [Vec<f32>; G],
}

/// The eight weight matrices and four bias vectors of an LSTM cell.
pub type LstmWeights = RnnWeights<4>;

/// The six weight matrices and three bias vectors of a GRU cell.
pub type GruWeights = RnnWeights<3>;

impl<const G: usize> RnnWeights<G> {
    /// Random weights scaled like a trained model (`±1/√hidden`),
    /// deterministic in `seed`: every input projection, then every
    /// recurrent one, then every bias. Values only matter for functional
    /// tests; all performance metrics are shape-driven (see `DESIGN.md`).
    pub fn random(dims: RnnDims, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 1.0 / (dims.hidden as f32).sqrt();
        let w_x = std::array::from_fn(|_| random_matrix(&mut rng, dims.hidden, dims.input, scale));
        let w_h = std::array::from_fn(|_| random_matrix(&mut rng, dims.hidden, dims.hidden, scale));
        let bias = std::array::from_fn(|_| random_matrix(&mut rng, dims.hidden, 1, 0.1));
        RnnWeights { w_x, w_h, bias }
    }

    /// All-zero weights of the right shapes.
    pub fn zeros(dims: RnnDims) -> Self {
        RnnWeights {
            w_x: std::array::from_fn(|_| vec![0.0; dims.hidden * dims.input]),
            w_h: std::array::from_fn(|_| vec![0.0; dims.hidden * dims.hidden]),
            bias: std::array::from_fn(|_| vec![0.0; dims.hidden]),
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
    #[should_panic(expected = "LSTM cells take 4 gates of weights, not 3")]
    fn weights_of_another_gate_count_are_refused() {
        let cfg = NpuConfig::builder()
            .native_dim(8)
            .lanes(4)
            .tile_engines(2)
            .build()
            .unwrap();
        let dims = RnnDims::square(8);
        let lstm = Rnn::new(RnnKind::Lstm, &cfg, dims);
        let mut npu = Npu::new(cfg);
        let _ = lstm.load_weights(&mut npu, &GruWeights::zeros(dims));
    }

    #[test]
    fn square_dims() {
        let d = RnnDims::square(9);
        assert_eq!(d.input, 9);
        assert_eq!(d.hidden, 9);
    }
}
