//! DRAM-streamed multi-layer CNN execution (§V-A).
//!
//! RNN/MLP weights pin in the MRF, but "CNNs are more compute intensive,
//! and thus can overlap transfers of new operands from DRAM with
//! computation on the current MRF contents." This module builds a single
//! program for a whole stack of convolution layers in which each layer's
//! kernel tiles stream from DRAM (`m_rd(DRAM)` → `m_wr(MatrixRf)` chains on
//! the memory path) while the *previous* layer's positions compute on the
//! vector pipeline — the double-buffered overlap the paper describes.

use bw_core::isa::{MemId, Program, ProgramBuilder};
use bw_core::{Npu, RunStats, SimError};

use crate::cnn::ConvShape;

/// A stack of convolution layers whose kernels stream from DRAM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamedConvNet {
    layers: Vec<ConvShape>,
    native_dim: u32,
    /// Per-layer `(grid_out, grid_in)`.
    grids: Vec<(u32, u32)>,
    /// Per-layer first DRAM matrix index.
    dram_bases: Vec<u32>,
    /// Double-buffer region size in MRF entries (the largest layer's grid).
    buffer_entries: u32,
}

impl StreamedConvNet {
    /// Plans a streamed execution of `layers` on the given configuration.
    /// The MRF needs only `2 × max_layer_tiles` entries (two buffers), not
    /// the sum over layers — the point of streaming.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(config: &bw_core::NpuConfig, layers: &[ConvShape]) -> Self {
        assert!(!layers.is_empty(), "need at least one layer");
        let nd = config.native_dim();
        let grids: Vec<(u32, u32)> = layers
            .iter()
            .map(|s| {
                (
                    (s.c_out as u32).div_ceil(nd),
                    (s.patch_len() as u32).div_ceil(nd),
                )
            })
            .collect();
        let buffer_entries = grids.iter().map(|(r, c)| r * c).max().expect("non-empty");
        let mut dram_bases = Vec::with_capacity(layers.len());
        let mut base = 0u32;
        for (r, c) in &grids {
            dram_bases.push(base);
            base += r * c;
        }
        StreamedConvNet {
            layers: layers.to_vec(),
            native_dim: nd,
            grids,
            dram_bases,
            buffer_entries,
        }
    }

    /// MRF entries required: two ping-pong kernel buffers.
    pub fn mrf_entries_required(&self) -> u32 {
        2 * self.buffer_entries
    }

    /// Total DRAM matrix entries staged.
    pub fn dram_entries(&self) -> u32 {
        self.dram_bases.last().expect("non-empty")
            + self.grids.last().map(|(r, c)| r * c).expect("non-empty")
    }

    fn mrf_buffer(&self, layer: usize) -> u32 {
        (layer as u32 % 2) * self.buffer_entries
    }

    /// Generates the streamed program: layer k's kernel load is issued
    /// *before* layer k−1's position loop, so the memory path fills one
    /// buffer while the vector pipeline drains the other.
    pub fn program(&self) -> Program {
        let mut b = ProgramBuilder::new();
        let ok = "statically valid streamed-conv firmware";

        // Stage layer 0's kernel.
        self.emit_load(&mut b, 0);
        for (k, shape) in self.layers.iter().enumerate() {
            // Prefetch the next layer's kernel into the other buffer.
            if k + 1 < self.layers.len() {
                self.emit_load(&mut b, k + 1);
            }
            // Compute this layer: one chain per output position.
            let (go, gi) = self.grids[k];
            b.set_rows(go).set_cols(gi);
            b.begin_loop(shape.positions() as u32).expect(ok);
            b.v_rd(MemId::NetQ, 0)
                .mv_mul(self.mrf_buffer(k))
                .v_relu()
                .v_wr(MemId::NetQ, 0)
                .end_chain()
                .expect(ok);
            b.end_loop().expect(ok);
        }
        b.build()
    }

    fn emit_load(&self, b: &mut ProgramBuilder, layer: usize) {
        let (go, gi) = self.grids[layer];
        let ok = "statically valid streamed-conv firmware";
        b.set_rows(go).set_cols(gi);
        b.m_rd(MemId::Dram, self.dram_bases[layer])
            .m_wr(MemId::MatrixRf, self.mrf_buffer(layer))
            .end_chain()
            .expect(ok);
    }

    /// A single-buffered variant for comparison: every layer's kernel
    /// loads into the *same* MRF region, so each load must wait for the
    /// previous layer's in-flight reads (a write-after-read hazard the
    /// simulator tracks), serializing transfer behind compute.
    pub fn program_serial(&self) -> Program {
        let mut b = ProgramBuilder::new();
        let ok = "statically valid streamed-conv firmware";
        for (k, shape) in self.layers.iter().enumerate() {
            let (go, gi) = self.grids[k];
            b.set_rows(go).set_cols(gi);
            b.m_rd(MemId::Dram, self.dram_bases[k])
                .m_wr(MemId::MatrixRf, 0)
                .end_chain()
                .expect(ok);
            b.begin_loop(shape.positions() as u32).expect(ok);
            b.v_rd(MemId::NetQ, 0)
                .mv_mul(0)
                .v_relu()
                .v_wr(MemId::NetQ, 0)
                .end_chain()
                .expect(ok);
            b.end_loop().expect(ok);
        }
        b.build()
    }

    /// Stages placeholder kernels in DRAM and runs the streamed program
    /// timing-only, pushing placeholder patches for every position.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on capacity overflow.
    pub fn run_timing_only(&self, npu: &mut Npu, overlapped: bool) -> Result<RunStats, SimError> {
        let nd = self.native_dim as usize;
        let fmt = npu.config().matrix_format();
        let zero = bw_bfp::BfpMatrix::zeros(nd, nd, fmt);
        for i in 0..self.dram_entries() {
            npu.load_dram_matrix(i, zero.clone())?;
        }
        for (k, shape) in self.layers.iter().enumerate() {
            npu.push_input_zeros(self.grids[k].1 as usize * shape.positions());
        }
        let program = if overlapped {
            self.program()
        } else {
            self.program_serial()
        };
        npu.run(&program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_core::{ExecMode, Npu, NpuConfig};

    fn layers() -> Vec<ConvShape> {
        // Same-resolution stack so each layer's outputs have as many
        // positions as the next one's inputs (host re-feeds patches).
        (0..4)
            .map(|_| ConvShape {
                h: 14,
                w: 14,
                c_in: 64,
                k: 3,
                c_out: 64,
                stride: 1,
                pad: 1,
            })
            .collect()
    }

    fn cfg(mrf: u32) -> NpuConfig {
        NpuConfig::builder()
            .native_dim(64)
            .lanes(16)
            .tile_engines(8)
            .mrf_entries(mrf)
            .vrf_entries(1024)
            .mfu_lanes(64)
            .build()
            .unwrap()
    }

    #[test]
    fn double_buffering_halves_mrf_footprint() {
        let net = StreamedConvNet::new(&cfg(64), &layers());
        // Each layer: grid_out 1, grid_in 9 -> 9 entries; 2 buffers = 18
        // vs 36 if all four layers pinned.
        assert_eq!(net.mrf_entries_required(), 18);
        assert_eq!(net.dram_entries(), 36);
    }

    #[test]
    fn overlap_beats_serial_execution() {
        let net = StreamedConvNet::new(&cfg(64), &layers());
        let mut npu = Npu::with_mode(cfg(64), ExecMode::TimingOnly);
        let overlapped = net.run_timing_only(&mut npu, true).unwrap();
        let mut npu = Npu::with_mode(cfg(64), ExecMode::TimingOnly);
        let serial = net.run_timing_only(&mut npu, false).unwrap();
        assert!(
            overlapped.cycles < serial.cycles,
            "overlapped {} !< serial {}",
            overlapped.cycles,
            serial.cycles
        );
        // This stack is transfer-bound (a 9-tile load is ~3600 cycles, a
        // layer's 196 positions ~1000), so overlapping hides the *compute*
        // behind the loads: the saving approaches 3 x compute-per-layer.
        let compute_per_layer = 196 * 5; // positions x per-position occupancy
        let saved = serial.cycles - overlapped.cycles;
        assert!(
            saved > 2 * compute_per_layer,
            "saved {saved} cycles, compute per layer is {compute_per_layer}"
        );
    }

    #[test]
    fn streamed_program_validates_statically() {
        let net = StreamedConvNet::new(&cfg(64), &layers());
        let config = cfg(net.mrf_entries_required());
        assert!(net.program().validate(&config).is_empty());
        assert!(net.program_serial().validate(&config).is_empty());
        // An MRF with only one buffer fails validation of the
        // double-buffered program but passes the single-buffered one.
        let too_small = cfg(net.mrf_entries_required() / 2);
        assert!(!net.program().validate(&too_small).is_empty());
        assert!(net.program_serial().validate(&too_small).is_empty());
    }
}
