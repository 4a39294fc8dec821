//! On-chip and off-chip storage components: vector register files, the
//! matrix register file, DRAM, and the network I/O queues.
//!
//! Functional contents are stored at full `f32` precision; quantization
//! happens at the datapath boundaries (BFP at the MVM input, float16 inside
//! the MFUs), mirroring where precision is lost in the hardware.
//!
//! Every access here is one the timeline has already checked
//! ([`crate::sched`], "Faults"): register-file and DRAM bounds, queue
//! depths and vector widths cannot fail, and only reading an MRF entry or
//! DRAM matrix never written can.
//!
//! Storage is slab-backed: a vector register file is one flat `f32` slab
//! (as many entries as have been touched, `native_dim` elements each) read
//! and written as borrowed slices, so the simulator's hot path never clones
//! a vector. This module is pure
//! storage — the data planes an [`ExecMode::Full`] NPU owns and an
//! [`ExecMode::TimingOnly`] one never builds. *When* an entry becomes
//! readable is the scheduler's business: every ready / read-until
//! scoreboard and every NetQ arrival stamp lives in [`crate::sched`].
//!
//! [`ExecMode::Full`]: crate::ExecMode::Full
//! [`ExecMode::TimingOnly`]: crate::ExecMode::TimingOnly

use std::collections::{BTreeMap, VecDeque};

use bw_bfp::BfpMatrix;

use crate::npu::SimError;

/// A vector register file: one native vector per entry.
///
/// Uninitialized entries read as zero vectors, matching SRAM power-on state
/// and the firmware convention that initial RNN state is zero.
#[derive(Clone, Debug)]
pub(crate) struct VectorFile {
    native_dim: usize,
    /// The entries up to the highest one read or written so far, grown
    /// zero-filled on touch: BW_S10's five files would be 6.25 MiB each
    /// up front, and an RNN touches a few KB of each.
    data: Vec<f32>,
}

impl VectorFile {
    pub(crate) fn new(native_dim: usize) -> Self {
        VectorFile {
            native_dim,
            data: Vec::new(),
        }
    }

    /// The entries `index..index + width` as one flat slice, grown into
    /// existence if this is their first touch.
    fn touch(&mut self, index: u32, width: u32) -> &mut [f32] {
        let start = index as usize * self.native_dim;
        let end = start + width as usize * self.native_dim;
        if end > self.data.len() {
            self.data.resize(end, 0.0);
        }
        &mut self.data[start..end]
    }

    /// Borrows `width` consecutive native vectors starting at `index` as one
    /// flat slice (`width * native_dim` elements).
    pub(crate) fn read(&mut self, index: u32, width: u32) -> &[f32] {
        self.touch(index, width)
    }

    /// Writes consecutive native vectors starting at `index` from a flat
    /// slice whose length must be a multiple of `native_dim`.
    pub(crate) fn write(&mut self, index: u32, flat: &[f32]) {
        debug_assert_eq!(flat.len() % self.native_dim.max(1), 0);
        let width = (flat.len() / self.native_dim.max(1)) as u32;
        self.touch(index, width).copy_from_slice(flat);
    }
}

/// The matrix register file: banked across tile engines, one native
/// `N × N` tile per entry, read one row per dot-product engine per cycle.
#[derive(Clone, Debug)]
pub(crate) struct MatrixFile {
    /// `None` was never written: reading it is an error (uninitialized
    /// weights).
    slots: Vec<Option<BfpMatrix>>,
}

impl MatrixFile {
    pub(crate) fn new(capacity: usize) -> Self {
        MatrixFile {
            slots: vec![None; capacity],
        }
    }

    pub(crate) fn tile(&self, index: u32) -> Result<&BfpMatrix, SimError> {
        self.slots[index as usize]
            .as_ref()
            .ok_or(SimError::MrfEntryUninitialized { index })
    }

    /// The `n` tiles from entry `first` on, in order: one row of a tile
    /// grid, every entry of it written.
    pub(crate) fn tiles(
        &self,
        first: u32,
        n: u32,
    ) -> Result<impl Iterator<Item = &BfpMatrix> + Clone, SimError> {
        let slots = &self.slots[first as usize..][..n as usize];
        if let Some(at) = slots.iter().position(Option::is_none) {
            let index = first + at as u32;
            return Err(SimError::MrfEntryUninitialized { index });
        }
        Ok(slots.iter().flatten())
    }

    pub(crate) fn store(&mut self, index: u32, tile: BfpMatrix) {
        self.slots[index as usize] = Some(tile);
    }
}

/// Off-chip DRAM with separate vector and matrix address spaces, each
/// holding only the entries written, so a write costs its width wherever
/// it lands in the 2²²-entry space. Used to stage CNN weights that do not
/// fit the MRF (§V-A) and as a spill target.
#[derive(Clone, Debug, Default)]
pub(crate) struct Dram {
    /// One native vector per written entry; unwritten entries read as
    /// zeros.
    vectors: BTreeMap<u32, Vec<f32>>,
    matrices: BTreeMap<u32, BfpMatrix>,
}

impl Dram {
    /// Appends `width` native vectors starting at `index` to `out`;
    /// unwritten entries read as zeros.
    pub(crate) fn read_vectors_into(
        &self,
        index: u32,
        width: u32,
        native_dim: usize,
        out: &mut Vec<f32>,
    ) {
        for entry in index..index + width {
            match self.vectors.get(&entry) {
                Some(vector) => out.extend_from_slice(vector),
                None => out.resize(out.len() + native_dim, 0.0),
            }
        }
    }

    /// Writes native vectors from a flat slice starting at `index`.
    pub(crate) fn write_vectors(&mut self, index: u32, flat: &[f32], native_dim: usize) {
        for (entry, vector) in (index..).zip(flat.chunks_exact(native_dim)) {
            let stored = self.vectors.entry(entry).or_default();
            stored.clear();
            stored.extend_from_slice(vector);
        }
    }

    pub(crate) fn read_matrix(&self, index: u32) -> Result<BfpMatrix, SimError> {
        self.matrices
            .get(&index)
            .cloned()
            .ok_or(SimError::DramMatrixUninitialized { index })
    }

    pub(crate) fn write_matrix(&mut self, index: u32, tile: BfpMatrix) {
        self.matrices.insert(index, tile);
    }
}

/// A flat FIFO of elements: `data[head..]` is queued.
#[derive(Clone, Debug, Default)]
pub(crate) struct Fifo {
    data: Vec<f32>,
    head: usize,
}

impl Fifo {
    /// Queues `values`, then zeros to `len` elements in all.
    pub(crate) fn push(&mut self, values: &[f32], len: usize) {
        // Drop what has been popped once it is most of the storage, so the
        // storage stays within twice what is queued.
        if self.head > self.data.len() / 2 {
            self.data.drain(..self.head);
            self.head = 0;
        }
        self.data.extend_from_slice(values);
        let end = self.data.len() + len.saturating_sub(values.len());
        self.data.resize(end, 0.0);
    }

    /// Pops `n` elements, appending them to `out`.
    pub(crate) fn pop_into(&mut self, n: usize, out: &mut Vec<f32>) {
        out.extend_from_slice(&self.data[self.head..][..n]);
        self.head += n;
        if self.head == self.data.len() {
            self.head = 0;
            self.data.clear();
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.data.len() - self.head
    }
}

/// The data side of the network input/output queues connecting the NPU to
/// the datacenter network (Figure 3). Arrival stamps and queue depths are
/// the scheduler's ([`crate::sched::Arrivals`]); this holds the payloads:
/// each vector queue one flat FIFO of elements, `native_dim` to a vector,
/// so a warm run pushes and pops without allocating.
#[derive(Clone, Debug, Default)]
pub(crate) struct NetQueues {
    pub(crate) input: Fifo,
    pub(crate) output: Fifo,
    input_matrices: VecDeque<BfpMatrix>,
}

impl NetQueues {
    pub(crate) fn push_input_matrix(&mut self, tile: BfpMatrix) {
        self.input_matrices.push_back(tile);
    }

    pub(crate) fn pop_input_matrix(&mut self) -> BfpMatrix {
        self.input_matrices
            .pop_front()
            .expect("the timeline popped this tile from its arrivals first")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_bfp::{BfpBlock, BfpFormat};

    fn tile(v: f32) -> BfpMatrix {
        BfpMatrix::quantize(2, 2, &[v; 4], BfpFormat::BFP_1S_5E_5M).expect("shape")
    }

    #[test]
    fn vector_file_reads_zeros_before_first_write() {
        let mut f = VectorFile::new(3);
        assert_eq!(f.read(0, 2), &[0.0; 6][..]);
    }

    #[test]
    fn vector_file_holds_only_what_was_touched() {
        let mut f = VectorFile::new(400);
        assert_eq!(f.data.capacity(), 0);
        f.write(2, &[1.0; 400]);
        assert_eq!(f.data.len(), 3 * 400);
        // Entries below and above the written one read as zeros; the read
        // above grows the file.
        assert_eq!(f.read(0, 2), &[0.0; 800][..]);
        assert_eq!(f.read(5, 1), &[0.0; 400][..]);
        assert_eq!(f.data.len(), 6 * 400);
        assert_eq!(f.read(2, 1), &[1.0; 400][..]);
    }

    #[test]
    fn vector_file_round_trips_multi_entry_writes() {
        let mut f = VectorFile::new(2);
        f.write(3, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f.read(3, 2), &[1.0, 2.0, 3.0, 4.0][..]);
        // Neighbours untouched.
        assert_eq!(f.read(2, 1), &[0.0, 0.0][..]);
        assert_eq!(f.read(5, 1), &[0.0, 0.0][..]);
    }

    #[test]
    fn matrix_file_zero_tiles_multiply_to_positive_zero() {
        // What `Npu::reserve_matrix_grid` stores: tiles that hold nothing.
        let fmt = BfpFormat::BFP_1S_5E_5M;
        let mut m = MatrixFile::new(4);
        m.store(0, BfpMatrix::zeros(2, 2, fmt));
        m.store(3, BfpMatrix::zeros(2, 2, fmt));
        for index in [0, 3] {
            let zero = m.tile(index).unwrap();
            assert_eq!(zero, &tile(0.0));
            assert_eq!(zero.host_bytes(), 0);
            let mut acc = [-0.0f32, 1.5];
            let x = BfpBlock::quantize(&[-3.0, 7.0], fmt);
            BfpMatrix::mv_mul_acc_row([(zero, &x)], &mut acc).unwrap();
            assert_eq!(acc.map(f32::to_bits), [0.0f32, 1.5].map(f32::to_bits));
        }
        // A slot never written stays an error.
        assert!(matches!(
            m.tile(1),
            Err(SimError::MrfEntryUninitialized { index: 1 })
        ));
        // A real store overrides the placeholder.
        m.store(0, tile(2.0));
        assert!(m.tile(0).unwrap().dequantize()[0] > 1.0);
    }

    #[test]
    fn dram_grows_on_write_and_reads_zeros_for_vectors() {
        let mut d = Dram::default();
        // Unwritten vector entries read as zeros at the requested width.
        let mut out = Vec::new();
        d.read_vectors_into(100, 1, 4, &mut out);
        assert_eq!(out, vec![0.0; 4]);
        d.write_vectors(7, &[1.0, 2.0], 2);
        out.clear();
        d.read_vectors_into(7, 1, 2, &mut out);
        assert_eq!(out, vec![1.0, 2.0]);
        // A read straddling the written frontier zero-fills the tail.
        out.clear();
        d.read_vectors_into(7, 2, 2, &mut out);
        assert_eq!(out, vec![1.0, 2.0, 0.0, 0.0]);
        // Matrices are strict: uninitialized reads are errors.
        assert!(matches!(
            d.read_matrix(0),
            Err(SimError::DramMatrixUninitialized { index: 0 })
        ));
        d.write_matrix(3, tile(2.0));
        assert!(d.read_matrix(3).is_ok());
    }

    #[test]
    fn dram_stores_only_the_entries_written() {
        // The last entries of the 2²²-entry space: one vector write of
        // width 2 and one matrix hold three entries, not the space below.
        let top = (1u32 << 22) - 2;
        let mut d = Dram::default();
        d.write_vectors(top, &[1.0, 2.0, 3.0, 4.0], 2);
        d.write_matrix(top + 1, tile(2.0));
        assert_eq!((d.vectors.len(), d.matrices.len()), (2, 1));
        // A rewrite replaces the entry in place.
        d.write_vectors(top + 1, &[5.0, 6.0], 2);
        assert_eq!(d.vectors.len(), 2);
        let mut out = Vec::new();
        d.read_vectors_into(top - 1, 3, 2, &mut out);
        assert_eq!(out, vec![0.0, 0.0, 1.0, 2.0, 5.0, 6.0]);
        assert!(d.read_matrix(top + 1).is_ok());
        assert!(matches!(
            d.read_matrix(top),
            Err(SimError::DramMatrixUninitialized { index }) if index == top
        ));
    }

    #[test]
    fn net_queue_input_is_fifo() {
        let mut q = NetQueues::default();
        q.input.push(&[1.0], 1);
        q.input.push(&[2.0, 3.0], 2);
        let mut vs = Vec::new();
        q.input.pop_into(2, &mut vs);
        assert_eq!(vs, vec![1.0, 2.0]);
        q.input.pop_into(1, &mut vs);
        assert_eq!(vs, vec![1.0, 2.0, 3.0]);
        // A short vector is zero-padded to the elements it fills.
        q.input.push(&[4.0, 5.0, 6.0], 4);
        vs.clear();
        q.input.pop_into(4, &mut vs);
        assert_eq!((vs, q.input.len()), (vec![4.0, 5.0, 6.0, 0.0], 0));
    }

    #[test]
    fn net_queue_output_side() {
        let mut q = NetQueues::default();
        q.output.push(&[1.0, 2.0], 2);
        assert_eq!(q.output.len(), 2);
        let mut out = Vec::new();
        q.output.pop_into(1, &mut out);
        assert_eq!(out, vec![1.0]);
        q.output.pop_into(1, &mut out);
        assert_eq!((out, q.output.len()), (vec![1.0, 2.0], 0));
    }

    #[test]
    fn net_queue_matrices() {
        let mut q = NetQueues::default();
        q.push_input_matrix(tile(1.5));
        q.push_input_matrix(tile(-2.0));
        assert_eq!(q.pop_input_matrix(), tile(1.5));
        assert_eq!(q.pop_input_matrix(), tile(-2.0));
        assert!(q.input_matrices.is_empty());
    }
}
