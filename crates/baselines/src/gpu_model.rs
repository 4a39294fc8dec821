//! An analytic GPU batch-scaling model for the Figure 8 experiments.
//!
//! At batch 1 an RNN time step on a GPU is memory-bound: every weight is
//! read once per step and amortized over a single sample. Batching
//! amortizes the weight traffic over `b` samples, so utilization grows
//! roughly linearly with batch until the kernel becomes compute-bound at
//! the device's large-GEMM efficiency. The model is anchored at the
//! *measured* batch-1 point from the Table V dataset, so it reproduces the
//! paper's published numbers exactly at batch 1 and extrapolates the
//! scaling shape the paper describes ("GPU utilization increases
//! proportionally as batch size increases"; "at batch size of 4, the Titan
//! Xp remains at under 13% utilization").

use bw_models::RnnBenchmark;

use crate::titan_xp::TitanXpPoint;

/// Batch-scaling model for one RNN benchmark on one GPU.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuBatchModel {
    /// Device peak TFLOPS.
    pub peak_tflops: f64,
    /// Measured batch-1 time per RNN step, in seconds (the memory-bound
    /// floor).
    pub batch1_step_seconds: f64,
    /// True model FLOPs per step per sample.
    pub ops_per_step: u64,
    /// Fraction of peak achievable on large compute-bound GEMMs of this
    /// hidden size.
    pub compute_efficiency: f64,
}

/// Large-GEMM efficiency as a function of hidden dimension: even
/// compute-bound kernels leave peak unreachable for small matrices.
pub(crate) fn compute_efficiency(hidden: usize) -> f64 {
    0.6 * hidden as f64 / (hidden as f64 + 1024.0)
}

impl GpuBatchModel {
    /// Anchors a model at a measured batch-1 dataset point.
    pub fn from_point(point: &TitanXpPoint, peak_tflops: f64) -> Self {
        let bench = RnnBenchmark::new(point.kind, point.hidden, point.timesteps);
        GpuBatchModel {
            peak_tflops,
            batch1_step_seconds: point.latency_ms * 1e-3 / f64::from(point.timesteps),
            ops_per_step: bench.ops_per_step(),
            compute_efficiency: compute_efficiency(point.hidden),
        }
    }

    /// Time for one RNN step at batch `b`: the memory-bound floor until the
    /// batched GEMM becomes compute-bound.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub(crate) fn step_seconds(&self, batch: u32) -> f64 {
        assert!(batch > 0, "batch must be positive");
        let compute = f64::from(batch) * self.ops_per_step as f64
            / (self.peak_tflops * 1e12 * self.compute_efficiency);
        self.batch1_step_seconds.max(compute)
    }

    /// Latency of a full inference (all time steps) at batch `b`, seconds.
    pub fn latency_seconds(&self, batch: u32, timesteps: u32) -> f64 {
        self.step_seconds(batch) * f64::from(timesteps)
    }

    /// Device utilization at batch `b`: achieved FLOPS over peak, as a
    /// fraction of 1.
    pub fn utilization(&self, batch: u32) -> f64 {
        let achieved = f64::from(batch) * self.ops_per_step as f64 / self.step_seconds(batch);
        achieved / (self.peak_tflops * 1e12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::titan_xp::{table5_titan_xp, TITAN_XP};

    #[test]
    fn batch1_reproduces_dataset_points() {
        for p in table5_titan_xp() {
            let m = GpuBatchModel::from_point(&p, TITAN_XP.peak_tflops);
            let util = m.utilization(1) * 100.0;
            assert!(
                (util - p.utilization_pct).abs() < 0.35,
                "h={}: {util:.2}% vs {}%",
                p.hidden,
                p.utilization_pct
            );
            let lat = m.latency_seconds(1, p.timesteps) * 1e3;
            assert!((lat - p.latency_ms).abs() < 1e-9, "h={}", p.hidden);
        }
    }

    #[test]
    fn utilization_grows_linearly_then_saturates() {
        let p = table5_titan_xp()[0]; // GRU 2816
        let m = GpuBatchModel::from_point(&p, TITAN_XP.peak_tflops);
        let u1 = m.utilization(1);
        let u2 = m.utilization(2);
        let u4 = m.utilization(4);
        assert!((u2 / u1 - 2.0).abs() < 0.05, "u2/u1 = {}", u2 / u1);
        assert!((u4 / u1 - 4.0).abs() < 0.05);
        // §VII-B3: at batch 4 the Titan Xp stays around or under 13%
        // (the dataset's 3.3% batch-1 point is rounded, so 4x lands at
        // 13.2%).
        assert!(u4 < 0.135, "batch-4 utilization {u4}");
        // Saturation: utilization never exceeds the compute efficiency.
        let u256 = m.utilization(256);
        assert!(u256 <= m.compute_efficiency + 1e-9);
        assert!(m.utilization(32) > u4);
    }

    #[test]
    fn batched_latency_grows_once_compute_bound() {
        let p = table5_titan_xp()[0];
        let m = GpuBatchModel::from_point(&p, TITAN_XP.peak_tflops);
        // Until the crossover, latency is flat in batch.
        assert_eq!(m.latency_seconds(1, 750), m.latency_seconds(2, 750));
        // Far past the crossover it grows linearly.
        let l64 = m.latency_seconds(64, 750);
        let l128 = m.latency_seconds(128, 750);
        assert!((l128 / l64 - 2.0).abs() < 0.2);
    }

    #[test]
    fn small_models_have_low_compute_efficiency() {
        assert!(compute_efficiency(256) < 0.15);
        assert!(compute_efficiency(2816) > 0.4);
        assert!(compute_efficiency(100_000) < 0.6);
    }
}
