//! Execution statistics produced by a simulated run.

/// Cycle-level statistics for one [`Npu::run`].
///
/// [`Npu::run`]: crate::Npu::run
///
/// Utilization here follows the paper's definition (Figure 7): the
/// percentage of peak FLOPS actually achieved. Because padded tiles dispatch
/// real MACs that do no useful model work, *dispatched* utilization can
/// exceed *effective* utilization — call [`RunStats::effective_tflops`] and
/// [`RunStats::effective_utilization`] with the model's true operation count
/// to reproduce the paper's numbers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Total cycles from first dispatch to last writeback.
    pub cycles: u64,
    /// Compound instruction chains executed.
    pub chains: u64,
    /// Compound instructions streamed by the control processor.
    pub instructions: u64,
    /// Multiply-accumulates dispatched by the modeled MVM, padding included;
    /// the host streams each tile's [`live_shape`] only.
    ///
    /// [`live_shape`]: bw_bfp::BfpMatrix::live_shape
    pub mvm_macs: u64,
    /// Point-wise element operations executed by the MFUs.
    pub mfu_element_ops: u64,
    /// Cycles the MVM spent streaming matrix tiles.
    pub mvm_busy_cycles: u64,
    /// Cycles the vector pipeline (MVM head + MFUs) was occupied.
    pub pipeline_busy_cycles: u64,
    /// Summed over chains: each chain's wait on data dependencies beyond
    /// its dispatch and its resource, counted from whichever of those came
    /// later. Chains wait concurrently, so this is not a count of cycles
    /// the pipeline stood still and can exceed [`RunStats::cycles`].
    pub dep_stall_cycles: u64,
    /// Summed over chains: each chain's wait for its resource to drain
    /// beyond its dispatch and its dependencies. In a loop, replay runs
    /// ahead of the chains it dispatches, so every iteration's chains wait
    /// longer than the last and the sum grows with the square of the
    /// iteration count: a long RNN reads many times its `cycles` here.
    pub resource_stall_cycles: u64,
    /// Native vectors consumed from the network input queue.
    pub net_vectors_in: u64,
    /// Native vectors produced to the network output queue.
    pub net_vectors_out: u64,
    /// Peak FLOPs per cycle of the executing configuration.
    pub peak_flops_per_cycle: u64,
    /// Clock frequency of the executing configuration, in hertz.
    pub clock_hz: f64,
}

impl RunStats {
    /// Wall-clock latency of the run in seconds.
    pub fn latency_seconds(&self) -> f64 {
        if self.clock_hz > 0.0 {
            self.cycles as f64 / self.clock_hz
        } else {
            0.0
        }
    }

    /// Wall-clock latency in milliseconds (the unit of Table V).
    pub fn latency_ms(&self) -> f64 {
        self.latency_seconds() * 1e3
    }

    /// Effective throughput in TFLOPS for a model whose true operation
    /// count is `model_ops` (the paper's headline metric).
    pub fn effective_tflops(&self, model_ops: u64) -> f64 {
        let s = self.latency_seconds();
        if s > 0.0 {
            model_ops as f64 / s / 1e12
        } else {
            0.0
        }
    }

    /// Effective utilization: fraction of peak FLOPS achieved on useful
    /// model operations (Figure 7's y-axis, as a fraction of 1).
    pub fn effective_utilization(&self, model_ops: u64) -> f64 {
        let peak = self.peak_flops_per_cycle as f64 * self.cycles as f64;
        if peak > 0.0 {
            model_ops as f64 / peak
        } else {
            0.0
        }
    }

    /// Merges another run's statistics into this one, extending the cycle
    /// count (used when a model executes as several back-to-back programs).
    pub fn accumulate(&mut self, other: &RunStats) {
        for (sum, x) in self.counters_mut().into_iter().zip(other.counters()) {
            *sum += x;
        }
        if self.peak_flops_per_cycle == 0 {
            self.peak_flops_per_cycle = other.peak_flops_per_cycle;
            self.clock_hz = other.clock_hz;
        }
    }

    /// Adds `count` statistics that step evenly from `first` to `last`,
    /// counter by counter: the trapezoid rule, exact for an arithmetic
    /// sequence.
    pub(crate) fn add_arithmetic(&mut self, first: &RunStats, last: &RunStats, count: u64) {
        let ends = first.counters().into_iter().zip(last.counters());
        for (sum, (a, b)) in self.counters_mut().into_iter().zip(ends) {
            let total = (u128::from(a) + u128::from(b)) * u128::from(count) / 2;
            *sum = sum.saturating_add(u64::try_from(total).unwrap_or(u64::MAX));
        }
    }

    /// Every counter, in declaration order: what adds across runs.
    fn counters(&self) -> [u64; 11] {
        [
            self.cycles,
            self.chains,
            self.instructions,
            self.mvm_macs,
            self.mfu_element_ops,
            self.mvm_busy_cycles,
            self.pipeline_busy_cycles,
            self.dep_stall_cycles,
            self.resource_stall_cycles,
            self.net_vectors_in,
            self.net_vectors_out,
        ]
    }

    fn counters_mut(&mut self) -> [&mut u64; 11] {
        [
            &mut self.cycles,
            &mut self.chains,
            &mut self.instructions,
            &mut self.mvm_macs,
            &mut self.mfu_element_ops,
            &mut self.mvm_busy_cycles,
            &mut self.pipeline_busy_cycles,
            &mut self.dep_stall_cycles,
            &mut self.resource_stall_cycles,
            &mut self.net_vectors_in,
            &mut self.net_vectors_out,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunStats {
        RunStats {
            cycles: 1000,
            mvm_macs: 50_000_000,
            peak_flops_per_cycle: 192_000,
            clock_hz: 250e6,
            ..RunStats::default()
        }
    }

    #[test]
    fn latency_conversion() {
        let s = sample();
        assert!((s.latency_seconds() - 4e-6).abs() < 1e-12);
        assert!((s.latency_ms() - 4e-3).abs() < 1e-9);
    }

    #[test]
    fn throughput_and_utilization() {
        let s = sample();
        // Effective with 96M useful ops: 96e6 / (192000*1000) = 0.5.
        assert!((s.effective_utilization(96_000_000) - 0.5).abs() < 1e-12);
        assert!((s.effective_tflops(96_000_000) - 24.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cycles_are_safe() {
        let s = RunStats::default();
        assert_eq!(s.latency_seconds(), 0.0);
        assert_eq!(s.effective_utilization(100), 0.0);
    }

    #[test]
    fn accumulate_extends_cycles() {
        let mut a = sample();
        let b = sample();
        a.accumulate(&b);
        assert_eq!(a.cycles, 2000);
        assert_eq!(a.mvm_macs, 100_000_000);
        assert_eq!(a.peak_flops_per_cycle, 192_000);
    }

    #[test]
    fn an_arithmetic_sequence_sums_by_its_ends() {
        // 3 + 6 + 9 + 12 stalls, and one chain each of the four.
        let first = RunStats {
            chains: 1,
            dep_stall_cycles: 3,
            ..RunStats::default()
        };
        let last = RunStats {
            dep_stall_cycles: 12,
            ..first.clone()
        };
        let mut sum = sample();
        sum.add_arithmetic(&first, &last, 4);
        assert_eq!((sum.chains, sum.dep_stall_cycles), (4, 30));
        assert_eq!((sum.cycles, sum.clock_hz), (1000, 250e6));
    }
}
