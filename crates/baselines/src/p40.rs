//! The NVIDIA P40 / TensorRT reference points of Table VI.

/// A measured CNN-serving data point (ResNet-50 featurizer).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CnnServingPoint {
    /// Batch size.
    pub batch: u32,
    /// Throughput in inferences per second.
    pub ips: f64,
    /// Latency per batch in milliseconds.
    pub latency_ms: f64,
}

/// The P40's Table VI batch-1 point: 461 IPS at 2.17 ms with INT8 TensorRT.
pub const P40_BATCH1: CnnServingPoint = CnnServingPoint {
    batch: 1,
    ips: 461.0,
    latency_ms: 2.17,
};

/// The P40's §VII-C batch-16 point: 2,270 IPS at 7 ms per batch.
pub const P40_BATCH16: CnnServingPoint = CnnServingPoint {
    batch: 16,
    ips: 2270.0,
    latency_ms: 7.0,
};

/// The paper's measured BW_CNN_A10 batch-1 point: 559 IPS at 1.8 ms
/// (the target our simulated Arria 10 featurizer is compared against).
pub const BW_CNN_A10_BATCH1: CnnServingPoint = CnnServingPoint {
    batch: 1,
    ips: 559.0,
    latency_ms: 1.8,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch1_throughput_and_latency_are_consistent() {
        // At batch 1 on an unloaded system, IPS ≈ 1/latency.
        let implied = 1000.0 / P40_BATCH1.latency_ms;
        assert!((implied - P40_BATCH1.ips).abs() < 5.0, "{implied}");
        let implied = 1000.0 / BW_CNN_A10_BATCH1.latency_ms;
        assert!((implied - BW_CNN_A10_BATCH1.ips).abs() < 5.0, "{implied}");
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn batching_raises_throughput_and_latency() {
        assert!(P40_BATCH16.ips > 4.0 * P40_BATCH1.ips);
        assert!(P40_BATCH16.latency_ms > 3.0 * P40_BATCH1.latency_ms);
        // Batch-16 IPS is consistent with 16 inferences per 7 ms batch.
        let implied = 16.0 * 1000.0 / P40_BATCH16.latency_ms;
        assert!((implied - P40_BATCH16.ips).abs() < 60.0, "{implied}");
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn bw_wins_batch1_latency_and_throughput() {
        // The Table VI headline: BW beats the P40 at batch 1 on both axes.
        assert!(BW_CNN_A10_BATCH1.ips > P40_BATCH1.ips);
        assert!(BW_CNN_A10_BATCH1.latency_ms < P40_BATCH1.latency_ms);
    }
}
