//! The ResNet-50-based image featurizer of Table VI.
//!
//! The paper's production featurizer is "nearly identical to the originally
//! reported model except for the final dense layer, which is replaced by
//! scenario-specific classifiers ... that run on CPU" — i.e. the
//! convolutional trunk of ResNet-50. This module enumerates that trunk as
//! [`ConvShape`]s (the max-pool and global-average-pool layers move
//! negligible FLOPs and run in the vector pipeline's point-wise units; they
//! are excluded from the matrix-product op count, matching the paper's
//! accounting).

use crate::cnn::ConvShape;

/// One named convolution of the featurizer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResnetLayer {
    /// Layer name, e.g. `"conv3_2b"`.
    pub name: String,
    /// The convolution shape.
    pub shape: ConvShape,
}

fn conv(
    name: impl Into<String>,
    h: usize,
    c_in: usize,
    k: usize,
    c_out: usize,
    stride: usize,
) -> ResnetLayer {
    ResnetLayer {
        name: name.into(),
        shape: ConvShape {
            h,
            w: h,
            c_in,
            k,
            c_out,
            stride,
            pad: k / 2,
        },
    }
}

/// The 53 convolutions of the ResNet-50 featurizer trunk, in execution
/// order: the 7×7 stem plus four stages of bottleneck blocks
/// (3, 4, 6, 3 blocks; each block is 1×1 → 3×3 → 1×1, with a 1×1 projection
/// on each stage's first block).
pub fn resnet50_featurizer() -> Vec<ResnetLayer> {
    let mut layers = vec![conv("conv1", 224, 3, 7, 64, 2)];

    // (stage, input resolution after pool/stride, width, blocks)
    let stages: [(usize, usize, usize, usize); 4] = [
        (2, 56, 64, 3),
        (3, 28, 128, 4),
        (4, 14, 256, 6),
        (5, 7, 512, 3),
    ];

    for (stage, res, width, blocks) in stages {
        let expanded = width * 4;
        for block in 1..=blocks {
            let first = block == 1;
            // Input channels: stage 2 sees 64 from the stem pool; later
            // stages see the previous stage's expanded width.
            let c_in = if first {
                if stage == 2 {
                    64
                } else {
                    width * 2 // previous stage's expansion: (width/2)*4
                }
            } else {
                expanded
            };
            // The 3x3 of each stage's first block (except stage 2) strides.
            let stride = if first && stage != 2 { 2 } else { 1 };
            // The 1x1 reduce runs at the incoming resolution.
            let in_res = if first && stage != 2 { res * 2 } else { res };
            let p = format!("conv{stage}_{block}");
            layers.push(conv(format!("{p}a"), in_res, c_in, 1, width, 1));
            layers.push(conv(format!("{p}b"), in_res, width, 3, width, stride));
            layers.push(conv(format!("{p}c"), res, width, 1, expanded, 1));
            if first {
                layers.push(conv(format!("{p}_proj"), in_res, c_in, 1, expanded, stride));
            }
        }
    }
    layers
}

/// Total true model FLOPs of the featurizer (matrix products only).
pub fn resnet50_ops() -> u64 {
    resnet50_featurizer().iter().map(|l| l.shape.ops()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_count_is_53() {
        // 1 stem + 16 blocks x 3 convs + 4 projections.
        assert_eq!(resnet50_featurizer().len(), 53);
    }

    #[test]
    fn total_ops_near_published_resnet50() {
        // ResNet-50 is ~4.09 GMACs per 224x224 image; at 2 FLOPs per MAC
        // the conv trunk is ~8.2 GFLOPs.
        let ops = resnet50_ops() as f64 / 1e9;
        assert!((7.4..8.6).contains(&ops), "total {ops} GFLOPs");
    }

    #[test]
    fn stem_shape() {
        let stem = &resnet50_featurizer()[0];
        assert_eq!(stem.name, "conv1");
        assert_eq!(stem.shape.h_out(), 112);
        assert_eq!(stem.shape.c_out, 64);
    }

    #[test]
    fn stage_transitions_are_consistent() {
        // Every layer's input channels must match some producer's output.
        let layers = resnet50_featurizer();
        // conv2_1a consumes the stem's 64 channels.
        let c21a = layers.iter().find(|l| l.name == "conv2_1a").unwrap();
        assert_eq!(c21a.shape.c_in, 64);
        // conv3_1a consumes stage 2's 256-channel expansion.
        let c31a = layers.iter().find(|l| l.name == "conv3_1a").unwrap();
        assert_eq!(c31a.shape.c_in, 256);
        assert_eq!(c31a.shape.h, 56);
        // Its 3x3 strides down to 28.
        let c31b = layers.iter().find(|l| l.name == "conv3_1b").unwrap();
        assert_eq!(c31b.shape.h_out(), 28);
        // Final stage ends at 7x7x2048.
        let last = layers.iter().find(|l| l.name == "conv5_3c").unwrap();
        assert_eq!(last.shape.c_out, 2048);
        assert_eq!(last.shape.h_out(), 7);
    }
}
