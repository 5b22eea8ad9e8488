//! Elementary layer shapes and their multiply-accumulate counts.
//!
//! Only convolutions and fully-connected layers are counted, matching the
//! paper's accounting ("the tracker and the other layers in DNN models are
//! relatively negligible", §6.3). All convolutions use "same" padding for
//! odd kernels, the torchvision convention, so a stride-`s` convolution maps
//! a spatial extent `d` to `ceil(d / s)`.

/// The spatial/channel shape of an activation tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Channels.
    pub c: usize,
    /// Height in cells.
    pub h: usize,
    /// Width in cells.
    pub w: usize,
}

impl Shape {
    /// Creates a shape.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        Self { c, h, w }
    }

    /// Number of elements in the tensor.
    pub fn numel(&self) -> usize {
        self.c * self.h * self.w
    }
}

/// Output spatial dimension of a same-padded convolution or pooling layer.
///
/// ```
/// use catdet_nn::conv_out_dim;
/// assert_eq!(conv_out_dim(375, 2), 188);
/// assert_eq!(conv_out_dim(188, 2), 94);
/// assert_eq!(conv_out_dim(94, 1), 94);
/// ```
pub fn conv_out_dim(in_dim: usize, stride: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    in_dim.div_ceil(stride)
}

/// MACs of a 2-D convolution with the given output spatial size.
///
/// `in_ch × out_ch × kernel² × out_h × out_w` — the textbook count; biases
/// and activations are ignored, as in the paper.
pub fn conv2d_macs(in_ch: usize, out_ch: usize, kernel: usize, out_h: usize, out_w: usize) -> f64 {
    in_ch as f64 * out_ch as f64 * (kernel * kernel) as f64 * out_h as f64 * out_w as f64
}

/// MACs of a fully-connected layer.
pub fn linear_macs(inputs: usize, outputs: usize) -> f64 {
    inputs as f64 * outputs as f64
}

/// A layer in a purely sequential network (e.g. the VGG-16 trunk).
///
/// Residual networks have parallel branches and are modelled structurally in
/// [`crate::resnet`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Same-padded 2-D convolution.
    Conv2d {
        /// Output channels.
        out_ch: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Max pooling (no MACs, changes spatial dims).
    MaxPool {
        /// Stride (kernel assumed equal or same-padded).
        stride: usize,
    },
    /// Global average pooling down to 1×1 (no MACs).
    GlobalAvgPool,
    /// Fully-connected layer; flattens its input.
    Linear {
        /// Output features.
        outputs: usize,
    },
}

/// Walks a sequential layer list, returning total MACs and the output shape.
///
/// # Panics
///
/// Panics if a [`Layer::Linear`] output shape is fed into a convolution.
///
/// # Example
///
/// ```
/// use catdet_nn::{sequential_macs, Layer, Shape};
///
/// let layers = [
///     Layer::Conv2d { out_ch: 8, kernel: 3, stride: 1 },
///     Layer::MaxPool { stride: 2 },
///     Layer::GlobalAvgPool,
///     Layer::Linear { outputs: 10 },
/// ];
/// let (macs, out) = sequential_macs(&layers, Shape::new(3, 32, 32));
/// assert_eq!(macs, 3.0 * 8.0 * 9.0 * 32.0 * 32.0 + 8.0 * 10.0);
/// assert_eq!(out, Shape::new(10, 1, 1));
/// ```
pub fn sequential_macs(layers: &[Layer], input: Shape) -> (f64, Shape) {
    let mut shape = input;
    let mut macs = 0.0;
    for layer in layers {
        match *layer {
            Layer::Conv2d {
                out_ch,
                kernel,
                stride,
            } => {
                assert!(
                    shape.h > 0 && shape.w > 0,
                    "convolution applied to a flattened tensor"
                );
                let h = conv_out_dim(shape.h, stride);
                let w = conv_out_dim(shape.w, stride);
                macs += conv2d_macs(shape.c, out_ch, kernel, h, w);
                shape = Shape::new(out_ch, h, w);
            }
            Layer::MaxPool { stride } => {
                shape = Shape::new(
                    shape.c,
                    conv_out_dim(shape.h, stride),
                    conv_out_dim(shape.w, stride),
                );
            }
            Layer::GlobalAvgPool => {
                shape = Shape::new(shape.c, 1, 1);
            }
            Layer::Linear { outputs } => {
                let inputs = shape.numel();
                macs += linear_macs(inputs, outputs);
                shape = Shape::new(outputs, 1, 1);
            }
        }
    }
    (macs, shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn out_dim_matches_torch_same_padding() {
        // PyTorch: floor((d + 2p - k)/s) + 1 with p = k/2 for odd k.
        // For k=7,p=3,s=2 and d=375: floor(374/2)+1 = 188.
        assert_eq!(conv_out_dim(375, 2), 188);
        assert_eq!(conv_out_dim(1242, 2), 621);
        assert_eq!(conv_out_dim(621, 2), 311);
        assert_eq!(conv_out_dim(188, 2), 94);
        assert_eq!(conv_out_dim(100, 1), 100);
    }

    #[test]
    fn conv_macs_textbook_value() {
        // 3x3 conv, 64->128 at 10x10 output.
        assert_eq!(conv2d_macs(64, 128, 3, 10, 10), 64.0 * 128.0 * 9.0 * 100.0);
    }

    #[test]
    fn linear_macs_is_product() {
        assert_eq!(linear_macs(25088, 4096), 25088.0 * 4096.0);
    }

    #[test]
    fn sequential_tracks_shapes() {
        let layers = [
            Layer::Conv2d {
                out_ch: 64,
                kernel: 7,
                stride: 2,
            },
            Layer::MaxPool { stride: 2 },
            Layer::Conv2d {
                out_ch: 128,
                kernel: 3,
                stride: 2,
            },
        ];
        let (_, out) = sequential_macs(&layers, Shape::new(3, 375, 1242));
        assert_eq!(out, Shape::new(128, 47, 156));
    }

    #[test]
    fn pooling_and_gap_cost_nothing() {
        let layers = [Layer::MaxPool { stride: 2 }, Layer::GlobalAvgPool];
        let (macs, out) = sequential_macs(&layers, Shape::new(16, 32, 32));
        assert_eq!(macs, 0.0);
        assert_eq!(out, Shape::new(16, 1, 1));
    }

    #[test]
    fn linear_flattens() {
        let layers = [Layer::Linear { outputs: 10 }];
        let (macs, out) = sequential_macs(&layers, Shape::new(512, 7, 7));
        assert_eq!(macs, 512.0 * 49.0 * 10.0);
        assert_eq!(out, Shape::new(10, 1, 1));
    }

    #[test]
    #[should_panic(expected = "flattened")]
    fn conv_on_degenerate_shape_panics() {
        let layers = [Layer::Conv2d {
            out_ch: 4,
            kernel: 3,
            stride: 1,
        }];
        let _ = sequential_macs(&layers, Shape::new(3, 0, 0));
    }

    proptest! {
        #[test]
        fn prop_out_dim_bounds(d in 1usize..4096, s in 1usize..8) {
            let o = conv_out_dim(d, s);
            prop_assert!(o >= 1);
            prop_assert!(o * s >= d);
            prop_assert!((o - 1) * s < d);
        }

        #[test]
        fn prop_macs_monotone_in_channels(
            c1 in 1usize..64, c2 in 1usize..64, k in 1usize..5_usize,
        ) {
            let base = conv2d_macs(c1, c2, k, 8, 8);
            prop_assert!(conv2d_macs(c1 + 1, c2, k, 8, 8) > base);
            prop_assert!(conv2d_macs(c1, c2 + 1, k, 8, 8) > base);
        }

        #[test]
        fn prop_sequential_additive(
            ch in proptest::collection::vec(1usize..32, 1..6),
        ) {
            // Total of the whole list equals the sum over prefix splits.
            let layers: Vec<Layer> = ch
                .iter()
                .map(|&c| Layer::Conv2d { out_ch: c, kernel: 3, stride: 1 })
                .collect();
            let input = Shape::new(3, 16, 16);
            let (total, _) = sequential_macs(&layers, input);
            for split in 0..layers.len() {
                let (a, mid) = sequential_macs(&layers[..split], input);
                let (b, _) = sequential_macs(&layers[split..], mid);
                prop_assert!((total - (a + b)).abs() < 1e-6);
            }
        }
    }
}
