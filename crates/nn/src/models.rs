//! The model zoo: scaled-down but structurally faithful versions of the
//! three CNN families the Helios paper evaluates (§VII.A).
//!
//! | Paper model | Here | Input | Notes |
//! |---|---|---|---|
//! | LeNet on MNIST | [`lenet`] | `[1, 16, 16]` | 2 conv + 2 fc |
//! | AlexNet on CIFAR-10 | [`alexnet`] | `[3, 16, 16]` | 3 conv + 2 fc |
//! | ResNet-18 on CIFAR-100 | [`resnet18`] | `[3, 16, 16]` | stem + 4 residual blocks |
//!
//! The scaling preserves what the experiments depend on: the *family*
//! differences (shallow vs deep vs residual), distinct per-layer neuron
//! counts for the volume planner, and enough capacity to separate the
//! synthetic datasets. Absolute parameter counts are reduced so a full
//! figure sweep runs on one machine.

use crate::layer::Layer;
use crate::layers::{AvgPool2d, Conv2d, Dense, Flatten, MaxPool2d, Relu, Residual};
use crate::Network;
use helios_tensor::{ConvSpec, TensorRng};
use serde::{Deserialize, Serialize};

/// Selector for the three experiment architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// LeNet-style: 2 conv + 2 fc on `[1, 16, 16]` inputs.
    LeNet,
    /// AlexNet-style: 3 conv + 2 fc on `[3, 16, 16]` inputs.
    AlexNet,
    /// ResNet-18-style: residual stages on `[3, 16, 16]` inputs.
    ResNet18,
}

impl ModelKind {
    /// Builds the selected architecture.
    pub fn build(self, num_classes: usize, rng: &mut TensorRng) -> Network {
        match self {
            ModelKind::LeNet => lenet(num_classes, rng),
            ModelKind::AlexNet => alexnet(num_classes, rng),
            ModelKind::ResNet18 => resnet18(num_classes, rng),
        }
    }

    /// Per-sample input dimensions of the architecture.
    pub fn input_dims(self) -> [usize; 3] {
        match self {
            ModelKind::LeNet => [1, 16, 16],
            ModelKind::AlexNet | ModelKind::ResNet18 => [3, 16, 16],
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ModelKind::LeNet => "lenet",
            ModelKind::AlexNet => "alexnet",
            ModelKind::ResNet18 => "resnet18",
        };
        f.write_str(s)
    }
}

/// LeNet-style network: `conv(1→8) → pool → conv(8→16) → pool →
/// fc(256→64) → fc(64→classes)`.
///
/// # Example
///
/// ```
/// use helios_nn::models;
/// use helios_tensor::TensorRng;
///
/// let net = models::lenet(10, &mut TensorRng::seed_from(0));
/// assert_eq!(net.input_dims(), &[1, 16, 16]);
/// ```
pub fn lenet(num_classes: usize, rng: &mut TensorRng) -> Network {
    Network::new(
        vec![
            Layer::Conv2d(Conv2d::new(ConvSpec::new(1, 8, 3, 1, 1), rng)),
            Layer::Relu(Relu::new()),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Conv2d(Conv2d::new(ConvSpec::new(8, 16, 3, 1, 1), rng)),
            Layer::Relu(Relu::new()),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(Dense::new(16 * 4 * 4, 64, rng)),
            Layer::Relu(Relu::new()),
            Layer::Dense(Dense::new(64, num_classes, rng).non_maskable()),
        ],
        &[1, 16, 16],
    )
}

/// AlexNet-style network: three conv stages and a wide classifier,
/// mirroring AlexNet's deeper-conv/denser-head profile at reduced scale.
pub fn alexnet(num_classes: usize, rng: &mut TensorRng) -> Network {
    Network::new(
        vec![
            Layer::Conv2d(Conv2d::new(ConvSpec::new(3, 16, 3, 1, 1), rng)),
            Layer::Relu(Relu::new()),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Conv2d(Conv2d::new(ConvSpec::new(16, 32, 3, 1, 1), rng)),
            Layer::Relu(Relu::new()),
            Layer::Conv2d(Conv2d::new(ConvSpec::new(32, 32, 3, 1, 1), rng)),
            Layer::Relu(Relu::new()),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(Dense::new(32 * 4 * 4, 128, rng)),
            Layer::Relu(Relu::new()),
            Layer::Dense(Dense::new(128, num_classes, rng).non_maskable()),
        ],
        &[3, 16, 16],
    )
}

fn basic_block(channels: usize, rng: &mut TensorRng) -> Residual {
    Residual::new(vec![
        Layer::Conv2d(Conv2d::new(ConvSpec::new(channels, channels, 3, 1, 1), rng)),
        Layer::Relu(Relu::new()),
        Layer::Conv2d(Conv2d::new(ConvSpec::new(channels, channels, 3, 1, 1), rng)),
    ])
}

fn downsample_block(in_ch: usize, out_ch: usize, rng: &mut TensorRng) -> Residual {
    Residual::with_projection(
        vec![
            Layer::Conv2d(Conv2d::new(ConvSpec::new(in_ch, out_ch, 3, 2, 1), rng)),
            Layer::Relu(Relu::new()),
            Layer::Conv2d(Conv2d::new(ConvSpec::new(out_ch, out_ch, 3, 1, 1), rng)),
        ],
        Conv2d::new(ConvSpec::new(in_ch, out_ch, 1, 2, 0), rng).non_maskable(),
    )
}

/// ResNet-18-style network: stem convolution, two identity blocks at 16
/// channels, a stride-2 downsampling block to 32 channels, one identity
/// block at 32 channels, global average pooling, and a linear head.
pub fn resnet18(num_classes: usize, rng: &mut TensorRng) -> Network {
    Network::new(
        vec![
            Layer::Conv2d(Conv2d::new(ConvSpec::new(3, 16, 3, 1, 1), rng)),
            Layer::Relu(Relu::new()),
            Layer::Residual(basic_block(16, rng)),
            Layer::Residual(basic_block(16, rng)),
            Layer::Residual(downsample_block(16, 32, rng)),
            Layer::Residual(basic_block(32, rng)),
            Layer::AvgPool2d(AvgPool2d::new(8, 8)),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(Dense::new(32, num_classes, rng).non_maskable()),
        ],
        &[3, 16, 16],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_tensor::Tensor;

    fn rng() -> TensorRng {
        TensorRng::seed_from(42)
    }

    #[test]
    fn lenet_shapes() {
        let mut net = lenet(10, &mut rng());
        let y = net.forward(&Tensor::full(&[2, 1, 16, 16], 1.0)).unwrap();
        assert_eq!(y.dims(), &[2, 10]);
        let units = net.maskable_units();
        assert_eq!(units.0, vec![8, 16, 64]);
    }

    #[test]
    fn alexnet_shapes() {
        let mut net = alexnet(10, &mut rng());
        let y = net.forward(&Tensor::full(&[2, 3, 16, 16], 1.0)).unwrap();
        assert_eq!(y.dims(), &[2, 10]);
        let units = net.maskable_units();
        assert_eq!(units.0, vec![16, 32, 32, 128]);
    }

    #[test]
    fn resnet18_shapes_and_backward() {
        let mut net = resnet18(100, &mut rng());
        let y = net.forward(&Tensor::full(&[2, 3, 16, 16], 1.0)).unwrap();
        assert_eq!(y.dims(), &[2, 100]);
        // Backward must flow through residual blocks without error.
        net.backward(&Tensor::full(&[2, 100], 1.0)).unwrap();
        // 1 stem + 2*4 body convs are maskable; projection + head are not.
        let units = net.maskable_units();
        assert_eq!(units.0, vec![16, 16, 16, 16, 16, 32, 32, 32, 32]);
    }

    #[test]
    fn model_kind_builds_matching_network() {
        for kind in [ModelKind::LeNet, ModelKind::AlexNet, ModelKind::ResNet18] {
            let net = kind.build(10, &mut rng());
            let dims = kind.input_dims();
            assert_eq!(net.input_dims(), &dims);
        }
    }

    #[test]
    fn architectures_have_distinct_sizes() {
        let l = lenet(10, &mut rng()).param_len();
        let a = alexnet(10, &mut rng()).param_len();
        let r = resnet18(100, &mut rng()).param_len();
        assert!(l < a, "lenet {l} should be smaller than alexnet {a}");
        assert!(r > 10_000, "resnet should be a substantial model, got {r}");
    }

    #[test]
    fn masked_lenet_still_trains_end_to_end() {
        use crate::{CrossEntropyLoss, ModelMask, Sgd};
        let mut net = lenet(4, &mut rng());
        let units = net.maskable_units();
        let mut mask = ModelMask::all_active(&units);
        // Drop half of each hidden layer.
        for (i, &n) in units.0.iter().enumerate() {
            mask.set_layer(i, Some((0..n).map(|j| j % 2 == 0).collect()));
        }
        net.set_masks(&mask).unwrap();
        let x = helios_tensor::uniform_init(&[8, 1, 16, 16], 0.0, 1.0, &mut rng());
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        let loss = CrossEntropyLoss::new();
        let mut opt = Sgd::new(0.1);
        let logits = net.forward(&x).unwrap();
        let (l0, grad) = loss.forward_backward(&logits, &labels).unwrap();
        net.backward(&grad).unwrap();
        opt.step(&mut net).unwrap();
        net.zero_grad();
        let logits = net.forward(&x).unwrap();
        let (l1, _) = loss.forward_backward(&logits, &labels).unwrap();
        assert!(l1 < l0, "masked training should reduce loss: {l0} → {l1}");
    }
}
