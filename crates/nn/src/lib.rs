//! Neural-network layers, explicit backpropagation, and neuron-level
//! masking for the Helios federated-learning reproduction.
//!
//! The crate provides everything a simulated edge device needs to train a
//! CNN locally:
//!
//! - a layer zoo ([`Dense`], [`Conv2d`], [`Relu`], [`MaxPool2d`],
//!   [`AvgPool2d`], [`Flatten`], [`Residual`]) composed into a [`Network`];
//! - explicit forward/backward passes (no autodiff tape — each layer caches
//!   what its backward pass needs), and an inference pass
//!   ([`Network::infer`]) that caches nothing;
//! - **neuron masking**: every parameterized layer treats its output units
//!   (dense neurons / conv channels) as the paper's "minimum model parameter
//!   structure" (§V.A) and can exclude any subset from a training cycle,
//!   which is the mechanism behind Helios soft-training;
//! - a flat parameter-vector view with a per-neuron index
//!   ([`NeuronLayout`]) so federated aggregation can operate at neuron
//!   granularity;
//! - an analytic per-layer cost profile ([`LayerCost`], [`NetworkCost`])
//!   feeding the `helios-device` time model;
//! - the scaled model zoo used by every experiment:
//!   [`models::lenet`], [`models::alexnet`], [`models::resnet18`].
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use helios_nn::{models, CrossEntropyLoss, Sgd};
//! use helios_tensor::{Tensor, TensorRng};
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let mut rng = TensorRng::seed_from(0);
//! let mut net = models::lenet(10, &mut rng);
//! let x = Tensor::zeros(&[4, 1, 16, 16]); // batch of 4 blank images
//! let logits = net.forward(&x)?;
//! assert_eq!(logits.dims(), &[4, 10]);
//! let loss = CrossEntropyLoss::new();
//! let (value, grad) = loss.forward_backward(&logits, &[0, 1, 2, 3])?;
//! net.backward(&grad)?;
//! Sgd::with_momentum(0.1, 0.0).step(&mut net)?;
//! assert!(value.is_finite());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Non-test code has no panicking `unwrap`/`expect` shortcut; this keeps
// them out. Tests may still unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cost;
mod error;
mod layer;
mod layers;
mod loss;
pub mod models;
mod network;
mod optim;

pub use cost::{LayerCost, NetworkCost};
pub use error::NnError;
pub use layer::Layer;
pub use layers::{AvgPool2d, Conv2d, Dense, Flatten, MaxPool2d, Relu, Residual};
pub use loss::CrossEntropyLoss;
pub use network::{MaskableUnits, ModelMask, Network, NeuronId, NeuronLayout, ParamGroup};
pub use optim::Sgd;

#[doc(no_inline)]
pub use helios_tensor::{ParallelismConfig, ParallelismGuard};

/// Crate-wide result alias carrying an [`NnError`].
pub(crate) type Result<T> = std::result::Result<T, NnError>;

#[cfg(test)]
mod packed_parity {
    //! Packed-vs-full-width execution parity suite.
    //!
    //! A masked layer runs *packed* (gather the active units, run compact
    //! kernels, scatter back) whenever a plan exists. Its oracle is the
    //! full-width branch the layer takes for unmasked or emptied axes,
    //! forced onto masked layers here by `MaskedCore::force_full_width`:
    //! full-width kernels with masked outputs and gradients zeroed. Packed
    //! execution must be **bitwise identical** — same logits, same loss, same
    //! post-SGD parameters — because the full-width GEMM kernel skips zero
    //! operands term-by-term, so packing removes exactly the terms the
    //! oracle never accumulated, in the same order.

    use crate::layers::MaskedCore;
    use crate::models::ModelKind;
    use crate::{
        models, Conv2d, CrossEntropyLoss, Dense, Flatten, Layer, MaxPool2d, ModelMask, Network,
        Relu, Residual, Sgd,
    };
    use helios_tensor::{
        kernel_counters, uniform_init, ConvSpec, ParallelismConfig, Tensor, TensorRng, UnitMask,
    };
    use proptest::prelude::*;

    /// Runs two SGD-with-momentum training steps and captures every
    /// observable bit: per-step logits, per-step loss, and the final
    /// parameter vector.
    fn train_twice(
        net: &mut Network,
        x: &Tensor,
        labels: &[usize],
    ) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let loss = CrossEntropyLoss::new();
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        let mut logit_bits = Vec::new();
        let mut loss_bits = Vec::new();
        for _ in 0..2 {
            net.zero_grad();
            let logits = net.forward(x).expect("forward");
            let (l, grad) = loss.forward_backward(&logits, labels).expect("loss");
            net.backward(&grad).expect("backward");
            opt.step(net).expect("step");
            logit_bits.extend(logits.as_slice().iter().map(|v| v.to_bits()));
            loss_bits.push(l.to_bits());
        }
        let params = net.param_vector().iter().map(|v| v.to_bits()).collect();
        (logit_bits, loss_bits, params)
    }

    /// Installs `mask` (or clears the masks) and, for the oracle, drops
    /// every plan so each layer runs full-width.
    fn install(net: &mut Network, mask: Option<&ModelMask>, oracle: bool) {
        match mask {
            Some(m) => net.set_masks(m).expect("set masks"),
            None => net.clear_masks(),
        }
        if oracle {
            net.for_each_core_mut(&mut MaskedCore::force_full_width);
        }
    }

    /// First-⌈keep·n⌉-units-active mask over every maskable layer.
    fn leading_units_mask(net: &Network, keep: f64) -> ModelMask {
        let units = net.maskable_units();
        let mut mask = ModelMask::all_active(&units);
        for (i, &n) in units.0.iter().enumerate() {
            let k = ((keep * n as f64).ceil() as usize).clamp(1, n);
            mask.set_layer(i, Some((0..n).map(|j| j < k).collect()));
        }
        mask
    }

    fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
        let _guard = ParallelismConfig::with_threads(n).scoped();
        f()
    }

    fn mlp(in_features: usize, hidden: usize, classes: usize, seed: u64) -> Network {
        let mut rng = TensorRng::seed_from(seed);
        let layers = vec![
            Layer::Dense(Dense::new(in_features, hidden, &mut rng)),
            Layer::Relu(Relu::new()),
            Layer::Dense(Dense::new(hidden, hidden, &mut rng)),
            Layer::Relu(Relu::new()),
            Layer::Dense(Dense::new(hidden, classes, &mut rng).non_maskable()),
        ];
        Network::new(layers, &[in_features])
    }

    fn conv_net(
        channels: usize,
        conv_out: usize,
        hidden: usize,
        classes: usize,
        seed: u64,
    ) -> Network {
        let mut rng = TensorRng::seed_from(seed);
        // 8×8 input → conv(3, pad 1) → pool 2 → flatten: conv_out·4·4.
        let layers = vec![
            Layer::Conv2d(Conv2d::new(
                ConvSpec::new(channels, conv_out, 3, 1, 1),
                &mut rng,
            )),
            Layer::Relu(Relu::new()),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(Dense::new(conv_out * 4 * 4, hidden, &mut rng)),
            Layer::Relu(Relu::new()),
            Layer::Dense(Dense::new(hidden, classes, &mut rng).non_maskable()),
        ];
        Network::new(layers, &[channels, 8, 8])
    }

    /// Asserts packed and oracle runs of `net` agree bit-for-bit, and
    /// returns the (packed, oracle) train-step flop counts.
    fn assert_packed_parity(
        net: &Network,
        mask: &ModelMask,
        x: &Tensor,
        labels: &[usize],
    ) -> (u64, u64) {
        let mut packed = net.clone();
        install(&mut packed, Some(mask), false);
        let before = kernel_counters();
        let got_packed = train_twice(&mut packed, x, labels);
        let packed_flops = kernel_counters().since(&before).flops;

        let mut zeroing = net.clone();
        install(&mut zeroing, Some(mask), true);
        let before = kernel_counters();
        let got_zeroing = train_twice(&mut zeroing, x, labels);
        let zeroing_flops = kernel_counters().since(&before).flops;

        assert_eq!(got_packed.0, got_zeroing.0, "logit bits diverged");
        assert_eq!(got_packed.1, got_zeroing.1, "loss bits diverged");
        assert_eq!(got_packed.2, got_zeroing.2, "parameter bits diverged");
        (packed_flops, zeroing_flops)
    }

    proptest! {
        /// Forward, backward, and two SGD steps of a masked MLP agree
        /// bit-for-bit between packed and full-width execution, for
        /// arbitrary shapes, batch sizes, and masks (including all-true /
        /// all-false layers, which take the full-width branch either way).
        #[test]
        fn dense_parity_over_random_shapes_and_masks(
            in_features in 2usize..16,
            hidden in 3usize..20,
            batch in 1usize..6,
            seed in 0u64..500,
            mask_seed in 0u64..500,
        ) {
            let net = mlp(in_features, hidden, 4, seed);
            let mut mask_rng = TensorRng::seed_from(mask_seed);
            let bits = uniform_init(&[2 * hidden], 0.0, 1.0, &mut mask_rng);
            let layer_mask = |off: usize| -> UnitMask {
                (0..hidden).map(|j| bits.as_slice()[off + j] < 0.6).collect()
            };
            let mask = ModelMask::from_layers(vec![Some(layer_mask(0)), Some(layer_mask(hidden))]);
            let mut rng = TensorRng::seed_from(seed ^ 0x9e37);
            let x = uniform_init(&[batch, in_features], -1.0, 1.0, &mut rng);
            let labels: Vec<usize> = (0..batch).map(|i| i % 4).collect();
            assert_packed_parity(&net, &mask, &x, &labels);
        }

        /// Same bitwise parity over a conv → pool → flatten → dense
        /// pipeline, which additionally exercises channel gather/scatter
        /// and the input-mask propagation across pooling and flatten.
        #[test]
        fn conv_parity_over_random_shapes_and_masks(
            channels in 1usize..4,
            conv_out in 2usize..7,
            hidden in 4usize..14,
            batch in 1usize..4,
            seed in 0u64..500,
            mask_seed in 0u64..500,
        ) {
            let net = conv_net(channels, conv_out, hidden, 3, seed);
            let mut mask_rng = TensorRng::seed_from(mask_seed);
            let bits = uniform_init(&[conv_out + hidden], 0.0, 1.0, &mut mask_rng);
            let conv_mask: UnitMask = (0..conv_out).map(|j| bits.as_slice()[j] < 0.6).collect();
            let dense_mask: UnitMask =
                (0..hidden).map(|j| bits.as_slice()[conv_out + j] < 0.6).collect();
            let mask = ModelMask::from_layers(vec![Some(conv_mask), Some(dense_mask)]);
            let mut rng = TensorRng::seed_from(seed ^ 0x51f3);
            let x = uniform_init(&[batch, channels, 8, 8], -1.0, 1.0, &mut rng);
            let labels: Vec<usize> = (0..batch).map(|i| i % 3).collect();
            assert_packed_parity(&net, &mask, &x, &labels);
        }
    }

    /// Packed execution stays bitwise identical to the serial full-width
    /// baseline at every thread width — the packed kernels partition work
    /// the same way the full-width ones do.
    #[test]
    fn packed_parity_holds_at_every_thread_width() {
        let net = conv_net(3, 6, 12, 3, 77);
        let mask = leading_units_mask(&net, 0.5);
        let mut rng = TensorRng::seed_from(78);
        let x = uniform_init(&[4, 3, 8, 8], -1.0, 1.0, &mut rng);
        let labels = vec![0, 1, 2, 0];

        let mut baseline_net = net.clone();
        install(&mut baseline_net, Some(&mask), true);
        let baseline = with_threads(1, || train_twice(&mut baseline_net, &x, &labels));

        for threads in [1, 2, 4, 8] {
            let mut packed = net.clone();
            install(&mut packed, Some(&mask), false);
            let got = with_threads(threads, || train_twice(&mut packed, &x, &labels));
            assert_eq!(got, baseline, "packed run at {threads} threads diverged");
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Inference is the training forward pass without its caches: for
    /// every zoo model, masked (packed forward against full-width,
    /// zeroing inference) and cleared, `infer` returns `forward`'s logits
    /// bit for bit at every thread width.
    #[test]
    fn infer_is_bitwise_forward_for_every_model_masked_and_cleared() {
        for kind in [ModelKind::LeNet, ModelKind::AlexNet, ModelKind::ResNet18] {
            let mut rng = TensorRng::seed_from(31);
            let net = kind.build(10, &mut rng);
            let [c, h, w] = kind.input_dims();
            let x = uniform_init(&[3, c, h, w], -1.0, 1.0, &mut rng);
            let mask = leading_units_mask(&net, 0.5);
            for masked in [false, true] {
                let mut net = net.clone();
                install(&mut net, masked.then_some(&mask), false);
                let want = bits(&with_threads(1, || net.forward(&x)).expect("forward"));
                for threads in [1, 2, 4, 8] {
                    let got = with_threads(threads, || net.infer(&x)).expect("infer");
                    assert_eq!(
                        bits(&got),
                        want,
                        "{kind} masked={masked} at {threads} threads"
                    );
                }
            }
        }
    }

    /// A backward pass takes what its forward pass kept: after
    /// `Network::backward`, no Dense or Conv2d layer of any zoo model —
    /// masked (packed) or not — holds an input or a patch matrix, and a
    /// second backward is an error.
    #[test]
    fn backward_takes_every_kept_operand() {
        for kind in [ModelKind::LeNet, ModelKind::AlexNet, ModelKind::ResNet18] {
            let mut rng = TensorRng::seed_from(37);
            let net = kind.build(10, &mut rng);
            let [c, h, w] = kind.input_dims();
            let x = uniform_init(&[2, c, h, w], -1.0, 1.0, &mut rng);
            let mask = leading_units_mask(&net, 0.5);
            for masked in [false, true] {
                let mut net = net.clone();
                install(&mut net, masked.then_some(&mask), false);
                let logits = net.forward(&x).expect("forward");
                assert!(net.layers().iter().any(Layer::holds_kept_operand));
                let (_, grad) = CrossEntropyLoss::new()
                    .forward_backward(&logits, &[0, 1])
                    .expect("loss");
                net.backward(&grad).expect("backward");
                let held: Vec<_> = net
                    .layers()
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.holds_kept_operand())
                    .map(|(i, _)| i)
                    .collect();
                assert!(held.is_empty(), "{kind} masked={masked}: layers {held:?}");
                assert!(
                    matches!(
                        net.backward(&grad),
                        Err(crate::NnError::BackwardBeforeForward { .. })
                    ),
                    "{kind} masked={masked}"
                );
            }
        }
    }

    /// The packed plan is derived once per install, not per step.
    /// A network walked through mask A → mask B → cleared → mask A,
    /// training after each, tracks its full-width twin bit for bit at
    /// every stage, so no plan outlives the mask it was derived from.
    #[test]
    fn no_stale_plan_survives_a_reinstall_or_a_clear() {
        let net = conv_net(3, 6, 12, 3, 91);
        let mask_a = leading_units_mask(&net, 0.5);
        let units = net.maskable_units();
        let mask_b = ModelMask::from_layers(
            units
                .0
                .iter()
                .map(|&n| Some((0..n).map(|j| j % 3 != 1).collect()))
                .collect(),
        );
        let mut rng = TensorRng::seed_from(92);
        let x = uniform_init(&[4, 3, 8, 8], -1.0, 1.0, &mut rng);
        let labels = vec![0, 1, 2, 0];

        let mut packed = net.clone();
        let mut zeroing = net;
        for (stage, mask) in [Some(&mask_a), Some(&mask_b), None, Some(&mask_a)]
            .into_iter()
            .enumerate()
        {
            install(&mut packed, mask, false);
            install(&mut zeroing, mask, true);
            assert_eq!(
                train_twice(&mut packed, &x, &labels),
                train_twice(&mut zeroing, &x, &labels),
                "stage {stage} diverged"
            );
        }
    }

    /// Recorded kernel flops are strictly monotone in the keep ratio: the
    /// packed path does proportionally less work, which is the entire
    /// point of sub-model soft-training.
    #[test]
    fn packed_flops_are_monotone_in_keep_ratio() {
        let mut rng = TensorRng::seed_from(5);
        let net = models::lenet(10, &mut rng);
        let x = uniform_init(&[8, 1, 16, 16], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();

        let mut flops = Vec::new();
        let mut zeroing_flops = Vec::new();
        for keep in [0.25, 0.5, 1.0] {
            let mask = leading_units_mask(&net, keep);
            let (packed, zeroing) = assert_packed_parity(&net, &mask, &x, &labels);
            flops.push(packed);
            zeroing_flops.push(zeroing);
        }
        // The counters are this thread's alone, so these are equalities:
        // the oracle runs full width whatever the mask, and a full mask
        // leaves nothing to pack.
        assert_eq!(zeroing_flops, [flops[2]; 3]);
        assert!(
            flops[0] < flops[1] && flops[1] < flops[2],
            "flops must grow with keep ratio: {flops:?}"
        );
        assert!(
            (flops[0] as f64) < 0.4 * flops[2] as f64,
            "keep=0.25 must cost well under 40% of the full model ({} vs {})",
            flops[0],
            flops[2]
        );
    }

    /// Parity through a residual block whose conv body is masked and
    /// whose projection shortcut is not: the stem's mask becomes the
    /// input mask of both the body's first conv and the shortcut, so
    /// both pack their input axis, and the block emits no guarantee to
    /// the dense layer after it.
    #[test]
    fn packed_parity_holds_through_a_projection_residual_block() {
        let mut rng = TensorRng::seed_from(23);
        let net = Network::new(
            vec![
                Layer::Conv2d(Conv2d::new(ConvSpec::new(2, 6, 3, 1, 1), &mut rng)),
                Layer::Relu(Relu::new()),
                Layer::Residual(Residual::with_projection(
                    vec![
                        Layer::Conv2d(Conv2d::new(ConvSpec::new(6, 8, 3, 2, 1), &mut rng)),
                        Layer::Relu(Relu::new()),
                        Layer::Conv2d(Conv2d::new(ConvSpec::new(8, 8, 3, 1, 1), &mut rng)),
                    ],
                    Conv2d::new(ConvSpec::new(6, 8, 1, 2, 0), &mut rng),
                )),
                Layer::Flatten(Flatten::new()),
                Layer::Dense(Dense::new(8 * 4 * 4, 10, &mut rng)),
                Layer::Relu(Relu::new()),
                Layer::Dense(Dense::new(10, 3, &mut rng).non_maskable()),
            ],
            &[2, 8, 8],
        );
        let x = uniform_init(&[3, 2, 8, 8], -1.0, 1.0, &mut rng);
        let labels = vec![0, 1, 2];
        let units = net.maskable_units();
        assert_eq!(units.0, [6, 8, 8, 10], "the shortcut is not maskable");

        let strided = ModelMask::from_layers(
            units
                .0
                .iter()
                .map(|&n| Some((0..n).map(|j| j % 3 != 2).collect()))
                .collect(),
        );
        let stem_only = ModelMask::from_layers(vec![Some((0..6).map(|j| j < 2).collect())]);
        for mask in [
            leading_units_mask(&net, 0.25),
            leading_units_mask(&net, 0.5),
            strided,
            stem_only,
        ] {
            let (packed, zeroing) = assert_packed_parity(&net, &mask, &x, &labels);
            assert!(packed < zeroing, "{packed} packed flops vs {zeroing}");
        }
    }
}
