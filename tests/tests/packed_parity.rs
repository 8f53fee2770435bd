//! Packed-vs-zeroing execution parity suite.
//!
//! Masked layers have two execution strategies: the legacy *zeroing*
//! path (full-width kernels, masked outputs/gradients zeroed) and the
//! *packed* path (gather active units, run compact kernels, scatter
//! back). The packed path must be **bitwise identical** — same logits,
//! same loss, same post-SGD parameters — because the full-width matmul
//! kernel skips zero operands term-by-term, so packing removes exactly
//! the terms the zeroing path never accumulated, in the same order.
//!
//! The strategy is a property of the `Network` value
//! (`Network::set_packed_execution`, default packed), so each test
//! flips it on its own clones.

use helios_integration::{leading_units_mask, with_threads};
use helios_nn::{
    models, Conv2d, CrossEntropyLoss, Dense, Flatten, Layer, MaxPool2d, ModelMask, Network, Relu,
    Sgd,
};
use helios_tensor::{kernel_counters, uniform_init, ConvSpec, Tensor, TensorRng, UnitMask};
use proptest::prelude::*;

/// Runs two SGD-with-momentum training steps and captures every
/// observable bit: per-step logits, per-step loss, and the final
/// parameter vector.
fn train_twice(net: &mut Network, x: &Tensor, labels: &[usize]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
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

fn conv_net(channels: usize, conv_out: usize, hidden: usize, classes: usize, seed: u64) -> Network {
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

/// Asserts packed and zeroing runs of `net` agree bit-for-bit, and
/// returns the (packed, zeroing) train-step flop counts.
fn assert_packed_parity(
    net: &Network,
    mask: &ModelMask,
    x: &Tensor,
    labels: &[usize],
) -> (u64, u64) {
    let mut packed = net.clone();
    packed.set_masks(mask).expect("set masks (packed)");
    let before = kernel_counters();
    let got_packed = train_twice(&mut packed, x, labels);
    let packed_flops = kernel_counters().since(&before).flops;

    let mut zeroing = net.clone();
    zeroing.set_packed_execution(false);
    zeroing.set_masks(mask).expect("set masks (zeroing)");
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
    /// bit-for-bit between packed and zeroing execution, for arbitrary
    /// shapes, batch sizes, and masks (including all-true / all-false
    /// layers, which exercise the legacy fallback).
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

/// Packed execution stays bitwise identical to the serial zeroing
/// baseline at every thread width — the packed kernels partition work
/// the same way the full-width ones do.
#[test]
fn packed_parity_holds_at_every_thread_width() {
    let net = conv_net(3, 6, 12, 3, 77);
    let mut probe = net.clone();
    let mask = leading_units_mask(&mut probe, 0.5);
    let mut rng = TensorRng::seed_from(78);
    let x = uniform_init(&[4, 3, 8, 8], -1.0, 1.0, &mut rng);
    let labels = vec![0, 1, 2, 0];

    let mut baseline_net = net.clone();
    baseline_net.set_packed_execution(false);
    baseline_net.set_masks(&mask).expect("masks");
    let baseline = with_threads(1, || train_twice(&mut baseline_net, &x, &labels));

    for threads in [1, 2, 4, 8] {
        let mut packed = net.clone();
        packed.set_masks(&mask).expect("masks");
        let got = with_threads(threads, || train_twice(&mut packed, &x, &labels));
        assert_eq!(got, baseline, "packed run at {threads} threads diverged");
    }
}

/// The packed plan is derived once per installed mask, not per step. A
/// network walked through mask A → mask B → cleared → mask A, training
/// after each, tracks its zeroing twin bit for bit at every stage, so no
/// plan outlives the mask it was derived from.
#[test]
fn no_stale_plan_survives_a_reinstall_or_a_clear() {
    let net = conv_net(3, 6, 12, 3, 91);
    let mut probe = net.clone();
    let mask_a = leading_units_mask(&mut probe, 0.5);
    let units = probe.maskable_units();
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
    zeroing.set_packed_execution(false);
    for (stage, mask) in [Some(&mask_a), Some(&mask_b), None, Some(&mask_a)]
        .into_iter()
        .enumerate()
    {
        for twin in [&mut packed, &mut zeroing] {
            match mask {
                Some(m) => twin.set_masks(m).expect("masks"),
                None => twin.clear_masks(),
            }
        }
        assert_eq!(
            train_twice(&mut packed, &x, &labels),
            train_twice(&mut zeroing, &x, &labels),
            "stage {stage} diverged"
        );
    }
}

/// Recorded kernel flops are strictly monotone in the keep ratio: the
/// packed path does proportionally less work, which is the entire point
/// of sub-model soft-training.
#[test]
fn packed_flops_are_monotone_in_keep_ratio() {
    let mut rng = TensorRng::seed_from(5);
    let net = models::lenet(10, &mut rng);
    let x = uniform_init(&[8, 1, 16, 16], -1.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();

    let mut flops = Vec::new();
    let mut zeroing_flops = Vec::new();
    for keep in [0.25, 0.5, 1.0] {
        let mask = leading_units_mask(&mut net.clone(), keep);
        let (packed, zeroing) = assert_packed_parity(&net, &mask, &x, &labels);
        flops.push(packed);
        zeroing_flops.push(zeroing);
    }
    // The counters are this thread's alone, so these are equalities: the
    // zeroing reference runs full width whatever the mask, and a full
    // mask leaves nothing to pack.
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
