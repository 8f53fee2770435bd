//! End-to-end training tests: the layer zoo must actually learn.

use helios_nn::{models, CrossEntropyLoss, ModelMask, Network, Sgd};
use helios_tensor::{Tensor, TensorRng};

/// Builds a trivially separable 2-class image problem: class 0 images are
/// bright in the left half, class 1 in the right half, plus noise.
fn separable_images(
    n: usize,
    channels: usize,
    side: usize,
    rng: &mut TensorRng,
) -> (Tensor, Vec<usize>) {
    let mut data = vec![0.0f32; n * channels * side * side];
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % 2;
        labels.push(class);
        for c in 0..channels {
            for y in 0..side {
                for x in 0..side {
                    let bright = if class == 0 {
                        x < side / 2
                    } else {
                        x >= side / 2
                    };
                    let base = if bright { 1.0 } else { 0.0 };
                    data[((i * channels + c) * side + y) * side + x] =
                        base + rng.uniform(-0.2, 0.2);
                }
            }
        }
    }
    (
        Tensor::from_vec(data, &[n, channels, side, side]).expect("sized correctly"),
        labels,
    )
}

fn train(net: &mut Network, x: &Tensor, labels: &[usize], epochs: usize, lr: f32) -> (f32, f32) {
    let loss = CrossEntropyLoss::new();
    let mut opt = Sgd::with_momentum(lr, 0.9);
    let mut first = None;
    let mut last = 0.0;
    for _ in 0..epochs {
        net.zero_grad();
        let logits = net.forward(x).expect("forward");
        let (l, grad) = loss.forward_backward(&logits, labels).expect("loss");
        net.backward(&grad).expect("backward");
        opt.step(net).expect("step");
        first.get_or_insert(l);
        last = l;
    }
    (first.unwrap_or(last), last)
}

#[test]
fn lenet_learns_separable_problem() {
    let mut rng = TensorRng::seed_from(100);
    let mut net = models::lenet(2, &mut rng);
    let (x, labels) = separable_images(32, 1, 16, &mut rng);
    let (first, last) = train(&mut net, &x, &labels, 30, 0.05);
    assert!(last < 0.5 * first, "loss should halve: {first} → {last}");
    let acc = net.accuracy(&x, &labels).expect("accuracy");
    assert!(acc > 0.9, "train accuracy {acc} too low");
}

#[test]
fn alexnet_learns_separable_problem() {
    let mut rng = TensorRng::seed_from(101);
    let mut net = models::alexnet(2, &mut rng);
    let (x, labels) = separable_images(32, 3, 16, &mut rng);
    // lr 0.02: with momentum 0.9, 0.05 is unstable for some init draws
    // of `TensorRng`'s ChaCha8 stream.
    let (first, last) = train(&mut net, &x, &labels, 30, 0.02);
    assert!(last < 0.5 * first, "loss should halve: {first} → {last}");
}

#[test]
fn resnet_learns_separable_problem() {
    let mut rng = TensorRng::seed_from(102);
    let mut net = models::resnet18(2, &mut rng);
    let (x, labels) = separable_images(32, 3, 16, &mut rng);
    let (first, last) = train(&mut net, &x, &labels, 40, 0.02);
    assert!(last < 0.7 * first, "loss should drop: {first} → {last}");
}

#[test]
fn half_masked_lenet_still_learns() {
    let mut rng = TensorRng::seed_from(103);
    let mut net = models::lenet(2, &mut rng);
    let units = net.maskable_units();
    let mut mask = ModelMask::all_active(&units);
    for (i, &n) in units.0.iter().enumerate() {
        mask.set_layer(i, Some((0..n).map(|j| j % 2 == 0).collect()));
    }
    net.set_masks(&mask).expect("mask fits");
    let (x, labels) = separable_images(32, 1, 16, &mut rng);
    let (first, last) = train(&mut net, &x, &labels, 30, 0.05);
    assert!(
        last < 0.6 * first,
        "masked net should still learn: {first} → {last}"
    );
}

#[test]
fn masked_training_leaves_masked_params_untouched() {
    let mut rng = TensorRng::seed_from(104);
    let mut net = models::lenet(2, &mut rng);
    let units = net.maskable_units();
    let layout = net.layout();
    let mut mask = ModelMask::all_active(&units);
    // Mask out the second half of dense layer 2 (maskable id 2).
    let dense_units = units.0[2];
    mask.set_layer(
        2,
        Some((0..dense_units).map(|j| j < dense_units / 2).collect()),
    );
    net.set_masks(&mask).expect("mask fits");
    let before = net.param_vector();
    let (x, labels) = separable_images(16, 1, 16, &mut rng);
    let _ = train(&mut net, &x, &labels, 5, 0.1);
    let after = net.param_vector();
    let pm = layout.param_mask(&mask);
    let mut frozen_checked = 0;
    let mut trained_moved = 0;
    for i in 0..before.len() {
        if !pm.get(i) {
            assert_eq!(before[i], after[i], "masked param {i} moved");
            frozen_checked += 1;
        } else if before[i] != after[i] {
            trained_moved += 1;
        }
    }
    assert!(frozen_checked > 0, "test must cover frozen params");
    assert!(trained_moved > 0, "active params must move");
}

#[test]
fn cloned_network_trains_independently() {
    let mut rng = TensorRng::seed_from(105);
    let base = models::lenet(2, &mut rng);
    let mut a = base.clone();
    let mut b = base.clone();
    let (xa, la) = separable_images(16, 1, 16, &mut rng);
    let _ = train(&mut a, &xa, &la, 3, 0.1);
    // b untouched: still identical to base.
    assert_eq!(b.param_vector(), base.param_vector());
    let _ = train(&mut b, &xa, &la, 3, 0.1);
    // Same data and seed-free deterministic training → same result.
    assert_eq!(a.param_vector(), b.param_vector());
}
