//! W is what the kernels do: the analytic cost model (`NetworkCost`)
//! against the kernel flop counter, per layer kind, for LeNet, AlexNet
//! and ResNet-18 under no mask, `probe_mask` 0.25 and 0.5, and one
//! random mask.
//!
//! One training step (forward, loss, backward) runs with the counter
//! on. Each top-level layer's share of it is measured by running a clone
//! of that layer — unit mask, input mask and packed plan as installed —
//! as a one-layer network on the activation it saw; the shares must sum
//! to the whole step, so the attribution misses nothing. The cost side
//! of a top-level layer is the entries the cost walk emits for it.
//!
//! Both sides count a GEMM as 2mnk. Where they differ, the difference is
//! named here and priced from the cost model and the layer shapes, never
//! from the counter, so a wrong kernel count or a wrong cost fails. The
//! only tolerance is f64 rounding of the keep ratios the cost model
//! multiplies.
//!
//! - `grad_input_full_width`: a masked core's input-gradient GEMM keeps
//!   the input axis whole, so it spans every input, kept or not, while
//!   the cost model's `3 × forward` charges the kept inputs only. Priced
//!   as the entry's forward flops with its own input whole: its cost
//!   under a mask that keeps only its own layer's units masked (no mask
//!   at all for the non-maskable projection shortcut and head).
//! - `elementwise_uncounted`: ReLU and the residual join (add + ReLU)
//!   run no counted kernel; the cost model charges them.
//! - `pool_kernel_counts`: pooling runs over every channel (masked ones
//!   hold zeros) and counts one op per window element forward, then one
//!   per output backward (max) or `window + 1` per output both ways
//!   (avg); the cost model charges `3 × forward` at the incoming keep.
//!
//! Layer 0's input gradient is a known extra: nothing reads it, and the
//! cost model charges it. The kernels compute it today too, so it is on
//! both sides; it is measured below as layer 0's backward less its
//! weight-gradient GEMM.

use helios_core::target::probe_mask;
use helios_integration::random_mask;
use helios_nn::models::ModelKind;
use helios_nn::{CrossEntropyLoss, Layer, MaskableUnits, ModelMask, Network, NetworkCost};
use helios_tensor::{kernel_counters, KernelCounters, Tensor, TensorRng};
use std::collections::BTreeMap;

const BATCH: usize = 4;

fn flops_since(before: &KernelCounters) -> f64 {
    kernel_counters().since(before).flops as f64
}

/// A top-level layer's kind: its cost entry's name, `"residual"` for a
/// block (whose entries are its body's, its projection's and its join's).
fn kind(layer: &Layer) -> &'static str {
    match layer {
        Layer::Dense(_) => "dense",
        Layer::Conv2d(_) => "conv2d",
        Layer::Relu(_) => "relu",
        Layer::MaxPool2d(_) => "max_pool2d",
        Layer::AvgPool2d(_) => "avg_pool2d",
        Layer::Flatten(_) => "flatten",
        Layer::Residual(_) => "residual",
        _ => panic!("a layer kind this test does not price"),
    }
}

/// One top-level layer's kernel flops in the training step.
struct Measured {
    forward: f64,
    backward: f64,
    /// Element count of the layer's output.
    outputs: usize,
}

/// Each top-level layer of `net` (masks installed) run alone, in order,
/// forward from `x` and then backward; gradients are all-ones, as the
/// counts depend on shapes only.
fn per_layer_flops(net: &Network, x: &Tensor) -> Vec<Measured> {
    let mut h = x.clone();
    let mut solo = Vec::new();
    let mut out = Vec::new();
    for layer in net.layers() {
        let mut one = Network::new(vec![layer.clone()], &h.dims()[1..]);
        let before = kernel_counters();
        let y = one.forward(&h).expect("forward");
        out.push(Measured {
            forward: flops_since(&before),
            backward: 0.0,
            outputs: y.len(),
        });
        solo.push((one, y.dims().to_vec()));
        h = y;
    }
    for ((one, dims), m) in solo.iter_mut().zip(&mut out).rev() {
        let before = kernel_counters();
        one.backward(&Tensor::full(dims, 1.0)).expect("backward");
        m.backward = flops_since(&before);
    }
    out
}

/// `mask` with every layer but maskable layer `j` unmasked.
fn only_layer(mask: &ModelMask, units: &MaskableUnits, j: usize) -> ModelMask {
    let mut own = ModelMask::all_active(units);
    own.set_layer(
        j,
        Some((0..units.0[j]).map(|u| mask.is_active(j, u)).collect()),
    );
    own
}

/// Per cost entry: its forward flops with its own input whole — what the
/// kernels' input-gradient GEMM of a GEMM entry costs, and what a pool
/// runs over.
fn whole_input_flops(net: &Network, mask: Option<&ModelMask>, cost: &NetworkCost) -> Vec<f64> {
    let units = net.maskable_units();
    let head = cost.layers.iter().rposition(|l| l.name == "dense");
    let mut maskable = 0;
    let mut out = Vec::new();
    for (e, entry) in cost.layers.iter().enumerate() {
        let own = if matches!(entry.name, "conv2d" | "dense") && Some(e) != head {
            maskable += 1;
            mask.map(|m| only_layer(m, &units, maskable - 1))
        } else {
            None
        };
        out.push(NetworkCost::of(net, own.as_ref(), BATCH).layers[e].flops_forward);
    }
    assert_eq!(maskable, units.num_layers(), "every maskable core priced");
    out
}

/// One kind's kernel flops, the cost model's training flops, and the
/// named differences between them.
#[derive(Debug, Default)]
struct Tally {
    kernel: f64,
    cost: f64,
    grad_input_full_width: f64,
    elementwise_uncounted: f64,
    pool_kernel_counts: f64,
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn check(kind_of_model: ModelKind, tag: &str) {
    let mut net = kind_of_model.build(10, &mut TensorRng::seed_from(0));
    let units = net.maskable_units();
    let mask = match tag {
        "k25" => Some(probe_mask(&units, 0.25)),
        "k50" => Some(probe_mask(&units, 0.5)),
        "random" => Some(random_mask(&units)),
        _ => None,
    };
    if let Some(m) = &mask {
        net.set_masks(m).expect("install mask");
    }
    let name = format!("{kind_of_model} {tag}");

    // The training step, whole.
    let mut rng = TensorRng::seed_from(5);
    let mut dims = vec![BATCH];
    dims.extend(kind_of_model.input_dims());
    let n: usize = dims.iter().product();
    let x =
        Tensor::from_vec((0..n).map(|_| rng.uniform(-1.0, 1.0)).collect(), &dims).expect("input");
    let labels: Vec<usize> = (0..BATCH).map(|i| i % 10).collect();
    let before = kernel_counters();
    let logits = net.forward(&x).expect("forward");
    let step_forward = flops_since(&before);
    let before = kernel_counters();
    let (_, grad) = CrossEntropyLoss::new()
        .forward_backward(&logits, &labels)
        .expect("loss");
    net.backward(&grad).expect("backward");
    let step_backward = flops_since(&before);

    // The same step, one top-level layer at a time.
    let measured = per_layer_flops(&net, &x);
    let sum = |f: fn(&Measured) -> f64| measured.iter().map(f).sum::<f64>();
    assert_eq!(sum(|m| m.forward), step_forward, "{name}: forward shares");
    assert_eq!(
        sum(|m| m.backward),
        step_backward,
        "{name}: backward shares"
    );

    // The cost walk's entries per top-level layer.
    let cost = NetworkCost::of(&net, mask.as_ref(), BATCH);
    let whole = whole_input_flops(&net, mask.as_ref(), &cost);
    let layers = net.layers();
    let mut bounds = vec![0];
    for i in 1..=layers.len() {
        let prefix = Network::new(layers[..i].to_vec(), net.input_dims());
        bounds.push(NetworkCost::of(&prefix, mask.as_ref(), BATCH).layers.len());
    }
    assert_eq!(bounds[layers.len()], cost.layers.len());

    // Layer 0's input gradient: on both sides, one forward GEMM's worth.
    let layer0 = &cost.layers[0];
    assert_eq!(layer0.name, "conv2d", "{name}: layer 0");
    let layer0_input_grad = measured[0].backward - measured[0].forward;
    assert!(
        close(layer0_input_grad, whole[0]) && close(whole[0], layer0.flops_forward),
        "{name}: layer 0's input gradient counted {layer0_input_grad}, \
         priced {} (its forward {})",
        whole[0],
        layer0.flops_forward
    );

    let mut tallies: BTreeMap<&str, Tally> = BTreeMap::new();
    for (i, layer) in layers.iter().enumerate() {
        let t = tallies.entry(kind(layer)).or_default();
        t.kernel += measured[i].forward + measured[i].backward;
        let outputs = measured[i].outputs as f64;
        let span = bounds[i]..bounds[i + 1];
        for (entry, &w) in cost.layers[span.clone()].iter().zip(&whole[span]) {
            let f = entry.flops_forward;
            t.cost += 3.0 * f;
            match entry.name {
                "conv2d" | "dense" | "residual_projection" => t.grad_input_full_width += w - f,
                "relu" | "residual_join" => t.elementwise_uncounted -= 3.0 * f,
                "max_pool2d" => t.pool_kernel_counts += w + outputs - 3.0 * f,
                "avg_pool2d" => t.pool_kernel_counts += 2.0 * (w + outputs) - 3.0 * f,
                "flatten" => {}
                other => panic!("{name}: unpriced cost entry {other}"),
            }
        }
    }
    let total: f64 = tallies.values().map(|t| t.cost).sum();
    assert!(
        close(total, cost.flops_training()),
        "{name}: per-kind cost {total} vs flops_training {}",
        cost.flops_training()
    );
    for (k, t) in &tallies {
        let explained =
            t.cost + t.grad_input_full_width + t.elementwise_uncounted + t.pool_kernel_counts;
        assert!(
            close(t.kernel, explained),
            "{name}, {k}: kernels count {} training flops, the cost model charges {} \
             and the named differences explain {} ({t:?})",
            t.kernel,
            t.cost,
            explained - t.cost
        );
    }
}

const MASKS: [&str; 4] = ["none", "k25", "k50", "random"];

#[test]
fn lenet_cost_matches_the_flop_counter_per_layer_kind() {
    MASKS.iter().for_each(|tag| check(ModelKind::LeNet, tag));
}

#[test]
fn alexnet_cost_matches_the_flop_counter_per_layer_kind() {
    MASKS.iter().for_each(|tag| check(ModelKind::AlexNet, tag));
}

/// Fails while the cost walk leaves a residual block at its body's last
/// keep: the next block's first conv and the head read every channel.
#[test]
fn resnet18_cost_matches_the_flop_counter_per_layer_kind() {
    MASKS.iter().for_each(|tag| check(ModelKind::ResNet18, tag));
}
