//! Analytic per-layer training cost: FLOPs and memory.
//!
//! The Helios paper sizes straggler sub-models with an analytic resource
//! model (`Te = W/C_cpu + M/V_mc + M/B_n`, §IV.B) rather than measuring
//! real hardware. This module produces the `W` (computation workload) and
//! `M` (memory usage) inputs to that formula for an architecture under a
//! [`ModelMask`] it need not have installed: a masked-out neuron
//! contributes neither FLOPs nor activation traffic, which is exactly how
//! soft-training accelerates a straggler.

use crate::layer::Layer;
use crate::layers::MaskedCore;
use crate::{ModelMask, Network};
use helios_tensor::UnitMask;
use serde::Serialize;

/// Cost contribution of a single layer.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LayerCost {
    /// Layer kind label (`"dense"`, `"conv2d"`, …).
    pub name: &'static str,
    /// Forward-pass floating point operations for the whole batch.
    pub flops_forward: f64,
    /// Bytes of parameters that participate in training.
    pub param_bytes: f64,
    /// Bytes of output activations for the whole batch.
    pub activation_bytes: f64,
}

/// Aggregate cost profile of a network under a unit mask.
///
/// # Example
///
/// ```
/// use helios_nn::{models, ModelMask, NetworkCost};
/// use helios_tensor::TensorRng;
///
/// let net = models::lenet(10, &mut TensorRng::seed_from(0));
/// let cost = NetworkCost::of(&net, None, 32);
/// assert!(cost.flops_training() > 0.0);
/// let mut half = ModelMask::all_active(&net.maskable_units());
/// half.set_layer(0, Some((0..8).map(|j| j < 4).collect()));
/// assert!(NetworkCost::of(&net, Some(&half), 32).memory_bytes() < cost.memory_bytes());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NetworkCost {
    /// Per-layer breakdown in forward order.
    pub layers: Vec<LayerCost>,
}

const BYTES_PER_PARAM: f64 = 4.0;

/// Standard estimate: backward costs about twice the forward pass, so a
/// full training step is 3× forward FLOPs.
const TRAIN_FLOPS_FACTOR: f64 = 3.0;

impl NetworkCost {
    /// Computes the cost profile of `net`'s architecture for one
    /// mini-batch of `batch` samples under `mask` (`None`: all active),
    /// ignoring the masks installed on `net`. Each layer of `mask` must
    /// fit its layer's units, as [`Network::set_masks`] requires.
    pub fn of(net: &Network, mask: Option<&ModelMask>, batch: usize) -> Self {
        let mut layers = Vec::new();
        let mut shape = net.input_dims().to_vec();
        let mut keep = 1.0f64;
        let masks = &mut (0..).map(|i| mask.and_then(|m| m.layer(i)));
        for layer in net.layers() {
            walk(layer, masks, &mut shape, &mut keep, batch, &mut layers);
        }
        NetworkCost { layers }
    }

    /// Total forward FLOPs per batch.
    pub(crate) fn flops_forward(&self) -> f64 {
        self.layers.iter().map(|l| l.flops_forward).sum()
    }

    /// Total training (forward + backward) FLOPs per batch.
    pub fn flops_training(&self) -> f64 {
        self.flops_forward() * TRAIN_FLOPS_FACTOR
    }

    /// Active parameter bytes.
    pub fn param_bytes(&self) -> f64 {
        self.layers.iter().map(|l| l.param_bytes).sum()
    }

    /// Activation bytes for the whole batch.
    pub(crate) fn activation_bytes(&self) -> f64 {
        self.layers.iter().map(|l| l.activation_bytes).sum()
    }

    /// Training memory footprint: parameters + gradients + activations.
    pub fn memory_bytes(&self) -> f64 {
        2.0 * self.param_bytes() + self.activation_bytes()
    }
}

/// Keep ratio of a maskable core under the next of the costed mask's
/// layers (`None`: all units active); 1 for a head.
fn keep_of(core: &MaskedCore, masks: &mut dyn Iterator<Item = Option<&UnitMask>>) -> f64 {
    if !core.is_maskable() {
        return 1.0;
    }
    let mask = masks.next().flatten();
    debug_assert!(
        mask.is_none_or(|m| m.len() == core.units()),
        "mask layer of the wrong width"
    );
    mask.map_or(1.0, |m| m.count_ones() as f64 / core.units().max(1) as f64)
}

fn walk(
    layer: &Layer,
    masks: &mut dyn Iterator<Item = Option<&UnitMask>>,
    shape: &mut Vec<usize>,
    in_keep: &mut f64,
    batch: usize,
    out: &mut Vec<LayerCost>,
) {
    let b = batch as f64;
    match layer {
        Layer::Dense(d) => {
            let (inf, outf) = (d.in_features() as f64, d.out_features() as f64);
            let out_keep = keep_of(&d.core, masks);
            out.push(LayerCost {
                name: "dense",
                flops_forward: 2.0 * inf * outf * *in_keep * out_keep * b,
                param_bytes: (inf * outf * *in_keep * out_keep + outf * out_keep) * BYTES_PER_PARAM,
                activation_bytes: outf * out_keep * b * BYTES_PER_PARAM,
            });
            *shape = vec![d.out_features()];
            *in_keep = out_keep;
        }
        Layer::Conv2d(c) => {
            let spec = c.spec();
            let (h, w) = (shape[1], shape[2]);
            let (oh, ow) = spec.output_hw(h, w);
            let patch = (spec.in_channels * spec.kernel * spec.kernel) as f64;
            let o = spec.out_channels as f64;
            let out_keep = keep_of(&c.core, masks);
            out.push(LayerCost {
                name: "conv2d",
                flops_forward: 2.0 * patch * o * (oh * ow) as f64 * *in_keep * out_keep * b,
                param_bytes: (patch * o * *in_keep * out_keep + o * out_keep) * BYTES_PER_PARAM,
                activation_bytes: o * out_keep * (oh * ow) as f64 * b * BYTES_PER_PARAM,
            });
            *shape = vec![spec.out_channels, oh, ow];
            *in_keep = out_keep;
        }
        Layer::Relu(_) => {
            let elems: f64 = shape.iter().product::<usize>() as f64 * *in_keep * b;
            out.push(LayerCost {
                name: "relu",
                flops_forward: elems,
                param_bytes: 0.0,
                activation_bytes: elems * BYTES_PER_PARAM,
            });
        }
        Layer::MaxPool2d(p) => {
            let spec = p.spec();
            let (c, h, w) = (shape[0], shape[1], shape[2]);
            let (oh, ow) = spec.output_hw(h, w);
            let window = (spec.kernel * spec.kernel) as f64;
            let outputs = (c * oh * ow) as f64 * *in_keep * b;
            out.push(LayerCost {
                name: "max_pool2d",
                flops_forward: outputs * window,
                param_bytes: 0.0,
                activation_bytes: outputs * BYTES_PER_PARAM,
            });
            *shape = vec![c, oh, ow];
        }
        Layer::AvgPool2d(p) => {
            let spec = p.spec();
            let (c, h, w) = (shape[0], shape[1], shape[2]);
            let (oh, ow) = spec.output_hw(h, w);
            let window = (spec.kernel * spec.kernel) as f64;
            let outputs = (c * oh * ow) as f64 * *in_keep * b;
            out.push(LayerCost {
                name: "avg_pool2d",
                flops_forward: outputs * window,
                param_bytes: 0.0,
                activation_bytes: outputs * BYTES_PER_PARAM,
            });
            *shape = vec![c, oh, ow];
        }
        Layer::Flatten(_) => {
            let n: usize = shape.iter().product();
            out.push(LayerCost {
                name: "flatten",
                flops_forward: 0.0,
                param_bytes: 0.0,
                activation_bytes: 0.0,
            });
            *shape = vec![n];
        }
        Layer::Residual(r) => {
            let entry_shape = shape.clone();
            let entry_keep = *in_keep;
            for inner in r.body() {
                walk(inner, masks, shape, in_keep, batch, out);
            }
            if let Some(proj) = r.shortcut() {
                // Cost the projection with the block's entry state.
                let spec = proj.spec();
                let (h, w) = (entry_shape[1], entry_shape[2]);
                let (oh, ow) = spec.output_hw(h, w);
                let patch = (spec.in_channels * spec.kernel * spec.kernel) as f64;
                let o = spec.out_channels as f64;
                out.push(LayerCost {
                    name: "residual_projection",
                    flops_forward: 2.0 * patch * o * (oh * ow) as f64 * entry_keep * b,
                    param_bytes: (patch * o * entry_keep + o) * BYTES_PER_PARAM,
                    activation_bytes: o * (oh * ow) as f64 * b * BYTES_PER_PARAM,
                });
            }
            // The elementwise sum + ReLU of the block output.
            let elems: f64 = shape.iter().product::<usize>() as f64 * b;
            out.push(LayerCost {
                name: "residual_join",
                flops_forward: 2.0 * elems,
                param_bytes: 0.0,
                activation_bytes: elems * BYTES_PER_PARAM,
            });
            // `in_keep` leaves the block at the body's last keep, although
            // the shortcut restores every masked channel at the join and
            // the next layer gets no input mask. This under-charges: the
            // next block's first conv, ReLU and pooling are priced at
            // keep·keep where the kernels run keep. Mending it moves sim
            // time; `cost_pin.rs` pins today's bits.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use helios_tensor::TensorRng;

    #[test]
    fn full_model_cost_is_positive_and_ordered() {
        let mut rng = TensorRng::seed_from(0);
        let lenet = models::lenet(10, &mut rng);
        let alex = models::alexnet(10, &mut rng);
        let c_lenet = NetworkCost::of(&lenet, None, 32);
        let c_alex = NetworkCost::of(&alex, None, 32);
        assert!(c_lenet.flops_forward() > 0.0);
        assert!(
            c_alex.flops_forward() > c_lenet.flops_forward(),
            "alexnet should cost more than lenet"
        );
    }

    #[test]
    fn masking_reduces_cost_monotonically() {
        let mut rng = TensorRng::seed_from(0);
        let mut net = models::lenet(10, &mut rng);
        let full = NetworkCost::of(&net, None, 16);
        let units = net.maskable_units();
        // Keep only half the units of every maskable layer.
        let mut mask = ModelMask::all_active(&units);
        for (i, &n) in units.0.iter().enumerate() {
            let m: UnitMask = (0..n).map(|j| j < n / 2).collect();
            mask.set_layer(i, Some(m));
        }
        let half = NetworkCost::of(&net, Some(&mask), 16);
        assert!(half.flops_forward() < full.flops_forward() * 0.6);
        assert!(half.memory_bytes() < full.memory_bytes());
        assert_eq!(
            NetworkCost::of(&net, Some(&ModelMask::all_active(&units)), 16),
            full
        );
        // What the network has installed does not move either cost.
        net.set_masks(&mask).unwrap();
        assert_eq!(NetworkCost::of(&net, None, 16), full);
        assert_eq!(NetworkCost::of(&net, Some(&mask), 16), half);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "mask layer of the wrong width")]
    fn a_mask_layer_of_the_wrong_width_is_a_bug() {
        let net = models::lenet(10, &mut TensorRng::seed_from(0));
        let mut mask = ModelMask::all_active(&net.maskable_units());
        mask.set_layer(0, Some(UnitMask::full(3)));
        NetworkCost::of(&net, Some(&mask), 1);
    }

    #[test]
    fn training_flops_are_three_times_forward() {
        let mut rng = TensorRng::seed_from(0);
        let net = models::lenet(10, &mut rng);
        let c = NetworkCost::of(&net, None, 8);
        assert!((c.flops_training() - 3.0 * c.flops_forward()).abs() < 1e-6);
    }

    #[test]
    fn cost_scales_linearly_with_batch() {
        let mut rng = TensorRng::seed_from(0);
        let net = models::alexnet(10, &mut rng);
        let c1 = NetworkCost::of(&net, None, 1);
        let c8 = NetworkCost::of(&net, None, 8);
        let ratio = c8.flops_forward() / c1.flops_forward();
        assert!((ratio - 8.0).abs() < 1e-9);
        // Param bytes do not scale with batch.
        assert!((c8.param_bytes() - c1.param_bytes()).abs() < 1e-9);
    }

    #[test]
    fn resnet_cost_includes_projection_and_join() {
        let mut rng = TensorRng::seed_from(0);
        let net = models::resnet18(100, &mut rng);
        let c = NetworkCost::of(&net, None, 4);
        assert!(c.layers.iter().any(|l| l.name == "residual_projection"));
        assert!(c.layers.iter().any(|l| l.name == "residual_join"));
    }
}
