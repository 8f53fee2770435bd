//! The [`Network`] container, flat parameter views, and the neuron index
//! ([`NeuronLayout`]) used by federated aggregation.

use crate::layer::Layer;
use crate::layers::MaskedCore;
use crate::{NnError, Result};
use helios_tensor::{Tensor, UnitMask};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Number of output units of each maskable layer of a network, in
/// canonical walk order.
///
/// This is the paper's per-layer `n_i` (§IV.C): the quantity the volume
/// planner multiplies by the keep ratio `P_i` to size a straggler's
/// sub-model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaskableUnits(pub Vec<usize>);

impl MaskableUnits {
    /// Number of maskable layers.
    pub fn num_layers(&self) -> usize {
        self.0.len()
    }

    /// Total maskable units across all layers (the paper's `m` restricted
    /// to maskable structure).
    pub fn total(&self) -> usize {
        self.0.iter().sum()
    }
}

/// Per-layer unit masks describing which neurons participate in a training
/// cycle.
///
/// Index `i` addresses the `i`-th maskable layer in canonical walk order;
/// `None` means "all units active". This is the object the Helios
/// soft-training scheduler produces each cycle and the aggregation layer
/// consumes to know which parameters a device actually trained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelMask {
    masks: Vec<Option<UnitMask>>,
}

impl ModelMask {
    /// A mask with every unit of every layer active.
    pub fn all_active(units: &MaskableUnits) -> Self {
        ModelMask {
            masks: vec![None; units.num_layers()],
        }
    }

    /// The mask of layer `i` (`None` = all active).
    pub(crate) fn layer(&self, i: usize) -> Option<&UnitMask> {
        self.masks.get(i).and_then(Option::as_ref)
    }

    /// Replaces the mask of layer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_layer(&mut self, i: usize, mask: Option<UnitMask>) {
        self.masks[i] = mask;
    }

    /// Whether unit `unit` of maskable layer `layer` is active.
    pub fn is_active(&self, layer: usize, unit: usize) -> bool {
        self.layer(layer).is_none_or(|m| m.get(unit))
    }

    /// Number of active units per layer.
    pub fn active_counts(&self, units: &MaskableUnits) -> Vec<usize> {
        units
            .0
            .iter()
            .enumerate()
            .map(|(i, &n)| match self.layer(i) {
                Some(m) => m.count_ones(),
                None => n,
            })
            .collect()
    }

    /// Overall fraction of active units: the paper's `r_n`, used for the
    /// heterogeneous aggregation weight `α_n = r_n / Σ r_n` (Eq 10).
    pub fn keep_ratio(&self, units: &MaskableUnits) -> f64 {
        let total = units.total();
        if total == 0 {
            return 1.0;
        }
        let active: usize = self.active_counts(units).iter().sum();
        active as f64 / total as f64
    }
}

/// Identifies one neuron: unit `unit` of parameter group `group`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NeuronId {
    /// Index into [`NeuronLayout`] groups (parameterized layers in
    /// canonical order).
    pub group: usize,
    /// Output unit within the group.
    pub unit: usize,
}

/// Metadata of one parameterized layer inside the flat parameter vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamGroup {
    /// `[rows, cols]` of the row-major weight matrix.
    weight_dims: [usize; 2],
    /// Weight axis that indexes units: 1 for dense `[in, out]`, 0 for
    /// conv `[O, C·K·K]`.
    unit_axis: usize,
    /// Position among *maskable* layers, when the layer is maskable.
    maskable_id: Option<usize>,
    weight_offset: usize,
    bias_offset: usize,
}

impl ParamGroup {
    /// Number of output units (neurons / channels).
    pub fn units(&self) -> usize {
        self.weight_dims[self.unit_axis]
    }

    /// Index among maskable layers, or `None` for head/projection layers.
    pub fn maskable_id(&self) -> Option<usize> {
        self.maskable_id
    }
}

/// Index from neurons to their positions in the flat parameter vector.
///
/// Built once per architecture by [`Network::layout`]; the federated
/// server uses it to compute per-neuron contribution values (Eq 1), build
/// parameter-level upload masks, and run the skip-cycle regulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeuronLayout {
    groups: Vec<ParamGroup>,
    total_params: usize,
}

impl NeuronLayout {
    /// The parameter groups in canonical order.
    pub fn groups(&self) -> &[ParamGroup] {
        &self.groups
    }

    /// Total length of the flat parameter vector.
    pub fn total_params(&self) -> usize {
        self.total_params
    }

    /// Flat parameter indices owned by one neuron (its weight fan-in plus
    /// its bias element).
    ///
    /// # Panics
    ///
    /// Panics if the neuron id is out of range.
    pub fn neuron_param_indices(&self, id: NeuronId) -> Vec<usize> {
        self.neuron_params(id).collect()
    }

    /// [`NeuronLayout::neuron_param_indices`] without the allocation.
    fn neuron_params(&self, id: NeuronId) -> impl Iterator<Item = usize> {
        let g = &self.groups[id.group];
        assert!(id.unit < g.units(), "unit {} out of range", id.unit);
        // A unit's weights are one row (conv) or one column (dense) of
        // the row-major matrix.
        let strides = [g.weight_dims[1], 1];
        let fan_in = 1 - g.unit_axis;
        let first = g.weight_offset + id.unit * strides[g.unit_axis];
        (0..g.weight_dims[fan_in])
            .map(move |k| first + k * strides[fan_in])
            .chain([g.bias_offset + id.unit])
    }

    /// L1 norm of the parameter change of one neuron between two flat
    /// parameter vectors — the paper's contribution metric `U^{ij}` (Eq 1).
    ///
    /// # Panics
    ///
    /// Panics if either slice is shorter than [`NeuronLayout::total_params`].
    pub fn neuron_delta_l1(&self, id: NeuronId, prev: &[f32], curr: &[f32]) -> f32 {
        self.neuron_params(id)
            .map(|i| (curr[i] - prev[i]).abs())
            .sum()
    }

    /// Expands a per-layer [`ModelMask`] into a parameter-level activity
    /// mask over the flat vector.
    ///
    /// Parameters of non-maskable groups are always active; parameters of a
    /// masked-out unit are inactive.
    pub fn param_mask(&self, mask: &ModelMask) -> UnitMask {
        let mut out = UnitMask::full(self.total_params);
        for (gi, g) in self.groups.iter().enumerate() {
            let Some(layer) = g.maskable_id.and_then(|mid| mask.layer(mid)) else {
                continue;
            };
            for unit in (0..layer.len()).filter(|&unit| !layer.get(unit)) {
                for idx in self.neuron_params(NeuronId { group: gi, unit }) {
                    out.set(idx, false);
                }
            }
        }
        out
    }
}

/// A feed-forward network: an ordered stack of [`Layer`]s plus the
/// geometry metadata the rest of the workspace needs.
///
/// See the crate-level example for an end-to-end training step.
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<Layer>,
    input_dims: Vec<usize>,
}

impl Network {
    /// Assembles a network.
    ///
    /// `input_dims` are per-sample dimensions (e.g. `[1, 16, 16]` for a
    /// one-channel 16×16 image).
    pub fn new(layers: Vec<Layer>, input_dims: &[usize]) -> Self {
        Network {
            layers,
            input_dims: input_dims.to_vec(),
        }
    }

    /// Per-sample input dimensions.
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Visits every parameterized layer's core in canonical order (see
    /// [`Layer::for_each_core`]).
    pub(crate) fn for_each_core(&self, f: &mut dyn FnMut(&MaskedCore)) {
        for layer in &self.layers {
            layer.for_each_core(f);
        }
    }

    /// [`Network::for_each_core`], mutably.
    pub(crate) fn for_each_core_mut(&mut self, f: &mut dyn FnMut(&mut MaskedCore)) {
        for layer in &mut self.layers {
            layer.for_each_core_mut(f);
        }
    }

    /// Forward pass over a batch whose first dimension is the batch size.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        crate::profiler::timed(crate::profiler::Hotpath::Forward, || {
            let mut h = Cow::Borrowed(x);
            for layer in &mut self.layers {
                h = Cow::Owned(layer.forward(h)?);
            }
            Ok(h.into_owned())
        })
    }

    /// Forward pass for inference: the logits [`Network::forward`] would
    /// return, bit for bit, with nothing cached for a backward pass (no
    /// layer inputs, ReLU signs or pooling indices). Masked layers run
    /// full-width and zero their masked units, which is bitwise what
    /// packed execution computes. It takes `&self`, so one network can
    /// serve several threads at once.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn infer(&self, x: &Tensor) -> Result<Tensor> {
        let mut h = Cow::Borrowed(x);
        for layer in &self.layers {
            h = Cow::Owned(layer.infer(h)?);
        }
        Ok(h.into_owned())
    }

    /// Backward pass from the loss gradient at the logits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] when called without a
    /// preceding [`Network::forward`].
    pub fn backward(&mut self, grad_logits: &Tensor) -> Result<()> {
        crate::profiler::timed(crate::profiler::Hotpath::Backward, || {
            let mut g = grad_logits.clone();
            for layer in self.layers.iter_mut().rev() {
                g = layer.backward(g)?;
            }
            Ok(())
        })
    }

    /// Resets all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.for_each_core_mut(&mut MaskedCore::zero_grad);
    }

    /// Total number of parameters.
    pub fn param_len(&self) -> usize {
        let mut n = 0;
        self.for_each_core(&mut |c| c.for_each_param(&mut |t| n += t.len()));
        n
    }

    /// Copies all parameters into one flat vector (canonical order).
    pub fn param_vector(&self) -> Vec<f32> {
        let mut v = Vec::with_capacity(self.param_len());
        self.for_each_core(&mut |c| c.for_each_param(&mut |t| v.extend_from_slice(t.as_slice())));
        v
    }

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] when the vector length is
    /// wrong.
    pub fn set_param_vector(&mut self, params: &[f32]) -> Result<()> {
        if params.len() != self.param_len() {
            return Err(NnError::ParamLengthMismatch {
                expected: self.param_len(),
                actual: params.len(),
            });
        }
        let mut offset = 0;
        self.for_each_core_mut(&mut |c| {
            c.for_each_param_mut(&mut |t| {
                let n = t.len();
                t.as_mut_slice()
                    .copy_from_slice(&params[offset..offset + n]);
                offset += n;
            });
        });
        Ok(())
    }

    /// Builds the neuron index for this architecture.
    pub fn layout(&self) -> NeuronLayout {
        let mut groups = Vec::new();
        let mut offset = 0usize;
        let mut maskable = 0usize;
        self.for_each_core(&mut |c| {
            let [rows, cols] = c.weight_dims();
            groups.push(ParamGroup {
                weight_dims: [rows, cols],
                unit_axis: c.unit_axis(),
                maskable_id: c.is_maskable().then(|| {
                    maskable += 1;
                    maskable - 1
                }),
                weight_offset: offset,
                bias_offset: offset + rows * cols,
            });
            offset += rows * cols + c.units();
        });
        NeuronLayout {
            groups,
            total_params: offset,
        }
    }

    /// Visits the maskable cores in canonical order: the order of
    /// [`MaskableUnits`] and [`ModelMask`] layers. Heads and projection
    /// shortcuts are skipped.
    fn for_each_maskable(&mut self, f: &mut dyn FnMut(&mut MaskedCore)) {
        self.for_each_core_mut(&mut |c| {
            if c.is_maskable() {
                f(c);
            }
        });
    }

    /// Output unit counts of the maskable layers, in canonical order.
    pub fn maskable_units(&self) -> MaskableUnits {
        let mut units = Vec::new();
        self.for_each_core(&mut |c| units.extend(c.is_maskable().then(|| c.units())));
        MaskableUnits(units)
    }

    /// Installs per-layer unit masks: all of them or, on error, none.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MaskLengthMismatch`] when any layer mask has the
    /// wrong length; the network then keeps the masks it had. Extra mask
    /// entries beyond the network's maskable layers are ignored; missing
    /// entries leave layers unmasked.
    pub fn set_masks(&mut self, mask: &ModelMask) -> Result<()> {
        let (mut idx, mut checked) = (0usize, Ok(()));
        self.for_each_maskable(&mut |c| {
            if checked.is_ok() {
                checked = c.validate_mask(mask.layer(idx));
            }
            idx += 1;
        });
        checked?;
        let mut idx = 0usize;
        self.for_each_maskable(&mut |c| {
            c.set_unit_mask(mask.layer(idx).cloned());
            idx += 1;
        });
        self.derive_plans();
        Ok(())
    }

    /// Removes all unit masks (every neuron active).
    pub fn clear_masks(&mut self) {
        self.for_each_maskable(&mut |c| c.set_unit_mask(None));
        self.derive_plans();
    }

    /// Re-derives every layer's input mask from the unit masks of the
    /// layers upstream of it, then every core's packed plan from its two
    /// masks: the one derivation an install makes. A unit mask
    /// guarantees the masked units' outputs are exactly zero; threading
    /// that guarantee forward tells each consuming layer which of its
    /// *inputs* are zero, which is what lets packed execution drop the
    /// corresponding input rows/channels without changing a single
    /// output bit. The network input itself carries no guarantee.
    fn derive_plans(&mut self) {
        let mut prev = None;
        for layer in &mut self.layers {
            prev = layer.thread_input_mask(prev);
        }
        self.for_each_core_mut(&mut MaskedCore::derive_plan);
    }

    /// Classification accuracy on a labelled batch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BatchMismatch`] when `labels.len()` differs from
    /// the batch size, and propagates forward-pass errors.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> Result<f64> {
        let logits = self.infer(x)?;
        if logits.dims()[0] != labels.len() {
            return Err(NnError::BatchMismatch {
                logits: logits.dims()[0],
                labels: labels.len(),
            });
        }
        let pred = logits.argmax_rows()?;
        let correct = pred.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f64 / labels.len().max(1) as f64)
    }
}

#[cfg(test)]
impl ModelMask {
    /// Builds a mask from explicit per-layer activity vectors.
    pub(crate) fn from_layers(masks: Vec<Option<UnitMask>>) -> Self {
        ModelMask { masks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, Relu};
    use helios_tensor::{ConvSpec, TensorRng};

    fn tiny_net() -> Network {
        let mut rng = TensorRng::seed_from(1);
        Network::new(
            vec![
                Layer::Conv2d(Conv2d::new(ConvSpec::new(1, 2, 3, 1, 1), &mut rng)),
                Layer::Relu(Relu::new()),
                Layer::Flatten(Flatten::new()),
                Layer::Dense(Dense::new(2 * 4 * 4, 8, &mut rng)),
                Layer::Relu(Relu::new()),
                Layer::Dense(Dense::new(8, 3, &mut rng).non_maskable()),
            ],
            &[1, 4, 4],
        )
    }

    #[test]
    fn forward_produces_logits() {
        let mut net = tiny_net();
        let x = Tensor::full(&[5, 1, 4, 4], 1.0);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.dims(), &[5, 3]);
    }

    #[test]
    fn param_vector_round_trip() {
        let mut net = tiny_net();
        let v = net.param_vector();
        assert_eq!(v.len(), net.param_len());
        let mut v2 = v.clone();
        for x in &mut v2 {
            *x += 1.0;
        }
        net.set_param_vector(&v2).unwrap();
        assert_eq!(net.param_vector(), v2);
        assert!(net.set_param_vector(&v2[1..]).is_err());
    }

    #[test]
    fn layout_matches_param_len_and_masks() {
        let net = tiny_net();
        let layout = net.layout();
        assert_eq!(layout.total_params(), net.param_len());
        // Groups: conv(2 units), dense(8 units), head dense(3 units).
        assert_eq!(layout.groups().len(), 3);
        assert_eq!(layout.groups()[0].maskable_id(), Some(0));
        assert_eq!(layout.groups()[1].maskable_id(), Some(1));
        assert_eq!(layout.groups()[2].maskable_id(), None);
        let units = net.maskable_units();
        assert_eq!(units.0, vec![2, 8]);
        assert_eq!(units.total(), 10);
    }

    #[test]
    fn neuron_param_indices_partition_group_params() {
        let net = tiny_net();
        let layout = net.layout();
        // Dense group 1: every flat index of the group appears in exactly
        // one neuron's index list.
        let mut seen = std::collections::HashSet::new();
        for unit in 0..8 {
            for idx in layout.neuron_param_indices(NeuronId { group: 1, unit }) {
                assert!(seen.insert(idx), "index {idx} claimed twice");
            }
        }
        // in_features+1 params per unit.
        assert_eq!(seen.len(), 8 * (2 * 4 * 4 + 1));
    }

    #[test]
    fn neuron_delta_l1_detects_changes() {
        let net = tiny_net();
        let layout = net.layout();
        let prev = vec![0.0f32; layout.total_params()];
        let mut curr = prev.clone();
        let id = NeuronId { group: 0, unit: 1 };
        let indices = layout.neuron_param_indices(id);
        curr[indices[0]] = 0.5;
        curr[indices[1]] = -0.25;
        assert!((layout.neuron_delta_l1(id, &prev, &curr) - 0.75).abs() < 1e-6);
        // A different neuron saw no change.
        let other = NeuronId { group: 0, unit: 0 };
        assert_eq!(layout.neuron_delta_l1(other, &prev, &curr), 0.0);
    }

    #[test]
    fn param_mask_marks_masked_units_inactive() {
        let net = tiny_net();
        let layout = net.layout();
        let units = net.maskable_units();
        let mut mask = ModelMask::all_active(&units);
        mask.set_layer(0, Some([true, false].into_iter().collect()));
        let pm = layout.param_mask(&mask);
        assert_eq!(pm.len(), layout.total_params());
        let inactive: Vec<usize> = layout.neuron_param_indices(NeuronId { group: 0, unit: 1 });
        for i in inactive {
            assert!(!pm.get(i));
        }
        // Unmasked group params stay active.
        let active = layout.neuron_param_indices(NeuronId { group: 1, unit: 0 });
        for i in active {
            assert!(pm.get(i));
        }
        // Head params always active.
        let head = layout.neuron_param_indices(NeuronId { group: 2, unit: 0 });
        for i in head {
            assert!(pm.get(i));
        }
    }

    #[test]
    fn set_masks_applies_and_clears() {
        let mut net = tiny_net();
        let units = net.maskable_units();
        let mut mask = ModelMask::all_active(&units);
        mask.set_layer(0, Some([true, false].into_iter().collect()));
        net.set_masks(&mask).unwrap();
        let x = Tensor::full(&[1, 1, 4, 4], 1.0);
        let _ = net.forward(&x).unwrap();
        // Masked channel produces zero activations: verify via conv layer.
        if let Layer::Conv2d(c) = &net.layers()[0] {
            assert_eq!(
                c.core.unit_mask().unwrap().iter_ones().collect::<Vec<_>>(),
                [0]
            );
        } else {
            panic!("layer 0 should be conv");
        }
        net.clear_masks();
        if let Layer::Conv2d(c) = &net.layers()[0] {
            assert!(c.core.unit_mask().is_none());
        }
    }

    #[test]
    fn set_masks_rejects_bad_length() {
        let mut net = tiny_net();
        let mask = ModelMask::from_layers(vec![Some(UnitMask::full(5)), None]);
        assert!(net.set_masks(&mask).is_err());
    }

    /// A rejected `set_masks` installs nothing: every layer keeps its
    /// mask and a training step is bitwise the same as if the call had
    /// never been made.
    #[test]
    fn rejected_set_masks_leaves_every_mask_and_step_unchanged() {
        let mut rng = TensorRng::seed_from(3);
        let mut net = Network::new(
            vec![
                Layer::Dense(Dense::new(4, 4, &mut rng)),
                Layer::Relu(Relu::new()),
                Layer::Dense(Dense::new(4, 5, &mut rng)),
                Layer::Relu(Relu::new()),
                Layer::Dense(Dense::new(5, 2, &mut rng).non_maskable()),
            ],
            &[4],
        );
        let old = ModelMask::from_layers(vec![
            Some([true, true, false, true].into_iter().collect()),
            Some([true, false, true, true, true].into_iter().collect()),
        ]);
        net.set_masks(&old).unwrap();
        let mut twin = net.clone();
        let bad = ModelMask::from_layers(vec![
            Some([false, true, true, true].into_iter().collect()),
            Some(UnitMask::full(3)),
        ]);
        assert!(net.set_masks(&bad).is_err());

        let masks = |net: &Network| {
            let mut masks = Vec::new();
            net.for_each_core(&mut |c| masks.push(c.unit_mask().cloned()));
            masks
        };
        assert_eq!(masks(&net), masks(&twin));
        let x = Tensor::from_vec((0..8).map(|i| i as f32 / 4.0 - 1.0).collect(), &[2, 4]).unwrap();
        let step = |net: &mut Network| {
            let loss = crate::CrossEntropyLoss::new();
            let (_, grad) = loss
                .forward_backward(&net.forward(&x).unwrap(), &[0, 1])
                .unwrap();
            net.backward(&grad).unwrap();
            crate::Sgd::new(0.1).step(net).unwrap();
            net.param_vector()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(step(&mut net), step(&mut twin));
    }

    #[test]
    fn keep_ratio_reflects_active_fraction() {
        let units = MaskableUnits(vec![2, 8]);
        let full = ModelMask::all_active(&units);
        assert_eq!(full.keep_ratio(&units), 1.0);
        let mut half = ModelMask::all_active(&units);
        half.set_layer(1, Some((0..8).map(|j| j < 4).collect()));
        assert!((half.keep_ratio(&units) - 0.6).abs() < 1e-9);
        assert_eq!(half.active_counts(&units), vec![2, 4]);
        assert!(half.is_active(0, 0));
        assert!(half.is_active(1, 3));
        assert!(!half.is_active(1, 4));
    }

    #[test]
    fn accuracy_counts_correct_predictions() {
        let mut net = tiny_net();
        let x = Tensor::full(&[4, 1, 4, 4], 1.0);
        let logits = net.forward(&x).unwrap();
        let pred = logits.argmax_rows().unwrap();
        let acc = net.accuracy(&x, &pred).unwrap();
        assert_eq!(acc, 1.0);
        assert!(net.accuracy(&x, &[0, 1]).is_err());
    }
}
