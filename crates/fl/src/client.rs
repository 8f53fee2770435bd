//! A simulated federated client: model replica, local shard, optimizer,
//! and device resource profile.

use crate::Result;
use helios_data::Dataset;
use helios_device::{CostModel, ResourceProfile, SimTime, TrainingWorkload};
use helios_net::{CompressionConfig, WireSize};
use helios_nn::{CrossEntropyLoss, ModelMask, Network, NetworkCost, Sgd};
use helios_scenario::DriftKind;
use helios_tensor::{TensorRng, UnitMask};

/// Global gradient-norm clip applied by every client's optimizer —
/// protection against divergence on hard (heavily Non-IID) shards; large
/// enough to be inactive in ordinary training.
pub const GRAD_CLIP_NORM: f32 = 5.0;

/// Factor mapping a scaled experiment model's memory footprint to
/// the full-size model's footprint (16×16 → 32×32 inputs, reduced channel
/// counts). Chosen so the full models land in the 50–250 MB band of the
/// paper's Table I memory budgets.
pub(crate) const DEFAULT_MEMORY_SCALE: f64 = 60.0;

/// Factor mapping a scaled experiment model's analytic FLOPs and memory
/// traffic to the paper's full-size models, so `W/C_cpu` dominates the
/// cost formula as in Table I. Affects only *simulated* time.
const WORKLOAD_SCALE: f64 = 2000.0;

/// SGD momentum of every client's optimizer.
const MOMENTUM: f32 = 0.9;

/// The result of one local training cycle, ready for aggregation.
#[derive(Debug, Clone)]
pub struct LocalUpdate {
    /// Index of the producing client.
    pub client: usize,
    /// The client's full flat parameter vector after local training.
    pub params: Vec<f32>,
    /// Parameter-level activity mask (`None` = every parameter trained)
    /// as the LSB-first `u64` words of a [`UnitMask`] of `params.len()`
    /// bits — the wire codec's bitset layout. Masked-out entries still
    /// hold the pre-training global values and must not be averaged in.
    pub param_mask: Option<Vec<u64>>,
    /// Mean training loss over the cycle's batches.
    pub train_loss: f32,
    /// Number of local samples (FedAvg weighting).
    pub num_samples: usize,
    /// Fraction of maskable neurons that trained — the paper's `r_n`.
    pub keep_ratio: f64,
    /// Global cycle index whose parameters this update was computed from
    /// (staleness accounting for asynchronous strategies).
    pub based_on_cycle: usize,
}

/// A simulated edge device participating in federated learning.
///
/// Owns a full model replica (even when soft-training masks part of it —
/// the paper's point is that *no structure is permanently lost*), a local
/// data shard, an SGD optimizer, and the device's resource profile from
/// which cycle times are derived. The cost queries are pure functions of
/// the architecture and a mask — the installed one, or one the caller
/// passes in — so pricing a sub-model installs nothing.
#[derive(Debug, Clone)]
pub struct Client {
    id: usize,
    net: Network,
    dataset: Dataset,
    profile: ResourceProfile,
    optimizer: Sgd,
    batch_size: usize,
    rng: TensorRng,
    current_mask: Option<ModelMask>,
    /// `current_mask` expanded to the flat parameter vector, derived by
    /// [`Client::set_masks`].
    param_mask: Option<UnitMask>,
    last_based_on: usize,
    /// Scenario-engine battery/thermal scale applied to the profile's
    /// compute bandwidth when deriving cycle times; `1.0` (the default)
    /// leaves the pristine profile untouched.
    compute_scale: f64,
    /// How many scenario drift events have been replayed onto the local
    /// shard — late-materialized clients catch up by replaying the
    /// timeline from this counter, keeping lazy and eager fleets
    /// bit-identical.
    drift_applied: usize,
}

impl Client {
    /// Creates a client.
    ///
    /// `net` must already hold the initial global parameters; `rng` drives
    /// this client's batch shuffling (seed it per-client for reproducible
    /// but decorrelated shuffles). Cycle times price the paper's
    /// full-size models: 2000× the scaled model's FLOPs and memory.
    pub(crate) fn new(
        id: usize,
        net: Network,
        dataset: Dataset,
        profile: ResourceProfile,
        learning_rate: f32,
        batch_size: usize,
        rng: TensorRng,
    ) -> Self {
        Client {
            id,
            net,
            dataset,
            profile,
            optimizer: Sgd::with_momentum(learning_rate, MOMENTUM).with_grad_clip(GRAD_CLIP_NORM),
            batch_size,
            rng,
            current_mask: None,
            param_mask: None,
            last_based_on: 0,
            compute_scale: 1.0,
            drift_applied: 0,
        }
    }

    /// Client index within the fleet.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The device's resource profile.
    pub fn profile(&self) -> &ResourceProfile {
        &self.profile
    }

    /// The local dataset shard.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Number of local samples.
    pub fn num_samples(&self) -> usize {
        self.dataset.len()
    }

    /// The model replica (e.g. for inspecting architecture).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable model access. The library reads the architecture through
    /// [`Client::network`]; the repository benchmark still calls this.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Installs the unit masks for the next training cycle (`None`
    /// restores full-model training) and expands them to the flat
    /// parameter vector once, for the upload.
    ///
    /// # Errors
    ///
    /// Returns an error when a mask length does not match a layer.
    pub fn set_masks(&mut self, mask: Option<ModelMask>) -> Result<()> {
        match &mask {
            Some(m) => self.net.set_masks(m)?,
            None => self.net.clear_masks(),
        }
        self.param_mask = mask.as_ref().map(|m| self.net.layout().param_mask(m));
        self.current_mask = mask;
        Ok(())
    }

    /// The currently installed mask, if any.
    pub fn current_mask(&self) -> Option<&ModelMask> {
        self.current_mask.as_ref()
    }

    /// Wire size of this client's next upload under the run's
    /// [`CompressionConfig`]: the planning estimate the server uses for
    /// straggler identification and deadline fitting. With compression
    /// off it is the masked layout when a soft-training mask is
    /// installed (bitset + active parameters only — how a straggler's
    /// upload genuinely shrinks on the wire) and the full layout
    /// otherwise; top-k shrinks it further (a worst-case estimate for
    /// its data-dependent layout — see
    /// `CompressionConfig::upload_wire_size`).
    pub(crate) fn upload_wire_size(&self, compression: &CompressionConfig) -> WireSize {
        let active = self.param_mask.as_ref().map(UnitMask::count_ones);
        compression.upload_wire_size(self.net.param_len(), active)
    }

    /// Fraction of maskable neurons active under the current mask.
    pub(crate) fn keep_ratio(&self) -> f64 {
        let units = self.net.maskable_units();
        match &self.current_mask {
            Some(m) => m.keep_ratio(&units),
            None => 1.0,
        }
    }

    /// Replaces the local model parameters with a new global vector and
    /// clears stale optimizer momentum.
    ///
    /// # Errors
    ///
    /// Returns an error when the vector length is wrong.
    pub(crate) fn receive_global(&mut self, params: &[f32], cycle: usize) -> Result<()> {
        self.net.set_param_vector(params)?;
        self.optimizer.reset_state();
        self.last_based_on = cycle;
        Ok(())
    }

    /// Runs one local training cycle (one pass over the shard, in a
    /// fresh shuffle) and returns the resulting update.
    ///
    /// # Errors
    ///
    /// Propagates model/tensor errors; the client state is unspecified
    /// after an error.
    pub fn train_local(&mut self) -> Result<LocalUpdate> {
        let loss_fn = CrossEntropyLoss::new();
        let mut total_loss = 0.0f32;
        let mut batches = 0usize;
        let mut shuffle_rng = self.rng.split();
        for (x, y) in self
            .dataset
            .shuffled_batches(self.batch_size, &mut shuffle_rng)
        {
            self.net.zero_grad();
            let logits = self.net.forward(&x)?;
            let (l, grad) = loss_fn.forward_backward(&logits, &y)?;
            self.net.backward(&grad)?;
            self.optimizer.step(&mut self.net)?;
            total_loss += l;
            batches += 1;
        }
        let params = self.net.param_vector();
        let param_mask = self.param_mask.as_ref().map(|m| m.words().to_vec());
        let keep_ratio = self.keep_ratio();
        Ok(LocalUpdate {
            client: self.id,
            params,
            param_mask,
            train_loss: if batches > 0 {
                total_loss / batches as f32
            } else {
                0.0
            },
            num_samples: self.dataset.len(),
            keep_ratio,
            based_on_cycle: self.last_based_on,
        })
    }

    /// The analytic workload of one local training cycle under the installed
    /// mask: training FLOPs, memory traffic, and the parameter exchange.
    pub fn cycle_workload(&self) -> TrainingWorkload {
        self.workload(self.current_mask.as_ref())
    }

    /// [`Client::cycle_workload`] under `mask` (`None`: the full model).
    fn workload(&self, mask: Option<&ModelMask>) -> TrainingWorkload {
        let per_batch = NetworkCost::of(&self.net, mask, self.batch_size);
        let steps = self.dataset.len().div_ceil(self.batch_size).max(1) as f64;
        // Upload + download of the active parameters (not scaled: the
        // exchanged model is the scaled one in both worlds).
        let net_bytes = 2.0 * per_batch.param_bytes();
        TrainingWorkload::new(
            per_batch.flops_training() * steps * WORKLOAD_SCALE,
            per_batch.memory_bytes() * steps * WORKLOAD_SCALE,
            net_bytes,
        )
    }

    /// Simulated duration of one local training cycle on this device
    /// under the installed mask, at the current scenario compute scale
    /// (throttled devices take proportionally longer).
    pub fn cycle_time(&self) -> SimTime {
        self.cycle_time_with(self.current_mask.as_ref())
    }

    /// [`Client::cycle_time`] under `mask` instead of the installed one
    /// (`None`: the full model).
    pub fn cycle_time_with(&self, mask: Option<&ModelMask>) -> SimTime {
        let workload = self.workload(mask);
        if self.compute_scale == 1.0 {
            return CostModel::time_for(&self.profile, &workload);
        }
        CostModel::time_for(&self.profile.compute_scaled(self.compute_scale), &workload)
    }

    /// The current scenario compute scale (see
    /// `Client::set_compute_scale`).
    pub fn compute_scale(&self) -> f64 {
        self.compute_scale
    }

    /// Sets the scenario engine's battery/thermal compute scale. The
    /// pristine profile is kept and rescaled on every query, so the
    /// scale can be recomputed from the timeline each cycle without
    /// compounding.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub(crate) fn set_compute_scale(&mut self, scale: f64) {
        assert!(
            scale.is_finite() && scale > 0.0,
            "compute scale must be positive and finite, got {scale}"
        );
        self.compute_scale = scale;
    }

    /// Number of scenario drift events already applied to the local
    /// shard (see `Client::apply_drift`).
    pub fn drift_applied(&self) -> usize {
        self.drift_applied
    }

    /// Applies one scenario drift event to the local shard and advances
    /// the replay counter. Events must be applied one at a time in
    /// timeline order — f32 addition is not associative, so composing
    /// shifts would break the lazy==eager bitwise-parity contract.
    ///
    /// # Errors
    ///
    /// Propagates tensor construction errors (impossible for finite
    /// amounts).
    pub(crate) fn apply_drift(&mut self, kind: DriftKind, amount: f64) -> Result<()> {
        self.dataset = drifted(&self.dataset, kind, amount)?;
        self.drift_applied += 1;
        Ok(())
    }

    /// Training footprint under `mask` (`None`: the full model) mapped
    /// to full-model magnitude, for comparison against a device's Table I
    /// memory budget. Memory scales far less than FLOPs between the
    /// scaled and full models (footprint grows with parameters and
    /// activations, not with dataset passes), hence a separate, smaller
    /// factor than the workload scale (2000).
    pub fn scaled_resident_bytes(&self, mask: Option<&ModelMask>) -> f64 {
        NetworkCost::of(&self.net, mask, self.batch_size).memory_bytes() * DEFAULT_MEMORY_SCALE
    }
}

/// `dataset` after one scenario drift event (shards and the held-out
/// test set drift by the same rule).
pub(crate) fn drifted(dataset: &Dataset, kind: DriftKind, amount: f64) -> Result<Dataset> {
    Ok(match kind {
        DriftKind::LabelRotate => dataset.rotate_labels(amount.max(0.0).round() as usize),
        DriftKind::InputShift => dataset.shift_inputs(amount as f32)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_data::SyntheticVision;
    use helios_device::presets;
    use helios_nn::models;
    use helios_tensor::TensorRng;

    fn make_client(profile: ResourceProfile) -> Client {
        let mut rng = TensorRng::seed_from(3);
        let net = models::lenet(10, &mut rng);
        let (train, _) = SyntheticVision::mnist_like()
            .generate(40, 0, &mut rng)
            .unwrap();
        Client::new(0, net, train, profile, 0.05, 16, rng)
    }

    #[test]
    fn local_training_reduces_loss_over_cycles() {
        let mut c = make_client(presets::jetson_nano());
        let u1 = c.train_local().unwrap();
        let mut last = u1.train_loss;
        for _ in 0..4 {
            let u = c.train_local().unwrap();
            last = u.train_loss;
        }
        assert!(last < u1.train_loss, "{} → {last}", u1.train_loss);
        assert_eq!(u1.num_samples, 40);
        assert!(u1.param_mask.is_none());
        assert_eq!(u1.keep_ratio, 1.0);
    }

    #[test]
    fn receive_global_overwrites_params_and_tracks_cycle() {
        let mut c = make_client(presets::jetson_nano());
        let zeros = vec![0.0f32; c.network().param_len()];
        c.receive_global(&zeros, 7).unwrap();
        assert!(c.network().param_vector().iter().all(|&x| x == 0.0));
        let u = c.train_local().unwrap();
        assert_eq!(u.based_on_cycle, 7);
        assert!(c.receive_global(&zeros[1..], 8).is_err());
    }

    #[test]
    fn mask_shrinks_cycle_time_and_update_mask() {
        let mut c = make_client(presets::deeplens_cpu());
        let full_time = c.cycle_time();
        let units = c.network().maskable_units();
        let mut mask = ModelMask::all_active(&units);
        for (i, &n) in units.0.iter().enumerate() {
            mask.set_layer(i, Some((0..n).map(|j| j < n / 2).collect()));
        }
        c.set_masks(Some(mask)).unwrap();
        let masked_time = c.cycle_time();
        assert!(
            masked_time.as_secs_f64() < 0.7 * full_time.as_secs_f64(),
            "mask should accelerate: {full_time} vs {masked_time}"
        );
        assert!((c.keep_ratio() - 0.5).abs() < 0.1);
        let u = c.train_local().unwrap();
        let pm = u.param_mask.expect("masked training reports a mask");
        let active = helios_tensor::mask_population(&pm, u.params.len()).unwrap();
        assert!(active < u.params.len());
        // Clearing masks restores the full cost.
        c.set_masks(None).unwrap();
        assert_eq!(c.cycle_time(), full_time);
    }

    #[test]
    fn straggler_is_slower_than_capable_on_same_model() {
        let capable = make_client(presets::jetson_nano());
        let straggler = make_client(presets::deeplens_cpu());
        assert!(straggler.cycle_time() > capable.cycle_time());
    }

    #[test]
    fn same_seed_clients_train_identically() {
        let a = make_client(presets::jetson_nano());
        let mut b = a.clone();
        let mut a = a;
        let ua = a.train_local().unwrap();
        let ub = b.train_local().unwrap();
        assert_eq!(ua.params, ub.params);
        assert_eq!(ua.train_loss, ub.train_loss);
    }
}
