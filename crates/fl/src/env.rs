//! The shared experimental environment a strategy runs against.

use crate::fleet::{AvailabilityModel, FleetSpec};
use crate::population::{build_client, Population};
use crate::sampler::ClientSampler;
use crate::scenario_rt::{compute_scale, ScenarioRuntime};
use crate::{Client, FlConfig, FlError, LocalUpdate, MaskedUpdate, OnlineAggregator, Result};
use helios_data::Dataset;
use helios_device::{ResourceProfile, SimClock, SimTime};
use helios_net::SimTransport;
use helios_nn::models::ModelKind;
use helios_nn::{CrossEntropyLoss, Network};
use helios_tensor::{map_indexed, map_items_mut, TensorRng};
use std::collections::{HashMap, HashSet};

/// Test-set samples per `FlEnv::evaluate_global` batch.
const EVAL_BATCH: usize = 64;

/// The full experimental setup: a fleet of [`Client`]s, the held-out test
/// set, the global parameter vector, and the simulated clock.
///
/// One `FlEnv` hosts one strategy run; construct a fresh environment (same
/// seed) per strategy to compare them from identical initial conditions.
/// See the crate-level example.
///
/// # Up-front vs on-demand fleets
///
/// [`FlEnv::new`] builds every client up front — right for the paper's
/// tens-of-devices experiments. [`FlEnv::new_lazy`] instead takes a
/// [`FleetSpec`] whose profiles and shards are pure functions of
/// `(seed, device_index)`, so a 100k-device population costs O(1)
/// memory per enrolled device until [`FlEnv::select_cohort`]
/// materializes the sampled cohort. Both are the same client store (all
/// clients resident, or none yet plus a generator source), and an
/// on-demand environment run through the same cohorts is bitwise
/// identical to its up-front twin.
#[derive(Debug, Clone)]
pub struct FlEnv {
    pub(crate) store: Population,
    pub(crate) test_set: Dataset,
    eval_net: Network,
    pub(crate) global: Vec<f32>,
    clock: SimClock,
    pub(crate) config: FlConfig,
    /// Present iff `config.net.enabled`: the simulated transport every
    /// synchronous round is routed through.
    pub(crate) transport: Option<SimTransport>,
    /// Present iff `config.scenario` is non-empty: the churn overlay
    /// and firing watermark the round driver consults each cycle.
    pub(crate) scenario_rt: Option<ScenarioRuntime>,
}

impl FlEnv {
    /// Builds an environment: one client per `(profile, shard)` pair, all
    /// starting from the same seeded model initialization.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::FleetMismatch`] when profile and shard counts
    /// differ, [`FlError::InvalidStrategyConfig`] for an empty fleet, or
    /// [`FlError::InvalidRunConfig`] when `FlConfig::validate` rejects
    /// the configuration.
    pub fn new(
        model: ModelKind,
        fleet: Vec<ResourceProfile>,
        shards: Vec<Dataset>,
        test_set: Dataset,
        config: FlConfig,
    ) -> Result<Self> {
        if fleet.len() != shards.len() {
            return Err(FlError::FleetMismatch {
                profiles: fleet.len(),
                shards: shards.len(),
            });
        }
        Self::assemble(
            model,
            fleet.len(),
            test_set,
            config,
            |template, seeds, config| {
                let devices = fleet.into_iter().zip(shards).zip(seeds).enumerate();
                Population::resident(devices.map(|(id, ((profile, shard), seed))| {
                    build_client(id, template.clone(), shard, profile, config, seed)
                }))
            },
        )
    }

    /// Builds a fleet-scale environment whose clients are materialized
    /// on demand from the spec's pure per-device generators.
    ///
    /// Model initialization consumes the master RNG exactly as
    /// [`FlEnv::new`] does, and the per-client split chain is recorded
    /// as one `u64` seed per enrolled device — the only per-device state
    /// held for unsampled devices. Materializing the same indices
    /// therefore reproduces the up-front constructor's clients
    /// bit-for-bit, in any order, at any time.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidStrategyConfig`] for an empty
    /// population or [`FlError::InvalidRunConfig`] when
    /// `FlConfig::validate` rejects the configuration.
    pub fn new_lazy(
        model: ModelKind,
        spec: FleetSpec,
        test_set: Dataset,
        config: FlConfig,
    ) -> Result<Self> {
        Self::assemble(
            model,
            spec.population,
            test_set,
            config,
            |template, seeds, _| Population::sourced(spec, template.clone(), seeds),
        )
    }

    /// The constructor tail both entry points share: validate, seed the
    /// model template and the per-device split chain from the master
    /// RNG, let `store` place the devices, then attach transport and
    /// scenario runtime.
    fn assemble(
        model: ModelKind,
        population: usize,
        test_set: Dataset,
        config: FlConfig,
        store: impl FnOnce(&Network, Vec<u64>, &FlConfig) -> Population,
    ) -> Result<Self> {
        config.validate()?;
        if population == 0 {
            return Err(FlError::InvalidStrategyConfig {
                what: "fleet must not be empty".into(),
            });
        }
        let mut master_rng = TensorRng::seed_from(config.seed);
        let template = model.build(test_set.num_classes(), &mut master_rng);
        let seeds = (0..population).map(|_| master_rng.next_seed()).collect();
        let store = store(&template, seeds, &config);
        let transport = if config.net.enabled {
            Some(SimTransport::new(population, &config.net, config.seed)?)
        } else {
            None
        };
        let scenario_rt = ScenarioRuntime::new(&config, &store)?;
        Ok(FlEnv {
            store,
            test_set,
            global: template.param_vector(),
            eval_net: template,
            clock: SimClock::new(),
            config,
            transport,
            scenario_rt,
        })
    }

    /// The run configuration.
    pub fn config(&self) -> &FlConfig {
        &self.config
    }

    /// Number of enrolled clients (materialized or not).
    pub fn num_clients(&self) -> usize {
        self.store.len()
    }

    /// Number of clients currently held in memory: every enrolled client
    /// after [`FlEnv::new`], the materialized ones after
    /// [`FlEnv::new_lazy`] — the fleet bench's O(cohort) memory contract.
    pub fn materialized_clients(&self) -> usize {
        self.store.resident_len()
    }

    /// Whether per-round cohort sampling is enabled in the config.
    pub fn sampling_enabled(&self) -> bool {
        self.config.sampling.enabled
    }

    /// Ensures client `i` is materialized (a bounds check when it
    /// already is).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UnknownClient`] for an out-of-range index and
    /// propagates shard-synthesis errors.
    pub fn ensure_client(&mut self, i: usize) -> Result<()> {
        self.store.check_enrolled(i)?;
        self.materialize_missing(&[i])
    }

    /// Materializes every client of `ids` (enrolled ids, checked by the
    /// callers) the store does not hold yet. A device materialized
    /// mid-run picks up the throttle scale already in force, exactly as
    /// if it had been resident since cycle 0.
    fn materialize_missing(&mut self, ids: &[usize]) -> Result<()> {
        let scenario = &self.config.scenario;
        let cycle = self.scenario_rt.as_ref().map(|rt| rt.current_cycle);
        self.store.materialize_missing(ids, &self.config, |client| {
            let scale = cycle.map_or(1.0, |cycle| compute_scale(scenario, client.id(), cycle));
            if scale != 1.0 {
                client.set_compute_scale(scale);
            }
        })
    }

    /// Draws cycle `cycle`'s cohort and materializes it, evicting
    /// clients outside the cohort first when the spec disabled
    /// retention. With sampling disabled the cohort is the whole
    /// enrolled population, in id order — the pre-fleet behavior.
    ///
    /// The draw is a pure function of `(config.sampling, config.seed,
    /// population, cycle)`, so reruns replay the identical cohort
    /// sequence at any thread width.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidRunConfig`] when the cohort is empty
    /// after churn removed departed devices, and propagates
    /// materialization errors.
    pub fn select_cohort(&mut self, cycle: usize) -> Result<Vec<usize>> {
        let sampler = ClientSampler::new(self.config.sampling, self.config.seed);
        let mut cohort = sampler.cohort(self.num_clients(), cycle, &AvailabilityModel::always_on());
        if let Some(rt) = &self.scenario_rt {
            // Departed devices are filtered after the draw rather than
            // excluded inside it, so the sampler's stream stays a
            // pure function of (config, seed, population, cycle) and
            // cohorts replay bitwise whether or not churn is active.
            cohort.retain(|d| !rt.offline.contains(d));
        }
        if cohort.is_empty() {
            return Err(FlError::InvalidRunConfig {
                what: format!("cycle {cycle} sampled an empty cohort (no available devices)"),
            });
        }
        // The sampler returns the cohort sorted ascending.
        self.store.evict_outside(&cohort);
        self.materialize_missing(&cohort)?;
        Ok(cohort)
    }

    /// Immutable client access. The client must already be materialized
    /// (via [`FlEnv::select_cohort`], [`FlEnv::ensure_client`], or
    /// [`FlEnv::client_mut`]).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UnknownClient`] for an out-of-range index or
    /// [`FlError::InvalidRunConfig`] for an enrolled-but-unmaterialized
    /// client.
    pub fn client(&self, i: usize) -> Result<&Client> {
        self.store.get(i)
    }

    /// Mutable client access, materializing the client on demand.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UnknownClient`] for an out-of-range index and
    /// propagates materialization errors.
    pub fn client_mut(&mut self, i: usize) -> Result<&mut Client> {
        self.ensure_client(i)?;
        self.store.get_mut(i)
    }

    /// Iterates the in-memory fleet in ascending id order (see
    /// [`FlEnv::materialized_clients`]).
    pub fn clients(&self) -> impl Iterator<Item = &Client> {
        self.store.iter()
    }

    /// Adds a device mid-run (the paper's §VI.C dynamic-join scenario) and
    /// returns its client index. The newcomer starts from the current
    /// global model.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidRunConfig`] on a [`FlEnv::new_lazy`]
    /// fleet with eviction enabled (an evicted joiner would be rebuilt
    /// from the spec's generators instead of the supplied
    /// profile/shard), and propagates parameter-length errors
    /// (impossible unless the dataset class count disagrees with the
    /// architecture).
    pub fn join_client(&mut self, profile: ResourceProfile, shard: Dataset) -> Result<usize> {
        if !self.store.retains_joiners() {
            return Err(FlError::InvalidRunConfig {
                what: "join_client requires client retention on a lazy fleet".into(),
            });
        }
        let id = self.num_clients();
        let seed = TensorRng::seed_from(
            self.config.seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(id as u64 + 1)),
        )
        .next_seed();
        let net = self.eval_net.clone();
        let mut client = build_client(id, net, shard, profile, &self.config, seed);
        client.receive_global(&self.global, 0)?;
        self.store.push(client, seed);
        if let Some(t) = &mut self.transport {
            // The newcomer's fault/jitter stream is a pure function of
            // (run seed, device index), so a grown transport matches one
            // built with the full fleet upfront.
            t.add_device();
        }
        helios_obs::emit(|| helios_obs::TraceEvent::DeviceJoined { device: id as u64 });
        Ok(id)
    }

    /// The current global parameter vector.
    pub fn global(&self) -> &[f32] {
        &self.global
    }

    /// Replaces the global parameter vector.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::GlobalLengthMismatch`] if the length changes —
    /// the architecture is fixed per environment.
    pub(crate) fn set_global(&mut self, params: Vec<f32>) -> Result<()> {
        if params.len() != self.global.len() {
            return Err(FlError::GlobalLengthMismatch {
                expected: self.global.len(),
                actual: params.len(),
            });
        }
        self.global = params;
        Ok(())
    }

    /// Folds `updates`, in iteration order, into the global model: one
    /// streaming [`OnlineAggregator`] pass holding O(model) server state
    /// for any cohort size. Indices no update covers keep their value; a
    /// malformed update panics as in [`OnlineAggregator::push`].
    pub fn fold_into_global<'a>(&mut self, updates: impl IntoIterator<Item = MaskedUpdate<'a>>) {
        let mut acc = OnlineAggregator::new(self.global.len());
        for u in updates {
            acc.push(&u);
        }
        acc.finish_into(&mut self.global);
    }

    /// Sends the current global model to every in-memory client, tagging
    /// it with the producing cycle for staleness accounting.
    ///
    /// Only materialized clients receive the broadcast — which is
    /// equivalent to broadcasting to everyone, because
    /// `Client::receive_global` fully overwrites the replica (params,
    /// optimizer state, staleness tag) and cohort members are
    /// materialized by [`FlEnv::select_cohort`] *before* the broadcast
    /// phase; a device materialized in a later cycle is overwritten by
    /// that cycle's broadcast before it trains.
    ///
    /// # Errors
    ///
    /// Propagates parameter-length errors (impossible under normal use).
    pub fn broadcast_global(&mut self, cycle: usize) -> Result<()> {
        let mut devices = 0u64;
        for c in self.store.iter_mut() {
            c.receive_global(&self.global, cycle)?;
            devices += 1;
        }
        helios_obs::emit(|| helios_obs::TraceEvent::BroadcastSent {
            cycle: cycle as u64,
            devices,
        });
        Ok(())
    }

    /// Sends the current global model to one client.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UnknownClient`] for an out-of-range index.
    pub(crate) fn send_global_to(&mut self, client: usize, cycle: usize) -> Result<()> {
        self.ensure_client(client)?;
        self.store
            .get_mut(client)?
            .receive_global(&self.global, cycle)
    }

    /// Runs one local training cycle on the selected clients, fanning
    /// the independent per-client work out across worker threads, and
    /// returns the updates **in `participants` order** (the aggregation
    /// order every policy relies on).
    ///
    /// The fan-out width is capped by [`FlConfig::parallelism`], an idle
    /// worker claims the next client in id order, and surplus budget
    /// flows to the tensor kernels inside each worker. Because every
    /// kernel is bitwise deterministic at any thread width and the
    /// returned updates preserve participant order, the result is
    /// identical to calling [`Client::train_local`] serially —
    /// strategies may aggregate it without any reordering concerns.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UnknownClient`] for an out-of-range id,
    /// [`FlError::InvalidStrategyConfig`] when an id repeats, or the
    /// first (in client order) training error.
    pub fn train_selected(&mut self, participants: &[usize]) -> Result<Vec<LocalUpdate>> {
        // Cohort-relative bookkeeping: O(participants) state, never
        // O(population) — a 500-device cohort over a 100k fleet must not
        // allocate per-enrolled-device vectors.
        let mut wanted: HashSet<usize> = HashSet::with_capacity(participants.len());
        for &i in participants {
            self.store.check_enrolled(i)?;
            if !wanted.insert(i) {
                return Err(FlError::InvalidStrategyConfig {
                    what: format!("client {i} selected twice in one cycle"),
                });
            }
        }
        self.materialize_missing(participants)?;
        let threads = self.config.parallelism.resolve();
        let residents = self.store.iter_mut();
        let mut selected: Vec<_> = residents.filter(|c| wanted.contains(&c.id())).collect();
        // The fan-out returns results in client-id order; errors surface
        // in that order too, matching the historical serial loops.
        let mut by_client: HashMap<usize, LocalUpdate> = HashMap::with_capacity(selected.len());
        for r in map_items_mut(&mut selected, threads, |_, c| c.train_local()) {
            let u = r?;
            by_client.insert(u.client, u);
        }
        let mut updates = Vec::with_capacity(participants.len());
        for i in participants {
            let update = by_client.remove(i);
            updates.push(update.ok_or_else(|| FlError::InvalidStrategyConfig {
                what: format!("client {i} produced no update"),
            })?);
        }
        Ok(updates)
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Advances the simulated clock.
    pub fn advance_clock(&mut self, span: SimTime) {
        self.clock.advance(span);
    }

    /// Evaluates the current global model on the held-out test set and
    /// returns `(loss, accuracy)`.
    ///
    /// The test set is cut, in order, into batches of 64 samples, the
    /// last one possibly partial.
    /// `loss` is the mean over those batches of each batch's mean
    /// cross-entropy, so the partial batch weighs as much as a full one;
    /// `accuracy` is the fraction of all test samples classified
    /// correctly. The batches run inference-only ([`Network::infer`]) in
    /// parallel within [`FlConfig::parallelism`]'s budget, and their
    /// losses and counts are summed serially in batch order, so the
    /// result is bitwise the same at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates model errors (impossible under normal use).
    pub fn evaluate_global(&mut self) -> Result<(f64, f64)> {
        self.eval_net.set_param_vector(&self.global)?;
        self.eval_net.clear_masks();
        let (net, test, batch) = (&self.eval_net, &self.test_set, EVAL_BATCH);
        let batches = test.len().div_ceil(batch);
        let threads = self.config.parallelism.resolve();
        let per_batch = map_indexed(batches, threads, |b| -> Result<(f64, usize)> {
            let idx: Vec<usize> = (b * batch..test.len().min((b + 1) * batch)).collect();
            let part = test.subset(&idx)?;
            let logits = net.infer(part.images())?;
            let loss = CrossEntropyLoss::new().forward(&logits, part.labels())?;
            let pred = logits.argmax_rows().map_err(helios_nn::NnError::from)?;
            let correct = pred
                .iter()
                .zip(part.labels())
                .filter(|(p, l)| p == l)
                .count();
            Ok((f64::from(loss), correct))
        });
        let (mut loss_sum, mut correct) = (0.0f64, 0usize);
        for r in per_batch {
            let (loss, hits) = r?;
            loss_sum += loss;
            correct += hits;
        }
        let n = test.len().max(1);
        Ok((loss_sum / batches.max(1) as f64, correct as f64 / n as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SamplerConfig;
    use helios_data::{partition, SyntheticVision};
    use helios_device::presets;
    use helios_net::{codec, LinkProfile, NetConfig};

    fn small_env_with(seed: u64, net: NetConfig) -> FlEnv {
        let mut rng = TensorRng::seed_from(9);
        let (train, test) = SyntheticVision::mnist_like()
            .generate(60, 40, &mut rng)
            .unwrap();
        let shards: Vec<Dataset> = partition::iid(train.len(), 2, &mut rng)
            .into_iter()
            .map(|idx| train.subset(&idx).unwrap())
            .collect();
        FlEnv::new(
            ModelKind::LeNet,
            presets::mixed_fleet(1, 1),
            shards,
            test,
            FlConfig {
                seed,
                net,
                ..FlConfig::default()
            },
        )
        .unwrap()
    }

    fn small_env(seed: u64) -> FlEnv {
        small_env_with(seed, NetConfig::default())
    }

    /// `evaluate_global` against the serial loop it replaced (training
    /// forward per batch, summed as it goes) over a 150-sample test set,
    /// three batches of 64 / 64 / 22, the last one partial: bitwise the
    /// same `(loss, accuracy)` at every thread budget.
    #[test]
    fn evaluate_global_is_the_serial_loop_at_every_thread_budget() {
        let mut env = small_env(3);
        let mut rng = TensorRng::seed_from(11);
        env.test_set = SyntheticVision::mnist_like()
            .generate(1, 150, &mut rng)
            .unwrap()
            .1;
        let mut net = env.eval_net.clone();
        net.set_param_vector(&env.global).unwrap();
        let (mut loss_sum, mut correct, mut batches) = (0.0f64, 0usize, 0usize);
        for (x, y) in env.test_set.batches(EVAL_BATCH) {
            let logits = net.forward(&x).unwrap();
            loss_sum += f64::from(CrossEntropyLoss::new().forward(&logits, &y).unwrap());
            let pred = logits.argmax_rows().unwrap();
            correct += pred.iter().zip(&y).filter(|(p, l)| p == l).count();
            batches += 1;
        }
        assert_eq!((batches, env.test_set.len()), (3, 150));
        let want = (loss_sum / 3.0, correct as f64 / 150.0);
        let bits = |(l, a): (f64, f64)| (l.to_bits(), a.to_bits());
        for threads in [1, 2, 4, 8] {
            env.config.parallelism = helios_tensor::ParallelismConfig::with_threads(threads);
            let got = env.evaluate_global().unwrap();
            assert_eq!(bits(got), bits(want), "{threads} threads");
        }
    }

    #[test]
    fn construction_validates_fleet() {
        let mut rng = TensorRng::seed_from(0);
        let (train, test) = SyntheticVision::mnist_like()
            .generate(20, 10, &mut rng)
            .unwrap();
        let err = FlEnv::new(
            ModelKind::LeNet,
            presets::mixed_fleet(1, 1),
            vec![train],
            test.clone(),
            FlConfig::default(),
        );
        assert!(matches!(err, Err(FlError::FleetMismatch { .. })));
        let err = FlEnv::new(ModelKind::LeNet, vec![], vec![], test, FlConfig::default());
        assert!(matches!(err, Err(FlError::InvalidStrategyConfig { .. })));
    }

    #[test]
    fn clients_start_from_identical_global() {
        let env = small_env(1);
        let g = env.global().to_vec();
        for c in env.clients() {
            assert_eq!(c.network().param_vector(), g);
        }
    }

    #[test]
    fn same_seed_envs_are_identical() {
        let a = small_env(5);
        let b = small_env(5);
        assert_eq!(a.global(), b.global());
        let c = small_env(6);
        assert_ne!(a.global(), c.global());
    }

    #[test]
    fn broadcast_and_evaluate() {
        let mut env = small_env(2);
        env.broadcast_global(3).unwrap();
        let (loss, acc) = env.evaluate_global().unwrap();
        assert!(loss > 0.0);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn join_client_receives_global() {
        let mut env = small_env(3);
        let mut rng = TensorRng::seed_from(77);
        let (extra, _) = SyntheticVision::mnist_like()
            .generate(20, 0, &mut rng)
            .unwrap();
        let id = env.join_client(presets::raspberry_pi(), extra).unwrap();
        assert_eq!(id, 2);
        assert_eq!(env.num_clients(), 3);
        assert_eq!(
            env.client(id).unwrap().network().param_vector(),
            env.global()
        );
    }

    #[test]
    fn unknown_client_errors() {
        let env = small_env(4);
        assert!(matches!(env.client(9), Err(FlError::UnknownClient { .. })));
    }

    #[test]
    fn set_global_rejects_length_change() {
        let mut env = small_env(4);
        let n = env.global().len();
        let err = env.set_global(vec![0.0; 3]);
        assert!(
            matches!(
                err,
                Err(FlError::GlobalLengthMismatch {
                    expected,
                    actual: 3,
                }) if expected == n
            ),
            "{err:?}"
        );
        // A correct-length replacement is accepted.
        env.set_global(vec![0.0; n]).unwrap();
        assert!(env.global().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn invalid_run_config_rejected() {
        let mut rng = TensorRng::seed_from(0);
        let (train, test) = SyntheticVision::mnist_like()
            .generate(20, 10, &mut rng)
            .unwrap();
        let bad = FlConfig {
            learning_rate: f32::NAN,
            ..FlConfig::default()
        };
        let err = FlEnv::new(
            ModelKind::LeNet,
            presets::mixed_fleet(1, 0),
            vec![train],
            test,
            bad,
        );
        assert!(
            matches!(err, Err(FlError::InvalidRunConfig { .. })),
            "{err:?}"
        );
        assert!(FlConfig {
            batch_size: 0,
            ..FlConfig::default()
        }
        .validate()
        .is_err());
        FlConfig::default().validate().unwrap();
    }

    /// Configs serialized before the `net` section existed (and before
    /// `parallelism`), naming the since-retired `local_epochs`,
    /// `momentum`, `eval_batch` and `workload_scale` keys, must keep
    /// deserializing, with networking disabled.
    #[test]
    fn pre_net_config_json_still_loads() {
        let legacy = r#"{
            "batch_size": 16,
            "local_epochs": 1,
            "learning_rate": 0.05,
            "momentum": 0.9,
            "eval_batch": 64,
            "seed": 42,
            "workload_scale": 2000.0
        }"#;
        let cfg: FlConfig = serde_json::from_str(legacy).unwrap();
        // The retired recipe keys are ignored: the run's recipe is fixed.
        assert_eq!(cfg, FlConfig::default());
        assert!(!cfg.net.enabled);
        assert_eq!(cfg.net, NetConfig::default());
        assert!(!cfg.sampling.enabled, "sampling defaults to disabled");
        assert!(cfg.scenario.is_empty(), "scenario defaults to empty");
        cfg.validate().unwrap();
        // A sampling section naming the retired availability-weighted
        // draw loads as uniform sampling.
        let sampling: crate::SamplerConfig = serde_json::from_str(
            r#"{"enabled": true, "per_round": 5, "strategy": "WeightedByAvailability"}"#,
        )
        .unwrap();
        assert_eq!(sampling, crate::SamplerConfig::uniform(5));
        // And a round-trip of the current shape preserves the section.
        let enabled = FlConfig {
            net: NetConfig {
                enabled: true,
                ..NetConfig::default()
            },
            ..FlConfig::default()
        };
        let json = serde_json::to_string(&enabled).unwrap();
        let back: FlConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, enabled);
    }

    #[test]
    fn route_updates_passthrough_when_disabled() {
        let mut env = small_env(7);
        assert!(env.transport().is_none());
        env.broadcast_global(0).unwrap();
        let updates = env.train_selected(&[0, 1]).unwrap();
        let times: Vec<SimTime> = env.clients().map(Client::cycle_time).collect();
        let expect_params: Vec<Vec<f32>> = updates.iter().map(|u| u.params.clone()).collect();
        let routed = env.route_updates(0, updates, &times).unwrap();
        assert!(routed.missed.is_empty());
        assert_eq!(
            routed.cycle_time,
            times.iter().copied().fold(SimTime::ZERO, SimTime::max)
        );
        let got: Vec<Vec<f32>> = routed.updates.iter().map(|u| u.params.clone()).collect();
        assert_eq!(got, expect_params);
        assert_eq!(env.comm_overhead(0).unwrap(), SimTime::ZERO);
        assert_eq!(
            env.combined_cycle_time(0).unwrap(),
            env.client(0).unwrap().cycle_time()
        );
        assert!(env.set_link(0, LinkProfile::ideal()).is_err());
    }

    #[test]
    fn ideal_transport_is_bitwise_transparent() {
        let mut direct = small_env(8);
        let mut routed_env = small_env_with(
            8,
            NetConfig {
                enabled: true,
                ..NetConfig::default()
            },
        );
        direct.broadcast_global(0).unwrap();
        routed_env.broadcast_global(0).unwrap();
        let du = direct.train_selected(&[0, 1]).unwrap();
        let ru = routed_env.train_selected(&[0, 1]).unwrap();
        let times: Vec<SimTime> = direct.clients().map(Client::cycle_time).collect();
        let d = direct.route_updates(0, du, &times).unwrap();
        let r = routed_env.route_updates(0, ru, &times).unwrap();
        assert!(r.missed.is_empty());
        assert_eq!(d.cycle_time, r.cycle_time, "ideal links add zero time");
        assert_eq!(d.updates.len(), r.updates.len());
        for (a, b) in d.updates.iter().zip(&r.updates) {
            let ab: Vec<u32> = a.params.iter().map(|p| p.to_bits()).collect();
            let bb: Vec<u32> = b.params.iter().map(|p| p.to_bits()).collect();
            assert_eq!(ab, bb, "wire roundtrip must be bit-exact");
        }
        let stats = routed_env.transport().unwrap().stats();
        assert!(stats.bytes_on_wire > 0);
        assert_eq!(stats.retries, 0);
    }

    fn net_with_mode(mode: helios_net::CompressionMode, topk_ratio: f64) -> NetConfig {
        NetConfig {
            enabled: true,
            compression: helios_net::CompressionConfig { mode, topk_ratio },
            ..NetConfig::default()
        }
    }

    /// Full-ratio top-k frames reconstruct every update bit-for-bit, so
    /// routing through them is as transparent as v1.
    #[test]
    fn lossless_v2_compression_is_bitwise_transparent() {
        use helios_net::CompressionMode;
        let mut direct = small_env(8);
        let mut routed_env = small_env_with(8, net_with_mode(CompressionMode::TopK, 1.0));
        direct.broadcast_global(0).unwrap();
        routed_env.broadcast_global(0).unwrap();
        let du = direct.train_selected(&[0, 1]).unwrap();
        let ru = routed_env.train_selected(&[0, 1]).unwrap();
        let times: Vec<SimTime> = direct.clients().map(Client::cycle_time).collect();
        let d = direct.route_updates(0, du, &times).unwrap();
        let r = routed_env.route_updates(0, ru, &times).unwrap();
        assert!(r.missed.is_empty());
        for (a, b) in d.updates.iter().zip(&r.updates) {
            let ab: Vec<u32> = a.params.iter().map(|p| p.to_bits()).collect();
            let bb: Vec<u32> = b.params.iter().map(|p| p.to_bits()).collect();
            assert_eq!(ab, bb, "top-k roundtrip must be bit-exact");
        }
        let up = routed_env.transport().unwrap().stats().bytes_on_wire;
        let v1 = d
            .updates
            .iter()
            .map(|u| codec::WireSize::full(u.params.len()).total_bytes())
            .sum::<usize>();
        assert!(up > 0 && v1 > 0);
    }

    /// The analytic comm estimate follows the configured mode.
    #[test]
    fn comm_overhead_reflects_compression_mode() {
        use helios_net::CompressionMode;
        let slow = NetConfig {
            link: crate::LinkProfile::constrained(1e6, 0.0),
            ..net_with_mode(CompressionMode::None, 0.1)
        };
        let env_v1 = small_env_with(4, slow);
        let env_topk = small_env_with(
            4,
            NetConfig {
                compression: helios_net::CompressionConfig {
                    mode: CompressionMode::TopK,
                    topk_ratio: 0.1,
                },
                ..slow
            },
        );
        let t_v1 = env_v1.comm_overhead(0).unwrap();
        let t_topk = env_topk.comm_overhead(0).unwrap();
        assert!(
            t_topk < t_v1,
            "top-k uploads must plan cheaper than v1 ({t_topk:?} vs {t_v1:?})"
        );
    }

    fn lazy_spec(population: usize, seed: u64) -> FleetSpec {
        FleetSpec::new(
            population,
            helios_device::ProfileSynthesizer::new(seed, 0.3),
            helios_data::ShardSynthesizer::new(SyntheticVision::mnist_like(), 8, seed).unwrap(),
        )
    }

    #[test]
    fn lazy_env_matches_eager_twin_bitwise() {
        let spec = lazy_spec(3, 21);
        let test = spec.shards.test_set(40).unwrap();
        let config = FlConfig {
            seed: 21,
            ..FlConfig::default()
        };
        // The eager twin materializes the same generators by hand.
        let fleet: Vec<_> = (0..3).map(|i| spec.profiles.profile(i)).collect();
        let shards: Vec<_> = (0..3).map(|i| spec.shards.shard(i).unwrap()).collect();
        let mut eager = FlEnv::new(
            ModelKind::LeNet,
            fleet,
            shards,
            test.clone(),
            config.clone(),
        )
        .unwrap();
        let mut lazy = FlEnv::new_lazy(ModelKind::LeNet, spec, test, config).unwrap();
        assert_eq!(eager.materialized_clients(), 3);
        assert_eq!(lazy.materialized_clients(), 0);
        assert_eq!(eager.global(), lazy.global());
        // Sampling disabled: the cohort is the whole population, and
        // materialization reproduces the eager clients bit-for-bit.
        let cohort = lazy.select_cohort(0).unwrap();
        assert_eq!(cohort, vec![0, 1, 2]);
        assert_eq!(lazy.materialized_clients(), 3);
        for i in 0..3 {
            let a = eager.client(i).unwrap();
            let b = lazy.client(i).unwrap();
            assert_eq!(a.network().param_vector(), b.network().param_vector());
            assert_eq!(a.profile(), b.profile());
            assert_eq!(a.cycle_time(), b.cycle_time());
        }
        eager.broadcast_global(0).unwrap();
        lazy.broadcast_global(0).unwrap();
        let eu = eager.train_selected(&cohort).unwrap();
        let lu = lazy.train_selected(&cohort).unwrap();
        for (a, b) in eu.iter().zip(&lu) {
            assert_eq!(a.client, b.client);
            let ab: Vec<u32> = a.params.iter().map(|p| p.to_bits()).collect();
            let bb: Vec<u32> = b.params.iter().map(|p| p.to_bits()).collect();
            assert_eq!(ab, bb, "client {} diverged", a.client);
        }
    }

    #[test]
    fn lazy_cohorts_materialize_and_evict_on_demand() {
        let spec = lazy_spec(50, 13).evict_unsampled();
        let test = spec.shards.test_set(20).unwrap();
        let config = FlConfig {
            seed: 13,
            sampling: SamplerConfig::uniform(4),
            ..FlConfig::default()
        };
        let mut env = FlEnv::new_lazy(ModelKind::LeNet, spec, test, config.clone()).unwrap();
        assert_eq!(env.num_clients(), 50);
        let c0 = env.select_cohort(0).unwrap();
        assert_eq!(c0.len(), 4);
        assert_eq!(env.materialized_clients(), 4);
        // Unmaterialized enrolled devices are distinguishable from
        // out-of-range ids.
        let outside = (0..50).find(|i| !c0.contains(i)).unwrap();
        assert!(matches!(
            env.client(outside),
            Err(FlError::InvalidRunConfig { .. })
        ));
        assert!(matches!(env.client(99), Err(FlError::UnknownClient { .. })));
        // Eviction caps the cache at O(cohort) across cycles.
        let c1 = env.select_cohort(1).unwrap();
        assert_ne!(c0, c1);
        assert_eq!(env.materialized_clients(), 4);
        // … and keeps exactly the cohort.
        assert_eq!(env.clients().map(Client::id).collect::<Vec<_>>(), c1);
        // Selection replays bitwise on a fresh twin.
        let spec = lazy_spec(50, 13).evict_unsampled();
        let test = spec.shards.test_set(20).unwrap();
        let mut twin = FlEnv::new_lazy(ModelKind::LeNet, spec, test, config).unwrap();
        assert_eq!(twin.select_cohort(0).unwrap(), c0);
        assert_eq!(twin.select_cohort(1).unwrap(), c1);
    }

    /// One store behind both constructors: residents iterate in
    /// ascending id order however they got there (built up front,
    /// materialized out of order, or joined).
    #[test]
    fn store_keeps_residents_in_id_order_for_both_constructors() {
        let ids = |env: &FlEnv| env.clients().map(Client::id).collect::<Vec<_>>();
        let mut rng = TensorRng::seed_from(3);
        let (extra, _) = SyntheticVision::mnist_like()
            .generate(16, 0, &mut rng)
            .unwrap();

        let mut eager = small_env(3);
        assert_eq!((eager.num_clients(), eager.materialized_clients()), (2, 2));
        assert_eq!(ids(&eager), vec![0, 1]);
        let id = eager
            .join_client(presets::raspberry_pi(), extra.clone())
            .unwrap();
        assert_eq!(ids(&eager), vec![0, 1, id]);
        assert_eq!(eager.client(id).unwrap().id(), 2);

        let spec = lazy_spec(6, 5);
        let test = spec.shards.test_set(20).unwrap();
        let mut lazy = FlEnv::new_lazy(ModelKind::LeNet, spec, test, FlConfig::default()).unwrap();
        assert_eq!((lazy.num_clients(), lazy.materialized_clients()), (6, 0));
        lazy.ensure_client(4).unwrap();
        lazy.ensure_client(1).unwrap();
        assert_eq!(ids(&lazy), vec![1, 4]);
        let id = lazy.join_client(presets::raspberry_pi(), extra).unwrap();
        assert_eq!((lazy.num_clients(), lazy.materialized_clients()), (7, 3));
        assert_eq!(ids(&lazy), vec![1, 4, id]);
        assert_eq!(lazy.client(id).unwrap().id(), 6);
        // The joiner is a resident like any other: it trains in a cohort.
        let updates = lazy.train_selected(&[id, 1]).unwrap();
        assert_eq!(updates[0].client, id);
    }

    /// Scenario joins draw newcomers from the store's generator source,
    /// so a join timeline is rejected at construction without one (or
    /// with one that would evict the joiner).
    #[test]
    fn join_timeline_needs_a_retaining_generator_source() {
        let config = FlConfig {
            scenario: helios_scenario::ScenarioConfig {
                churn: vec![helios_scenario::ChurnEvent {
                    cycle: 1,
                    action: helios_scenario::ChurnAction::Join,
                    device: 0,
                    count: 1,
                }],
                ..Default::default()
            },
            ..FlConfig::default()
        };
        let lazy = |spec: FleetSpec| {
            let test = spec.shards.test_set(20).unwrap();
            FlEnv::new_lazy(ModelKind::LeNet, spec, test, config.clone())
        };
        let rejected = |env: Result<FlEnv>, why: &str| match env {
            Err(FlError::InvalidRunConfig { what }) => assert!(what.contains(why), "{what}"),
            other => panic!("expected a rejected join timeline, got {other:?}"),
        };
        let spec = lazy_spec(2, 9);
        let fleet: Vec<_> = (0..2).map(|i| spec.profiles.profile(i)).collect();
        let shards: Vec<_> = (0..2).map(|i| spec.shards.shard(i).unwrap()).collect();
        let test = spec.shards.test_set(20).unwrap();
        rejected(
            FlEnv::new(ModelKind::LeNet, fleet, shards, test, config.clone()),
            "require a lazy fleet",
        );
        rejected(lazy(lazy_spec(2, 9).evict_unsampled()), "retention");
        let mut env = lazy(lazy_spec(2, 9)).unwrap();
        env.scenario_begin_cycle(1).unwrap();
        assert_eq!(env.num_clients(), 3);
        assert_eq!(env.client(2).unwrap().id(), 2);
    }

    #[test]
    fn lazy_join_requires_retention() {
        let mut rng = TensorRng::seed_from(3);
        let (extra, _) = SyntheticVision::mnist_like()
            .generate(16, 0, &mut rng)
            .unwrap();
        let spec = lazy_spec(4, 5).evict_unsampled();
        let test = spec.shards.test_set(20).unwrap();
        let mut env = FlEnv::new_lazy(ModelKind::LeNet, spec, test, FlConfig::default()).unwrap();
        assert!(matches!(
            env.join_client(presets::raspberry_pi(), extra.clone()),
            Err(FlError::InvalidRunConfig { .. })
        ));
        // With retention the newcomer joins and starts from the global.
        let spec = lazy_spec(4, 5);
        let test = spec.shards.test_set(20).unwrap();
        let mut env = FlEnv::new_lazy(ModelKind::LeNet, spec, test, FlConfig::default()).unwrap();
        let id = env.join_client(presets::raspberry_pi(), extra).unwrap();
        assert_eq!(id, 4);
        assert_eq!(env.num_clients(), 5);
        assert_eq!(
            env.client(id).unwrap().network().param_vector(),
            env.global()
        );
    }

    #[test]
    fn constrained_link_adds_comm_overhead() {
        let mut env = small_env_with(
            11,
            NetConfig {
                enabled: true,
                ..NetConfig::default()
            },
        );
        env.set_link(0, LinkProfile::constrained(1_000_000.0, 0.01))
            .unwrap();
        let overhead = env.comm_overhead(0).unwrap();
        assert!(overhead > SimTime::ZERO);
        assert_eq!(
            env.combined_cycle_time(0).unwrap(),
            env.client(0).unwrap().cycle_time() + overhead
        );
        // Client 1 keeps the ideal default.
        assert_eq!(env.comm_overhead(1).unwrap(), SimTime::ZERO);
        assert!(matches!(
            env.set_link(9, LinkProfile::ideal()),
            Err(FlError::UnknownClient { .. })
        ));
    }
}
