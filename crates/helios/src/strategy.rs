//! [`HeliosStrategy`]: the full pipeline packaged as a drop-in
//! [`helios_fl::Strategy`].

use crate::softtrain::{contributions_from_delta, Contributions, SoftTrainer};
use crate::{aggregation, identify, target, HeliosError, Result};
use helios_device::SimTime;
use helios_fl::{FlEnv, MaskedUpdate, OnlineAggregator, RoundPolicy, RoutedCycle};
use helios_nn::{ModelMask, NeuronLayout};
use helios_tensor::TensorRng;
use std::collections::{BTreeSet, HashMap};

/// How stragglers are identified (§IV.B).
#[derive(Debug, Clone, PartialEq)]
pub enum Identification {
    /// Black box: rank devices by a lightweight test-bench timing and take
    /// the top `k`.
    TimeBased {
        /// Mini-batch iterations of the test bench.
        iterations: usize,
        /// Number of devices to declare stragglers.
        top_k: usize,
    },
    /// White box: evaluate the cost model on each device's resource
    /// profile; stragglers are devices slower than `slowdown_threshold`
    /// times the fastest device.
    ResourceBased {
        /// Slowdown factor above which a device is a straggler (> 1).
        slowdown_threshold: f64,
    },
}

/// How each straggler's expected model volume is determined (§IV.C).
#[derive(Debug, Clone, PartialEq)]
pub enum VolumePolicy {
    /// Assign from a predefined ladder, slowest straggler first.
    Predefined(Vec<f64>),
    /// Fit the largest volume meeting the capable devices' pace and the
    /// device memory budget, via the cost model.
    ResourceFitted,
}

/// How straggler updates enter the global average (§V.A Step 3 + §VI.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregationMode {
    /// Full parameter vectors averaged with heterogeneity weights
    /// `α_n = r_n/Σr_n` (Eq 10) composed with sample counts. Masked
    /// entries carry the straggler's received global values, so the
    /// average stays anchored ("maintains a complete model parameter
    /// updating", §III) while fuller models dominate — the paper's
    /// default Helios behaviour.
    FullWeighted,
    /// Full parameter vectors averaged with plain FedAvg sample weights —
    /// the paper's "S.T. Only" ablation (Fig 6): partial models drag the
    /// global model equally, causing the fluctuation the figure shows.
    FullPlain,
    /// Only uploaded (actually trained) neurons enter the average,
    /// α-weighted and normalized per parameter. More aggressive than the
    /// paper's rule; exposed for ablation studies.
    MaskedWeighted,
}

/// Configuration of the Helios pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct HeliosConfig {
    /// Straggler identification method.
    pub identification: Identification,
    /// Volume determination policy.
    pub volume: VolumePolicy,
    /// Fraction of each straggler's kept set reserved for top-contribution
    /// neurons (the paper selects 0.05–0.1, §VI.A).
    pub p_s: f64,
    /// The §VI.B aggregation rule (see [`AggregationMode`]).
    pub aggregation: AggregationMode,
    /// Enable the §VI.A skip-cycle regulator.
    pub regulation: bool,
    /// Number of initial cycles during which straggler volumes are
    /// dynamically adjusted toward the capable pace (§V.A Step 1:
    /// "Helios needs first few training cycles to finalize the stragglers
    /// and model volumes"). `0` disables adjustment.
    pub dynamic_volume_cycles: usize,
}

impl Default for HeliosConfig {
    fn default() -> Self {
        HeliosConfig {
            identification: Identification::ResourceBased {
                slowdown_threshold: 1.5,
            },
            volume: VolumePolicy::ResourceFitted,
            p_s: 0.1,
            aggregation: AggregationMode::FullWeighted,
            regulation: true,
            dynamic_volume_cycles: 5,
        }
    }
}

impl HeliosConfig {
    /// The paper's "S.T. Only" ablation: soft-training without the
    /// heterogeneous aggregation optimization (Fig 6 baseline).
    pub fn soft_training_only() -> Self {
        HeliosConfig {
            aggregation: AggregationMode::FullPlain,
            ..HeliosConfig::default()
        }
    }

    fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.p_s) {
            return Err(HeliosError::InvalidConfig {
                what: format!("P_s {} outside [0, 1]", self.p_s),
            });
        }
        if let VolumePolicy::Predefined(levels) = &self.volume {
            if levels.is_empty() {
                return Err(HeliosError::InvalidConfig {
                    what: "predefined volume ladder is empty".into(),
                });
            }
        }
        Ok(())
    }
}

/// The Helios federated-learning strategy (the paper's Fig 3 pipeline).
///
/// See the crate-level example for an end-to-end run.
#[derive(Debug, Clone)]
pub struct HeliosStrategy {
    config: HeliosConfig,
    stragglers: Vec<usize>,
    trainers: HashMap<usize, SoftTrainer>,
    /// The neuron index of the run's architecture, built with the first
    /// trainer: contribution deltas (Eq 1) read it for every straggler
    /// update.
    layout: Option<NeuronLayout>,
    contributions: HashMap<usize, Contributions>,
    deadline: SimTime,
    initialized: bool,
    /// The global vector every participant received at this cycle's
    /// broadcast — the reference point for contribution deltas.
    received_global: Vec<f32>,
    /// Masks issued to stragglers this cycle, settled against the
    /// trainers' skip counters only once the round outcome is known
    /// (delivered vs missed). Observing optimistically at issue time
    /// would reset counters for units that never actually contributed.
    issued_masks: HashMap<usize, ModelMask>,
    /// Incremental (sampled-cohort) mode: classification happens per
    /// cohort instead of over the full fleet at `begin_run`.
    incremental: bool,
    /// Devices already classified in incremental mode — never
    /// re-profiled when re-sampled.
    classified: BTreeSet<usize>,
    /// The most recent cohort, driving the cohort-relative
    /// dynamic-volume pass in incremental mode.
    last_cohort: Vec<usize>,
}

impl HeliosStrategy {
    /// Creates the strategy.
    pub fn new(config: HeliosConfig) -> Self {
        HeliosStrategy {
            config,
            stragglers: Vec::new(),
            trainers: HashMap::new(),
            layout: None,
            contributions: HashMap::new(),
            deadline: SimTime::ZERO,
            initialized: false,
            received_global: Vec::new(),
            issued_masks: HashMap::new(),
            incremental: false,
            classified: BTreeSet::new(),
            last_cohort: Vec::new(),
        }
    }

    /// The identified straggler client ids (sorted), available after
    /// initialization.
    pub fn stragglers(&self) -> &[usize] {
        &self.stragglers
    }

    /// The current expected model volume of a straggler, if it is one.
    pub fn keep_ratio(&self, client: usize) -> Option<f64> {
        self.trainers.get(&client).map(|t| t.keep())
    }

    /// Read-only access to a straggler's soft-training scheduler state
    /// (per-unit skip counters, keep ratio), for tests and diagnostics.
    pub fn trainer(&self, client: usize) -> Option<&SoftTrainer> {
        self.trainers.get(&client)
    }

    /// The capable-pace deadline the stragglers are fitted to.
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }

    /// Runs identification and target determination against `env`
    /// (idempotent; [`helios_fl::Strategy::run`] calls it automatically).
    ///
    /// # Errors
    ///
    /// Returns identification or volume-fitting errors.
    pub fn initialize(&mut self, env: &mut FlEnv) -> Result<()> {
        if self.initialized {
            return Ok(());
        }
        self.config.validate()?;
        let fleet: Vec<usize> = (0..env.num_clients()).collect();
        // One split chain in ranked order (pinned by the goldens).
        let mut chain = TensorRng::seed_from(env.config().seed ^ 0x48454c49); // "HELI"
        self.establish(env, &fleet, |_| chain.split())
    }

    /// Establishes the run's reference frame over `members` — the whole
    /// fleet, or the first sampled cohort — at O(members) cost and
    /// touching no device outside it:
    /// rank → deadline → volumes → trainers.
    /// `trainer_rng` yields each straggler's scheduler stream.
    fn establish(
        &mut self,
        env: &mut FlEnv,
        members: &[usize],
        mut trainer_rng: impl FnMut(usize) -> TensorRng,
    ) -> Result<()> {
        // 1. Straggler identification, ranked slowest first.
        let ranked: Vec<usize> = match &self.config.identification {
            Identification::TimeBased { iterations, top_k } => {
                // Benches the full fleet (`begin_run` rejects it for
                // sampled cohorts).
                let index = identify::test_bench_index(env, *iterations)?;
                index.iter().take(*top_k).map(|e| e.client).collect()
            }
            Identification::ResourceBased { slowdown_threshold } => {
                // Combined time = compute + expected link transfer, so a
                // device behind a constrained uplink ranks as the
                // straggler it effectively is (identical to pure compute
                // ranking when networking is disabled).
                let ids =
                    identify::resource_based_combined_cohort(env, members, *slowdown_threshold)?;
                let mut times: Vec<(usize, f64)> = Vec::with_capacity(ids.len());
                for i in ids {
                    times.push((i, env.combined_cycle_time(i)?.as_secs_f64()));
                }
                times.sort_by(|a, b| b.1.total_cmp(&a.1));
                times.into_iter().map(|(i, _)| i).collect()
            }
        };
        // 2. Capable pace = slowest capable member at full volume,
        // communication included.
        let mut deadline = SimTime::ZERO;
        for &i in members {
            if !ranked.contains(&i) {
                deadline = deadline.max(env.combined_cycle_time(i)?);
            }
        }
        self.deadline = deadline;
        // 3. Volume determination + soft-trainer construction.
        let volumes: Vec<(usize, f64)> = match &self.config.volume {
            VolumePolicy::Predefined(levels) => target::assign_predefined(&ranked, levels)?,
            VolumePolicy::ResourceFitted => {
                let mut out = Vec::with_capacity(ranked.len());
                for &i in &ranked {
                    out.push((i, fitted_keep(env, deadline, i)?));
                }
                out
            }
        };
        for (client, keep) in volumes {
            self.install_trainer(env, client, keep, trainer_rng(client))?;
        }
        self.stragglers = ranked;
        self.stragglers.sort_unstable();
        // Record the classified frontier: devices that appear later
        // (newly sampled, the §VI.C admission path, or scenario churn)
        // are measured against the established pace when they first
        // show up in a cohort.
        self.classified.extend(members.iter().copied());
        self.initialized = true;
        Ok(())
    }

    fn install_trainer(
        &mut self,
        env: &mut FlEnv,
        client: usize,
        keep: f64,
        rng: TensorRng,
    ) -> Result<()> {
        let net = env.client_mut(client)?.network();
        let units = net.maskable_units();
        self.layout.get_or_insert_with(|| net.layout());
        let trainer = SoftTrainer::new(units, keep, self.config.p_s, self.config.regulation, rng)?;
        self.trainers.insert(client, trainer);
        Ok(())
    }

    /// Admits a device that joins mid-collaboration (§VI.C): classifies it
    /// against the capable pace, assigns a volume if it is a straggler,
    /// and returns its client index.
    ///
    /// # Errors
    ///
    /// Returns an error when called before initialization, or when volume
    /// fitting fails.
    pub fn admit_device(
        &mut self,
        env: &mut FlEnv,
        profile: helios_device::ResourceProfile,
        shard: helios_data::Dataset,
    ) -> Result<usize> {
        if !self.initialized {
            return Err(HeliosError::InvalidConfig {
                what: "admit_device requires an initialized strategy".into(),
            });
        }
        let id = env.join_client(profile, shard).map_err(HeliosError::from)?;
        self.classify_device(env, id)?;
        Ok(id)
    }

    /// Classifies one device against the established capable pace (the
    /// §VI.C admission rule, also applied to devices first sampled after
    /// the initial cohort): a device slower than `1.05 × deadline`
    /// becomes a straggler with a fitted volume and its own
    /// device-keyed RNG stream, so classification order never affects
    /// the draw sequence.
    fn classify_device(&mut self, env: &mut FlEnv, id: usize) -> Result<()> {
        self.classified.insert(id);
        let full_time = env.combined_cycle_time(id)?;
        if full_time.as_secs_f64() > 1.05 * self.deadline.as_secs_f64() {
            let keep = match &self.config.volume {
                VolumePolicy::Predefined(levels) => {
                    *levels.last().ok_or_else(|| HeliosError::InvalidConfig {
                        what: "predefined volume ladder is empty".into(),
                    })?
                }
                VolumePolicy::ResourceFitted => fitted_keep(env, self.deadline, id)?,
            };
            self.install_trainer(env, id, keep, device_rng(env.config().seed, id))?;
            self.stragglers.push(id);
            self.stragglers.sort_unstable();
        }
        Ok(())
    }

    /// Classifies whatever `cohort` surfaces for the first time. In
    /// incremental mode the first cohort establishes the reference frame
    /// cohort-relatively; after that (and on a fully classified fleet)
    /// newcomers — newly sampled, admitted, or joined by scenario churn —
    /// are measured against the established pace, while re-sampled
    /// devices keep their classification and trainer state.
    fn classify_cohort(&mut self, env: &mut FlEnv, cohort: &[usize]) -> Result<()> {
        if self.incremental && !self.initialized {
            // Device-keyed streams (not a shared split chain): the same
            // device gets the same stream regardless of which cohort
            // first surfaced it.
            let seed = env.config().seed;
            return self.establish(env, cohort, |i| device_rng(seed, i));
        }
        if self.initialized {
            for &i in cohort {
                if !self.classified.contains(&i) {
                    self.classify_device(env, i)?;
                }
            }
        }
        Ok(())
    }
}

/// The largest volume whose compute fits `deadline` minus the device's
/// expected (full-volume, hence conservative) link time — shrinking the
/// model cannot speed up the download.
fn fitted_keep(env: &FlEnv, deadline: SimTime, i: usize) -> Result<f64> {
    let budget = target::comm_adjusted_deadline(deadline, env.comm_overhead(i)?);
    target::fitted_keep_ratio(env.client(i)?, budget)
}

/// The scheduler stream of a device classified on its own.
fn device_rng(seed: u64, id: usize) -> TensorRng {
    TensorRng::seed_from(seed ^ (id as u64) << 8)
}

/// The Helios pipeline expressed as `helios_fl` round-lifecycle hooks:
/// the shared [`helios_fl::RoundDriver`] owns the cycle loop (broadcast →
/// train → route → aggregate → evaluate) while these hooks contribute the
/// §IV–§VI policy decisions. Cycles are numbered from 0 on every
/// [`helios_fl::Strategy::run`] call, so the dynamic-volume settling
/// window applies per call.
impl RoundPolicy for HeliosStrategy {
    fn name(&self) -> &str {
        match self.config.aggregation {
            AggregationMode::FullWeighted => "helios",
            AggregationMode::FullPlain => "helios_st_only",
            AggregationMode::MaskedWeighted => "helios_masked",
        }
    }

    fn begin_run(&mut self, env: &mut FlEnv) -> helios_fl::Result<()> {
        if env.sampling_enabled() {
            if matches!(self.config.identification, Identification::TimeBased { .. }) {
                return Err(to_fl_error(HeliosError::InvalidConfig {
                    what: "time-based identification benches the full fleet; \
                           use ResourceBased identification with cohort sampling"
                        .into(),
                }));
            }
            self.config.validate().map_err(to_fl_error)?;
            // Classification is deferred to the first sampled cohort.
            self.incremental = true;
            return Ok(());
        }
        // Full-fleet path: a lazy environment without sampling is
        // materialized up front (identification profiles every device).
        for i in 0..env.num_clients() {
            env.ensure_client(i)?;
        }
        self.initialize(env).map_err(to_fl_error)
    }

    /// Draws the cycle's cohort via [`FlEnv::select_cohort`]; devices
    /// appearing for the first time (newly sampled in incremental mode,
    /// or joined mid-run by scenario churn) are classified against the
    /// established capable pace before training begins. On a static
    /// fully-classified fleet this is a no-op.
    fn select(&mut self, env: &mut FlEnv, cycle: usize) -> helios_fl::Result<Vec<usize>> {
        let cohort = env.select_cohort(cycle)?;
        self.classify_cohort(env, &cohort).map_err(to_fl_error)?;
        if self.incremental {
            self.last_cohort = cohort.clone();
        }
        Ok(cohort)
    }

    fn broadcast(
        &mut self,
        env: &mut FlEnv,
        cycle: usize,
        _participants: &[usize],
    ) -> helios_fl::Result<()> {
        env.broadcast_global(cycle)?;
        // The reference point for this cycle's contribution deltas.
        self.received_global = env.global().to_vec();
        Ok(())
    }

    /// Installs this cycle's soft-training mask: stragglers get their
    /// contribution-ranked sub-model, capable devices train in full. The
    /// driver's serial participant-order pass keeps the trainers' RNG
    /// streams reproducible.
    fn configure_client(
        &mut self,
        env: &mut FlEnv,
        cycle: usize,
        client: usize,
    ) -> helios_fl::Result<()> {
        if let Some(trainer) = self.trainers.get_mut(&client) {
            let mask = trainer.next_mask(self.contributions.get(&client));
            // Stash rather than observe: the skip counters settle in
            // `aggregate`, once this cycle's delivery outcome is known.
            self.issued_masks.insert(client, mask.clone());
            if helios_obs::enabled() {
                let units = trainer.units();
                let active: usize = mask.active_counts(units).iter().sum();
                helios_obs::emit(|| helios_obs::TraceEvent::MaskIssued {
                    cycle: cycle as u64,
                    device: client as u64,
                    active_units: active as u64,
                    total_units: units.total() as u64,
                });
            }
            env.client_mut(client)?.set_masks(Some(mask))?;
        } else {
            env.client_mut(client)?.set_masks(None)?;
        }
        Ok(())
    }

    fn aggregate(
        &mut self,
        env: &mut FlEnv,
        cycle: usize,
        routed: &RoutedCycle,
    ) -> helios_fl::Result<()> {
        let updates = &routed.updates;
        // Settle this cycle's mask issuance now that the round outcome
        // is known (§VI.A): a delivered update resets its active units'
        // skip counters, while a missed cycle (update dropped or timed
        // out) increments *every* counter — the scheduled units were
        // wasted and the idle ones skipped another cycle regardless.
        let delivered = updates.iter().map(|u| (u.client, true));
        let missed = routed.missed.iter().map(|&client| (client, false));
        for (client, delivered) in delivered.chain(missed) {
            let issued = self.issued_masks.remove(&client);
            if let (Some(mask), Some(trainer)) = (issued, self.trainers.get_mut(&client)) {
                if delivered {
                    trainer.observe(&mask);
                } else {
                    trainer.observe_missed();
                }
                helios_obs::emit(|| helios_obs::TraceEvent::SkipSettled {
                    cycle: cycle as u64,
                    device: client as u64,
                    delivered,
                });
            }
        }
        self.issued_masks.clear();
        // Refresh contribution values U (Eq 1) for the next selection.
        for u in updates {
            if let (Some(trainer), Some(layout)) = (self.trainers.get(&u.client), &self.layout) {
                let (global, units) = (&self.received_global, trainer.units());
                let c = contributions_from_delta(layout, units, global, &u.params);
                self.contributions.insert(u.client, c);
            }
        }
        // §VI.B model aggregation (see AggregationMode).
        let weighted = self.config.aggregation != AggregationMode::FullPlain;
        let weights: Vec<f64> = if weighted {
            let ratios: Vec<f64> = updates.iter().map(|u| u.keep_ratio).collect();
            let samples: Vec<usize> = updates.iter().map(|u| u.num_samples).collect();
            aggregation::combined_weights(&ratios, &samples)
        } else {
            updates.iter().map(|u| u.num_samples as f64).collect()
        };
        let masked_upload = self.config.aggregation == AggregationMode::MaskedWeighted;
        let mut global = env.global().to_vec();
        // Stream the fold: one update at a time through the online
        // accumulator — O(model) server state even for fleet-scale
        // cohorts.
        let mut acc = OnlineAggregator::new(global.len());
        for (u, &w) in updates.iter().zip(&weights) {
            acc.push(&MaskedUpdate {
                params: &u.params,
                param_mask: if masked_upload {
                    u.param_mask.as_deref()
                } else {
                    None
                },
                weight: w,
            });
        }
        acc.finish_into(&mut global);
        env.set_global(global)
    }

    /// Dynamic volume adjustment toward the capable pace, during the
    /// settling window only. The observed pace is the combined
    /// masked-compute + link time — what the server actually waits on.
    fn post_cycle(&mut self, env: &mut FlEnv, cycle: usize) -> helios_fl::Result<()> {
        if cycle >= self.config.dynamic_volume_cycles {
            return Ok(());
        }
        // Incremental mode is cohort-relative: only this cycle's
        // participants were observed (and only they are guaranteed
        // materialized).
        let members = if self.incremental {
            self.last_cohort.clone()
        } else {
            (0..env.num_clients()).collect()
        };
        for &i in &members {
            if let Some(trainer) = self.trainers.get_mut(&i) {
                let masked_time = env.combined_cycle_time(i)?;
                let next = target::adjust_keep_ratio(trainer.keep(), masked_time, self.deadline);
                if (next - trainer.keep()).abs() > 1e-9 {
                    trainer.set_keep(next).map_err(to_fl_error)?;
                }
            }
        }
        Ok(())
    }
}

/// Adapts Helios errors onto the `helios_fl` error type so
/// [`HeliosStrategy`] satisfies the shared [`Strategy`] signature.
fn to_fl_error(e: HeliosError) -> helios_fl::FlError {
    match e {
        HeliosError::Fl(inner) => inner,
        other => helios_fl::FlError::InvalidStrategyConfig {
            what: other.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_data::{partition, Dataset, SyntheticVision};
    use helios_device::presets;
    use helios_fl::{FlConfig, Strategy, SyncFedAvg};
    use helios_nn::models::ModelKind;

    fn env(capable: usize, stragglers: usize, seed: u64) -> FlEnv {
        let mut rng = TensorRng::seed_from(seed);
        let clients = capable + stragglers;
        let (train, test) = SyntheticVision::mnist_like()
            .generate(60 * clients, 60, &mut rng)
            .unwrap();
        let shards: Vec<Dataset> = partition::iid(train.len(), clients, &mut rng)
            .into_iter()
            .map(|idx| train.subset(&idx).unwrap())
            .collect();
        FlEnv::new(
            ModelKind::LeNet,
            presets::mixed_fleet(capable, stragglers),
            shards,
            test,
            FlConfig {
                seed,
                ..FlConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn initialization_finds_stragglers_and_volumes() {
        let mut e = env(2, 2, 70);
        let mut h = HeliosStrategy::new(HeliosConfig::default());
        h.initialize(&mut e).unwrap();
        assert_eq!(h.stragglers(), &[2, 3]);
        for &s in &[2usize, 3] {
            let keep = h.keep_ratio(s).unwrap();
            assert!(keep < 1.0, "straggler {s} keep {keep} should shrink");
            assert!(keep >= target::MIN_KEEP_RATIO);
        }
        assert!(h.keep_ratio(0).is_none());
        assert!(h.deadline() > SimTime::ZERO);
        // Idempotent.
        let before = h.stragglers().to_vec();
        h.initialize(&mut e).unwrap();
        assert_eq!(h.stragglers(), &before[..]);
    }

    #[test]
    fn helios_keeps_pace_with_capable_devices() {
        let mut e = env(1, 1, 71);
        let mut sync_env = env(1, 1, 71);
        let mh = HeliosStrategy::new(HeliosConfig::default())
            .run(&mut e, 4)
            .unwrap();
        let ms = SyncFedAvg::new().run(&mut sync_env, 4).unwrap();
        assert!(
            mh.total_time().as_secs_f64() < 0.5 * ms.total_time().as_secs_f64(),
            "helios {} should be much faster than sync {}",
            mh.total_time(),
            ms.total_time()
        );
    }

    #[test]
    fn helios_learns() {
        let mut e = env(1, 1, 72);
        let m = HeliosStrategy::new(HeliosConfig::default())
            .run(&mut e, 8)
            .unwrap();
        assert!(m.best_accuracy() > 0.45, "accuracy {}", m.best_accuracy());
    }

    #[test]
    fn st_only_uses_plain_weights_and_different_name() {
        let h = HeliosStrategy::new(HeliosConfig::soft_training_only());
        assert_eq!(Strategy::name(&h), "helios_st_only");
        let h = HeliosStrategy::new(HeliosConfig::default());
        assert_eq!(Strategy::name(&h), "helios");
    }

    /// What justifies the shared `establish` routine: over the same
    /// members, the full-fleet entry point and a first sampled cohort
    /// reach the same classification — only the trainers' RNG streams
    /// (split chain vs device-keyed) may differ.
    #[test]
    fn initialize_and_first_cohort_agree_over_the_whole_fleet() {
        let mut e1 = env(2, 3, 79);
        let mut e2 = env(2, 3, 79);
        let mut fleet = HeliosStrategy::new(HeliosConfig::default());
        fleet.initialize(&mut e1).unwrap();
        let mut cohort = HeliosStrategy::new(HeliosConfig::default());
        cohort.incremental = true;
        let all: Vec<usize> = (0..e2.num_clients()).collect();
        cohort.classify_cohort(&mut e2, &all).unwrap();
        assert_eq!(fleet.stragglers(), &[2, 3, 4]);
        assert_eq!(fleet.stragglers(), cohort.stragglers());
        assert_eq!(fleet.deadline(), cohort.deadline());
        for i in all {
            assert_eq!(fleet.keep_ratio(i), cohort.keep_ratio(i), "device {i}");
        }
        assert_eq!(fleet.classified, cohort.classified);
    }

    #[test]
    fn time_based_identification_matches_resource_based() {
        let mut e1 = env(2, 2, 73);
        let mut e2 = env(2, 2, 73);
        let mut a = HeliosStrategy::new(HeliosConfig {
            identification: Identification::TimeBased {
                iterations: 2,
                top_k: 2,
            },
            ..HeliosConfig::default()
        });
        let mut b = HeliosStrategy::new(HeliosConfig::default());
        a.initialize(&mut e1).unwrap();
        b.initialize(&mut e2).unwrap();
        assert_eq!(a.stragglers(), b.stragglers());
    }

    #[test]
    fn predefined_volumes_are_applied() {
        let mut e = env(2, 2, 74);
        let mut h = HeliosStrategy::new(HeliosConfig {
            volume: VolumePolicy::Predefined(vec![0.2, 0.4]),
            dynamic_volume_cycles: 0,
            ..HeliosConfig::default()
        });
        h.initialize(&mut e).unwrap();
        // Slowest straggler (client 3, deeplens-like) gets 0.2.
        let k2 = h.keep_ratio(2).unwrap();
        let k3 = h.keep_ratio(3).unwrap();
        assert!(k3 <= k2, "slowest gets smallest: {k3} vs {k2}");
        assert!((k3 - 0.2).abs() < 1e-9 || (k2 - 0.2).abs() < 1e-9);
    }

    #[test]
    fn dynamic_volume_reacts_to_pace() {
        let mut e = env(1, 1, 75);
        let mut h = HeliosStrategy::new(HeliosConfig {
            volume: VolumePolicy::Predefined(vec![0.9]), // deliberately too big
            ..HeliosConfig::default()
        });
        h.initialize(&mut e).unwrap();
        let before = h.keep_ratio(1).unwrap();
        let _ = h.run(&mut e, 3).unwrap();
        let after = h.keep_ratio(1).unwrap();
        assert!(
            after < before,
            "oversized volume should shrink: {before} → {after}"
        );
    }

    #[test]
    fn admit_device_classifies_newcomers() {
        let mut e = env(1, 1, 76);
        let mut h = HeliosStrategy::new(HeliosConfig::default());
        // Must initialize first.
        let mut rng = TensorRng::seed_from(99);
        let (extra, _) = SyntheticVision::mnist_like()
            .generate(30, 0, &mut rng)
            .unwrap();
        assert!(h
            .admit_device(&mut e, presets::raspberry_pi(), extra.clone())
            .is_err());
        let _ = h.run(&mut e, 2).unwrap();
        // A straggler-class newcomer gets a volume.
        let id = h
            .admit_device(&mut e, presets::raspberry_pi(), extra.clone())
            .unwrap();
        assert!(h.stragglers().contains(&id));
        assert!(h.keep_ratio(id).unwrap() < 1.0);
        // A capable-class newcomer does not.
        let id2 = h
            .admit_device(&mut e, presets::jetson_nano(), extra)
            .unwrap();
        assert!(!h.stragglers().contains(&id2));
        assert!(h.keep_ratio(id2).is_none());
        // The enlarged fleet still runs.
        let m = h.run(&mut e, 2).unwrap();
        assert_eq!(m.records().last().unwrap().participants, 4);
    }

    fn lazy_env(population: usize, seed: u64, sampling: helios_fl::SamplerConfig) -> FlEnv {
        let spec = helios_fl::FleetSpec::new(
            population,
            helios_device::ProfileSynthesizer::new(seed, 0.5),
            helios_data::ShardSynthesizer::new(SyntheticVision::mnist_like(), 8, seed).unwrap(),
        );
        let test = spec.shards.test_set(40).unwrap();
        FlEnv::new_lazy(
            ModelKind::LeNet,
            spec,
            test,
            FlConfig {
                seed,
                sampling,
                ..FlConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn sampled_cohorts_classify_incrementally_and_deterministically() {
        let sampling = helios_fl::SamplerConfig::uniform(6);
        let mut a = lazy_env(16, 81, sampling);
        let mut b = lazy_env(16, 81, sampling);
        let mut ha = HeliosStrategy::new(HeliosConfig::default());
        let mut hb = HeliosStrategy::new(HeliosConfig::default());
        let ma = ha.run(&mut a, 3).unwrap();
        let mb = hb.run(&mut b, 3).unwrap();
        assert_eq!(ma.records(), mb.records(), "sampled runs must replay");
        for r in ma.records() {
            assert_eq!(r.participants, 6, "every cycle trains the cohort");
        }
        // Stragglers identified on the sampled cohorts carry shrunken
        // volumes; capable cohort members carry none.
        assert!(!ha.stragglers().is_empty(), "mixed cohort has stragglers");
        for &s in ha.stragglers() {
            let keep = ha.keep_ratio(s).unwrap();
            assert!(keep < 1.0, "straggler {s} keep {keep}");
        }
        // Only sampled devices were ever instantiated.
        assert!(a.materialized_clients() < 16);
    }

    #[test]
    fn time_based_identification_rejected_with_sampling() {
        let mut e = lazy_env(16, 82, helios_fl::SamplerConfig::uniform(6));
        let mut h = HeliosStrategy::new(HeliosConfig {
            identification: Identification::TimeBased {
                iterations: 2,
                top_k: 2,
            },
            ..HeliosConfig::default()
        });
        let err = h.run(&mut e, 1);
        assert!(err.is_err(), "time-based + sampling must be rejected");
    }

    #[test]
    fn helios_run_is_deterministic() {
        let mut a = env(1, 1, 77);
        let mut b = env(1, 1, 77);
        let ma = HeliosStrategy::new(HeliosConfig::default())
            .run(&mut a, 4)
            .unwrap();
        let mb = HeliosStrategy::new(HeliosConfig::default())
            .run(&mut b, 4)
            .unwrap();
        assert_eq!(ma.records(), mb.records());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut e = env(1, 1, 78);
        let mut h = HeliosStrategy::new(HeliosConfig {
            p_s: 2.0,
            ..HeliosConfig::default()
        });
        assert!(h.run(&mut e, 1).is_err());
        let mut h = HeliosStrategy::new(HeliosConfig {
            volume: VolumePolicy::Predefined(vec![]),
            ..HeliosConfig::default()
        });
        assert!(h.run(&mut e, 1).is_err());
    }
}
