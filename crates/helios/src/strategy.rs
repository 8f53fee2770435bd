//! [`HeliosStrategy`]: the full pipeline packaged as a drop-in
//! [`helios_fl::Strategy`].

use crate::softtrain::{contributions_from_delta, Contributions, SoftTrainer};
use crate::{aggregation, identify, target, HeliosError, Result};
use helios_device::SimTime;
use helios_fl::{FlEnv, MaskedUpdate, RoundPolicy, RoutedCycle};
use helios_nn::NeuronLayout;
use helios_tensor::{map_indexed, TensorRng};
use std::collections::{BTreeMap, BTreeSet};

/// Straggler identification is resource-based profiling (§IV.B, white
/// box): a device whose combined cycle time exceeds this factor times
/// the fastest member's is a straggler.
const SLOWDOWN_THRESHOLD: f64 = 1.5;

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
}

/// Configuration of the Helios pipeline. Stragglers are always
/// identified by resource profile: a device more than 1.5× slower than
/// the fastest member (compute plus expected link time) is one.
#[derive(Debug, Clone, PartialEq)]
pub struct HeliosConfig {
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
            if let Some(l) = levels.iter().find(|&&l| !(l > 0.0 && l <= 1.0)) {
                return Err(HeliosError::InvalidConfig {
                    what: format!("volume level {l} outside (0, 1]"),
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
    /// Every straggler's state, by client id.
    stragglers: BTreeMap<usize, Straggler>,
    /// The neuron index of the run's architecture, built with the first
    /// trainer: contribution deltas (Eq 1) read it for every straggler
    /// update.
    layout: Option<NeuronLayout>,
    deadline: SimTime,
    /// Incremental (sampled-cohort) mode: classification happens per
    /// cohort instead of over the full fleet at `begin_run`.
    incremental: bool,
    /// Devices already classified — never re-profiled when re-sampled.
    /// Empty until the reference frame is established.
    classified: BTreeSet<usize>,
    /// The most recent cohort, driving the cohort-relative
    /// dynamic-volume pass in incremental mode.
    last_cohort: Vec<usize>,
}

/// One straggler's soft-training state.
#[derive(Debug, Clone)]
struct Straggler {
    /// Volume, rotation RNG and skip counters `C_s` (§VI.A).
    trainer: SoftTrainer,
    /// Contribution values `U` (Eq 1) of the last delivered update.
    contributions: Option<Contributions>,
}

impl HeliosStrategy {
    /// Creates the strategy.
    pub fn new(config: HeliosConfig) -> Self {
        HeliosStrategy {
            config,
            stragglers: BTreeMap::new(),
            layout: None,
            deadline: SimTime::ZERO,
            incremental: false,
            classified: BTreeSet::new(),
            last_cohort: Vec::new(),
        }
    }

    /// The identified straggler client ids, ascending, available after
    /// initialization.
    pub fn stragglers(&self) -> Vec<usize> {
        self.stragglers.keys().copied().collect()
    }

    /// The current expected model volume of a straggler, if it is one.
    pub fn keep_ratio(&self, client: usize) -> Option<f64> {
        self.trainer(client).map(SoftTrainer::keep)
    }

    /// Read-only access to a straggler's soft-training scheduler state
    /// (per-unit skip counters, keep ratio), for tests and diagnostics.
    pub fn trainer(&self, client: usize) -> Option<&SoftTrainer> {
        self.stragglers.get(&client).map(|s| &s.trainer)
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
        if !self.classified.is_empty() {
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
        // 1. Straggler identification, ranked slowest first. Combined
        // time = compute + expected link transfer, so a device behind a
        // constrained uplink ranks as the straggler it effectively is
        // (identical to pure compute ranking when networking is disabled).
        let ids = identify::resource_based_combined_cohort(env, members, SLOWDOWN_THRESHOLD)?;
        let mut times: Vec<(usize, f64)> = Vec::with_capacity(ids.len());
        for i in ids {
            times.push((i, env.combined_cycle_time(i)?.as_secs_f64()));
        }
        times.sort_by(|a, b| b.1.total_cmp(&a.1));
        let ranked: Vec<usize> = times.into_iter().map(|(i, _)| i).collect();
        // 2. Capable pace = slowest capable member at full volume,
        // communication included.
        let mut deadline = SimTime::ZERO;
        for &i in members {
            if !ranked.contains(&i) {
                deadline = deadline.max(env.combined_cycle_time(i)?);
            }
        }
        self.deadline = deadline;
        // 3. Volume determination + soft-trainer construction. Each fit
        // reads `env` alone, so the fits fan out over the thread budget.
        let volumes: Vec<(usize, f64)> = match &self.config.volume {
            VolumePolicy::Predefined(levels) => target::assign_predefined(&ranked, levels),
            VolumePolicy::ResourceFitted => {
                let threads = env.config().parallelism.resolve();
                let fits = map_indexed(ranked.len(), threads, |k| {
                    fitted_keep(env, deadline, ranked[k])
                });
                let keeps = fits.into_iter().collect::<Result<Vec<f64>>>()?;
                ranked.iter().copied().zip(keeps).collect()
            }
        };
        for (client, keep) in volumes {
            self.install_trainer(env, client, keep, trainer_rng(client))?;
        }
        // Record the classified frontier: devices that appear later
        // (newly sampled, the §VI.C admission path, or scenario churn)
        // are measured against the established pace when they first
        // show up in a cohort.
        self.classified.extend(members.iter().copied());
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
        let straggler = Straggler {
            trainer: SoftTrainer::new(units, keep, self.config.p_s, self.config.regulation, rng)?,
            contributions: None,
        };
        self.stragglers.insert(client, straggler);
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
        if self.classified.is_empty() {
            return Err(HeliosError::InvalidConfig {
                what: "admit_device requires an initialized strategy".into(),
            });
        }
        let id = env.join_client(profile, shard)?;
        self.classify_cohort(env, &[id])?;
        Ok(id)
    }

    /// Classifies whatever `cohort` surfaces for the first time. In
    /// incremental mode the first cohort establishes the reference frame
    /// cohort-relatively; after that (and on a fully classified fleet)
    /// newcomers — newly sampled, admitted, or joined by scenario churn —
    /// are measured against the established pace ([`straggler_keep`]),
    /// while re-sampled devices keep their classification and trainer
    /// state. A newcomer's trainer gets its own device-keyed RNG stream,
    /// so classification order never affects the draw sequence.
    fn classify_cohort(&mut self, env: &mut FlEnv, cohort: &[usize]) -> Result<()> {
        if self.classified.is_empty() {
            // Device-keyed streams (not a shared split chain): the same
            // device gets the same stream regardless of which cohort
            // first surfaced it.
            let seed = env.config().seed;
            return self.establish(env, cohort, |i| device_rng(seed, i));
        }
        // Verdicts read `env` alone, so they fan out over the thread
        // budget; trainers are installed after, in cohort order, so the
        // first error is still the first newcomer's to fail.
        let fresh: Vec<usize> = cohort
            .iter()
            .copied()
            .filter(|i| !self.classified.contains(i))
            .collect();
        let (volume, deadline) = (&self.config.volume, self.deadline);
        let threads = env.config().parallelism.resolve();
        let verdicts = map_indexed(fresh.len(), threads, |k| {
            straggler_keep(env, volume, deadline, fresh[k])
        });
        for (&i, verdict) in fresh.iter().zip(verdicts) {
            self.classified.insert(i);
            if let Some(keep) = verdict? {
                self.install_trainer(env, i, keep, device_rng(env.config().seed, i))?;
            }
        }
        Ok(())
    }
}

/// Device `id`'s classification against the established capable pace
/// (the §VI.C admission rule, also applied to devices first sampled
/// after the initial cohort): `Some(keep)` for a device slower than
/// `1.05 × deadline`, a straggler with that volume; `None` for a capable
/// one.
fn straggler_keep(
    env: &FlEnv,
    volume: &VolumePolicy,
    deadline: SimTime,
    id: usize,
) -> Result<Option<f64>> {
    let full_time = env.combined_cycle_time(id)?;
    if full_time.as_secs_f64() <= 1.05 * deadline.as_secs_f64() {
        return Ok(None);
    }
    let keep = match volume {
        // `HeliosConfig::validate` rejected an empty ladder.
        VolumePolicy::Predefined(levels) => levels[levels.len() - 1],
        VolumePolicy::ResourceFitted => fitted_keep(env, deadline, id)?,
    };
    Ok(Some(keep))
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
        }
    }

    fn begin_run(&mut self, env: &mut FlEnv) -> helios_fl::Result<()> {
        if env.sampling_enabled() {
            self.config.validate()?;
            // Classification is deferred to the first sampled cohort.
            self.incremental = true;
            return Ok(());
        }
        // Full-fleet path: a lazy environment without sampling is
        // materialized up front (identification profiles every device).
        for i in 0..env.num_clients() {
            env.ensure_client(i)?;
        }
        Ok(self.initialize(env)?)
    }

    /// Draws the cycle's cohort via [`FlEnv::select_cohort`]; devices
    /// appearing for the first time (newly sampled in incremental mode,
    /// or joined mid-run by scenario churn) are classified against the
    /// established capable pace before training begins. On a static
    /// fully-classified fleet this is a no-op.
    fn select(&mut self, env: &mut FlEnv, cycle: usize) -> helios_fl::Result<Vec<usize>> {
        let cohort = env.select_cohort(cycle)?;
        self.classify_cohort(env, &cohort)?;
        if self.incremental {
            self.last_cohort = cohort.clone();
        }
        Ok(cohort)
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
        if let Some(s) = self.stragglers.get_mut(&client) {
            // Not observed yet: the skip counters settle in `aggregate`
            // against the client's installed mask, once this cycle's
            // delivery outcome is known.
            let mask = s.trainer.next_mask(s.contributions.as_ref());
            if helios_obs::enabled() {
                let units = s.trainer.units();
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
        // Both come only from this cycle's participants, which stay
        // resident and keep the mask `configure_client` installed until
        // their next configuration. Observing optimistically at issue
        // time would reset counters for units that never contributed.
        let delivered = updates.iter().map(|u| (u.client, true));
        let missed = routed.missed.iter().map(|&client| (client, false));
        for (client, delivered) in delivered.chain(missed) {
            let Some(s) = self.stragglers.get_mut(&client) else {
                continue;
            };
            let Some(mask) = env.client(client)?.current_mask() else {
                continue;
            };
            if delivered {
                s.trainer.observe(mask);
            } else {
                s.trainer.observe_missed();
            }
            helios_obs::emit(|| helios_obs::TraceEvent::SkipSettled {
                cycle: cycle as u64,
                device: client as u64,
                delivered,
            });
        }
        // Refresh contribution values U (Eq 1) for the next selection:
        // one pure pass per delivered straggler update, fanned out over
        // the thread budget. The reference point is the global every
        // participant received at this cycle's broadcast, which only the
        // fold below replaces.
        if let Some(layout) = &self.layout {
            let delivered: Vec<_> = updates
                .iter()
                .filter_map(|u| Some((u, self.stragglers.get(&u.client)?)))
                .collect();
            let global = env.global();
            let threads = env.config().parallelism.resolve();
            let refreshed = map_indexed(delivered.len(), threads, |k| {
                let (u, s) = delivered[k];
                let c = contributions_from_delta(layout, s.trainer.units(), global, &u.params);
                (u.client, c)
            });
            for (client, c) in refreshed {
                if let Some(s) = self.stragglers.get_mut(&client) {
                    s.contributions = Some(c);
                }
            }
        }
        // §VI.B model aggregation (see AggregationMode): full vectors,
        // masked entries carrying the received global values.
        let weights: Vec<f64> = if self.config.aggregation == AggregationMode::FullWeighted {
            let ratios: Vec<f64> = updates.iter().map(|u| u.keep_ratio).collect();
            let samples: Vec<usize> = updates.iter().map(|u| u.num_samples).collect();
            aggregation::combined_weights(&ratios, &samples)
        } else {
            updates.iter().map(|u| u.num_samples as f64).collect()
        };
        env.fold_into_global(updates.iter().zip(weights).map(|(u, weight)| MaskedUpdate {
            params: &u.params,
            param_mask: None,
            weight,
        }));
        Ok(())
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
            self.stragglers()
        };
        for i in members {
            if let Some(s) = self.stragglers.get_mut(&i) {
                let trainer = &mut s.trainer;
                let masked_time = env.combined_cycle_time(i)?;
                let next = target::adjust_keep_ratio(trainer.keep(), masked_time, self.deadline);
                if (next - trainer.keep()).abs() > 1e-9 {
                    trainer.set_keep(next)?;
                }
            }
        }
        Ok(())
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

    /// The black-box time bench agrees with the resource profile the
    /// strategy identifies by (§IV.B offers either).
    #[test]
    fn time_based_identification_matches_resource_based() {
        let mut e = env(2, 2, 73);
        let mut h = HeliosStrategy::new(HeliosConfig::default());
        h.initialize(&mut e).unwrap();
        assert_eq!(identify::time_based(&e, 2, 2).unwrap(), h.stragglers());
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
        for s in ha.stragglers() {
            let keep = ha.keep_ratio(s).unwrap();
            assert!(keep < 1.0, "straggler {s} keep {keep}");
        }
        // Only sampled devices were ever instantiated.
        assert!(a.materialized_clients() < 16);
    }

    /// Newcomers join the straggler map on the cohort path: after a
    /// sampled run, the reported ids are ascending and name exactly the
    /// devices that carry a volume and a trainer.
    #[test]
    fn newcomer_stragglers_get_one_record_each() {
        let mut e = lazy_env(16, 83, helios_fl::SamplerConfig::uniform(6));
        let mut h = HeliosStrategy::new(HeliosConfig::default());
        h.run(&mut e, 3).unwrap();
        assert!(h.classified.len() > 6, "later cohorts surfaced newcomers");
        let ids = h.stragglers();
        assert!(!ids.is_empty(), "mixed cohorts have stragglers");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending: {ids:?}");
        let with_state: Vec<usize> = (0..e.num_clients())
            .filter(|&i| h.keep_ratio(i).is_some() && h.trainer(i).is_some())
            .collect();
        assert_eq!(ids, with_state);
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

    #[test]
    fn validate_checks_the_whole_volume_ladder() {
        let ladder = |levels: Vec<f64>| {
            HeliosConfig {
                volume: VolumePolicy::Predefined(levels),
                ..HeliosConfig::default()
            }
            .validate()
        };
        assert!(ladder(vec![0.25, 0.5, 1.0]).is_ok());
        assert!(ladder(vec![]).is_err());
        assert!(ladder(vec![1.5]).is_err());
        assert!(ladder(vec![0.5, 0.0]).is_err());
        assert!(ladder(vec![f64::NAN]).is_err());
    }
}
