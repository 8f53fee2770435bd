//! The shared experimental environment a strategy runs against.

use crate::fleet::{AvailabilityModel, FleetSpec};
use crate::sampler::{ClientSampler, SamplerConfig};
use crate::{Client, FlError, LocalUpdate, Result};
use helios_data::Dataset;
use helios_device::{ResourceProfile, SimClock, SimTime};
use helios_net::{codec, simulate_round, LinkProfile, NetConfig, RoundJob, SimTransport};
use helios_nn::models::ModelKind;
use helios_nn::{CrossEntropyLoss, Network};
use helios_scenario::{ChurnAction, DriftKind, EventKind, ScenarioConfig, Schedule};
use helios_tensor::{map_indexed, map_items_mut, ParallelismConfig, TensorRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Bandwidth a link collapses to during a scenario outage window. The
/// link model rejects an exact zero (transfer time would be infinite in
/// a way the scheduler cannot rank), so an outage is "one microbit per
/// second": finite, deterministic, and slower than any real profile by
/// many orders of magnitude.
const OUTAGE_TRICKLE_BPS: f64 = 1e-6;

/// Hyper-parameters shared by every strategy run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlConfig {
    /// Mini-batch size for local training.
    pub batch_size: usize,
    /// Local epochs per aggregation cycle.
    pub local_epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Batch size used for test-set evaluation.
    pub eval_batch: usize,
    /// Master seed; model init, client shuffling, and strategy randomness
    /// all derive from it, making runs bit-reproducible.
    pub seed: u64,
    /// Maps the scaled experiment models' analytic FLOPs/memory to the
    /// magnitude of the paper's full-size models (32×32 inputs, full
    /// channel counts, full datasets), so `W/C_cpu` dominates the cost
    /// formula as in Table I. Affects only *simulated* time, never the
    /// learned parameters.
    pub workload_scale: f64,
    /// Thread budget for the parallel execution engine: caps the client
    /// fan-out of [`FlEnv::train_all`] and the kernel width during
    /// evaluation. Results are bitwise identical for every setting —
    /// parallelism trades wall-clock time only (see `helios_tensor`'s
    /// parallel module). Defaults to auto-detect.
    #[serde(default)]
    pub parallelism: ParallelismConfig,
    /// Simulated-network section: per-device link profile, fault
    /// injection, retries, and the per-round deadline. Defaults to
    /// *disabled* (direct in-memory exchange), so configs and result
    /// files written before this section existed keep loading
    /// unchanged.
    #[serde(default)]
    pub net: NetConfig,
    /// Per-round client sampling for fleet-scale populations. Defaults
    /// to *disabled* (every enrolled device participates every round),
    /// so configs written before this section existed keep loading
    /// unchanged.
    #[serde(default)]
    pub sampling: SamplerConfig,
    /// Declarative scenario timeline: device churn, diurnal availability
    /// waves, battery/thermal throttling, and data drift. Defaults to
    /// *empty* (a static fleet — bit-identical to runs before the
    /// scenario engine existed), so older configs keep loading
    /// unchanged.
    #[serde(default)]
    pub scenario: ScenarioConfig,
}

impl Default for FlConfig {
    fn default() -> Self {
        FlConfig {
            batch_size: 16,
            local_epochs: 1,
            learning_rate: 0.05,
            momentum: 0.9,
            eval_batch: 64,
            seed: 42,
            workload_scale: 2000.0,
            parallelism: ParallelismConfig::auto(),
            net: NetConfig::default(),
            sampling: SamplerConfig::default(),
            scenario: ScenarioConfig::default(),
        }
    }
}

impl FlConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidRunConfig`] for zero batch/epoch
    /// counts, a non-finite or non-positive learning rate or workload
    /// scale, a momentum outside `[0, 1)`, or an invalid `net` section.
    pub fn validate(&self) -> Result<()> {
        let invalid = |what: String| Err(FlError::InvalidRunConfig { what });
        if self.batch_size == 0 {
            return invalid("batch_size must be nonzero".into());
        }
        if self.eval_batch == 0 {
            return invalid("eval_batch must be nonzero".into());
        }
        if self.local_epochs == 0 {
            return invalid("local_epochs must be nonzero".into());
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return invalid(format!(
                "learning_rate {} must be positive and finite",
                self.learning_rate
            ));
        }
        if !(self.momentum.is_finite() && (0.0..1.0).contains(&self.momentum)) {
            return invalid(format!("momentum {} outside [0, 1)", self.momentum));
        }
        if !(self.workload_scale.is_finite() && self.workload_scale > 0.0) {
            return invalid(format!(
                "workload_scale {} must be positive and finite",
                self.workload_scale
            ));
        }
        self.sampling.validate()?;
        self.net.validate().map_err(FlError::Net)
    }
}

/// The result of routing one cycle's updates through the simulated
/// transport (see [`FlEnv::route_updates`]).
#[derive(Debug, Clone)]
pub struct RoutedCycle {
    /// The delivered updates, in client order, with parameters decoded
    /// from their wire frames. Participants that missed the cycle are
    /// absent.
    pub updates: Vec<LocalUpdate>,
    /// The round's simulated span: `max(compute + comm)` over delivered
    /// participants, extended to the deadline when someone missed it.
    pub cycle_time: SimTime,
    /// Client ids that missed the cycle (retry exhaustion or deadline).
    pub missed: Vec<usize>,
}

/// Client storage: either the full fleet constructed up front (the
/// pre-fleet path, unchanged behavior) or a lazily materialized
/// population described by a [`FleetSpec`].
// One store per environment: the variant size gap is irrelevant, and
// boxing the lazy half would cost an indirection on every client access.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum ClientStore {
    /// Every client lives in memory for the whole run.
    Eager(Vec<Client>),
    /// Clients are materialized on demand from pure per-device
    /// generators; unsampled devices cost 8 bytes (their RNG seed).
    Lazy(LazyFleet),
}

/// The lazy half of [`ClientStore`].
#[derive(Debug, Clone)]
struct LazyFleet {
    spec: FleetSpec,
    /// Pristine post-init model cloned into each materialized client.
    /// (`FlEnv::eval_net` cannot serve this role: evaluation mutates it.)
    template: Network,
    /// The master RNG's split chain, one recorded seed per device, so
    /// client `i` constructed at any later time gets bit-for-bit the RNG
    /// the eager constructor would have handed it.
    seeds: Vec<u64>,
    /// Materialized clients, keyed by id. Iteration order is ascending
    /// id, matching the eager vector.
    cache: BTreeMap<usize, Client>,
}

/// Mutable scenario-engine state carried by the environment for the
/// duration of one run. Absent (`None`) when the config's scenario is
/// empty, which guarantees zero behavioral change for pre-scenario
/// runs.
#[derive(Debug, Clone)]
struct ScenarioRuntime {
    /// The compiled, time-sorted event timeline.
    schedule: Schedule,
    /// Devices currently departed (scenario `Leave` without a matching
    /// `Return`). They are filtered out of every cohort but keep their
    /// id, skip counters, and materialized state, so a `Return` resumes
    /// them exactly where they left off — Helios's device-id-keyed
    /// collaboration state survives churn.
    offline: BTreeSet<usize>,
    /// Cycle currently being driven; consulted when a client is
    /// materialized mid-run so it picks up the throttle scale already
    /// in force.
    current_cycle: usize,
    /// Index into `schedule.events()` of the first unapplied event.
    next_event: usize,
}

impl LazyFleet {
    /// Constructs client `i` from the spec's pure generators and its
    /// recorded seed. Pure in `i`: materializing in any order, or after
    /// eviction, yields identical clients.
    fn materialize(&self, i: usize, config: &FlConfig) -> Result<Client> {
        let shard = self.spec.shards.shard(i)?;
        let profile = self.spec.profiles.profile(i);
        Ok(Client::new(
            i,
            self.template.clone(),
            shard,
            profile,
            config.learning_rate,
            config.momentum,
            config.batch_size,
            config.local_epochs,
            config.workload_scale,
            TensorRng::seed_from(self.seeds[i]),
        ))
    }
}

/// The full experimental setup: a fleet of [`Client`]s, the held-out test
/// set, the global parameter vector, and the simulated clock.
///
/// One `FlEnv` hosts one strategy run; construct a fresh environment (same
/// seed) per strategy to compare them from identical initial conditions.
/// See the crate-level example.
///
/// # Eager vs lazy fleets
///
/// [`FlEnv::new`] builds every client up front — right for the paper's
/// tens-of-devices experiments. [`FlEnv::new_lazy`] instead takes a
/// [`FleetSpec`] whose profiles, shards, and availability are pure
/// functions of `(seed, device_index)`, so a 100k-device population
/// costs O(1) memory per enrolled device until [`FlEnv::select_cohort`]
/// materializes the sampled cohort. A lazy environment run through the
/// same cohorts is bitwise identical to its eagerly constructed twin.
#[derive(Debug, Clone)]
pub struct FlEnv {
    store: ClientStore,
    test_set: Dataset,
    eval_net: Network,
    global: Vec<f32>,
    clock: SimClock,
    config: FlConfig,
    /// Present iff `config.net.enabled`: the simulated transport every
    /// synchronous round is routed through.
    transport: Option<SimTransport>,
    /// Participation propensities consumed by availability-weighted
    /// sampling; `always_on` unless a [`FleetSpec`] says otherwise.
    availability: AvailabilityModel,
    /// Present iff `config.scenario` is non-empty: the compiled timeline
    /// plus the churn overlay the round driver consults each cycle.
    scenario_rt: Option<ScenarioRuntime>,
}

impl FlEnv {
    /// Builds an environment: one client per `(profile, shard)` pair, all
    /// starting from the same seeded model initialization.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::FleetMismatch`] when profile and shard counts
    /// differ, [`FlError::InvalidStrategyConfig`] for an empty fleet, or
    /// [`FlError::InvalidRunConfig`] when [`FlConfig::validate`] rejects
    /// the configuration.
    pub fn new(
        model: ModelKind,
        fleet: Vec<ResourceProfile>,
        shards: Vec<Dataset>,
        test_set: Dataset,
        config: FlConfig,
    ) -> Result<Self> {
        config.validate()?;
        if fleet.len() != shards.len() {
            return Err(FlError::FleetMismatch {
                profiles: fleet.len(),
                shards: shards.len(),
            });
        }
        if fleet.is_empty() {
            return Err(FlError::InvalidStrategyConfig {
                what: "fleet must not be empty".into(),
            });
        }
        let num_classes = test_set.num_classes();
        let mut master_rng = TensorRng::seed_from(config.seed);
        let template = model.build(num_classes, &mut master_rng);
        let global = template.param_vector();
        let clients = fleet
            .into_iter()
            .zip(shards)
            .enumerate()
            .map(|(id, (profile, shard))| {
                Client::new(
                    id,
                    template.clone(),
                    shard,
                    profile,
                    config.learning_rate,
                    config.momentum,
                    config.batch_size,
                    config.local_epochs,
                    config.workload_scale,
                    master_rng.split(),
                )
            })
            .collect::<Vec<Client>>();
        let transport = if config.net.enabled {
            Some(SimTransport::new(clients.len(), &config.net, config.seed)?)
        } else {
            None
        };
        let scenario_rt = Self::build_scenario_runtime(&config, clients.len(), None)?;
        let mut availability = AvailabilityModel::always_on();
        if let Some(w) = config.scenario.diurnal {
            availability = availability.with_wave(w);
        }
        Ok(FlEnv {
            store: ClientStore::Eager(clients),
            test_set,
            eval_net: template,
            global,
            clock: SimClock::new(),
            config,
            transport,
            availability,
            scenario_rt,
        })
    }

    /// Builds a fleet-scale environment whose clients are materialized
    /// on demand from the spec's pure per-device generators.
    ///
    /// Model initialization consumes the master RNG exactly as
    /// [`FlEnv::new`] does, and the per-client split chain is recorded
    /// as one `u64` seed per enrolled device — the only per-device state
    /// held for unsampled devices. Materializing the same indices
    /// therefore reproduces the eager constructor's clients bit-for-bit,
    /// in any order, at any time.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidStrategyConfig`] for an empty
    /// population or [`FlError::InvalidRunConfig`] when
    /// [`FlConfig::validate`] rejects the configuration.
    pub fn new_lazy(
        model: ModelKind,
        spec: FleetSpec,
        test_set: Dataset,
        config: FlConfig,
    ) -> Result<Self> {
        config.validate()?;
        if spec.population == 0 {
            return Err(FlError::InvalidStrategyConfig {
                what: "fleet must not be empty".into(),
            });
        }
        let num_classes = test_set.num_classes();
        let mut master_rng = TensorRng::seed_from(config.seed);
        let template = model.build(num_classes, &mut master_rng);
        let global = template.param_vector();
        let seeds: Vec<u64> = (0..spec.population)
            .map(|_| master_rng.next_seed())
            .collect();
        let transport = if config.net.enabled {
            Some(SimTransport::new(
                spec.population,
                &config.net,
                config.seed,
            )?)
        } else {
            None
        };
        let scenario_rt =
            Self::build_scenario_runtime(&config, spec.population, Some(spec.retain_clients))?;
        let mut availability = spec.availability;
        if let Some(w) = config.scenario.diurnal {
            availability = availability.with_wave(w);
        }
        Ok(FlEnv {
            store: ClientStore::Lazy(LazyFleet {
                spec,
                template: template.clone(),
                seeds,
                cache: BTreeMap::new(),
            }),
            test_set,
            eval_net: template,
            global,
            clock: SimClock::new(),
            config,
            transport,
            availability,
            scenario_rt,
        })
    }

    /// Compiles the config's scenario timeline into runtime state, or
    /// `None` for an empty scenario (static fleet, historical behavior).
    ///
    /// `lazy_retaining` is `None` for an eager fleet, `Some(retain)` for
    /// a lazy one. Scenario `Join` events grow the population from the
    /// spec's pure generators, so they require a retaining lazy fleet.
    fn build_scenario_runtime(
        config: &FlConfig,
        population: usize,
        lazy_retaining: Option<bool>,
    ) -> Result<Option<ScenarioRuntime>> {
        if config.scenario.is_empty() {
            return Ok(None);
        }
        config
            .scenario
            .validate(population)
            .map_err(|e| FlError::InvalidRunConfig {
                what: format!("scenario: {}", e.what),
            })?;
        let has_joins = config
            .scenario
            .churn
            .iter()
            .any(|e| e.action == ChurnAction::Join);
        if has_joins {
            match lazy_retaining {
                None => {
                    return Err(FlError::InvalidRunConfig {
                        what: "scenario join events require a lazy fleet \
                               (newcomers come from the spec's generators)"
                            .into(),
                    })
                }
                Some(false) => {
                    return Err(FlError::InvalidRunConfig {
                        what: "scenario join events require client retention on the lazy fleet"
                            .into(),
                    })
                }
                Some(true) => {}
            }
        }
        Ok(Some(ScenarioRuntime {
            schedule: config.scenario.compile(),
            offline: BTreeSet::new(),
            current_cycle: 0,
            next_event: 0,
        }))
    }

    /// The run configuration.
    pub fn config(&self) -> &FlConfig {
        &self.config
    }

    /// Number of enrolled clients (for a lazy fleet: the population,
    /// materialized or not).
    pub fn num_clients(&self) -> usize {
        match &self.store {
            ClientStore::Eager(v) => v.len(),
            ClientStore::Lazy(l) => l.spec.population,
        }
    }

    /// Number of clients currently held in memory. Equals
    /// [`FlEnv::num_clients`] for eager environments; for lazy fleets it
    /// counts the cache — the fleet bench's O(cohort) memory contract.
    pub fn materialized_clients(&self) -> usize {
        match &self.store {
            ClientStore::Eager(v) => v.len(),
            ClientStore::Lazy(l) => l.cache.len(),
        }
    }

    /// Whether this environment materializes clients on demand.
    pub fn is_lazy(&self) -> bool {
        matches!(self.store, ClientStore::Lazy(_))
    }

    /// The availability model consulted by weighted sampling.
    pub fn availability_model(&self) -> &AvailabilityModel {
        &self.availability
    }

    /// Whether per-round cohort sampling is enabled in the config.
    pub fn sampling_enabled(&self) -> bool {
        self.config.sampling.enabled
    }

    /// Ensures client `i` is materialized (a bounds check on eager
    /// environments).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UnknownClient`] for an out-of-range index and
    /// propagates shard-synthesis errors.
    pub fn ensure_client(&mut self, i: usize) -> Result<()> {
        let n = self.num_clients();
        if i >= n {
            return Err(FlError::UnknownClient {
                client: i,
                num_clients: n,
            });
        }
        self.materialize_missing(&[i])
    }

    /// Materializes every client of `ids` (enrolled ids, checked by the
    /// callers) a lazy fleet does not hold yet, fanning the
    /// constructions out across the run's thread budget; a no-op on
    /// eager environments. [`LazyFleet::materialize`] is pure in the
    /// device index and emits no trace events, so the clients are
    /// bitwise those a serial walk would build; they enter the cache,
    /// and the first error surfaces, in `ids` order.
    fn materialize_missing(&mut self, ids: &[usize]) -> Result<()> {
        let ClientStore::Lazy(l) = &mut self.store else {
            return Ok(());
        };
        let missing: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|i| !l.cache.contains_key(i))
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        let config = &self.config;
        let throttle_cycle = self.scenario_rt.as_ref().map(|rt| rt.current_cycle);
        let fleet = &*l;
        let threads = config.parallelism.resolve();
        let built = map_indexed(missing.len(), threads, |slot| -> Result<Client> {
            let i = missing[slot];
            let mut client = fleet.materialize(i, config)?;
            if let Some(cycle) = throttle_cycle {
                // A device materialized mid-run picks up the throttle
                // scale already in force, exactly as if it had been
                // resident since cycle 0.
                let scale = Self::combined_compute_scale(&config.scenario, i, cycle);
                if scale != 1.0 {
                    client.set_compute_scale(scale);
                }
            }
            Ok(client)
        });
        for (i, client) in missing.into_iter().zip(built) {
            l.cache.insert(i, client?);
        }
        Ok(())
    }

    /// Product of every applicable throttle rule's compute scale for
    /// `device` at `cycle`; `1.0` when no rule is active.
    fn combined_compute_scale(scenario: &ScenarioConfig, device: usize, cycle: usize) -> f64 {
        scenario
            .throttle
            .iter()
            .filter(|r| r.applies_to(device))
            .map(|r| r.compute_scale(cycle))
            .product()
    }

    /// Product of every applicable throttle rule's bandwidth scale for
    /// `device` at `cycle`; `1.0` when no rule is active.
    fn combined_bandwidth_scale(scenario: &ScenarioConfig, device: usize, cycle: usize) -> f64 {
        scenario
            .throttle
            .iter()
            .filter(|r| r.applies_to(device))
            .map(|r| r.bandwidth_scale(cycle))
            .product()
    }

    /// Draws cycle `cycle`'s cohort and materializes it, evicting
    /// clients outside the cohort first when the spec disabled
    /// retention. With sampling disabled the cohort is the whole
    /// enrolled population, in id order — the pre-fleet behavior.
    ///
    /// The draw is a pure function of `(config.sampling, config.seed,
    /// population, cycle)` plus the availability model, so reruns replay
    /// the identical cohort sequence at any thread width.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidRunConfig`] when sampling yields an
    /// empty cohort (every device offline) and propagates
    /// materialization errors.
    pub fn select_cohort(&mut self, cycle: usize) -> Result<Vec<usize>> {
        let sampler = ClientSampler::new(self.config.sampling, self.config.seed);
        let mut cohort = sampler.cohort(self.num_clients(), cycle, &self.availability);
        if let Some(rt) = &self.scenario_rt {
            // Departed devices are filtered after the draw rather than
            // re-weighted inside it, so the sampler's stream stays a
            // pure function of (config, seed, population, cycle) and
            // cohorts replay bitwise whether or not churn is active.
            cohort.retain(|d| !rt.offline.contains(d));
        }
        if cohort.is_empty() {
            return Err(FlError::InvalidRunConfig {
                what: format!("cycle {cycle} sampled an empty cohort (no available devices)"),
            });
        }
        if let ClientStore::Lazy(l) = &mut self.store {
            if !l.spec.retain_clients {
                // The sampler returns the cohort sorted ascending.
                l.cache.retain(|id, _| cohort.binary_search(id).is_ok());
            }
        }
        self.materialize_missing(&cohort)?;
        Ok(cohort)
    }

    /// Immutable client access. On a lazy fleet the client must already
    /// be materialized (via [`FlEnv::select_cohort`],
    /// [`FlEnv::ensure_client`], or [`FlEnv::client_mut`]).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UnknownClient`] for an out-of-range index or
    /// [`FlError::InvalidRunConfig`] for an enrolled-but-unmaterialized
    /// lazy client.
    pub fn client(&self, i: usize) -> Result<&Client> {
        let n = self.num_clients();
        if i >= n {
            return Err(FlError::UnknownClient {
                client: i,
                num_clients: n,
            });
        }
        match &self.store {
            ClientStore::Eager(v) => v.get(i).ok_or(FlError::UnknownClient {
                client: i,
                num_clients: n,
            }),
            ClientStore::Lazy(l) => l.cache.get(&i).ok_or_else(|| FlError::InvalidRunConfig {
                what: format!(
                    "client {i} is enrolled but not materialized; select or ensure it first"
                ),
            }),
        }
    }

    /// Mutable client access; a lazy fleet materializes the client on
    /// demand.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UnknownClient`] for an out-of-range index and
    /// propagates materialization errors.
    pub fn client_mut(&mut self, i: usize) -> Result<&mut Client> {
        self.ensure_client(i)?;
        let n = self.num_clients();
        let missing = FlError::UnknownClient {
            client: i,
            num_clients: n,
        };
        match &mut self.store {
            ClientStore::Eager(v) => v.get_mut(i).ok_or(missing),
            ClientStore::Lazy(l) => l.cache.get_mut(&i).ok_or(missing),
        }
    }

    /// Iterates the in-memory fleet in ascending id order: every client
    /// for an eager environment, the materialized ones for a lazy fleet.
    pub fn clients(&self) -> impl Iterator<Item = &Client> {
        let (eager, lazy) = match &self.store {
            ClientStore::Eager(v) => (Some(v.iter()), None),
            ClientStore::Lazy(l) => (None, Some(l.cache.values())),
        };
        eager
            .into_iter()
            .flatten()
            .chain(lazy.into_iter().flatten())
    }

    /// Iterates the in-memory fleet mutably (see [`FlEnv::clients`]).
    pub fn clients_mut(&mut self) -> impl Iterator<Item = &mut Client> {
        let (eager, lazy) = match &mut self.store {
            ClientStore::Eager(v) => (Some(v.iter_mut()), None),
            ClientStore::Lazy(l) => (None, Some(l.cache.values_mut())),
        };
        eager
            .into_iter()
            .flatten()
            .chain(lazy.into_iter().flatten())
    }

    /// Adds a device mid-run (the paper's §VI.C dynamic-join scenario) and
    /// returns its client index. The newcomer starts from the current
    /// global model.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidRunConfig`] on a lazy fleet with
    /// eviction enabled (an evicted joiner would be rebuilt from the
    /// spec's generators instead of the supplied profile/shard), and
    /// propagates parameter-length errors (impossible unless the dataset
    /// class count disagrees with the architecture).
    pub fn join_client(&mut self, profile: ResourceProfile, shard: Dataset) -> Result<usize> {
        if let ClientStore::Lazy(l) = &self.store {
            if !l.spec.retain_clients {
                return Err(FlError::InvalidRunConfig {
                    what: "join_client requires client retention on a lazy fleet".into(),
                });
            }
        }
        let id = self.num_clients();
        let mut rng = TensorRng::seed_from(
            self.config.seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(id as u64 + 1)),
        );
        let client_seed = rng.next_seed();
        let mut client = Client::new(
            id,
            self.eval_net.clone(),
            shard,
            profile,
            self.config.learning_rate,
            self.config.momentum,
            self.config.batch_size,
            self.config.local_epochs,
            self.config.workload_scale,
            TensorRng::seed_from(client_seed),
        );
        client.receive_global(&self.global, 0)?;
        match &mut self.store {
            ClientStore::Eager(v) => v.push(client),
            ClientStore::Lazy(l) => {
                l.spec.population += 1;
                l.seeds.push(client_seed);
                l.cache.insert(id, client);
            }
        }
        if let Some(t) = &mut self.transport {
            // The newcomer's fault/jitter stream is a pure function of
            // (run seed, device index), so a grown transport matches one
            // built with the full fleet upfront.
            t.add_device();
        }
        helios_obs::emit(|| helios_obs::TraceEvent::DeviceJoined { device: id as u64 });
        Ok(id)
    }

    /// Whether a non-empty scenario timeline is driving this run.
    pub fn scenario_active(&self) -> bool {
        self.scenario_rt.is_some()
    }

    /// Number of devices currently departed under scenario churn
    /// (`Leave` without a matching `Return`).
    pub fn offline_devices(&self) -> usize {
        self.scenario_rt.as_ref().map_or(0, |rt| rt.offline.len())
    }

    /// Scenario hook the round driver calls at the top of every cycle,
    /// before cohort selection: applies all timeline events due at
    /// `cycle` (joins grow the population, leaves/returns update the
    /// churn overlay, drift rotates the held-out test set) and
    /// recomputes every materialized client's throttle scale from the
    /// timeline. A no-op when the scenario is empty.
    ///
    /// Every applied event emits a
    /// [`TraceEvent::ScenarioEvent`](helios_obs::TraceEvent); all work
    /// here is serial and deterministic, so traces stay byte-identical
    /// at any thread width.
    ///
    /// # Errors
    ///
    /// Propagates join materialization and drift transform errors.
    pub fn scenario_begin_cycle(&mut self, cycle: usize) -> Result<()> {
        let due: Vec<helios_scenario::ScheduledEvent> = match &mut self.scenario_rt {
            None => return Ok(()),
            Some(rt) => {
                rt.current_cycle = cycle;
                let events = rt.schedule.events();
                let start = rt.next_event;
                let mut end = start;
                while end < events.len() && events[end].cycle <= cycle {
                    end += 1;
                }
                rt.next_event = end;
                events[start..end].to_vec()
            }
        };
        for ev in due {
            match ev.kind {
                EventKind::Join { count } => {
                    for _ in 0..count {
                        let id = self.scenario_join()?;
                        helios_obs::emit(|| helios_obs::TraceEvent::ScenarioEvent {
                            cycle: cycle as u64,
                            kind: "join".into(),
                            device: Some(id as u64),
                            value: 1.0,
                        });
                    }
                }
                EventKind::Leave { device } => {
                    if let Some(rt) = &mut self.scenario_rt {
                        rt.offline.insert(device);
                    }
                    helios_obs::emit(|| helios_obs::TraceEvent::ScenarioEvent {
                        cycle: cycle as u64,
                        kind: "leave".into(),
                        device: Some(device as u64),
                        value: 0.0,
                    });
                }
                EventKind::Return { device } => {
                    if let Some(rt) = &mut self.scenario_rt {
                        rt.offline.remove(&device);
                    }
                    helios_obs::emit(|| helios_obs::TraceEvent::ScenarioEvent {
                        cycle: cycle as u64,
                        kind: "return".into(),
                        device: Some(device as u64),
                        value: 1.0,
                    });
                }
                EventKind::Drift { kind, amount } => {
                    if self.config.scenario.drift_test_set {
                        // The evaluation distribution drifts with the
                        // fleet, at fire time; client shards catch up
                        // per participant in `scenario_prepare_cohort`.
                        self.test_set = match kind {
                            DriftKind::LabelRotate => self
                                .test_set
                                .rotate_labels(amount.max(0.0).round() as usize),
                            DriftKind::InputShift => self.test_set.shift_inputs(amount as f32)?,
                        };
                    }
                    helios_obs::emit(|| helios_obs::TraceEvent::ScenarioEvent {
                        cycle: cycle as u64,
                        kind: kind.trace_kind().into(),
                        device: None,
                        value: amount,
                    });
                }
            }
        }
        // Battery/thermal throttling: recompute every materialized
        // client's compute scale from the timeline (the pristine profile
        // is rescaled each cycle, never compounded), and record each
        // active rule once per cycle.
        let scenario = self.config.scenario.clone();
        if !scenario.throttle.is_empty() {
            for c in self.clients_mut() {
                let id = c.id();
                c.set_compute_scale(Self::combined_compute_scale(&scenario, id, cycle));
            }
            for rule in &scenario.throttle {
                if rule.active_at(cycle) {
                    let device = rule.device.map(|d| d as u64);
                    let value = rule.compute_scale(cycle);
                    helios_obs::emit(|| helios_obs::TraceEvent::ScenarioEvent {
                        cycle: cycle as u64,
                        kind: "throttle".into(),
                        device,
                        value,
                    });
                }
            }
        }
        Ok(())
    }

    /// Scenario hook the round driver calls right after cohort
    /// selection, before the broadcast: replays any not-yet-applied
    /// drift events onto each participant's shard and applies bandwidth
    /// throttling to participant links. A no-op when the scenario is
    /// empty.
    ///
    /// Drift is replayed one event at a time in timeline order from each
    /// client's own counter — f32 arithmetic is not associative, so late
    /// joiners and late-materialized devices must walk the same event
    /// sequence to converge on the same bytes as devices resident since
    /// cycle 0 (the lazy==eager parity contract).
    ///
    /// # Errors
    ///
    /// Propagates materialization, drift transform, and link errors.
    pub fn scenario_prepare_cohort(&mut self, cycle: usize, participants: &[usize]) -> Result<()> {
        let Some(rt) = &self.scenario_rt else {
            return Ok(());
        };
        let scenario = self.config.scenario.clone();
        if !scenario.drift.is_empty() {
            let due: Vec<(DriftKind, f64)> = rt
                .schedule
                .events()
                .iter()
                .filter(|e| e.cycle <= cycle)
                .filter_map(|e| match e.kind {
                    EventKind::Drift { kind, amount } => Some((kind, amount)),
                    _ => None,
                })
                .collect();
            for &p in participants {
                loop {
                    let c = self.client_mut(p)?;
                    let next = c.drift_applied();
                    if next >= due.len() {
                        break;
                    }
                    let (kind, amount) = due[next];
                    c.apply_drift(kind, amount)?;
                }
            }
        }
        // Bandwidth throttling scales the configured base link; an
        // outage window overrides everything and collapses the link to
        // a near-zero trickle (the link model rejects an exact zero).
        // Skipped when networking is disabled; throttling additionally
        // needs a finite base bandwidth (there is nothing to scale
        // down on an unlimited link), but an outage clamps even an
        // unlimited link.
        if self.transport.is_some()
            && !(scenario.throttle.is_empty() && scenario.outages.is_empty())
        {
            let base = self.config.net.link;
            for &p in participants {
                let outage = scenario
                    .outages
                    .iter()
                    .any(|o| o.contains(cycle) && o.applies_to(p));
                let mut link = base;
                if outage {
                    link.bandwidth_bps = Some(OUTAGE_TRICKLE_BPS);
                } else if let Some(bw) = base.bandwidth_bps {
                    let s = Self::combined_bandwidth_scale(&scenario, p, cycle);
                    link.bandwidth_bps = Some(bw * s);
                }
                // With outages on the timeline the link is re-asserted
                // every cycle: the first cycle after a window closes
                // must restore the scenario-scaled profile. Without
                // outages, only actually-scaled links are touched
                // (identical behavior to the pre-outage engine).
                if !scenario.outages.is_empty() || link.bandwidth_bps != base.bandwidth_bps {
                    self.set_link(p, link)?;
                }
            }
            for o in &scenario.outages {
                if o.contains(cycle) {
                    let device = o.device.map(|d| d as u64);
                    helios_obs::emit(|| helios_obs::TraceEvent::ScenarioEvent {
                        cycle: cycle as u64,
                        kind: "outage".into(),
                        device,
                        value: 0.0,
                    });
                }
            }
        }
        Ok(())
    }

    /// Grows the population by one device synthesized from the lazy
    /// spec's pure generators (the scenario-churn join path).
    fn scenario_join(&mut self) -> Result<usize> {
        let id = self.num_clients();
        let (profile, shard) = match &self.store {
            ClientStore::Lazy(l) => (l.spec.profiles.profile(id), l.spec.shards.shard(id)?),
            ClientStore::Eager(_) => {
                // Unreachable: `build_scenario_runtime` rejects join
                // events on eager fleets at construction.
                return Err(FlError::InvalidRunConfig {
                    what: "scenario join events require a lazy fleet".into(),
                });
            }
        };
        self.join_client(profile, shard)
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
    pub fn set_global(&mut self, params: Vec<f32>) -> Result<()> {
        if params.len() != self.global.len() {
            return Err(FlError::GlobalLengthMismatch {
                expected: self.global.len(),
                actual: params.len(),
            });
        }
        self.global = params;
        Ok(())
    }

    /// Sends the current global model to every in-memory client, tagging
    /// it with the producing cycle for staleness accounting.
    ///
    /// On a lazy fleet only materialized clients receive the broadcast —
    /// which is equivalent to broadcasting to everyone, because
    /// [`Client::receive_global`] fully overwrites the replica (params,
    /// optimizer state, staleness tag) and cohort members are
    /// materialized by [`FlEnv::select_cohort`] *before* the broadcast
    /// phase; a device materialized in a later cycle is overwritten by
    /// that cycle's broadcast before it trains.
    ///
    /// # Errors
    ///
    /// Propagates parameter-length errors (impossible under normal use).
    pub fn broadcast_global(&mut self, cycle: usize) -> Result<()> {
        let global = self.global.clone();
        let mut devices = 0u64;
        for c in self.clients_mut() {
            c.receive_global(&global, cycle)?;
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
    pub fn send_global_to(&mut self, client: usize, cycle: usize) -> Result<()> {
        let global = self.global.clone();
        self.client_mut(client)?.receive_global(&global, cycle)
    }

    /// Runs one local training cycle on **every** client, fanning the
    /// independent per-client work out across worker threads, and
    /// returns the updates in client order.
    ///
    /// The fan-out width is capped by [`FlConfig::parallelism`]; surplus
    /// budget flows to the tensor kernels inside each worker. Because
    /// every kernel is bitwise deterministic at any thread width and the
    /// returned updates preserve client order, the result is identical
    /// to calling [`Client::train_local`] serially — strategies may
    /// aggregate it without any reordering concerns.
    ///
    /// # Errors
    ///
    /// Propagates the first (in client order) training error.
    pub fn train_all(&mut self) -> Result<Vec<LocalUpdate>> {
        let all: Vec<usize> = (0..self.num_clients()).collect();
        self.train_selected(&all)
    }

    /// Runs one local training cycle on the selected clients only,
    /// fanning the independent per-client work out across worker
    /// threads, and returns the updates **in `participants` order** (the
    /// aggregation order every policy relies on).
    ///
    /// Selecting every client is identical to [`FlEnv::train_all`] —
    /// same fan-out, same bitwise results.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UnknownClient`] for an out-of-range id,
    /// [`FlError::InvalidStrategyConfig`] when an id repeats, or the
    /// first (in client order) training error.
    pub fn train_selected(&mut self, participants: &[usize]) -> Result<Vec<LocalUpdate>> {
        let n = self.num_clients();
        // Cohort-relative bookkeeping: O(participants) state, never
        // O(population) — a 500-device cohort over a 100k fleet must not
        // allocate per-enrolled-device vectors.
        let mut slot_of: HashMap<usize, usize> = HashMap::with_capacity(participants.len());
        for (slot, &i) in participants.iter().enumerate() {
            if i >= n {
                return Err(FlError::UnknownClient {
                    client: i,
                    num_clients: n,
                });
            }
            if slot_of.insert(i, slot).is_some() {
                return Err(FlError::InvalidStrategyConfig {
                    what: format!("client {i} selected twice in one cycle"),
                });
            }
        }
        self.materialize_missing(participants)?;
        let threads = self.config.parallelism.resolve();
        let mut selected: Vec<&mut Client> = match &mut self.store {
            ClientStore::Eager(v) => v
                .iter_mut()
                .enumerate()
                .filter_map(|(i, c)| slot_of.contains_key(&i).then_some(c))
                .collect(),
            ClientStore::Lazy(l) => l
                .cache
                .iter_mut()
                .filter_map(|(i, c)| slot_of.contains_key(i).then_some(c))
                .collect(),
        };
        // The fan-out returns results in client-id order; errors surface
        // in that order too, matching the historical serial loops.
        let mut by_slot: Vec<Option<LocalUpdate>> = (0..participants.len()).map(|_| None).collect();
        for r in map_items_mut(&mut selected, threads, |_, c| c.train_local()) {
            let u = r?;
            let Some(&slot) = slot_of.get(&u.client) else {
                return Err(FlError::InvalidStrategyConfig {
                    what: format!("unexpected update from client {}", u.client),
                });
            };
            by_slot[slot] = Some(u);
        }
        let mut out = Vec::with_capacity(participants.len());
        for (slot, &i) in participants.iter().enumerate() {
            match by_slot[slot].take() {
                Some(u) => out.push(u),
                None => {
                    return Err(FlError::InvalidStrategyConfig {
                        what: format!("client {i} produced no update"),
                    })
                }
            }
        }
        Ok(out)
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Advances the simulated clock.
    pub fn advance_clock(&mut self, span: SimTime) {
        self.clock.advance(span);
    }

    /// The simulated transport, when `config.net.enabled`.
    pub fn transport(&self) -> Option<&SimTransport> {
        self.transport.as_ref()
    }

    /// Overrides one client's link profile (requires networking to be
    /// enabled). Use this to give stragglers the paper's constrained
    /// uplinks while capable devices keep fast ones.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UnknownClient`] for an out-of-range index or
    /// [`FlError::InvalidRunConfig`] when networking is disabled or the
    /// profile is invalid.
    pub fn set_link(&mut self, client: usize, link: LinkProfile) -> Result<()> {
        if client >= self.num_clients() {
            return Err(FlError::UnknownClient {
                client,
                num_clients: self.num_clients(),
            });
        }
        match &mut self.transport {
            Some(t) => Ok(t.set_link(client, link)?),
            None => Err(FlError::InvalidRunConfig {
                what: "cannot set a link profile while config.net is disabled".into(),
            }),
        }
    }

    /// Expected communication time for one cycle of client `i` under its
    /// link profile: downloading the full global model plus uploading
    /// the update at its current wire size (masked layout when a
    /// soft-training mask is installed). Deterministic — jitter and
    /// faults are excluded — so Helios can feed it into straggler
    /// identification and deadline fitting. Zero when networking is
    /// disabled or the link is ideal.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UnknownClient`] for an out-of-range index.
    pub fn comm_overhead(&self, i: usize) -> Result<SimTime> {
        let client = self.client(i)?;
        let Some(t) = &self.transport else {
            return Ok(SimTime::ZERO);
        };
        let link = t.link(i)?;
        let down = link.expected_transfer(codec::WireSize::full(self.global.len()).total_bytes());
        let up_size = client.upload_wire_size_with(&self.config.net.compression);
        let up = link.expected_transfer(up_size.total_bytes());
        Ok(down + up)
    }

    /// Client `i`'s full cycle time as the server observes it:
    /// `compute + comm` (the paper's `T_e = W/C_cpu + M/V_mc + U/B_n`
    /// with the transfer term realised by the simulated link).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UnknownClient`] for an out-of-range index.
    pub fn combined_cycle_time(&self, i: usize) -> Result<SimTime> {
        Ok(self.client(i)?.cycle_time() + self.comm_overhead(i)?)
    }

    /// Routes one synchronous cycle's exchange through the simulated
    /// transport: the global broadcast goes down every participant's
    /// link, each update comes back up as a wire frame (masked layout
    /// for soft-trained clients, or the wire-v2 layout selected by
    /// `net.compression` — delta/top-k/quantized frames encoded against
    /// the broadcast global), and the round's simulated span is
    /// `max(compute + comm)` over participants.
    ///
    /// With networking disabled this is a transparent passthrough whose
    /// span is `max(compute)` — strategies call it unconditionally.
    /// Delivered frames are decoded against the current global vector
    /// (masked-out entries hold the pre-training broadcast values by
    /// the [`LocalUpdate::param_mask`] invariant), which reproduces each
    /// update's parameters bit-for-bit. Participants whose transfers
    /// exhaust their retries or overrun `net.round_timeout_s` are
    /// reported in [`RoutedCycle::missed`] and dropped from the
    /// aggregation set — a missed cycle, not an error.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidRunConfig`] when `compute_times` and
    /// `updates` disagree in length, or a [`FlError::Net`] codec error
    /// (impossible for updates produced by [`Client::train_local`]).
    pub fn route_updates(
        &mut self,
        cycle: usize,
        updates: Vec<LocalUpdate>,
        compute_times: &[SimTime],
    ) -> Result<RoutedCycle> {
        if updates.len() != compute_times.len() {
            return Err(FlError::InvalidRunConfig {
                what: format!(
                    "route_updates got {} updates but {} compute times",
                    updates.len(),
                    compute_times.len()
                ),
            });
        }
        let Some(transport) = &mut self.transport else {
            let cycle_time = compute_times
                .iter()
                .copied()
                .fold(SimTime::ZERO, SimTime::max);
            return Ok(RoutedCycle {
                updates,
                cycle_time,
                missed: Vec::new(),
            });
        };
        // Broadcasts are always v1 full frames: the broadcast *is* the
        // shared base every v2 upload decodes against (DESIGN.md §4k).
        let broadcast = codec::encode_full(codec::SERVER_SENDER, cycle as u32, &self.global)?;
        // Encode and decode are pure per participant, so both fan out
        // across the thread budget; the transport between them stays
        // serial because its fault-RNG draws, statistics, and trace
        // events are ordered by the event queue (DESIGN.md §4d).
        let compression = self.config.net.compression;
        let threads = self.config.parallelism.resolve();
        let global = &self.global;
        let frames = map_indexed(updates.len(), threads, |i| {
            let u = &updates[i];
            compression.encode_update(
                u.client as u32,
                cycle as u32,
                &u.params,
                u.param_mask.as_deref(),
                global,
            )
        });
        let mut jobs = Vec::with_capacity(updates.len());
        for ((u, &compute), frame) in updates.iter().zip(compute_times).zip(frames) {
            jobs.push(RoundJob {
                device: u.client,
                compute,
                upload_frame: frame?,
            });
        }
        let timeout = self.config.net.round_timeout_s.map(SimTime::from_secs);
        let outcome = simulate_round(transport, &broadcast, &jobs, timeout)?;
        // Each worker swaps its update's parameters for the decoded ones
        // and frees the delivered bytes as it goes, so no second copy of
        // the cohort is ever held.
        let mut slots: Vec<_> = updates.into_iter().zip(outcome.deliveries).collect();
        let decoded = map_items_mut(&mut slots, threads, |_, (u, delivery)| -> Result<bool> {
            let Some((_, bytes)) = delivery.take() else {
                return Ok(false);
            };
            u.params = codec::decode(&bytes)?.into_params(global)?;
            Ok(true)
        });
        let mut delivered = Vec::with_capacity(slots.len());
        let mut missed = Vec::new();
        for ((u, _), arrived) in slots.into_iter().zip(decoded) {
            if arrived? {
                delivered.push(u);
            } else {
                missed.push(u.client);
            }
        }
        Ok(RoutedCycle {
            updates: delivered,
            cycle_time: outcome.span,
            missed,
        })
    }

    /// Evaluates the current global model on the held-out test set.
    ///
    /// # Errors
    ///
    /// Propagates model errors (impossible under normal use).
    pub fn evaluate_global(&mut self) -> Result<(f64, f64)> {
        // The run's parallelism budget also governs evaluation kernels.
        let _guard = self.config.parallelism.scoped();
        self.eval_net.set_param_vector(&self.global)?;
        self.eval_net.clear_masks();
        let loss_fn = CrossEntropyLoss::new();
        let mut correct = 0usize;
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for (x, y) in self.test_set.batches(self.config.eval_batch) {
            let logits = self.eval_net.forward(&x)?;
            loss_sum += loss_fn.forward(&logits, &y)? as f64;
            let pred = logits.argmax_rows().map_err(helios_nn::NnError::from)?;
            correct += pred.iter().zip(&y).filter(|(p, l)| p == l).count();
            batches += 1;
        }
        let n = self.test_set.len().max(1);
        Ok((loss_sum / batches.max(1) as f64, correct as f64 / n as f64))
    }

    /// The held-out test set.
    pub fn test_set(&self) -> &Dataset {
        &self.test_set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_data::{partition, SyntheticVision};
    use helios_device::presets;

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
            momentum: 1.0,
            ..FlConfig::default()
        }
        .validate()
        .is_err());
        assert!(FlConfig {
            batch_size: 0,
            ..FlConfig::default()
        }
        .validate()
        .is_err());
        FlConfig::default().validate().unwrap();
    }

    /// Configs serialized before the `net` section existed (and before
    /// `parallelism`) must keep deserializing, with networking disabled.
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
        assert!(!cfg.net.enabled);
        assert_eq!(cfg.net, NetConfig::default());
        assert!(!cfg.sampling.enabled, "sampling defaults to disabled");
        assert!(cfg.scenario.is_empty(), "scenario defaults to empty");
        cfg.validate().unwrap();
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
        let updates = env.train_all().unwrap();
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
        let du = direct.train_all().unwrap();
        let ru = routed_env.train_all().unwrap();
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

    /// Delta and full-ratio top-k frames reconstruct every update
    /// bit-for-bit, so routing through them is as transparent as v1.
    #[test]
    fn lossless_v2_compression_is_bitwise_transparent() {
        use helios_net::CompressionMode;
        for mode in [CompressionMode::Delta, CompressionMode::TopK] {
            let mut direct = small_env(8);
            let mut routed_env = small_env_with(8, net_with_mode(mode, 1.0));
            direct.broadcast_global(0).unwrap();
            routed_env.broadcast_global(0).unwrap();
            let du = direct.train_all().unwrap();
            let ru = routed_env.train_all().unwrap();
            let times: Vec<SimTime> = direct.clients().map(Client::cycle_time).collect();
            let d = direct.route_updates(0, du, &times).unwrap();
            let r = routed_env.route_updates(0, ru, &times).unwrap();
            assert!(r.missed.is_empty());
            for (a, b) in d.updates.iter().zip(&r.updates) {
                let ab: Vec<u32> = a.params.iter().map(|p| p.to_bits()).collect();
                let bb: Vec<u32> = b.params.iter().map(|p| p.to_bits()).collect();
                assert_eq!(ab, bb, "{mode:?} roundtrip must be bit-exact");
            }
            let up = routed_env.transport().unwrap().stats().bytes_on_wire;
            let v1 = d
                .updates
                .iter()
                .map(|u| codec::WireSize::full(u.params.len()).total_bytes())
                .sum::<usize>();
            assert!(up > 0 && v1 > 0);
        }
    }

    /// Quantized modes deliver approximate updates: close to the direct
    /// values, never missing, and cheaper on the wire than v1 full frames.
    #[test]
    fn quantized_v2_compression_stays_within_bounds() {
        use helios_net::CompressionMode;
        for (mode, tol) in [
            (CompressionMode::QuantF16, 1e-2f32),
            (CompressionMode::QuantInt8, 5e-2f32),
        ] {
            let mut direct = small_env(8);
            let mut routed_env = small_env_with(8, net_with_mode(mode, 0.1));
            direct.broadcast_global(0).unwrap();
            routed_env.broadcast_global(0).unwrap();
            let du = direct.train_all().unwrap();
            let ru = routed_env.train_all().unwrap();
            let times: Vec<SimTime> = direct.clients().map(Client::cycle_time).collect();
            let d = direct.route_updates(0, du, &times).unwrap();
            let r = routed_env.route_updates(0, ru, &times).unwrap();
            assert!(r.missed.is_empty());
            for (a, b) in d.updates.iter().zip(&r.updates) {
                for (x, y) in a.params.iter().zip(&b.params) {
                    assert!((x - y).abs() <= tol, "{mode:?}: {x} vs {y}");
                }
            }
        }
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
        let env_i8 = small_env_with(
            4,
            NetConfig {
                compression: helios_net::CompressionConfig {
                    mode: CompressionMode::QuantInt8,
                    topk_ratio: 0.1,
                },
                ..slow
            },
        );
        let t_v1 = env_v1.comm_overhead(0).unwrap();
        let t_i8 = env_i8.comm_overhead(0).unwrap();
        assert!(
            t_i8 < t_v1,
            "int8 uploads must plan cheaper than v1 ({t_i8:?} vs {t_v1:?})"
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
        assert!(lazy.is_lazy() && !eager.is_lazy());
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
        let eu = eager.train_all().unwrap();
        let lu = lazy.train_all().unwrap();
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
        assert!(c1.iter().all(|&i| env.client(i).is_ok()));
        // Selection replays bitwise on a fresh twin.
        let spec = lazy_spec(50, 13).evict_unsampled();
        let test = spec.shards.test_set(20).unwrap();
        let mut twin = FlEnv::new_lazy(ModelKind::LeNet, spec, test, config).unwrap();
        assert_eq!(twin.select_cohort(0).unwrap(), c0);
        assert_eq!(twin.select_cohort(1).unwrap(), c1);
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
