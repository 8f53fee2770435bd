//! The four workloads: what each one builds from the seed and why it
//! exists. The program under test only ever sees the generated inputs
//! (datasets, profiles, configs); the seed stays on this side.

use helios_core::HeliosStrategy;
use helios_data::{partition, Dataset, ShardSynthesizer, SyntheticVision};
use helios_device::{presets, ProfileSynthesizer};
use helios_fl::{
    CompressionConfig, CompressionMode, FaultConfig, FlConfig, FlEnv, FleetSpec, LinkProfile,
    NetConfig, ParallelismConfig, RoundPolicy, SamplerConfig, SyncFedAvg,
};
use helios_nn::models::ModelKind;
use helios_tensor::TensorRng;
use std::error::Error;

pub type BoxResult<T> = Result<T, Box<dyn Error>>;

/// Which collaboration scheme drives the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    Sync,
    Helios,
}

/// How the device population is built.
#[derive(Debug, Clone, Copy)]
pub enum Fleet {
    /// `presets::mixed_fleet(capable, stragglers)`, every client built up
    /// front over an IID split of one generated dataset; networking off.
    Eager {
        capable: usize,
        stragglers: usize,
        samples_per_client: usize,
    },
    /// A lazily materialized `FleetSpec` population with a uniform
    /// per-round cohort and lossy constrained links.
    Lazy {
        population: usize,
        cohort: usize,
        samples_per_shard: usize,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub model: ModelKind,
    pub data: SyntheticVision,
    pub fleet: Fleet,
    pub strategy: StrategyKind,
    pub compression: CompressionMode,
    pub test_samples: usize,
    pub learning_rate: f32,
    pub cycles: usize,
    /// Final test accuracy a full-size run must reach, as a multiple of
    /// chance; `None` where the run is too short to promise one.
    pub accuracy_over_chance: Option<f64>,
}

/// Fraction of parameters a `fleet_topk` upload keeps.
const TOPK_RATIO: f64 = 0.25;

/// The benchmark's workloads. `quick` shrinks every size (LeNet, two
/// devices or a 32-device cohort, two cycles) so the whole benchmark runs
/// in a debug-profile unit test; it is never what a recorded number uses.
pub fn workloads(quick: bool) -> [Workload; 4] {
    // Full sizes are the issue's shapes with cycles scaled down so one
    // `Strategy::run` takes about two seconds on the 2-core seed host.
    let cifar = SyntheticVision {
        noise_std: 1.5,
        ..SyntheticVision::cifar10_like()
    };
    let alexnet = Workload {
        name: "alexnet_sync",
        why: "dense full-model path: train and evaluate kernels are at least 90% of wall time, fleet and wire bookkeeping about none",
        model: if quick { ModelKind::LeNet } else { ModelKind::AlexNet },
        data: if quick { SyntheticVision::mnist_like() } else { cifar },
        fleet: if quick {
            Fleet::Eager { capable: 1, stragglers: 1, samples_per_client: 32 }
        } else {
            Fleet::Eager { capable: 3, stragglers: 3, samples_per_client: 240 }
        },
        strategy: StrategyKind::Sync,
        compression: CompressionMode::None,
        test_samples: if quick { 40 } else { 300 },
        learning_rate: 0.04,
        cycles: if quick { 2 } else { 5 },
        accuracy_over_chance: Some(2.0),
    };
    let fleet = Workload {
        name: "fleet_lossy",
        why: "per-participant overhead dominates: materialization, param copies, encode, CRC, transport, decode, streaming aggregation over a 500-of-100k cohort",
        model: ModelKind::LeNet,
        data: SyntheticVision::mnist_like(),
        fleet: if quick {
            Fleet::Lazy { population: 2_000, cohort: 32, samples_per_shard: 8 }
        } else {
            Fleet::Lazy { population: 100_000, cohort: 500, samples_per_shard: 8 }
        },
        strategy: StrategyKind::Helios,
        compression: CompressionMode::None,
        test_samples: 64,
        learning_rate: FlConfig::default().learning_rate,
        cycles: if quick { 2 } else { 3 },
        // Three cycles are three large-batch steps (500 clients × one
        // 8-sample step, averaged): accuracy on the 64 test samples is
        // anywhere from 0.16 to 0.47 across seeds. The loss check holds.
        accuracy_over_chance: None,
    };
    [
        alexnet,
        Workload {
            name: "alexnet_helios",
            why: "same env as alexnet_sync, layers used differently: three stragglers soft-train packed sub-models, so masked execution, gather/scatter and fan-out balance do the work",
            strategy: StrategyKind::Helios,
            ..alexnet
        },
        fleet,
        Workload {
            name: "fleet_topk",
            why: "fleet_lossy with top-k uploads: rank-and-sparsify encode replaces bit-copy and fewer bytes cross CRC and transport, so a codec trade-off shows as opposite moves in the pair",
            compression: CompressionMode::TopK,
            ..fleet
        },
    ]
}

/// The workload names, in report order.
pub fn names() -> [&'static str; 4] {
    workloads(false).map(|w| w.name)
}

pub fn find(name: &str, quick: bool) -> Option<Workload> {
    workloads(quick).into_iter().find(|w| w.name == name)
}

impl Workload {
    /// Participants selected per cycle (the whole eager fleet, or the
    /// sampled cohort).
    pub fn cohort(&self) -> usize {
        match self.fleet {
            Fleet::Eager {
                capable,
                stragglers,
                ..
            } => capable + stragglers,
            Fleet::Lazy { cohort, .. } => cohort,
        }
    }

    /// Simulated client-rounds one run executes: the stated input size
    /// `client_rounds_per_s` divides by the measured wall time.
    pub fn client_rounds(&self) -> usize {
        self.cohort() * self.cycles
    }

    pub fn net_config(&self) -> NetConfig {
        match self.fleet {
            Fleet::Eager { .. } => NetConfig::default(),
            Fleet::Lazy { .. } => NetConfig {
                enabled: true,
                link: LinkProfile::constrained(2e6, 0.05),
                faults: FaultConfig {
                    drop_prob: 0.05,
                    corrupt_prob: 0.05,
                    delay_prob: 0.1,
                    max_extra_delay_s: 0.5,
                },
                round_timeout_s: Some(2.2),
                compression: CompressionConfig {
                    mode: self.compression,
                    topk_ratio: TOPK_RATIO,
                },
                ..NetConfig::default()
            },
        }
    }

    pub fn fl_config(&self, seed: u64, threads: usize) -> FlConfig {
        FlConfig {
            batch_size: 16,
            learning_rate: self.learning_rate,
            seed,
            parallelism: ParallelismConfig::with_threads(threads),
            net: self.net_config(),
            sampling: match self.fleet {
                Fleet::Eager { .. } => SamplerConfig::default(),
                Fleet::Lazy { cohort, .. } => SamplerConfig::uniform(cohort),
            },
            ..FlConfig::default()
        }
    }

    /// The eager fleet's generated inputs: per-client shards and the
    /// held-out test set.
    pub fn eager_data(&self, seed: u64) -> BoxResult<(Vec<Dataset>, Dataset)> {
        let Fleet::Eager {
            capable,
            stragglers,
            samples_per_client,
        } = self.fleet
        else {
            return Err("eager_data on a lazy workload".into());
        };
        let clients = capable + stragglers;
        let mut rng = TensorRng::seed_from(seed);
        let (train, test) =
            self.data
                .generate(samples_per_client * clients, self.test_samples, &mut rng)?;
        let shards = partition::iid(train.len(), clients, &mut rng)
            .into_iter()
            .map(|idx| train.subset(&idx))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((shards, test))
    }

    /// The lazy fleet's generators (profiles and shards are pure functions
    /// of `(seed, device)`), eviction on.
    pub fn fleet_spec(&self, seed: u64) -> BoxResult<FleetSpec> {
        let Fleet::Lazy {
            population,
            samples_per_shard,
            ..
        } = self.fleet
        else {
            return Err("fleet_spec on an eager workload".into());
        };
        Ok(FleetSpec::new(
            population,
            ProfileSynthesizer::new(seed, 0.3),
            ShardSynthesizer::new(self.data, samples_per_shard, seed)?,
        )
        .evict_unsampled())
    }

    /// Builds a fresh environment from the seed: dataset or fleet
    /// synthesis, model init, transport construction. This whole call is
    /// what `setup_s` times.
    pub fn build_env(&self, seed: u64, threads: usize) -> BoxResult<FlEnv> {
        let config = self.fl_config(seed, threads);
        match self.fleet {
            Fleet::Eager {
                capable,
                stragglers,
                ..
            } => {
                let (shards, test) = self.eager_data(seed)?;
                let fleet = presets::mixed_fleet(capable, stragglers);
                Ok(FlEnv::new(self.model, fleet, shards, test, config)?)
            }
            Fleet::Lazy { .. } => {
                let spec = self.fleet_spec(seed)?;
                let test = spec.shards.test_set(self.test_samples)?;
                Ok(FlEnv::new_lazy(self.model, spec, test, config)?)
            }
        }
    }
}

/// What the report needs from a policy after a run, beyond the
/// `RoundPolicy` hooks the traced driver walks.
pub trait BenchPolicy: RoundPolicy {
    /// `(stragglers, mean keep ratio over them)`; `None` for a policy
    /// without soft-training.
    fn soft_training(&self) -> Option<(usize, f64)>;
}

impl BenchPolicy for SyncFedAvg {
    fn soft_training(&self) -> Option<(usize, f64)> {
        None
    }
}

impl BenchPolicy for HeliosStrategy {
    fn soft_training(&self) -> Option<(usize, f64)> {
        let ids = self.stragglers();
        let keep: f64 = ids.iter().filter_map(|&i| self.keep_ratio(i)).sum();
        Some((
            ids.len(),
            if ids.is_empty() {
                1.0
            } else {
                keep / ids.len() as f64
            },
        ))
    }
}

/// Binds `$p` to a fresh policy of the workload's kind and evaluates
/// `$body` with it. `Strategy` is a blanket impl over sized
/// `RoundPolicy`s, so there is no trait object to hand around; callers
/// are generic over [`BenchPolicy`] and the dispatch happens here.
macro_rules! with_policy {
    ($kind:expr, |$p:ident| $body:expr) => {
        match $kind {
            $crate::workloads::StrategyKind::Sync => {
                let mut $p = helios_fl::SyncFedAvg::new();
                $body
            }
            $crate::workloads::StrategyKind::Helios => {
                let mut $p = helios_core::HeliosStrategy::new(helios_core::HeliosConfig::default());
                $body
            }
        }
    };
}
pub(crate) use with_policy;
