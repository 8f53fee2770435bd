//! Shared experiment harness for the Helios paper-reproduction benches.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §3 for the index). This library holds what they
//! share: experiment specifications, environment construction, strategy
//! sweeps, curve printing, and CSV output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;

pub use config::{ConfigError, ExperimentConfig};

use helios_core::{HeliosConfig, HeliosStrategy};
use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_fl::{Afo, AsyncFl, FlConfig, FlEnv, RandomPartial, RunMetrics, Strategy, SyncFedAvg};
use helios_nn::models::ModelKind;
use helios_tensor::TensorRng;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// The three paper dataset/model pairings (§VII.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LeNet on the MNIST-like synthetic dataset.
    LenetMnist,
    /// AlexNet on the CIFAR-10-like synthetic dataset.
    AlexnetCifar10,
    /// ResNet-18 on the CIFAR-100-like synthetic dataset.
    Resnet18Cifar100,
}

impl Workload {
    /// All three pairings, in the paper's order.
    pub const ALL: [Workload; 3] = [
        Workload::LenetMnist,
        Workload::AlexnetCifar10,
        Workload::Resnet18Cifar100,
    ];

    /// Parses a workload name (`mnist`, `cifar10`, `cifar100`).
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "mnist" => Some(Workload::LenetMnist),
            "cifar10" => Some(Workload::AlexnetCifar10),
            "cifar100" => Some(Workload::Resnet18Cifar100),
            _ => None,
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Workload::LenetMnist => "lenet/mnist",
            Workload::AlexnetCifar10 => "alexnet/cifar10",
            Workload::Resnet18Cifar100 => "resnet18/cifar100",
        }
    }

    /// The synthetic dataset generator, tuned so federated convergence
    /// takes tens of cycles (difficulty ladder: MNIST < CIFAR-10 <
    /// CIFAR-100, as in the paper).
    pub fn dataset_spec(self) -> SyntheticVision {
        match self {
            Workload::LenetMnist => SyntheticVision {
                noise_std: 1.3,
                ..SyntheticVision::mnist_like()
            },
            Workload::AlexnetCifar10 => SyntheticVision {
                noise_std: 1.5,
                ..SyntheticVision::cifar10_like()
            },
            Workload::Resnet18Cifar100 => SyntheticVision {
                noise_std: 1.2,
                ..SyntheticVision::cifar100_like()
            },
        }
    }

    /// The matching model architecture.
    pub fn model(self) -> ModelKind {
        match self {
            Workload::LenetMnist => ModelKind::LeNet,
            Workload::AlexnetCifar10 => ModelKind::AlexNet,
            Workload::Resnet18Cifar100 => ModelKind::ResNet18,
        }
    }

    /// Aggregation cycles the paper's Fig 5 runs for this workload
    /// (MNIST converges in ~10, CIFAR-10 in ~18, CIFAR-100 in ~50).
    pub fn default_cycles(self) -> usize {
        match self {
            Workload::LenetMnist => 20,
            Workload::AlexnetCifar10 => 25,
            Workload::Resnet18Cifar100 => 50,
        }
    }
}

/// One experiment's fleet and data configuration.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Dataset/model pairing.
    pub workload: Workload,
    /// Number of capable (full-power) devices.
    pub capable: usize,
    /// Number of straggler devices (Table I presets, cycled).
    pub stragglers: usize,
    /// Training samples per client.
    pub per_client: usize,
    /// Held-out test samples.
    pub test_samples: usize,
    /// Label-shard Non-IID split instead of IID.
    pub non_iid: bool,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentSpec {
    /// The paper's standard fleets: 4 devices (2 capable + 2 stragglers)
    /// or 6 devices (3 + 3), §VII.B.
    pub fn paper_fleet(workload: Workload, devices: usize, non_iid: bool, seed: u64) -> Self {
        let stragglers = devices / 2;
        ExperimentSpec {
            workload,
            capable: devices - stragglers,
            stragglers,
            per_client: 120,
            test_samples: 300,
            non_iid,
            seed,
        }
    }

    /// Total fleet size.
    pub fn devices(&self) -> usize {
        self.capable + self.stragglers
    }

    /// Client indices of the stragglers (the fleet builder places capable
    /// devices first).
    pub(crate) fn straggler_ids(&self) -> Vec<usize> {
        (self.capable..self.devices()).collect()
    }

    /// Builds a fresh environment for one strategy run.
    ///
    /// # Panics
    ///
    /// Panics on internal construction errors (invalid spec).
    pub fn build_env(&self) -> FlEnv {
        let mut rng = TensorRng::seed_from(self.seed);
        let clients = self.devices();
        let (train, test) = self
            .workload
            .dataset_spec()
            .generate(self.per_client * clients, self.test_samples, &mut rng)
            .expect("dataset generation cannot fail for valid specs");
        let idx_sets = if self.non_iid {
            // Zhao et al. label shards: 2 shards per client (§VII.D).
            partition::label_shards(train.labels(), clients, 2, &mut rng)
                .expect("shard partition fits")
        } else {
            partition::iid(train.len(), clients, &mut rng)
        };
        let shards: Vec<Dataset> = idx_sets
            .into_iter()
            .map(|idx| train.subset(&idx).expect("indices in range"))
            .collect();
        FlEnv::new(
            self.workload.model(),
            presets::mixed_fleet(self.capable, self.stragglers),
            shards,
            test,
            FlConfig {
                seed: self.seed,
                learning_rate: 0.04,
                ..FlConfig::default()
            },
        )
        .expect("environment construction cannot fail for valid specs")
    }

    /// Initializes a Helios strategy against a scratch environment and
    /// returns the fitted keep ratio per client (`None` for capable
    /// devices) — handed to the Random baseline so both train the same
    /// expected volumes, as in the paper's comparison.
    pub(crate) fn helios_volumes(&self) -> Vec<Option<f64>> {
        let mut env = self.build_env();
        let mut helios = HeliosStrategy::new(HeliosConfig::default());
        helios
            .initialize(&mut env)
            .expect("initialization succeeds on paper fleets");
        (0..self.devices()).map(|i| helios.keep_ratio(i)).collect()
    }
}

/// Which strategies a sweep covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategySet {
    /// All five of §VII.A: Syn. FL, Asyn. FL, AFO, Random, Helios.
    Paper,
    /// Helios vs soft-training-only (Fig 6 ablation).
    AggregationAblation,
}

/// Runs the selected strategies, each against a fresh identically-seeded
/// environment, for `cycles` aggregation cycles.
///
/// # Panics
///
/// Panics when a strategy fails (impossible for valid specs).
pub fn run_strategies(spec: &ExperimentSpec, set: StrategySet, cycles: usize) -> Vec<RunMetrics> {
    let straggler_ids = spec.straggler_ids();
    let mut out = Vec::new();
    match set {
        StrategySet::Paper => {
            let volumes = spec.helios_volumes();
            let runs: Vec<Box<dyn Strategy>> = vec![
                Box::new(SyncFedAvg::new()),
                Box::new(AsyncFl::new(straggler_ids.clone())),
                Box::new(Afo::new(straggler_ids)),
                Box::new(RandomPartial::new(volumes)),
                Box::new(HeliosStrategy::new(HeliosConfig::default())),
            ];
            for mut s in runs {
                let mut env = spec.build_env();
                out.push(s.run(&mut env, cycles).expect("strategy run succeeds"));
            }
        }
        StrategySet::AggregationAblation => {
            for config in [HeliosConfig::soft_training_only(), HeliosConfig::default()] {
                let mut env = spec.build_env();
                let mut s = HeliosStrategy::new(config);
                out.push(s.run(&mut env, cycles).expect("strategy run succeeds"));
            }
        }
    }
    out
}

/// Runs a single Helios configuration against a fresh environment
/// (ablation helper).
///
/// # Panics
///
/// Panics when the run fails (impossible for valid specs/configs).
pub fn run_strategies_with_config(
    spec: &ExperimentSpec,
    config: HeliosConfig,
    cycles: usize,
) -> RunMetrics {
    let mut env = spec.build_env();
    let mut s = HeliosStrategy::new(config);
    s.run(&mut env, cycles).expect("helios run succeeds")
}

/// Renders accuracy-vs-cycle curves as an aligned text table (one row per
/// strategy, sampled every `step` cycles), the textual analogue of the
/// paper's figure panels.
pub fn format_curves(metrics: &[RunMetrics], step: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>7} {:>7} {:>9}  accuracy @ every {} cycles",
        "strategy",
        "best",
        "tail3",
        "sim_time",
        step.max(1)
    );
    for m in metrics {
        let pts: Vec<String> = m
            .records()
            .iter()
            .step_by(step.max(1))
            .map(|r| format!("{:.3}", r.test_accuracy))
            .collect();
        let _ = writeln!(
            out,
            "{:<16} {:>7.4} {:>7.4} {:>9}  {}",
            m.strategy(),
            m.best_accuracy(),
            m.tail_accuracy(3),
            m.total_time().to_string(),
            pts.join(" ")
        );
    }
    out
}

/// Prints the paper's headline comparisons for a strategy sweep: best /
/// converged accuracy, and simulated-time speedups over Syn. FL at a
/// common target accuracy (the paper's "up to 2.5×" metric).
pub fn format_summary(metrics: &[RunMetrics], target: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>8} {:>12} {:>14} {:>10}",
        "strategy", "best", "tail3", "t@target", "speedup_vs[0]", "comm(MB)"
    );
    let reference = metrics.first();
    for m in metrics {
        let t = m.time_to_reach(target);
        let speedup = reference
            .and_then(|r| m.speedup_over(r, target))
            .map(|s| format!("{s:.2}x"))
            .unwrap_or_else(|| "—".into());
        let _ = writeln!(
            out,
            "{:<16} {:>8.4} {:>8.4} {:>12} {:>14} {:>10.2}",
            m.strategy(),
            m.best_accuracy(),
            m.tail_accuracy(3),
            t.map(|t| t.to_string()).unwrap_or_else(|| "—".into()),
            speedup,
            m.total_comm_bytes() / (1 << 20) as f64,
        );
    }
    out
}

/// Writes one CSV per run into `dir` (created if missing), named
/// `<prefix>_<strategy>.csv`.
///
/// # Errors
///
/// Returns I/O errors from directory creation or file writes.
pub fn write_csvs(dir: &Path, prefix: &str, metrics: &[RunMetrics]) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    for m in metrics {
        let path = dir.join(format!("{prefix}_{}.csv", m.strategy()));
        fs::write(path, m.to_csv())?;
    }
    Ok(())
}

/// Default results directory (`results/` under the workspace root).
pub fn results_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_parsing_and_labels() {
        assert_eq!(Workload::parse("mnist"), Some(Workload::LenetMnist));
        assert_eq!(
            Workload::parse("cifar100"),
            Some(Workload::Resnet18Cifar100)
        );
        assert_eq!(Workload::parse("bogus"), None);
        for w in Workload::ALL {
            assert!(!w.label().is_empty());
            assert!(w.default_cycles() >= 20);
        }
    }

    #[test]
    fn dataset_difficulty_ladder_is_ordered() {
        // MNIST-like must stay the easiest workload: single channel and
        // the lowest class-count-to-noise pressure.
        let mnist = Workload::LenetMnist.dataset_spec();
        let cifar10 = Workload::AlexnetCifar10.dataset_spec();
        let cifar100 = Workload::Resnet18Cifar100.dataset_spec();
        assert_eq!(mnist.channels, 1);
        assert_eq!(cifar10.channels, 3);
        assert_eq!(cifar100.num_classes, 100);
        assert!(cifar10.noise_std >= mnist.noise_std);
    }

    #[test]
    fn paper_fleet_shapes() {
        let s4 = ExperimentSpec::paper_fleet(Workload::LenetMnist, 4, false, 1);
        assert_eq!((s4.capable, s4.stragglers), (2, 2));
        assert_eq!(s4.straggler_ids(), vec![2, 3]);
        let s6 = ExperimentSpec::paper_fleet(Workload::LenetMnist, 6, true, 1);
        assert_eq!((s6.capable, s6.stragglers), (3, 3));
        assert!(s6.non_iid);
    }

    #[test]
    fn build_env_and_volumes() {
        let spec = ExperimentSpec {
            per_client: 40,
            test_samples: 40,
            ..ExperimentSpec::paper_fleet(Workload::LenetMnist, 4, false, 2)
        };
        let env = spec.build_env();
        assert_eq!(env.num_clients(), 4);
        let volumes = spec.helios_volumes();
        assert_eq!(volumes.len(), 4);
        assert!(volumes[0].is_none() && volumes[1].is_none());
        assert!(volumes[2].unwrap() < 1.0);
        assert!(volumes[3].unwrap() < 1.0);
    }

    #[test]
    fn formatting_contains_strategy_names() {
        let spec = ExperimentSpec {
            per_client: 30,
            test_samples: 30,
            ..ExperimentSpec::paper_fleet(Workload::LenetMnist, 2, false, 3)
        };
        let metrics = run_strategies(&spec, StrategySet::AggregationAblation, 2);
        let curves = format_curves(&metrics, 1);
        assert!(curves.contains("helios_st_only"));
        assert!(curves.contains("helios"));
        let summary = format_summary(&metrics, 0.01);
        assert!(summary.contains("speedup"));
    }
}
