//! JSON-configurable experiments: run any fleet/workload/strategy
//! combination without recompiling.
//!
//! The `custom` binary consumes these configs:
//!
//! ```text
//! cargo run -p helios-bench --release --bin custom -- experiment.json
//! ```
//!
//! ```json
//! {
//!   "workload": "cifar10",
//!   "capable": 2,
//!   "stragglers": 2,
//!   "per_client": 120,
//!   "test_samples": 300,
//!   "non_iid": true,
//!   "seed": 42,
//!   "cycles": 25,
//!   "strategies": ["sync", "async", "afo", "random", "helios", "st_only"]
//! }
//! ```

use crate::{run_strategies, ExperimentSpec, Split, Workload, STRATEGY_NAMES};
use helios_fl::RunMetrics;
use serde::{Deserialize, Serialize};

/// A complete experiment description, deserializable from JSON.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Workload name: `mnist`, `cifar10`, or `cifar100`.
    pub workload: String,
    /// Number of capable devices.
    pub capable: usize,
    /// Number of straggler devices.
    pub stragglers: usize,
    /// Training samples per client.
    #[serde(default = "default_per_client")]
    pub per_client: usize,
    /// Held-out test samples.
    #[serde(default = "default_test_samples")]
    pub test_samples: usize,
    /// Label-shard Non-IID split.
    #[serde(default)]
    pub non_iid: bool,
    /// Master seed.
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Aggregation cycles to run.
    pub cycles: usize,
    /// Strategy names: `sync`, `async`, `afo`, `random`, `helios`,
    /// `st_only`.
    pub strategies: Vec<String>,
}

fn default_per_client() -> usize {
    120
}

fn default_test_samples() -> usize {
    300
}

fn default_seed() -> u64 {
    42
}

/// Errors from parsing or executing an [`ExperimentConfig`].
#[derive(Debug)]
#[non_exhaustive]
pub enum ConfigError {
    /// The JSON was malformed.
    Parse(serde_json::Error),
    /// A field value is not usable.
    Invalid(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Parse(e) => write!(f, "config parse failed: {e}"),
            ConfigError::Invalid(what) => write!(f, "invalid config: {what}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl ExperimentConfig {
    /// Parses a config from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Parse`] for malformed JSON and
    /// [`ConfigError::Invalid`] for out-of-range fields.
    pub fn from_json(text: &str) -> Result<Self, ConfigError> {
        let config: ExperimentConfig = serde_json::from_str(text).map_err(ConfigError::Parse)?;
        config.validate()?;
        Ok(config)
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if Workload::parse(&self.workload).is_none() {
            return Err(ConfigError::Invalid(format!(
                "unknown workload {:?} (use mnist|cifar10|cifar100)",
                self.workload
            )));
        }
        if self.capable == 0 {
            return Err(ConfigError::Invalid(
                "at least one capable device is required".into(),
            ));
        }
        if self.cycles == 0 {
            return Err(ConfigError::Invalid("cycles must be nonzero".into()));
        }
        if self.strategies.is_empty() {
            return Err(ConfigError::Invalid("no strategies listed".into()));
        }
        for s in &self.strategies {
            if !STRATEGY_NAMES.contains(&s.as_str()) {
                return Err(ConfigError::Invalid(format!(
                    "unknown strategy {s:?} (use {})",
                    STRATEGY_NAMES.join("|")
                )));
            }
        }
        Ok(())
    }

    /// The equivalent [`ExperimentSpec`].
    ///
    /// # Panics
    ///
    /// Panics if called on an unvalidated config with a bad workload name
    /// (construct via [`ExperimentConfig::from_json`] to avoid this).
    pub(crate) fn spec(&self) -> ExperimentSpec {
        ExperimentSpec {
            workload: Workload::parse(&self.workload).expect("validated workload"),
            capable: self.capable,
            stragglers: self.stragglers,
            per_client: self.per_client,
            test_samples: self.test_samples,
            split: if self.non_iid {
                Split::LabelShards
            } else {
                Split::Iid
            },
            seed: self.seed,
        }
    }

    /// Runs every listed strategy against identically-seeded fresh
    /// environments.
    ///
    /// # Panics
    ///
    /// Panics when a strategy run fails (impossible for validated
    /// configs).
    pub fn run(&self) -> Vec<RunMetrics> {
        run_strategies(&self.spec(), &self.strategies, self.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
        "workload": "mnist",
        "capable": 1,
        "stragglers": 1,
        "per_client": 30,
        "test_samples": 30,
        "cycles": 2,
        "strategies": ["sync", "helios"]
    }"#;

    #[test]
    fn parses_and_runs_a_minimal_config() {
        let config = ExperimentConfig::from_json(GOOD).expect("valid config");
        assert_eq!(config.seed, 42, "default seed applies");
        assert!(!config.non_iid, "default split is IID");
        let metrics = config.run();
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0].strategy(), "sync_fedavg");
        assert_eq!(metrics[1].strategy(), "helios");
        assert_eq!(metrics[0].records().len(), 2);
    }

    #[test]
    fn rejects_malformed_and_invalid_configs() {
        assert!(matches!(
            ExperimentConfig::from_json("{not json"),
            Err(ConfigError::Parse(_))
        ));
        let bad_workload = GOOD.replace("mnist", "imagenet");
        assert!(matches!(
            ExperimentConfig::from_json(&bad_workload),
            Err(ConfigError::Invalid(_))
        ));
        let bad_strategy = GOOD.replace("helios", "sgd");
        assert!(ExperimentConfig::from_json(&bad_strategy).is_err());
        let no_capable = GOOD.replace("\"capable\": 1", "\"capable\": 0");
        assert!(ExperimentConfig::from_json(&no_capable).is_err());
        let zero_cycles = GOOD.replace("\"cycles\": 2", "\"cycles\": 0");
        assert!(ExperimentConfig::from_json(&zero_cycles).is_err());
    }

    #[test]
    fn config_round_trips_through_json() {
        let config = ExperimentConfig::from_json(GOOD).expect("valid");
        let text = serde_json::to_string(&config).expect("serializes");
        let back = ExperimentConfig::from_json(&text).expect("round trip");
        assert_eq!(back.workload, config.workload);
        assert_eq!(back.strategies, config.strategies);
    }
}
