//! [`FlConfig`]: the hyper-parameters shared by every strategy run.

use crate::sampler::SamplerConfig;
use crate::{FlError, Result};
use helios_net::NetConfig;
use helios_scenario::ScenarioConfig;
use helios_tensor::ParallelismConfig;
use serde::{Deserialize, Serialize};

/// Hyper-parameters shared by every strategy run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlConfig {
    /// Mini-batch size for local training.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Master seed; model init, client shuffling, and strategy randomness
    /// all derive from it, making runs bit-reproducible.
    pub seed: u64,
    /// Thread budget for the parallel execution engine: caps the client
    /// fan-out of [`FlEnv::train_selected`](crate::FlEnv::train_selected)
    /// and the kernel width during evaluation. Results are bitwise
    /// identical for every setting — parallelism trades wall-clock time
    /// only (see `helios_tensor`'s parallel module). Defaults to
    /// auto-detect.
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
    /// Declarative scenario timeline: device churn, battery/thermal
    /// throttling, link outages, and data drift. Defaults to
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
            learning_rate: 0.05,
            seed: 42,
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
    /// Returns [`FlError::InvalidRunConfig`] for a zero batch size, a
    /// non-finite or non-positive learning rate, or an invalid `net`
    /// section.
    pub(crate) fn validate(&self) -> Result<()> {
        let invalid = |what: String| Err(FlError::InvalidRunConfig { what });
        if self.batch_size == 0 {
            return invalid("batch_size must be nonzero".into());
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return invalid(format!(
                "learning_rate {} must be positive and finite",
                self.learning_rate
            ));
        }
        self.sampling.validate()?;
        self.net.validate().map_err(FlError::Net)
    }
}
