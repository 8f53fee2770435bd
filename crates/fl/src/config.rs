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
    pub(crate) fn validate(&self) -> Result<()> {
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
