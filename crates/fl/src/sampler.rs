//! Per-round client sampling for fleet-scale populations.
//!
//! Production FL samples a few hundred participants per round out of an
//! enrolled population many orders of magnitude larger. The
//! [`ClientSampler`] draws that cohort deterministically: each cycle
//! gets its own seed derived from `(base_seed, cycle)`, so runs replay
//! bitwise regardless of thread width, and sampling device `i` never
//! touches state of any other device.
//!
//! The draw is uniform: Floyd's algorithm, O(cohort) memory and time,
//! every enrolled device equally likely.

use crate::fleet::AvailabilityModel;
use crate::{FlError, Result};
use helios_tensor::TensorRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Golden-ratio multiplier used across the workspace for index mixing.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
/// Domain-separation tag for the sampler's per-cycle streams ("SAMP").
const SAMPLE_STREAM: u64 = 0x5341_4d50;

/// Per-round sampling configuration, carried on
/// [`FlConfig`](crate::FlConfig) behind `#[serde(default)]` so pre-fleet
/// configuration files still load (sampling disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SamplerConfig {
    /// When `false` (the default), every enrolled device participates in
    /// every round — the pre-fleet behavior.
    pub enabled: bool,
    /// Cohort size per round (clamped to the population).
    pub per_round: usize,
}

impl SamplerConfig {
    /// Uniform sampling of `per_round` devices per cycle.
    #[must_use]
    pub fn uniform(per_round: usize) -> Self {
        SamplerConfig {
            enabled: true,
            per_round,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidRunConfig`] when sampling is enabled
    /// with an empty cohort.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.enabled && self.per_round == 0 {
            return Err(FlError::InvalidRunConfig {
                what: "sampling enabled with per_round == 0".into(),
            });
        }
        Ok(())
    }
}

/// Deterministic per-round cohort sampler.
///
/// `cohort(population, cycle, _)` is a pure function of `(config,
/// base_seed, population, cycle)`, so two runs with the same
/// configuration draw identical cohort sequences — the replay contract
/// the fleet test suite pins.
#[derive(Debug, Clone, Copy)]
pub struct ClientSampler {
    config: SamplerConfig,
    base_seed: u64,
}

impl ClientSampler {
    /// Creates a sampler; `base_seed` is the run seed.
    #[must_use]
    pub fn new(config: SamplerConfig, base_seed: u64) -> Self {
        ClientSampler { config, base_seed }
    }

    /// The seed of cycle `cycle`'s draw stream.
    #[must_use]
    pub(crate) fn cycle_seed(&self, cycle: usize) -> u64 {
        self.base_seed ^ SAMPLE_STREAM ^ GOLDEN.wrapping_mul(cycle as u64 + 1)
    }

    /// Draws cycle `cycle`'s cohort from `0..population` with Floyd's
    /// algorithm (k distinct uniform draws in O(k) memory), sorted
    /// ascending. With sampling disabled, returns the whole population.
    ///
    /// The third parameter is unused: the benchmark's sampler probe
    /// still passes an [`AvailabilityModel`], so the signature keeps it
    /// until that caller changes.
    pub fn cohort(&self, population: usize, cycle: usize, _: &AvailabilityModel) -> Vec<usize> {
        if !self.config.enabled {
            return (0..population).collect();
        }
        let k = self.config.per_round.min(population);
        let mut rng = TensorRng::seed_from(self.cycle_seed(cycle));
        let mut chosen = BTreeSet::new();
        for j in population - k..population {
            let t = rng.below(j + 1);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distinct_sorted(v: &[usize]) -> bool {
        v.windows(2).all(|w| w[0] < w[1])
    }

    #[test]
    fn disabled_sampler_returns_everyone() {
        let s = ClientSampler::new(SamplerConfig::default(), 3);
        let all = s.cohort(5, 0, &AvailabilityModel::always_on());
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cohorts_replay_bitwise_per_seed_and_cycle() {
        let on = AvailabilityModel::always_on();
        let a = ClientSampler::new(SamplerConfig::uniform(50), 7);
        let b = ClientSampler::new(SamplerConfig::uniform(50), 7);
        for cycle in 0..5 {
            assert_eq!(a.cohort(10_000, cycle, &on), b.cohort(10_000, cycle, &on));
        }
        // Different cycles draw different cohorts.
        assert_ne!(a.cohort(10_000, 0, &on), a.cohort(10_000, 1, &on));
        // Different seeds draw different cohorts.
        let c = ClientSampler::new(SamplerConfig::uniform(50), 8);
        assert_ne!(a.cohort(10_000, 0, &on), c.cohort(10_000, 0, &on));
        // The exact members of two draws, pinned so a change to Floyd's
        // draw or to the per-cycle seed fails here.
        let pinned = ClientSampler::new(SamplerConfig::uniform(10), 7);
        assert_eq!(
            pinned.cohort(10_000, 0, &on),
            [85, 2471, 2687, 4884, 4985, 5250, 6598, 8106, 8545, 9120]
        );
        assert_eq!(
            pinned.cohort(10_000, 1, &on),
            [429, 2064, 3827, 4157, 4939, 7178, 8332, 9477, 9549, 9661]
        );
    }

    #[test]
    fn uniform_cohort_is_distinct_sorted_and_exact_size() {
        let s = ClientSampler::new(SamplerConfig::uniform(500), 11);
        for cycle in 0..10 {
            let cohort = s.cohort(10_000, cycle, &AvailabilityModel::always_on());
            assert_eq!(cohort.len(), 500);
            assert!(distinct_sorted(&cohort));
            assert!(*cohort.last().unwrap() < 10_000);
        }
    }

    #[test]
    fn oversized_cohort_clamps_to_population() {
        let s = ClientSampler::new(SamplerConfig::uniform(100), 1);
        let cohort = s.cohort(7, 0, &AvailabilityModel::always_on());
        assert_eq!(cohort, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn validate_rejects_enabled_empty_cohort() {
        assert!(SamplerConfig::uniform(0).validate().is_err());
        assert!(SamplerConfig::default().validate().is_ok());
        assert!(SamplerConfig::uniform(10).validate().is_ok());
    }
}
