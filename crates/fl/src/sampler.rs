//! Per-round client sampling for fleet-scale populations.
//!
//! Production FL samples a few hundred participants per round out of an
//! enrolled population many orders of magnitude larger. The
//! [`ClientSampler`] draws that cohort deterministically: each cycle
//! gets its own seed derived from `(base_seed, cycle)`, so runs replay
//! bitwise regardless of thread width, and sampling device `i` never
//! touches state of any other device.
//!
//! Two strategies are provided:
//!
//! - [`SamplingStrategy::Uniform`] — Floyd's algorithm, O(cohort) memory
//!   and time, every enrolled device equally likely;
//! - [`SamplingStrategy::WeightedByAvailability`] — an
//!   Efraimidis–Spirakis weighted reservoir over the availability
//!   weights, O(cohort) memory and one pass over the population;
//!   zero-availability devices are never selected.

use crate::fleet::AvailabilityModel;
use crate::{FlError, Result};
use helios_tensor::TensorRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::collections::BinaryHeap;

/// Golden-ratio multiplier used across the workspace for index mixing.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
/// Domain-separation tag for the sampler's per-cycle streams ("SAMP").
const SAMPLE_STREAM: u64 = 0x5341_4d50;

/// How the per-round cohort is drawn from the enrolled population.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplingStrategy {
    /// Every enrolled device is equally likely.
    #[default]
    Uniform,
    /// Selection probability proportional to the device's availability
    /// weight; devices with availability `0.0` are never selected.
    WeightedByAvailability,
}

/// Per-round sampling configuration, carried on
/// [`FlConfig`](crate::FlConfig) behind `#[serde(default)]` so pre-fleet
/// configuration files still load (sampling disabled).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplerConfig {
    /// When `false` (the default), every enrolled device participates in
    /// every round — the pre-fleet behavior.
    pub enabled: bool,
    /// Cohort size per round (clamped to the population).
    pub per_round: usize,
    /// Cohort draw rule.
    pub strategy: SamplingStrategy,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            enabled: false,
            per_round: 0,
            strategy: SamplingStrategy::Uniform,
        }
    }
}

impl SamplerConfig {
    /// Uniform sampling of `per_round` devices per cycle.
    #[must_use]
    pub fn uniform(per_round: usize) -> Self {
        SamplerConfig {
            enabled: true,
            per_round,
            strategy: SamplingStrategy::Uniform,
        }
    }

    /// Availability-weighted sampling of `per_round` devices per cycle.
    #[must_use]
    pub fn weighted(per_round: usize) -> Self {
        SamplerConfig {
            enabled: true,
            per_round,
            strategy: SamplingStrategy::WeightedByAvailability,
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

/// Entry of the weighted-sampling reservoir: Efraimidis–Spirakis key
/// `ln(u)/w` with the device index as a total-order tie-break.
#[derive(Debug, Clone, Copy)]
struct ReservoirEntry {
    key: f64,
    device: usize,
}

impl PartialEq for ReservoirEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for ReservoirEntry {}
impl PartialOrd for ReservoirEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReservoirEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap pops the *worst* kept entry first: order by key
        // descending inverted below via Reverse-free convention — we keep
        // the k largest keys, so the heap root must be the smallest.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.device.cmp(&self.device))
    }
}

/// Deterministic per-round cohort sampler.
///
/// `cohort(population, cycle, availability)` is a pure function of
/// `(config, base_seed, population, cycle)` (plus the availability
/// model, itself pure), so two runs with the same configuration draw
/// identical cohort sequences — the replay contract the fleet test
/// suite pins.
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

    /// Draws cycle `cycle`'s cohort from `0..population`, sorted
    /// ascending. With sampling disabled, returns the whole population.
    pub fn cohort(
        &self,
        population: usize,
        cycle: usize,
        availability: &AvailabilityModel,
    ) -> Vec<usize> {
        if !self.config.enabled {
            return (0..population).collect();
        }
        let k = self.config.per_round.min(population);
        let mut rng = TensorRng::seed_from(self.cycle_seed(cycle));
        match self.config.strategy {
            SamplingStrategy::Uniform => Self::uniform_cohort(population, k, &mut rng),
            SamplingStrategy::WeightedByAvailability => {
                Self::weighted_cohort(population, k, cycle, availability, &mut rng)
            }
        }
    }

    /// Floyd's algorithm: k distinct uniform draws in O(k) memory.
    fn uniform_cohort(population: usize, k: usize, rng: &mut TensorRng) -> Vec<usize> {
        let mut chosen = BTreeSet::new();
        for j in population - k..population {
            let t = rng.below(j + 1);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }

    /// Efraimidis–Spirakis weighted reservoir: keep the k largest
    /// `u^(1/w)` keys (equivalently `ln(u)/w`), one uniform draw per
    /// positive-weight device, O(k) reservoir memory. The weights are
    /// the availability model's *per-cycle* values, so a diurnal wave
    /// biases each cycle's draw toward the devices currently awake.
    fn weighted_cohort(
        population: usize,
        k: usize,
        cycle: usize,
        availability: &AvailabilityModel,
        rng: &mut TensorRng,
    ) -> Vec<usize> {
        let mut reservoir: BinaryHeap<ReservoirEntry> = BinaryHeap::with_capacity(k + 1);
        for device in 0..population {
            let w = availability.availability(device, cycle);
            if w <= 0.0 {
                // Offline this cycle: no draw, never selected.
                continue;
            }
            let u = rng.unit_f64();
            let key = if u > 0.0 {
                u.ln() / w
            } else {
                f64::NEG_INFINITY
            };
            reservoir.push(ReservoirEntry { key, device });
            if reservoir.len() > k {
                // Root is the smallest kept key (see `Ord`).
                reservoir.pop();
            }
        }
        let mut cohort: Vec<usize> = reservoir.into_iter().map(|e| e.device).collect();
        cohort.sort_unstable();
        cohort
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
        for cfg in [SamplerConfig::uniform(50), SamplerConfig::weighted(50)] {
            let avail = AvailabilityModel::new(7, 0.2);
            let a = ClientSampler::new(cfg, 7);
            let b = ClientSampler::new(cfg, 7);
            for cycle in 0..5 {
                assert_eq!(
                    a.cohort(10_000, cycle, &avail),
                    b.cohort(10_000, cycle, &avail)
                );
            }
            // Different cycles draw different cohorts.
            assert_ne!(a.cohort(10_000, 0, &avail), a.cohort(10_000, 1, &avail));
            // Different seeds draw different cohorts.
            let c = ClientSampler::new(cfg, 8);
            assert_ne!(a.cohort(10_000, 0, &avail), c.cohort(10_000, 0, &avail));
        }
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
        let w = ClientSampler::new(SamplerConfig::weighted(100), 1);
        let cohort = w.cohort(7, 0, &AvailabilityModel::always_on());
        assert_eq!(cohort, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn weighted_sampler_never_selects_offline_devices() {
        // A quarter of 2000 devices are permanently offline.
        let avail = AvailabilityModel::new(5, 0.25);
        let s = ClientSampler::new(SamplerConfig::weighted(200), 5);
        for cycle in 0..8 {
            let cohort = s.cohort(2000, cycle, &avail);
            assert_eq!(cohort.len(), 200);
            assert!(distinct_sorted(&cohort));
            assert!(
                cohort.iter().all(|&d| avail.availability(d, cycle) > 0.0),
                "cycle {cycle} selected an offline device"
            );
        }
    }

    #[test]
    fn weighted_sampler_returns_all_available_when_short() {
        // Roughly half of 80 devices are offline; asking for more than
        // the available count returns exactly the available set.
        let avail = AvailabilityModel::new(2, 0.5);
        let available: Vec<usize> = (0..80)
            .filter(|&d| avail.availability(d, 0) > 0.0)
            .collect();
        assert!(available.len() < 70, "fixture needs a short population");
        let s = ClientSampler::new(SamplerConfig::weighted(70), 2);
        let cohort = s.cohort(80, 0, &avail);
        assert_eq!(cohort, available);
    }

    #[test]
    fn validate_rejects_enabled_empty_cohort() {
        assert!(SamplerConfig::uniform(0).validate().is_err());
        assert!(SamplerConfig::default().validate().is_ok());
        assert!(SamplerConfig::weighted(10).validate().is_ok());
    }
}
