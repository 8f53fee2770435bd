//! Fleet-scale population description for lazily instantiated devices.
//!
//! A [`FleetSpec`] describes an enrolled population without storing any
//! of it: profiles, shards, and availability are all pure functions of
//! `(base_seed, device_index)`, so a 100k-device fleet costs a few
//! hundred bytes until devices are actually sampled. [`crate::FlEnv`]
//! consumes a spec via `FlEnv::new_lazy` and materializes clients on
//! demand.

use helios_data::ShardSynthesizer;
use helios_device::fleet::{mix64, unit_from_bits, ProfileSynthesizer};
use helios_scenario::DiurnalWave;
use serde::{Deserialize, Serialize};

/// Golden-ratio multiplier used across the workspace for index mixing.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
/// Domain-separation tag for the availability stream ("AVLB").
const AVAIL_STREAM: u64 = 0x4156_4c42;
/// Domain-separation tag for the diurnal wave phase stream ("WAVE").
const WAVE_STREAM: u64 = 0x5741_5645;

/// Per-device participation propensity, pure in
/// `(base_seed, device, cycle)`.
///
/// A fixed fraction of the population is permanently offline
/// (availability exactly `0.0` — the weighted sampler must never select
/// them); the rest get an individual base availability in `(0, 1]`. An
/// optional [`DiurnalWave`] modulates the base weight over simulated
/// time with a per-device phase shift, so a fleet's participation
/// ebbs and flows like a day/night cycle while staying a pure function
/// of `(base_seed, device, cycle)` — the lazy==eager bitwise-parity
/// contract. The always-on model (`offline_fraction == 0`, no wave)
/// reports `1.0` for every device at every cycle and is the default for
/// eager environments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityModel {
    base_seed: u64,
    offline_fraction: f64,
    /// Optional time-of-day modulation (absent in configs written
    /// before the scenario engine existed).
    #[serde(default)]
    wave: Option<DiurnalWave>,
}

impl AvailabilityModel {
    /// Every device is always available (availability `1.0`).
    #[must_use]
    pub fn always_on() -> Self {
        AvailabilityModel {
            base_seed: 0,
            offline_fraction: 0.0,
            wave: None,
        }
    }

    /// A population where `offline_fraction` of devices never
    /// participate.
    ///
    /// # Panics
    ///
    /// Panics if `offline_fraction` is not in `[0, 1]`.
    #[must_use]
    pub fn new(base_seed: u64, offline_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&offline_fraction),
            "offline fraction must be in [0, 1], got {offline_fraction}"
        );
        AvailabilityModel {
            base_seed,
            offline_fraction,
            wave: None,
        }
    }

    /// Adds a diurnal wave: each device's weight is multiplied by a
    /// phase-shifted sinusoid of the cycle index.
    #[must_use]
    pub fn with_wave(mut self, wave: DiurnalWave) -> Self {
        self.wave = Some(wave);
        self
    }

    /// Base availability ignoring any diurnal wave: `0.0` for
    /// permanently offline devices, in `(0, 1]` otherwise. Pure in
    /// `(base_seed, device)`.
    #[must_use]
    fn base_availability(&self, device: usize) -> f64 {
        if self.offline_fraction == 0.0 {
            return 1.0;
        }
        let h = mix64(self.base_seed ^ AVAIL_STREAM ^ GOLDEN.wrapping_mul(device as u64 + 1));
        let u = unit_from_bits(h);
        if u < self.offline_fraction {
            0.0
        } else {
            // Rescale the surviving mass to (0, 1].
            (u - self.offline_fraction) / (1.0 - self.offline_fraction)
        }
    }

    /// Availability weight of `device` at `cycle`, in `[0, 1]`; exactly
    /// `0.0` for permanently offline devices regardless of the wave.
    /// Pure in `(base_seed, device, cycle)` — without a wave the cycle
    /// is ignored and the historical static weights are returned
    /// bit-for-bit.
    #[must_use]
    pub fn availability(&self, device: usize, cycle: usize) -> f64 {
        let base = self.base_availability(device);
        match &self.wave {
            None => base,
            Some(w) => {
                if base == 0.0 {
                    return 0.0;
                }
                let h =
                    mix64(self.base_seed ^ WAVE_STREAM ^ GOLDEN.wrapping_mul(device as u64 + 1));
                base * w.scale(unit_from_bits(h), cycle)
            }
        }
    }
}

/// An enrolled device population, described but not materialized.
///
/// Bundles the three per-device pure generators — compute profile, data
/// shard, availability — plus the population size and the cache policy
/// the lazy environment applies to instantiated clients.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of enrolled devices.
    pub population: usize,
    /// On-demand compute/memory/network profile generator.
    pub profiles: ProfileSynthesizer,
    /// On-demand data shard generator.
    pub shards: ShardSynthesizer,
    /// Per-device participation propensity for weighted sampling.
    pub availability: AvailabilityModel,
    /// When `false`, clients outside the current cohort are evicted at
    /// each selection, capping live state at O(cohort) — the fleet
    /// bench's memory contract. When `true` (the default), instantiated
    /// clients persist for the whole run, which the lazy-vs-eager
    /// bitwise-equivalence guarantee requires for strategies that revisit
    /// devices across cycles.
    pub retain_clients: bool,
}

impl FleetSpec {
    /// A spec with every device always available and client retention on.
    #[must_use]
    pub fn new(population: usize, profiles: ProfileSynthesizer, shards: ShardSynthesizer) -> Self {
        FleetSpec {
            population,
            profiles,
            shards,
            availability: AvailabilityModel::always_on(),
            retain_clients: true,
        }
    }

    /// Replaces the availability model.
    #[must_use]
    pub fn with_availability(mut self, availability: AvailabilityModel) -> Self {
        self.availability = availability;
        self
    }

    /// Evict clients outside the current cohort at each selection,
    /// keeping live state O(cohort) instead of O(devices ever sampled).
    #[must_use]
    pub fn evict_unsampled(mut self) -> Self {
        self.retain_clients = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_data::SyntheticVision;

    #[test]
    fn always_on_reports_unit_availability() {
        let m = AvailabilityModel::always_on();
        assert!((0..1000).all(|i| m.availability(i, 0) == 1.0));
        // Without a wave the cycle is ignored.
        assert!((0..100).all(|c| m.availability(3, c) == 1.0));
    }

    #[test]
    fn availability_is_pure_and_offline_fraction_holds() {
        let m = AvailabilityModel::new(9, 0.25);
        let n = 4000;
        let offline = (0..n).filter(|&i| m.availability(i, 0) == 0.0).count();
        let rate = offline as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "offline rate {rate}");
        for i in [0usize, 17, 3999] {
            assert_eq!(
                m.availability(i, 0).to_bits(),
                m.availability(i, 0).to_bits()
            );
            assert!((0.0..=1.0).contains(&m.availability(i, 0)));
            // Static weights are cycle-independent.
            assert_eq!(
                m.availability(i, 0).to_bits(),
                m.availability(i, 99).to_bits()
            );
        }
    }

    #[test]
    fn fully_offline_population_has_no_available_devices() {
        let m = AvailabilityModel::new(1, 1.0);
        assert!((0..256).all(|i| m.availability(i, 0) == 0.0));
    }

    #[test]
    fn diurnal_wave_modulates_over_cycles_but_stays_pure() {
        let wave = DiurnalWave {
            period_cycles: 8,
            min_scale: 0.1,
            phase_spread: 1.0,
        };
        let m = AvailabilityModel::new(9, 0.25).with_wave(wave);
        assert!(m.wave.is_some());
        // Pure in (device, cycle) and bounded by the static weight.
        let static_m = AvailabilityModel::new(9, 0.25);
        for device in 0..64 {
            let base = static_m.availability(device, 0);
            for cycle in 0..16 {
                let a = m.availability(device, cycle);
                assert_eq!(a.to_bits(), m.availability(device, cycle).to_bits());
                assert!(a <= base, "wave must only shrink the weight");
                if base == 0.0 {
                    assert_eq!(a, 0.0, "offline devices stay offline at every hour");
                }
            }
            // Exactly periodic.
            assert_eq!(
                m.availability(device, 3).to_bits(),
                m.availability(device, 3 + 8).to_bits()
            );
        }
        // The wave actually varies over the day for online devices.
        let online = (0..64)
            .find(|&d| static_m.availability(d, 0) > 0.0)
            .unwrap();
        let weights: Vec<u64> = (0..8)
            .map(|c| m.availability(online, c).to_bits())
            .collect();
        assert!(weights.windows(2).any(|w| w[0] != w[1]));
        // And devices are phase-shifted relative to each other.
        let online2 = (online + 1..64)
            .find(|&d| static_m.availability(d, 0) > 0.0)
            .unwrap();
        let ratio1 = m.availability(online, 0) / static_m.availability(online, 0);
        let ratio2 = m.availability(online2, 0) / static_m.availability(online2, 0);
        assert_ne!(ratio1.to_bits(), ratio2.to_bits(), "phases differ");
    }

    #[test]
    fn spec_builders_compose() {
        let spec = FleetSpec::new(
            100_000,
            ProfileSynthesizer::new(3, 0.3),
            ShardSynthesizer::new(SyntheticVision::mnist_like(), 8, 3).unwrap(),
        )
        .with_availability(AvailabilityModel::new(3, 0.2))
        .evict_unsampled();
        assert_eq!(spec.population, 100_000);
        assert!(!spec.retain_clients);
        assert!(spec.availability.availability(0, 0) <= 1.0);
    }

    #[test]
    #[should_panic(expected = "offline fraction")]
    fn rejects_bad_offline_fraction() {
        let _ = AvailabilityModel::new(0, -0.1);
    }
}
