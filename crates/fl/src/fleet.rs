//! Fleet-scale population description for lazily instantiated devices.
//!
//! A [`FleetSpec`] describes an enrolled population without storing any
//! of it: profiles and shards are pure functions of `(base_seed,
//! device_index)`, so a 100k-device fleet costs a few hundred bytes
//! until devices are actually sampled. [`crate::FlEnv`] consumes a spec
//! via `FlEnv::new_lazy` and materializes clients on demand.

use helios_data::ShardSynthesizer;
use helios_device::fleet::ProfileSynthesizer;

/// Every device is always available.
///
/// A fieldless placeholder: [`ClientSampler::cohort`](crate::ClientSampler::cohort)
/// draws uniformly and ignores it, but the benchmark's sampler probe
/// still builds one and passes it, so the type stays until that caller
/// changes.
#[derive(Debug, Clone, Copy)]
pub struct AvailabilityModel;

impl AvailabilityModel {
    /// The always-on model.
    #[must_use]
    pub fn always_on() -> Self {
        AvailabilityModel
    }
}

/// An enrolled device population, described but not materialized.
///
/// Bundles the two per-device pure generators — compute profile and
/// data shard — plus the population size and the cache policy the lazy
/// environment applies to instantiated clients.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of enrolled devices.
    pub population: usize,
    /// On-demand compute/memory/network profile generator.
    pub profiles: ProfileSynthesizer,
    /// On-demand data shard generator.
    pub shards: ShardSynthesizer,
    /// When `false`, clients outside the current cohort are evicted at
    /// each selection, capping live state at O(cohort) — the fleet
    /// bench's memory contract. When `true` (the default), instantiated
    /// clients persist for the whole run, which the lazy-vs-eager
    /// bitwise-equivalence guarantee requires for strategies that revisit
    /// devices across cycles.
    pub retain_clients: bool,
}

impl FleetSpec {
    /// A spec with client retention on.
    #[must_use]
    pub fn new(population: usize, profiles: ProfileSynthesizer, shards: ShardSynthesizer) -> Self {
        FleetSpec {
            population,
            profiles,
            shards,
            retain_clients: true,
        }
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
    fn spec_builders_compose() {
        let spec = FleetSpec::new(
            100_000,
            ProfileSynthesizer::new(3, 0.3),
            ShardSynthesizer::new(SyntheticVision::mnist_like(), 8, 3).unwrap(),
        );
        assert!(spec.retain_clients, "retention is on by default");
        let spec = spec.evict_unsampled();
        assert_eq!(spec.population, 100_000);
        assert!(!spec.retain_clients);
    }
}
