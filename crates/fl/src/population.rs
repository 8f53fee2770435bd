//! The one client store behind [`FlEnv`](crate::FlEnv): an id-ordered
//! map of resident clients plus an optional generator source.
//!
//! `FlEnv::new` is the store with every client resident and no source,
//! `FlEnv::new_lazy` the store with none resident and a source that
//! builds client `i` on demand. Eviction and scenario joins are
//! properties of the source; everything else is one path.

use crate::fleet::FleetSpec;
use crate::{Client, FlConfig, FlError, Result};
use helios_data::{Dataset, ShardSynthesizer};
use helios_device::{ProfileSynthesizer, ResourceProfile};
use helios_nn::Network;
use helios_tensor::{map_indexed, TensorRng};
use std::collections::BTreeMap;

/// The pure per-device generators an unresident client is built from.
#[derive(Debug, Clone)]
struct Source {
    profiles: ProfileSynthesizer,
    shards: ShardSynthesizer,
    /// `false` evicts clients outside the cohort at each selection.
    retain: bool,
    /// Pristine post-init model cloned into each materialized client.
    /// (`FlEnv::eval_net` cannot serve this role: evaluation mutates it.)
    template: Network,
    /// The master RNG's split chain, one recorded seed per device, so
    /// client `i` built at any later time gets bit-for-bit the RNG an
    /// up-front construction would have handed it.
    seeds: Vec<u64>,
}

/// Enrolled devices, the resident ones as [`Client`]s in ascending-id
/// order. Unresident devices cost 8 bytes (their recorded seed).
#[derive(Debug, Clone)]
pub(crate) struct Population {
    population: usize,
    resident: BTreeMap<usize, Client>,
    source: Option<Source>,
}

/// Builds client `id` under the run's hyper-parameters.
pub(crate) fn build_client(
    id: usize,
    net: Network,
    shard: Dataset,
    profile: ResourceProfile,
    config: &FlConfig,
    seed: u64,
) -> Client {
    Client::new(
        id,
        net,
        shard,
        profile,
        config.learning_rate,
        config.batch_size,
        TensorRng::seed_from(seed),
    )
}

impl Population {
    /// A store holding `clients` (ids `0..n`) and nothing else.
    pub(crate) fn resident(clients: impl Iterator<Item = Client>) -> Self {
        let resident: BTreeMap<usize, Client> = clients.map(|c| (c.id(), c)).collect();
        Population {
            population: resident.len(),
            resident,
            source: None,
        }
    }

    /// A store of `spec.population` enrolled, unresident devices.
    pub(crate) fn sourced(spec: FleetSpec, template: Network, seeds: Vec<u64>) -> Self {
        Population {
            population: spec.population,
            resident: BTreeMap::new(),
            source: Some(Source {
                profiles: spec.profiles,
                shards: spec.shards,
                retain: spec.retain_clients,
                template,
                seeds,
            }),
        }
    }

    /// Number of enrolled devices, resident or not.
    pub(crate) fn len(&self) -> usize {
        self.population
    }

    /// Number of clients held in memory.
    pub(crate) fn resident_len(&self) -> usize {
        self.resident.len()
    }

    fn unknown(&self, client: usize) -> FlError {
        FlError::UnknownClient {
            client,
            num_clients: self.population,
        }
    }

    /// [`FlError::UnknownClient`] unless `i` is enrolled.
    pub(crate) fn check_enrolled(&self, i: usize) -> Result<()> {
        if i < self.population {
            Ok(())
        } else {
            Err(self.unknown(i))
        }
    }

    /// The resident client `i`: [`FlError::UnknownClient`] when `i` is
    /// not enrolled, [`FlError::InvalidRunConfig`] when it is enrolled
    /// but not resident.
    pub(crate) fn get(&self, i: usize) -> Result<&Client> {
        self.check_enrolled(i)?;
        self.resident
            .get(&i)
            .ok_or_else(|| FlError::InvalidRunConfig {
                what: format!(
                    "client {i} is enrolled but not materialized; select or ensure it first"
                ),
            })
    }

    /// Mutable access to a resident client.
    pub(crate) fn get_mut(&mut self, i: usize) -> Result<&mut Client> {
        let unknown = self.unknown(i);
        self.resident.get_mut(&i).ok_or(unknown)
    }

    /// Resident clients in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Client> {
        self.resident.values()
    }

    /// Resident clients, mutably, in ascending id order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Client> {
        self.resident.values_mut()
    }

    /// Builds every client of `ids` (enrolled, checked by the callers)
    /// that is not resident yet, fanned out over `config.parallelism`;
    /// `finish` runs on each new client inside its worker. Building is
    /// pure in the device index and emits no trace events, so the
    /// clients are bitwise those a serial walk — or an up-front
    /// construction — builds; they become resident, and the first
    /// error surfaces, in `ids` order.
    pub(crate) fn materialize_missing(
        &mut self,
        ids: &[usize],
        config: &FlConfig,
        finish: impl Fn(&mut Client) + Sync,
    ) -> Result<()> {
        let Some(src) = &self.source else {
            return Ok(());
        };
        let missing: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|i| !self.resident.contains_key(i))
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        let threads = config.parallelism.resolve();
        let built = map_indexed(missing.len(), threads, |slot| -> Result<Client> {
            let i = missing[slot];
            let mut client = build_client(
                i,
                src.template.clone(),
                src.shards.shard(i)?,
                src.profiles.profile(i),
                config,
                src.seeds[i],
            );
            finish(&mut client);
            Ok(client)
        });
        for (i, client) in missing.into_iter().zip(built) {
            self.resident.insert(i, client?);
        }
        Ok(())
    }

    /// Drops residents outside `cohort` (sorted ascending) when the
    /// source does not retain clients, capping live state at O(cohort).
    pub(crate) fn evict_outside(&mut self, cohort: &[usize]) {
        if self.source.as_ref().is_some_and(|s| !s.retain) {
            self.resident
                .retain(|id, _| cohort.binary_search(id).is_ok());
        }
    }

    /// Whether a joiner would stay resident: an evicting source would
    /// rebuild it from the generators instead of its supplied
    /// profile/shard.
    pub(crate) fn retains_joiners(&self) -> bool {
        self.source.as_ref().is_none_or(|s| s.retain)
    }

    /// The source scenario joins draw newcomers from: there must be one,
    /// and it must keep a joiner resident.
    fn growable_source(&self) -> Result<&Source> {
        let what = match &self.source {
            Some(src) if src.retain => return Ok(src),
            Some(_) => "scenario join events require client retention on the lazy fleet",
            None => {
                "scenario join events require a lazy fleet \
                 (newcomers come from the spec's generators)"
            }
        };
        Err(FlError::InvalidRunConfig { what: what.into() })
    }

    /// Whether scenario joins can grow this store.
    pub(crate) fn check_growable(&self) -> Result<()> {
        self.growable_source().map(|_| ())
    }

    /// The generators' profile and shard for a newcomer with id `id`.
    pub(crate) fn generate(&self, id: usize) -> Result<(ResourceProfile, Dataset)> {
        let src = self.growable_source()?;
        Ok((src.profiles.profile(id), src.shards.shard(id)?))
    }

    /// Enrolls `client` (whose id must be [`Population::len`]) as a
    /// resident, recording `seed` alongside the source's chain.
    pub(crate) fn push(&mut self, client: Client, seed: u64) {
        if let Some(src) = &mut self.source {
            src.seeds.push(seed);
        }
        self.resident.insert(self.population, client);
        self.population += 1;
    }
}
