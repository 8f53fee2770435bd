//! Straggler identification (§IV.B): time-based approximation and
//! resource-based profiling.

use crate::{HeliosError, Result};
use helios_device::{CostModel, SimTime};
use helios_fl::FlEnv;

/// A device's rank entry in the time index `T` of the paper: devices
/// sorted by test-bench time, longest first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeIndexEntry {
    /// Client index.
    pub client: usize,
    /// Measured (simulated) test-bench duration.
    pub time: SimTime,
}

/// Runs the lightweight test bench of the *time-based approximation*
/// (black box): every device "trains a few iterations" and reports its
/// duration. In the simulation the measurement comes from the analytic
/// cost model applied to `iterations` mini-batches of the device's model
/// under its current mask state (full model during identification).
///
/// Returns the paper's index `T`: entries sorted by time, longest first.
///
/// # Errors
///
/// Returns an error when a client is missing (impossible under normal
/// use).
pub fn test_bench_index(env: &FlEnv, iterations: usize) -> Result<Vec<TimeIndexEntry>> {
    let mut entries = Vec::with_capacity(env.num_clients());
    for i in 0..env.num_clients() {
        let client = env.client(i).map_err(HeliosError::from)?;
        // One full cycle covers `batches × epochs` iterations; scale to
        // the requested bench length.
        let full = client.cycle_workload();
        let batches = client
            .num_samples()
            .div_ceil(env.config().batch_size)
            .max(1)
            * env.config().local_epochs;
        let frac = iterations as f64 / batches as f64;
        let bench = full.scaled(frac.clamp(f64::MIN_POSITIVE, 1.0));
        // The black-box measurement includes shipping the bench model
        // over the device's link — a fast CPU behind a weak uplink still
        // reads as slow, exactly what the server observes in practice.
        // Zero when networking is disabled.
        let comm = env.comm_overhead(i).map_err(HeliosError::from)?;
        entries.push(TimeIndexEntry {
            client: i,
            time: CostModel::time_for(client.profile(), &bench) + comm,
        });
    }
    // `total_cmp` on the inner f64 is a total order, so sorting cannot
    // panic; SimTime already guarantees finiteness.
    entries.sort_by(|a, b| b.time.as_secs_f64().total_cmp(&a.time.as_secs_f64()));
    Ok(entries)
}

/// *Time-based approximation*: the top-`k` devices of the time index are
/// declared potential stragglers.
///
/// # Errors
///
/// Returns [`HeliosError::Identification`] when `k` is zero or not
/// smaller than the fleet (at least one capable device must remain).
pub fn time_based(env: &FlEnv, iterations: usize, k: usize) -> Result<Vec<usize>> {
    if k == 0 {
        return Err(HeliosError::Identification {
            what: "top-k must be nonzero".into(),
        });
    }
    if k >= env.num_clients() {
        return Err(HeliosError::Identification {
            what: format!(
                "top-{k} of {} devices leaves no capable device",
                env.num_clients()
            ),
        });
    }
    let index = test_bench_index(env, iterations)?;
    let mut ids: Vec<usize> = index.iter().take(k).map(|e| e.client).collect();
    ids.sort_unstable();
    Ok(ids)
}

/// Positions in `times` more than `slowdown_threshold` times slower
/// than the fastest entry — the white-box straggler rule.
fn slower_than_fastest(times: &[f64], slowdown_threshold: f64) -> Result<Vec<usize>> {
    if !(slowdown_threshold > 1.0 && slowdown_threshold.is_finite()) {
        return Err(HeliosError::Identification {
            what: format!("slowdown threshold {slowdown_threshold} must exceed 1"),
        });
    }
    if times.is_empty() {
        return Err(HeliosError::Identification {
            what: "empty fleet".into(),
        });
    }
    let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
    let stragglers: Vec<usize> = (0..times.len())
        .filter(|&i| times[i] > slowdown_threshold * fastest)
        .collect();
    if stragglers.len() == times.len() {
        return Err(HeliosError::Identification {
            what: "every device classified as straggler".into(),
        });
    }
    Ok(stragglers)
}

/// *Resource-based profiling* (white box) over the members of `cohort`
/// (the whole fleet, or a sampled cohort) using *combined* time — the
/// paper's full `T_e = W/C_cpu + M/V_mc + U/B_n`: the first member's
/// full-model cycle workload evaluated on each member's profile, plus the
/// member's expected link transfer time for one round's exchange (zero
/// when networking is disabled or the link is ideal, which reduces this
/// to the cost model over the members' profiles). Slowdown is measured
/// against the fastest *member*, so a 100k-device fleet is classified at
/// O(cohort) cost and unmaterialized devices are never touched. Returns
/// absolute client ids, in cohort order.
///
/// # Errors
///
/// Returns [`HeliosError::Identification`] when the threshold is not
/// greater than 1, when every member would be a straggler, or for an
/// empty cohort.
pub fn resource_based_combined_cohort(
    env: &FlEnv,
    cohort: &[usize],
    slowdown_threshold: f64,
) -> Result<Vec<usize>> {
    let Some(&reference) = cohort.first() else {
        return Err(HeliosError::Identification {
            what: "empty cohort".into(),
        });
    };
    let workload = env.client(reference)?.cycle_workload();
    let mut times = Vec::with_capacity(cohort.len());
    for &i in cohort {
        let compute = CostModel::time_for(env.client(i)?.profile(), &workload);
        times.push((compute + env.comm_overhead(i)?).as_secs_f64());
    }
    let slow = slower_than_fastest(&times, slowdown_threshold)?;
    Ok(slow.into_iter().map(|pos| cohort[pos]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_data::{partition, Dataset, SyntheticVision};
    use helios_device::{presets, ResourceProfile, TrainingWorkload};
    use helios_fl::FlConfig;
    use helios_nn::models::ModelKind;
    use helios_tensor::TensorRng;

    /// The white-box rule over bare profiles: the cohort path's oracle
    /// when networking is off.
    fn resource_based(
        profiles: &[&ResourceProfile],
        workload: &TrainingWorkload,
        slowdown_threshold: f64,
    ) -> Result<Vec<usize>> {
        let times: Vec<f64> = profiles
            .iter()
            .map(|p| CostModel::time_for(p, workload).as_secs_f64())
            .collect();
        slower_than_fastest(&times, slowdown_threshold)
    }

    fn env(capable: usize, stragglers: usize) -> FlEnv {
        let mut rng = TensorRng::seed_from(50);
        let clients = capable + stragglers;
        let (train, test) = SyntheticVision::mnist_like()
            .generate(40 * clients, 20, &mut rng)
            .unwrap();
        let shards: Vec<Dataset> = partition::iid(train.len(), clients, &mut rng)
            .into_iter()
            .map(|idx| train.subset(&idx).unwrap())
            .collect();
        FlEnv::new(
            ModelKind::LeNet,
            presets::mixed_fleet(capable, stragglers),
            shards,
            test,
            FlConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn test_bench_ranks_stragglers_first() {
        let e = env(2, 2);
        let index = test_bench_index(&e, 2).unwrap();
        assert_eq!(index.len(), 4);
        // mixed_fleet puts capable devices first (ids 0, 1), stragglers
        // after (ids 2, 3); the index must lead with the stragglers.
        assert!(index[0].client >= 2);
        assert!(index[1].client >= 2);
        assert!(index[0].time >= index[1].time);
    }

    #[test]
    fn time_based_returns_top_k_sorted() {
        let e = env(2, 2);
        assert_eq!(time_based(&e, 2, 2).unwrap(), vec![2, 3]);
        assert_eq!(time_based(&e, 2, 1).unwrap().len(), 1);
        assert!(time_based(&e, 2, 0).is_err());
        assert!(time_based(&e, 2, 4).is_err());
    }

    #[test]
    fn resource_based_finds_slow_profiles() {
        let capable = presets::jetson_nano();
        let s1 = presets::deeplens_cpu();
        let s2 = presets::raspberry_pi();
        let work = TrainingWorkload::new(1e12, 1e9, 1e6);
        let ids = resource_based(&[&capable, &s1, &s2], &work, 1.5).unwrap();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn resource_based_validates_threshold_and_fleet() {
        let capable = presets::jetson_nano();
        let work = TrainingWorkload::new(1e12, 1e9, 1e6);
        assert!(resource_based(&[&capable], &work, 1.0).is_err());
        assert!(resource_based(&[], &work, 2.0).is_err());
        // Homogeneous fleet: nobody is a straggler.
        let same = presets::jetson_nano();
        let ids = resource_based(&[&capable, &same], &work, 1.5).unwrap();
        assert!(ids.is_empty());
    }

    #[test]
    fn cohort_identification_matches_full_fleet_on_subsets() {
        let e = env(2, 2);
        let all: Vec<usize> = (0..4).collect();
        let full = resource_based_combined_cohort(&e, &all, 1.5).unwrap();
        assert_eq!(full, vec![2, 3]);
        // A cohort holding one capable + one straggler flags only the
        // straggler, measured against the cohort's own fastest device.
        assert_eq!(
            resource_based_combined_cohort(&e, &[1, 3], 1.5).unwrap(),
            vec![3]
        );
        assert!(resource_based_combined_cohort(&e, &[], 1.5).is_err());
    }

    #[test]
    fn both_methods_agree_on_mixed_fleet() {
        let e = env(2, 2);
        let by_time = time_based(&e, 2, 2).unwrap();
        // Networking is disabled here, so combined time is pure compute
        // time and white box must match black box.
        let all: Vec<usize> = (0..4).collect();
        let by_resource = resource_based_combined_cohort(&e, &all, 1.5).unwrap();
        assert_eq!(by_resource, vec![2, 3]);
        assert_eq!(by_time, by_resource);
        // The profile-level primitive agrees.
        let profiles: Vec<&ResourceProfile> = all
            .iter()
            .map(|&i| e.client(i).unwrap().profile())
            .collect();
        let workload = e.client(0).unwrap().cycle_workload();
        assert_eq!(
            resource_based(&profiles, &workload, 1.5).unwrap(),
            by_resource
        );
    }
}
