//! Optimization-target determination (§IV.C): the expected model volume
//! of each straggler.

use crate::{HeliosError, Result};
use helios_device::{CostModel, SimTime};
use helios_fl::Client;
use helios_nn::{MaskableUnits, ModelMask};

/// Smallest keep ratio the planner will ever assign; below this the
/// sub-model degenerates (one neuron per layer carries no information).
pub(crate) const MIN_KEEP_RATIO: f64 = 0.05;

/// A deterministic probe mask keeping the first `ceil(keep · n_i)` units
/// of every layer — used only to evaluate the cost model, which depends on
/// active *counts*, not on which units are active.
pub fn probe_mask(units: &MaskableUnits, keep: f64) -> ModelMask {
    let counts = units.keep_counts(keep);
    let mut mask = ModelMask::all_active(units);
    for (i, (&n, &k)) in units.0.iter().zip(&counts).enumerate() {
        mask.set_layer(i, Some((0..n).map(|j| j < k).collect()));
    }
    mask
}

/// Simulated cycle time of `client` under a uniform keep ratio: the
/// analytic cost of its architecture under [`probe_mask`], with nothing
/// installed on the client.
pub fn masked_cycle_time(client: &Client, keep: f64) -> SimTime {
    let units = client.network().maskable_units();
    client.cycle_time_with(Some(&probe_mask(&units, keep)))
}

/// *Resource-fitted* volume determination: the largest keep ratio whose
/// masked cycle time meets `deadline` and whose training footprint fits
/// the device memory (binary search against the analytic cost model, the
/// white-box path of §IV.C). Each probed ratio is costed as a
/// [`probe_mask`]; the client's installed mask is neither read nor
/// changed.
///
/// # Errors
///
/// Returns [`HeliosError::InfeasibleVolume`] when even the minimum volume
/// (`MIN_KEEP_RATIO`) misses the deadline or memory budget.
pub fn fitted_keep_ratio(client: &Client, deadline: SimTime) -> Result<f64> {
    let units = client.network().maskable_units();
    // The memory check uses the same workload scaling as the time model.
    let fits = |keep: f64| {
        let mask = Some(probe_mask(&units, keep));
        client.cycle_time_with(mask.as_ref()) <= deadline
            && CostModel::fits_memory(
                client.profile(),
                client.scaled_resident_bytes(mask.as_ref()),
            )
    };
    if fits(1.0) {
        return Ok(1.0);
    }
    if !fits(MIN_KEEP_RATIO) {
        return Err(HeliosError::InfeasibleVolume {
            client: client.id(),
            what: format!(
                "minimum volume {MIN_KEEP_RATIO} still misses deadline {deadline} \
                 or memory budget"
            ),
        });
    }
    let (mut lo, mut hi) = (MIN_KEEP_RATIO, 1.0f64);
    for _ in 0..24 {
        let mid = 0.5 * (lo + hi);
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// *Predefined-level* volume determination (§IV.C "multiple model volume
/// levels in advance"): stragglers ranked slowest first walk the `levels`
/// ladder (slowest gets entry 0, the smallest volume; extras reuse the
/// last level). `levels` is a ladder `HeliosConfig::validate` accepted:
/// non-empty, every ratio in `(0, 1]`.
pub(crate) fn assign_predefined(ranked_stragglers: &[usize], levels: &[f64]) -> Vec<(usize, f64)> {
    ranked_stragglers
        .iter()
        .enumerate()
        .map(|(rank, &client)| (client, levels[rank.min(levels.len() - 1)]))
        .collect()
}

/// The compute budget left for local training once a device's expected
/// communication time is taken out of the collaboration deadline.
/// Saturates at zero (via `SimTime`'s saturating subtraction) when the
/// link alone overruns the deadline — fitting against a zero budget then
/// reports the volume as infeasible, which is the honest answer. With an
/// ideal link (`comm == 0`) this is the identity, so networking-disabled
/// runs fit against the unchanged deadline.
pub fn comm_adjusted_deadline(deadline: SimTime, comm: SimTime) -> SimTime {
    deadline - comm
}

/// One step of the dynamic volume adjustment the paper applies during the
/// first training cycles: a proportional controller nudging the keep
/// ratio so the straggler's masked time converges to the capable pace.
///
/// Returns the adjusted keep ratio in `[MIN_KEEP_RATIO, 1]`.
pub(crate) fn adjust_keep_ratio(current: f64, masked_time: SimTime, deadline: SimTime) -> f64 {
    let t = masked_time.as_secs_f64();
    let d = deadline.as_secs_f64();
    if d <= 0.0 || t <= 0.0 {
        return current.clamp(MIN_KEEP_RATIO, 1.0);
    }
    let next = if t > d {
        // Too slow: shrink proportionally, with margin.
        current * (d / t) * 0.95
    } else if t < 0.8 * d {
        // Comfortable headroom: grow the sub-model to use it.
        (current * 1.1).min(current + 0.1)
    } else {
        current
    };
    next.clamp(MIN_KEEP_RATIO, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_data::SyntheticVision;
    use helios_device::presets;
    use helios_fl::{FlConfig, FlEnv};
    use helios_nn::models::ModelKind;
    use helios_tensor::TensorRng;

    /// A one-device environment's client: LeNet, 48 samples, the default
    /// run hyper-parameters.
    fn client(profile: helios_device::ResourceProfile) -> Client {
        let mut rng = TensorRng::seed_from(60);
        let (train, test) = SyntheticVision::mnist_like()
            .generate(48, 8, &mut rng)
            .unwrap();
        let config = FlConfig::default();
        let env = FlEnv::new(ModelKind::LeNet, vec![profile], vec![train], test, config).unwrap();
        env.client(0).unwrap().clone()
    }

    #[test]
    fn keep_counts_round_up_and_clamp() {
        let units = MaskableUnits(vec![8, 64]);
        assert_eq!(units.keep_counts(0.5), vec![4, 32]);
        assert_eq!(units.keep_counts(0.01), vec![1, 1]);
        assert_eq!(units.keep_counts(1.0), vec![8, 64]);
        assert_eq!(units.keep_counts(0.33), vec![3, 22]);
    }

    #[test]
    fn probe_mask_matches_counts() {
        let units = MaskableUnits(vec![8, 64]);
        let mask = probe_mask(&units, 0.25);
        assert_eq!(mask.active_counts(&units), vec![2, 16]);
    }

    #[test]
    fn masked_cycle_time_is_monotone_in_volume() {
        let c = client(presets::deeplens_cpu());
        let t25 = masked_cycle_time(&c, 0.25);
        let t50 = masked_cycle_time(&c, 0.5);
        let t100 = masked_cycle_time(&c, 1.0);
        assert!(t25 < t50);
        assert!(t50 < t100);
        assert_eq!(t100, c.cycle_time());
        // Costing installed nothing.
        assert!(c.current_mask().is_none());
    }

    #[test]
    fn probing_reads_no_installed_mask() {
        let mut c = client(presets::deeplens_cpu());
        let deadline = SimTime::from_secs(c.cycle_time().as_secs_f64() / 3.0);
        let keep = fitted_keep_ratio(&c, deadline).unwrap();
        let t = masked_cycle_time(&c, 0.5);
        let units = c.network().maskable_units();
        let installed = probe_mask(&units, 0.25);
        c.set_masks(Some(installed.clone())).unwrap();
        assert_eq!(fitted_keep_ratio(&c, deadline).unwrap(), keep);
        assert_eq!(masked_cycle_time(&c, 0.5), t);
        assert_eq!(c.current_mask(), Some(&installed));
    }

    #[test]
    fn fitted_ratio_meets_deadline_maximally() {
        let c = client(presets::deeplens_cpu());
        let full = c.cycle_time();
        let deadline = SimTime::from_secs(full.as_secs_f64() / 3.0);
        let keep = fitted_keep_ratio(&c, deadline).unwrap();
        assert!(keep < 1.0);
        assert!(keep >= MIN_KEEP_RATIO);
        let t = masked_cycle_time(&c, keep);
        assert!(t <= deadline, "fitted volume must meet deadline");
        // Maximality: 25% more volume should overshoot.
        let t_bigger = masked_cycle_time(&c, (keep * 1.25).min(1.0));
        assert!(t_bigger > deadline);
    }

    #[test]
    fn fitted_ratio_full_model_when_deadline_is_loose() {
        let c = client(presets::jetson_nano());
        let full = c.cycle_time();
        let deadline = SimTime::from_secs(full.as_secs_f64() * 2.0);
        assert_eq!(fitted_keep_ratio(&c, deadline).unwrap(), 1.0);
    }

    #[test]
    fn fitted_ratio_errors_when_infeasible() {
        let c = client(presets::deeplens_cpu());
        let err = fitted_keep_ratio(&c, SimTime::from_secs(1e-6));
        assert!(matches!(err, Err(HeliosError::InfeasibleVolume { .. })));
    }

    #[test]
    fn predefined_assignment_ladders_by_rank() {
        let out = assign_predefined(&[7, 3, 9], &[0.25, 0.5]);
        assert_eq!(out, vec![(7, 0.25), (3, 0.5), (9, 0.5)]);
    }

    #[test]
    fn adjustment_controller_converges_toward_deadline() {
        let d = SimTime::from_secs(100.0);
        // Too slow: shrink.
        let down = adjust_keep_ratio(0.8, SimTime::from_secs(200.0), d);
        assert!(down < 0.8 * 0.55, "should shrink roughly by time ratio");
        // Comfortable: grow, bounded.
        let up = adjust_keep_ratio(0.5, SimTime::from_secs(50.0), d);
        assert!(up > 0.5 && up <= 0.6);
        // In band: hold.
        let hold = adjust_keep_ratio(0.5, SimTime::from_secs(90.0), d);
        assert_eq!(hold, 0.5);
        // Clamps.
        let floor = adjust_keep_ratio(0.06, SimTime::from_secs(1e6), d);
        assert_eq!(floor, MIN_KEEP_RATIO);
    }
}
