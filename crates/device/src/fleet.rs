//! Lazily synthesized device populations.
//!
//! At fleet scale (100k+ enrolled devices, a few hundred sampled per
//! round) the simulator cannot afford to materialize every
//! [`ResourceProfile`] up front. This module derives a device's profile
//! on demand as a *pure function* of `(base_seed, device_index)` — the
//! same scheme the network crate uses for per-device link streams — so
//! unsampled devices cost nothing and any device's profile can be
//! reconstructed bit-for-bit at any time, in any order.
//!
//! The hash chain is an inline splitmix64 finalizer rather than the
//! workspace's ChaCha8 [`TensorRng`](../../helios_tensor/struct.TensorRng.html):
//! this crate deliberately has no tensor dependency, and a profile needs
//! only a handful of well-mixed 64-bit draws, not a stream.

use crate::{presets, ResourceProfile};
use serde::{Deserialize, Serialize};

/// Golden-ratio multiplier used across the workspace for index mixing.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
/// Domain-separation tag for the profile stream ("PROF").
const PROFILE_STREAM: u64 = 0x5052_4f46;

/// splitmix64 finalizer: a cheap, statistically strong 64-bit mixer.
///
/// Used to derive independent per-device draws from
/// `base_seed ^ tag ^ GOLDEN·(index+1)` without any stored state.
#[must_use]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a mixed 64-bit draw to a uniform `f64` in `[0, 1)`.
#[must_use]
fn unit_from_bits(bits: u64) -> f64 {
    // Top 53 bits — the full f64 mantissa width.
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// On-demand generator of heterogeneous device profiles.
///
/// `profile(i)` is a pure function of `(base_seed, i)`: it never looks
/// at, or creates, state for any other device, so a 100k-device fleet
/// stores nothing until a device is actually sampled. A fraction of the
/// population (`straggler_fraction`) is drawn from the paper's Table I
/// straggler boards; the rest are full-power Jetson Nano capables. Every
/// device additionally gets an individual compute throttle in
/// `[0.70, 1.00)` so the population is a continuum, not four point
/// masses.
///
/// # Example
///
/// ```
/// use helios_device::fleet::ProfileSynthesizer;
///
/// let synth = ProfileSynthesizer::new(42, 0.3);
/// let a = synth.profile(123_456);
/// let b = synth.profile(123_456);
/// assert_eq!(a, b); // pure in (base_seed, index)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfileSynthesizer {
    base_seed: u64,
    straggler_fraction: f64,
}

impl ProfileSynthesizer {
    /// Creates a synthesizer.
    ///
    /// # Panics
    ///
    /// Panics if `straggler_fraction` is not in `[0, 1]`.
    #[must_use]
    pub fn new(base_seed: u64, straggler_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&straggler_fraction),
            "straggler fraction must be in [0, 1], got {straggler_fraction}"
        );
        ProfileSynthesizer {
            base_seed,
            straggler_fraction,
        }
    }

    /// Synthesizes the profile of device `index`.
    ///
    /// Pure in `(base_seed, index)` — calling it in any order, any number
    /// of times, for any subset of devices yields identical profiles.
    #[must_use]
    pub fn profile(&self, index: usize) -> ResourceProfile {
        let h = self
            .base_seed
            .wrapping_mul(GOLDEN)
            .wrapping_add(PROFILE_STREAM)
            .wrapping_add(GOLDEN.wrapping_mul(index as u64 + 1));
        let class_draw = mix64(h);
        let board_draw = mix64(h ^ 1);
        let throttle_draw = mix64(h ^ 2);

        let is_straggler = unit_from_bits(class_draw) < self.straggler_fraction;
        let base = if is_straggler {
            let boards = presets::table1_stragglers();
            boards[(board_draw % boards.len() as u64) as usize].clone()
        } else {
            presets::jetson_nano()
        };
        // Individual silicon/thermal variation: a mild compute throttle.
        let factor = 0.70 + 0.30 * unit_from_bits(throttle_draw);
        base.throttled(factor)
            .renamed(format!("fleet-{index}({})", base.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_is_pure_in_seed_and_index() {
        let a = ProfileSynthesizer::new(7, 0.4);
        let b = ProfileSynthesizer::new(7, 0.4);
        for i in [0usize, 1, 17, 99_999] {
            assert_eq!(a.profile(i), b.profile(i));
        }
        // Access order is irrelevant.
        let forward: Vec<_> = (0..8).map(|i| a.profile(i)).collect();
        let backward: Vec<_> = (0..8).rev().map(|i| a.profile(i)).collect();
        for (i, p) in forward.iter().enumerate() {
            assert_eq!(*p, backward[7 - i]);
        }
    }

    #[test]
    fn different_seeds_give_different_populations() {
        let a = ProfileSynthesizer::new(1, 0.5);
        let b = ProfileSynthesizer::new(2, 0.5);
        let differs = (0..32).any(|i| a.profile(i) != b.profile(i));
        assert!(differs, "seed must perturb the population");
    }

    #[test]
    fn straggler_fraction_bounds_population_mix() {
        let all_capable = ProfileSynthesizer::new(3, 0.0);
        assert!((0..64).all(|i| all_capable.profile(i).name().contains("jetson-nano-gpu")));
        let all_straggler = ProfileSynthesizer::new(3, 1.0);
        assert!((0..64).all(|i| !all_straggler.profile(i).name().contains("jetson-nano-gpu")));
    }

    #[test]
    fn straggler_rate_tracks_requested_fraction() {
        let synth = ProfileSynthesizer::new(11, 0.3);
        let n = 4000;
        let stragglers = (0..n)
            .filter(|&i| !synth.profile(i).name().contains("jetson-nano-gpu"))
            .count();
        let rate = stragglers as f64 / n as f64;
        assert!(
            (rate - 0.3).abs() < 0.03,
            "straggler rate {rate} should be near 0.3"
        );
    }

    #[test]
    fn population_is_a_compute_continuum() {
        // Per-device throttles keep same-board devices distinct.
        let synth = ProfileSynthesizer::new(5, 0.0);
        let speeds: Vec<f64> = (0..16)
            .map(|i| synth.profile(i).compute_flops_per_sec())
            .collect();
        let distinct = speeds
            .iter()
            .filter(|&&s| speeds.iter().filter(|&&t| t == s).count() == 1)
            .count();
        assert!(distinct >= 14, "throttles should individualize devices");
        let lo = 0.70 * 25.0e9;
        let hi = 1.00 * 25.0e9;
        assert!(speeds.iter().all(|&s| s >= lo && s < hi));
    }

    #[test]
    fn names_embed_the_device_index() {
        let synth = ProfileSynthesizer::new(9, 0.5);
        assert!(synth.profile(42).name().starts_with("fleet-42("));
    }

    #[test]
    #[should_panic(expected = "straggler fraction")]
    fn rejects_fraction_above_one() {
        let _ = ProfileSynthesizer::new(0, 1.5);
    }

    #[test]
    fn unit_from_bits_is_in_unit_interval() {
        for i in 0..10_000u64 {
            let u = unit_from_bits(mix64(i));
            assert!((0.0..1.0).contains(&u));
        }
    }
}
