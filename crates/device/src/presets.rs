//! Device presets calibrated to the paper's Table I.
//!
//! The paper fabricates four straggler configurations by throttling Jetson
//! Nano boards to mimic a Nano in CPU mode, a Raspberry Pi, and an AWS
//! DeepLens in GPU and CPU mode. Table I lists their effective compute
//! bandwidths (7 / 6 / 5.5 / 4.5 GFLOPS) and training memory budgets
//! (252 / 150 / 100 / 110 MB); we take those numbers directly as the
//! `C_cpu` and capacity fields. Memory and network bandwidths are set to
//! realistic board values — they contribute the same small correction
//! terms as in the paper, where `W/C_cpu` dominates `Te` (the Table I time
//! ratios 20.6 : 23.8 : 27.2 : 34 track `1/C` closely).
//!
//! The **capable** reference device is the full-power Jetson Nano GPU at
//! an effective 25 GFLOPS, giving straggler slowdowns of 3.6–5.6× —
//! matching Fig 1's 2.3 h → 7.7 h cycle inflation (≈3.3×) for the
//! mid-range straggler.

use crate::ResourceProfile;

const MB: u64 = 1 << 20;

/// Full-power Jetson Nano (GPU mode): the capable, non-straggler device.
pub fn jetson_nano() -> ResourceProfile {
    ResourceProfile::new("jetson-nano-gpu", 25.0e9, 6.0e9, 12.0e6, 2048 * MB)
}

/// Jetson Nano throttled to CPU-only mode (Table I column 1).
pub(crate) fn jetson_nano_cpu() -> ResourceProfile {
    ResourceProfile::new("jetson-nano-cpu", 7.0e9, 4.0e9, 12.0e6, 252 * MB)
}

/// Raspberry Pi class device (Table I column 2).
pub fn raspberry_pi() -> ResourceProfile {
    ResourceProfile::new("raspberry-pi", 6.0e9, 2.0e9, 6.0e6, 150 * MB)
}

/// AWS DeepLens in GPU mode (Table I column 3).
pub(crate) fn deeplens_gpu() -> ResourceProfile {
    ResourceProfile::new("deeplens-gpu", 5.5e9, 3.0e9, 12.0e6, 100 * MB)
}

/// AWS DeepLens in CPU mode (Table I column 4).
pub fn deeplens_cpu() -> ResourceProfile {
    ResourceProfile::new("deeplens-cpu", 4.5e9, 2.5e9, 12.0e6, 110 * MB)
}

/// The four Table I straggler profiles, strongest first.
pub fn table1_stragglers() -> Vec<ResourceProfile> {
    vec![
        jetson_nano_cpu(),
        raspberry_pi(),
        deeplens_gpu(),
        deeplens_cpu(),
    ]
}

/// A fleet of `capable` full-power devices followed by `stragglers`
/// Table I straggler devices (cycling through the four presets when more
/// than four are requested), each with a unique name.
///
/// This is the standard fleet shape of the paper's experiments:
/// 4 devices = 2 capable + 2 stragglers, 6 devices = 3 + 3 (§VII.B).
pub fn mixed_fleet(capable: usize, stragglers: usize) -> Vec<ResourceProfile> {
    let straggler_presets = table1_stragglers();
    let mut fleet = Vec::with_capacity(capable + stragglers);
    for i in 0..capable {
        fleet.push(jetson_nano().renamed(format!("capable-{i}")));
    }
    for i in 0..stragglers {
        let base = &straggler_presets[i % straggler_presets.len()];
        fleet.push(base.renamed(format!("straggler-{i}({})", base.name())));
    }
    fleet
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, TrainingWorkload};

    #[test]
    fn table1_compute_ordering_matches_paper() {
        let s = table1_stragglers();
        assert_eq!(s.len(), 4);
        // Strongest to weakest, exactly as Table I orders its columns.
        for pair in s.windows(2) {
            assert!(pair[0].compute_flops_per_sec() > pair[1].compute_flops_per_sec());
        }
        assert_eq!(s[0].compute_flops_per_sec(), 7.0e9);
        assert_eq!(s[3].compute_flops_per_sec(), 4.5e9);
    }

    #[test]
    fn table1_time_ratios_track_paper_shape() {
        // Paper Table I time costs: 20.6, 23.8, 27.2, 34 minutes.
        // Ratios vs the first: 1.0, 1.16, 1.32, 1.65.
        let paper = [20.6, 23.8, 27.2, 34.0];
        let work = TrainingWorkload::new(8.0e12, 4.0e10, 1.0e7);
        let times: Vec<f64> = table1_stragglers()
            .iter()
            .map(|d| CostModel::time_for(d, &work).as_secs_f64())
            .collect();
        for i in 1..4 {
            let ours = times[i] / times[0];
            let theirs = paper[i] / paper[0];
            assert!(
                (ours - theirs).abs() < 0.20 * theirs,
                "device {i}: ratio {ours:.2} vs paper {theirs:.2}"
            );
        }
    }

    #[test]
    fn capable_device_is_several_times_faster() {
        let work = TrainingWorkload::new(8.0e12, 4.0e10, 1.0e7);
        let capable = jetson_nano();
        for s in table1_stragglers() {
            let slowdown = CostModel::time_for(&s, &work).as_secs_f64()
                / CostModel::time_for(&capable, &work).as_secs_f64();
            assert!(
                (2.5..8.0).contains(&slowdown),
                "{}: slowdown {slowdown:.1} out of expected band",
                s.name()
            );
        }
    }

    #[test]
    fn mixed_fleet_shape_and_names() {
        let fleet = mixed_fleet(3, 3);
        assert_eq!(fleet.len(), 6);
        assert!(fleet[0].name().starts_with("capable-0"));
        assert!(fleet[3].name().contains("jetson-nano-cpu"));
        assert!(fleet[5].name().contains("deeplens-gpu"));
        // More stragglers than presets cycles around.
        let big = mixed_fleet(0, 6);
        assert!(big[4].name().contains("jetson-nano-cpu"));
    }

    #[test]
    fn straggler_memory_budgets_match_table1() {
        let s = table1_stragglers();
        let expected_mb = [252.0, 150.0, 100.0, 110.0];
        for (d, mb) in s.iter().zip(expected_mb) {
            assert_eq!(d.memory_capacity_bytes(), mb * (1u64 << 20) as f64);
        }
    }
}
