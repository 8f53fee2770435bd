//! The paper's analytic training-time model (§IV.B).

use crate::{ResourceProfile, SimTime};
use serde::{Deserialize, Serialize};

/// The `(W, M, U)` inputs to the cost formula: computation workload in
/// FLOPs, memory traffic in bytes, and bytes exchanged with the server.
///
/// Produced upstream from `helios-nn`'s per-layer cost walker; one
/// workload describes one local training cycle (all local epochs plus the
/// parameter upload/download).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TrainingWorkload {
    /// Computation workload `W` in FLOPs.
    pub flops: f64,
    /// Memory traffic `M` in bytes.
    pub mem_bytes: f64,
    /// Network traffic `U` in bytes (upload + download).
    pub net_bytes: f64,
}

impl TrainingWorkload {
    /// Creates a workload triple.
    ///
    /// # Panics
    ///
    /// Panics if any component is negative or not finite.
    pub fn new(flops: f64, mem_bytes: f64, net_bytes: f64) -> Self {
        for (label, v) in [
            ("flops", flops),
            ("mem_bytes", mem_bytes),
            ("net_bytes", net_bytes),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{label} must be non-negative and finite, got {v}"
            );
        }
        TrainingWorkload {
            flops,
            mem_bytes,
            net_bytes,
        }
    }

    /// Componentwise scaling (e.g. multiplying by local epoch count).
    pub fn scaled(&self, factor: f64) -> Self {
        TrainingWorkload::new(
            self.flops * factor,
            self.mem_bytes * factor,
            self.net_bytes * factor,
        )
    }
}

/// Evaluator of the paper's cost formula
/// `Te = W/C_cpu + M/V_mc + U/B_n`.
///
/// Stateless: all device dependence lives in [`ResourceProfile`], all
/// model dependence in [`TrainingWorkload`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostModel;

impl CostModel {
    /// Training-cycle time of `work` on `device`.
    pub fn time_for(device: &ResourceProfile, work: &TrainingWorkload) -> SimTime {
        let secs = work.flops / device.compute_flops_per_sec()
            + work.mem_bytes / device.mem_bytes_per_sec()
            + work.net_bytes / device.net_bytes_per_sec();
        SimTime::from_secs(secs)
    }

    /// Whether the workload's live memory fits the device.
    ///
    /// `resident_bytes` is the peak training footprint (parameters,
    /// gradients, and activations), not the traffic volume.
    pub fn fits_memory(device: &ResourceProfile, resident_bytes: f64) -> bool {
        resident_bytes <= device.memory_capacity_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device(c: f64, v: f64, b: f64) -> ResourceProfile {
        ResourceProfile::new("t", c, v, b, 1 << 30)
    }

    #[test]
    fn formula_matches_hand_computation() {
        let d = device(2e9, 1e9, 1e8);
        let w = TrainingWorkload::new(4e9, 2e9, 1e8);
        // 4e9/2e9 + 2e9/1e9 + 1e8/1e8 = 2 + 2 + 1 = 5 s.
        let t = CostModel::time_for(&d, &w);
        assert!((t.as_secs_f64() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_workload_takes_zero_time() {
        let d = device(1e9, 1e9, 1e8);
        let t = CostModel::time_for(&d, &TrainingWorkload::default());
        assert_eq!(t.as_secs_f64(), 0.0);
    }

    #[test]
    fn weaker_compute_is_slower() {
        let strong = device(10e9, 1e9, 1e8);
        let weak = device(1e9, 1e9, 1e8);
        let w = TrainingWorkload::new(1e10, 1e8, 1e6);
        assert!(CostModel::time_for(&weak, &w) > CostModel::time_for(&strong, &w));
    }

    #[test]
    fn scaled_workload_scales_time_linearly() {
        let d = device(1e9, 1e9, 1e8);
        let w = TrainingWorkload::new(1e9, 1e8, 1e6);
        let t1 = CostModel::time_for(&d, &w).as_secs_f64();
        let t3 = CostModel::time_for(&d, &w.scaled(3.0)).as_secs_f64();
        assert!((t3 - 3.0 * t1).abs() < 1e-9);
    }

    #[test]
    fn memory_fit_check() {
        let d = ResourceProfile::new("m", 1e9, 1e9, 1e8, 100 << 20);
        assert!(CostModel::fits_memory(&d, (50 << 20) as f64));
        assert!(!CostModel::fits_memory(&d, (200 << 20) as f64));
    }

    #[test]
    #[should_panic(expected = "flops must be non-negative")]
    fn negative_workload_panics() {
        let _ = TrainingWorkload::new(-1.0, 0.0, 0.0);
    }
}
