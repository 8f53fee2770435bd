//! Device resource profiles.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Hardware resource description of one edge device.
///
/// The three bandwidths are the denominators of the paper's §IV.B cost
/// formula; `memory_capacity_bytes` is the budget the resource-based
/// volume planner must fit a straggler's sub-model into.
///
/// # Example
///
/// ```
/// use helios_device::presets;
///
/// let dev = presets::jetson_nano();
/// assert_eq!(dev.name(), "jetson-nano-gpu");
/// assert_eq!(dev.compute_flops_per_sec(), 25.0e9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceProfile {
    name: String,
    compute_flops_per_sec: f64,
    mem_bytes_per_sec: f64,
    net_bytes_per_sec: f64,
    memory_capacity_bytes: f64,
}

impl ResourceProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if any bandwidth or capacity is not positive and finite —
    /// a zero-bandwidth device would yield infinite training time.
    pub(crate) fn new(
        name: impl Into<String>,
        compute_flops_per_sec: f64,
        mem_bytes_per_sec: f64,
        net_bytes_per_sec: f64,
        memory_capacity_bytes: u64,
    ) -> Self {
        for (label, v) in [
            ("compute", compute_flops_per_sec),
            ("memory bandwidth", mem_bytes_per_sec),
            ("network bandwidth", net_bytes_per_sec),
            ("memory capacity", memory_capacity_bytes as f64),
        ] {
            assert!(
                v.is_finite() && v > 0.0,
                "{label} must be positive and finite, got {v}"
            );
        }
        ResourceProfile {
            name: name.into(),
            compute_flops_per_sec,
            mem_bytes_per_sec,
            net_bytes_per_sec,
            memory_capacity_bytes: memory_capacity_bytes as f64,
        }
    }

    /// Human-readable device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Compute bandwidth `C_cpu` in FLOP/s.
    pub fn compute_flops_per_sec(&self) -> f64 {
        self.compute_flops_per_sec
    }

    /// Memory transfer speed `V_mc` in bytes/s.
    pub(crate) fn mem_bytes_per_sec(&self) -> f64 {
        self.mem_bytes_per_sec
    }

    /// Network bandwidth `B_n` in bytes/s.
    pub(crate) fn net_bytes_per_sec(&self) -> f64 {
        self.net_bytes_per_sec
    }

    /// Available training memory in bytes.
    pub fn memory_capacity_bytes(&self) -> f64 {
        self.memory_capacity_bytes
    }

    /// Returns a renamed copy (used when instantiating several simulated
    /// boards from one preset).
    pub(crate) fn renamed(&self, name: impl Into<String>) -> Self {
        let mut p = self.clone();
        p.name = name.into();
        p
    }

    /// Returns a copy with compute bandwidth scaled by `factor` —
    /// the knob the paper turns (CPU/GPU throttling) to fabricate
    /// stragglers from identical boards.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub(crate) fn throttled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "throttle factor must be positive and finite, got {factor}"
        );
        let mut p = self.compute_scaled(factor);
        p.name = format!("{}@x{factor:.2}", self.name);
        p
    }

    /// Returns a copy with compute bandwidth scaled by `factor`, keeping
    /// the name unchanged — the scenario engine's battery/thermal
    /// throttling knob, recomputed from the pristine profile every cycle
    /// (a renaming copy like `ResourceProfile::throttled` would
    /// compound suffixes when applied repeatedly).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn compute_scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "throttle factor must be positive and finite, got {factor}"
        );
        let mut p = self.clone();
        p.compute_flops_per_sec *= factor;
        p
    }
}

impl fmt::Display for ResourceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:.1} GFLOPS, {:.1} GB/s mem, {:.0} MB/s net, {:.0} MB cap)",
            self.name,
            self.compute_flops_per_sec / 1e9,
            self.mem_bytes_per_sec / 1e9,
            self.net_bytes_per_sec / 1e6,
            self.memory_capacity_bytes / (1 << 20) as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_return_inputs() {
        let p = ResourceProfile::new("x", 1e9, 2e9, 3e7, 1 << 30);
        assert_eq!(p.compute_flops_per_sec(), 1e9);
        assert_eq!(p.mem_bytes_per_sec(), 2e9);
        assert_eq!(p.net_bytes_per_sec(), 3e7);
        assert_eq!(p.memory_capacity_bytes(), (1u64 << 30) as f64);
    }

    #[test]
    #[should_panic(expected = "compute must be positive")]
    fn zero_compute_panics() {
        let _ = ResourceProfile::new("x", 0.0, 1.0, 1.0, 1);
    }

    #[test]
    fn throttled_scales_compute_only() {
        let p = ResourceProfile::new("nano", 10e9, 2e9, 3e7, 1 << 30);
        let t = p.throttled(0.5);
        assert_eq!(t.compute_flops_per_sec(), 5e9);
        assert_eq!(t.mem_bytes_per_sec(), 2e9);
        assert!(t.name().starts_with("nano@x0.50"));
    }

    #[test]
    #[should_panic(expected = "throttle factor")]
    fn bad_throttle_panics() {
        let p = ResourceProfile::new("x", 1e9, 1e9, 1e7, 1);
        let _ = p.throttled(0.0);
    }

    #[test]
    fn compute_scaled_keeps_name_and_composes() {
        let p = ResourceProfile::new("nano", 10e9, 2e9, 3e7, 1 << 30);
        let s = p.compute_scaled(0.5);
        assert_eq!(s.name(), "nano", "no rename suffix");
        assert_eq!(s.compute_flops_per_sec(), 5e9);
        assert_eq!(s.mem_bytes_per_sec(), 2e9);
        assert_eq!(s.net_bytes_per_sec(), 3e7);
        // Repeated application multiplies without mangling the name.
        let s2 = s.compute_scaled(0.5);
        assert_eq!(s2.name(), "nano");
        assert_eq!(s2.compute_flops_per_sec(), 2.5e9);
    }

    #[test]
    #[should_panic(expected = "throttle factor")]
    fn bad_compute_scale_panics() {
        let p = ResourceProfile::new("x", 1e9, 1e9, 1e7, 1);
        let _ = p.compute_scaled(f64::NAN);
    }

    #[test]
    fn renamed_keeps_resources() {
        let p = ResourceProfile::new("a", 1e9, 1e9, 1e7, 1 << 20);
        let r = p.renamed("b");
        assert_eq!(r.name(), "b");
        assert_eq!(r.compute_flops_per_sec(), p.compute_flops_per_sec());
    }

    #[test]
    fn display_is_informative() {
        let p = ResourceProfile::new("nano", 7e9, 4e9, 1.2e7, 252 << 20);
        let s = p.to_string();
        assert!(s.contains("nano"));
        assert!(s.contains("7.0 GFLOPS"));
        assert!(s.contains("252 MB"));
    }
}
