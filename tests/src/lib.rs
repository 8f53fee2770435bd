//! Integration-test host crate (see the `tests/` directory) and the
//! helpers those tests share.

use helios_fl::FlEnv;
use helios_nn::{MaskableUnits, ModelMask, Network};
use helios_obs::TraceRecord;
use helios_tensor::{ParallelismConfig, Tensor, TensorRng, UnitMask};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

/// Thread widths every bitwise contract must hold across.
pub const THREAD_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Runs `f` under a fixed ambient kernel thread budget.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let _guard = ParallelismConfig::with_threads(n).scoped();
    f()
}

/// First-⌈keep·n⌉-units-active mask over every maskable layer.
pub fn leading_units_mask(net: &Network, keep: f64) -> ModelMask {
    let units = net.maskable_units();
    let mut mask = ModelMask::all_active(&units);
    for (i, &n) in units.0.iter().enumerate() {
        let k = ((keep * n as f64).ceil() as usize).clamp(1, n);
        mask.set_layer(i, Some((0..n).map(|j| j < k).collect()));
    }
    mask
}

/// Each maskable layer keeps a random 1..=n of its units, at random
/// positions (seed 17).
pub fn random_mask(units: &MaskableUnits) -> ModelMask {
    let mut rng = TensorRng::seed_from(17);
    let mut mask = ModelMask::all_active(units);
    for (i, &n) in units.0.iter().enumerate() {
        let k = 1 + rng.below(n);
        let mut layer: UnitMask = std::iter::repeat_n(false, n).collect();
        for c in rng.sample_indices(n, k) {
            layer.set(c, true);
        }
        mask.set_layer(i, Some(layer));
    }
    mask
}

/// Bit patterns of a parameter vector, for exact comparison with a
/// readable failure.
pub fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|x| x.to_bits()).collect()
}

/// Bit patterns of an environment's global model.
pub fn global_bits(env: &FlEnv) -> Vec<u32> {
    bits(env.global())
}

/// Bitwise equality of two tensors — `f32::eq` would conflate `0.0`
/// with `-0.0` and miss NaN payloads.
pub fn bitwise_equal(a: &Tensor, b: &Tensor) -> bool {
    let (x, y) = (a.as_slice().iter(), b.as_slice().iter());
    a.dims() == b.dims() && x.map(|v| v.to_bits()).eq(y.map(|v| v.to_bits()))
}

/// [`bitwise_equal`] as an assertion naming the first differing element.
pub fn assert_bitwise(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: dims");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

/// Exchanges each device missed in a trace — its `Timeout` plus
/// `SendFailed` events — for every device that missed at least one.
pub fn missed_by_device(records: &[TraceRecord]) -> BTreeMap<u64, u64> {
    helios_obs::report::summarize(records)
        .devices
        .into_iter()
        .map(|(device, s)| (device, s.timeouts + s.failed))
        .filter(|&(_, missed)| missed > 0)
        .collect()
}

/// Shared byte buffer standing in for a trace file.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// Drains everything written so far.
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    /// The test build keeps the checks `[profile.dev]` pins: debug
    /// assertions on, and an overflowing integer add panics rather than
    /// wrapping, at the profile's raised opt-level.
    #[test]
    fn test_build_keeps_debug_assertions_and_overflow_checks() {
        let debug_assert = std::panic::catch_unwind(|| debug_assert!(std::hint::black_box(false)));
        assert!(debug_assert.is_err(), "debug assertions are off");
        let overflow =
            std::panic::catch_unwind(|| std::hint::black_box(u8::MAX) + std::hint::black_box(1u8));
        assert!(
            overflow.is_err(),
            "u8::MAX + 1 wrapped instead of panicking"
        );
    }
}
