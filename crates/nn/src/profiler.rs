//! Wall-clock profiling of the three training hot paths:
//! [`Network::forward`](crate::Network::forward),
//! [`Network::backward`](crate::Network::backward), and
//! [`Sgd::step`](crate::Sgd::step).
//!
//! Timed sections are charged, in nanoseconds, to the calling thread's
//! counter block in `helios_tensor`, so they travel with the kernel flop
//! counts: a fan-out folds its workers' time into the thread that
//! started it (a fan-out of eight clients contributes eight forward
//! passes' worth per batch), and a delta taken around a region is that
//! region's CPU time alone. The numbers are *host* observability data
//! and vary run to run; they never feed simulated time or any
//! bitwise-compared metric — the federated engine snapshots deltas
//! around a run and reports them in its run profile only.

use helios_tensor::charge_host_ns;
use std::time::Instant;

/// Which hot path a timed section belongs to (the slot it is charged to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hotpath {
    Forward,
    Backward,
    Step,
}

/// Times `f` and charges the elapsed wall time to `path`.
pub(crate) fn timed<T>(path: Hotpath, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    charge_host_ns(path as usize, ns);
    out
}

/// A snapshot of the accumulated hot-path wall times, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NnTimings {
    /// Total wall time spent in forward passes.
    pub forward_s: f64,
    /// Total wall time spent in backward passes.
    pub backward_s: f64,
    /// Total wall time spent in optimizer steps.
    pub step_s: f64,
}

impl NnTimings {
    /// The time accumulated since an `earlier` snapshot (clamped at zero).
    pub fn since(&self, earlier: &NnTimings) -> NnTimings {
        NnTimings {
            forward_s: (self.forward_s - earlier.forward_s).max(0.0),
            backward_s: (self.backward_s - earlier.backward_s).max(0.0),
            step_s: (self.step_s - earlier.step_s).max(0.0),
        }
    }
}

/// Reads the calling thread's hot-path totals: its own timed sections
/// plus those folded in from the fan-outs it started.
pub fn nn_timings() -> NnTimings {
    let [forward, backward, step] = charge_host_ns(0, 0).map(|ns| ns as f64 / 1e9);
    NnTimings {
        forward_s: forward,
        backward_s: backward,
        step_s: step,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_sections_accumulate() {
        let before = nn_timings();
        let out = timed(Hotpath::Forward, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(out, 7);
        let spent = nn_timings().since(&before);
        assert!(spent.forward_s >= 0.002);
        // Nothing else charges this thread's block.
        assert_eq!((spent.backward_s, spent.step_s), (0.0, 0.0));
        // Swapped snapshots clamp to zero.
        let none = before.since(&nn_timings());
        assert_eq!(none.forward_s, 0.0);
    }
}
