//! Process-wide wall-clock profiling of the three training hot paths:
//! [`Network::forward`](crate::Network::forward),
//! [`Network::backward`](crate::Network::backward), and
//! [`Sgd::step`](crate::Sgd::step).
//!
//! The accumulators are global atomics holding nanoseconds, so the
//! numbers are *host* observability data: they sum CPU time across every
//! thread currently training (a fan-out of eight clients contributes
//! eight forward passes' worth per batch) and vary run to run. They
//! never feed simulated time or any bitwise-compared metric — the
//! federated engine snapshots deltas around each phase and reports them
//! in its run profile only.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static FORWARD_NS: AtomicU64 = AtomicU64::new(0);
static BACKWARD_NS: AtomicU64 = AtomicU64::new(0);
static STEP_NS: AtomicU64 = AtomicU64::new(0);

/// Which hot path a timed section belongs to.
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
    let slot = match path {
        Hotpath::Forward => &FORWARD_NS,
        Hotpath::Backward => &BACKWARD_NS,
        Hotpath::Step => &STEP_NS,
    };
    slot.fetch_add(ns, Ordering::Relaxed);
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

/// Reads the current process-wide hot-path totals.
pub fn nn_timings() -> NnTimings {
    let secs = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / 1e9;
    NnTimings {
        forward_s: secs(&FORWARD_NS),
        backward_s: secs(&BACKWARD_NS),
        step_s: secs(&STEP_NS),
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
        // A lower bound on the timer this test drives: sibling tests in
        // the binary charge the same process-global accumulators.
        let spent = nn_timings().since(&before);
        assert!(spent.forward_s >= 0.002);
        // Swapped snapshots clamp to zero.
        let none = before.since(&nn_timings());
        assert_eq!(none.forward_s, 0.0);
    }
}
