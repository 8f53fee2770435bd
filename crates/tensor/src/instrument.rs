//! Per-thread work counters feeding the per-phase instrumentation in
//! the federated-learning engine.
//!
//! Every leaf compute kernel ([`Tensor::matmul`](crate::Tensor::matmul)
//! and the pooling family; convolution inherits its counts from the GEMM
//! it lowers to) records the floating-point operations it ran. The
//! counts are derived from the operand *shapes*, once per kernel entry on the calling thread, so they are
//! identical at every parallelism width — unlike wall-clock time they
//! measure the work itself, not how it was scheduled.
//!
//! The counters belong to the thread that drives the work: one
//! `thread_local!` total, which every fan-out in [`crate::parallel`]
//! folds into its caller at the join (`parent += child`), so work done
//! on client or kernel workers lands on the thread that started it and
//! nowhere else. A delta taken around a region is therefore exactly
//! that region's work, whatever other threads in the process are doing.
//!
//! Thread-scoped is not call-scoped: the total only ever grows, and a
//! thread that runs several regions in sequence (libtest under
//! `--test-threads=1` runs every test on one) sees their sum. Consumers
//! never read absolute totals — they take a snapshot before, a snapshot
//! after, and use [`KernelCounters::since`].
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use helios_tensor::{kernel_counters, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let before = kernel_counters();
//! let a = Tensor::from_vec(vec![1.0; 6], &[2, 3])?;
//! let b = Tensor::from_vec(vec![1.0; 12], &[3, 4])?;
//! let _ = a.matmul(&b)?;
//! let spent = kernel_counters().since(&before);
//! assert_eq!(spent.flops, 2 * 2 * 3 * 4);
//! # Ok(())
//! # }
//! ```

use std::cell::Cell;

thread_local! {
    static FLOPS: Cell<u64> = const { Cell::new(0) };
}

/// This thread's flop total, for a finishing worker to return to its
/// parent, which adds it with [`record_kernel`].
pub(crate) fn thread_flops() -> u64 {
    FLOPS.get()
}

/// A snapshot of the calling thread's kernel counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Floating-point operations executed by the counted kernels
    /// (a fused multiply-add counts as two).
    pub flops: u64,
}

impl KernelCounters {
    /// The counters accumulated since an `earlier` snapshot.
    ///
    /// Saturating: a snapshot taken on another thread (or swapped
    /// arguments) yields zero rather than wrapping.
    pub fn since(&self, earlier: &KernelCounters) -> KernelCounters {
        KernelCounters {
            flops: self.flops.saturating_sub(earlier.flops),
        }
    }
}

/// Reads the calling thread's counter totals: everything it has run
/// itself plus everything folded in from the fan-outs it started.
pub fn kernel_counters() -> KernelCounters {
    KernelCounters { flops: FLOPS.get() }
}

/// Adds `flops` to this thread's total: called by the kernels themselves
/// with shape-derived counts, and at a join with a worker's total.
pub(crate) fn record_kernel(flops: u64) {
    FLOPS.set(FLOPS.get() + flops);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_accumulate_and_saturate() {
        let before = kernel_counters();
        record_kernel(100);
        record_kernel(1);
        let spent = kernel_counters().since(&before);
        assert_eq!(spent.flops, 101);
        // Swapped arguments saturate to zero instead of wrapping.
        assert_eq!(before.since(&kernel_counters()), KernelCounters::default());
    }
}
