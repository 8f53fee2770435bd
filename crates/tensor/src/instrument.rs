//! Process-wide kernel counters feeding the per-phase instrumentation in
//! the federated-learning engine.
//!
//! Every leaf compute kernel ([`Tensor::matmul`](crate::Tensor::matmul)
//! and the pooling family; convolution inherits its counts from the GEMM
//! it lowers to) records the floating-point operations and output
//! elements it produced. The counts are derived from the operand
//! *shapes*, once per kernel entry on the calling thread, so they are
//! identical at every parallelism width — unlike wall-clock time they
//! measure the work itself, not how it was scheduled.
//!
//! The counters are global atomics: cheap, lock-free, and visible from
//! any thread. The trade-off is that concurrent runs in one process
//! (e.g. tests sharing a binary) interleave their counts, so consumers
//! take snapshot *deltas* around the region they care about and treat
//! the numbers as observability data, not as values to compare bitwise.
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
//! assert_eq!(spent.elements, 2 * 4);
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

static FLOPS: AtomicU64 = AtomicU64::new(0);
static ELEMENTS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide kernel counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Floating-point operations executed by the counted kernels
    /// (a fused multiply-add counts as two).
    pub flops: u64,
    /// Output elements produced by the counted kernels.
    pub elements: u64,
}

impl KernelCounters {
    /// The counters accumulated since an `earlier` snapshot.
    ///
    /// Saturating: a snapshot taken from another process epoch (or
    /// swapped arguments) yields zero rather than wrapping.
    pub fn since(&self, earlier: &KernelCounters) -> KernelCounters {
        KernelCounters {
            flops: self.flops.saturating_sub(earlier.flops),
            elements: self.elements.saturating_sub(earlier.elements),
        }
    }
}

/// Reads the current process-wide counter totals.
pub fn kernel_counters() -> KernelCounters {
    KernelCounters {
        flops: FLOPS.load(Ordering::Relaxed),
        elements: ELEMENTS.load(Ordering::Relaxed),
    }
}

/// Records one kernel invocation. Called by the kernels themselves with
/// shape-derived counts; relaxed ordering is enough because the counters
/// carry no synchronization meaning.
pub(crate) fn record_kernel(flops: u64, elements: u64) {
    FLOPS.fetch_add(flops, Ordering::Relaxed);
    ELEMENTS.fetch_add(elements, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_accumulate_and_saturate() {
        let before = kernel_counters();
        record_kernel(100, 10);
        record_kernel(1, 2);
        // Lower bounds: the kernel tests sharing this binary bump the
        // same process-global counters concurrently.
        let spent = kernel_counters().since(&before);
        assert!(spent.flops >= 101);
        assert!(spent.elements >= 12);
        // Swapped arguments saturate to zero instead of wrapping.
        assert_eq!(before.since(&kernel_counters()), KernelCounters::default());
    }
}
