//! Per-thread work counters feeding the per-phase instrumentation in
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
//! The counters belong to the thread that drives the work: one
//! `thread_local!` block, which every fan-out in [`crate::parallel`]
//! folds into its caller at the join (`parent += child`), so work done
//! on client or kernel workers lands on the thread that started it and
//! nowhere else. A delta taken around a region is therefore exactly
//! that region's work, whatever other threads in the process are doing.
//!
//! Thread-scoped is not call-scoped: the block only ever grows, and a
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
//! assert_eq!(spent.elements, 2 * 4);
//! # Ok(())
//! # }
//! ```

use std::cell::Cell;

/// Everything a worker hands back to its parent at a join.
#[derive(Clone, Copy)]
pub(crate) struct Block {
    flops: u64,
    elements: u64,
    /// Host nanoseconds per `helios-nn` hot path (see [`charge_host_ns`]).
    host_ns: [u64; 3],
}

thread_local! {
    static BLOCK: Cell<Block> = const {
        Cell::new(Block { flops: 0, elements: 0, host_ns: [0; 3] })
    };
}

/// This thread's block, for a finishing worker to return to its parent.
pub(crate) fn block() -> Block {
    BLOCK.get()
}

fn update(f: impl FnOnce(&mut Block)) {
    let mut b = BLOCK.get();
    f(&mut b);
    BLOCK.set(b);
}

/// Adds a joined worker's block to this thread's.
pub(crate) fn fold(child: Block) {
    update(|b| {
        b.flops += child.flops;
        b.elements += child.elements;
        for (mine, theirs) in b.host_ns.iter_mut().zip(child.host_ns) {
            *mine += theirs;
        }
    });
}

/// A snapshot of the calling thread's kernel counters.
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
    /// Saturating: a snapshot taken on another thread (or swapped
    /// arguments) yields zero rather than wrapping.
    pub fn since(&self, earlier: &KernelCounters) -> KernelCounters {
        KernelCounters {
            flops: self.flops.saturating_sub(earlier.flops),
            elements: self.elements.saturating_sub(earlier.elements),
        }
    }
}

/// Reads the calling thread's counter totals: everything it has run
/// itself plus everything folded in from the fan-outs it started.
pub fn kernel_counters() -> KernelCounters {
    let b = BLOCK.get();
    KernelCounters {
        flops: b.flops,
        elements: b.elements,
    }
}

/// Records one kernel invocation. Called by the kernels themselves with
/// shape-derived counts.
pub(crate) fn record_kernel(flops: u64, elements: u64) {
    update(|b| {
        b.flops += flops;
        b.elements += elements;
    });
}

/// Adds `ns` host nanoseconds to slot `path` of this thread's block and
/// returns the three slot totals. `helios-nn`'s profiler is the only
/// caller: it owns the slot meaning (forward / backward / step), charges
/// its timed sections here so they fold at the same joins as the flops,
/// and reads with `ns = 0`.
pub fn charge_host_ns(path: usize, ns: u64) -> [u64; 3] {
    update(|b| b.host_ns[path] += ns);
    BLOCK.get().host_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_accumulate_and_saturate() {
        let before = kernel_counters();
        record_kernel(100, 10);
        record_kernel(1, 2);
        let spent = kernel_counters().since(&before);
        assert_eq!((spent.flops, spent.elements), (101, 12));
        // Swapped arguments saturate to zero instead of wrapping.
        assert_eq!(before.since(&kernel_counters()), KernelCounters::default());
    }
}
