//! Reusable per-thread scratch buffers for kernel workspaces.
//!
//! The blocked GEMM ([`crate::gemm`]) packs operand panels, and the
//! im2col convolution unrolls patch matrices, into large temporary
//! buffers. Allocating those with `vec![0.0; len]` on every forward and
//! backward of every training cycle puts an allocator round-trip (and a
//! page-fault warmup for multi-megabyte `cols` matrices) on the hottest
//! path in the workspace. This module keeps a small per-thread pool of
//! `Vec<f32>` buffers that kernels check out as a [`Scratch`], which
//! goes back to the pool when it drops, so steady-state training reuses
//! the same allocations cycle after cycle.
//!
//! Design notes:
//!
//! - **One checkout, not zeroed.** A [`Scratch`] arrives with exactly
//!   the requested length and *stale* values from earlier checkouts.
//!   Every kernel writes each slot it reads: im2col writes its padding
//!   zeros, the GEMM overwrites its output, the packers write their pad
//!   lanes. So no buffer pays a fill pass only to be overwritten: a
//!   pooled buffer stays initialized over its whole length, and a
//!   checkout hands out a prefix of it without writing a slot. Only a
//!   pool miss grows (and so initializes) a buffer.
//! - **Owned, and returned on drop.** A checkout may outlive the call
//!   that made it: a convolution's forward keeps its patch matrix in one
//!   until the backward pass has read it. Dropping a [`Scratch`] hands
//!   its buffer to the pool of the thread that drops it.
//! - **Reentrancy.** Checkouts nest: `conv2d` holds its `cols` buffer
//!   while the GEMM inside it checks out pack panels. The pool is only
//!   borrowed for the instant of checkout/checkin, so nesting cannot
//!   double-borrow.
//! - **Thread locality.** The pool is `thread_local!`, so FL client
//!   workers and kernel worker threads never contend on a lock and never
//!   share buffers. Scoped kernel workers are short-lived and drop their
//!   pools on exit; the long-lived paths (serial training, each client
//!   worker's whole local round) are exactly the ones where reuse pays.
//! - **Bounded.** At most [`MAX_POOLED`] idle buffers are retained per
//!   thread; beyond that the smallest is dropped, so a burst of odd
//!   shapes cannot pin unbounded memory.
//!
//! [`workspace_stats`] exposes per-thread checkout/realloc counters so
//! tests can assert the steady-state path stops allocating.

use std::cell::RefCell;

/// Maximum number of idle buffers retained per thread.
const MAX_POOLED: usize = 8;

#[derive(Default)]
struct Pool {
    free: Vec<Vec<f32>>,
    acquires: u64,
    reallocs: u64,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Per-thread workspace counters, for observability and tests.
///
/// `acquires` counts every scratch checkout on the calling thread;
/// `reallocs` counts the checkouts that had to allocate or grow a
/// buffer. A steady-state training loop should show `acquires`
/// increasing while `reallocs` stays flat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkspaceStats {
    /// Total scratch-buffer checkouts on this thread.
    pub acquires: u64,
    /// Checkouts that had to allocate or grow (pool miss).
    pub reallocs: u64,
}

/// Returns the calling thread's workspace counters.
pub fn workspace_stats() -> WorkspaceStats {
    POOL.with(|cell| {
        let pool = cell.borrow();
        WorkspaceStats {
            acquires: pool.acquires,
            reallocs: pool.reallocs,
        }
    })
}

/// Resets the calling thread's workspace counters to zero.
///
/// The buffer pool itself is left intact — only the statistics reset,
/// so a test can measure the marginal allocations of a warm region.
pub fn reset_workspace_stats() {
    POOL.with(|cell| {
        let mut pool = cell.borrow_mut();
        pool.acquires = 0;
        pool.reallocs = 0;
    });
}

/// A scratch buffer checked out of the calling thread's pool: `len`
/// floats holding stale values, to be written before they are read. It
/// returns to the pool of the thread that drops it.
#[derive(Debug, Clone)]
pub(crate) struct Scratch {
    /// The pooled buffer, initialized over its whole length, which may
    /// exceed `len`: handing out a shorter prefix writes nothing.
    buf: Vec<f32>,
    len: usize,
}

impl Scratch {
    /// Checks out `len` floats; checkouts nest freely, each popping its
    /// own buffer.
    pub(crate) fn checkout(len: usize) -> Scratch {
        let mut buf = POOL.with(|cell| {
            let mut pool = cell.borrow_mut();
            pool.acquires += 1;
            // Best fit: the smallest pooled buffer that already covers
            // `len` (otherwise any buffer — it will grow below).
            let mut pick: Option<usize> = None;
            let mut pick_len = usize::MAX;
            for (i, b) in pool.free.iter().enumerate() {
                if b.len() >= len && b.len() < pick_len {
                    pick = Some(i);
                    pick_len = b.len();
                }
            }
            let buf = match pick {
                Some(i) => pool.free.swap_remove(i),
                None => pool.free.pop().unwrap_or_default(),
            };
            if buf.len() < len {
                pool.reallocs += 1;
            }
            buf
        });
        // Only a pool miss grows (and initializes) the buffer; a hit
        // hands out a prefix of it as it is.
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        Scratch { buf, len }
    }
}

impl std::ops::Deref for Scratch {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.buf[..self.len]
    }
}

impl std::ops::DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[..self.len]
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        // A thread's pool is gone once its thread-locals are torn down;
        // a buffer dropped after that is simply freed.
        let _ = POOL.try_with(|cell| {
            let mut pool = cell.borrow_mut();
            pool.free.push(buf);
            if pool.free.len() > MAX_POOLED {
                // Evict the smallest buffer: the large ones are the
                // expensive ones to re-create.
                let mut drop_i = 0;
                let mut drop_len = usize::MAX;
                for (i, b) in pool.free.iter().enumerate() {
                    if b.len() < drop_len {
                        drop_i = i;
                        drop_len = b.len();
                    }
                }
                pool.free.swap_remove(drop_i);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_arrives_correctly_sized_with_stale_values() {
        Scratch::checkout(16).fill(7.0);
        // The next checkout gets the same buffer back, not re-zeroed.
        let s = Scratch::checkout(16);
        assert_eq!(s.len(), 16);
        assert!(s.iter().all(|&v| v == 7.0));
    }

    #[test]
    fn warm_pool_stops_reallocating() {
        drop(Scratch::checkout(1024));
        reset_workspace_stats();
        for _ in 0..10 {
            drop(Scratch::checkout(1024));
            drop(Scratch::checkout(256));
        }
        let stats = workspace_stats();
        assert_eq!(stats.acquires, 20);
        // The 1024-buffer is reused every round; only the first 256
        // checkout may need a fresh buffer (best-fit may satisfy it from
        // a larger pooled one, in which case even that is free).
        assert!(stats.reallocs <= 1, "stats: {stats:?}");
    }

    #[test]
    fn nested_checkouts_get_distinct_buffers() {
        let mut outer = Scratch::checkout(8);
        outer.fill(1.0);
        Scratch::checkout(8).fill(2.0);
        assert!(outer.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn zero_length_checkout_is_fine() {
        assert!(Scratch::checkout(0).is_empty());
    }

    #[test]
    fn dirty_checkout_skips_the_zero_fill() {
        Scratch::checkout(32).fill(5.0);
        let s = Scratch::checkout(16);
        assert_eq!(s.len(), 16);
        // Stale content from the previous checkout is visible.
        assert!(s.iter().all(|&v| v == 5.0));
        drop(s);
        // Growing a checkout still yields the right length.
        assert_eq!(Scratch::checkout(64).len(), 64);
    }

    #[test]
    fn a_kept_checkout_returns_to_the_pool_when_dropped() {
        let mut kept = Scratch::checkout(4099);
        kept.fill(3.0);
        reset_workspace_stats();
        drop(kept);
        let again = Scratch::checkout(4099);
        assert!(again.iter().all(|&v| v == 3.0));
        assert_eq!(workspace_stats().reallocs, 0);
    }
}
