//! Scoped-thread parallel execution engine for the tensor kernels.
//!
//! Everything here is std-only (`std::thread::scope` + `split_at_mut`)
//! and safe. Kernel fronts partition output buffers into disjoint
//! contiguous chunks along an "item" axis (rows for matmul, batch
//! entries for the convolution relayouts, `N*C` planes for pooling);
//! client fan-outs hand each worker the next unclaimed item. Either way
//! every result is computed by exactly one thread in exactly the order
//! the serial loop would use and lands at its item's index. That
//! structural property is what makes parallel results **bitwise
//! identical** to serial ones — no reductions across threads, no
//! reordered float accumulation.
//!
//! The thread count is ambient: kernels consult [`current_threads`],
//! which reads a thread-local override installed by
//! [`ParallelismConfig::scoped`] (falling back to the hardware count).
//! This keeps kernel signatures unchanged and lets callers — tests,
//! trainers, the FL strategies — force serial or fixed-width execution
//! for any region of code without plumbing a parameter through every
//! call site. The override is thread-local, so concurrently running
//! tests (or FL client workers) cannot race on each other's setting.

use crate::instrument;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

/// How many worker threads the tensor kernels and FL client rounds may
/// use.
///
/// `threads: None` means "auto": use every hardware thread the OS
/// reports. `Some(1)` forces serial execution; `Some(n)` caps the
/// worker count at `n`. Results are bitwise identical for every
/// setting — the knob trades wall-clock time only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ParallelismConfig {
    /// Worker-thread cap; `None` = auto-detect from the hardware.
    pub threads: Option<usize>,
}

impl ParallelismConfig {
    /// Auto-detect: one worker per hardware thread.
    pub const fn auto() -> Self {
        ParallelismConfig { threads: None }
    }

    /// Force single-threaded execution.
    pub const fn serial() -> Self {
        ParallelismConfig { threads: Some(1) }
    }

    /// Cap workers at `n` (0 is treated as 1).
    pub const fn with_threads(n: usize) -> Self {
        ParallelismConfig { threads: Some(n) }
    }

    /// The concrete thread count this config resolves to.
    pub fn resolve(&self) -> usize {
        self.threads.unwrap_or_else(hardware_threads).max(1)
    }

    /// Installs this config as the calling thread's ambient setting
    /// until the returned guard drops. Guards nest; the previous
    /// setting is restored on drop.
    #[must_use = "the setting is reverted when the guard drops"]
    pub fn scoped(&self) -> ParallelismGuard {
        let prev = OVERRIDE.with(|o| o.replace(Some(self.resolve())));
        ParallelismGuard { prev }
    }
}

thread_local! {
    /// Per-thread override of the kernel worker count.
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Reverts the ambient thread-count override installed by
/// [`ParallelismConfig::scoped`] when dropped.
#[derive(Debug)]
pub struct ParallelismGuard {
    prev: Option<usize>,
}

impl Drop for ParallelismGuard {
    fn drop(&mut self) {
        OVERRIDE.with(|o| o.set(self.prev));
    }
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The worker count kernels on this thread currently use.
pub(crate) fn current_threads() -> usize {
    OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(hardware_threads)
        .max(1)
}

/// Minimum per-thread share of work (in elementary operations) below
/// which spawning a thread costs more than it saves.
const MIN_WORK_PER_THREAD: usize = 16 * 1024;

/// Number of worker threads for `items` items of `item_work` operations
/// each, under the ambient setting.
fn plan_threads(items: usize, item_work: usize) -> usize {
    let by_work = (items.saturating_mul(item_work.max(1)) / MIN_WORK_PER_THREAD).max(1);
    current_threads().min(items.max(1)).min(by_work)
}

/// The one fan-out: cuts `a` (items of `a_len` elements) and `b` (items
/// of `b_len`, cut in lockstep) into contiguous blocks of `per_worker`
/// whole items — the last block takes the remainder — and runs
/// `f(first_item, block_a, block_b)` on one scoped thread per block. A
/// single block is `f(0, a, b)` on the calling thread.
///
/// The join is also where counters change hands: each worker returns
/// its thread's [`instrument`] block and the caller adds it to its own,
/// in worker order. A worker that itself fans out has already folded
/// its own workers by the time it returns, so counts reach the thread
/// that drives the run through any depth of nesting.
fn fan_out<A, B, F>(a: &mut [A], a_len: usize, b: &mut [B], b_len: usize, per_worker: usize, f: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    if per_worker * a_len >= a.len() {
        f(0, a, b);
        return;
    }
    std::thread::scope(|scope| {
        let f = &f;
        let mut workers = Vec::new();
        let (mut rest_a, mut rest_b) = (a, b);
        let mut first_item = 0usize;
        while !rest_a.is_empty() {
            let take_items = per_worker.min(rest_a.len() / a_len);
            let (chunk_a, tail_a) = rest_a.split_at_mut(take_items * a_len);
            let (chunk_b, tail_b) = rest_b.split_at_mut(take_items * b_len);
            rest_a = tail_a;
            rest_b = tail_b;
            let start = first_item;
            workers.push(scope.spawn(move || {
                f(start, chunk_a, chunk_b);
                instrument::block()
            }));
            first_item += take_items;
        }
        for worker in workers {
            match worker.join() {
                Ok(block) => instrument::fold(block),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
}

/// Runs `f` over disjoint chunks of `data`, partitioned on an item axis.
///
/// `data` is treated as `data.len() / item_len` contiguous items of
/// `item_len` elements; items are split into one contiguous block per
/// worker and `f(first_item, chunk)` runs on each block (`first_item`
/// is the index of the block's first item). With one worker this
/// degenerates to `f(0, data)` on the calling thread, so parallel and
/// serial execution perform identical per-element computations.
///
/// `item_work` estimates the elementary operations per item and only
/// gates how many threads are worth spawning.
pub(crate) fn for_each_block<T, F>(data: &mut [T], item_len: usize, item_work: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    for_each_block_aligned(data, item_len, item_work, 1, f);
}

/// Like [`for_each_block`], but rounds each worker's item share up to a
/// multiple of `align`, so worker blocks start and end on tile
/// boundaries (the blocked GEMM passes its microkernel height so no
/// worker splits a register tile). Alignment only moves the partition
/// points *between* workers; every element is still computed by exactly
/// one thread in serial order, so results remain bitwise identical at
/// any width. The final block absorbs the remainder.
pub(crate) fn for_each_block_aligned<T, F>(
    data: &mut [T],
    item_len: usize,
    item_work: usize,
    align: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if item_len == 0 || data.is_empty() {
        return;
    }
    debug_assert_eq!(data.len() % item_len, 0, "data must be whole items");
    let items = data.len() / item_len;
    let per_worker = items
        .div_ceil(plan_threads(items, item_work))
        .next_multiple_of(align.max(1));
    // The second buffer is zero-sized: every cut of it is empty.
    fan_out(
        data,
        item_len,
        &mut [(); 0],
        0,
        per_worker,
        |first, chunk, _| {
            f(first, chunk);
        },
    );
}

/// Like [`for_each_block`], but partitions two output buffers in
/// lockstep (e.g. max-pool values and argmax indices): item `i` spans
/// `a[i*a_len..]` and `b[i*b_len..]`, and both chunks for a block go to
/// the same worker.
pub(crate) fn for_each_block2<A, B, F>(
    a: &mut [A],
    a_len: usize,
    b: &mut [B],
    b_len: usize,
    item_work: usize,
    f: F,
) where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    if a_len == 0 || b_len == 0 || a.is_empty() {
        return;
    }
    debug_assert_eq!(a.len() % a_len, 0, "a must be whole items");
    debug_assert_eq!(a.len() / a_len, b.len() / b_len, "item counts must match");
    let items = a.len() / a_len;
    let per_worker = items.div_ceil(plan_threads(items, item_work));
    fan_out(a, a_len, b, b_len, per_worker, f);
}

/// Runs one closure per index `0..count` on worker threads, claim-next
/// as in [`map_items_mut`], and returns the results in index order. Used
/// for coarse-grained fan-out (FL clients, route encode/decode, lazy
/// materialization). `threads` is the *total* budget — it caps the
/// fan-out width, and any surplus per worker is granted to that worker's
/// kernels: `threads = 1` is fully serial, `threads = 8` over 2 items is
/// 2 workers running 4-thread kernels. Results are bitwise identical for
/// every budget because the kernels themselves are deterministic at any
/// width.
pub fn map_indexed<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_items_mut(&mut vec![(); count], threads, |i, ()| f(i))
}

/// Like [`map_indexed`], but each closure call also receives exclusive
/// mutable access to its item of `items` — the primitive behind the FL
/// layer's parallel client rounds. Each of `width` workers loops: claim
/// the next `(i, item, slot)` under a call-local lock, release it, and
/// write `f(i, item)` into slot `i`. An idle worker never waits while
/// an item is unclaimed, and output order is item order regardless of
/// which worker ran which item.
pub fn map_items_mut<T, U, F>(items: &mut [T], threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut T) -> U + Sync,
{
    let mut out: Vec<Option<U>> = items.iter().map(|_| None).collect();
    let budget = threads.max(1);
    let width = budget.min(items.len().max(1));
    // Workers (or, serially, this thread for the duration of the loop)
    // only get the budget left after the fan-out, so nested kernels
    // never oversubscribe.
    let per_worker = ParallelismConfig::with_threads(budget / width);
    let queue = Mutex::new(items.iter_mut().zip(out.iter_mut()).enumerate());
    // One block per worker; the blocks carry nothing but the fan-out.
    fan_out(&mut vec![(); width], 1, &mut [(); 0], 0, 1, |_, _, _| {
        let _guard = per_worker.scoped();
        loop {
            // The guard is a temporary, released before `f` runs; nothing
            // can panic while it is held, so the lock is never poisoned.
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, (item, slot))) = next else { break };
            *slot = Some(f(i, item));
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every item filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_resolution() {
        assert_eq!(ParallelismConfig::serial().resolve(), 1);
        assert_eq!(ParallelismConfig::with_threads(3).resolve(), 3);
        assert_eq!(ParallelismConfig::with_threads(0).resolve(), 1);
        assert!(ParallelismConfig::auto().resolve() >= 1);
    }

    #[test]
    fn scoped_override_nests_and_restores() {
        let outer = current_threads();
        {
            let _g = ParallelismConfig::with_threads(5).scoped();
            assert_eq!(current_threads(), 5);
            {
                let _g2 = ParallelismConfig::serial().scoped();
                assert_eq!(current_threads(), 1);
            }
            assert_eq!(current_threads(), 5);
        }
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn for_each_block_covers_every_item_once() {
        let _g = ParallelismConfig::with_threads(4).scoped();
        let mut data = vec![0u32; 24];
        // Large item_work defeats the small-work cutoff.
        for_each_block(&mut data, 3, usize::MAX / 64, |first, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v += (first * 3 + i) as u32 + 1;
            }
        });
        let expected: Vec<u32> = (1..=24).collect();
        assert_eq!(data, expected);
    }

    #[test]
    fn for_each_block2_keeps_buffers_in_lockstep() {
        let _g = ParallelismConfig::with_threads(3).scoped();
        let mut a = vec![0usize; 10];
        let mut b = vec![0usize; 20];
        for_each_block2(&mut a, 1, &mut b, 2, usize::MAX / 64, |first, ca, cb| {
            for i in 0..ca.len() {
                ca[i] = first + i;
                cb[2 * i] = 10 * (first + i);
                cb[2 * i + 1] = 10 * (first + i) + 1;
            }
        });
        for i in 0..10 {
            assert_eq!(a[i], i);
            assert_eq!(b[2 * i], 10 * i);
            assert_eq!(b[2 * i + 1], 10 * i + 1);
        }
    }

    #[test]
    fn map_indexed_preserves_order() {
        for threads in [1, 2, 5, 16] {
            let out = map_indexed(11, threads, |i| i * i);
            assert_eq!(out, (0..11).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn map_indexed_workers_run_kernels_serial() {
        let flags = map_indexed(4, 2, |_| current_threads());
        assert!(flags.iter().all(|&t| t == 1));
    }

    #[test]
    fn surplus_budget_flows_to_kernels() {
        // 8-thread budget over 2 items: 2 workers × 4 kernel threads.
        let flags = map_indexed(2, 8, |_| current_threads());
        assert_eq!(flags, vec![4, 4]);
        // Serial budget stays serial all the way down.
        let flags = map_indexed(2, 1, |_| current_threads());
        assert_eq!(flags, vec![1, 1]);
    }

    #[test]
    fn map_items_mut_mutates_in_place_and_preserves_order() {
        for threads in [1, 2, 5, 16] {
            let mut items: Vec<usize> = (0..9).collect();
            let out = map_items_mut(&mut items, threads, |i, v| {
                // Early items are the slow ones, so later items finish first.
                std::thread::sleep(std::time::Duration::from_millis(2 * (9 - i as u64)));
                *v += 100;
                i * 10
            });
            assert_eq!(items, (100..109).collect::<Vec<_>>());
            assert_eq!(out, (0..9).map(|i| i * 10).collect::<Vec<_>>());
        }
        let mut empty: Vec<usize> = Vec::new();
        assert!(map_items_mut(&mut empty, 4, |_, _| 0).is_empty());
    }

    #[test]
    fn map_items_mut_hands_the_next_item_to_an_idle_worker() {
        // Items 0 and 1 can only finish together: each waits for the
        // other. A fixed contiguous share would put both on one worker
        // and time out; claim-next gives them one worker each.
        let arrived = (Mutex::new([false; 2]), std::sync::Condvar::new());
        let mut items = [0, 1, 2, 3];
        let met = map_items_mut(&mut items, 2, |i, _| {
            if i > 1 {
                return true;
            }
            let (lock, cvar) = &arrived;
            let mut seen = lock.lock().unwrap();
            seen[i] = true;
            cvar.notify_all();
            let wait = std::time::Duration::from_secs(5);
            let (_seen, timeout) = cvar.wait_timeout_while(seen, wait, |s| !s[1 - i]).unwrap();
            !timeout.timed_out()
        });
        assert_eq!(met, [true; 4]);
    }

    #[test]
    fn worker_counters_fold_into_the_caller() {
        let spent = |threads: usize| {
            let mut items = vec![vec![0u32; 6]; 4];
            let before = instrument::kernel_counters();
            map_items_mut(&mut items, threads, |_, item| {
                instrument::record_kernel(7, 1);
                // Large item_work defeats the small-work cutoff.
                for_each_block(item, 1, usize::MAX / 64, |_, chunk| {
                    instrument::record_kernel(chunk.len() as u64, 0);
                });
            });
            instrument::kernel_counters().since(&before)
        };
        let serial = spent(1);
        assert_eq!((serial.flops, serial.elements), (4 * (7 + 6), 4));
        // Four client workers; then four workers with two kernel threads
        // each, whose counts reach this thread through two joins.
        assert_eq!(spent(4), serial);
        assert_eq!(spent(8), serial);
    }
}
