//! A counting allocator for the ledger's traced run.
//!
//! This is the only `unsafe impl` in the repository, and it lives in the
//! benchmark binary on purpose: every library crate stays
//! `#![forbid(unsafe_code)]`. It delegates every call to [`System`]
//! unchanged. While disarmed (always, outside the traced run) the only
//! added cost is one relaxed load per call, so timed runs measure the
//! production allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

// Relaxed everywhere: the counters are statistics and publish no other
// data. They are exact when one thread allocates, which is how the
// ledger runs.
static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments to `System` untouched and
// returns `System`'s result, so `System`'s own `GlobalAlloc` guarantees
// (layout fidelity, no unwinding) carry over. `count` touches only
// atomics: it neither allocates nor panics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is to say from
        // `System` with the same `layout`; the caller guarantees the rest
        // of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see
        // `alloc`), as `System.dealloc` requires.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and requested bytes counted so far while armed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    pub calls: u64,
    pub bytes: u64,
}

impl AllocCounts {
    pub fn since(&self, earlier: &AllocCounts) -> AllocCounts {
        AllocCounts {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

pub fn counts() -> AllocCounts {
    AllocCounts {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Counts allocations until dropped. Only the ledger's traced run holds
/// one; timed runs never arm the allocator.
pub struct Armed(());

pub fn arm() -> Armed {
    ARMED.store(true, Ordering::Relaxed);
    Armed(())
}

impl Drop for Armed {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::Relaxed);
    }
}
