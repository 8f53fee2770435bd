//! Process-wide switch between packed and zeroing mask execution.
//!
//! Masked [`Dense`](crate::Dense) / [`Conv2d`](crate::Conv2d) layers have
//! two bitwise-identical execution strategies: the legacy *zeroing* path
//! (run full-width kernels, zero the masked outputs/gradients) and the
//! *packed* path (gather active units into compact tensors, run the
//! kernels on the packed shapes, scatter back). Packed execution is the
//! default — it is what makes a keep-ratio sub-model proportionally
//! cheaper — but `tests/tests/packed_parity.rs` flips this switch to
//! prove the two paths agree bit for bit and that packed flops shrink
//! with the keep ratio.
//!
//! The flag is a global atomic rather than a thread-local because the
//! tensor kernels fan work out to scoped worker threads and FL clients
//! may train on worker threads of their own; every thread must see one
//! consistent setting. A global toggle cannot change any numeric result
//! (both paths produce identical bits) — it only changes how much work
//! the kernel flop counters observe — so the usual race concerns do not
//! apply. Tests that assert on flop counts still serialize themselves
//! around the flag with a lock.

use std::sync::atomic::{AtomicBool, Ordering};

static PACKED_EXECUTION: AtomicBool = AtomicBool::new(true);

/// Enables or disables packed execution of masked layers process-wide.
///
/// Disabling falls back to the legacy zeroing path. Results are bitwise
/// identical either way; only the executed (and counted) kernel work
/// changes.
pub fn set_packed_execution(enabled: bool) {
    PACKED_EXECUTION.store(enabled, Ordering::SeqCst);
}

/// Whether masked layers currently use the packed execution path.
pub fn packed_execution_enabled() -> bool {
    PACKED_EXECUTION.load(Ordering::SeqCst)
}
