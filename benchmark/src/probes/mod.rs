//! Layer probes: each lower layer's public entry points replayed at one
//! thread on inputs taken from the traced run (its model kind and batch
//! shape, its captured updates and global, the workload's `NetConfig`).
//!
//! Every probe runs [`WARMUP_ITERS`] untimed iterations, then a fixed
//! number of timed ones, and reports the median with its spread. A probe
//! is one operation: an `Err` from it is a failed operation.

pub mod fl;
pub mod net;
pub mod nn;
pub mod obs;
pub mod tensor;

use crate::metrics::Metrics;
use crate::outcome::Tally;
use crate::stats::{summarize, Summary};
use crate::traced_driver::Captured;
use crate::workloads::{BoxResult, Workload};
use std::hint::black_box;
use std::time::Instant;

pub const WARMUP_ITERS: usize = 2;

/// Mini-batch every probe uses: the workloads' training batch.
pub const BATCH: usize = 16;

pub fn timed_iters(quick: bool) -> usize {
    if quick {
        3
    } else {
        30
    }
}

/// Seconds to microseconds / nanoseconds, for [`Summary::map`].
pub fn us(s: f64) -> f64 {
    s * 1e6
}

pub fn ns(s: f64) -> f64 {
    s * 1e9
}

/// What every probe group works from.
pub struct ProbeInputs<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub captured: &'a Captured,
}

/// Calls `f` for [`WARMUP_ITERS`] untimed and `iters` timed iterations.
/// Returns seconds per timed call and how many workspace checkouts had
/// to allocate during the timed part (steady state expects none).
pub fn measure<T>(iters: usize, mut f: impl FnMut() -> BoxResult<T>) -> BoxResult<(Vec<f64>, u64)> {
    for _ in 0..WARMUP_ITERS {
        black_box(f()?);
    }
    let before = helios_tensor::workspace_stats().reallocs;
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        black_box(f()?);
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok((samples, helios_tensor::workspace_stats().reallocs - before))
}

/// Times closures and keeps the operation tally.
pub struct Prober<'a> {
    pub iters: usize,
    pub tally: &'a mut Tally,
    /// Workspace reallocations seen inside timed iterations so far.
    pub timed_reallocs: u64,
}

impl Prober<'_> {
    /// Times `f` per call. `calls` is how many units of work one call of
    /// `f` performs (a batch of very short operations); the samples are
    /// seconds per unit.
    pub fn time_batched<T>(
        &mut self,
        what: &str,
        calls: usize,
        f: impl FnMut() -> BoxResult<T>,
    ) -> Summary {
        let measured = self.tally.op(what, measure(self.iters, f));
        let (samples, reallocs) = measured.unwrap_or_default();
        self.timed_reallocs += reallocs;
        let per_unit: Vec<f64> = samples.iter().map(|s| s / calls as f64).collect();
        summarize(&per_unit)
    }

    pub fn time<T>(&mut self, what: &str, f: impl FnMut() -> BoxResult<T>) -> Summary {
        self.time_batched(what, 1, f)
    }

    /// Runs a probe that collects its own samples.
    pub fn run(&mut self, what: &str, f: impl FnOnce(usize) -> BoxResult<()>) {
        let iters = self.iters;
        self.tally.op(what, f(iters));
    }
}

/// Runs every probe group. The `obs` probes install trace sinks, which
/// switches the process-wide bus on, so they run last and the sinks are
/// gone when they return.
pub fn run_all(inputs: &ProbeInputs<'_>, quick: bool, tally: &mut Tally, m: &mut Metrics) {
    let mut p = Prober {
        iters: timed_iters(quick),
        tally,
        timed_reallocs: 0,
    };
    nn::run(&mut p, inputs, m);
    tensor::run(&mut p, inputs, m);
    net::run(&mut p, inputs, m);
    fl::run(&mut p, inputs, m);
    obs::run(&mut p, m);
}
