//! What the benchmark reads from the host: core count, CPU model, this
//! process's resident-set figures, and the commit under test.

use serde::value::Value;
use std::fs;

/// Worker threads the timed runs use: never more than two, so a recorded
/// number means the same on the 2-core seed host and on a larger one.
pub const MAX_THREADS: usize = 2;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

pub fn timed_threads() -> usize {
    nproc().min(MAX_THREADS)
}

fn status_kb(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MB (`VmHWM`); `None` without
/// procfs.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Current resident set of this process in MB (`VmRSS`).
pub fn rss_mb() -> Option<f64> {
    status_kb("VmRSS:").map(|kb| kb as f64 / 1024.0)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory
/// without starting a process; `unknown` outside a git checkout (the
/// driver's checkout is not one).
fn git_commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| head.clone(), |s| s.trim().to_string()),
        None => head,
    }
}

/// The methodology block every report carries.
pub fn methodology(seed: u64, quick: bool) -> Vec<(String, Value)> {
    let s = |v: &str| Value::Str(v.to_string());
    vec![
        ("nproc".into(), Value::UInt(nproc() as u64)),
        ("timed_threads".into(), Value::UInt(timed_threads() as u64)),
        ("ledger_threads".into(), Value::UInt(1)),
        ("cpu_model".into(), s(&cpu_model())),
        ("rustc".into(), s(env!("BENCH_RUSTC_VERSION"))),
        ("rustflags".into(), s(env!("BENCH_RUSTFLAGS"))),
        ("profile".into(), s(env!("BENCH_PROFILE"))),
        ("git_commit".into(), s(&git_commit())),
        ("seed".into(), Value::UInt(seed)),
        ("quick".into(), Value::Bool(quick)),
        (
            "timed_warmup_reps".into(),
            Value::UInt(crate::timed::WARMUP_REPS as u64),
        ),
        (
            "timed_min_reps".into(),
            Value::UInt(crate::timed::min_reps(quick) as u64),
        ),
        (
            "probe_warmup_iters".into(),
            Value::UInt(crate::probes::WARMUP_ITERS as u64),
        ),
        (
            "probe_timed_iters".into(),
            Value::UInt(crate::probes::timed_iters(quick) as u64),
        ),
    ]
}
