//! # helios-obs — deterministic tracing and metrics for the simulator
//!
//! This crate is the observability layer of the workspace: a
//! thread-scoped event bus carrying typed [`TraceEvent`]s, pluggable
//! sinks ([`RingBufferSink`], [`JsonlSink`], [`ChromeTraceSink`]), and
//! trace analysis ([`report`]).
//!
//! ## The two clocks
//!
//! Everything on the bus is stamped with **simulated** time (published
//! by the round driver via [`set_sim_time`]); host wall-clock never
//! appears in a trace. Host-side profiling (kernel flop counters, phase
//! wall timers) stays out of traces entirely. The payoff
//! is the workspace determinism contract: a fixed-seed run emits a
//! byte-identical JSONL trace at any thread width.
//!
//! ## Zero-cost when off
//!
//! The bus is disabled until a sink is [`install`]ed on the calling
//! thread. [`emit`] takes a closure and checks a single thread-local
//! flag before building the payload, so instrumented hot paths cost one
//! predictable branch when tracing is off (the repository benchmark's
//! `obs.emit_disabled_ns`).
//!
//! ## Typical use
//!
//! ```
//! use helios_obs::{install, emit, set_sim_time, RingBufferSink, TraceEvent};
//! use helios_device::SimTime;
//!
//! let ring = RingBufferSink::with_capacity(1024);
//! let handle = install(Box::new(ring.clone()));
//! set_sim_time(SimTime::from_secs(1.0));
//! emit(|| TraceEvent::RoundStart { cycle: 0, population: 1 });
//! drop(handle); // detaches + flushes
//! assert_eq!(ring.records().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod bus;
mod chrome;
mod event;
pub mod report;
mod sink;

pub use bus::{emit, enabled, flush, install, set_sim_time, sim_time_s, PhaseGuard, SinkHandle};
pub use chrome::{chrome_trace, ChromeTraceSink};
pub use event::{Dir, TraceEvent, TraceRecord};
pub use sink::{JsonlSink, RingBufferSink, TraceSink};

/// Parses a JSONL trace (one record per line, blank lines ignored).
///
/// Fails on the first malformed line, reporting its 1-based number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: TraceRecord =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(rec);
    }
    Ok(out)
}

/// FNV-1a digest of a byte stream — the pin used by the determinism
/// test to assert byte-identical traces without embedding the trace.
pub fn content_digest(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_jsonl_round_trips_and_reports_line_numbers() {
        let text = "{\"t\":0.5,\"type\":\"RoundStart\",\"cycle\":1,\"population\":3}\n\n{\"t\":1.0,\"type\":\"Timeout\",\"device\":2}\n";
        let records = parse_jsonl(text).expect("valid trace");
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].event, TraceEvent::Timeout { device: 2 });

        let bad = "{\"t\":0.5,\"type\":\"RoundStart\",\"cycle\":1,\"population\":3}\nnot json\n";
        let err = parse_jsonl(bad).expect_err("malformed line");
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        assert_eq!(content_digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_digest(b"helios"), content_digest(b"helios"));
        assert_ne!(content_digest(b"helios"), content_digest(b"helio$"));
    }
}
