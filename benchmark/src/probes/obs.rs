//! `obs` probes: what one `emit` costs with the bus off (every workload's
//! state), into the in-memory ring, and into the JSONL serializer.
//!
//! Installing a sink switches the process-wide bus on, so these run after
//! every other measurement, and each handle is dropped (uninstalling its
//! sink) before the next probe.

use super::{ns, Prober};
use crate::metrics::Metrics;
use crate::stats::Summary;
use helios_obs::{JsonlSink, RingBufferSink, TraceEvent, TraceSink};

/// Events per timed sample.
const EVENTS: usize = 10_000;

fn emit_events(p: &mut Prober<'_>, what: &str) -> Summary {
    p.time_batched(what, EVENTS, || {
        for i in 0..EVENTS {
            helios_obs::emit(|| TraceEvent::TrainDone {
                device: i as u64,
                compute_s: 1.5,
            });
        }
        Ok(())
    })
}

fn emit_into(p: &mut Prober<'_>, what: &str, sink: Box<dyn TraceSink>) -> Summary {
    let _installed = helios_obs::install(sink);
    emit_events(p, what)
}

pub fn run(p: &mut Prober<'_>, m: &mut Metrics) {
    p.tally.check(
        "obs: the bus is off before the probes",
        !helios_obs::enabled(),
    );
    m.set(
        "obs.emit_disabled_ns",
        emit_events(p, "obs.emit_disabled").map(ns),
    );
    let ring = Box::new(RingBufferSink::with_capacity(4096));
    m.set(
        "obs.emit_ring_ns",
        emit_into(p, "obs.emit_ring", ring).map(ns),
    );
    let jsonl = Box::new(JsonlSink::new(Box::new(std::io::sink())));
    m.set(
        "obs.emit_jsonl_ns",
        emit_into(p, "obs.emit_jsonl", jsonl).map(ns),
    );
    p.tally.check(
        "obs: the bus is off after the probes",
        !helios_obs::enabled(),
    );
}
