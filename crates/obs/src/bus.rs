//! The deterministic event bus of the thread that drives a run.
//!
//! The bus is **off by default** and zero-cost when off: [`emit`] takes
//! a closure and checks one thread-local flag before building the
//! event, so an uninstrumented run pays a single predictable branch per
//! call site. Installing a sink flips the bus on; dropping the returned
//! [`SinkHandle`] detaches it again (the bus turns back off when the
//! last sink detaches).
//!
//! ## Scope
//!
//! All bus state — the switch, the sim clock, the sink list — is
//! `thread_local!`: a sink sees exactly the events emitted on the
//! thread that installed it, so concurrent runs on different threads
//! (parallel tests, side-by-side strategies) each get their own trace
//! with no lock between them. [`SinkHandle`] is `!Send`, which pins a
//! sink's detach to the thread it was installed on.
//!
//! Thread-scoped is not call-scoped: a thread that performs several
//! runs in sequence (libtest under `--test-threads=1` runs every test
//! on one thread) reuses one bus, so nothing may outlive its run. The
//! handle is the RAII guard for that: its `Drop` — on the normal path
//! and on unwind alike — removes its sink and, when it was the last,
//! switches the bus off and zeroes the sim clock.
//!
//! ## Timestamps
//!
//! Events are stamped with **simulated** time, published by the round
//! driver via [`set_sim_time`] as the sim-clock advances. Host
//! wall-clock never enters a trace, which is the property that makes
//! traces bitwise reproducible across thread widths. There is no
//! sequence counter either: the record order *is* the sequence.
//!
//! ## Determinism contract
//!
//! Every emission point in the workspace sits on the serial path of
//! the driving thread (driver phases, post-join fan-in, transport send
//! loop); nothing emits from inside a parallel worker, whose own bus
//! is off. That keeps the record stream byte-identical regardless of
//! `ParallelismConfig`.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;

use helios_device::SimTime;

use crate::event::{TraceEvent, TraceRecord};
use crate::sink::TraceSink;

thread_local! {
    /// Fast-path switch: true iff at least one sink is installed.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// Current simulated time in seconds.
    static SIM_TIME_S: Cell<f64> = const { Cell::new(0.0) };
    /// Id source for [`SinkHandle`]s.
    static NEXT_HANDLE: Cell<u64> = const { Cell::new(1) };
    /// Installed sinks, keyed by handle id so detach removes the right one.
    static SINKS: RefCell<Vec<(u64, Box<dyn TraceSink>)>> = const { RefCell::new(Vec::new()) };
}

/// Whether any sink is currently installed on this thread.
///
/// Call sites may use this to skip *argument* computation that the
/// [`emit`] closure cannot capture cheaply; `emit` itself already
/// checks it.
#[inline]
pub fn enabled() -> bool {
    ENABLED.get()
}

/// Publishes the current simulated time for subsequent events.
///
/// The driver calls this as the sim-clock advances; emission points
/// never read the clock themselves. The value is stored raw (no
/// monotone clamping) so back-to-back runs on one thread each start
/// from their own t=0; [`trace-report`'s] `--validate` checks per-trace
/// monotonicity instead.
///
/// [`trace-report`'s]: crate
#[inline]
pub fn set_sim_time(now: SimTime) {
    if enabled() {
        SIM_TIME_S.set(now.as_secs_f64());
    }
}

/// The simulated timestamp events are currently stamped with.
#[inline]
pub fn sim_time_s() -> f64 {
    SIM_TIME_S.get()
}

/// Emits an event to every sink installed on this thread.
///
/// The closure only runs when a sink is installed, so call sites can
/// pass payload construction (formatting, mask counting) without
/// penalising untraced runs.
#[inline]
pub fn emit(event: impl FnOnce() -> TraceEvent) {
    if !enabled() {
        return;
    }
    emit_record(TraceRecord {
        t: sim_time_s(),
        event: event(),
    });
}

fn emit_record(record: TraceRecord) {
    SINKS.with_borrow_mut(|sinks| {
        for (_, sink) in sinks.iter_mut() {
            sink.record(&record);
        }
    });
}

/// Detaches its sink (and flushes it) when dropped.
///
/// Returned by [`install`]; hold it for the duration of the traced run,
/// on the thread that runs it (the handle is `!Send`).
#[must_use = "dropping the handle immediately uninstalls the sink"]
pub struct SinkHandle {
    id: u64,
    _this_thread: PhantomData<*const ()>,
}

impl Drop for SinkHandle {
    fn drop(&mut self) {
        // `try_with`: a handle dropped during thread teardown, after the
        // sink list itself is gone, has nothing left to detach.
        let _ = SINKS.try_with(|sinks| {
            let mut sinks = sinks.borrow_mut();
            if let Some(pos) = sinks.iter().position(|(id, _)| *id == self.id) {
                let (_, mut sink) = sinks.remove(pos);
                sink.flush();
            }
            if sinks.is_empty() {
                ENABLED.set(false);
                SIM_TIME_S.set(0.0);
            }
        });
    }
}

/// Installs a sink on the calling thread and switches its bus on.
///
/// Sinks receive records in emission order. The sink is detached (and
/// flushed) when the returned handle drops.
pub fn install(sink: Box<dyn TraceSink>) -> SinkHandle {
    let id = NEXT_HANDLE.replace(NEXT_HANDLE.get() + 1);
    SINKS.with_borrow_mut(|sinks| sinks.push((id, sink)));
    ENABLED.set(true);
    SinkHandle {
        id,
        _this_thread: PhantomData,
    }
}

/// Flushes every sink installed on this thread (e.g. before reading a
/// trace file that is still being written).
pub fn flush() {
    SINKS.with_borrow_mut(|sinks| {
        for (_, sink) in sinks.iter_mut() {
            sink.flush();
        }
    });
}

/// Emits `PhaseStart` on construction and `PhaseEnd` on drop.
///
/// ```
/// # use helios_obs::PhaseGuard;
/// {
///     let _phase = PhaseGuard::new(3, "train");
///     // ... run the phase ...
/// } // PhaseEnd emitted here
/// ```
pub struct PhaseGuard {
    cycle: u64,
    phase: &'static str,
}

impl PhaseGuard {
    /// Opens a phase span for `cycle`.
    pub fn new(cycle: u64, phase: &'static str) -> Self {
        emit(|| TraceEvent::PhaseStart {
            cycle,
            phase: phase.to_string(),
        });
        PhaseGuard { cycle, phase }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let (cycle, phase) = (self.cycle, self.phase);
        emit(|| TraceEvent::PhaseEnd {
            cycle,
            phase: phase.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingBufferSink;

    #[test]
    fn disabled_bus_skips_payload_construction() {
        let mut built = false;
        emit(|| {
            built = true;
            TraceEvent::Timeout { device: 0 }
        });
        assert!(!built, "closure must not run with no sink installed");
        assert!(!enabled());
    }

    #[test]
    fn install_emit_detach_round_trip() {
        let ring = RingBufferSink::with_capacity(16);
        let handle = install(Box::new(ring.clone()));
        assert!(enabled());

        set_sim_time(SimTime::from_secs(2.5));
        emit(|| TraceEvent::RoundStart {
            cycle: 1,
            population: 4,
        });
        emit(|| TraceEvent::Timeout { device: 7 });

        let records = ring.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].t, 2.5);
        assert_eq!(
            records[0].event,
            TraceEvent::RoundStart {
                cycle: 1,
                population: 4
            }
        );
        assert_eq!(records[1].event, TraceEvent::Timeout { device: 7 });

        drop(handle);
        assert!(!enabled());
        emit(|| TraceEvent::RoundStart {
            cycle: 2,
            population: 4,
        });
        assert_eq!(ring.records().len(), 2, "detached sink stays quiet");
        assert_eq!(sim_time_s(), 0.0, "time resets when the bus empties");
    }

    #[test]
    fn unwinding_run_leaves_the_bus_off() {
        let sink = RingBufferSink::with_capacity(4);
        let unwound = std::panic::catch_unwind(move || {
            let _handle = install(Box::new(sink));
            set_sim_time(SimTime::from_secs(3.0));
            panic!("run failed");
        });
        assert!(unwound.is_err());
        assert!(!enabled(), "the handle detached while unwinding");
        assert_eq!(sim_time_s(), 0.0);
    }

    #[test]
    fn phase_guard_brackets_its_span() {
        let ring = RingBufferSink::with_capacity(16);
        let handle = install(Box::new(ring.clone()));
        {
            let _phase = PhaseGuard::new(4, "route");
            emit(|| TraceEvent::Timeout { device: 1 });
        }
        drop(handle);
        let kinds: Vec<&str> = ring.records().iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds, ["PhaseStart", "Timeout", "PhaseEnd"]);
    }

    #[test]
    fn multiple_sinks_each_receive_records() {
        let a = RingBufferSink::with_capacity(4);
        let b = RingBufferSink::with_capacity(4);
        let ha = install(Box::new(a.clone()));
        let hb = install(Box::new(b.clone()));
        emit(|| TraceEvent::RoundStart {
            cycle: 9,
            population: 4,
        });
        drop(ha);
        emit(|| TraceEvent::RoundEnd {
            cycle: 9,
            span_s: 1.0,
            train_s: 0.5,
            comm_s: 0.5,
            aggregated: 1,
            missed: 0,
        });
        drop(hb);
        assert_eq!(a.records().len(), 1);
        assert_eq!(b.records().len(), 2, "surviving sink keeps recording");
    }
}
