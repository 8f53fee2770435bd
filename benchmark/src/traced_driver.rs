//! The traced run: `RoundDriver::run`'s documented phase sequence walked
//! from outside, through public calls only, with a span around each
//! phase.
//!
//! The library is not instrumented by this benchmark; the spans live
//! here. The walk must stay equal to `RoundDriver::run` — the ledger
//! checks the traced outcome against the production outcome on every
//! run, and the unit tests hold it for both policies on both fleet kinds.

use crate::alloc::{self, AllocCounts};
use crate::host;
use helios_device::SimTime;
use helios_fl::{
    cycle_comm_bytes_with, FlEnv, LocalUpdate, PhaseBreakdown, RoundPolicy, RoundRecord, RunMetrics,
};
use serde::value::Value;
use std::time::Instant;

/// Updates kept from the last cycle as probe inputs.
pub const CAPTURED_UPDATES: usize = 64;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub cycle: Option<usize>,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
    /// Allocation calls and bytes between start and end (zero unless the
    /// counting allocator is armed).
    pub alloc: AllocCounts,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Spans kept in memory for the whole run; nothing is written while the
/// run is timed.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, AllocCounts)>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str, cycle: Option<usize>) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            cycle,
            parent: self.open.last().map(|&(p, _)| p),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: 0.0,
            alloc: AllocCounts::default(),
        });
        self.open.push((id, alloc::counts()));
    }

    fn exit(&mut self) {
        let end_s = self.origin.elapsed().as_secs_f64();
        let (id, before) = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_s = end_s;
        self.spans[id].alloc = alloc::counts().since(&before);
    }

    fn span<T>(&mut self, name: &'static str, cycle: usize, f: impl FnOnce() -> T) -> T {
        self.enter(name, Some(cycle));
        let out = f();
        self.exit();
        out
    }
}

/// Probe inputs taken from the traced run's last cycle: real updates as
/// training produced them, the global they were trained from, and their
/// simulated compute spans.
#[derive(Debug, Clone, Default)]
pub struct Captured {
    pub base: Vec<f32>,
    pub updates: Vec<LocalUpdate>,
    pub compute_times: Vec<SimTime>,
}

pub struct Traced {
    pub metrics: RunMetrics,
    pub spans: Vec<Span>,
    pub captured: Captured,
    /// Highest `VmRSS` read right after a train phase / a route phase.
    pub rss_after_train_mb: f64,
    pub rss_after_route_mb: f64,
}

impl Traced {
    /// Wall seconds of the whole traced run (the root span).
    pub fn wall_s(&self) -> f64 {
        self.spans[0].duration_s()
    }

    /// Each span's duration minus the part its children cover.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration_s();
            }
        }
        own
    }

    /// Summed self time of every span called `name`.
    pub fn phase_self_s(&self, name: &str) -> f64 {
        let own = self.self_times();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Summed allocation counts of every span called `name`.
    pub fn phase_alloc(&self, name: &str) -> AllocCounts {
        let mut total = AllocCounts::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            total.calls += s.alloc.calls;
            total.bytes += s.alloc.bytes;
        }
        total
    }

    pub fn spans_value(&self) -> Value {
        Value::Seq(
            self.spans
                .iter()
                .map(|s| {
                    Value::Map(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        (
                            "cycle".into(),
                            s.cycle.map_or(Value::Null, |c| Value::UInt(c as u64)),
                        ),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        ("start_s".into(), Value::Float(s.start_s)),
                        ("end_s".into(), Value::Float(s.end_s)),
                        ("alloc_calls".into(), Value::UInt(s.alloc.calls)),
                        ("alloc_bytes".into(), Value::UInt(s.alloc.bytes)),
                    ])
                })
                .collect(),
        )
    }
}

/// Drives `policy` through `cycles` cycles exactly as
/// `RoundDriver::run` does, recording a span per phase.
///
/// # Errors
///
/// Propagates the first policy or environment error.
pub fn run_traced<P: RoundPolicy>(
    policy: &mut P,
    env: &mut FlEnv,
    cycles: usize,
) -> helios_fl::Result<Traced> {
    let mut tr = Tracer::new();
    let mut metrics = RunMetrics::new(RoundPolicy::name(policy));
    let mut captured = Captured::default();
    let (mut rss_train, mut rss_route) = (0.0f64, 0.0f64);

    tr.enter("run", None);
    tr.enter("begin_run", None);
    policy.begin_run(env)?;
    tr.exit();

    for cycle in 0..cycles {
        tr.enter("cycle", Some(cycle));
        env.scenario_begin_cycle(cycle)?;
        let participants = tr.span("select", cycle, || policy.select(env, cycle))?;
        env.scenario_prepare_cohort(cycle, &participants)?;
        tr.span("broadcast", cycle, || {
            policy.broadcast(env, cycle, &participants)
        })?;

        let compute_times =
            tr.span("configure", cycle, || -> helios_fl::Result<Vec<SimTime>> {
                for &i in &participants {
                    policy.configure_client(env, cycle, i)?;
                }
                participants
                    .iter()
                    .map(|&i| Ok(env.client(i)?.cycle_time()))
                    .collect()
            })?;
        let max_compute = compute_times
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max);

        let kernels_before = helios_tensor::kernel_counters();
        let updates = tr.span("train", cycle, || env.train_selected(&participants))?;
        let train_flops = helios_tensor::kernel_counters()
            .since(&kernels_before)
            .flops;
        rss_train = rss_train.max(host::rss_mb().unwrap_or(0.0));

        let comm_bytes = cycle_comm_bytes_with(&updates, &env.config().net.compression);
        let net_before = env.transport().map(|t| *t.stats());
        if cycle + 1 == cycles {
            // Probe inputs; the copy sits in its own span so the phase
            // rows stay clean (it lands in `fl.unattributed_s`).
            tr.span("capture", cycle, || {
                let keep = updates.len().min(CAPTURED_UPDATES);
                captured = Captured {
                    base: env.global().to_vec(),
                    updates: updates[..keep].to_vec(),
                    compute_times: compute_times[..keep].to_vec(),
                };
            });
        }
        let routed = tr.span("route", cycle, || {
            env.route_updates(cycle, updates, &compute_times)
        })?;
        rss_route = rss_route.max(host::rss_mb().unwrap_or(0.0));
        let wire = match (env.transport(), net_before) {
            (Some(t), Some(before)) => t.stats().since(&before),
            _ => Default::default(),
        };

        tr.span("aggregate", cycle, || policy.aggregate(env, cycle, &routed))?;

        let span = policy.cycle_span(env, cycle, &routed)?;
        env.advance_clock(span);
        tr.span("post_cycle", cycle, || policy.post_cycle(env, cycle))?;

        let kernels_before = helios_tensor::kernel_counters();
        let (test_loss, test_accuracy) = tr.span("evaluate", cycle, || env.evaluate_global())?;
        let eval_flops = helios_tensor::kernel_counters()
            .since(&kernels_before)
            .flops;

        let span_s = span.as_secs_f64();
        let sim_train_s = span_s.min(max_compute.as_secs_f64());
        metrics.push(RoundRecord {
            cycle,
            sim_time: env.clock().now(),
            test_accuracy,
            test_loss,
            participants: routed.updates.len(),
            comm_bytes,
            phases: PhaseBreakdown {
                train_s: sim_train_s,
                comm_s: (span_s - sim_train_s).max(0.0),
                wire_bytes: wire.bytes_on_wire,
                retries: wire.retries,
                missed: routed.missed.len(),
                aggregated_updates: routed.updates.len(),
                train_flops,
                eval_flops,
            },
        });
        drop(routed);
        tr.exit();
    }
    tr.exit();

    Ok(Traced {
        metrics,
        spans: tr.spans,
        captured,
        rss_after_train_mb: rss_train,
        rss_after_route_mb: rss_route,
    })
}
