//! The ledger role (`--trace 1`): where one workload's host time, memory
//! and allocations go, layer by layer, at one thread.
//!
//! Order matters. The traced run goes first, in a clean process, so its
//! `VmRSS` readings mean something; then the untraced production runs it
//! is compared against; then the probes, which replay single layers on
//! inputs the traced run captured. The traced run's rows are one sample
//! each (`n = 1` in the report) — they say where time goes, not whether a
//! change is a gain; the timed role answers that.

use crate::alloc;
use crate::host;
use crate::metrics::{Metrics, PER_LAYER, PHASES};
use crate::outcome::{check_run, Outcome, Tally};
use crate::probes::{self, ProbeInputs};
use crate::report::{Role, RoleReport};
use crate::stats::{summarize, Summary};
use crate::timed::one_rep;
use crate::traced_driver::{run_traced, Traced};
use crate::workloads::{with_policy, BenchPolicy, BoxResult, Fleet, StrategyKind, Workload};
use helios_fl::{ParallelismConfig, RunMetrics};

/// Untraced production runs per thread width. Three, so that
/// `fl.t1_wall_s` and `fl.thread_scaling` are medians: a single pair read
/// anywhere from 0.8 to 1.4 on the fleet workloads on the seed host.
fn production_reps(quick: bool) -> usize {
    if quick {
        1
    } else {
        3
    }
}

/// The traced run plus what only the policy and the environment know
/// once it is over.
struct TracedRun {
    traced: Traced,
    soft_training: Option<(usize, f64)>,
    materialized_clients: usize,
}

fn traced_run(w: &Workload, seed: u64) -> BoxResult<TracedRun> {
    let mut env = w.build_env(seed, 1)?;
    with_policy!(w.strategy, |policy| {
        let traced = {
            let _counting = alloc::arm();
            run_traced(&mut policy, &mut env, w.cycles)?
        };
        Ok(TracedRun {
            traced,
            soft_training: policy.soft_training(),
            materialized_clients: env.materialized_clients(),
        })
    })
}

/// What `SyncFedAvg` would bill the same eager fleet: every cycle waits
/// for the slowest full-model device.
fn sync_sim_time_s(w: &Workload, seed: u64) -> BoxResult<f64> {
    let env = w.build_env(seed, 1)?;
    let slowest = env
        .clients()
        .map(|c| c.cycle_time().as_secs_f64())
        .fold(0.0, f64::max);
    Ok(slowest * w.cycles as f64)
}

fn phase_rows(t: &Traced, m: &mut Metrics) -> f64 {
    let wall = t.wall_s();
    let mut accounted = 0.0;
    for phase in PHASES {
        let s = t.phase_self_s(phase);
        accounted += s;
        m.single(&format!("fl.{phase}_s"), s);
    }
    m.single("fl.unattributed_s", wall - accounted);
    m.single("trace.accounted_share", accounted / wall);
    accounted / wall
}

/// The untraced production runs, one thread and `T` threads alternating
/// so that drift on the host hits both alike: `fl.t1_wall_s`,
/// `fl.thread_scaling`, and the outcome every other run is held to.
fn production_runs(
    w: &Workload,
    seed: u64,
    quick: bool,
    tally: &mut Tally,
    m: &mut Metrics,
) -> (Option<RunMetrics>, Summary) {
    let threads = host::timed_threads();
    let (mut t1_walls, mut tn_walls) = (Vec::new(), Vec::new());
    let mut production: Option<RunMetrics> = None;
    let widths: &[usize] = if threads > 1 { &[1, threads] } else { &[1] };
    for rep in 0..production_reps(quick) {
        for &width in widths {
            let what = format!("{} {width}-thread run {rep}", w.name);
            let Some((_, wall, metrics)) = tally.op(&what, one_rep(w, seed, width)) else {
                continue;
            };
            if width == 1 {
                t1_walls.push(wall);
            } else {
                tn_walls.push(wall);
            }
            match &production {
                None => {
                    check_run(tally, w, &metrics, quick);
                    production = Some(metrics);
                }
                Some(first) => {
                    tally.check(&format!("{what} equals the first run"), *first == metrics)
                }
            }
        }
    }
    let t1 = summarize(&t1_walls);
    m.set("fl.t1_wall_s", t1);
    if threads == 1 {
        // One core: nothing to scale to.
        m.single("fl.thread_scaling", 1.0);
    } else if t1.n > 0 && !tn_walls.is_empty() {
        let scaling = summarize(&tn_walls).map(|tn| t1.median / tn);
        m.set("fl.thread_scaling", scaling);
    }
    (production, t1)
}

/// Simulated statistics and exact counts of the production outcome.
fn outcome_rows(w: &Workload, seed: u64, outcome: &Outcome, tally: &mut Tally, m: &mut Metrics) {
    m.single("sim.total_time_s", outcome.total_time_s);
    m.single("sim.final_accuracy", outcome.final_accuracy);
    m.single("sim.final_loss", outcome.final_loss);
    m.single("sim.comm_bytes_total", outcome.comm_bytes_total);
    m.single("fl.client_rounds", w.client_rounds() as f64);
    m.single("fl.aggregated_updates", outcome.aggregated as f64);
    let wire = [
        ("net.wire_bytes_total", outcome.wire_bytes_total as f64),
        ("net.retries_total", outcome.retries_total as f64),
        ("net.missed_updates", outcome.missed as f64),
    ];
    for (name, value) in wire {
        if w.net_config().enabled {
            m.single(name, value);
        } else {
            m.na(name);
        }
    }
    if let (StrategyKind::Helios, Fleet::Eager { .. }) = (w.strategy, w.fleet) {
        let label = w.name;
        if let Some(sync_s) = tally.op(&format!("{label} sync span"), sync_sim_time_s(w, seed)) {
            tally.check(
                &format!("{label}: Helios simulated time below SyncFedAvg's"),
                outcome.total_time_s < sync_s,
            );
        }
    }
}

/// What the traced run alone knows: phase shares, resident set at the
/// phase boundaries, soft-training state, allocation counts.
fn traced_rows(w: &Workload, run: &TracedRun, quick: bool, tally: &mut Tally, m: &mut Metrics) {
    let t = &run.traced;
    let accounted = phase_rows(t, m);
    if !quick {
        // A quick run is too short for the share to mean anything.
        tally.check(
            &format!(
                "{}: the phases account for at least 95% of the traced wall",
                w.name
            ),
            accounted >= 0.95,
        );
    }
    m.single("fl.rss_after_train_mb", t.rss_after_train_mb);
    m.single("fl.rss_after_route_mb", t.rss_after_route_mb);
    let updates = &t.captured.updates;
    let held: usize = updates
        .iter()
        .map(|u| 4 * u.params.len() + u.param_mask.as_ref().map_or(0, Vec::len))
        .sum();
    m.single(
        "fl.update_bytes_per_participant",
        held as f64 / updates.len().max(1) as f64,
    );
    m.single("fl.materialized_clients", run.materialized_clients as f64);
    match run.soft_training {
        Some((stragglers, keep)) => {
            m.single("helios.stragglers", stragglers as f64);
            m.single("helios.mean_keep_ratio", keep);
        }
        None => {
            m.na("helios.stragglers");
            m.na("helios.mean_keep_ratio");
        }
    }
    let whole = t.spans[0].alloc;
    let rounds = w.client_rounds() as f64;
    m.single("alloc.calls_per_client_round", whole.calls as f64 / rounds);
    m.single("alloc.bytes_per_client_round", whole.bytes as f64 / rounds);
    for phase in ["select", "train", "route", "aggregate"] {
        let calls = t.phase_alloc(phase).calls;
        m.single(&format!("alloc.calls.{phase}"), calls as f64);
    }
}

pub fn run(w: &Workload, seed: u64, quick: bool) -> RoleReport {
    let _serial = ParallelismConfig::serial().scoped();
    let mut tally = Tally::default();
    let mut m = Metrics::new(PER_LAYER);

    let traced = tally.op(&format!("{} traced run", w.name), traced_run(w, seed));
    let (production, t1) = production_runs(w, seed, quick, &mut tally, &mut m);
    let sim = production.as_ref().map(Outcome::of);
    if let Some(outcome) = &sim {
        outcome_rows(w, seed, outcome, &mut tally, &mut m);
    }

    let mut spans = None;
    if let Some(run) = &traced {
        let t = &run.traced;
        if let Some(production) = &production {
            tally.check(
                &format!(
                    "{}: the traced outcome equals the production outcome",
                    w.name
                ),
                t.metrics == *production,
            );
            m.single("trace.overhead_ratio", t.wall_s() / t1.median);
        }
        traced_rows(w, run, quick, &mut tally, &mut m);
        spans = Some(t.spans_value());
        let inputs = ProbeInputs {
            workload: w,
            seed,
            captured: &t.captured,
        };
        probes::run_all(&inputs, quick, &mut tally, &mut m);
    }

    RoleReport::new(Role::Ledger, w, m, tally, sim, spans)
}
