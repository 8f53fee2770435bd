//! The timed role (`--trace 0`): end-to-end metrics of one workload,
//! measured on the production path with nothing traced and nothing armed.
//!
//! Only `FlEnv::new` / `FlEnv::new_lazy`, `FlConfig`, `Strategy::run` and
//! `RunMetrics` are touched here, so these numbers survive any internal
//! refactor of the library.

use crate::children;
use crate::host;
use crate::metrics::{Metrics, END_TO_END};
use crate::outcome::{check_run, Outcome, Tally};
use crate::report::{Role, RoleReport};
use crate::stats::summarize;
use crate::workloads::{with_policy, BoxResult, Workload};
use helios_fl::{ParallelismConfig, RunMetrics, Strategy};
use serde::value::{find, Value};
use std::time::{Duration, Instant};

/// Untimed repetitions before the first timed one: page faults, the
/// workspace arena and the allocator's free lists settle here.
pub const WARMUP_REPS: usize = 1;

/// Most timed repetitions one invocation makes, whatever `--seconds`.
const MAX_REPS: usize = 200;

/// How long the peak-RSS child may take before it counts as failed.
const RSS_CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Set-up samples one invocation reports the median of. A repetition
/// gives one; the rest are taken after the timed window, building the
/// environment and dropping it.
const SETUP_SAMPLES: usize = 25;

/// Fewest timed repetitions, however short the measuring window.
pub fn min_reps(quick: bool) -> usize {
    if quick {
        1
    } else {
        5
    }
}

/// One repetition: a fresh environment from the seed, then one whole
/// `Strategy::run`. Returns `(setup seconds, run seconds, metrics)`.
pub fn one_rep(w: &Workload, seed: u64, threads: usize) -> BoxResult<(f64, f64, RunMetrics)> {
    let t = Instant::now();
    let mut env = w.build_env(seed, threads)?;
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let metrics = with_policy!(w.strategy, |policy| policy.run(&mut env, w.cycles))?;
    Ok((setup_s, t.elapsed().as_secs_f64(), metrics))
}

/// What the peak-RSS child reports.
pub struct RssSample {
    pub peak_rss_mb: f64,
    pub digest: String,
}

/// The `--role rss` child: one untraced production run at one thread in a
/// process that does nothing else, then `VmHWM`. One thread because the
/// figure repeats exactly there; with two, glibc's per-thread arenas make
/// it jump between runs.
pub fn rss_role(w: &Workload, seed: u64) -> BoxResult<()> {
    let _serial = ParallelismConfig::serial().scoped();
    let (_, _, metrics) = one_rep(w, seed, 1)?;
    let peak = host::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    let line = Value::Map(vec![
        ("peak_rss_mb".into(), Value::Float(peak)),
        (
            "digest".into(),
            Value::Str(Outcome::of(&metrics).digest_hex()),
        ),
    ]);
    println!("{}", serde_json::to_string(&line)?);
    Ok(())
}

/// Runs [`rss_role`] in a child process and parses its last line.
pub fn rss_child(w: &Workload, seed: u64, quick: bool) -> BoxResult<RssSample> {
    let mut args = vec![
        "--role".to_string(),
        "rss".into(),
        "--workload".into(),
        w.name.into(),
        "--seed".into(),
        seed.to_string(),
    ];
    if quick {
        args.push("--quick".into());
    }
    let (stdout, success) = children::run_self(&args, RSS_CHILD_TIMEOUT)?;
    if !success {
        return Err("the rss child exited nonzero".into());
    }
    let last = stdout
        .lines()
        .last()
        .ok_or("the rss child printed nothing")?;
    let Value::Map(fields) = serde_json::from_str::<Value>(last)? else {
        return Err("the rss child's last line is not an object".into());
    };
    match (find(&fields, "peak_rss_mb"), find(&fields, "digest")) {
        (Some(Value::Float(mb)), Some(Value::Str(digest))) => Ok(RssSample {
            peak_rss_mb: *mb,
            digest: digest.clone(),
        }),
        other => Err(format!("unexpected rss child output: {other:?}").into()),
    }
}

/// Measures `w` for about `seconds` seconds of timed repetitions (at
/// least [`min_reps`]) after [`WARMUP_REPS`] untimed ones, then takes the
/// peak resident set from `rss`.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
    rss: impl FnOnce() -> BoxResult<RssSample>,
) -> RoleReport {
    let threads = host::timed_threads();
    let mut tally = Tally::default();
    let mut m = Metrics::new(END_TO_END);
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let mut first: Option<RunMetrics> = None;
    let mut window: Option<Instant> = None;

    for rep in 0..WARMUP_REPS + MAX_REPS {
        let timed = rep >= WARMUP_REPS;
        if timed {
            let started = *window.get_or_insert_with(Instant::now);
            if walls.len() >= min_reps(quick) && started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        let Some((setup_s, wall_s, metrics)) =
            tally.op(&format!("{} rep {rep}", w.name), one_rep(w, seed, threads))
        else {
            break;
        };
        match &first {
            None => {
                check_run(&mut tally, w, &metrics, quick);
                first = Some(metrics);
            }
            Some(reference) => tally.check(
                &format!("{}: rep {rep} equals rep 0", w.name),
                *reference == metrics,
            ),
        }
        if timed {
            setups.push(setup_s);
            walls.push(wall_s);
        }
    }

    if !quick && tally.correct() {
        while setups.len() < SETUP_SAMPLES {
            let t = Instant::now();
            let built = w.build_env(seed, threads);
            let setup_s = t.elapsed().as_secs_f64();
            if tally
                .op(&format!("{} extra set-up", w.name), built)
                .is_none()
            {
                break;
            }
            setups.push(setup_s);
        }
    }

    let sim = first.as_ref().map(Outcome::of);
    let wall = summarize(&walls);
    m.set("setup_s", summarize(&setups));
    m.set("run_wall_s", wall);
    let rounds = w.client_rounds() as f64;
    m.set("client_rounds_per_s", wall.map(|s| rounds / s));

    match tally.op(&format!("{} peak-rss child", w.name), rss()) {
        Some(sample) => {
            m.single("peak_rss_mb", sample.peak_rss_mb);
            tally.check(
                &format!(
                    "{}: the {threads}-thread and 1-thread outcomes are equal",
                    w.name
                ),
                sim.is_some_and(|s| s.digest_hex() == sample.digest),
            );
        }
        // The dead child is already one failed operation.
        None => m.na("peak_rss_mb"),
    }

    RoleReport::new(Role::Timed, w, m, tally, sim, None)
}
