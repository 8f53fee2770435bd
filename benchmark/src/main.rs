//! The repository benchmark: four federated-learning workloads, host
//! seconds end to end, and a per-layer ledger taken from outside the
//! library through its public functions. `benchmark/README.md` says what
//! every metric means and how to run and compare.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one role (the driver contract)
//! benchmark [--workload NAME] [--seed N] [--quick] [--out FILE] every role, each in a child
//! benchmark --compare A.json B.json
//! ```

mod alloc;
mod children;
mod compare;
mod host;
mod ledger;
mod metrics;
mod outcome;
mod probes;
mod report;
mod stats;
mod timed;
mod traced_driver;
mod workloads;

use report::{lookup, Role, RoleReport, DETAIL_PREFIX};
use serde::value::{find, Value};
use std::process::ExitCode;
use std::time::Duration;
use workloads::{BoxResult, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const DEFAULT_SEED: u64 = 42;

/// Measuring window of the timed role when `--seconds` is not given; the
/// value `BENCHMARK.json` records as `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;

/// Where `--compare` reads the per-metric bounds, relative to the
/// repository root the benchmark is run from.
const BOUNDS_FILE: &str = "BENCHMARK.json";

/// How long one (workload, role) child may take before the parent kills
/// it and counts a failed operation.
const ROLE_CHILD_TIMEOUT: Duration = Duration::from_secs(170);

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<u8>,
    quick: bool,
    out: Option<String>,
    role: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> BoxResult<Args> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = Some(value()?.parse()?),
            "--seconds" => args.seconds = Some(value()?.parse()?),
            "--trace" => args.trace = Some(value()?.parse()?),
            "--out" => args.out = Some(value()?),
            "--role" => args.role = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    if matches!(args.seconds, Some(s) if !(s.is_finite() && s >= 0.0)) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn workload(name: &str, quick: bool) -> BoxResult<Workload> {
    workloads::find(name, quick)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {:?}", workloads::names()).into())
}

fn print_methodology(seed: u64, quick: bool) -> Value {
    let pairs = host::methodology(seed, quick);
    println!("methodology:");
    for (k, v) in &pairs {
        let shown = match v {
            Value::Str(s) => s.clone(),
            other => serde_json::to_string(other).unwrap_or_default(),
        };
        println!("  {k:<20} {shown}");
    }
    Value::Map(pairs)
}

/// A result file: the methodology block and one block per workload.
fn write_out(path: &str, methodology: Value, blocks: Vec<(String, Value)>) -> BoxResult<()> {
    let file = Value::Map(vec![
        ("methodology".into(), methodology),
        ("workloads".into(), Value::Map(blocks)),
    ]);
    std::fs::write(path, serde_json::to_string_pretty(&file)? + "\n")?;
    Ok(())
}

/// 0 when every check passed and no operation failed, 1 otherwise.
fn exit_code(passed: bool) -> ExitCode {
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One role of one workload in this process: the driver contract.
fn run_role(args: &Args, name: &str, trace: u8) -> BoxResult<ExitCode> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let w = workload(name, args.quick)?;
    let methodology = print_methodology(seed, args.quick);
    let report: RoleReport = match trace {
        0 => {
            // A quick run is one repetition, whatever the window.
            let window = if args.quick { 0.0 } else { DEFAULT_SECONDS };
            let seconds = args.seconds.unwrap_or(window);
            timed::run(&w, seed, seconds, args.quick, || {
                timed::rss_child(&w, seed, args.quick)
            })
        }
        1 => ledger::run(&w, seed, args.quick),
        other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
    };
    if let Some(path) = &args.out {
        write_out(
            path,
            methodology,
            vec![(w.name.into(), report.detail_value())],
        )?;
    }
    report.emit();
    Ok(exit_code(report.tally.correct()))
}

/// The fields of the detail object a role child printed.
type Detail = Vec<(String, Value)>;

/// The detail object a role child printed, if it got that far.
fn child_detail(stdout: &str) -> Option<Detail> {
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))?;
    match serde_json::from_str::<Value>(line).ok()? {
        Value::Map(m) => Some(m),
        _ => None,
    }
}

/// One workload's block of the result file, with the totals the parent
/// sums over workloads.
struct Merged {
    block: Value,
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// Merges the timed and ledger details of one workload into its block of
/// the result file. A role whose child died contributes one failed
/// operation and nothing else.
fn merge_roles(name: &str, roles: Vec<(Role, Option<Detail>)>) -> Merged {
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut failures = Vec::new();
    let mut sims: Vec<Value> = Vec::new();
    let mut sections: Vec<(String, Value)> = Vec::new();
    for (role, detail) in roles {
        let Some(d) = detail else {
            attempted += 1;
            failed += 1;
            correct = false;
            let role = role.name();
            failures.push(Value::Str(format!(
                "{name} {role}: the child produced no report"
            )));
            continue;
        };
        let count = |k: &str| match find(&d, k) {
            Some(Value::UInt(n)) => *n,
            _ => 0,
        };
        attempted += count("ops_attempted");
        failed += count("ops_failed");
        correct &= find(&d, "correct") == Some(&Value::Bool(true));
        if let Some(Value::Seq(f)) = find(&d, "failures") {
            failures.extend(f.iter().cloned());
        }
        if let Some(sim @ Value::Map(_)) = find(&d, "sim") {
            sims.push(sim.clone());
        }
        for key in [role.section(), "spans"] {
            if let Some(v) = find(&d, key) {
                sections.push((key.into(), v.clone()));
            }
        }
    }
    // The timed role ran at T threads and the ledger at one, in different
    // processes: their simulated outcomes must still be the same.
    let digest = |sim| lookup(sim, &["outcome_digest"]);
    if sims.windows(2).any(|p| digest(&p[0]) != digest(&p[1])) {
        correct = false;
        failed = (failed + 1).min(attempted);
        failures.push(Value::Str(format!(
            "{name}: the roles disagree on the outcome digest"
        )));
    }
    let mut block = vec![
        ("correct".into(), Value::Bool(correct)),
        ("ops_attempted".into(), Value::UInt(attempted)),
        ("ops_failed".into(), Value::UInt(failed)),
        ("failures".into(), Value::Seq(failures)),
        ("sim".into(), sims.pop().unwrap_or(Value::Null)),
    ];
    block.extend(sections);
    Merged {
        block: Value::Map(block),
        attempted,
        failed,
        correct,
    }
}

/// Every requested workload, both roles, each role in its own child
/// process. Children inherit stdout for nothing: the parent replays their
/// reports, so a dead child cannot garble the output.
fn run_all(args: &Args) -> BoxResult<ExitCode> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![workload(name, args.quick)?.name],
        None => workloads::names().to_vec(),
    };
    let methodology = print_methodology(seed, args.quick);
    let mut blocks = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    for name in names {
        let mut roles = Vec::new();
        for role in [Role::Timed, Role::Ledger] {
            let flags = ["--workload", name, "--trace", role.trace_flag(), "--seed"];
            let mut child_args: Vec<String> = flags
                .iter()
                .map(|s| s.to_string())
                .chain([seed.to_string()])
                .collect();
            if let Some(s) = args.seconds {
                child_args.extend(["--seconds".to_string(), s.to_string()]);
            }
            if args.quick {
                child_args.push("--quick".into());
            }
            let detail = match children::run_self(&child_args, ROLE_CHILD_TIMEOUT) {
                Ok((stdout, _)) => {
                    // Replay the child's report, minus its methodology
                    // block and its two machine-readable lines.
                    let report = stdout.lines().skip_while(|l| !l.starts_with("== "));
                    for line in report.take_while(|l| !l.starts_with(DETAIL_PREFIX)) {
                        println!("{line}");
                    }
                    child_detail(&stdout)
                }
                Err(e) => {
                    eprintln!("FAILED {name} {}: {e}", role.name());
                    None
                }
            };
            roles.push((role, detail));
        }
        let merged = merge_roles(name, roles);
        attempted += merged.attempted;
        failed += merged.failed;
        correct &= merged.correct;
        blocks.push((name.to_string(), merged.block));
    }

    // Flop savings must at least show up as simulated seconds.
    let sim_time = |name: &str| match lookup(find(&blocks, name)?, &["sim", "total_time_s"])? {
        Value::Float(t) => Some(*t),
        _ => None,
    };
    if let (Some(helios), Some(sync)) = (sim_time("alexnet_helios"), sim_time("alexnet_sync")) {
        let ok = helios < sync;
        println!(
            "check: alexnet_helios simulated {helios:.1} s < alexnet_sync simulated {sync:.1} s: {}",
            if ok { "ok" } else { "FAILED" }
        );
        if !ok {
            failed += 1;
            correct = false;
        }
    }
    if let Some(path) = &args.out {
        write_out(path, methodology, blocks)?;
    }
    let summary = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
    ]);
    println!("{}", serde_json::to_string(&summary)?);
    Ok(exit_code(correct))
}

fn real_main() -> BoxResult<ExitCode> {
    let args = parse_args()?;
    if let Some((a, b)) = &args.compare {
        return Ok(exit_code(compare::run(a, b, BOUNDS_FILE)?));
    }
    if let Some(role) = &args.role {
        let name = args.workload.as_deref().ok_or("--role needs --workload")?;
        return match role.as_str() {
            "rss" => {
                let w = workload(name, args.quick)?;
                timed::rss_role(&w, args.seed.unwrap_or(DEFAULT_SEED))?;
                Ok(ExitCode::SUCCESS)
            }
            other => Err(format!("unknown role {other:?}").into()),
        };
    }
    match (&args.workload, args.trace) {
        (Some(name), Some(trace)) => run_role(&args, name, trace),
        (None, Some(_)) => Err("--trace needs --workload".into()),
        (_, None) => run_all(&args),
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Outcome;
    use crate::traced_driver::run_traced;
    use crate::workloads::{with_policy, StrategyKind};
    use helios_fl::Strategy;
    use std::sync::{Mutex, PoisonError};

    /// The kernel flop counters, the trace bus and the allocation counters
    /// are process-wide, and the ledger checks exact values of the first
    /// two, so tests that run workloads take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn quick(name: &str) -> Workload {
        workloads::find(name, true).expect("a declared workload")
    }

    /// The traced driver must walk exactly what `RoundDriver::run` walks:
    /// both policies, on an eager and on a lazy (sampled, lossy) fleet.
    #[test]
    fn traced_driver_reproduces_strategy_run() {
        let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let lazy_sync = Workload {
            strategy: StrategyKind::Sync,
            ..quick("fleet_lossy")
        };
        let cases = [
            quick("alexnet_sync"),
            quick("alexnet_helios"),
            lazy_sync,
            quick("fleet_lossy"),
            quick("fleet_topk"),
        ];
        for w in cases {
            let mut env = w.build_env(7, 1).expect("env");
            let production =
                with_policy!(w.strategy, |p| p.run(&mut env, w.cycles)).expect("production run");
            let mut env = w.build_env(7, 1).expect("env");
            let traced = with_policy!(w.strategy, |p| run_traced(&mut p, &mut env, w.cycles))
                .expect("traced run");
            assert_eq!(traced.metrics, production, "{} {:?}", w.name, w.strategy);
            assert_eq!(
                Outcome::of(&traced.metrics).digest,
                Outcome::of(&production).digest
            );
            assert_eq!(traced.spans[0].name, "run");
            assert!(traced.phase_self_s("train") > 0.0);
            assert!(!traced.captured.updates.is_empty());
        }
    }

    fn contract_names(report: &RoleReport) -> Vec<String> {
        let Value::Map(contract) = report.contract_value() else {
            panic!("the contract value is not an object")
        };
        let keys: Vec<&str> = contract.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        match find(&contract, "metrics") {
            Some(Value::Map(m)) => m.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("metrics: {other:?}"),
        }
    }

    fn declared_names(defs: &[metrics::MetricDef]) -> Vec<String> {
        defs.iter().map(|d| d.name.to_string()).collect()
    }

    /// Every workload's ledger reports every per-layer name (a value or
    /// `n/a`), passes its own checks, and fails no operation.
    #[test]
    fn quick_ledger_reports_every_declared_name_on_every_workload() {
        let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        for name in workloads::names() {
            let report = ledger::run(&quick(name), 42, true);
            assert!(
                report.tally.correct(),
                "{name}: {:?}",
                report.tally.failures
            );
            assert_eq!(report.tally.failed, 0);
            assert_eq!(
                contract_names(&report),
                declared_names(metrics::PER_LAYER),
                "{name}"
            );
            assert!(report.spans.is_some());
        }
    }

    #[test]
    fn quick_timed_role_reports_the_end_to_end_names() {
        let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let w = quick("fleet_topk");
        let digest = {
            let (_, _, m) = timed::one_rep(&w, 42, 1).expect("reference run");
            Outcome::of(&m).digest_hex()
        };
        let report = timed::run(&w, 42, 0.0, true, || {
            Ok(timed::RssSample {
                peak_rss_mb: 12.5,
                digest: digest.clone(),
            })
        });
        assert!(report.tally.correct(), "{:?}", report.tally.failures);
        assert_eq!(contract_names(&report), declared_names(metrics::END_TO_END));
        assert_eq!(report.metrics.get("run_wall_s").map(|s| s.n), Some(1));
        // A child whose outcome differs is a failed check, not a crash.
        let report = timed::run(&w, 42, 0.0, true, || {
            Ok(timed::RssSample {
                peak_rss_mb: 12.5,
                digest: "0".repeat(16),
            })
        });
        assert!(!report.tally.correct());
        // A child that died is one failed operation; the rest is reported.
        let report = timed::run(&w, 42, 0.0, true, || Err("killed".into()));
        assert_eq!(report.tally.failed, 1);
        assert!(report.metrics.get("run_wall_s").is_some());
    }

    #[test]
    fn merged_block_counts_a_dead_child_as_a_failed_operation() {
        let alive = vec![
            ("correct".to_string(), Value::Bool(true)),
            ("ops_attempted".to_string(), Value::UInt(7)),
            ("ops_failed".to_string(), Value::UInt(0)),
            ("end_to_end".to_string(), Value::Map(vec![])),
        ];
        let merged = merge_roles("w", vec![(Role::Timed, Some(alive)), (Role::Ledger, None)]);
        assert_eq!(
            (merged.attempted, merged.failed, merged.correct),
            (8, 1, false)
        );
        let Value::Map(block) = merged.block else {
            panic!("block is not an object")
        };
        assert_eq!(find(&block, "ops_attempted"), Some(&Value::UInt(8)));
        assert!(find(&block, "end_to_end").is_some());
    }
}
