//! Summarizes a JSONL trace produced by the `helios-obs` bus.
//!
//! ```text
//! trace_report <trace.jsonl>             # human-readable report
//! trace_report --validate <trace.jsonl>  # schema + invariant check
//! ```
//!
//! The report shows a per-device timeline table (train time, transfer
//! outcomes, faults), fault/retry totals, and an ASCII Gantt of the
//! driver phases. `--validate` exits non-zero unless the trace parses
//! and [`helios_obs::report::validate`] accepts it.

use std::process::ExitCode;

use helios_obs::parse_jsonl;
use helios_obs::report::{summarize, validate, Summary};

fn print_report(summary: &Summary) {
    println!(
        "rounds: {}   simulated span: {:.3}s",
        summary.rounds, summary.span_s
    );
    if let Some((cycle, loss, acc)) = summary.last_eval {
        println!("final eval (cycle {cycle}): loss {loss:.4}  accuracy {acc:.4}");
    }

    println!();
    println!(
        "{:>6} {:>4} {:>6} {:>9} {:>5} {:>9} {:>5} {:>7} {:>5} {:>5} {:>4} {:>5} {:>6}",
        "device",
        "sel",
        "train",
        "train_s",
        "deliv",
        "bytes",
        "drop",
        "corrupt",
        "retry",
        "tmout",
        "fail",
        "masks",
        "missed"
    );
    for (id, d) in &summary.devices {
        println!(
            "{:>6} {:>4} {:>6} {:>9.3} {:>5} {:>9} {:>5} {:>7} {:>5} {:>5} {:>4} {:>5} {:>6}",
            id,
            d.selected,
            d.train_cycles,
            d.train_s,
            d.delivered,
            d.bytes,
            d.drops,
            d.corrupt,
            d.retries,
            d.timeouts,
            d.failed,
            d.masks,
            d.skips_missed
        );
    }

    let totals = summary
        .devices
        .values()
        .fold((0u64, 0u64, 0u64, 0u64), |acc, d| {
            (
                acc.0 + d.drops + d.corrupt,
                acc.1 + d.retries,
                acc.2 + d.timeouts,
                acc.3 + d.failed,
            )
        });
    println!();
    println!(
        "faults: {} dropped/corrupted   retries: {}   timeouts: {}   failed sends: {}",
        totals.0, totals.1, totals.2, totals.3
    );

    if !summary.scenario.is_empty() {
        let parts: Vec<String> = summary
            .scenario
            .iter()
            .map(|(k, n)| format!("{k}: {n}"))
            .collect();
        println!(
            "scenario events: {}   ({})",
            summary.scenario.values().sum::<u64>(),
            parts.join(", ")
        );
    }

    // ASCII Gantt of the driver phases, scaled to the trace's span.
    if summary.phases.is_empty() {
        return;
    }
    let t0 = summary
        .phases
        .iter()
        .map(|(_, s, _)| *s)
        .fold(f64::INFINITY, f64::min);
    let t1 = summary
        .phases
        .iter()
        .map(|(_, _, e)| *e)
        .fold(f64::NEG_INFINITY, f64::max);
    let width = 60.0;
    let scale = if t1 > t0 { width / (t1 - t0) } else { 0.0 };
    println!();
    println!("phase gantt ({t0:.3}s .. {t1:.3}s):");
    for (phase, start, end) in &summary.phases {
        let lead = (((start - t0) * scale).round() as usize).min(width as usize);
        let len = ((((end - start) * scale).round() as usize).max(1))
            .min(width as usize - lead.min(width as usize - 1));
        println!(
            "{:>10} |{}{}| {:.3}s",
            phase,
            " ".repeat(lead),
            "#".repeat(len),
            end - start
        );
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (do_validate, path) = match args.as_slice() {
        [flag, path] if flag == "--validate" => (true, path.clone()),
        [path, flag] if flag == "--validate" => (true, path.clone()),
        [path] => (false, path.clone()),
        _ => {
            return Err("usage: trace_report [--validate] <trace.jsonl>".to_string());
        }
    };

    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let records = parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;

    if do_validate {
        validate(&records).map_err(|e| format!("{path}: INVALID: {e}"))?;
        println!("{path}: OK ({} records, schema + monotone sim-time + phase nesting + terminal outcomes + frame modes + scenario kinds)", records.len());
        return Ok(());
    }

    print_report(&summarize(&records));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace_report: {e}");
            ExitCode::FAILURE
        }
    }
}
