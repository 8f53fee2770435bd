//! One-shot reproduction runner: executes every table/figure binary's
//! logic in sequence (Table I, Figs 1, 2, 5, 6, 7) at reduced cycle
//! counts suitable for a smoke pass.
//!
//! For the full-length runs behind `EXPERIMENTS.md`, invoke the
//! individual binaries (`table1`, `fig1`, `fig2`, `fig5`, `fig6`,
//! `fig7`, `ablation_ps`).
//!
//! Usage: `repro [cycles]` (default 12).

use helios_bench::{
    format_summary, run_strategies, ExperimentSpec, Workload, ABLATION_STRATEGIES, PAPER_STRATEGIES,
};
use std::process::Command;

fn run_binary(name: &str) {
    println!("━━━ {name} ━━━");
    // The sibling binaries live next to this one.
    let me = std::env::current_exe().expect("own path");
    let bin = me.with_file_name(name);
    match Command::new(&bin).status() {
        Ok(s) if s.success() => {}
        Ok(s) => eprintln!("{name} exited with {s}"),
        Err(e) => eprintln!("could not launch {name} ({e}); run `cargo build --release` first"),
    }
    println!();
}

fn main() {
    let cycles: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);

    run_binary("table1");
    run_binary("fig1");

    println!("━━━ fig5 (smoke, {cycles} cycles, MNIST-like) ━━━");
    for devices in [4usize, 6] {
        let spec = ExperimentSpec::paper_fleet(Workload::LenetMnist, devices, false, 42);
        let metrics = run_strategies(&spec, PAPER_STRATEGIES, cycles);
        println!("{devices} devices:");
        println!("{}", format_summary(&metrics, 0.6));
    }

    println!("━━━ fig7 (smoke, {cycles} cycles, Non-IID MNIST-like) ━━━");
    let spec = ExperimentSpec::paper_fleet(Workload::LenetMnist, 4, true, 42);
    let metrics = run_strategies(&spec, PAPER_STRATEGIES, cycles);
    println!("{}", format_summary(&metrics, 0.5));

    println!("━━━ fig6 (smoke, {cycles} cycles) ━━━");
    let spec = ExperimentSpec::paper_fleet(Workload::AlexnetCifar10, 4, true, 42);
    let metrics = run_strategies(&spec, ABLATION_STRATEGIES, cycles);
    println!("{}", format_summary(&metrics, 0.5));

    println!("smoke reproduction complete; see EXPERIMENTS.md for full runs.");
}
