//! **Fig 7** — Helios evaluation with Non-IID data.
//!
//! The Fig 5 comparison repeated under the label-shard Non-IID split of
//! Zhao et al. (each client holds ~2 classes), with 4 and 6 devices.
//! Paper shape: Non-IID degrades every method, but Helios keeps the best
//! accuracy/speed trade-off among the straggler-tolerant methods, and
//! asynchronous methods suffer most (stale updates from unique-class
//! stragglers).
//!
//! Usage: `fig7 [mnist|cifar10|cifar100] [cycles]` — defaults to the
//! LeNet/MNIST-like workload the figure leads with.

use helios_bench::{
    format_curves, format_summary, results_dir, run_strategies, write_csvs, ExperimentSpec,
    Workload, PAPER_STRATEGIES,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workload = args
        .get(1)
        .map(|s| {
            Workload::parse(s).unwrap_or_else(|| {
                eprintln!("unknown workload {s}; use mnist|cifar10|cifar100");
                std::process::exit(2);
            })
        })
        .unwrap_or(Workload::LenetMnist);
    let cycles = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| workload.default_cycles() + 10);

    for devices in [4usize, 6] {
        let spec = ExperimentSpec::paper_fleet(workload, devices, true, 42);
        println!(
            "=== Fig 7: Non-IID · {} · {} devices ({} stragglers) · {} cycles ===",
            workload.label(),
            devices,
            spec.stragglers,
            cycles
        );
        let metrics = run_strategies(&spec, PAPER_STRATEGIES, cycles);
        println!("{}", format_curves(&metrics, (cycles / 10).max(1)));
        println!("{}", format_summary(&metrics, 0.5));
        write_csvs(
            &results_dir().join("fig7"),
            &format!("fig7_{}_{}dev", workload.label().replace('/', "_"), devices),
            &metrics,
        )
        .expect("results directory is writable");
    }
}
