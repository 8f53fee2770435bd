//! **Fig 5** — soft-training effectiveness: the paper's main result.
//!
//! Accuracy vs aggregation cycles for the full cross product of
//! {LeNet+MNIST, AlexNet+CIFAR-10, ResNet-18+CIFAR-100} ×
//! {4 devices / 2 stragglers, 6 devices / 3 stragglers} ×
//! {Syn. FL, Asyn. FL, AFO, Random, Helios}.
//!
//! Shape targets from the paper: Asyn. FL lowest accuracy; Syn. FL
//! slowest in simulated time (straggler-bound cycles); Helios best or
//! near-best accuracy with capable-pace cycles, yielding up to ~2.5×
//! simulated-time speedup to the common accuracy target.
//!
//! Usage: `fig5 [mnist|cifar10|cifar100] [cycles]` — no argument sweeps
//! all three workloads at their default cycle counts.

use helios_bench::{
    format_curves, format_summary, results_dir, run_strategies, write_csvs, ExperimentSpec,
    Workload, PAPER_STRATEGIES,
};

fn target_for(w: Workload) -> f64 {
    match w {
        Workload::LenetMnist => 0.70,
        Workload::AlexnetCifar10 => 0.55,
        Workload::Resnet18Cifar100 => 0.30,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workloads: Vec<Workload> = match args.get(1).map(String::as_str) {
        Some(name) => vec![Workload::parse(name).unwrap_or_else(|| {
            eprintln!("unknown workload {name}; use mnist|cifar10|cifar100");
            std::process::exit(2);
        })],
        None => Workload::ALL.to_vec(),
    };
    let cycles_override: Option<usize> = args.get(2).and_then(|s| s.parse().ok());

    for workload in workloads {
        let cycles = cycles_override.unwrap_or_else(|| workload.default_cycles());
        for devices in [4usize, 6] {
            let spec = ExperimentSpec::paper_fleet(workload, devices, false, 42);
            println!(
                "=== Fig 5: {} · {} devices ({} stragglers) · {} cycles ===",
                workload.label(),
                devices,
                spec.stragglers,
                cycles
            );
            let metrics = run_strategies(&spec, PAPER_STRATEGIES, cycles);
            println!("{}", format_curves(&metrics, (cycles / 10).max(1)));
            println!("{}", format_summary(&metrics, target_for(workload)));
            let prefix = format!("fig5_{}_{}dev", workload.label().replace('/', "_"), devices);
            write_csvs(&results_dir().join("fig5"), &prefix, &metrics)
                .expect("results directory is writable");
        }
    }
}
