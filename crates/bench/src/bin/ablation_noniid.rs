//! **Extension ablation** — Non-IID severity sweep (beyond the paper).
//!
//! The paper evaluates one Non-IID construction (label shards, §VII.D).
//! This ablation sweeps data heterogeneity from IID through Dirichlet(α)
//! skews to the pathological shard split, comparing Syn. FL, Asyn. FL,
//! and Helios. Expected shape: the sync−async gap widens as skew grows
//! (stale straggler updates lose unique classes), and Helios tracks sync
//! far closer than async at every severity.

use helios_bench::{run_strategies, ExperimentSpec, Split, Workload};

fn label(split: Split) -> String {
    match split {
        Split::Iid => "iid".into(),
        Split::Dirichlet(a) => format!("dirichlet({a})"),
        Split::LabelShards => "label-shards".into(),
    }
}

fn main() {
    let cycles = 25;
    let seeds = [41u64, 42, 43];
    println!("Non-IID severity sweep (LeNet/MNIST-like, 4 devices / 2 stragglers)\n");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>16}",
        "skew", "sync", "async", "helios", "helios−async"
    );
    for split in [
        Split::Iid,
        Split::Dirichlet(10.0),
        Split::Dirichlet(1.0),
        Split::Dirichlet(0.3),
        Split::LabelShards,
    ] {
        let mut acc = [0.0f64; 3];
        for &seed in &seeds {
            let spec = ExperimentSpec {
                split,
                ..ExperimentSpec::paper_fleet(Workload::LenetMnist, 4, false, seed)
            };
            let runs = run_strategies(&spec, &["sync", "async", "helios"], cycles);
            for (a, m) in acc.iter_mut().zip(&runs) {
                *a += m.tail_accuracy(5);
            }
        }
        let n = seeds.len() as f64;
        println!(
            "{:<16} {:>10.4} {:>10.4} {:>10.4} {:>+16.4}",
            label(split),
            acc[0] / n,
            acc[1] / n,
            acc[2] / n,
            (acc[2] - acc[1]) / n
        );
    }
}
