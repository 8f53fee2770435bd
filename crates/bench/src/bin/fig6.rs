//! **Fig 6** — model-aggregation optimization evaluation.
//!
//! Helios with the heterogeneity-weighted aggregation (`α_n = r_n/Σr_n`,
//! Eq 10) against "S.T. Only" (soft-training with plain FedAvg weights),
//! as the straggler count grows from 1 to 4. Paper shape: the weighted
//! aggregation lifts accuracy (up to 17.37% there) and visibly reduces
//! the cycle-to-cycle accuracy fluctuation of partial-model aggregation.
//!
//! Runs under the label-shard Non-IID split: partial-model aggregation
//! error is what α damps, and it only materializes when clients' updates
//! genuinely disagree (see `DESIGN.md` §4a.3).

use helios_bench::{
    format_curves, results_dir, run_strategies, write_csvs, ExperimentSpec, Workload,
    ABLATION_STRATEGIES,
};

fn main() {
    let cycles = 35;
    let seeds = [21u64, 22, 23, 24, 25];
    println!(
        "Fig 6: Helios vs S.T. Only (AlexNet/CIFAR-10-like, label-shard Non-IID), stragglers 1→4\n"
    );
    println!(
        "{:<12} {:>14} {:>14} {:>12} {:>12}",
        "stragglers", "st_only tail", "helios tail", "st_only std", "helios std"
    );
    for stragglers in 1..=4usize {
        let mut tail = [0.0f64; 2];
        let mut std = [0.0f64; 2];
        let mut example = None;
        for &seed in &seeds {
            let spec = ExperimentSpec {
                capable: 2,
                stragglers,
                per_client: 150,
                ..ExperimentSpec::paper_fleet(Workload::AlexnetCifar10, 4, true, seed)
            };
            let metrics = run_strategies(&spec, ABLATION_STRATEGIES, cycles);
            for (i, m) in metrics.iter().enumerate() {
                tail[i] += m.tail_accuracy(8) / seeds.len() as f64;
                std[i] += m.tail_accuracy_std(10) / seeds.len() as f64;
            }
            if seed == seeds[0] {
                example = Some(metrics);
            }
        }
        println!(
            "{:<12} {:>14.4} {:>14.4} {:>12.4} {:>12.4}",
            stragglers, tail[0], tail[1], std[0], std[1]
        );
        if let Some(metrics) = example {
            write_csvs(
                &results_dir().join("fig6"),
                &format!("fig6_{stragglers}stragglers"),
                &metrics,
            )
            .expect("results directory is writable");
            if stragglers == 4 {
                println!("\nexample curves (seed {}, 4 stragglers):", seeds[0]);
                println!("{}", format_curves(&metrics, 2));
            }
        }
    }
    println!("paper shape: helios ≥ st_only in accuracy, with smaller fluctuation,");
    println!("and the gap grows with the straggler count.");
}
