//! Heterogeneous fleet walkthrough: profiling, identification, and
//! volume planning on the paper's Table I devices.
//!
//! Demonstrates the two identification paths (time-based black box vs
//! resource-based white box), the analytic cost model, and resource-fitted
//! volume determination — the §IV pipeline — before running a short
//! collaboration.
//!
//! ```text
//! cargo run -p helios-examples --bin heterogeneous_fleet --release
//! ```

use helios_core::{identify, target, HeliosConfig, HeliosStrategy};
use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_fl::{FlConfig, FlEnv, Strategy};
use helios_nn::models::ModelKind;
use helios_tensor::TensorRng;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // Fleet: 2 full-power Jetson Nanos + all four Table I stragglers.
    let fleet = presets::mixed_fleet(2, 4);
    let clients = fleet.len();

    let mut rng = TensorRng::seed_from(11);
    let (train, test) = SyntheticVision::cifar10_like().generate(120 * clients, 120, &mut rng)?;
    let shards: Vec<Dataset> = partition::iid(train.len(), clients, &mut rng)
        .into_iter()
        .map(|idx| train.subset(&idx))
        .collect::<Result<_, _>>()?;
    let mut env = FlEnv::new(
        ModelKind::AlexNet,
        fleet,
        shards,
        test,
        FlConfig {
            seed: 11,
            ..FlConfig::default()
        },
    )?;

    // --- §IV.B straggler identification, both ways -----------------------
    println!("time-based test bench (2 iterations), longest first:");
    for entry in identify::test_bench_index(&env, 2)? {
        let name = env.client(entry.client)?.profile().name().to_string();
        println!("  client {} ({name}): {}", entry.client, entry.time);
    }
    let black_box = identify::time_based(&env, 2, 4)?;
    let fleet: Vec<usize> = (0..env.num_clients()).collect();
    let white_box = identify::resource_based_combined_cohort(&env, &fleet, 1.5)?;
    println!("black-box stragglers : {black_box:?}");
    println!("white-box stragglers : {white_box:?}");
    assert_eq!(black_box, white_box, "both methods agree on this fleet");

    // --- §IV.C volume determination --------------------------------------
    let deadline = env.client(0)?.cycle_time();
    println!("\ncapable pace: {deadline} per cycle");
    println!(
        "{:<28} {:>12} {:>12} {:>12}",
        "device", "full cycle", "keep", "masked"
    );
    for &i in &white_box {
        let full = env.client(i)?.cycle_time();
        let keep = target::fitted_keep_ratio(env.client_mut(i)?, deadline)?;
        let masked = target::masked_cycle_time(env.client_mut(i)?, keep)?;
        let name = env.client(i)?.profile().name().to_string();
        println!(
            "{name:<28} {:>12} {:>11.0}% {:>12}",
            full.to_string(),
            keep * 100.0,
            masked.to_string()
        );
    }

    // --- the full pipeline, end to end ------------------------------------
    let mut helios = HeliosStrategy::new(HeliosConfig::default());
    let metrics = helios.run(&mut env, 8)?;
    println!(
        "\n8 cycles of Helios: best accuracy {:.1}%, total simulated time {}",
        metrics.best_accuracy() * 100.0,
        metrics.total_time()
    );
    Ok(())
}
