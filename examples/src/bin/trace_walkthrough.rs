//! Trace walkthrough: record one lossy-link Helios run as a JSONL trace
//! plus a Chrome `trace_event` file for Perfetto (see `EXPERIMENTS.md`).
//!
//! Two capable devices and two Table I stragglers on a constrained
//! uplink train for three cycles under mild fault injection; from cycle
//! 1 the last straggler throttles and the labels rotate. Every timestamp
//! is simulated time, so two runs write byte-identical files.
//!
//! ```text
//! cargo run -p helios-examples --release --bin trace_walkthrough -- <dir>
//! cargo run -p helios-obs --bin trace_report -- [--validate] <dir>/trace.jsonl
//! ```

use helios_core::{HeliosConfig, HeliosStrategy};
use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_fl::{
    DriftEvent, DriftKind, FaultConfig, FlConfig, FlEnv, LinkProfile, NetConfig, ScenarioConfig,
    Strategy, ThrottleRule,
};
use helios_nn::models::ModelKind;
use helios_obs::{ChromeTraceSink, JsonlSink};
use helios_tensor::TensorRng;
use std::error::Error;

fn build_env() -> Result<FlEnv, Box<dyn Error>> {
    let (capable, clients, seed) = (2, 4, 42);
    let mut rng = TensorRng::seed_from(seed);
    let (train, test) = SyntheticVision::mnist_like().generate(40 * clients, 40, &mut rng)?;
    let shards: Vec<Dataset> = partition::iid(train.len(), clients, &mut rng)
        .into_iter()
        .map(|idx| train.subset(&idx))
        .collect::<Result<_, _>>()?;
    let net = NetConfig {
        enabled: true,
        link: LinkProfile::constrained(50e6, 0.01),
        faults: FaultConfig {
            drop_prob: 0.05,
            corrupt_prob: 0.05,
            delay_prob: 0.10,
            max_extra_delay_s: 0.25,
        },
        ..NetConfig::default()
    };
    let scenario = ScenarioConfig {
        throttle: vec![ThrottleRule {
            start_cycle: 1,
            device: Some(clients - 1),
            compute_decay: 0.15,
            bandwidth_decay: 0.0,
            floor: 0.35,
        }],
        drift: vec![DriftEvent {
            cycle: 1,
            kind: DriftKind::LabelRotate,
            amount: 2.0,
        }],
        ..ScenarioConfig::default()
    };
    let config = FlConfig {
        seed,
        net,
        scenario,
        ..FlConfig::default()
    };
    let fleet = presets::mixed_fleet(capable, clients - capable);
    let mut env = FlEnv::new(ModelKind::LeNet, fleet, shards, test, config)?;
    // mixed_fleet puts capable devices first, stragglers after.
    for i in capable..clients {
        env.set_link(i, LinkProfile::constrained(2e6, 0.05))?;
    }
    Ok(env)
}

fn main() -> Result<(), Box<dyn Error>> {
    let arg = std::env::args().nth(1);
    let dir = std::path::PathBuf::from(arg.ok_or("usage: trace_walkthrough <output-dir>")?);
    std::fs::create_dir_all(&dir)?;
    let (jsonl, chrome) = (dir.join("trace.jsonl"), dir.join("trace_chrome.json"));
    let sinks = [
        helios_obs::install(Box::new(JsonlSink::create(&jsonl)?)),
        helios_obs::install(Box::new(ChromeTraceSink::create(&chrome))),
    ];
    HeliosStrategy::new(HeliosConfig::default()).run(&mut build_env()?, 3)?;
    drop(sinks); // detach + flush both files
    println!("wrote {}\nwrote {}", jsonl.display(), chrome.display());
    Ok(())
}
