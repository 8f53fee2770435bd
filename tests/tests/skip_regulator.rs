//! Regression suite for the §VI.A skip-cycle regulator under lossy
//! links.
//!
//! The server must settle a straggler's skip counters against the round
//! *outcome*, not the mask issuance: a cycle whose update never arrives
//! (dropped or past the deadline) trained nothing, so every unit —
//! scheduled or not — skipped it. The original implementation observed
//! the mask optimistically at configure time, which reset the scheduled
//! units' counters on cycles the straggler actually missed and let the
//! regulator starve units indefinitely behind a bad link.

use helios_core::{HeliosConfig, HeliosStrategy, VolumePolicy};
use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_fl::{FlConfig, FlEnv, LinkProfile, NetConfig, Strategy};
use helios_integration::missed_by_device;
use helios_nn::models::ModelKind;
use helios_obs::RingBufferSink;
use helios_tensor::TensorRng;

const SEED: u64 = 4242;
const CYCLES: usize = 6;
const STRAGGLER: usize = 2;

/// Two capable clients on ideal links plus one straggler whose link is
/// so slow that its exchange alone blows the 20 s round deadline every
/// cycle.
fn lossy_env() -> FlEnv {
    let clients = 3;
    let mut rng = TensorRng::seed_from(SEED);
    let (train, test) = SyntheticVision::mnist_like()
        .generate(30 * clients, 30, &mut rng)
        .expect("dataset");
    let shards: Vec<Dataset> = partition::iid(train.len(), clients, &mut rng)
        .into_iter()
        .map(|idx| train.subset(&idx).expect("subset"))
        .collect();
    let mut env = FlEnv::new(
        ModelKind::LeNet,
        presets::mixed_fleet(2, 1),
        shards,
        test,
        FlConfig {
            seed: SEED,
            net: NetConfig {
                enabled: true,
                round_timeout_s: Some(20.0),
                ..NetConfig::default()
            },
            ..FlConfig::default()
        },
    )
    .expect("env");
    env.set_link(STRAGGLER, LinkProfile::constrained(1e3, 1.0))
        .expect("link");
    env
}

/// A straggler that misses every cycle accumulates one skip per cycle on
/// *every* unit (including the scheduled ones that never delivered), and
/// once the counters cross the §VI.A threshold the regulator forces the
/// whole starved set back into the next mask.
#[test]
fn missed_cycles_increment_skip_counters_and_force_rejoins() {
    let mut env = lossy_env();
    // A fixed volume keeps the skip threshold 1 + m/Σp·n = 3 constant
    // for the whole run (dynamic adjustment would shrink the volume and
    // move the bar mid-test).
    let mut strategy = HeliosStrategy::new(HeliosConfig {
        volume: VolumePolicy::Predefined(vec![0.5]),
        dynamic_volume_cycles: 0,
        ..HeliosConfig::default()
    });
    let ring = RingBufferSink::with_capacity(1 << 16);
    let handle = helios_obs::install(Box::new(ring.clone()));
    let metrics = strategy.run(&mut env, CYCLES).expect("lossy helios run");
    drop(handle);

    // The constrained link really did cut the straggler out of every
    // round: only the two capable clients ever aggregated.
    let transport = env.transport().expect("transport");
    assert!(transport.stats().timeouts > 0, "deadline must trip");
    assert_eq!(
        missed_by_device(&ring.records()),
        [(STRAGGLER as u64, CYCLES as u64)].into(),
        "straggler must miss every cycle, and no one else any"
    );
    for r in metrics.records() {
        assert_eq!(r.participants, 2, "only on-time clients aggregate");
    }

    // The regression: every skip counter — scheduled units included —
    // equals the number of missed cycles. Observing the issued mask
    // optimistically would have reset the scheduled units to zero.
    let trainer = strategy.trainer(STRAGGLER).expect("straggler trainer");
    for (layer, counts) in trainer.skip_cycles().iter().enumerate() {
        for (unit, &c) in counts.iter().enumerate() {
            assert_eq!(
                c, CYCLES as u32,
                "layer {layer} unit {unit}: counter must match missed cycles"
            );
        }
    }

    // All counters sit above the threshold, so the regulator demands
    // every starved unit rejoin...
    let threshold = trainer.skip_threshold();
    assert!(
        (CYCLES as f64) > threshold,
        "test must run past the threshold ({threshold})"
    );
    let total_units: usize = trainer.skip_cycles().iter().map(Vec::len).sum();
    assert_eq!(trainer.forced_rejoins().len(), total_units);

    // ...and the masks honour that, within the straggler's capacity
    // (forced entries are capped at the per-layer keep count). After one
    // delivered cycle resets the trained half, the still-starved
    // complement is forced into the very next mask.
    let mut probe = trainer.clone();
    let units = helios_nn::MaskableUnits(trainer.skip_cycles().iter().map(Vec::len).collect());
    let first = probe.next_mask(None);
    probe.observe(&first);
    let second = probe.next_mask(None);
    for (layer, &n) in units.0.iter().enumerate() {
        for unit in 0..n {
            if !first.is_active(layer, unit) {
                assert!(
                    second.is_active(layer, unit),
                    "regulator must force starved layer {layer} unit {unit} back in"
                );
            }
        }
    }
}

/// Counter settlement is outcome-driven, so a lossless rerun of the same
/// fleet (no timeout, ideal links) resets scheduled units as before —
/// the deferral changes nothing when every update arrives.
#[test]
fn delivered_cycles_still_reset_scheduled_units() {
    let clients = 3;
    let mut rng = TensorRng::seed_from(SEED + 1);
    let (train, test) = SyntheticVision::mnist_like()
        .generate(30 * clients, 30, &mut rng)
        .expect("dataset");
    let shards: Vec<Dataset> = partition::iid(train.len(), clients, &mut rng)
        .into_iter()
        .map(|idx| train.subset(&idx).expect("subset"))
        .collect();
    let mut env = FlEnv::new(
        ModelKind::LeNet,
        presets::mixed_fleet(2, 1),
        shards,
        test,
        FlConfig {
            seed: SEED + 1,
            ..FlConfig::default()
        },
    )
    .expect("env");
    let mut strategy = HeliosStrategy::new(HeliosConfig {
        volume: VolumePolicy::Predefined(vec![0.5]),
        dynamic_volume_cycles: 0,
        ..HeliosConfig::default()
    });
    strategy.run(&mut env, CYCLES).expect("lossless helios run");
    let trainer = strategy.trainer(STRAGGLER).expect("straggler trainer");
    // Half the units trained in the final delivered cycle, so their
    // counters are zero; nobody can have skipped more cycles than ran.
    let zeros: usize = trainer
        .skip_cycles()
        .iter()
        .flatten()
        .filter(|&&c| c == 0)
        .count();
    assert!(zeros > 0, "delivered cycles must reset scheduled units");
    for counts in trainer.skip_cycles() {
        for &c in counts {
            assert!(c <= CYCLES as u32);
        }
    }
}
