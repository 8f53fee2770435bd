//! Cross-crate integration tests: the full pipeline, every strategy, one
//! roof.

use helios_core::{HeliosConfig, HeliosStrategy, Identification, VolumePolicy};
use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_fl::{Afo, AsyncFl, FlConfig, FlEnv, RandomPartial, Strategy, SyncFedAvg};
use helios_nn::models::ModelKind;
use helios_tensor::TensorRng;

fn build_env(model: ModelKind, capable: usize, stragglers: usize, seed: u64) -> FlEnv {
    let clients = capable + stragglers;
    let mut rng = TensorRng::seed_from(seed);
    let spec = match model {
        ModelKind::LeNet => SyntheticVision::mnist_like(),
        ModelKind::AlexNet => SyntheticVision::cifar10_like(),
        ModelKind::ResNet18 => SyntheticVision::cifar100_like(),
    };
    let (train, test) = spec.generate(40 * clients, 40, &mut rng).expect("generate");
    let shards: Vec<Dataset> = partition::iid(train.len(), clients, &mut rng)
        .into_iter()
        .map(|idx| train.subset(&idx).expect("subset"))
        .collect();
    FlEnv::new(
        model,
        presets::mixed_fleet(capable, stragglers),
        shards,
        test,
        FlConfig {
            seed,
            batch_size: 8,
            ..FlConfig::default()
        },
    )
    .expect("env builds")
}

#[test]
fn every_strategy_completes_on_every_architecture() {
    for model in [ModelKind::LeNet, ModelKind::AlexNet, ModelKind::ResNet18] {
        let strategies: Vec<Box<dyn Strategy>> = vec![
            Box::new(SyncFedAvg::new()),
            Box::new(AsyncFl::new(vec![1])),
            Box::new(Afo::new(vec![1])),
            Box::new(RandomPartial::new(vec![None, Some(0.4)])),
            Box::new(HeliosStrategy::new(HeliosConfig::default())),
        ];
        for mut s in strategies {
            let mut env = build_env(model, 1, 1, 5);
            let m = s.run(&mut env, 2).expect("strategy completes");
            assert_eq!(m.records().len(), 2, "{model:?}/{}", s.name());
            for r in m.records() {
                assert!((0.0..=1.0).contains(&r.test_accuracy));
                assert!(r.test_loss.is_finite());
                assert!(r.participants >= 1);
            }
            assert!(m.total_time().as_secs_f64() > 0.0);
        }
    }
}

#[test]
fn helios_matches_sync_pace_of_capable_devices() {
    // The core promise: with soft-training, the fleet cycles at roughly
    // the capable pace, not the straggler pace.
    let mut helios_env = build_env(ModelKind::LeNet, 2, 2, 6);
    let capable_cycle = helios_env
        .client(0)
        .expect("client 0")
        .cycle_time()
        .as_secs_f64();
    let straggler_cycle = helios_env
        .client(3)
        .expect("client 3")
        .cycle_time()
        .as_secs_f64();
    assert!(
        straggler_cycle > 2.0 * capable_cycle,
        "fleet is heterogeneous"
    );
    let m = HeliosStrategy::new(HeliosConfig::default())
        .run(&mut helios_env, 3)
        .expect("helios runs");
    let per_cycle = m.total_time().as_secs_f64() / 3.0;
    assert!(
        per_cycle < 1.35 * capable_cycle,
        "helios cycle {per_cycle:.1}s should track capable {capable_cycle:.1}s, \
         not straggler {straggler_cycle:.1}s"
    );
}

#[test]
fn helios_strategies_agree_across_identification_modes() {
    let configs = [
        HeliosConfig {
            identification: Identification::ResourceBased {
                slowdown_threshold: 1.5,
            },
            ..HeliosConfig::default()
        },
        HeliosConfig {
            identification: Identification::TimeBased {
                iterations: 2,
                top_k: 2,
            },
            ..HeliosConfig::default()
        },
    ];
    let mut straggler_sets = Vec::new();
    for config in configs {
        let mut env = build_env(ModelKind::LeNet, 2, 2, 7);
        let mut s = HeliosStrategy::new(config);
        s.initialize(&mut env).expect("init");
        straggler_sets.push(s.stragglers().to_vec());
    }
    assert_eq!(straggler_sets[0], straggler_sets[1]);
    assert_eq!(straggler_sets[0], vec![2, 3]);
}

#[test]
fn predefined_and_fitted_volumes_both_run() {
    for volume in [
        VolumePolicy::Predefined(vec![0.3, 0.5]),
        VolumePolicy::ResourceFitted,
    ] {
        let mut env = build_env(ModelKind::LeNet, 1, 1, 8);
        let mut s = HeliosStrategy::new(HeliosConfig {
            volume,
            ..HeliosConfig::default()
        });
        let m = s.run(&mut env, 2).expect("runs");
        assert_eq!(m.records().len(), 2);
        assert!(s.keep_ratio(1).expect("straggler has volume") <= 1.0);
    }
}

#[test]
fn global_model_changes_only_through_aggregation() {
    let mut env = build_env(ModelKind::LeNet, 1, 1, 9);
    let before = env.global().to_vec();
    // Client-side training must not mutate the server's global vector.
    let _ = env
        .client_mut(0)
        .expect("client")
        .train_local()
        .expect("train");
    assert_eq!(env.global(), &before[..]);
    let mut s = SyncFedAvg::new();
    let _ = s.run(&mut env, 1).expect("runs");
    assert_ne!(env.global(), &before[..], "aggregation updates the global");
}

#[test]
fn full_runs_are_bit_reproducible_across_strategies() {
    for build in [0usize, 1] {
        let run = |seed: u64| -> Vec<f32> {
            let mut env = build_env(ModelKind::LeNet, 1, 1, seed);
            match build {
                0 => {
                    let _ = SyncFedAvg::new().run(&mut env, 2).expect("sync");
                }
                _ => {
                    let _ = HeliosStrategy::new(HeliosConfig::default())
                        .run(&mut env, 2)
                        .expect("helios");
                }
            }
            env.global().to_vec()
        };
        assert_eq!(run(11), run(11), "same seed, same final model");
        assert_ne!(run(11), run(12), "different seed, different model");
    }
}

#[test]
fn skip_regulator_bounds_neuron_starvation_end_to_end() {
    // Over a real multi-cycle run, no neuron may be skipped for more than
    // the §VI.A threshold plus one cycle.
    let mut env = build_env(ModelKind::LeNet, 1, 1, 13);
    let mut s = HeliosStrategy::new(HeliosConfig::default());
    s.initialize(&mut env).expect("init");
    let keep = s.keep_ratio(1).expect("straggler volume");
    let units = env.client(1).expect("client").network().maskable_units();
    let total: usize = units.total();
    let selected: usize = units
        .0
        .iter()
        .map(|&n| ((keep * n as f64).ceil() as usize).clamp(1, n))
        .sum();
    let threshold = 1.0 + total as f64 / selected as f64;
    let cycles = 12;
    // Track per-unit skip streaks from the straggler's masks.
    let mut streaks = vec![0u32; total];
    let mut max_streak = 0u32;
    for cycle in 0..cycles {
        let m = s.run(&mut env, 1).expect("one cycle");
        assert_eq!(m.records().len(), 1);
        let _ = cycle;
        let mask = env
            .client(1)
            .expect("client")
            .current_mask()
            .expect("straggler is masked")
            .clone();
        let mut flat = 0usize;
        for (layer, &n) in units.0.iter().enumerate() {
            for unit in 0..n {
                if mask.is_active(layer, unit) {
                    streaks[flat] = 0;
                } else {
                    streaks[flat] += 1;
                    max_streak = max_streak.max(streaks[flat]);
                }
                flat += 1;
            }
        }
    }
    assert!(
        (max_streak as f64) <= threshold + 1.0,
        "skip streak {max_streak} exceeded threshold {threshold:.1}"
    );
}
