//! The paper's qualitative claims, encoded as integration tests.
//!
//! These use small fleets and seeds averaged where variance demands it;
//! thresholds are deliberately tolerant — they pin the *direction* of
//! each effect, the paper bins measure the magnitude.

use helios_core::softtrain::select_layer_mask;
use helios_core::{HeliosConfig, HeliosStrategy};
use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_fl::{AsyncFl, FlConfig, FlEnv, RunMetrics, Strategy, SyncFedAvg};
use helios_nn::models::{self, ModelKind};
use helios_nn::{CrossEntropyLoss, Sgd};
use helios_tensor::{uniform_init, TensorRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn build_env(non_iid: bool, seed: u64) -> FlEnv {
    let clients = 4;
    let mut rng = TensorRng::seed_from(seed);
    let mut spec = SyntheticVision::mnist_like();
    spec.noise_std = 1.0;
    let (train, test) = spec
        .generate(80 * clients, 120, &mut rng)
        .expect("generate");
    let idx = if non_iid {
        partition::label_shards(train.labels(), clients, 2, &mut rng).expect("shards")
    } else {
        partition::iid(train.len(), clients, &mut rng)
    };
    let shards: Vec<Dataset> = idx
        .into_iter()
        .map(|i| train.subset(&i).expect("subset"))
        .collect();
    FlEnv::new(
        ModelKind::LeNet,
        presets::mixed_fleet(2, 2),
        shards,
        test,
        FlConfig {
            seed,
            learning_rate: 0.04,
            ..FlConfig::default()
        },
    )
    .expect("env builds")
}

/// Fig 1: synchronized FL's cycle time is set by the slowest device.
#[test]
fn sync_cycle_is_straggler_bound() {
    let mut env = build_env(false, 1);
    let slowest = (0..env.num_clients())
        .map(|i| env.client(i).expect("client").cycle_time().as_secs_f64())
        .fold(0.0f64, f64::max);
    let m = SyncFedAvg::new().run(&mut env, 2).expect("sync runs");
    let per_cycle = m.total_time().as_secs_f64() / 2.0;
    assert!((per_cycle - slowest).abs() < 1e-6);
}

/// Fig 2 / §II.B: under Non-IID data, widening the straggler's
/// aggregation period degrades converged accuracy.
#[test]
fn staleness_hurts_under_non_iid() {
    let mut sync_acc = 0.0;
    let mut async3_acc = 0.0;
    let seeds = [2u64, 3, 4];
    for &seed in &seeds {
        let mut env = build_env(true, seed);
        sync_acc += SyncFedAvg::new()
            .run(&mut env, 14)
            .expect("sync")
            .tail_accuracy(3);
        let mut env = build_env(true, seed);
        async3_acc += AsyncFl::with_fixed_period(vec![2, 3], 3)
            .run(&mut env, 14)
            .expect("async")
            .tail_accuracy(3);
    }
    let n = seeds.len() as f64;
    assert!(
        sync_acc / n > async3_acc / n + 0.02,
        "sync {:.3} must clearly beat async-3 {:.3} under non-IID",
        sync_acc / n,
        async3_acc / n
    );
}

/// §V headline: Helios reaches a common accuracy target in far less
/// simulated time than synchronized FL (the paper's speedup metric).
#[test]
fn helios_speedup_over_sync_at_target() {
    let target = 0.6;
    let mut speedups = Vec::new();
    for seed in [5u64, 6] {
        let mut env = build_env(false, seed);
        let sync = SyncFedAvg::new().run(&mut env, 14).expect("sync");
        let mut env = build_env(false, seed);
        let helios = HeliosStrategy::new(HeliosConfig::default())
            .run(&mut env, 14)
            .expect("helios");
        if let Some(s) = helios.speedup_over(&sync, target) {
            speedups.push(s);
        }
        // The speedup comes from the train phase: soft-trained
        // stragglers stop gating each round's simulated compute span.
        let train_s = |m: &RunMetrics| m.records().iter().map(|r| r.phases.train_s).sum::<f64>();
        let (helios_s, sync_s) = (train_s(&helios), train_s(&sync));
        assert!(
            helios_s < sync_s,
            "seed {seed}: helios train phase {helios_s:.2}s must undercut sync {sync_s:.2}s"
        );
    }
    assert!(!speedups.is_empty(), "at least one seed reaches the target");
    let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
    assert!(
        mean > 1.8,
        "helios should be roughly 2x+ faster to target, got {mean:.2}x"
    );
}

/// §V.A model integrity: across a Helios run, every maskable neuron of
/// the straggler participates in at least one training cycle.
#[test]
fn soft_training_covers_every_neuron() {
    let mut env = build_env(false, 7);
    let mut s = HeliosStrategy::new(HeliosConfig::default());
    s.initialize(&mut env).expect("init");
    let units = env.client(2).expect("straggler").network().maskable_units();
    let mut seen: Vec<Vec<bool>> = units.0.iter().map(|&n| vec![false; n]).collect();
    for _ in 0..14 {
        let _ = s.run(&mut env, 1).expect("cycle");
        let mask = env
            .client(2)
            .expect("straggler")
            .current_mask()
            .expect("masked")
            .clone();
        for (layer, row) in seen.iter_mut().enumerate() {
            for (unit, done) in row.iter_mut().enumerate() {
                *done |= mask.is_active(layer, unit);
            }
        }
    }
    for (layer, row) in seen.iter().enumerate() {
        let missing = row.iter().filter(|&&b| !b).count();
        assert_eq!(
            missing, 0,
            "layer {layer}: {missing} neurons never trained in 14 cycles"
        );
    }
}

/// §IV.C: fitted volumes shrink with device weakness — a weaker straggler
/// receives a smaller expected model volume.
#[test]
fn weaker_devices_get_smaller_volumes() {
    let mut env = build_env(false, 8);
    let mut s = HeliosStrategy::new(HeliosConfig::default());
    s.initialize(&mut env).expect("init");
    // mixed_fleet(2, 2) appoints jetson-nano-cpu (7 GFLOPS) and
    // raspberry-pi (6 GFLOPS) as stragglers 2 and 3.
    let k2 = s.keep_ratio(2).expect("straggler 2");
    let k3 = s.keep_ratio(3).expect("straggler 3");
    assert!(
        k3 <= k2 + 1e-9,
        "raspberry ({k3:.3}) should get no more volume than nano-cpu ({k2:.3})"
    );
}

/// Eq 10: the heterogeneity weights divert aggregation mass toward fuller
/// models without discarding partial ones.
#[test]
fn heterogeneity_weights_order_matches_volumes() {
    let w = helios_core::aggregation::heterogeneity_weights(&[1.0, 1.0, 0.5, 0.35]);
    assert!(w[0] > w[2] && w[2] > w[3]);
    assert!(w[3] > 0.0, "partial models still contribute");
    assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
}

/// §VI.C: a straggler-class device joining mid-run is admitted at reduced
/// volume and the fleet keeps the capable pace.
#[test]
fn dynamic_join_preserves_pace() {
    let mut env = build_env(false, 9);
    let mut s = HeliosStrategy::new(HeliosConfig::default());
    let m1 = s.run(&mut env, 2).expect("phase 1");
    let pace_before = m1.total_time().as_secs_f64() / 2.0;
    let mut rng = TensorRng::seed_from(99);
    let (extra, _) = SyntheticVision::mnist_like()
        .generate(60, 0, &mut rng)
        .expect("generate");
    let id = s
        .admit_device(&mut env, presets::deeplens_cpu(), extra)
        .expect("admitted");
    assert!(s.stragglers().contains(&id));
    let m2 = s.run(&mut env, 2).expect("phase 2");
    let pace_after = (m2.total_time().as_secs_f64() - m1.total_time().as_secs_f64()) / 2.0;
    assert!(
        pace_after < 1.5 * pace_before,
        "pace {pace_after:.1}s should stay near {pace_before:.1}s after the join"
    );
}

/// Median host time of `reps` runs of `f`.
fn median_time(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[reps / 2]
}

/// §V footnote: the sorting overhead of contribution-guided selection is
/// negligible next to a training step (18 ms vs 12 min on-device, about
/// 1:40000). Here both sides are host time on scaled-down models; the
/// bound is 10%, which leaves three orders of magnitude for a loaded
/// host.
#[test]
fn selection_overhead_is_negligible_next_to_a_training_step() {
    let units = 8192;
    let mut rng = TensorRng::seed_from(1);
    let contributions: Vec<f32> = (0..units).map(|_| rng.uniform(0.0, 1.0)).collect();
    let (k, top) = (units / 8, units / 80);
    let select = median_time(21, || {
        let mut rng = TensorRng::seed_from(2);
        black_box(select_layer_mask(
            black_box(&contributions),
            k,
            top,
            &[],
            &mut rng,
        ));
    });

    let mut net = models::alexnet(10, &mut rng);
    let x = uniform_init(&[16, 3, 16, 16], -1.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
    let loss = CrossEntropyLoss::new();
    let mut opt = Sgd::new(0.01);
    let step = median_time(5, || {
        net.zero_grad();
        let logits = net.forward(black_box(&x)).expect("forward");
        let (_, grad) = loss.forward_backward(&logits, &labels).expect("loss");
        net.backward(&grad).expect("backward");
        opt.step(&mut net).expect("step");
    });
    assert!(
        select.as_secs_f64() < 0.1 * step.as_secs_f64(),
        "selecting {k} of {units} units took {select:?}, a training step {step:?}"
    );
}
