//! Serial-vs-parallel parity suite: the parallel execution engine must
//! produce **bitwise identical** `f32` results at every thread count.
//!
//! Each kernel partitions its output structurally (rows / batch items /
//! pooling planes), so every element is computed by exactly one thread
//! in exactly the serial per-element order — these tests pin that
//! property down for each kernel and for whole federated rounds.

use helios_core::{HeliosConfig, HeliosStrategy};
use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_fl::{FlConfig, FlEnv, RandomPartial, Strategy, SyncFedAvg};
use helios_integration::{assert_bitwise, bits, leading_units_mask, with_threads, THREAD_WIDTHS};
use helios_nn::models::ModelKind;
use helios_tensor::{
    avg_pool2d, avg_pool2d_backward, conv2d, conv2d_backward, max_pool2d, max_pool2d_backward,
    uniform_init, ConvSpec, ParallelismConfig, PoolSpec, Tensor, TensorRng,
};
use std::sync::atomic::{AtomicBool, Ordering};

/// Thread counts compared against the serial baseline.
const WIDTHS: [usize; 3] = [THREAD_WIDTHS[1], THREAD_WIDTHS[2], THREAD_WIDTHS[3]];

#[test]
fn matmul_parity_across_shapes_and_threads() {
    // Shapes straddle the engine's small-work cutoff: tiny products stay
    // serial, the larger ones genuinely fan out.
    for (m, k, n) in [
        (1, 1, 1),
        (3, 5, 2),
        (17, 9, 13),
        (64, 96, 80),
        (128, 64, 50),
    ] {
        for seed in [0u64, 7, 99] {
            let mut rng = TensorRng::seed_from(seed);
            let a = uniform_init(&[m, k], -1.0, 1.0, &mut rng);
            let b = uniform_init(&[k, n], -1.0, 1.0, &mut rng);
            let serial = with_threads(1, || a.matmul(&b).unwrap());
            for w in WIDTHS {
                let parallel = with_threads(w, || a.matmul(&b).unwrap());
                assert_bitwise(&serial, &parallel, &format!("matmul {m}x{k}x{n} w={w}"));
            }
        }
    }
}

#[test]
fn conv2d_parity_across_shapes_and_threads() {
    for (n, c, h, o, kernel, stride, padding) in [
        (1, 1, 5, 1, 3, 1, 0),
        (2, 3, 9, 4, 3, 1, 1),
        (8, 3, 16, 8, 3, 2, 1),
        (4, 8, 12, 16, 5, 1, 2),
    ] {
        for seed in [1u64, 42] {
            let spec = ConvSpec::new(c, o, kernel, stride, padding);
            let mut rng = TensorRng::seed_from(seed);
            let x = uniform_init(&[n, c, h, h], -1.0, 1.0, &mut rng);
            let wgt = uniform_init(&spec.weight_dims(), -0.5, 0.5, &mut rng);
            let bias = uniform_init(&[o], -0.1, 0.1, &mut rng);
            let serial = with_threads(1, || conv2d(&x, &wgt, &bias, &spec).unwrap());
            for w in WIDTHS {
                let parallel = with_threads(w, || conv2d(&x, &wgt, &bias, &spec).unwrap());
                assert_bitwise(
                    &serial,
                    &parallel,
                    &format!("conv2d n={n} c={c} h={h} w={w}"),
                );
            }
        }
    }
}

#[test]
fn conv2d_backward_parity_across_shapes_and_threads() {
    for (n, c, h, o, kernel, stride, padding) in [
        (1, 1, 5, 1, 3, 1, 0),
        (2, 3, 9, 4, 3, 1, 1),
        (8, 3, 16, 8, 3, 2, 1),
    ] {
        for seed in [2u64, 77] {
            let spec = ConvSpec::new(c, o, kernel, stride, padding);
            let (oh, ow) = spec.output_hw(h, h);
            let mut rng = TensorRng::seed_from(seed);
            let x = uniform_init(&[n, c, h, h], -1.0, 1.0, &mut rng);
            let wgt = uniform_init(&spec.weight_dims(), -0.5, 0.5, &mut rng);
            let gout = uniform_init(&[n, o, oh, ow], -1.0, 1.0, &mut rng);
            let serial = with_threads(1, || conv2d_backward(&x, &wgt, &gout, &spec).unwrap());
            for w in WIDTHS {
                let parallel = with_threads(w, || conv2d_backward(&x, &wgt, &gout, &spec).unwrap());
                let tag = format!("conv2d_backward n={n} c={c} h={h} w={w}");
                assert_bitwise(
                    &serial.grad_input,
                    &parallel.grad_input,
                    &format!("{tag} dX"),
                );
                assert_bitwise(
                    &serial.grad_weight,
                    &parallel.grad_weight,
                    &format!("{tag} dW"),
                );
                assert_bitwise(&serial.grad_bias, &parallel.grad_bias, &format!("{tag} db"));
            }
        }
    }
}

#[test]
fn pooling_parity_across_shapes_and_threads() {
    for (n, c, h, kernel, stride) in [(1, 1, 4, 2, 2), (2, 3, 9, 3, 2), (6, 8, 16, 2, 2)] {
        for seed in [3u64, 55] {
            let spec = PoolSpec::new(kernel, stride);
            let (oh, ow) = spec.output_hw(h, h);
            let mut rng = TensorRng::seed_from(seed);
            let x = uniform_init(&[n, c, h, h], -1.0, 1.0, &mut rng);
            let gout = uniform_init(&[n, c, oh, ow], -1.0, 1.0, &mut rng);
            let (max_s, idx_s) = with_threads(1, || max_pool2d(&x, &spec).unwrap());
            let max_back_s = with_threads(1, || max_pool2d_backward(&gout, &idx_s).unwrap());
            let avg_s = with_threads(1, || avg_pool2d(&x, &spec).unwrap());
            let avg_back_s =
                with_threads(1, || avg_pool2d_backward(&gout, &spec, x.dims()).unwrap());
            for w in WIDTHS {
                let tag = format!("pool n={n} c={c} h={h} w={w}");
                let (max_p, idx_p) = with_threads(w, || max_pool2d(&x, &spec).unwrap());
                assert_bitwise(&max_s, &max_p, &format!("{tag} max fwd"));
                let max_back_p = with_threads(w, || max_pool2d_backward(&gout, &idx_p).unwrap());
                assert_bitwise(&max_back_s, &max_back_p, &format!("{tag} max bwd"));
                let avg_p = with_threads(w, || avg_pool2d(&x, &spec).unwrap());
                assert_bitwise(&avg_s, &avg_p, &format!("{tag} avg fwd"));
                let avg_back_p =
                    with_threads(w, || avg_pool2d_backward(&gout, &spec, x.dims()).unwrap());
                assert_bitwise(&avg_back_s, &avg_back_p, &format!("{tag} avg bwd"));
            }
        }
    }
}

/// An up-front mixed fleet of `per_class` capable devices followed by
/// `per_class` stragglers, with an explicit thread budget in its config.
fn fleet_env(seed: u64, per_class: usize, threads: usize) -> FlEnv {
    let mut rng = TensorRng::seed_from(seed);
    let clients = 2 * per_class;
    let (train, test) = SyntheticVision::mnist_like()
        .generate(30 * clients, 30, &mut rng)
        .expect("generate");
    let shards: Vec<Dataset> = partition::iid(train.len(), clients, &mut rng)
        .into_iter()
        .map(|idx| train.subset(&idx).expect("subset"))
        .collect();
    FlEnv::new(
        ModelKind::LeNet,
        presets::mixed_fleet(per_class, per_class),
        shards,
        test,
        FlConfig {
            seed,
            parallelism: ParallelismConfig::with_threads(threads),
            ..FlConfig::default()
        },
    )
    .expect("env")
}

fn assert_global_bitwise(a: &FlEnv, b: &FlEnv, what: &str) {
    assert_eq!(a.global().len(), b.global().len(), "{what}: global length");
    for (i, (x, y)) in a.global().iter().zip(b.global()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: global[{i}] ({x} vs {y})");
    }
}

#[test]
fn sync_fedavg_round_parity() {
    let mut serial_env = fleet_env(201, 1, 1);
    let serial = SyncFedAvg::new()
        .run(&mut serial_env, 2)
        .expect("serial run");
    for threads in WIDTHS {
        let mut env = fleet_env(201, 1, threads);
        let metrics = SyncFedAvg::new().run(&mut env, 2).expect("parallel run");
        assert_eq!(serial.records(), metrics.records(), "threads={threads}");
        assert_global_bitwise(&serial_env, &env, &format!("sync threads={threads}"));
    }
}

#[test]
fn random_partial_round_parity() {
    let ratios = vec![None, Some(0.4)];
    let mut serial_env = fleet_env(202, 1, 1);
    let serial = RandomPartial::new(ratios.clone())
        .run(&mut serial_env, 2)
        .expect("serial run");
    for threads in WIDTHS {
        let mut env = fleet_env(202, 1, threads);
        let metrics = RandomPartial::new(ratios.clone())
            .run(&mut env, 2)
            .expect("parallel run");
        assert_eq!(serial.records(), metrics.records(), "threads={threads}");
        assert_global_bitwise(&serial_env, &env, &format!("random threads={threads}"));
    }
}

#[test]
fn helios_round_parity() {
    let mut serial_env = fleet_env(203, 1, 1);
    let serial = HeliosStrategy::new(HeliosConfig::default())
        .run(&mut serial_env, 2)
        .expect("serial run");
    for threads in WIDTHS {
        let mut env = fleet_env(203, 1, threads);
        let metrics = HeliosStrategy::new(HeliosConfig::default())
            .run(&mut env, 2)
            .expect("parallel run");
        assert_eq!(serial.records(), metrics.records(), "threads={threads}");
        assert_global_bitwise(&serial_env, &env, &format!("helios threads={threads}"));
    }
}

/// Installs a first-`keep`-fraction-of-units mask on `client`.
fn mask_leading_units(env: &mut FlEnv, client: usize, keep: f64) {
    let c = env.client_mut(client).expect("client");
    let mask = leading_units_mask(c.network(), keep);
    c.set_masks(Some(mask)).expect("mask");
}

/// Which worker claims which client must not show. Full and masked
/// clients listed in shuffled order come back in that order, bitwise
/// equal to the one-thread result, at every width.
#[test]
fn train_selected_returns_participant_order_over_a_mixed_cost_cohort() {
    let participants = [3, 0, 5, 2, 4, 1];
    let train = |threads: usize| {
        let mut env = fleet_env(205, 3, threads);
        env.broadcast_global(0).expect("broadcast");
        mask_leading_units(&mut env, 1, 0.25);
        mask_leading_units(&mut env, 4, 0.5);
        env.train_selected(&participants).expect("train")
    };
    let serial = train(1);
    assert!(serial[5].param_mask.is_some(), "client 1 trained masked");
    for threads in THREAD_WIDTHS {
        let updates = train(threads);
        let order: Vec<usize> = updates.iter().map(|u| u.client).collect();
        assert_eq!(order, participants, "threads={threads}");
        for (s, p) in serial.iter().zip(updates) {
            let what = format!("client {} threads={threads}", s.client);
            assert_eq!(bits(&s.params), bits(&p.params), "{what}: params");
            assert_eq!(s.param_mask, p.param_mask, "{what}: mask");
            assert_eq!(
                s.train_loss.to_bits(),
                p.train_loss.to_bits(),
                "{what}: loss"
            );
            assert_eq!(
                s.keep_ratio.to_bits(),
                p.keep_ratio.to_bits(),
                "{what}: keep"
            );
        }
    }
}

/// A failing cohort reports its lowest-id failure at every width,
/// whichever worker fails first. Joined clients 2 and 3 both hold
/// shards with the wrong channel count (two and three); client 2 is
/// masked, so a schedule by cost would run it last.
#[test]
fn train_selected_reports_the_lowest_id_error_whatever_the_schedule() {
    let train = |threads: usize, participants: &[usize]| {
        let mut env = fleet_env(206, 1, threads);
        for channels in [2, 3] {
            let spec = SyntheticVision {
                channels,
                ..SyntheticVision::mnist_like()
            };
            let mut rng = TensorRng::seed_from(channels as u64);
            let shard = spec.generate(8, 1, &mut rng).expect("generate").0;
            let profile = env.client(0).expect("client").profile().clone();
            env.join_client(profile, shard).expect("join");
        }
        mask_leading_units(&mut env, 2, 0.25);
        match env.train_selected(participants) {
            Ok(_) => panic!("threads={threads}: a bad shard trained"),
            Err(e) => e.to_string(),
        }
    };
    let (client2, client3) = (train(1, &[2]), train(1, &[3]));
    assert_ne!(client2, client3, "the two failures are distinguishable");
    for threads in THREAD_WIDTHS {
        assert_eq!(train(threads, &[3, 2, 1, 0]), client2, "threads={threads}");
    }
}

/// Flop counts are the run's own: `train_flops` / `eval_flops` per
/// cycle are exactly equal at every width, while a sibling thread runs
/// kernels of its own throughout.
#[test]
fn flop_counts_are_exact_at_every_width_beside_a_busy_thread() {
    let mut envs = THREAD_WIDTHS.map(|threads| fleet_env(204, 1, threads));
    let stop = AtomicBool::new(false);
    let busy = std::sync::Barrier::new(2);
    let runs = std::thread::scope(|scope| {
        scope.spawn(|| {
            let a = Tensor::full(&[16, 16], 1.0);
            a.matmul(&a).expect("matmul");
            busy.wait();
            while !stop.load(Ordering::Relaxed) {
                a.matmul(&a).expect("matmul");
            }
        });
        busy.wait();
        // Errors leave the scope as values so the sibling is always stopped.
        let runs = envs
            .each_mut()
            .map(|env| HeliosStrategy::new(HeliosConfig::default()).run(env, 2));
        stop.store(true, Ordering::Relaxed);
        runs
    });
    let counts = runs.map(|run| {
        let metrics = run.expect("helios run");
        metrics
            .records()
            .iter()
            .map(|r| (r.phases.train_flops, r.phases.eval_flops))
            .collect::<Vec<(u64, u64)>>()
    });
    let total: u64 = counts[0].iter().map(|(train, eval)| train + eval).sum();
    assert!(total > 0, "the run counted kernels");
    for (threads, count) in THREAD_WIDTHS.iter().zip(&counts) {
        assert_eq!(count, &counts[0], "threads={threads}");
    }
}
