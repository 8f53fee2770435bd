//! Property-based tests over cross-crate invariants.

use helios_core::softtrain::{select_layer_mask, SoftTrainer};
use helios_core::target::probe_mask;
use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_fl::{FlConfig, FlEnv, MaskedUpdate, OnlineAggregator, Strategy, SyncFedAvg};
use helios_integration::{bitwise_equal, with_threads};
use helios_nn::models::ModelKind;
use helios_nn::{models, MaskableUnits, ModelMask, NeuronId};
use helios_tensor::{
    conv2d, conv2d_backward, uniform_init, ConvSpec, ParallelismConfig, TensorRng, UnitMask,
};
use proptest::prelude::*;

proptest! {
    /// Aggregating identical replicas is the identity, regardless of
    /// weights and masks.
    #[test]
    fn aggregation_of_identical_replicas_is_identity(
        n in 1usize..64,
        clients in 1usize..5,
        seed in 0u64..500,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let base: Vec<f32> = (0..n).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let masks: Vec<Vec<u64>> = (0..clients)
            .map(|_| {
                let m: UnitMask = (0..n).map(|_| rng.uniform(0.0, 1.0) > 0.3).collect();
                m.words().to_vec()
            })
            .collect();
        let weights: Vec<f64> = (0..clients).map(|_| rng.uniform(0.1, 3.0) as f64).collect();
        let updates: Vec<MaskedUpdate<'_>> = masks
            .iter()
            .zip(&weights)
            .map(|(m, &w)| MaskedUpdate {
                params: &base,
                param_mask: Some(m),
                weight: w,
            })
            .collect();
        let mut global = base.clone();
        let mut acc = OnlineAggregator::new(n);
        updates.iter().for_each(|u| acc.push(u));
        acc.finish_into(&mut global);
        for (g, b) in global.iter().zip(&base) {
            prop_assert!((g - b).abs() < 1e-5);
        }
    }

    /// The aggregate lies within the per-parameter min/max envelope of
    /// the previous global and all covering updates (convexity).
    #[test]
    fn aggregation_is_convex(
        n in 1usize..32,
        clients in 1usize..4,
        seed in 0u64..500,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let prev: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let params: Vec<Vec<f32>> = (0..clients)
            .map(|_| (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect())
            .collect();
        let updates: Vec<MaskedUpdate<'_>> = params
            .iter()
            .map(|p| MaskedUpdate {
                params: p,
                param_mask: None,
                weight: 1.0,
            })
            .collect();
        let mut global = prev.clone();
        let mut acc = OnlineAggregator::new(n);
        updates.iter().for_each(|u| acc.push(u));
        acc.finish_into(&mut global);
        for i in 0..n {
            let mut lo = prev[i];
            let mut hi = prev[i];
            for p in &params {
                lo = lo.min(p[i]);
                hi = hi.max(p[i]);
            }
            prop_assert!(global[i] >= lo - 1e-5 && global[i] <= hi + 1e-5);
        }
    }

    /// keep_counts always yields between 1 and n_i active units and is
    /// monotone in the keep ratio.
    #[test]
    fn keep_counts_bounds_and_monotonicity(
        widths in proptest::collection::vec(1usize..128, 1..6),
        a in 0.01f64..1.0,
        b in 0.01f64..1.0,
    ) {
        let units = MaskableUnits(widths.clone());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let ca = units.keep_counts(lo);
        let cb = units.keep_counts(hi);
        for ((&n, &x), &y) in widths.iter().zip(&ca).zip(&cb) {
            prop_assert!(x >= 1 && x <= n);
            prop_assert!(y >= x, "monotone: keep {lo} gives {x}, {hi} gives {y}");
        }
        let mask = probe_mask(&units, lo);
        prop_assert_eq!(mask.active_counts(&units), ca);
    }

    /// select_layer_mask returns exactly k active units and always
    /// includes the requested top contributors when unforced.
    #[test]
    fn selection_cardinality_and_top_inclusion(
        n in 4usize..256,
        seed in 0u64..500,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let contributions: Vec<f32> = (0..n).map(|_| rng.uniform(0.0, 10.0)).collect();
        let k = (n / 3).max(2);
        let top = (k / 5).max(1);
        let mask = select_layer_mask(&contributions, k, top, &[], &mut rng);
        prop_assert_eq!(mask.count_ones(), k);
        // The single largest contributor is always selected.
        let argmax = (0..n)
            .max_by(|&a, &b| contributions[a].partial_cmp(&contributions[b]).unwrap())
            .unwrap();
        prop_assert!(mask.get(argmax));
    }

    /// A SoftTrainer mask always has the planned active counts, whatever
    /// the contribution history.
    #[test]
    fn soft_trainer_mask_counts_are_stable(
        widths in proptest::collection::vec(2usize..64, 1..4),
        keep in 0.05f64..1.0,
        p_s in 0.0f64..1.0,
        seed in 0u64..200,
    ) {
        let units = MaskableUnits(widths.clone());
        let mut trainer = SoftTrainer::new(
            units.clone(),
            keep,
            p_s,
            true,
            TensorRng::seed_from(seed),
        ).expect("valid parameters");
        let expected = units.keep_counts(keep);
        let mut contributions: Vec<Vec<f32>> =
            widths.iter().map(|&n| vec![0.0; n]).collect();
        let mut rng = TensorRng::seed_from(seed ^ 1);
        for round in 0..6 {
            let mask = if round == 0 {
                trainer.next_mask(None)
            } else {
                trainer.next_mask(Some(&contributions))
            };
            trainer.observe(&mask);
            prop_assert_eq!(mask.active_counts(&units), expected.clone());
            for layer in &mut contributions {
                for u in layer.iter_mut() {
                    *u = rng.uniform(0.0, 1.0);
                }
            }
        }
    }

    /// Parameter-vector round trips preserve every model in the zoo.
    #[test]
    fn param_vector_round_trip_all_models(seed in 0u64..50) {
        let mut rng = TensorRng::seed_from(seed);
        for net in [
            models::lenet(10, &mut rng),
            models::alexnet(10, &mut rng),
            models::resnet18(20, &mut rng),
        ] {
            let mut copy = net.clone();
            let v = net.param_vector();
            prop_assert_eq!(v.len(), net.param_len());
            copy.set_param_vector(&v).expect("round trip");
            prop_assert_eq!(copy.param_vector(), v);
        }
    }

    /// Every neuron's parameter indices are disjoint and in-bounds across
    /// the whole layout, for every architecture.
    #[test]
    fn neuron_indices_partition_is_disjoint(seed in 0u64..20) {
        let mut rng = TensorRng::seed_from(seed);
        for net in [
            models::lenet(4, &mut rng),
            models::alexnet(4, &mut rng),
            models::resnet18(4, &mut rng),
        ] {
            let layout = net.layout();
            let mut claimed = vec![false; layout.total_params()];
            let ids = layout.groups().iter().enumerate().flat_map(|(group, g)| {
                (0..g.units()).map(move |unit| NeuronId { group, unit })
            });
            for id in ids {
                for idx in layout.neuron_param_indices(id) {
                    prop_assert!(idx < claimed.len());
                    prop_assert!(!claimed[idx], "index {idx} claimed twice");
                    claimed[idx] = true;
                }
            }
            // Every parameter belongs to exactly one neuron.
            prop_assert!(claimed.iter().all(|&c| c));
        }
    }

    /// A probe mask's active counts survive a trip through the network's
    /// param_mask expansion: inactive parameter count equals the sum of
    /// masked-out units' parameters.
    #[test]
    fn param_mask_size_is_consistent(keep in 0.1f64..0.9) {
        let mut rng = TensorRng::seed_from(3);
        let net = models::lenet(10, &mut rng);
        let units = net.maskable_units();
        let layout = net.layout();
        let mask: ModelMask = probe_mask(&units, keep);
        let pm = layout.param_mask(&mask);
        let inactive = pm.len() - pm.count_ones();
        let mut expected = 0usize;
        for (gi, group) in layout.groups().iter().enumerate() {
            let Some(mid) = group.maskable_id() else { continue };
            for unit in 0..group.units() {
                if !mask.is_active(mid, unit) {
                    expected += layout
                        .neuron_param_indices(NeuronId { group: gi, unit })
                        .len();
                }
            }
        }
        prop_assert_eq!(inactive, expected);
    }

    /// Matmul output is bitwise identical at every thread width, for
    /// random shapes straddling the engine's small-work cutoff.
    #[test]
    fn matmul_parity_random_shapes_and_widths(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        threads in 2usize..9,
        seed in 0u64..500,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let a = uniform_init(&[m, k], -1.0, 1.0, &mut rng);
        let b = uniform_init(&[k, n], -1.0, 1.0, &mut rng);
        let serial = with_threads(1, || a.matmul(&b)).expect("matmul");
        let parallel = with_threads(threads, || a.matmul(&b)).expect("matmul");
        prop_assert!(
            bitwise_equal(&serial, &parallel),
            "matmul [{m},{k}]x[{k},{n}] diverges at {threads} threads"
        );
    }

    /// conv2d forward and backward are bitwise identical at every thread
    /// width, for random geometry.
    #[test]
    fn conv_parity_random_shapes_and_widths(
        batch in 1usize..5,
        c in 1usize..4,
        h in 5usize..14,
        o in 1usize..6,
        threads in 2usize..9,
        seed in 0u64..500,
    ) {
        let spec = ConvSpec::new(c, o, 3, 1, 1);
        let (oh, ow) = spec.output_hw(h, h);
        let mut rng = TensorRng::seed_from(seed);
        let x = uniform_init(&[batch, c, h, h], -1.0, 1.0, &mut rng);
        let w = uniform_init(&spec.weight_dims(), -0.5, 0.5, &mut rng);
        let bias = uniform_init(&[o], -0.1, 0.1, &mut rng);
        let gout = uniform_init(&[batch, o, oh, ow], -1.0, 1.0, &mut rng);
        let fwd_s = with_threads(1, || conv2d(&x, &w, &bias, &spec)).expect("fwd");
        let bwd_s = with_threads(1, || conv2d_backward(&x, &w, &gout, &spec)).expect("bwd");
        let fwd_p = with_threads(threads, || conv2d(&x, &w, &bias, &spec)).expect("fwd");
        let bwd_p =
            with_threads(threads, || conv2d_backward(&x, &w, &gout, &spec)).expect("bwd");
        prop_assert!(bitwise_equal(&fwd_s, &fwd_p), "conv2d forward diverges");
        prop_assert!(bitwise_equal(&bwd_s.grad_input, &bwd_p.grad_input), "dX diverges");
        prop_assert!(bitwise_equal(&bwd_s.grad_weight, &bwd_p.grad_weight), "dW diverges");
        prop_assert!(bitwise_equal(&bwd_s.grad_bias, &bwd_p.grad_bias), "db diverges");
    }

    /// Determinism regression: a federated run with the same seed yields
    /// identical metrics records and a bitwise-identical global model
    /// whatever the thread budget.
    #[test]
    fn run_metrics_independent_of_thread_budget(
        threads in 2usize..9,
        seed in 0u64..40,
    ) {
        let build = |budget: usize| -> FlEnv {
            let mut rng = TensorRng::seed_from(seed);
            let (train, test) = SyntheticVision::mnist_like()
                .generate(24, 12, &mut rng)
                .expect("generate");
            let shards: Vec<Dataset> = partition::iid(train.len(), 2, &mut rng)
                .into_iter()
                .map(|idx| train.subset(&idx).expect("subset"))
                .collect();
            FlEnv::new(
                ModelKind::LeNet,
                presets::mixed_fleet(1, 1),
                shards,
                test,
                FlConfig {
                    seed,
                    batch_size: 8,
                    parallelism: ParallelismConfig::with_threads(budget),
                    ..FlConfig::default()
                },
            )
            .expect("env")
        };
        let mut serial_env = build(1);
        let mut parallel_env = build(threads);
        let serial = SyncFedAvg::new().run(&mut serial_env, 1).expect("run");
        let parallel = SyncFedAvg::new().run(&mut parallel_env, 1).expect("run");
        prop_assert_eq!(serial.records(), parallel.records());
        for (x, y) in serial_env.global().iter().zip(parallel_env.global()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
