//! Fleet-scale contracts: lazy-vs-eager bitwise equivalence, sampling
//! determinism and statistics, streaming-aggregation parity, and Helios
//! straggler identification on sampled cohorts.
//!
//! The lazy population ([`helios_fl::FleetSpec`] behind
//! `FlEnv::new_lazy`) promises to be an *implementation detail*: a run
//! over lazily materialized devices must be bit-identical to the same
//! run over an eagerly constructed fleet built from the same pure
//! generators, for every strategy and at every thread width. The
//! per-round [`helios_fl::ClientSampler`] promises deterministic replay
//! (same seed ⇒ same cohort sequence, regardless of threads or process
//! restarts) and sane statistics (uniform coverage). The streaming
//! [`helios_fl::OnlineAggregator`] promises to equal
//! collect-then-average bitwise on the real update streams of all five
//! strategies, dropped updates included.

use helios_core::{HeliosConfig, HeliosStrategy};
use helios_data::{partition, Dataset, ShardSynthesizer, SyntheticVision};
use helios_device::{presets, ProfileSynthesizer};
use helios_fl::{
    Afo, AsyncFl, AvailabilityModel, ClientSampler, FaultConfig, FlConfig, FlEnv, FlError,
    FleetSpec, LinkProfile, MaskedUpdate, NetConfig, OnlineAggregator, RandomPartial, Result,
    RoundPolicy, RoutedCycle, RunMetrics, SamplerConfig, Strategy, SyncFedAvg,
};
use helios_integration::{bits, THREAD_WIDTHS};
use helios_nn::models::ModelKind;
use helios_tensor::{ParallelismConfig, TensorRng};
use proptest::prelude::*;

/// The pure generators of a test fleet: `population` devices, ~30%
/// stragglers, 6-sample shards.
fn fleet_spec(population: usize, seed: u64) -> FleetSpec {
    FleetSpec::new(
        population,
        ProfileSynthesizer::new(seed, 0.3),
        ShardSynthesizer::new(SyntheticVision::mnist_like(), 6, seed).expect("shards"),
    )
}

fn fl_config(seed: u64, threads: usize, sampling: SamplerConfig) -> FlConfig {
    FlConfig {
        seed,
        parallelism: ParallelismConfig::with_threads(threads),
        sampling,
        ..FlConfig::default()
    }
}

/// Builds the lazy environment and its eager twin from the *same* pure
/// generators, so any observable difference between the two is a bug in
/// the lazy path.
fn lazy_and_eager_twin(spec: &FleetSpec, config: FlConfig) -> (FlEnv, FlEnv) {
    let test = spec.shards.test_set(20).expect("test set");
    let fleet: Vec<_> = (0..spec.population)
        .map(|i| spec.profiles.profile(i))
        .collect();
    let shards: Vec<Dataset> = (0..spec.population)
        .map(|i| spec.shards.shard(i).expect("shard"))
        .collect();
    let eager = FlEnv::new(
        ModelKind::LeNet,
        fleet,
        shards,
        test.clone(),
        config.clone(),
    )
    .expect("eager");
    let lazy = FlEnv::new_lazy(ModelKind::LeNet, spec.clone(), test, config).expect("lazy");
    (lazy, eager)
}

/// A fresh instance of the `which`-th of the five collaboration
/// strategies, sized for an `n`-device fleet.
fn make_strategy(which: usize, n: usize) -> Box<dyn Strategy> {
    let ratios = (0..n)
        .map(|i| if i % 2 == 1 { Some(0.5) } else { None })
        .collect();
    match which {
        0 => Box::new(SyncFedAvg::new()),
        1 => Box::new(RandomPartial::new(ratios)),
        2 => Box::new(AsyncFl::new(vec![n - 1])),
        3 => Box::new(Afo::new(vec![n - 1])),
        _ => Box::new(HeliosStrategy::new(HeliosConfig::default())),
    }
}

/// The tentpole guarantee: for every strategy, a lazy fleet replays the
/// eager fleet bit-for-bit — metrics and final global parameters — at
/// 1/2/4/8 worker threads (the eager reference runs serially).
#[test]
fn lazy_fleet_matches_eager_twin_bitwise_for_every_strategy() {
    const SEED: u64 = 4207;
    const N: usize = 6;
    const CYCLES: usize = 3;
    let spec = fleet_spec(N, SEED);
    for which in 0..5 {
        let (_, mut eager) =
            lazy_and_eager_twin(&spec, fl_config(SEED, 1, SamplerConfig::default()));
        let reference = make_strategy(which, N)
            .run(&mut eager, CYCLES)
            .expect("eager reference run");
        for threads in THREAD_WIDTHS {
            let mut strategy = make_strategy(which, N);
            let (mut lazy, _) =
                lazy_and_eager_twin(&spec, fl_config(SEED, threads, SamplerConfig::default()));
            let metrics = strategy.run(&mut lazy, CYCLES).expect("lazy run");
            assert_eq!(
                metrics,
                reference,
                "{}: lazy metrics diverged from eager at {threads} threads",
                strategy.name()
            );
            assert_eq!(
                bits(lazy.global()),
                bits(eager.global()),
                "{}: lazy global parameters diverged at {threads} threads",
                strategy.name()
            );
        }
    }
}

/// Cohort materialization fans out across the thread budget; at every
/// width the clients it builds — profile, shard, model replica, and the
/// shuffle stream their first training step draws from — are the eager
/// constructor's, bit for bit. Clients are retained, as the eager twin
/// retains them, so later cycles fan out over only the newly sampled.
#[test]
fn parallel_cohort_materialization_matches_eager_clients_bitwise() {
    const SEED: u64 = 977;
    const POPULATION: usize = 48;
    const COHORT: usize = 16;
    let spec = fleet_spec(POPULATION, SEED);
    for threads in THREAD_WIDTHS {
        let (mut lazy, mut eager) = lazy_and_eager_twin(
            &spec,
            fl_config(SEED, threads, SamplerConfig::uniform(COHORT)),
        );
        for cycle in 0..2 {
            let cohort = lazy.select_cohort(cycle).expect("lazy cohort");
            assert_eq!(cohort, eager.select_cohort(cycle).expect("eager cohort"));
            for &i in &cohort {
                let (l, e) = (
                    lazy.client(i).expect("lazy"),
                    eager.client(i).expect("eager"),
                );
                assert_eq!(l.id(), e.id());
                assert_eq!(l.profile(), e.profile(), "client {i} at {threads} threads");
                assert_eq!(l.dataset().labels(), e.dataset().labels());
                assert_eq!(
                    bits(l.dataset().images().as_slice()),
                    bits(e.dataset().images().as_slice())
                );
                assert_eq!(
                    bits(&l.network().param_vector()),
                    bits(&e.network().param_vector())
                );
                assert_eq!(l.cycle_time(), e.cycle_time());
            }
            let trained_lazy = lazy.train_selected(&cohort).expect("lazy train");
            let trained_eager = eager.train_selected(&cohort).expect("eager train");
            for (l, e) in trained_lazy.iter().zip(&trained_eager) {
                assert_eq!(l.client, e.client);
                assert_eq!(
                    bits(&l.params),
                    bits(&e.params),
                    "client {} cycle {cycle} at {threads} threads",
                    l.client
                );
            }
        }
    }
}

proptest! {
    /// Lazy-vs-eager equivalence holds with sampling enabled too, over
    /// random seeds, fleet sizes, cohort sizes, and thread widths.
    #[test]
    fn sampled_lazy_matches_sampled_eager(
        seed in 0u64..1_000,
        n in 2usize..4,
        k in 1usize..3,
        width_idx in 0usize..4,
    ) {
        let spec = fleet_spec(n, seed);
        let sampling = SamplerConfig::uniform(k.min(n));
        let threads = THREAD_WIDTHS[width_idx];
        let (mut lazy, mut eager) =
            lazy_and_eager_twin(&spec, fl_config(seed, threads, sampling));
        let a = SyncFedAvg::new().run(&mut lazy, 2).expect("lazy run");
        let b = SyncFedAvg::new().run(&mut eager, 2).expect("eager run");
        prop_assert_eq!(a, b);
        prop_assert_eq!(bits(lazy.global()), bits(eager.global()));
        prop_assert!(lazy.materialized_clients() <= n);
    }
}

/// Same seed ⇒ identical cohort sequence, across independent
/// environments and thread widths; and consecutive cycles draw
/// different cohorts.
#[test]
fn cohort_sequence_replays_bitwise_across_runs_and_thread_widths() {
    const SEED: u64 = 611;
    const POPULATION: usize = 64;
    const CYCLES: usize = 6;
    let spec = fleet_spec(POPULATION, SEED);
    let draw_sequence = |threads: usize| -> Vec<Vec<usize>> {
        let test = spec.shards.test_set(10).expect("test set");
        let mut env = FlEnv::new_lazy(
            ModelKind::LeNet,
            spec.clone(),
            test,
            fl_config(SEED, threads, SamplerConfig::uniform(8)),
        )
        .expect("lazy env");
        (0..CYCLES)
            .map(|c| env.select_cohort(c).expect("cohort"))
            .collect()
    };
    let reference = draw_sequence(1);
    assert_eq!(reference.len(), CYCLES);
    for cohort in &reference {
        assert_eq!(cohort.len(), 8, "exact cohort size");
        assert!(cohort.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
    }
    assert!(
        (1..CYCLES).any(|c| reference[c] != reference[0]),
        "cycles must not all draw the same cohort"
    );
    for threads in [2usize, 4, 8] {
        assert_eq!(
            draw_sequence(threads),
            reference,
            "cohort sequence changed at {threads} threads"
        );
    }
}

/// Uniform sampling covers a 10k-device population evenly over 200
/// rounds of 500: no device is starved or favored, and the dispersion
/// of per-device selection counts is consistent with a uniform draw.
#[test]
fn uniform_sampling_covers_the_population_evenly() {
    const POPULATION: usize = 10_000;
    const ROUNDS: usize = 200;
    const K: usize = 500;
    let sampler = ClientSampler::new(SamplerConfig::uniform(K), 9_241);
    let always_on = AvailabilityModel::always_on();
    let mut counts = vec![0u32; POPULATION];
    for cycle in 0..ROUNDS {
        let cohort = sampler.cohort(POPULATION, cycle, &always_on);
        assert_eq!(cohort.len(), K);
        for &d in &cohort {
            counts[d] += 1;
        }
    }
    // Expected selections per device: 200 * 500 / 10_000 = 10.
    let expected = (ROUNDS * K) as f64 / POPULATION as f64;
    let never = counts.iter().filter(|&&c| c == 0).count();
    assert!(
        never <= 5,
        "{never} devices never sampled (expected ~0.35 under uniformity)"
    );
    let max = counts.iter().copied().max().unwrap_or(0);
    assert!(
        max <= 35,
        "some device sampled {max} times (expected ~10 under uniformity)"
    );
    // Pearson dispersion statistic, sum((observed - expected)^2 /
    // expected). Per-round sampling is without replacement, so the
    // per-device variance is rounds * (k/n) * (1 - k/n) = 9.5 and the
    // statistic concentrates near cells * 9.5/10 = 9_500 with a
    // standard deviation of ~134; the window below is ~±7 sigma.
    let chi2: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    assert!(
        (8_500.0..=10_500.0).contains(&chi2),
        "dispersion statistic {chi2:.1} outside the uniform window"
    );
}

/// Wraps a policy and checks, at every aggregation, that the streaming
/// [`OnlineAggregator`] fold over the cycle's *real* routed updates is
/// bitwise identical to an independently implemented
/// collect-then-average; for the plain-FedAvg policies it additionally
/// checks the policy's own aggregation equals that reference.
struct StreamParity<P> {
    inner: P,
    /// Whether `inner` aggregates with plain sample-count FedAvg (so
    /// the reference must equal the post-aggregate global exactly).
    plain_fedavg: bool,
    cycles_checked: usize,
    missed_updates: usize,
}

impl<P> StreamParity<P> {
    fn new(inner: P, plain_fedavg: bool) -> Self {
        StreamParity {
            inner,
            plain_fedavg,
            cycles_checked: 0,
            missed_updates: 0,
        }
    }
}

/// Reference collect-then-average, written out from the aggregation
/// rule itself (per-index weighted mean over covering updates, in
/// update order; uncovered indices keep the old global value) — it
/// shares no code with [`OnlineAggregator`].
fn collect_then_average(global: &[f32], routed: &RoutedCycle) -> Vec<f32> {
    let n = global.len();
    let mut num = vec![0.0f64; n];
    let mut den = vec![0.0f64; n];
    for u in &routed.updates {
        let w = u.num_samples as f64;
        for i in 0..n {
            if u.param_mask
                .as_ref()
                .is_none_or(|m| helios_tensor::mask_bit(m, i))
            {
                num[i] += w * f64::from(u.params[i]);
                den[i] += w;
            }
        }
    }
    (0..n)
        .map(|i| {
            if den[i] > 0.0 {
                (num[i] / den[i]) as f32
            } else {
                global[i]
            }
        })
        .collect()
}

impl<P: RoundPolicy> RoundPolicy for StreamParity<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn begin_run(&mut self, env: &mut FlEnv) -> Result<()> {
        self.inner.begin_run(env)
    }
    fn select(&mut self, env: &mut FlEnv, cycle: usize) -> Result<Vec<usize>> {
        self.inner.select(env, cycle)
    }
    fn broadcast(&mut self, env: &mut FlEnv, cycle: usize, participants: &[usize]) -> Result<()> {
        self.inner.broadcast(env, cycle, participants)
    }
    fn configure_client(&mut self, env: &mut FlEnv, cycle: usize, client: usize) -> Result<()> {
        self.inner.configure_client(env, cycle, client)
    }
    fn aggregate(&mut self, env: &mut FlEnv, cycle: usize, routed: &RoutedCycle) -> Result<()> {
        let before = env.global().to_vec();
        let mut acc = OnlineAggregator::new(before.len());
        for u in &routed.updates {
            acc.push(&MaskedUpdate {
                params: &u.params,
                param_mask: u.param_mask.as_deref(),
                weight: u.num_samples as f64,
            });
        }
        let mut streamed = before.clone();
        acc.finish_into(&mut streamed);
        let reference = collect_then_average(&before, routed);
        assert_eq!(
            bits(&streamed),
            bits(&reference),
            "{}: streaming fold diverged from collect-then-average at cycle {cycle}",
            self.inner.name()
        );
        self.cycles_checked += 1;
        self.missed_updates += routed.missed.len();
        self.inner.aggregate(env, cycle, routed)?;
        if self.plain_fedavg {
            assert_eq!(
                bits(env.global()),
                bits(&reference),
                "{}: policy aggregation diverged from the reference at cycle {cycle}",
                self.inner.name()
            );
        }
        Ok(())
    }
    fn cycle_span(
        &mut self,
        env: &FlEnv,
        cycle: usize,
        routed: &RoutedCycle,
    ) -> Result<helios_device::SimTime> {
        self.inner.cycle_span(env, cycle, routed)
    }
    fn post_cycle(&mut self, env: &mut FlEnv, cycle: usize) -> Result<()> {
        self.inner.post_cycle(env, cycle)
    }
}

/// A lossy networked environment: drops and corruption frequent enough
/// that updates genuinely go missing during the parity runs.
fn lossy_env(seed: u64, clients: usize) -> FlEnv {
    let mut rng = TensorRng::seed_from(seed);
    let (train, test) = SyntheticVision::mnist_like()
        .generate(24 * clients, 20, &mut rng)
        .expect("dataset");
    let shards: Vec<Dataset> = partition::iid(train.len(), clients, &mut rng)
        .into_iter()
        .map(|idx| train.subset(&idx).expect("subset"))
        .collect();
    FlEnv::new(
        ModelKind::LeNet,
        presets::mixed_fleet(clients - 1, 1),
        shards,
        test,
        FlConfig {
            seed,
            net: NetConfig {
                enabled: true,
                link: LinkProfile::constrained(2e6, 0.05),
                faults: FaultConfig {
                    drop_prob: 0.5,
                    corrupt_prob: 0.2,
                    delay_prob: 0.2,
                    max_extra_delay_s: 0.5,
                },
                max_retries: 1,
                ..NetConfig::default()
            },
            ..FlConfig::default()
        },
    )
    .expect("env")
}

/// Streaming aggregation equals collect-then-average bitwise on the
/// live update streams of all five strategies under a lossy network —
/// masked sub-model updates and dropped updates included.
#[test]
fn streaming_aggregation_matches_collect_then_average_for_every_strategy() {
    const SEED: u64 = 7788;
    const N: usize = 4;
    const CYCLES: usize = 3;
    let ratios = (0..N)
        .map(|i| if i % 2 == 1 { Some(0.5) } else { None })
        .collect();
    let wrapped: Vec<(Box<dyn Strategy>, &str)> = vec![
        (
            Box::new(StreamParity::new(SyncFedAvg::new(), true)),
            "sync_fedavg",
        ),
        (
            Box::new(StreamParity::new(RandomPartial::new(ratios), true)),
            "random_partial",
        ),
        (
            Box::new(StreamParity::new(AsyncFl::new(vec![N - 1]), true)),
            "async_fl",
        ),
        (
            Box::new(StreamParity::new(Afo::new(vec![N - 1]), false)),
            "afo",
        ),
        (
            Box::new(StreamParity::new(
                HeliosStrategy::new(HeliosConfig::default()),
                false,
            )),
            "helios",
        ),
    ];
    let mut total_missed = 0usize;
    for (mut strategy, label) in wrapped {
        let mut env = lossy_env(SEED, N);
        let metrics = strategy.run(&mut env, CYCLES).expect("lossy parity run");
        assert_eq!(metrics.records().len(), CYCLES, "{label} completed");
        total_missed += metrics
            .records()
            .iter()
            .map(|r| r.phases.missed)
            .sum::<usize>();
    }
    // The fault mix is aggressive enough that the parity claim was
    // genuinely exercised on incomplete update sets.
    assert!(
        total_missed > 0,
        "lossy runs delivered everything — parity never saw a dropped update"
    );
}

/// Helios straggler identification works cohort-relatively on a sampled
/// lazy fleet: a 16-device population trains 5-device cohorts, the run
/// replays bitwise across thread widths, stragglers get soft-trained,
/// and unsampled devices stay unmaterialized.
#[test]
fn helios_identifies_stragglers_on_sampled_cohorts() {
    const SEED: u64 = 1931;
    const POPULATION: usize = 16;
    const CYCLES: usize = 3;
    let spec = FleetSpec::new(
        POPULATION,
        ProfileSynthesizer::new(SEED, 0.5),
        ShardSynthesizer::new(SyntheticVision::mnist_like(), 6, SEED).expect("shards"),
    );
    let run_at = |threads: usize| -> (RunMetrics, usize, Vec<u32>) {
        let test = spec.shards.test_set(16).expect("test set");
        let mut env = FlEnv::new_lazy(
            ModelKind::LeNet,
            spec.clone(),
            test,
            fl_config(SEED, threads, SamplerConfig::uniform(5)),
        )
        .expect("lazy env");
        let metrics = HeliosStrategy::new(HeliosConfig::default())
            .run(&mut env, CYCLES)
            .expect("sampled helios run");
        (metrics, env.materialized_clients(), bits(env.global()))
    };
    let (reference, materialized, global) = run_at(1);
    assert!(reference.records().iter().all(|r| r.participants <= 5));
    assert!(
        materialized < POPULATION,
        "unsampled devices must stay unmaterialized ({materialized} of {POPULATION})"
    );
    for threads in [2usize, 4, 8] {
        let (metrics, _, g) = run_at(threads);
        assert_eq!(
            metrics, reference,
            "sampled Helios run diverged at {threads} threads"
        );
        assert_eq!(g, global, "global parameters diverged at {threads} threads");
    }
}

/// The asynchronous baselines train every capable device each cycle, so
/// on a sampled fleet they would materialize the whole population: both
/// reject cohort sampling with a typed error before building a client.
#[test]
fn asynchronous_baselines_reject_cohort_sampling() {
    const SEED: u64 = 515;
    const POPULATION: usize = 40;
    let spec = fleet_spec(POPULATION, SEED).evict_unsampled();
    let strategies: [Box<dyn Strategy>; 2] = [
        Box::new(AsyncFl::new(vec![POPULATION - 1])),
        Box::new(Afo::new(vec![POPULATION - 1])),
    ];
    for mut strategy in strategies {
        let test = spec.shards.test_set(8).expect("test set");
        let mut env = FlEnv::new_lazy(
            ModelKind::LeNet,
            spec.clone(),
            test,
            fl_config(SEED, 1, SamplerConfig::uniform(4)),
        )
        .expect("lazy env");
        let err = strategy.run(&mut env, 1);
        assert!(
            matches!(err, Err(FlError::InvalidStrategyConfig { .. })),
            "{}: {err:?}",
            strategy.name()
        );
        assert_eq!(env.materialized_clients(), 0, "{}", strategy.name());
    }
}
