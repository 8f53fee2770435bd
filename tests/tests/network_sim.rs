//! Simulated-network integration suite: transport transparency, lossy
//! degradation, and codec roundtrip properties.
//!
//! The headline invariant: with faults disabled and ideal links, routing
//! every round through `helios_net` is **bitwise identical** — same
//! global parameters, same metrics — to the direct in-memory exchange,
//! at every thread width. Lossy links must degrade gracefully (missed
//! cycles, never panics or corrupted aggregates).

use helios_core::{HeliosConfig, HeliosStrategy};
use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_device::SimTime;
use helios_fl::{
    CompressionConfig, CompressionMode, FaultConfig, FlConfig, FlEnv, FlError, LinkProfile,
    LocalUpdate, NetConfig, RunMetrics, Strategy, SyncFedAvg,
};
use helios_integration::{global_bits, missed_by_device};
use helios_net::{codec, NetError};
use helios_nn::models::ModelKind;
use helios_obs::RingBufferSink;
use helios_tensor::{ParallelismConfig, TensorRng, UnitMask};
use proptest::prelude::*;

const SEED: u64 = 2024;
const CYCLES: usize = 3;

fn make_env(seed: u64, threads: usize, net: NetConfig) -> FlEnv {
    make_fleet_env(seed, threads, net, 2, 1)
}

fn make_fleet_env(
    seed: u64,
    threads: usize,
    net: NetConfig,
    capable: usize,
    stragglers: usize,
) -> FlEnv {
    let clients = capable + stragglers;
    let mut rng = TensorRng::seed_from(seed);
    let (train, test) = SyntheticVision::mnist_like()
        .generate(30 * clients, 30, &mut rng)
        .expect("dataset");
    let shards: Vec<Dataset> = partition::iid(train.len(), clients, &mut rng)
        .into_iter()
        .map(|idx| train.subset(&idx).expect("subset"))
        .collect();
    FlEnv::new(
        ModelKind::LeNet,
        presets::mixed_fleet(capable, stragglers),
        shards,
        test,
        FlConfig {
            seed,
            parallelism: ParallelismConfig::with_threads(threads),
            net,
            ..FlConfig::default()
        },
    )
    .expect("env")
}

fn run_helios(env: &mut FlEnv) -> RunMetrics {
    HeliosStrategy::new(HeliosConfig::default())
        .run(env, CYCLES)
        .expect("helios run")
}

/// Fault-free Helios through the transport is bitwise identical to the
/// direct path — parameters and metrics — at 1/2/4/8 threads.
#[test]
fn faultless_routed_helios_matches_direct_bitwise() {
    let mut direct = make_env(SEED, 1, NetConfig::default());
    let direct_metrics = run_helios(&mut direct);
    let direct_bits = global_bits(&direct);
    for threads in [1usize, 2, 4, 8] {
        let routed_cfg = NetConfig {
            enabled: true,
            ..NetConfig::default()
        };
        let mut routed = make_env(SEED, threads, routed_cfg);
        let routed_metrics = run_helios(&mut routed);
        assert_eq!(
            direct_metrics.records(),
            routed_metrics.records(),
            "metrics must match at {threads} threads"
        );
        assert_eq!(
            direct_bits,
            global_bits(&routed),
            "global parameters must be bitwise identical at {threads} threads"
        );
        // The exchange genuinely went over the wire.
        let stats = routed.transport().expect("transport").stats();
        assert!(stats.bytes_on_wire > 0);
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.timeouts, 0);
    }
}

/// Same-seed lossy runs replay identically (determinism contract), and
/// a fleet behind a lossy, constrained link completes without panicking
/// while the transport logs its retries.
#[test]
fn lossy_links_degrade_gracefully_and_deterministically() {
    let lossy = NetConfig {
        enabled: true,
        link: LinkProfile::constrained(2e6, 0.05).with_jitter(0.02),
        faults: FaultConfig {
            drop_prob: 0.25,
            corrupt_prob: 0.15,
            delay_prob: 0.2,
            max_extra_delay_s: 0.5,
        },
        max_retries: 2,
        ..NetConfig::default()
    };
    let mut a = make_env(SEED + 1, 2, lossy);
    let mut b = make_env(SEED + 1, 2, lossy);
    let ma = SyncFedAvg::new().run(&mut a, CYCLES).expect("lossy run");
    let mb = SyncFedAvg::new().run(&mut b, CYCLES).expect("lossy run");
    assert_eq!(ma.records(), mb.records(), "same seed ⇒ same lossy run");
    assert_eq!(global_bits(&a), global_bits(&b));
    let stats = a.transport().expect("transport").stats();
    assert!(
        stats.retries > 0 || stats.drops > 0 || stats.corruptions_detected > 0,
        "these fault rates must trip at least once: {stats:?}"
    );
    println!(
        "lossy run: retries {} drops {} corrupt {} failures {} timeouts {}",
        stats.retries, stats.drops, stats.corruptions_detected, stats.failures, stats.timeouts
    );
    // Every cycle still produced a record, even if someone missed it.
    assert_eq!(ma.records().len(), CYCLES);
    for r in ma.records() {
        assert!(r.participants <= 3);
    }
}

/// A deadline tight enough to cut off the constrained device marks it as
/// having missed the cycle (a timeout, not an error) and the round still
/// aggregates the on-time participants.
#[test]
fn round_timeout_drops_slow_participant_without_error() {
    let cfg = NetConfig {
        enabled: true,
        round_timeout_s: Some(20.0),
        ..NetConfig::default()
    };
    let mut env = make_env(SEED + 2, 1, cfg);
    // The straggler (client 2) gets a link so slow its exchange alone
    // blows the deadline; capable clients keep ideal links.
    env.set_link(2, LinkProfile::constrained(1e4, 1.0)).unwrap();
    let ring = RingBufferSink::with_capacity(1 << 16);
    let handle = helios_obs::install(Box::new(ring.clone()));
    let metrics = SyncFedAvg::new().run(&mut env, 2).expect("timeout run");
    drop(handle);
    let stats = env.transport().expect("transport").stats();
    assert!(stats.timeouts > 0, "deadline must trip: {stats:?}");
    for r in metrics.records() {
        assert_eq!(r.participants, 2, "only the on-time clients aggregate");
    }
    assert_eq!(missed_by_device(&ring.records()), [(2, 2)].into());
}

/// The benchmark's `fleet_lossy` link and fault profile under `mode`.
fn fleet_lossy_net(mode: CompressionMode) -> NetConfig {
    NetConfig {
        enabled: true,
        link: LinkProfile::constrained(2e6, 0.05),
        faults: FaultConfig {
            drop_prob: 0.05,
            corrupt_prob: 0.05,
            delay_prob: 0.1,
            max_extra_delay_s: 0.5,
        },
        round_timeout_s: Some(2.2),
        compression: CompressionConfig {
            mode,
            topk_ratio: 0.25,
        },
        ..NetConfig::default()
    }
}

const ROUTED_CLIENTS: usize = 11;

/// One trained update per client of an 11-device fleet, every third one
/// soft-trained (masked-out entries hold the broadcast global), plus
/// compute spans of which the last overruns the round deadline.
fn routed_inputs() -> (Vec<LocalUpdate>, Vec<SimTime>) {
    let mut env = make_fleet_env(SEED, 1, NetConfig::default(), 8, 3);
    let everyone: Vec<usize> = (0..ROUTED_CLIENTS).collect();
    let mut updates = env.train_selected(&everyone).expect("train");
    for u in updates.iter_mut().step_by(3) {
        let mask: UnitMask = (0..u.params.len()).map(|j| j % 5 != u.client % 5).collect();
        for j in (0..mask.len()).filter(|&j| !mask.get(j)) {
            u.params[j] = env.global()[j];
        }
        u.param_mask = Some(mask.words().to_vec());
    }
    let mut compute: Vec<SimTime> = (0..ROUTED_CLIENTS)
        .map(|i| SimTime::from_secs(0.2 + 0.05 * i as f64))
        .collect();
    compute[ROUTED_CLIENTS - 1] = SimTime::from_secs(3.0);
    (updates, compute)
}

/// What one routed cycle exposes, as exactly comparable values.
type RoutedBits = (Vec<(usize, Vec<u32>, Option<Vec<u64>>)>, Vec<usize>, u64);

/// `route_updates` fans encode and decode out across the thread budget;
/// delivered parameters, their order, the missed list, the round span,
/// and the transport's counters must not depend on the width.
#[test]
fn routed_cycles_are_bitwise_equal_across_thread_widths_for_every_mode() {
    let (updates, compute) = routed_inputs();
    for mode in [CompressionMode::None, CompressionMode::TopK] {
        let route = |threads: usize| {
            let mut env = make_fleet_env(SEED, threads, fleet_lossy_net(mode), 8, 3);
            let cycles: Vec<RoutedBits> = (0..3)
                .map(|cycle| {
                    let routed = env
                        .route_updates(cycle, updates.clone(), &compute)
                        .expect("route");
                    let delivered = routed
                        .updates
                        .into_iter()
                        .map(|u| {
                            let bits = u.params.iter().map(|p| p.to_bits()).collect();
                            (u.client, bits, u.param_mask)
                        })
                        .collect();
                    let span = routed.cycle_time.as_secs_f64().to_bits();
                    (delivered, routed.missed, span)
                })
                .collect();
            (cycles, *env.transport().expect("transport").stats())
        };
        let (reference, stats) = route(1);
        assert!(stats.retries > 0, "{mode:?}: the fault profile must trip");
        for (delivered, missed, _) in &reference {
            assert!(missed.contains(&(ROUTED_CLIENTS - 1)), "{mode:?}: deadline");
            assert_eq!(delivered.len() + missed.len(), ROUTED_CLIENTS);
        }
        for threads in [2usize, 4, 8] {
            let (cycles, wide_stats) = route(threads);
            assert_eq!(cycles, reference, "{mode:?} at {threads} threads");
            assert_eq!(wide_stats, stats, "{mode:?} at {threads} threads");
        }
    }
}

/// With two malformed updates in one cycle, the error reported is the
/// earlier participant's, whichever worker reaches its slot first.
#[test]
fn first_malformed_update_in_participant_order_wins_at_every_width() {
    let (mut updates, compute) = routed_inputs();
    updates[2].param_mask = Some(vec![u64::MAX; 3]);
    updates[9].param_mask = Some(vec![u64::MAX; 5]);
    for threads in [1usize, 2, 4, 8] {
        let net = fleet_lossy_net(CompressionMode::None);
        let mut env = make_fleet_env(SEED, threads, net, 8, 3);
        let err = env.route_updates(0, updates.clone(), &compute).unwrap_err();
        assert!(
            matches!(
                err,
                FlError::Net(NetError::MaskLengthMismatch { mask: 3, .. })
            ),
            "at {threads} threads: {err}"
        );
        // Nothing reached the wire.
        assert_eq!(env.transport().expect("transport").stats().messages, 0);
    }
}

/// Special values guaranteed present in every codec case, on
/// top of the randomly drawn bit patterns.
const SPECIAL_BITS: [u32; 6] = [
    0x7fc0_0000, // quiet NaN
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x8000_0000, // -0.0
    0x0000_0001, // smallest subnormal
    0x7f7f_ffff, // f32::MAX
];

proptest! {
    /// Full-frame wire roundtrip is bitwise exact for arbitrary bit
    /// patterns — NaN payloads, infinities, subnormals included.
    #[test]
    fn wire_codec_full_roundtrip_is_bitwise(
        bits in proptest::collection::vec(0u32..u32::MAX, 0..96),
        sender in 0u32..1000,
        cycle in 0u32..1000,
    ) {
        let mut all = SPECIAL_BITS.to_vec();
        all.extend(bits);
        let params: Vec<f32> = all.iter().map(|&b| f32::from_bits(b)).collect();
        let frame = codec::encode_full(sender, cycle, &params).unwrap();
        prop_assert!(codec::verify(&frame));
        let decoded = codec::decode(&frame).unwrap();
        prop_assert_eq!(decoded.sender, sender);
        prop_assert_eq!(decoded.cycle, cycle);
        let base = vec![0.0f32; params.len()];
        let out = decoded.into_params(&base).unwrap();
        let out_bits: Vec<u32> = out.iter().map(|p| p.to_bits()).collect();
        prop_assert_eq!(out_bits, all);
    }

    /// Masked-frame roundtrip: reconstructing against the receiver's
    /// base restores the sender's full vector bit-for-bit, and the
    /// masked frame is never larger than the full one.
    #[test]
    fn wire_codec_masked_roundtrip_is_bitwise(
        entries in proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX, 0u32..100), 1..96),
        seed in 0u64..1000,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let base: Vec<f32> = entries.iter().map(|&(b, _, _)| f32::from_bits(b)).collect();
        let mask: UnitMask = entries.iter().map(|&(_, _, m)| m < 40).collect();
        // The soft-training invariant: masked-out entries of the upload
        // still hold the broadcast base values.
        let params: Vec<f32> = entries
            .iter()
            .enumerate()
            .map(|(i, &(b, a, _))| if mask.get(i) { f32::from_bits(a) } else { f32::from_bits(b) })
            .collect();
        let frame = codec::encode_masked(7, 3, &params, mask.words()).unwrap();
        let full = codec::encode_full(7, 3, &params).unwrap();
        prop_assert!(frame.len() <= full.len());
        let decoded = codec::decode(&frame).unwrap();
        let out = decoded.into_params(&base).unwrap();
        for (o, p) in out.iter().zip(&params) {
            prop_assert_eq!(o.to_bits(), p.to_bits());
        }
        // Unrelated: the RNG draw keeps seeds exercised for shuffles.
        let _ = rng.unit_f64();
    }
}
