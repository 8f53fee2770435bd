//! Scenario-engine contract: every dynamics axis — churn, throttling,
//! link outages, drift — is driven purely from the declarative
//! [`ScenarioConfig`] timeline, replays bitwise at any thread width, and
//! leaves empty-scenario runs untouched.

use helios_core::{HeliosConfig, HeliosStrategy};
use helios_data::{partition, Dataset, ShardSynthesizer, SyntheticVision};
use helios_device::{presets, ProfileSynthesizer};
use helios_fl::{FlConfig, FlEnv, FleetSpec, NetConfig, SamplerConfig, Strategy, SyncFedAvg};
use helios_integration::{missed_by_device, SharedBuf, THREAD_WIDTHS as WIDTHS};
use helios_nn::models::ModelKind;
use helios_obs::TraceEvent;
use helios_scenario::{
    ChurnAction, ChurnEvent, DriftEvent, DriftKind, OutageWindow, ScenarioConfig, ThrottleRule,
};
use helios_tensor::{ParallelismConfig, TensorRng};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A lazy fleet whose devices (initial population *and* scenario
/// joiners) come from the same pure per-device generators.
fn lazy_env(
    population: usize,
    seed: u64,
    threads: usize,
    sampling: SamplerConfig,
    scenario: ScenarioConfig,
) -> FlEnv {
    let spec = FleetSpec::new(
        population,
        ProfileSynthesizer::new(seed, 0.3),
        ShardSynthesizer::new(SyntheticVision::mnist_like(), 8, seed).expect("shards"),
    );
    let test = spec.shards.test_set(24).expect("test set");
    FlEnv::new_lazy(
        ModelKind::LeNet,
        spec,
        test,
        FlConfig {
            seed,
            sampling,
            scenario,
            parallelism: ParallelismConfig::with_threads(threads),
            ..FlConfig::default()
        },
    )
    .expect("lazy env")
}

/// A two-device eager environment (one capable, one straggler-class).
fn eager_env(seed: u64, threads: usize, scenario: ScenarioConfig) -> FlEnv {
    let clients = 2;
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
        presets::mixed_fleet(1, 1),
        shards,
        test,
        FlConfig {
            seed,
            scenario,
            parallelism: ParallelismConfig::with_threads(threads),
            ..FlConfig::default()
        },
    )
    .expect("eager env")
}

/// A two-device eager environment routed through the simulated
/// transport (ideal links, a generous per-round deadline).
fn netted_env(seed: u64, threads: usize, scenario: ScenarioConfig) -> FlEnv {
    let clients = 2;
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
        presets::mixed_fleet(1, 1),
        shards,
        test,
        FlConfig {
            seed,
            scenario,
            parallelism: ParallelismConfig::with_threads(threads),
            net: NetConfig {
                enabled: true,
                // Generous against any compute span, hopeless against
                // an outage's microbit-per-second trickle link.
                round_timeout_s: Some(1e9),
                ..NetConfig::default()
            },
            ..FlConfig::default()
        },
    )
    .expect("netted env")
}

/// A scheduled link outage blacks out the targeted device for exactly
/// the half-open window — it misses those cycles at the round deadline,
/// emits an `outage` trace event per blacked-out cycle, and gets its
/// configured link back the first cycle after the window closes. The
/// whole run replays byte-identically at every thread width.
#[test]
fn link_outage_window_blacks_out_device_then_restores() {
    let scenario = ScenarioConfig {
        outages: vec![OutageWindow {
            from_cycle: 1,
            until_cycle: 3,
            device: Some(1),
        }],
        ..ScenarioConfig::default()
    };
    let run = |threads: usize| -> (Vec<u8>, Option<f64>) {
        let buf = SharedBuf::default();
        let handle =
            helios_obs::install(Box::new(helios_obs::JsonlSink::new(Box::new(buf.clone()))));
        let mut env = netted_env(41, threads, scenario.clone());
        SyncFedAvg::new().run(&mut env, 5).expect("outage run");
        drop(handle);
        let transport = env.transport().expect("transport");
        let restored = transport.link(1).expect("link 1").bandwidth_bps;
        (buf.take(), restored)
    };
    let (reference, restored) = run(1);
    assert_eq!(
        restored, None,
        "after the window the device is back on its configured (ideal) link"
    );
    // The trace carries one targeted `outage` event per blacked-out
    // cycle — at cycles 1 and 2 and nowhere else.
    let text = String::from_utf8(reference.clone()).expect("utf8");
    let records = helios_obs::parse_jsonl(&text).expect("trace parses");
    helios_obs::report::validate(&records).expect("outage trace validates");
    assert_eq!(
        missed_by_device(&records),
        [(1, 2)].into(),
        "device 1 misses exactly the two windowed cycles, device 0 none"
    );
    let outage_cycles: Vec<u64> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::ScenarioEvent {
                cycle,
                kind,
                device,
                value,
            } if kind == "outage" => {
                assert_eq!(*device, Some(1), "the window targets device 1");
                assert_eq!(*value, 0.0);
                Some(*cycle)
            }
            _ => None,
        })
        .collect();
    assert_eq!(outage_cycles, vec![1, 2], "one event per windowed cycle");
    for threads in &WIDTHS[1..] {
        let (bytes, r) = run(*threads);
        assert_eq!(r, restored);
        assert_eq!(
            bytes, reference,
            "outage run must replay byte-identically at {threads} threads"
        );
    }
}

fn churn_scenario() -> ScenarioConfig {
    ScenarioConfig {
        churn: vec![
            ChurnEvent {
                cycle: 1,
                action: ChurnAction::Join,
                device: 0,
                count: 1,
            },
            ChurnEvent {
                cycle: 2,
                action: ChurnAction::Leave,
                device: 0,
                count: 1,
            },
            ChurnEvent {
                cycle: 4,
                action: ChurnAction::Return,
                device: 0,
                count: 1,
            },
        ],
        ..ScenarioConfig::default()
    }
}

/// Runs `f` with a JSONL trace sink installed; returns its result and
/// the trace bytes.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<u8>) {
    let buf = SharedBuf::default();
    let handle = helios_obs::install(Box::new(helios_obs::JsonlSink::new(Box::new(buf.clone()))));
    let out = f();
    drop(handle); // detach + flush
    (out, buf.take())
}

/// The `(cycle, kind, device)` of every churn `ScenarioEvent` in a
/// JSONL trace, in emission order.
fn churn_events(trace: &[u8]) -> Vec<(u64, String, Option<u64>)> {
    let text = String::from_utf8(trace.to_vec()).expect("utf8");
    let records = helios_obs::parse_jsonl(&text).expect("trace parses");
    records
        .into_iter()
        .filter_map(|r| match r.event {
            TraceEvent::ScenarioEvent {
                cycle,
                kind,
                device,
                ..
            } if ["join", "leave", "return"].contains(&kind.as_str()) => {
                Some((cycle, kind, device))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn churn_timeline_drives_population_and_replays_bitwise() {
    let run = |threads: usize| {
        let mut env = lazy_env(4, 91, threads, SamplerConfig::default(), churn_scenario());
        let (m, trace) = traced(|| SyncFedAvg::new().run(&mut env, 5).expect("churn run"));
        let churn = churn_events(&trace);
        let count = |kind: &str| churn.iter().filter(|(_, k, _)| k == kind).count();
        (m, env.num_clients(), count("leave") - count("return"))
    };
    let (reference, population, offline) = run(1);
    assert_eq!(population, 5, "the join grew the enrolled population");
    assert_eq!(offline, 0, "the departed device returned");
    let participants: Vec<usize> = reference.records().iter().map(|r| r.participants).collect();
    assert_eq!(
        participants,
        vec![4, 5, 4, 4, 5],
        "join at 1, leave at 2, return at 4 shape each cycle's cohort"
    );
    for threads in &WIDTHS[1..] {
        let (m, p, o) = run(*threads);
        assert_eq!((p, o), (population, offline));
        assert_eq!(
            m.records(),
            reference.records(),
            "churn run must replay bitwise at {threads} threads"
        );
    }
}

/// Churn fires by cycle, not by its place in the config: a `Return`
/// listed before its `Leave` still validates, and the device leaves at
/// cycle 2 and comes back at cycle 4.
#[test]
fn churn_listed_out_of_cycle_order_fires_in_cycle_order() {
    let churn = |cycle, action| ChurnEvent {
        cycle,
        action,
        device: 0,
        count: 1,
    };
    let scenario = ScenarioConfig {
        churn: vec![churn(4, ChurnAction::Return), churn(2, ChurnAction::Leave)],
        ..ScenarioConfig::default()
    };
    assert!(
        scenario.validate(4).is_ok(),
        "firing order, not config order"
    );
    let mut env = lazy_env(4, 91, 1, SamplerConfig::default(), scenario);
    let (m, trace) = traced(|| SyncFedAvg::new().run(&mut env, 5).expect("churn run"));
    assert_eq!(
        churn_events(&trace),
        vec![
            (2, "leave".to_string(), Some(0)),
            (4, "return".to_string(), Some(0)),
        ]
    );
    let participants: Vec<usize> = m.records().iter().map(|r| r.participants).collect();
    assert_eq!(participants, vec![4, 4, 3, 3, 4]);
}

/// Churn fires once per environment: a second `run` on the same env
/// restarts its cycle count at 0 but re-fires nothing already fired.
/// Three cycles fire the join (1) and the leave (2); five more reach
/// the return (4) only.
#[test]
fn churn_fires_once_across_runs_on_one_env() {
    let mut env = lazy_env(4, 91, 1, SamplerConfig::default(), churn_scenario());
    let ((), trace) = traced(|| {
        SyncFedAvg::new().run(&mut env, 3).expect("first run");
        SyncFedAvg::new().run(&mut env, 5).expect("second run");
    });
    assert_eq!(
        churn_events(&trace),
        vec![
            (1, "join".to_string(), Some(4)),
            (2, "leave".to_string(), Some(0)),
            (4, "return".to_string(), Some(0)),
        ]
    );
    assert_eq!(env.num_clients(), 5);
}

#[test]
fn helios_classifies_scenario_joiners_mid_run() {
    let mut env = lazy_env(4, 91, 2, SamplerConfig::default(), churn_scenario());
    let mut helios = HeliosStrategy::new(HeliosConfig::default());
    let m = helios.run(&mut env, 5).expect("helios churn run");
    assert_eq!(env.num_clients(), 5);
    assert_eq!(
        m.records().last().expect("records").participants,
        5,
        "the returned device and the joiner both train in the last cycle"
    );
    // The joiner (id 4) was classified when it first appeared: it either
    // carries a fitted volume (straggler) or explicitly none (capable) —
    // never an unclassified full model racing the deadline.
    let keep = helios.keep_ratio(4);
    if helios.stragglers().contains(&4) {
        assert!(keep.expect("straggler volume") < 1.0);
    } else {
        assert!(keep.is_none());
    }
}

#[test]
fn throttle_ramp_slows_rounds_and_replays_bitwise() {
    let scenario = ScenarioConfig {
        throttle: vec![ThrottleRule {
            start_cycle: 1,
            device: Some(1),
            compute_decay: 0.25,
            bandwidth_decay: 0.0,
            floor: 0.2,
        }],
        ..ScenarioConfig::default()
    };
    let run = |threads: usize, scenario: ScenarioConfig| {
        let mut env = eager_env(23, threads, scenario);
        let m = SyncFedAvg::new().run(&mut env, 4).expect("throttle run");
        let scale = env.client(1).expect("client 1").compute_scale();
        (m, scale)
    };
    let (reference, scale) = run(1, scenario.clone());
    let (plain, plain_scale) = run(1, ScenarioConfig::default());
    assert!(scale < 1.0, "the ramp reduced device 1's compute scale");
    assert_eq!(plain_scale, 1.0, "no scenario, no throttling");
    assert!(
        reference.total_time() > plain.total_time(),
        "a throttled straggler extends the simulated rounds"
    );
    // The decay is monotone: each post-onset cycle is no faster than
    // the last, and the final cycle is strictly slower than the first.
    let spans: Vec<f64> = reference
        .records()
        .iter()
        .map(|r| r.phases.train_s + r.phases.comm_s)
        .collect();
    assert!(spans.windows(2).all(|w| w[1] >= w[0] - 1e-12));
    assert!(spans[3] > spans[0], "the ramp must bite within the run");
    for threads in &WIDTHS[1..] {
        let (m, s) = run(*threads, scenario.clone());
        assert_eq!(s.to_bits(), scale.to_bits());
        assert_eq!(
            m.records(),
            reference.records(),
            "throttle run must replay bitwise at {threads} threads"
        );
    }
}

#[test]
fn drift_timeline_shifts_data_and_replays_bitwise() {
    let scenario = ScenarioConfig {
        drift: vec![
            DriftEvent {
                cycle: 1,
                kind: DriftKind::LabelRotate,
                amount: 3.0,
            },
            DriftEvent {
                cycle: 2,
                kind: DriftKind::InputShift,
                amount: 0.4,
            },
        ],
        ..ScenarioConfig::default()
    };
    let run = |threads: usize, scenario: ScenarioConfig| {
        let mut env = eager_env(29, threads, scenario);
        let m = SyncFedAvg::new().run(&mut env, 4).expect("drift run");
        let applied: Vec<usize> = env.clients().map(|c| c.drift_applied()).collect();
        (m, applied)
    };
    let (reference, applied) = run(1, scenario.clone());
    assert_eq!(
        applied,
        vec![2, 2],
        "every participant replayed both drift events"
    );
    let (plain, plain_applied) = run(1, ScenarioConfig::default());
    assert_eq!(plain_applied, vec![0, 0]);
    assert_ne!(
        reference.records(),
        plain.records(),
        "drift must change the learning trajectory"
    );
    // Pre-drift cycles are untouched: the divergence starts at cycle 1.
    assert_eq!(reference.records()[0], plain.records()[0]);
    for threads in &WIDTHS[1..] {
        let (m, a) = run(*threads, scenario.clone());
        assert_eq!(a, applied);
        assert_eq!(
            m.records(),
            reference.records(),
            "drift run must replay bitwise at {threads} threads"
        );
    }
}

/// A combined multi-axis timeline for the trace tests.
fn combined_scenario() -> ScenarioConfig {
    ScenarioConfig {
        churn: vec![
            ChurnEvent {
                cycle: 1,
                action: ChurnAction::Join,
                device: 0,
                count: 1,
            },
            ChurnEvent {
                cycle: 2,
                action: ChurnAction::Leave,
                device: 1,
                count: 1,
            },
            ChurnEvent {
                cycle: 3,
                action: ChurnAction::Return,
                device: 1,
                count: 1,
            },
        ],
        throttle: vec![ThrottleRule {
            start_cycle: 1,
            device: None,
            compute_decay: 0.1,
            bandwidth_decay: 0.0,
            floor: 0.5,
        }],
        drift: vec![DriftEvent {
            cycle: 2,
            kind: DriftKind::LabelRotate,
            amount: 2.0,
        }],
        ..ScenarioConfig::default()
    }
}

/// `content_digest` and length of the combined scenario's one-thread
/// trace.
const COMBINED_TRACE_DIGEST: u64 = 0xbada_1e42_3ea8_9f2c;
const COMBINED_TRACE_LEN: usize = 10_238;

/// Runs the combined scenario at `threads` and returns the raw JSONL
/// trace bytes.
fn traced_scenario_bytes(threads: usize, scenario: ScenarioConfig) -> Vec<u8> {
    let ((), trace) = traced(|| {
        let mut env = lazy_env(4, 37, threads, SamplerConfig::default(), scenario);
        SyncFedAvg::new().run(&mut env, 4).expect("traced run");
    });
    trace
}

#[test]
fn scenario_traces_are_byte_identical_across_widths() {
    let reference = traced_scenario_bytes(1, combined_scenario());
    // Pins the event order too (the leave fires before the drift at
    // cycle 2), which a width comparison alone cannot see.
    assert_eq!(
        (helios_obs::content_digest(&reference), reference.len()),
        (COMBINED_TRACE_DIGEST, COMBINED_TRACE_LEN),
        "combined-scenario trace bytes changed"
    );
    for threads in &WIDTHS[1..] {
        assert_eq!(
            traced_scenario_bytes(*threads, combined_scenario()),
            reference,
            "scenario trace must be byte-identical at {threads} threads"
        );
    }
    let text = String::from_utf8(reference).expect("utf8");
    let records = helios_obs::parse_jsonl(&text).expect("trace parses");
    helios_obs::report::validate(&records).expect("trace validates");
    let mut kinds = BTreeSet::new();
    for r in &records {
        if let TraceEvent::ScenarioEvent { kind, .. } = &r.event {
            kinds.insert(kind.clone());
        }
    }
    for expected in ["join", "leave", "return", "throttle", "drift_label_rotate"] {
        assert!(kinds.contains(expected), "missing scenario kind {expected}");
    }
}

/// The fleet-wide battery/thermal ramp of the two tests below: every
/// device decays 15% per cycle from cycle 0 down to a 0.35 floor, so
/// Helios' classification already sees the slowdown.
fn fleet_throttle_ramp() -> ThrottleRule {
    ThrottleRule {
        start_cycle: 0,
        device: None,
        compute_decay: 0.15,
        bandwidth_decay: 0.0,
        floor: 0.35,
    }
}

/// The 6-device seed-61 lazy fleet both tests below run for 8 cycles.
fn ramp_fleet(scenario: ScenarioConfig) -> FlEnv {
    lazy_env(6, 61, 2, SamplerConfig::default(), scenario)
}

/// Runs Helios over [`ramp_fleet`] and returns the stragglers'
/// accumulated skip-counter mass and their number.
fn straggler_skip_mass(scenario: ScenarioConfig) -> (u64, usize) {
    let mut env = ramp_fleet(scenario);
    let mut helios = HeliosStrategy::new(HeliosConfig::default());
    helios.run(&mut env, 8).expect("helios run");
    let mass = helios
        .stragglers()
        .iter()
        .filter_map(|&id| helios.trainer(id))
        .flat_map(|t| t.skip_cycles().iter().flatten())
        .map(|&c| u64::from(c))
        .sum();
    (mass, helios.stragglers().len())
}

/// Throttled stragglers are fitted a smaller soft-training volume, so
/// more units sit idle per cycle and the §VI.A skip counters `C_s`
/// accumulate faster.
#[test]
fn throttle_ramp_raises_straggler_skip_mass() {
    let (baseline, _) = straggler_skip_mass(ScenarioConfig::default());
    let (throttled, stragglers) = straggler_skip_mass(ScenarioConfig {
        throttle: vec![fleet_throttle_ramp()],
        ..ScenarioConfig::default()
    });
    assert!(stragglers > 0, "the fleet has stragglers to regulate");
    assert!(
        throttled > baseline,
        "throttling must raise the skip mass ({throttled} vs {baseline})"
    );
}

/// Helios keeps its simulated-time lead over synchronous FedAvg while
/// the fleet churns (join at 2, device 1 away for cycles 3–4), throttles
/// and drifts (label rotation at 4) under it — and neither strategy is
/// ever starved of participants.
#[test]
fn helios_beats_sync_under_churn_throttle_and_drift() {
    let churn = |cycle, action, device| ChurnEvent {
        cycle,
        action,
        device,
        count: 1,
    };
    let scenario = ScenarioConfig {
        churn: vec![
            churn(2, ChurnAction::Join, 0),
            churn(3, ChurnAction::Leave, 1),
            churn(5, ChurnAction::Return, 1),
        ],
        throttle: vec![fleet_throttle_ramp()],
        drift: vec![DriftEvent {
            cycle: 4,
            kind: DriftKind::LabelRotate,
            amount: 2.0,
        }],
        ..ScenarioConfig::default()
    };
    let run = |strategy: &mut dyn Strategy| {
        let mut env = ramp_fleet(scenario.clone());
        let m = strategy.run(&mut env, 8).expect("run survives churn");
        assert_eq!(m.records().len(), 8);
        assert!(
            m.records().iter().all(|r| r.participants > 0),
            "churn must never starve a cycle"
        );
        assert!(env.num_clients() > 6, "the join lands");
        m.total_time()
    };
    let helios = run(&mut HeliosStrategy::new(HeliosConfig::default()));
    let sync = run(&mut SyncFedAvg::new());
    assert!(
        helios < sync,
        "helios {helios} must finish ahead of sync fedavg {sync}"
    );
}

#[test]
fn empty_scenario_is_bitwise_inert_and_emits_no_events() {
    let bytes = traced_scenario_bytes(1, ScenarioConfig::default());
    let text = String::from_utf8(bytes).expect("utf8");
    let records = helios_obs::parse_jsonl(&text).expect("trace parses");
    assert!(
        !records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::ScenarioEvent { .. })),
        "an empty scenario must emit no scenario events"
    );
    // And explicitly: the hooks are no-ops on the metrics too.
    let run = || {
        let mut env = lazy_env(
            4,
            37,
            1,
            SamplerConfig::default(),
            ScenarioConfig::default(),
        );
        SyncFedAvg::new().run(&mut env, 3).expect("run")
    };
    assert_eq!(run().records(), run().records());
}

proptest! {
    /// Valid-by-construction timelines always validate, and replaying
    /// their churn in firing order (by cycle, then config order) only
    /// ever touches a device enrolled at (and live for the action at)
    /// its fire time.
    #[test]
    fn valid_timelines_validate_and_fire_on_live_devices(
        initial in 1usize..6,
        ops in proptest::collection::vec(
            (0u8..4, 0usize..4, 1usize..3, 0usize..64),
            0..16,
        ),
    ) {
        let mut cycle = 0usize;
        let mut population = initial;
        let mut offline: BTreeSet<usize> = BTreeSet::new();
        let mut churn = Vec::new();
        let mut drift = Vec::new();
        for (op, delta, count, pick) in ops {
            cycle += delta;
            match op {
                0 => {
                    churn.push(ChurnEvent {
                        cycle,
                        action: ChurnAction::Join,
                        device: 0,
                        count,
                    });
                    population += count;
                }
                1 => {
                    let online: Vec<usize> =
                        (0..population).filter(|d| !offline.contains(d)).collect();
                    if online.is_empty() {
                        continue;
                    }
                    let device = online[pick % online.len()];
                    churn.push(ChurnEvent {
                        cycle,
                        action: ChurnAction::Leave,
                        device,
                        count: 1,
                    });
                    offline.insert(device);
                }
                2 => {
                    let offs: Vec<usize> = offline.iter().copied().collect();
                    if offs.is_empty() {
                        continue;
                    }
                    let device = offs[pick % offs.len()];
                    churn.push(ChurnEvent {
                        cycle,
                        action: ChurnAction::Return,
                        device,
                        count: 1,
                    });
                    offline.remove(&device);
                }
                _ => drift.push(DriftEvent {
                    cycle,
                    kind: if pick % 2 == 0 {
                        DriftKind::LabelRotate
                    } else {
                        DriftKind::InputShift
                    },
                    amount: (pick % 5) as f64,
                }),
            }
        }
        // List later cycles first (config order kept within a cycle):
        // validation must replay by cycle, not by position.
        churn.sort_by_key(|e: &ChurnEvent| std::cmp::Reverse(e.cycle));
        let cfg = ScenarioConfig {
            churn,
            drift,
            ..ScenarioConfig::default()
        };
        prop_assert!(cfg.validate(initial).is_ok(), "constructed timeline must validate");
        let mut firing: Vec<&ChurnEvent> = cfg.churn.iter().collect();
        firing.sort_by_key(|e| e.cycle);
        let mut pop = initial;
        let mut off: BTreeSet<usize> = BTreeSet::new();
        for e in firing {
            match e.action {
                ChurnAction::Join => pop += e.count,
                ChurnAction::Leave => {
                    prop_assert!(e.device < pop, "leave of unenrolled device {}", e.device);
                    prop_assert!(off.insert(e.device), "double leave of {}", e.device);
                }
                ChurnAction::Return => {
                    prop_assert!(e.device < pop);
                    prop_assert!(off.remove(&e.device), "return of online device {}", e.device);
                }
            }
        }
    }
}
