//! Determinism contract of the observability layer: a fixed-seed lossy
//! Helios run emits a **byte-identical** JSONL trace at every thread
//! width, pinned by content digest, and every frame-level fault event
//! is eventually settled by a terminal outcome.
//!
//! The obs bus belongs to the thread that drives a run, so the tests in
//! this binary trace concurrently without a lock — and one of them pins
//! exactly that: two threads tracing at once each get the reference
//! trace.

use helios_core::{HeliosConfig, HeliosStrategy};
use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_fl::{FaultConfig, FlConfig, FlEnv, LinkProfile, NetConfig, Strategy};
use helios_integration::SharedBuf;
use helios_net::{codec, SimTransport};
use helios_nn::models::ModelKind;
use helios_obs::{chrome_trace, Dir, RingBufferSink, TraceEvent};
use helios_tensor::{ParallelismConfig, TensorRng};
use proptest::prelude::*;

const SEED: u64 = 2024;
const CYCLES: usize = 3;

/// The pinned FNV-1a digest of the lossy reference trace. Any change to
/// the event taxonomy, serializer, or simulated outcome moves this
/// constant — bump it deliberately, never to paper over a thread-width
/// divergence (the cross-width equality assertion catches those first).
/// Last bump: fleet-scaling PR — `RoundStart` gained `population` and
/// `DeviceSelected` gained `cohort`.
const PINNED_TRACE_DIGEST: u64 = 0xd81d_f18e_ab35_4978;

fn lossy_net() -> NetConfig {
    NetConfig {
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
    }
}

fn make_env(seed: u64, threads: usize, net: NetConfig) -> FlEnv {
    let clients = 3;
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
        presets::mixed_fleet(2, 1),
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

/// Runs the lossy reference workload at `threads` and returns the raw
/// JSONL trace bytes. `sync` is called once the sink is installed and
/// again before it is detached.
fn traced_run_bytes_with(threads: usize, sync: impl Fn()) -> Vec<u8> {
    let buf = SharedBuf::default();
    let sink = helios_obs::JsonlSink::new(Box::new(buf.clone()));
    let handle = helios_obs::install(Box::new(sink));
    sync();
    let mut env = make_env(SEED, threads, lossy_net());
    let run = HeliosStrategy::new(HeliosConfig::default()).run(&mut env, CYCLES);
    sync();
    drop(handle); // detach + flush
    run.expect("helios run");
    buf.take()
}

fn traced_run_bytes(threads: usize) -> Vec<u8> {
    traced_run_bytes_with(threads, || {})
}

/// A trace is its run's alone: two threads tracing the reference
/// workload at the same time — the barrier holds both sinks installed
/// for the whole of both runs — each record the pinned byte stream.
#[test]
fn concurrent_runs_each_record_the_pinned_trace() {
    let both = std::sync::Barrier::new(2);
    let digests = std::thread::scope(|scope| {
        let runs = [1usize, 2].map(|threads| {
            let both = &both;
            scope.spawn(move || {
                let bytes = traced_run_bytes_with(threads, || {
                    both.wait();
                });
                helios_obs::content_digest(&bytes)
            })
        });
        runs.map(|run| run.join().expect("traced run"))
    });
    assert_eq!(digests, [PINNED_TRACE_DIGEST; 2]);
}

/// The tentpole guarantee: byte-identical JSONL at 1/2/4/8 threads,
/// pinned by content digest so a silent serializer or outcome change
/// cannot slip through.
#[test]
fn lossy_trace_is_byte_identical_across_thread_widths() {
    let reference = traced_run_bytes(1);
    assert!(!reference.is_empty(), "traced run must emit events");
    for threads in [2usize, 4, 8] {
        let bytes = traced_run_bytes(threads);
        assert_eq!(
            bytes, reference,
            "JSONL trace must be byte-identical at {threads} threads"
        );
    }
    assert_eq!(
        helios_obs::content_digest(&reference),
        PINNED_TRACE_DIGEST,
        "reference trace digest moved — the event stream changed"
    );
    // The trace parses, carries the expected fault traffic, and holds
    // the structural invariants (monotone sim time, closed phases,
    // every fault settled).
    let text = String::from_utf8(reference).expect("utf8");
    let records = helios_obs::parse_jsonl(&text).expect("trace parses");
    assert!(records
        .iter()
        .any(|r| matches!(r.event, TraceEvent::FrameDropped { .. })));
    assert!(records
        .iter()
        .any(|r| matches!(r.event, TraceEvent::Retry { .. })));
    helios_obs::report::validate(&records).expect("trace validates");
}

/// The Chrome exporter produces valid JSON with a `traceEvents` array
/// and one named track per device.
#[test]
fn chrome_export_is_valid_json_with_device_tracks() {
    let ring = RingBufferSink::with_capacity(1 << 20);
    let handle = helios_obs::install(Box::new(ring.clone()));
    let mut env = make_env(SEED, 2, lossy_net());
    HeliosStrategy::new(HeliosConfig::default())
        .run(&mut env, CYCLES)
        .expect("helios run");
    drop(handle);

    let json = chrome_trace(&ring.records());
    let value: serde::value::Value = serde_json::from_str(&json).expect("chrome JSON parses");
    let serde::value::Value::Map(pairs) = &value else {
        panic!("chrome trace must be a JSON object");
    };
    let Some(serde::value::Value::Seq(events)) = serde::value::find(pairs, "traceEvents") else {
        panic!("chrome trace must contain a traceEvents array");
    };
    assert!(!events.is_empty());
    // Per-device tracks appear as thread_name metadata events.
    let device_tracks = events
        .iter()
        .filter(|e| {
            let serde::value::Value::Map(ev) = e else {
                return false;
            };
            serde::value::find(ev, "name")
                == Some(&serde::value::Value::Str("thread_name".to_string()))
                && matches!(
                    serde::value::find(ev, "tid"),
                    Some(serde::value::Value::UInt(tid)) if *tid >= 1
                )
        })
        .count();
    assert!(
        device_tracks >= 3,
        "expected one named track per device, saw {device_tracks}"
    );
}

proptest! {
    /// Transport-level settlement: whatever the fault mix, every frame
    /// attempt sequence terminates in `Delivered` or `SendFailed`.
    #[test]
    fn every_fault_event_reaches_a_terminal_outcome(
        seed in 0u64..1_000,
        drop_prob in 0.0f64..0.9,
        corrupt_prob in 0.0f64..0.9,
        max_retries in 0u32..4,
        frames in 1usize..6,
    ) {
        let cfg = NetConfig {
            enabled: true,
            link: LinkProfile::constrained(1e6, 0.01),
            faults: FaultConfig {
                drop_prob,
                corrupt_prob,
                delay_prob: 0.1,
                max_extra_delay_s: 0.2,
            },
            max_retries,
            ..NetConfig::default()
        };
        let ring = RingBufferSink::with_capacity(1 << 16);
        let handle = helios_obs::install(Box::new(ring.clone()));
        let mut transport = SimTransport::new(2, &cfg, seed).expect("transport");
        let frame = codec::encode_full(0, 0, &[1.0, 2.0, 3.0, 4.0]).expect("frame");
        for i in 0..frames {
            let dir = if i % 2 == 0 { Dir::Up } else { Dir::Down };
            transport.transmit(i % 2, &frame, dir).expect("transmit");
        }
        drop(handle);
        let records = ring.records();
        prop_assert!(!records.is_empty());
        prop_assert_eq!(helios_obs::report::validate(&records), Ok(()));
    }
}
