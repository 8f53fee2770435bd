//! Helios's per-device bookkeeping fans out over the thread budget —
//! the newcomer classification of each sampled cohort and the
//! contribution refresh of each delivered straggler update — while the
//! transport between them delivers borrowed frames. This suite pins the
//! whole of it bitwise across thread widths on a sampled lazy fleet
//! behind the lossy link and fault settings of the `fleet_lossy`
//! benchmark workload: records, global parameters, the straggler set
//! with every keep ratio, and the JSONL trace.

use helios_core::{HeliosConfig, HeliosStrategy};
use helios_data::{ShardSynthesizer, SyntheticVision};
use helios_device::ProfileSynthesizer;
use helios_fl::{
    FaultConfig, FlConfig, FlEnv, FleetSpec, LinkProfile, NetConfig, RunMetrics, SamplerConfig,
    Strategy,
};
use helios_integration::{global_bits, SharedBuf, THREAD_WIDTHS};
use helios_net::TransportStats;
use helios_nn::models::ModelKind;
use helios_tensor::ParallelismConfig;

const SEED: u64 = 4207;
/// Small enough that cohorts of `COHORT` re-sample devices, so a
/// straggler's refreshed contributions steer its next mask, yet large
/// enough that later cohorts still surface unclassified newcomers.
const POPULATION: usize = 64;
const COHORT: usize = 24;
const CYCLES: usize = 3;

/// The `fleet_lossy` network: a constrained link with drops,
/// corruption, extra delays and a per-round deadline.
fn fleet_lossy_net() -> NetConfig {
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
        ..NetConfig::default()
    }
}

/// Everything a run at one width must reproduce.
struct Outcome {
    metrics: RunMetrics,
    global: Vec<u32>,
    /// `(straggler, keep-ratio bits)` in straggler order.
    keeps: Vec<(usize, u64)>,
    trace_digest: u64,
    wire: TransportStats,
}

fn run_at(threads: usize) -> Outcome {
    let spec = FleetSpec::new(
        POPULATION,
        ProfileSynthesizer::new(SEED, 0.3),
        ShardSynthesizer::new(SyntheticVision::mnist_like(), 8, SEED).expect("shards"),
    )
    .evict_unsampled();
    let test = spec.shards.test_set(32).expect("test set");
    let config = FlConfig {
        batch_size: 16,
        seed: SEED,
        parallelism: ParallelismConfig::with_threads(threads),
        net: fleet_lossy_net(),
        sampling: SamplerConfig::uniform(COHORT),
        ..FlConfig::default()
    };
    let mut env = FlEnv::new_lazy(ModelKind::LeNet, spec, test, config).expect("lazy env");
    let mut helios = HeliosStrategy::new(HeliosConfig::default());
    let buf = SharedBuf::default();
    let handle = helios_obs::install(Box::new(helios_obs::JsonlSink::new(Box::new(buf.clone()))));
    let run = helios.run(&mut env, CYCLES);
    drop(handle); // detach + flush
    let metrics = run.expect("sampled lossy helios run");
    let keeps = helios
        .stragglers()
        .iter()
        .map(|&i| {
            (
                i,
                helios.keep_ratio(i).expect("straggler trainer").to_bits(),
            )
        })
        .collect();
    Outcome {
        metrics,
        global: global_bits(&env),
        keeps,
        trace_digest: helios_obs::content_digest(&buf.take()),
        wire: *env.transport().expect("networked").stats(),
    }
}

/// The tentpole guarantee: the fanned-out classification and
/// contribution passes change nothing at 2/4/8 threads, and the run
/// genuinely exercised them — stragglers classified after the first
/// cohort, and a lossy wire that dropped and corrupted frames.
#[test]
fn sampled_lossy_helios_matches_one_thread_at_every_width() {
    let reference = run_at(1);
    assert_eq!(reference.metrics.records().len(), CYCLES);
    assert!(
        reference.keeps.len() > 3,
        "too few stragglers to exercise the fan-out: {:?}",
        reference.keeps
    );
    assert!(
        reference
            .keeps
            .iter()
            .any(|&(_, k)| f64::from_bits(k) < 1.0),
        "no straggler was fitted a sub-model"
    );
    assert!(reference.wire.drops > 0 && reference.wire.corruptions_detected > 0);
    for threads in THREAD_WIDTHS.into_iter().filter(|&t| t > 1) {
        let got = run_at(threads);
        assert_eq!(
            got.metrics, reference.metrics,
            "records at {threads} threads"
        );
        assert!(
            got.global == reference.global,
            "global bits at {threads} threads"
        );
        assert_eq!(
            got.keeps, reference.keeps,
            "keep ratios at {threads} threads"
        );
        assert_eq!(
            got.trace_digest, reference.trace_digest,
            "trace digest at {threads} threads"
        );
        assert_eq!(got.wire, reference.wire, "wire stats at {threads} threads");
    }
}
