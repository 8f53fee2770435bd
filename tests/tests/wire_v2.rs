//! Wire-protocol v2 integration suite: the tolerance-based golden
//! harness plus adversarial roundtrip/robustness properties.
//!
//! The harness runs the same fixed-seed `SyncFedAvg` workload with
//! top-k uploads and pins each run to the uncompressed reference:
//!
//! - **top-k at ratio 1.0** is lossless and must stay on the *bitwise*
//!   pins — identical accuracy/loss/sim-time bits and identical global
//!   parameter bits, exactly like the v1 transparency contract;
//! - **top-k at ratio 0.25** is lossy and must land within the explicit
//!   per-metric tolerances below — the repo's first non-bitwise golden,
//!   deliberately loose enough to survive unrelated refactors and tight
//!   enough to catch a broken reconstruction.
//!
//! The proptests drive the top-k layout over adversarial payloads (NaN
//! payload bits, infinities, signed zeros, subnormals, arbitrary bit
//! patterns) and check the documented reconstruction guarantees; a
//! robustness property feeds the decoder garbage, truncations, and
//! bit-flips of every frame kind and demands a typed error every time,
//! never a panic.

use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_fl::{
    CompressionConfig, CompressionMode, FlConfig, FlEnv, NetConfig, RunMetrics, Strategy as _,
    SyncFedAvg,
};
use helios_net::codec::{self, Payload};
use helios_nn::models::ModelKind;
use helios_tensor::{ParallelismConfig, TensorRng, UnitMask};
use proptest::prelude::*;

const SEED: u64 = 7401;
const CYCLES: usize = 3;

// ---- per-metric tolerances for lossy top-k ----
//
// The workload is tiny (3 clients, 30 test samples), so accuracy moves
// in 1/30 steps; the tolerances admit a few steps of drift from the
// dropped entries while rejecting anything structurally wrong.
const TOPK_ACC_TOL: f64 = 0.20;
const TOPK_LOSS_TOL: f64 = 0.60;

fn make_env(seed: u64, compression: CompressionConfig) -> FlEnv {
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
            parallelism: ParallelismConfig::with_threads(1),
            net: NetConfig {
                enabled: true,
                compression,
                ..NetConfig::default()
            },
            ..FlConfig::default()
        },
    )
    .expect("env")
}

fn run_mode(compression: CompressionConfig) -> (RunMetrics, Vec<u32>, u64) {
    let mut env = make_env(SEED, compression);
    let metrics = SyncFedAvg::new().run(&mut env, CYCLES).expect("run");
    let bits = env.global().iter().map(|p| p.to_bits()).collect();
    let wire = env.transport().expect("transport").stats().bytes_on_wire;
    (metrics, bits, wire)
}

fn mode_cfg(mode: CompressionMode, topk_ratio: f64) -> CompressionConfig {
    CompressionConfig { mode, topk_ratio }
}

/// Top-k at ratio 1.0 reproduces the uncompressed reference
/// bit-for-bit: same per-cycle accuracy/loss/sim-time bits, same global
/// parameters.
#[test]
fn lossless_modes_stay_on_the_bitwise_pins() {
    let (reference, ref_bits, _) = run_mode(CompressionConfig::default());
    let (m, bits, _) = run_mode(mode_cfg(CompressionMode::TopK, 1.0));
    assert_eq!(m.records().len(), reference.records().len());
    for (r, g) in m.records().iter().zip(reference.records()) {
        assert_eq!(
            r.test_accuracy.to_bits(),
            g.test_accuracy.to_bits(),
            "cycle {} accuracy drifted off the bitwise pin",
            r.cycle
        );
        assert_eq!(
            r.test_loss.to_bits(),
            g.test_loss.to_bits(),
            "cycle {} loss drifted off the bitwise pin",
            r.cycle
        );
        assert_eq!(
            r.sim_time.as_secs_f64().to_bits(),
            g.sim_time.as_secs_f64().to_bits(),
            "cycle {} sim-time drifted",
            r.cycle
        );
        assert_eq!(r.participants, g.participants);
    }
    assert_eq!(
        bits, ref_bits,
        "global parameters must be bitwise identical"
    );
}

/// Top-k at ratio 0.25 lands within the explicit per-metric tolerances
/// of the reference run while genuinely shrinking the bytes on the wire.
#[test]
fn lossy_modes_stay_within_tolerance_of_the_reference() {
    let (reference, _, ref_wire) = run_mode(CompressionConfig::default());
    let ref_final = reference.records().last().expect("reference record");
    let (m, _, wire) = run_mode(mode_cfg(CompressionMode::TopK, 0.25));
    let last = m.records().last().expect("record");
    let acc_delta = (last.test_accuracy - ref_final.test_accuracy).abs();
    let loss_delta = (last.test_loss - ref_final.test_loss).abs();
    assert!(
        acc_delta <= TOPK_ACC_TOL,
        "final accuracy {} vs reference {} (|Δ| {acc_delta} > {TOPK_ACC_TOL})",
        last.test_accuracy,
        ref_final.test_accuracy
    );
    assert!(
        loss_delta <= TOPK_LOSS_TOL,
        "final loss {} vs reference {} (|Δ| {loss_delta} > {TOPK_LOSS_TOL})",
        last.test_loss,
        ref_final.test_loss
    );
    assert!(
        wire < ref_wire,
        "{wire} wire bytes must undercut the reference's {ref_wire}"
    );
    assert!(last.test_loss.is_finite(), "loss must stay finite");
}

/// Strategy producing adversarial f32 values: a dense finite band plus
/// every special shape the codec must survive (NaN payload bits, ±inf,
/// signed zeros, subnormals, arbitrary bit patterns).
fn adversarial_f32() -> impl proptest::strategy::Strategy<Value = f32> {
    (0u32..12, 0u32..=u32::MAX).prop_map(|(shape, bits)| match shape {
        0 => f32::NAN,
        1 => f32::from_bits(0x7fc0_0000 | (bits & 0x003f_ffff) | 1),
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => 0.0,
        5 => -0.0,
        6 => f32::from_bits(bits % 0x0080_0000),
        7 => f32::from_bits(bits),
        _ => ((bits as f64 / u32::MAX as f64) as f32 - 0.5) * 2e4,
    })
}

/// `(base, update, active)` triples; the update equals the base on
/// masked-out entries (the soft-training invariant the fl layer upholds).
fn update_vs_base() -> impl proptest::strategy::Strategy<Value = Vec<(f32, f32, bool)>> {
    proptest::collection::vec((adversarial_f32(), adversarial_f32(), 0u32..2), 0..64).prop_map(
        |entries| {
            entries
                .into_iter()
                .map(|(b, u, on)| {
                    let on = on == 1;
                    (b, if on { u } else { b }, on)
                })
                .collect()
        },
    )
}

fn split(entries: &[(f32, f32, bool)]) -> (Vec<f32>, Vec<f32>, Vec<u64>) {
    let base = entries.iter().map(|e| e.0).collect();
    let update = entries.iter().map(|e| e.1).collect();
    let mask = entries.iter().map(|e| e.2).collect::<UnitMask>();
    (base, update, mask.words().to_vec())
}

proptest! {
    /// Top-k keeps its selected entries bit-exact and reverts everything
    /// else to the broadcast base — for any k and any payload.
    #[test]
    fn topk_partitions_entries_into_exact_and_reverted(
        entries in update_vs_base(),
        k in 0usize..96,
    ) {
        let (base, update, _) = split(&entries);
        let frame = codec::encode_topk(1, 0, &update, &base, k).unwrap();
        let decoded = codec::decode(&frame).unwrap();
        let Payload::TopK { ref indices, .. } = decoded.payload else {
            panic!("expected top-k payload");
        };
        let kept: Vec<usize> = indices.iter().map(|&i| i as usize).collect();
        let out = decoded.into_params(&base).unwrap();
        for (i, o) in out.iter().enumerate() {
            if kept.contains(&i) {
                prop_assert_eq!(o.to_bits(), update[i].to_bits(), "kept entry {}", i);
            } else {
                prop_assert_eq!(o.to_bits(), base[i].to_bits(), "reverted entry {}", i);
            }
        }
        // With k at least the changed count, top-k is lossless.
        let changed = base
            .iter()
            .zip(&update)
            .filter(|(b, u)| b.to_bits() != u.to_bits())
            .count();
        if k >= changed {
            for (o, u) in out.iter().zip(&update) {
                prop_assert_eq!(o.to_bits(), u.to_bits());
            }
        }
    }

    /// All-masked updates of any payload produce decodable frames that
    /// change nothing.
    #[test]
    fn all_masked_updates_are_identity(values in proptest::collection::vec(adversarial_f32(), 1..48)) {
        let mask = vec![0u64; values.len().div_ceil(64)];
        for frame in [
            codec::encode_masked(0, 0, &values, &mask).unwrap(),
            codec::encode_topk(0, 0, &values, &values, 8).unwrap(),
        ] {
            let out = codec::decode(&frame).unwrap().into_params(&values).unwrap();
            for (o, v) in out.iter().zip(&values) {
                prop_assert_eq!(o.to_bits(), v.to_bits());
            }
        }
    }

    /// The decoder never panics: arbitrary garbage comes back as a typed
    /// error (or, vanishingly rarely, a valid frame — never a crash).
    #[test]
    fn decoder_survives_arbitrary_bytes(bytes in proptest::collection::vec(0u8..=u8::MAX, 0..160)) {
        let _ = codec::decode(&bytes);
        let _ = codec::verify(&bytes);
        let _ = codec::frame_mode(&bytes);
    }

    /// Every truncation and every single-byte flip of a valid frame (of
    /// every kind: v1 full and masked, v2 top-k) decodes to a typed
    /// error, never a panic and never a silently wrong frame.
    #[test]
    fn truncations_and_bitflips_always_yield_typed_errors(
        entries in update_vs_base(),
        kind in 0usize..3,
        flip_bit in 0u8..8,
    ) {
        let (base, update, mask) = split(&entries);
        let frame = match kind {
            0 => codec::encode_full(1, 2, &update),
            1 => codec::encode_masked(1, 2, &update, &mask),
            _ => codec::encode_topk(1, 2, &update, &base, 5),
        }
        .unwrap();
        for len in 0..frame.len() {
            prop_assert!(codec::decode(&frame[..len]).is_err(), "truncation at {} decoded", len);
        }
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 1 << flip_bit;
            prop_assert!(codec::decode(&bad).is_err(), "flip at byte {} decoded", i);
        }
    }
}
