//! Wire-protocol v2 integration suite: the tolerance-based golden
//! harness plus adversarial roundtrip/robustness properties.
//!
//! The harness runs the same fixed-seed `SyncFedAvg` workload once per
//! compression mode and pins each run to the uncompressed reference:
//!
//! - **lossless modes** (delta, top-k at ratio 1.0) must stay on the
//!   *bitwise* pins — identical accuracy/loss/sim-time bits and identical
//!   global parameter bits, exactly like the v1 transparency contract;
//! - **lossy modes** (top-k below 1.0, f16/int8 quantization) must land
//!   within the explicit per-metric tolerances below — the repo's first
//!   non-bitwise golden, deliberately loose enough to survive unrelated
//!   refactors and tight enough to catch a broken dequantizer.
//!
//! The proptests drive every v2 layout over adversarial payloads (NaN
//! payload bits, infinities, signed zeros, subnormals, arbitrary bit
//! patterns) and check the documented reconstruction guarantees; a
//! robustness property feeds the decoder garbage, truncations, and
//! bit-flips and demands a typed error every time, never a panic.

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

// ---- per-metric tolerances for the lossy modes ----
//
// The workload is tiny (3 clients, 30 test samples), so accuracy moves
// in 1/30 steps; the tolerances admit a couple of steps of drift from
// quantization noise while rejecting anything structurally wrong.
const TOPK_ACC_TOL: f64 = 0.20;
const TOPK_LOSS_TOL: f64 = 0.60;
const QF16_ACC_TOL: f64 = 0.10;
const QF16_LOSS_TOL: f64 = 0.30;
const QI8_ACC_TOL: f64 = 0.20;
const QI8_LOSS_TOL: f64 = 0.60;

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

/// Lossless v2 modes reproduce the uncompressed reference bit-for-bit:
/// same per-cycle accuracy/loss/sim-time bits, same global parameters.
#[test]
fn lossless_modes_stay_on_the_bitwise_pins() {
    let (reference, ref_bits, _) = run_mode(CompressionConfig::default());
    for cfg in [
        mode_cfg(CompressionMode::Delta, 0.1),
        mode_cfg(CompressionMode::TopK, 1.0),
    ] {
        let (m, bits, _) = run_mode(cfg);
        assert_eq!(m.records().len(), reference.records().len());
        for (r, g) in m.records().iter().zip(reference.records()) {
            assert_eq!(
                r.test_accuracy.to_bits(),
                g.test_accuracy.to_bits(),
                "{:?}: cycle {} accuracy drifted off the bitwise pin",
                cfg.mode,
                r.cycle
            );
            assert_eq!(
                r.test_loss.to_bits(),
                g.test_loss.to_bits(),
                "{:?}: cycle {} loss drifted off the bitwise pin",
                cfg.mode,
                r.cycle
            );
            assert_eq!(
                r.sim_time.as_secs_f64().to_bits(),
                g.sim_time.as_secs_f64().to_bits(),
                "{:?}: cycle {} sim-time drifted",
                cfg.mode,
                r.cycle
            );
            assert_eq!(r.participants, g.participants);
        }
        assert_eq!(
            bits, ref_bits,
            "{:?}: global parameters must be bitwise identical",
            cfg.mode
        );
    }
}

/// Lossy v2 modes land within the explicit per-metric tolerances of the
/// reference run while genuinely shrinking the bytes on the wire.
#[test]
fn lossy_modes_stay_within_tolerance_of_the_reference() {
    let (reference, _, ref_wire) = run_mode(CompressionConfig::default());
    let ref_final = reference.records().last().expect("reference record");
    let cases = [
        (
            mode_cfg(CompressionMode::TopK, 0.25),
            TOPK_ACC_TOL,
            TOPK_LOSS_TOL,
        ),
        (
            mode_cfg(CompressionMode::QuantF16, 0.1),
            QF16_ACC_TOL,
            QF16_LOSS_TOL,
        ),
        (
            mode_cfg(CompressionMode::QuantInt8, 0.1),
            QI8_ACC_TOL,
            QI8_LOSS_TOL,
        ),
    ];
    for (cfg, acc_tol, loss_tol) in cases {
        let (m, _, wire) = run_mode(cfg);
        let last = m.records().last().expect("record");
        let acc_delta = (last.test_accuracy - ref_final.test_accuracy).abs();
        let loss_delta = (last.test_loss - ref_final.test_loss).abs();
        assert!(
            acc_delta <= acc_tol,
            "{:?}: final accuracy {} vs reference {} (|Δ| {acc_delta} > {acc_tol})",
            cfg.mode,
            last.test_accuracy,
            ref_final.test_accuracy
        );
        assert!(
            loss_delta <= loss_tol,
            "{:?}: final loss {} vs reference {} (|Δ| {loss_delta} > {loss_tol})",
            cfg.mode,
            last.test_loss,
            ref_final.test_loss
        );
        assert!(
            wire < ref_wire,
            "{:?}: {wire} wire bytes must undercut the reference's {ref_wire}",
            cfg.mode
        );
        assert!(
            last.test_loss.is_finite(),
            "{:?}: loss must stay finite",
            cfg.mode
        );
    }
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
    (base, update, mask.into_words())
}

proptest! {
    /// Delta frames are lossless by construction for *any* payload: the
    /// receiver gets the sender's bits back exactly, masked or not.
    #[test]
    fn delta_roundtrip_is_bitwise_for_adversarial_payloads(entries in update_vs_base()) {
        let (base, update, _) = split(&entries);
        let frame = codec::encode_delta(1, 0, &update, &base).unwrap();
        prop_assert!(codec::verify(&frame));
        let out = codec::decode(&frame).unwrap().into_params(&base).unwrap();
        for (o, u) in out.iter().zip(&update) {
            prop_assert_eq!(o.to_bits(), u.to_bits());
        }
    }

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

    /// f16 quantization respects its documented error bound on finite
    /// deltas, preserves non-finite deltas, and never rewrites bit-equal
    /// or masked-out entries.
    #[test]
    fn quant_f16_respects_documented_bounds(entries in update_vs_base()) {
        let (base, update, mask) = split(&entries);
        let frame = codec::encode_quant_f16(1, 0, &update, Some(&mask), &base).unwrap();
        let out = codec::decode(&frame).unwrap().into_params(&base).unwrap();
        for i in 0..entries.len() {
            let (b, u, active) = entries[i];
            let o = out[i];
            if !active || u.to_bits() == b.to_bits() {
                prop_assert_eq!(o.to_bits(), b.to_bits(), "untouched entry {} moved", i);
                continue;
            }
            let d = u - b;
            if d.is_nan() {
                prop_assert!(o.is_nan(), "NaN delta at {} decoded to {}", i, o);
            } else if !b.is_finite() {
                // inf − inf style arithmetic has no meaningful bound;
                // the entry must still decode without panicking.
            } else if d.is_infinite() {
                prop_assert_eq!(o, b + d, "infinite delta at {}", i);
            } else if d.abs() <= 32768.0 {
                // Relative f16 error ≤ 2⁻¹¹, plus f32 rounding of b + d̂
                // and a subnormal floor.
                let bound = d.abs() / 1024.0 + (b.abs() + u.abs()) * 1e-6 + 1e-6;
                prop_assert!(
                    (o - u).abs() <= bound,
                    "entry {}: {} vs {} (bound {})", i, o, u, bound
                );
            } else {
                // Finite overflow saturates to ±F16_MAX instead of inf.
                prop_assert!(o.is_finite(), "saturated entry {} became {}", i, o);
                prop_assert!((o - b).abs() <= 65504.0 * (1.0 + 1e-6) + b.abs() * 1e-6);
            }
        }
    }

    /// int8 quantization stays within half a quantization step on finite
    /// deltas and reverts non-finite deltas to the base bits.
    #[test]
    fn quant_i8_respects_documented_bounds(entries in update_vs_base()) {
        let (base, update, mask) = split(&entries);
        let frame = codec::encode_quant_i8(1, 0, &update, Some(&mask), &base).unwrap();
        let decoded = codec::decode(&frame).unwrap();
        let Payload::QuantInt8 { scale, .. } = decoded.payload else {
            panic!("expected int8 payload");
        };
        let out = decoded.into_params(&base).unwrap();
        for i in 0..entries.len() {
            let (b, u, active) = entries[i];
            let o = out[i];
            if !active || u.to_bits() == b.to_bits() {
                prop_assert_eq!(o.to_bits(), b.to_bits(), "untouched entry {} moved", i);
                continue;
            }
            let d = u - b;
            if !d.is_finite() {
                prop_assert_eq!(o.to_bits(), b.to_bits(), "non-finite delta at {}", i);
            } else if !b.is_finite() {
                // NaN base with a finite-but-nonzero q lands on NaN.
            } else {
                // Half a step, the step's own f32 rounding, f32 rounding
                // of b + q·s, and a floor for underflowed scales.
                let bound = scale * 0.5 + scale * 1e-5
                    + (b.abs() + u.abs()) * 1e-6
                    + 1e-38;
                prop_assert!(
                    (o - u).abs() <= bound,
                    "entry {}: {} vs {} (scale {}, bound {})", i, o, u, scale, bound
                );
            }
        }
    }

    /// All-masked updates of any payload produce decodable frames that
    /// change nothing.
    #[test]
    fn all_masked_updates_are_identity(values in proptest::collection::vec(adversarial_f32(), 1..48)) {
        let mask = vec![0u64; values.len().div_ceil(64)];
        for frame in [
            codec::encode_quant_f16(0, 0, &values, Some(&mask), &values).unwrap(),
            codec::encode_quant_i8(0, 0, &values, Some(&mask), &values).unwrap(),
            codec::encode_delta(0, 0, &values, &values).unwrap(),
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
    /// any v1/v2 kind) decodes to a typed error, never a panic and never
    /// a silently wrong frame.
    #[test]
    fn truncations_and_bitflips_always_yield_typed_errors(
        entries in update_vs_base(),
        kind in 0usize..6,
        flip_bit in 0u8..8,
    ) {
        let (base, update, mask) = split(&entries);
        let frame = match kind {
            0 => codec::encode_full(1, 2, &update),
            1 => codec::encode_masked(1, 2, &update, &mask),
            2 => codec::encode_delta(1, 2, &update, &base),
            3 => codec::encode_topk(1, 2, &update, &base, 5),
            4 => codec::encode_quant_f16(1, 2, &update, Some(&mask), &base),
            _ => codec::encode_quant_i8(1, 2, &update, Some(&mask), &base),
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
