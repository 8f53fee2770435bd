//! `net` probes: the wire codec and the transport simulation replayed on
//! the updates captured from the traced run, under the workload's
//! compression. `n/a` where networking is off.

use super::{us, ProbeInputs, Prober};
use crate::metrics::Metrics;
use crate::workloads::{BoxResult, Fleet};
use helios_device::SimTime;
use helios_fl::{CompressionMode, LocalUpdate};
use helios_net::{
    codec, simulate_round, CompressionConfig, Payload, RoundJob, SimTransport, WireSize,
};

/// The metrics this module reports (the ledger adds the run's exact wire
/// totals).
const PROBED: [&str; 8] = [
    "net.encode_mbps",
    "net.encode_us_per_update",
    "net.decode_mbps",
    "net.crc32_mbps",
    "net.broadcast_encode_us",
    "net.transport_us_per_frame",
    "net.frame_bytes_mean",
    "net.compression_ratio",
];

fn encode_all(
    compression: &CompressionConfig,
    cycle: u32,
    updates: &[LocalUpdate],
    base: &[f32],
) -> BoxResult<Vec<Vec<u8>>> {
    updates
        .iter()
        .map(|u| {
            Ok(compression.encode_update(
                u.client as u32,
                cycle,
                &u.params,
                u.param_mask.as_deref(),
                base,
            )?)
        })
        .collect()
}

fn decode_all(frames: &[Vec<u8>], base: &[f32]) -> BoxResult<Vec<Vec<f32>>> {
    frames
        .iter()
        .map(|f| Ok(codec::decode(f)?.into_params(base)?))
        .collect()
}

/// Lossless modes must hand back every parameter bit; top-k must keep
/// exactly `topk_count` entries (or every changed entry, if fewer
/// changed).
fn check_codec(
    compression: &CompressionConfig,
    updates: &[LocalUpdate],
    frames: &[Vec<u8>],
    base: &[f32],
) -> BoxResult<()> {
    let decoded = decode_all(frames, base)?;
    for ((u, frame), back) in updates.iter().zip(frames).zip(&decoded) {
        if compression.mode.is_lossless() {
            let same = u.params.len() == back.len()
                && u.params
                    .iter()
                    .zip(back)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                return Err(
                    format!("client {}: lossless frame did not round-trip", u.client).into(),
                );
            }
        }
        if compression.mode == CompressionMode::TopK {
            let changed = u
                .params
                .iter()
                .zip(base)
                .filter(|(p, b)| p.to_bits() != b.to_bits())
                .count();
            let want = compression.topk_count(base.len()).min(changed);
            let Payload::TopK { indices, .. } = codec::decode(frame)?.payload else {
                return Err(format!("client {}: not a top-k frame", u.client).into());
            };
            if indices.len() != want {
                return Err(format!(
                    "client {}: top-k kept {} entries, expected {want}",
                    u.client,
                    indices.len()
                )
                .into());
            }
        }
    }
    Ok(())
}

pub fn run(p: &mut Prober<'_>, inputs: &ProbeInputs<'_>, m: &mut Metrics) {
    let w = inputs.workload;
    let net = w.net_config();
    let (updates, base) = (&inputs.captured.updates, &inputs.captured.base);
    let Fleet::Lazy { population, .. } = w.fleet else {
        PROBED.iter().for_each(|n| m.na(n));
        return;
    };
    if !net.enabled || updates.is_empty() {
        PROBED.iter().for_each(|n| m.na(n));
        return;
    }
    let compression = net.compression;
    let cycle = (w.cycles - 1) as u32;
    let n = updates.len() as f64;
    // Rates are over the raw f32 parameter bytes an update carries, so
    // they compare across frame layouts; CRC is over the frame bytes it
    // actually reads.
    let raw_mb = n * (base.len() * 4) as f64 / 1e6;

    let encode = p.time("net.encode", || {
        encode_all(&compression, cycle, updates, base)
    });
    m.set("net.encode_us_per_update", encode.map(|s| us(s) / n));
    m.set("net.encode_mbps", encode.map(|s| raw_mb / s));

    let Some(frames) = p
        .tally
        .op("net.frames", encode_all(&compression, cycle, updates, base))
    else {
        return;
    };
    p.tally.op(
        "net.codec_check",
        check_codec(&compression, updates, &frames, base),
    );
    let frame_bytes: usize = frames.iter().map(Vec::len).sum();
    m.single("net.frame_bytes_mean", frame_bytes as f64 / n);
    m.single(
        "net.compression_ratio",
        frame_bytes as f64 / n / WireSize::full(base.len()).total_bytes() as f64,
    );

    let decode = p.time("net.decode", || decode_all(&frames, base));
    m.set("net.decode_mbps", decode.map(|s| raw_mb / s));

    let crc = p.time("net.crc32", || {
        Ok(frames.iter().fold(0u32, |acc, f| acc ^ codec::crc32(f)))
    });
    m.set("net.crc32_mbps", crc.map(|s| frame_bytes as f64 / 1e6 / s));

    let broadcast = p.time("net.broadcast_encode", || {
        Ok(codec::encode_full(codec::SERVER_SENDER, cycle, base)?)
    });
    m.set("net.broadcast_encode_us", broadcast.map(us));

    // The probe's own transport: the fault streams advance from call to
    // call, as they do from cycle to cycle in a run.
    let setup = (|| -> BoxResult<_> {
        let transport = SimTransport::new(population, &net, inputs.seed)?;
        let broadcast = codec::encode_full(codec::SERVER_SENDER, cycle, base)?;
        Ok((transport, broadcast))
    })();
    let Some((mut transport, broadcast)) = p.tally.op("net.transport_setup", setup) else {
        return;
    };
    let jobs: Vec<RoundJob> = updates
        .iter()
        .zip(&inputs.captured.compute_times)
        .zip(&frames)
        .map(|((u, &compute), frame)| RoundJob {
            device: u.client,
            compute,
            upload_frame: frame.clone(),
        })
        .collect();
    let timeout = net.round_timeout_s.map(SimTime::from_secs);
    let round = p.time("net.simulate_round", || {
        Ok(simulate_round(&mut transport, &broadcast, &jobs, timeout)?)
    });
    m.set("net.transport_us_per_frame", round.map(|s| us(s) / n));
}
