//! Event-driven simulation of one synchronous federated round over the
//! transport: broadcast download → local compute → update upload, per
//! participant, with a per-round deadline that degrades late or failed
//! exchanges to "missed the cycle" instead of panicking.

use crate::error::NetError;
use crate::transport::SimTransport;
use helios_device::{EventQueue, SimTime};
use helios_obs::Dir;

/// One participant's work in a round.
#[derive(Debug, Clone)]
pub struct RoundJob {
    /// Transport device index of the participant.
    pub device: usize,
    /// Simulated local compute time between download and upload.
    pub compute: SimTime,
    /// The encoded update frame to upload.
    pub upload_frame: Vec<u8>,
}

/// The outcome of one simulated round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Per job (by input index): the time its upload arrived, or `None`
    /// when the participant missed the cycle. An arrived upload is its
    /// job's `upload_frame`, byte for byte.
    pub arrivals: Vec<Option<SimTime>>,
    /// The round's span: the latest completion among participants that
    /// made it, extended to the failure/deadline point of those that
    /// did not.
    pub span: SimTime,
}

enum Phase {
    Downloaded(usize),
    Uploaded(usize),
}

/// Simulates one synchronous round: every job downloads
/// `broadcast_frame`, computes for its `compute` span, then uploads its
/// frame. Events are processed through the deterministic
/// [`EventQueue`], so the transport's fault draws replay identically
/// for identical inputs. No frame is copied: only arrival times matter.
///
/// A participant misses the cycle when any of its transfers exhausts
/// its retries, or when `timeout` is set and its exchange would finish
/// after the deadline.
///
/// # Errors
///
/// Returns [`NetError::UnknownDevice`] when a job names a device the
/// transport does not know.
pub fn simulate_round(
    transport: &mut SimTransport,
    broadcast_frame: &[u8],
    jobs: &[RoundJob],
    timeout: Option<SimTime>,
) -> Result<RoundOutcome, NetError> {
    let mut arrivals = vec![None; jobs.len()];
    let mut span = SimTime::ZERO;
    let mut queue = EventQueue::new();
    let clip = |t: SimTime| match timeout {
        Some(d) if t > d => d,
        _ => t,
    };
    let miss = |idx: usize,
                at: SimTime,
                deadline_hit: bool,
                transport: &mut SimTransport,
                span: &mut SimTime| {
        if deadline_hit {
            transport.note_timeout(jobs[idx].device);
        }
        *span = span.max(clip(at));
    };
    for (idx, job) in jobs.iter().enumerate() {
        let tx = transport.transmit(job.device, broadcast_frame, Dir::Down)?;
        if tx.delivered {
            queue.schedule(tx.elapsed, Phase::Downloaded(idx));
        } else {
            miss(idx, tx.elapsed, false, transport, &mut span);
        }
    }
    while let Some((t, phase)) = queue.pop() {
        match phase {
            Phase::Downloaded(idx) => {
                if timeout.is_some_and(|d| t > d) {
                    miss(idx, t, true, transport, &mut span);
                    continue;
                }
                let ready = t + jobs[idx].compute;
                let tx = transport.transmit(jobs[idx].device, &jobs[idx].upload_frame, Dir::Up)?;
                if tx.delivered {
                    queue.schedule(ready + tx.elapsed, Phase::Uploaded(idx));
                } else {
                    miss(idx, ready + tx.elapsed, false, transport, &mut span);
                }
            }
            Phase::Uploaded(idx) => {
                if timeout.is_some_and(|d| t > d) {
                    miss(idx, t, true, transport, &mut span);
                } else {
                    span = span.max(t);
                    arrivals[idx] = Some(t);
                }
            }
        }
    }
    Ok(RoundOutcome { arrivals, span })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_full;
    use crate::link::{FaultConfig, LinkProfile, NetConfig};

    fn jobs(computes: &[f64]) -> Vec<RoundJob> {
        computes
            .iter()
            .enumerate()
            .map(|(device, &c)| RoundJob {
                device,
                compute: SimTime::from_secs(c),
                upload_frame: encode_full(device as u32, 0, &[device as f32; 8]).unwrap(),
            })
            .collect()
    }

    fn transport(cfg: &NetConfig, devices: usize) -> SimTransport {
        SimTransport::new(devices, cfg, 77).unwrap()
    }

    #[test]
    fn ideal_round_span_is_max_compute() {
        let cfg = NetConfig {
            enabled: true,
            ..NetConfig::default()
        };
        let mut t = transport(&cfg, 3);
        let broadcast = encode_full(u32::MAX, 0, &[1.0; 8]).unwrap();
        let js = jobs(&[3.0, 7.0, 5.0]);
        let out = simulate_round(&mut t, &broadcast, &js, None).unwrap();
        assert_eq!(out.span.as_secs_f64(), 7.0);
        let arrivals: Vec<f64> = out
            .arrivals
            .iter()
            .map(|a| a.unwrap().as_secs_f64())
            .collect();
        assert_eq!(arrivals, [3.0, 7.0, 5.0]);
    }

    #[test]
    fn constrained_links_extend_the_round() {
        let cfg = NetConfig {
            enabled: true,
            link: LinkProfile::constrained(1e3, 0.5),
            ..NetConfig::default()
        };
        let mut t = transport(&cfg, 1);
        let broadcast = encode_full(u32::MAX, 0, &[1.0; 8]).unwrap();
        let js = jobs(&[2.0]);
        let out = simulate_round(&mut t, &broadcast, &js, None).unwrap();
        let comm = 2.0 * 0.5 + (broadcast.len() as f64 + js[0].upload_frame.len() as f64) / 1e3;
        assert!((out.span.as_secs_f64() - (2.0 + comm)).abs() < 1e-9);
    }

    #[test]
    fn deadline_degrades_to_missed_cycle() {
        let cfg = NetConfig {
            enabled: true,
            round_timeout_s: Some(4.0),
            ..NetConfig::default()
        };
        let mut t = transport(&cfg, 3);
        let broadcast = encode_full(u32::MAX, 0, &[1.0; 8]).unwrap();
        let js = jobs(&[3.0, 9.0, 2.0]);
        let ring = helios_obs::RingBufferSink::with_capacity(1 << 10);
        let handle = helios_obs::install(Box::new(ring.clone()));
        let out = simulate_round(&mut t, &broadcast, &js, Some(SimTime::from_secs(4.0))).unwrap();
        drop(handle);
        let arrived: Vec<bool> = out.arrivals.iter().map(Option::is_some).collect();
        assert_eq!(arrived, [true, false, true]);
        // The server waited until the deadline for the latecomer.
        assert_eq!(out.span.as_secs_f64(), 4.0);
        assert_eq!(t.stats().timeouts, 1);
        // The trace names the device that timed out, and only it.
        let summary = helios_obs::report::summarize(&ring.records());
        let missed: Vec<(u64, u64)> = summary
            .devices
            .iter()
            .map(|(&d, s)| (d, s.timeouts + s.failed))
            .filter(|&(_, n)| n > 0)
            .collect();
        assert_eq!(missed, [(1, 1)]);
    }

    #[test]
    fn total_loss_misses_everyone_without_panicking() {
        let cfg = NetConfig {
            enabled: true,
            faults: FaultConfig {
                drop_prob: 1.0,
                ..FaultConfig::default()
            },
            ..NetConfig::default()
        };
        let mut t = transport(&cfg, 2);
        let broadcast = encode_full(u32::MAX, 0, &[1.0; 8]).unwrap();
        let js = jobs(&[1.0, 2.0]);
        let out = simulate_round(&mut t, &broadcast, &js, None).unwrap();
        assert!(out.arrivals.iter().all(Option::is_none));
        assert_eq!(t.stats().failures, 2);
    }

    #[test]
    fn rounds_replay_identically() {
        let cfg = NetConfig {
            enabled: true,
            link: LinkProfile::constrained(1e4, 0.1).with_jitter(0.3),
            faults: FaultConfig {
                drop_prob: 0.2,
                corrupt_prob: 0.1,
                delay_prob: 0.3,
                max_extra_delay_s: 1.0,
            },
            ..NetConfig::default()
        };
        let run = || {
            let mut t = transport(&cfg, 4);
            let broadcast = encode_full(u32::MAX, 0, &[1.0; 16]).unwrap();
            let js = jobs(&[1.0, 2.0, 3.0, 4.0]);
            let out = simulate_round(&mut t, &broadcast, &js, None).unwrap();
            let bits = |at: SimTime| at.as_secs_f64().to_bits();
            let arrivals: Vec<_> = out.arrivals.iter().map(|a| a.map(bits)).collect();
            (bits(out.span), arrivals, *t.stats())
        };
        assert_eq!(run(), run());
    }
}
