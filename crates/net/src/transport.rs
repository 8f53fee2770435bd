//! The simulated transport: per-device links, deterministic fault
//! injection, and retry-with-backoff delivery.

use crate::codec;
use crate::error::NetError;
use crate::link::{FaultConfig, LinkProfile, NetConfig};
use helios_device::SimTime;
use helios_obs::TraceEvent;
use helios_tensor::TensorRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Whether a message travels server→device or device→server (statistics
/// bookkeeping only; links are symmetric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Server → device (global model broadcast).
    Download,
    /// Device → server (local update upload).
    Upload,
}

/// Aggregate counters over every transmission the transport performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportStats {
    /// Messages handed to the transport.
    pub messages: u64,
    /// Individual transmission attempts (≥ `messages`).
    pub attempts: u64,
    /// Re-transmissions after a drop or detected corruption.
    pub retries: u64,
    /// Attempts lost in flight.
    pub drops: u64,
    /// Attempts whose corruption the receiver's CRC32 check caught.
    pub corruptions_detected: u64,
    /// Attempts that suffered an extra queuing delay.
    pub extra_delays: u64,
    /// Messages abandoned after exhausting every retry.
    pub failures: u64,
    /// Participants cut off by the per-round deadline.
    pub timeouts: u64,
    /// Bytes put on the wire, counting every attempt.
    pub bytes_on_wire: u64,
    /// Bytes of successfully delivered messages (final attempt only).
    pub delivered_bytes: u64,
}

impl TransportStats {
    /// The traffic accumulated since an `earlier` snapshot — the
    /// counters are monotone, so callers copy [`SimTransport::stats`]
    /// before a round and diff afterwards to attribute wire activity to
    /// one cycle. Saturating, so swapped snapshots yield zeros instead
    /// of wrapping.
    pub fn since(&self, earlier: &TransportStats) -> TransportStats {
        TransportStats {
            messages: self.messages.saturating_sub(earlier.messages),
            attempts: self.attempts.saturating_sub(earlier.attempts),
            retries: self.retries.saturating_sub(earlier.retries),
            drops: self.drops.saturating_sub(earlier.drops),
            corruptions_detected: self
                .corruptions_detected
                .saturating_sub(earlier.corruptions_detected),
            extra_delays: self.extra_delays.saturating_sub(earlier.extra_delays),
            failures: self.failures.saturating_sub(earlier.failures),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            bytes_on_wire: self.bytes_on_wire.saturating_sub(earlier.bytes_on_wire),
            delivered_bytes: self.delivered_bytes.saturating_sub(earlier.delivered_bytes),
        }
    }
}

/// Per-device traffic counters, used by the benchmarks to compare a
/// soft-trained straggler's wire volume against a full-model client's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Bytes uploaded by this device (delivered messages only).
    pub upload_bytes: u64,
    /// Bytes downloaded by this device (delivered messages only).
    pub download_bytes: u64,
    /// Re-transmissions on this device's link.
    pub retries: u64,
    /// Cycles this device missed (deadline or retry exhaustion).
    pub missed_cycles: u64,
}

/// The outcome of transmitting one message.
#[derive(Debug, Clone, PartialEq)]
pub struct Transmission {
    /// The delivered frame, or `None` when every attempt failed.
    pub delivered: Option<Vec<u8>>,
    /// Simulated time from send to delivery (or to giving up), including
    /// retries and backoff.
    pub elapsed: SimTime,
    /// Number of transmission attempts made.
    pub attempts: u32,
}

/// A deterministic store-and-forward network simulator.
///
/// Each device owns a [`LinkProfile`] and a ChaCha RNG forked from the
/// run seed, so jitter and fault draws are a pure function of `(seed,
/// config, traffic order)` — the determinism contract is *same seed +
/// same fault config ⇒ same byte streams and same simulated times*.
/// Faults never panic: a message that exhausts its retries is reported
/// as undelivered and the round layer degrades it to "client missed
/// this cycle".
///
/// Per-device state is **sparse**: a device's RNG stream is created on
/// its first transmission from `device_seed(base_seed, index)` — a pure
/// function of the device index — and link overrides / traffic counters
/// are stored only for devices that diverge from the defaults. A
/// 100k-device fleet therefore costs O(sampled devices), not
/// O(population), while remaining bitwise identical to an eagerly
/// constructed transport for any traffic order.
#[derive(Debug, Clone)]
pub struct SimTransport {
    num_devices: usize,
    link_overrides: BTreeMap<usize, LinkProfile>,
    faults: FaultConfig,
    max_retries: u32,
    retry_backoff_s: f64,
    rngs: BTreeMap<usize, TensorRng>,
    stats: TransportStats,
    device_stats: BTreeMap<usize, DeviceStats>,
    base_seed: u64,
    default_link: LinkProfile,
}

fn device_seed(base: u64, device: usize) -> u64 {
    // Golden-ratio mixing keyed away from other seed consumers ("NETW").
    base ^ 0x4e45_5457u64 ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(device as u64 + 1)
}

impl SimTransport {
    /// Builds a transport for `num_devices` devices, all starting on the
    /// configured default link.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] when `config` fails
    /// validation.
    pub fn new(num_devices: usize, config: &NetConfig, seed: u64) -> Result<Self, NetError> {
        config.validate()?;
        Ok(SimTransport {
            num_devices,
            link_overrides: BTreeMap::new(),
            faults: config.faults,
            max_retries: config.max_retries,
            retry_backoff_s: config.retry_backoff_s,
            rngs: BTreeMap::new(),
            stats: TransportStats::default(),
            device_stats: BTreeMap::new(),
            base_seed: seed,
            default_link: config.link,
        })
    }

    /// Registers one more device on the default link and returns its
    /// index (used when a device joins mid-run). O(1): per-device state
    /// stays unmaterialized until the device sees traffic.
    pub fn add_device(&mut self) -> usize {
        let device = self.num_devices;
        self.num_devices += 1;
        device
    }

    /// The link profile of `device`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownDevice`] for an out-of-range index.
    pub fn link(&self, device: usize) -> Result<&LinkProfile, NetError> {
        if device >= self.num_devices {
            return Err(NetError::UnknownDevice {
                device,
                num_devices: self.num_devices,
            });
        }
        Ok(self
            .link_overrides
            .get(&device)
            .unwrap_or(&self.default_link))
    }

    /// Replaces the link profile of `device`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownDevice`] for an out-of-range index or
    /// [`NetError::InvalidConfig`] for an invalid profile.
    pub fn set_link(&mut self, device: usize, link: LinkProfile) -> Result<(), NetError> {
        link.validate()?;
        if device >= self.num_devices {
            return Err(NetError::UnknownDevice {
                device,
                num_devices: self.num_devices,
            });
        }
        self.link_overrides.insert(device, link);
        Ok(())
    }

    /// Aggregate transmission statistics.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// Traffic statistics of `device`. Devices that never saw traffic
    /// report all-zero counters.
    pub fn device_stats(&self, device: usize) -> DeviceStats {
        self.device_stats.get(&device).copied().unwrap_or_default()
    }

    /// Records that `device` missed a cycle because of the per-round
    /// deadline (called by the round layer).
    pub(crate) fn note_timeout(&mut self, device: usize) {
        self.stats.timeouts += 1;
        if device < self.num_devices {
            self.device_stats.entry(device).or_default().missed_cycles += 1;
        }
        helios_obs::emit(|| TraceEvent::Timeout {
            device: device as u64,
        });
    }

    pub(crate) fn note_failure_missed(&mut self, device: usize) {
        if device < self.num_devices {
            self.device_stats.entry(device).or_default().missed_cycles += 1;
        }
    }

    /// Transmits `frame` over `device`'s link, retrying dropped or
    /// corrupted attempts with exponential backoff.
    ///
    /// Fault draws are consumed only when the corresponding probability
    /// is nonzero, so a quiet configuration leaves the RNG streams
    /// untouched and delivery takes exactly the link's transfer time.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownDevice`] for an out-of-range index.
    /// Exhausted retries are *not* an error: the returned
    /// [`Transmission`] reports `delivered: None`.
    pub fn transmit(
        &mut self,
        device: usize,
        frame: &[u8],
        direction: Direction,
    ) -> Result<Transmission, NetError> {
        let link = *self.link(device)?;
        self.stats.messages += 1;
        let obs_dir = match direction {
            Direction::Download => helios_obs::Dir::Down,
            Direction::Upload => helios_obs::Dir::Up,
        };
        // v2 frames carry their compression mode into the trace; v1
        // frames emit no mode field at all, keeping pre-v2 captures (and
        // the pinned trace digest) byte-identical.
        let frame_mode = codec::frame_mode(frame);
        let mut elapsed = 0.0f64;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            self.stats.attempts += 1;
            self.stats.bytes_on_wire += frame.len() as u64;
            helios_obs::emit(|| TraceEvent::FrameSent {
                device: device as u64,
                dir: obs_dir,
                bytes: frame.len() as u64,
                attempt: u64::from(attempts),
                mode: frame_mode.map(str::to_string),
            });
            let mut transfer = link.expected_transfer(frame.len()).as_secs_f64();
            let base_seed = self.base_seed;
            let rng = self
                .rngs
                .entry(device)
                .or_insert_with(|| TensorRng::seed_from(device_seed(base_seed, device)));
            if link.jitter_s > 0.0 {
                transfer += rng.unit_f64() * link.jitter_s;
            }
            if self.faults.delay_prob > 0.0 && rng.unit_f64() < self.faults.delay_prob {
                transfer += rng.unit_f64() * self.faults.max_extra_delay_s;
                self.stats.extra_delays += 1;
            }
            elapsed += transfer;
            let dropped = self.faults.drop_prob > 0.0 && rng.unit_f64() < self.faults.drop_prob;
            if dropped {
                self.stats.drops += 1;
                helios_obs::emit(|| TraceEvent::FrameDropped {
                    device: device as u64,
                    attempt: u64::from(attempts),
                });
            } else {
                let corrupted =
                    self.faults.corrupt_prob > 0.0 && rng.unit_f64() < self.faults.corrupt_prob;
                if corrupted && !frame.is_empty() {
                    // Flip one byte en route and run the receiver's
                    // integrity check: CRC32 detects every single-byte
                    // error, so the receiver requests a retransmission.
                    let idx = rng.below(frame.len());
                    let flip = (rng.below(255) + 1) as u8;
                    let mut damaged = frame.to_vec();
                    damaged[idx] ^= flip;
                    if codec::verify(&damaged) {
                        // Unreachable for CRC32 and a single flipped
                        // byte, but if it ever passed the check the
                        // receiver would accept the damaged frame.
                        return Ok(self.deliver(device, direction, damaged, elapsed, attempts));
                    }
                    self.stats.corruptions_detected += 1;
                    helios_obs::emit(|| TraceEvent::FrameCorrupted {
                        device: device as u64,
                        attempt: u64::from(attempts),
                    });
                } else {
                    return Ok(self.deliver(device, direction, frame.to_vec(), elapsed, attempts));
                }
            }
            if attempts > self.max_retries {
                self.stats.failures += 1;
                helios_obs::emit(|| TraceEvent::SendFailed {
                    device: device as u64,
                    attempts: u64::from(attempts),
                    elapsed_s: elapsed,
                });
                return Ok(Transmission {
                    delivered: None,
                    elapsed: SimTime::from_secs(elapsed),
                    attempts,
                });
            }
            self.stats.retries += 1;
            self.device_stats.entry(device).or_default().retries += 1;
            let backoff = self.retry_backoff_s * f64::from(1u32 << (attempts - 1).min(16));
            helios_obs::emit(|| TraceEvent::Retry {
                device: device as u64,
                attempt: u64::from(attempts),
                backoff_s: backoff,
            });
            elapsed += backoff;
        }
    }

    fn deliver(
        &mut self,
        device: usize,
        direction: Direction,
        frame: Vec<u8>,
        elapsed: f64,
        attempts: u32,
    ) -> Transmission {
        self.stats.delivered_bytes += frame.len() as u64;
        let d = self.device_stats.entry(device).or_default();
        match direction {
            Direction::Download => d.download_bytes += frame.len() as u64,
            Direction::Upload => d.upload_bytes += frame.len() as u64,
        }
        helios_obs::emit(|| TraceEvent::Delivered {
            device: device as u64,
            bytes: frame.len() as u64,
            attempts: u64::from(attempts),
            elapsed_s: elapsed,
        });
        Transmission {
            delivered: Some(frame),
            elapsed: SimTime::from_secs(elapsed),
            attempts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_full;

    fn frame() -> Vec<u8> {
        encode_full(0, 0, &[1.0, 2.0, 3.0, 4.0]).unwrap()
    }

    /// Number of devices with materialized per-device state (RNG stream,
    /// link override, or traffic counters) — the transport's actual
    /// footprint, which stays O(sampled), not O(population).
    fn touched_devices(t: &SimTransport) -> usize {
        let mut touched: std::collections::BTreeSet<usize> = t.rngs.keys().copied().collect();
        touched.extend(t.link_overrides.keys());
        touched.extend(t.device_stats.keys());
        touched.len()
    }

    fn config(faults: FaultConfig, link: LinkProfile) -> NetConfig {
        NetConfig {
            enabled: true,
            link,
            faults,
            ..NetConfig::default()
        }
    }

    #[test]
    fn ideal_quiet_link_delivers_in_zero_time_without_rng_draws() {
        let cfg = config(FaultConfig::default(), LinkProfile::ideal());
        let mut t = SimTransport::new(2, &cfg, 7).unwrap();
        let f = frame();
        let tx = t.transmit(0, &f, Direction::Upload).unwrap();
        assert_eq!(tx.delivered.as_deref(), Some(&f[..]));
        assert_eq!(tx.elapsed, SimTime::ZERO);
        assert_eq!(tx.attempts, 1);
        assert_eq!(t.stats().retries, 0);
        assert_eq!(t.stats().bytes_on_wire, f.len() as u64);
        assert_eq!(t.device_stats(0).upload_bytes, f.len() as u64);
    }

    #[test]
    fn constrained_link_accumulates_transfer_time() {
        let cfg = config(FaultConfig::default(), LinkProfile::constrained(100.0, 1.0));
        let mut t = SimTransport::new(1, &cfg, 7).unwrap();
        let f = frame();
        let tx = t.transmit(0, &f, Direction::Download).unwrap();
        let expect = 1.0 + f.len() as f64 / 100.0;
        assert!((tx.elapsed.as_secs_f64() - expect).abs() < 1e-12);
    }

    #[test]
    fn certain_drop_exhausts_retries_without_panicking() {
        let faults = FaultConfig {
            drop_prob: 1.0,
            ..FaultConfig::default()
        };
        let cfg = config(faults, LinkProfile::ideal());
        let mut t = SimTransport::new(1, &cfg, 7).unwrap();
        let tx = t.transmit(0, &frame(), Direction::Upload).unwrap();
        assert!(tx.delivered.is_none());
        assert_eq!(tx.attempts, cfg.max_retries + 1);
        assert_eq!(t.stats().failures, 1);
        assert_eq!(t.stats().drops as u32, cfg.max_retries + 1);
        // Backoff made the failed exchange take nonzero simulated time.
        assert!(tx.elapsed > SimTime::ZERO);
    }

    #[test]
    fn corruption_is_detected_and_retried() {
        let faults = FaultConfig {
            corrupt_prob: 1.0,
            ..FaultConfig::default()
        };
        let cfg = config(faults, LinkProfile::ideal());
        let mut t = SimTransport::new(1, &cfg, 7).unwrap();
        let tx = t.transmit(0, &frame(), Direction::Upload).unwrap();
        // Every attempt corrupts, so the message ultimately fails —
        // but every corruption was caught by the CRC, none delivered.
        assert!(tx.delivered.is_none());
        assert_eq!(t.stats().corruptions_detected as u32, cfg.max_retries + 1);
    }

    #[test]
    fn lossy_link_eventually_delivers_clean_frames() {
        let faults = FaultConfig {
            drop_prob: 0.3,
            corrupt_prob: 0.3,
            delay_prob: 0.5,
            max_extra_delay_s: 2.0,
        };
        let cfg = NetConfig {
            max_retries: 50,
            ..config(
                faults,
                LinkProfile::constrained(1e6, 0.01).with_jitter(0.01),
            )
        };
        let mut t = SimTransport::new(1, &cfg, 99).unwrap();
        let f = frame();
        let mut delivered = 0;
        for _ in 0..50 {
            let tx = t.transmit(0, &f, Direction::Upload).unwrap();
            if let Some(got) = tx.delivered {
                assert_eq!(got, f, "delivered frames are never corrupted");
                delivered += 1;
            }
        }
        assert!(delivered > 40, "only {delivered}/50 delivered");
        assert!(t.stats().retries > 0);
        assert!(t.stats().corruptions_detected > 0);
        assert!(t.stats().extra_delays > 0);
    }

    #[test]
    fn same_seed_same_config_same_outcomes() {
        let faults = FaultConfig {
            drop_prob: 0.4,
            corrupt_prob: 0.2,
            delay_prob: 0.3,
            max_extra_delay_s: 1.0,
        };
        let cfg = config(faults, LinkProfile::constrained(1e5, 0.05).with_jitter(0.2));
        let run = || {
            let mut t = SimTransport::new(3, &cfg, 1234).unwrap();
            let f = frame();
            let mut log = Vec::new();
            for i in 0..30 {
                let tx = t.transmit(i % 3, &f, Direction::Upload).unwrap();
                log.push((tx.elapsed.as_secs_f64().to_bits(), tx.attempts));
            }
            (log, *t.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unknown_device_and_invalid_config_error() {
        let cfg = config(FaultConfig::default(), LinkProfile::ideal());
        let mut t = SimTransport::new(1, &cfg, 0).unwrap();
        assert!(matches!(
            t.transmit(5, &frame(), Direction::Upload),
            Err(NetError::UnknownDevice { .. })
        ));
        assert!(t.set_link(9, LinkProfile::ideal()).is_err());
        let bad = NetConfig {
            faults: FaultConfig {
                drop_prob: 2.0,
                ..FaultConfig::default()
            },
            ..NetConfig::default()
        };
        assert!(SimTransport::new(1, &bad, 0).is_err());
    }

    #[test]
    fn fleet_scale_state_is_sparse_and_order_independent() {
        let faults = FaultConfig {
            drop_prob: 0.2,
            delay_prob: 0.3,
            max_extra_delay_s: 0.5,
            ..FaultConfig::default()
        };
        let cfg = config(
            faults,
            LinkProfile::constrained(1e6, 0.01).with_jitter(0.05),
        );
        // 100k enrolled devices cost nothing until they see traffic.
        let mut t = SimTransport::new(100_000, &cfg, 7).unwrap();
        assert_eq!(t.num_devices, 100_000);
        assert_eq!(touched_devices(&t), 0);
        let f = frame();
        let a = t.transmit(99_999, &f, Direction::Upload).unwrap();
        let b = t.transmit(3, &f, Direction::Upload).unwrap();
        assert!(touched_devices(&t) <= 2);
        // Per-device streams are pure in (seed, index): a transport that
        // serves the same devices in the opposite order sees identical
        // outcomes.
        let mut u = SimTransport::new(100_000, &cfg, 7).unwrap();
        let b2 = u.transmit(3, &f, Direction::Upload).unwrap();
        let a2 = u.transmit(99_999, &f, Direction::Upload).unwrap();
        assert_eq!(a, a2);
        assert_eq!(b, b2);
    }

    #[test]
    fn untouched_devices_report_zero_stats() {
        let cfg = config(FaultConfig::default(), LinkProfile::ideal());
        let t = SimTransport::new(10, &cfg, 1).unwrap();
        assert_eq!(t.device_stats(9), DeviceStats::default());
        // Out-of-range queries are also all-zero rather than a panic.
        assert_eq!(t.device_stats(10_000), DeviceStats::default());
    }

    #[test]
    fn add_device_extends_fleet_deterministically() {
        let cfg = config(FaultConfig::default(), LinkProfile::ideal());
        let mut a = SimTransport::new(2, &cfg, 5).unwrap();
        let id = a.add_device();
        assert_eq!(id, 2);
        assert_eq!(a.num_devices, 3);
        // A transport built with 3 devices up front has identical streams.
        let b = SimTransport::new(3, &cfg, 5).unwrap();
        let fa = frame();
        let mut a2 = a.clone();
        let mut b2 = b.clone();
        let ta = a2.transmit(2, &fa, Direction::Upload).unwrap();
        let tb = b2.transmit(2, &fa, Direction::Upload).unwrap();
        assert_eq!(ta, tb);
    }
}
