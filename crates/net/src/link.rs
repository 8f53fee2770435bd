//! Link profiles and fault/transport configuration.
//!
//! Everything here is a plain-old-data `Copy` struct with `serde`
//! defaults, so a [`NetConfig`] can be embedded in `helios_fl::FlConfig`
//! without breaking `Copy` or the loadability of pre-existing JSON
//! configs (a missing `net` section deserializes to the disabled
//! default).

use crate::codec::{self, CompressionMode, WireSize};
use crate::error::NetError;
use helios_device::SimTime;
use serde::{Deserialize, Serialize};

fn default_topk_ratio() -> f64 {
    0.1
}

/// Upload-compression section of a [`NetConfig`]: whether clients upload
/// v1 frames or wire-v2 top-k frames, and the top-k keep fraction.
///
/// Every field has a `serde` default and the default mode is
/// [`CompressionMode::None`], so configurations written before wire v2
/// keep loading — and running — bit-for-bit unchanged. A mode name other
/// than `None` or `TopK` is a deserialization error. Broadcasts are
/// *never* compressed: the broadcast **is** the shared base a top-k
/// frame encodes against, so it must arrive bit-exact (see the
/// negotiation rule in DESIGN.md §4k).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompressionConfig {
    /// Upload frame layout; `None` keeps v1 full/masked frames.
    #[serde(default)]
    pub mode: CompressionMode,
    /// Fraction of parameters the `TopK` mode keeps (rounded up to at
    /// least one entry), in `(0, 1]`. Ignored by `None`.
    #[serde(default = "default_topk_ratio")]
    pub topk_ratio: f64,
}

impl Default for CompressionConfig {
    fn default() -> Self {
        CompressionConfig {
            mode: CompressionMode::None,
            topk_ratio: default_topk_ratio(),
        }
    }
}

impl CompressionConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] for a top-k ratio outside
    /// `(0, 1]`.
    pub(crate) fn validate(&self) -> Result<(), NetError> {
        if !(self.topk_ratio.is_finite() && self.topk_ratio > 0.0 && self.topk_ratio <= 1.0) {
            return Err(NetError::InvalidConfig {
                what: format!("topk_ratio {} outside (0, 1]", self.topk_ratio),
            });
        }
        Ok(())
    }

    /// Entries the `TopK` mode keeps for a model of `params` parameters:
    /// `⌈ratio · params⌉`, at least 1 (0 only for an empty model).
    pub fn topk_count(&self, params: usize) -> usize {
        if params == 0 {
            return 0;
        }
        ((self.topk_ratio * params as f64).ceil() as usize).clamp(1, params)
    }

    /// Encodes one update upload under the configured mode, against the
    /// broadcast `base` the receiver holds. With mode `None` this is
    /// exactly the v1 `codec::encode_update` path. `mask` is the
    /// parameter mask as LSB-first `u64` words (a `UnitMask`'s words,
    /// `params.len()` bits); top-k does not consult it.
    ///
    /// # Errors
    ///
    /// Propagates the underlying encoder's [`NetError`] conditions,
    /// including a typed error for a mask of the wrong word count or with
    /// a padding bit set.
    pub fn encode_update(
        &self,
        sender: u32,
        cycle: u32,
        params: &[f32],
        mask: Option<&[u64]>,
        base: &[f32],
    ) -> Result<Vec<u8>, NetError> {
        match self.mode {
            CompressionMode::None => codec::encode_update(sender, cycle, params, mask),
            CompressionMode::TopK => {
                codec::encode_topk(sender, cycle, params, base, self.topk_count(params.len()))
            }
        }
    }

    /// Deterministic upload-size estimate for a model of `params`
    /// parameters with `active` of them trained (`None` = no mask). This
    /// is the planning-side counterpart of [`Self::encode_update`], used
    /// for deadline fitting and analytic comm accounting; a `TopK` size
    /// depends on how many entries actually changed, so the estimate uses
    /// the worst case (every active entry changed).
    pub fn upload_wire_size(&self, params: usize, active: Option<usize>) -> WireSize {
        match (self.mode, active) {
            (CompressionMode::None, Some(a)) => WireSize::masked(params, a),
            (CompressionMode::None, None) => WireSize::full(params),
            (CompressionMode::TopK, _) => {
                WireSize::topk(self.topk_count(params).min(active.unwrap_or(params)))
            }
        }
    }
}

/// Bandwidth/latency/jitter description of one device's uplink and
/// downlink (links are modeled symmetric).
///
/// The default profile is the *ideal link*: unlimited bandwidth, zero
/// latency, zero jitter. Routing a round through an ideal link adds
/// exactly zero simulated time, which is what keeps transport-routed
/// runs bitwise identical to the direct in-memory path when networking
/// is enabled without link constraints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkProfile {
    /// Sustained throughput in bytes per second; `None` = unlimited.
    #[serde(default)]
    pub bandwidth_bps: Option<f64>,
    /// Fixed one-way latency per message, in seconds.
    #[serde(default)]
    pub latency_s: f64,
    /// Maximum uniform jitter added per message, in seconds (the draw
    /// comes from the transport's per-device RNG).
    #[serde(default)]
    pub jitter_s: f64,
}

impl Default for LinkProfile {
    fn default() -> Self {
        LinkProfile::ideal()
    }
}

impl LinkProfile {
    /// The ideal link: unlimited bandwidth, zero latency, zero jitter.
    pub const fn ideal() -> Self {
        LinkProfile {
            bandwidth_bps: None,
            latency_s: 0.0,
            jitter_s: 0.0,
        }
    }

    /// A bandwidth- and latency-constrained link.
    pub const fn constrained(bandwidth_bps: f64, latency_s: f64) -> Self {
        LinkProfile {
            bandwidth_bps: Some(bandwidth_bps),
            latency_s,
            jitter_s: 0.0,
        }
    }

    /// Adds uniform jitter in `[0, jitter_s)` per message.
    pub const fn with_jitter(mut self, jitter_s: f64) -> Self {
        self.jitter_s = jitter_s;
        self
    }

    /// Deterministic expected transfer time for `bytes` (latency plus
    /// serialization delay, without jitter or faults) — the estimator the
    /// Helios scheduler uses for deadlines and straggler ranking.
    pub fn expected_transfer(&self, bytes: usize) -> SimTime {
        let serialization = match self.bandwidth_bps {
            Some(bw) => bytes as f64 / bw,
            None => 0.0,
        };
        SimTime::from_secs(self.latency_s + serialization)
    }

    /// Validates the profile.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] for non-finite or non-positive
    /// bandwidth, or negative/non-finite latency or jitter.
    pub(crate) fn validate(&self) -> Result<(), NetError> {
        if let Some(bw) = self.bandwidth_bps {
            if !(bw.is_finite() && bw > 0.0) {
                return Err(NetError::InvalidConfig {
                    what: format!("bandwidth {bw} must be positive and finite"),
                });
            }
        }
        for (name, v) in [("latency_s", self.latency_s), ("jitter_s", self.jitter_s)] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(NetError::InvalidConfig {
                    what: format!("{name} {v} must be non-negative and finite"),
                });
            }
        }
        Ok(())
    }
}

/// Probabilities of the injected transmission faults. All default to
/// zero (a quiet network).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability that a transmission attempt is silently lost.
    #[serde(default)]
    pub drop_prob: f64,
    /// Probability that an attempt arrives with a flipped byte; the
    /// receiver's CRC32 check detects it and the sender retries.
    #[serde(default)]
    pub corrupt_prob: f64,
    /// Probability that an attempt suffers an extra queuing delay.
    #[serde(default)]
    pub delay_prob: f64,
    /// Maximum extra delay in seconds (uniform in `[0, max)`).
    #[serde(default)]
    pub max_extra_delay_s: f64,
}

impl FaultConfig {
    /// Validates the fault probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] for probabilities outside
    /// `[0, 1]` or a negative/non-finite delay bound.
    pub(crate) fn validate(&self) -> Result<(), NetError> {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("corrupt_prob", self.corrupt_prob),
            ("delay_prob", self.delay_prob),
        ] {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(NetError::InvalidConfig {
                    what: format!("{name} {p} outside [0, 1]"),
                });
            }
        }
        if !(self.max_extra_delay_s.is_finite() && self.max_extra_delay_s >= 0.0) {
            return Err(NetError::InvalidConfig {
                what: format!(
                    "max_extra_delay_s {} must be non-negative and finite",
                    self.max_extra_delay_s
                ),
            });
        }
        Ok(())
    }
}

fn default_max_retries() -> u32 {
    3
}

/// The network section of a federated run configuration.
///
/// Every field has a `serde` default, so configs written before this
/// section existed keep loading unchanged (they get the disabled
/// default). With `enabled: false` the environment never constructs a
/// transport and rounds take the direct in-memory path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Route rounds through the simulated transport.
    #[serde(default)]
    pub enabled: bool,
    /// Link profile every device starts with (override per device via
    /// the transport or `FlEnv::set_link`).
    #[serde(default)]
    pub link: LinkProfile,
    /// Fault-injection probabilities.
    #[serde(default)]
    pub faults: FaultConfig,
    /// Transmission attempts beyond the first before a message is given
    /// up as failed.
    #[serde(default = "default_max_retries")]
    pub max_retries: u32,
    /// Per-round deadline in seconds; a participant whose exchange
    /// completes later misses the cycle (`None` = wait forever).
    #[serde(default)]
    pub round_timeout_s: Option<f64>,
    /// Wire-v2 upload compression (default: off, v1 frames).
    #[serde(default)]
    pub compression: CompressionConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            enabled: false,
            link: LinkProfile::ideal(),
            faults: FaultConfig::default(),
            max_retries: default_max_retries(),
            round_timeout_s: None,
            compression: CompressionConfig::default(),
        }
    }
}

impl NetConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] when the link, faults,
    /// compression, or timeout hold invalid values.
    pub fn validate(&self) -> Result<(), NetError> {
        self.link.validate()?;
        self.faults.validate()?;
        self.compression.validate()?;
        if let Some(t) = self.round_timeout_s {
            if !(t.is_finite() && t > 0.0) {
                return Err(NetError::InvalidConfig {
                    what: format!("round_timeout_s {t} must be positive and finite"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_ideal() {
        let cfg = NetConfig::default();
        assert!(!cfg.enabled);
        assert_eq!(cfg.link, LinkProfile::ideal());
        assert_eq!(cfg.faults, FaultConfig::default());
        assert!(cfg.round_timeout_s.is_none());
        cfg.validate().unwrap();
    }

    #[test]
    fn ideal_link_transfers_in_zero_time() {
        let link = LinkProfile::ideal();
        assert_eq!(link.expected_transfer(1 << 30), SimTime::ZERO);
    }

    #[test]
    fn constrained_link_models_latency_plus_serialization() {
        let link = LinkProfile::constrained(1000.0, 0.25);
        let t = link.expected_transfer(500);
        assert!((t.as_secs_f64() - 0.75).abs() < 1e-12);
        assert_ne!(link, LinkProfile::ideal());
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut link = LinkProfile::constrained(0.0, 0.0);
        assert!(link.validate().is_err());
        link.bandwidth_bps = Some(f64::NAN);
        assert!(link.validate().is_err());
        let link = LinkProfile {
            latency_s: -1.0,
            ..LinkProfile::ideal()
        };
        assert!(link.validate().is_err());
        let faults = FaultConfig {
            drop_prob: 1.5,
            ..FaultConfig::default()
        };
        assert!(faults.validate().is_err());
        let cfg = NetConfig {
            round_timeout_s: Some(0.0),
            ..NetConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn partial_json_fills_defaults() {
        // A config section naming only what it changes.
        let v: NetConfig =
            serde_json::from_str(r#"{"enabled": true, "link": {"latency_s": 0.1}}"#).unwrap();
        assert!(v.enabled);
        assert_eq!(v.link.latency_s, 0.1);
        assert!(v.link.bandwidth_bps.is_none());
        assert_eq!(v.max_retries, 3);
        // A config naming the retired `retry_backoff_s` still loads; the
        // backoff is fixed and the value is ignored.
        let legacy: NetConfig = serde_json::from_str(r#"{"retry_backoff_s": 0.5}"#).unwrap();
        assert_eq!(legacy, NetConfig::default());
        // Pre-v2 configs carry no `compression` section → v1 behavior.
        assert_eq!(v.compression.mode, CompressionMode::None);
        assert_eq!(v.compression.topk_ratio, 0.1);
    }

    #[test]
    fn compression_config_parses_from_partial_json() {
        let v: CompressionConfig = serde_json::from_str(r#"{"mode": "TopK"}"#).unwrap();
        assert_eq!(v.mode, CompressionMode::TopK);
        assert_eq!(v.topk_ratio, 0.1);
        let v: CompressionConfig =
            serde_json::from_str(r#"{"mode": "None", "topk_ratio": 0.25}"#).unwrap();
        assert_eq!(v.mode, CompressionMode::None);
        assert_eq!(v.topk_ratio, 0.25);
        // The retired modes are typed errors, not a silent fallback.
        for mode in ["Delta", "QuantF16", "QuantInt8"] {
            let json = format!(r#"{{"mode": "{mode}"}}"#);
            assert!(
                serde_json::from_str::<CompressionConfig>(&json).is_err(),
                "{mode} parsed"
            );
        }
    }

    #[test]
    fn compression_validation_rejects_bad_ratio() {
        for ratio in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let cfg = CompressionConfig {
                mode: CompressionMode::TopK,
                topk_ratio: ratio,
            };
            assert!(cfg.validate().is_err(), "ratio {ratio} accepted");
        }
        CompressionConfig {
            mode: CompressionMode::TopK,
            topk_ratio: 1.0,
        }
        .validate()
        .unwrap();
        // NetConfig::validate covers the nested section.
        let cfg = NetConfig {
            compression: CompressionConfig {
                mode: CompressionMode::TopK,
                topk_ratio: 0.0,
            },
            ..NetConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn topk_count_rounds_up_and_clamps() {
        let cfg = CompressionConfig {
            mode: CompressionMode::TopK,
            topk_ratio: 0.1,
        };
        assert_eq!(cfg.topk_count(0), 0);
        assert_eq!(cfg.topk_count(1), 1);
        assert_eq!(cfg.topk_count(10), 1);
        assert_eq!(cfg.topk_count(15), 2);
        let full = CompressionConfig {
            mode: CompressionMode::TopK,
            topk_ratio: 1.0,
        };
        assert_eq!(full.topk_count(10), 10);
    }

    #[test]
    fn encode_update_dispatches_on_mode() {
        use crate::codec::{decode, frame_mode, Payload};
        let base = vec![1.0, 2.0, 3.0];
        let update = vec![1.5, 2.0, 3.5];
        let cases = [
            (CompressionMode::None, None),
            (CompressionMode::TopK, Some("topk")),
        ];
        for (mode, expect) in cases {
            let cfg = CompressionConfig {
                mode,
                ..CompressionConfig::default()
            };
            let frame = cfg.encode_update(4, 2, &update, None, &base).unwrap();
            assert_eq!(frame_mode(&frame), expect, "mode {mode:?}");
            let decoded = decode(&frame).unwrap();
            assert_eq!(decoded.sender, 4);
            assert_eq!(decoded.cycle, 2);
        }
        // Mode None respects the v1 full/masked split.
        let cfg = CompressionConfig::default();
        let masked = cfg
            .encode_update(0, 0, &update, Some(&[0b101]), &base)
            .unwrap();
        assert!(matches!(
            decode(&masked).unwrap().payload,
            Payload::Masked { .. }
        ));
    }

    /// The one mode that reads the mask (`None`, whose masked frames
    /// carry it) rejects a malformed word slice with a typed error
    /// instead of panicking.
    #[test]
    fn encode_update_rejects_malformed_mask_words_in_every_masking_mode() {
        let params = vec![0.5f32; 70];
        let good = [u64::MAX, 0b11_1111];
        let cfg = CompressionConfig::default();
        let encode = |mask: &[u64]| cfg.encode_update(0, 0, &params, Some(mask), &params);
        assert!(encode(&good).is_ok());
        assert_eq!(
            encode(&good[..1]),
            Err(NetError::MaskLengthMismatch {
                params: 70,
                mask: 1
            })
        );
        assert_eq!(
            encode(&[u64::MAX, 0, 0]),
            Err(NetError::MaskLengthMismatch {
                params: 70,
                mask: 3
            })
        );
        assert_eq!(
            encode(&[u64::MAX, 1 << 6]),
            Err(NetError::MaskPaddingSet { params: 70 })
        );
    }

    #[test]
    fn upload_wire_size_estimates_per_mode() {
        use crate::codec::WireSize;
        let mk = |mode| CompressionConfig {
            mode,
            topk_ratio: 0.1,
        };
        let n = 1000;
        let act = 300;
        // v1 estimates are unchanged.
        assert_eq!(
            mk(CompressionMode::None).upload_wire_size(n, Some(act)),
            WireSize::masked(n, act)
        );
        assert_eq!(
            mk(CompressionMode::None).upload_wire_size(n, None),
            WireSize::full(n)
        );
        // Top-k keeps ratio·n entries, capped by the active count.
        assert_eq!(
            mk(CompressionMode::TopK).upload_wire_size(n, Some(act)),
            WireSize::topk(100)
        );
        assert_eq!(
            mk(CompressionMode::TopK).upload_wire_size(n, Some(50)),
            WireSize::topk(50)
        );
        assert_eq!(
            mk(CompressionMode::TopK).upload_wire_size(n, None),
            WireSize::topk(100)
        );
    }
}
