//! The typed event taxonomy of the round lifecycle.
//!
//! Every event is stamped with **simulated** time at emission (see
//! [`crate::set_sim_time`]); host wall-clock never appears in a trace,
//! which is what makes traces bitwise reproducible across thread widths.
//!
//! The JSON shape is one object per record: the timestamp, the
//! `"type"` discriminant, then the variant's fields in declaration
//! order, all derived:
//!
//! ```json
//! {"t":12.5,"type":"FrameSent","device":3,"dir":"up","bytes":1024,"attempt":1}
//! ```

use serde::{Deserialize, Serialize};

/// Which way a frame travelled over the simulated transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dir {
    /// Server → device (global model broadcast).
    #[serde(rename = "down")]
    Down,
    /// Device → server (local update upload).
    #[serde(rename = "up")]
    Up,
}

/// One structured event on the round-lifecycle timeline.
///
/// The taxonomy covers the whole stack: the round driver (round and
/// phase boundaries, selection, aggregation, evaluation), the
/// environment (broadcast, training completion, joins), the simulated
/// transport (per-attempt frame outcomes), and the Helios soft-training
/// regulator (mask issuance, skip settlement).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type")]
pub enum TraceEvent {
    /// A new aggregation cycle begins.
    RoundStart {
        /// Cycle index.
        cycle: u64,
        /// Enrolled population size (may exceed the per-cycle cohort at
        /// fleet scale).
        population: u64,
    },
    /// A driver phase begins (`select`, `broadcast`, `configure`,
    /// `train`, `route`, `aggregate`, `evaluate`).
    PhaseStart {
        /// Cycle index.
        cycle: u64,
        /// Phase name.
        phase: String,
    },
    /// A driver phase ends.
    PhaseEnd {
        /// Cycle index.
        cycle: u64,
        /// Phase name.
        phase: String,
    },
    /// The policy selected a device for this cycle.
    DeviceSelected {
        /// Cycle index.
        cycle: u64,
        /// Client/device id.
        device: u64,
        /// Size of the cohort this selection belongs to.
        cohort: u64,
    },
    /// The global model went out to the fleet.
    BroadcastSent {
        /// Cycle index the broadcast is tagged with.
        cycle: u64,
        /// Number of receiving devices.
        devices: u64,
    },
    /// A soft-training mask was installed on a straggler.
    MaskIssued {
        /// Cycle index.
        cycle: u64,
        /// Client/device id.
        device: u64,
        /// Units active under the mask.
        active_units: u64,
        /// Total maskable units.
        total_units: u64,
    },
    /// A device finished its local training cycle.
    TrainDone {
        /// Client/device id.
        device: u64,
        /// Simulated compute span of the cycle (cost model, masked).
        compute_s: f64,
    },
    /// One transmission attempt was put on the wire.
    FrameSent {
        /// Transport device index.
        device: u64,
        /// Transfer direction.
        dir: Dir,
        /// Frame size in bytes.
        bytes: u64,
        /// Attempt number (1-based).
        attempt: u64,
        /// Wire-v2 compression mode tag (`"delta"`, `"topk"`, `"qf16"`,
        /// `"qi8"`). `None` — and *omitted from the serialized record* —
        /// for v1 frames, so traces captured before wire v2 (and runs
        /// with compression off) stay byte-identical.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        mode: Option<String>,
    },
    /// An attempt was lost in flight.
    FrameDropped {
        /// Transport device index.
        device: u64,
        /// Attempt number (1-based).
        attempt: u64,
    },
    /// An attempt arrived corrupted and was rejected by the CRC check.
    FrameCorrupted {
        /// Transport device index.
        device: u64,
        /// Attempt number (1-based).
        attempt: u64,
    },
    /// A retransmission was scheduled after a drop or corruption.
    Retry {
        /// Transport device index.
        device: u64,
        /// The attempt that failed (1-based); the retry is `attempt+1`.
        attempt: u64,
        /// Backoff before the retry, simulated seconds.
        backoff_s: f64,
    },
    /// A message was delivered (terminal outcome).
    Delivered {
        /// Transport device index.
        device: u64,
        /// Delivered frame size in bytes.
        bytes: u64,
        /// Attempts the message took.
        attempts: u64,
        /// Simulated send-to-delivery span, seconds.
        elapsed_s: f64,
    },
    /// A message exhausted its retries (terminal outcome).
    SendFailed {
        /// Transport device index.
        device: u64,
        /// Attempts made before giving up.
        attempts: u64,
        /// Simulated span spent trying, seconds.
        elapsed_s: f64,
    },
    /// The per-round deadline cut a device off (terminal outcome).
    Timeout {
        /// Transport device index.
        device: u64,
    },
    /// A delivered update entered the global aggregate.
    UpdateAggregated {
        /// Cycle index.
        cycle: u64,
        /// Client/device id.
        device: u64,
    },
    /// The skip-cycle regulator settled a straggler's mask issuance
    /// against the round outcome.
    SkipSettled {
        /// Cycle index.
        cycle: u64,
        /// Client/device id.
        device: u64,
        /// Whether the update was delivered (counters reset) or the
        /// cycle was missed (every counter incremented).
        delivered: bool,
    },
    /// Global-model evaluation finished.
    EvalDone {
        /// Cycle index.
        cycle: u64,
        /// Test loss.
        loss: f64,
        /// Test accuracy.
        accuracy: f64,
    },
    /// An aggregation cycle ended.
    RoundEnd {
        /// Cycle index.
        cycle: u64,
        /// The cycle's simulated span, seconds.
        span_s: f64,
        /// Training share of the span, seconds.
        train_s: f64,
        /// Communication/waiting share of the span, seconds.
        comm_s: f64,
        /// Updates folded into the global model.
        aggregated: u64,
        /// Participants that missed the cycle.
        missed: u64,
    },
    /// A device joined the fleet mid-run.
    DeviceJoined {
        /// Client/device id.
        device: u64,
    },
    /// The scenario engine applied a timeline event (churn, throttle,
    /// drift). Emitted serially at the driver's hook points, so traces
    /// stay byte-identical across thread counts.
    ScenarioEvent {
        /// Cycle index at which the event was applied.
        cycle: u64,
        /// Stable event identifier (`join`, `leave`, `return`,
        /// `throttle`, `outage`, `drift_label_rotate`,
        /// `drift_input_shift`).
        kind: String,
        /// Affected device, when the event is device-scoped (`None` for
        /// fleet-wide effects such as drift or a fleet-wide throttle).
        #[serde(default)]
        device: Option<u64>,
        /// Event magnitude: current scale for `throttle`, drift amount
        /// for drift kinds, the device id count for `join`, else `0`.
        value: f64,
    },
}

impl TraceEvent {
    /// The `"type"` discriminant this event serializes under.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RoundStart { .. } => "RoundStart",
            TraceEvent::PhaseStart { .. } => "PhaseStart",
            TraceEvent::PhaseEnd { .. } => "PhaseEnd",
            TraceEvent::DeviceSelected { .. } => "DeviceSelected",
            TraceEvent::BroadcastSent { .. } => "BroadcastSent",
            TraceEvent::MaskIssued { .. } => "MaskIssued",
            TraceEvent::TrainDone { .. } => "TrainDone",
            TraceEvent::FrameSent { .. } => "FrameSent",
            TraceEvent::FrameDropped { .. } => "FrameDropped",
            TraceEvent::FrameCorrupted { .. } => "FrameCorrupted",
            TraceEvent::Retry { .. } => "Retry",
            TraceEvent::Delivered { .. } => "Delivered",
            TraceEvent::SendFailed { .. } => "SendFailed",
            TraceEvent::Timeout { .. } => "Timeout",
            TraceEvent::UpdateAggregated { .. } => "UpdateAggregated",
            TraceEvent::SkipSettled { .. } => "SkipSettled",
            TraceEvent::EvalDone { .. } => "EvalDone",
            TraceEvent::RoundEnd { .. } => "RoundEnd",
            TraceEvent::DeviceJoined { .. } => "DeviceJoined",
            TraceEvent::ScenarioEvent { .. } => "ScenarioEvent",
        }
    }

    /// The device this event concerns, if it is device-scoped.
    pub(crate) fn device(&self) -> Option<u64> {
        match self {
            TraceEvent::DeviceSelected { device, .. }
            | TraceEvent::MaskIssued { device, .. }
            | TraceEvent::TrainDone { device, .. }
            | TraceEvent::FrameSent { device, .. }
            | TraceEvent::FrameDropped { device, .. }
            | TraceEvent::FrameCorrupted { device, .. }
            | TraceEvent::Retry { device, .. }
            | TraceEvent::Delivered { device, .. }
            | TraceEvent::SendFailed { device, .. }
            | TraceEvent::Timeout { device }
            | TraceEvent::UpdateAggregated { device, .. }
            | TraceEvent::SkipSettled { device, .. }
            | TraceEvent::DeviceJoined { device } => Some(*device),
            TraceEvent::ScenarioEvent { device, .. } => *device,
            _ => None,
        }
    }
}

/// One event plus its simulated timestamp — the unit every sink
/// receives and every JSONL line encodes. Flat on the wire: the
/// timestamp rides first, then the event's own fields —
/// `{"t":1.5,"type":"Timeout","device":2}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Simulated time at emission, seconds.
    pub t: f64,
    /// The event payload.
    #[serde(flatten)]
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RoundStart {
                cycle: 3,
                population: 100,
            },
            TraceEvent::PhaseStart {
                cycle: 3,
                phase: "train".into(),
            },
            TraceEvent::PhaseEnd {
                cycle: 3,
                phase: "train".into(),
            },
            TraceEvent::DeviceSelected {
                cycle: 3,
                device: 1,
                cohort: 2,
            },
            TraceEvent::BroadcastSent {
                cycle: 3,
                devices: 4,
            },
            TraceEvent::MaskIssued {
                cycle: 3,
                device: 2,
                active_units: 17,
                total_units: 42,
            },
            TraceEvent::TrainDone {
                device: 2,
                compute_s: 1.25,
            },
            TraceEvent::FrameSent {
                device: 0,
                dir: Dir::Up,
                bytes: 2048,
                attempt: 1,
                mode: None,
            },
            TraceEvent::FrameSent {
                device: 0,
                dir: Dir::Up,
                bytes: 512,
                attempt: 1,
                mode: Some("qi8".into()),
            },
            TraceEvent::FrameDropped {
                device: 0,
                attempt: 1,
            },
            TraceEvent::FrameCorrupted {
                device: 0,
                attempt: 2,
            },
            TraceEvent::Retry {
                device: 0,
                attempt: 2,
                backoff_s: 0.5,
            },
            TraceEvent::Delivered {
                device: 0,
                bytes: 2048,
                attempts: 3,
                elapsed_s: 2.75,
            },
            TraceEvent::SendFailed {
                device: 1,
                attempts: 4,
                elapsed_s: 9.5,
            },
            TraceEvent::Timeout { device: 1 },
            TraceEvent::UpdateAggregated {
                cycle: 3,
                device: 0,
            },
            TraceEvent::SkipSettled {
                cycle: 3,
                device: 2,
                delivered: true,
            },
            TraceEvent::EvalDone {
                cycle: 3,
                loss: 1.5,
                accuracy: 0.5,
            },
            TraceEvent::RoundEnd {
                cycle: 3,
                span_s: 10.0,
                train_s: 8.0,
                comm_s: 2.0,
                aggregated: 3,
                missed: 1,
            },
            TraceEvent::DeviceJoined { device: 4 },
            TraceEvent::ScenarioEvent {
                cycle: 3,
                kind: "throttle".into(),
                device: Some(2),
                value: 0.75,
            },
            TraceEvent::ScenarioEvent {
                cycle: 4,
                kind: "drift_label_rotate".into(),
                device: None,
                value: 1.0,
            },
        ]
    }

    #[test]
    fn frame_sent_without_mode_serializes_exactly_as_before_wire_v2() {
        // The pinned trace digest (tests/tests/trace_determinism.rs)
        // hashes these bytes: a v1 FrameSent record must not grow a
        // `mode` key.
        let event = TraceEvent::FrameSent {
            device: 3,
            dir: Dir::Up,
            bytes: 1024,
            attempt: 1,
            mode: None,
        };
        let json = serde_json::to_string(&event).expect("serialize");
        assert_eq!(
            json,
            r#"{"type":"FrameSent","device":3,"dir":"up","bytes":1024,"attempt":1}"#
        );
        // A v2 frame carries the tag.
        let event = TraceEvent::FrameSent {
            device: 3,
            dir: Dir::Up,
            bytes: 256,
            attempt: 2,
            mode: Some("topk".into()),
        };
        let json = serde_json::to_string(&event).expect("serialize");
        assert!(json.ends_with(r#""mode":"topk"}"#), "{json}");
    }

    /// The exact JSONL line of every `samples()` entry, stamped
    /// `t = 0.5 * index`: the trace schema's bytes, variant by variant.
    const GOLDEN_LINES: [&str; 22] = [
        r#"{"t":0.0,"type":"RoundStart","cycle":3,"population":100}"#,
        r#"{"t":0.5,"type":"PhaseStart","cycle":3,"phase":"train"}"#,
        r#"{"t":1.0,"type":"PhaseEnd","cycle":3,"phase":"train"}"#,
        r#"{"t":1.5,"type":"DeviceSelected","cycle":3,"device":1,"cohort":2}"#,
        r#"{"t":2.0,"type":"BroadcastSent","cycle":3,"devices":4}"#,
        r#"{"t":2.5,"type":"MaskIssued","cycle":3,"device":2,"active_units":17,"total_units":42}"#,
        r#"{"t":3.0,"type":"TrainDone","device":2,"compute_s":1.25}"#,
        r#"{"t":3.5,"type":"FrameSent","device":0,"dir":"up","bytes":2048,"attempt":1}"#,
        r#"{"t":4.0,"type":"FrameSent","device":0,"dir":"up","bytes":512,"attempt":1,"mode":"qi8"}"#,
        r#"{"t":4.5,"type":"FrameDropped","device":0,"attempt":1}"#,
        r#"{"t":5.0,"type":"FrameCorrupted","device":0,"attempt":2}"#,
        r#"{"t":5.5,"type":"Retry","device":0,"attempt":2,"backoff_s":0.5}"#,
        r#"{"t":6.0,"type":"Delivered","device":0,"bytes":2048,"attempts":3,"elapsed_s":2.75}"#,
        r#"{"t":6.5,"type":"SendFailed","device":1,"attempts":4,"elapsed_s":9.5}"#,
        r#"{"t":7.0,"type":"Timeout","device":1}"#,
        r#"{"t":7.5,"type":"UpdateAggregated","cycle":3,"device":0}"#,
        r#"{"t":8.0,"type":"SkipSettled","cycle":3,"device":2,"delivered":true}"#,
        r#"{"t":8.5,"type":"EvalDone","cycle":3,"loss":1.5,"accuracy":0.5}"#,
        r#"{"t":9.0,"type":"RoundEnd","cycle":3,"span_s":10.0,"train_s":8.0,"comm_s":2.0,"aggregated":3,"missed":1}"#,
        r#"{"t":9.5,"type":"DeviceJoined","device":4}"#,
        r#"{"t":10.0,"type":"ScenarioEvent","cycle":3,"kind":"throttle","device":2,"value":0.75}"#,
        r#"{"t":10.5,"type":"ScenarioEvent","cycle":4,"kind":"drift_label_rotate","device":null,"value":1.0}"#,
    ];

    #[test]
    fn every_variant_serializes_to_its_golden_line() {
        let samples = samples();
        assert_eq!(samples.len(), GOLDEN_LINES.len());
        for (i, (event, golden)) in samples.into_iter().zip(GOLDEN_LINES).enumerate() {
            let rec = TraceRecord {
                t: i as f64 * 0.5,
                event,
            };
            assert_eq!(serde_json::to_string(&rec).expect("serialize"), golden);
            let back: TraceRecord = serde_json::from_str(golden).expect("deserialize");
            assert_eq!(back, rec, "{golden}");
        }
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        for (i, event) in samples().into_iter().enumerate() {
            let rec = TraceRecord {
                t: i as f64 * 0.5,
                event,
            };
            let json = serde_json::to_string(&rec).expect("serialize");
            assert!(json.starts_with("{\"t\":"), "{json}");
            let back: TraceRecord = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, rec, "{json}");
        }
    }

    #[test]
    fn kind_and_accessors_agree_with_serialization() {
        for event in samples() {
            let json = serde_json::to_string(&event).expect("serialize");
            assert!(json.contains(&format!("\"type\":\"{}\"", event.kind())));
            if let Some(d) = event.device() {
                assert!(json.contains(&format!("\"device\":{d}")));
            }
        }
    }

    #[test]
    fn unknown_type_is_rejected() {
        let err = serde_json::from_str::<TraceEvent>(r#"{"type":"Nope"}"#);
        assert!(err.is_err());
        let err = serde_json::from_str::<TraceRecord>(r#"{"type":"Timeout","device":1}"#);
        assert!(err.is_err(), "missing timestamp must fail");
    }
}
