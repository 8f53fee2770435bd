//! The typed event taxonomy of the round lifecycle.
//!
//! Every event is stamped with **simulated** time at emission (see
//! [`crate::set_sim_time`]); host wall-clock never appears in a trace,
//! which is what makes traces bitwise reproducible across thread widths.
//!
//! The vendored `serde` stub derives only plain structs, so the enum
//! (de)serializes through hand-written [`Serialize`]/[`Deserialize`]
//! impls building the `Value` tree directly. The JSON shape is one
//! object per event with a `"type"` discriminant:
//!
//! ```json
//! {"t":12.5,"type":"FrameSent","device":3,"dir":"up","bytes":1024,"attempt":1}
//! ```

use serde::value::{find, Value};
use serde::{de, Deserialize, Serialize};

/// Which way a frame travelled (mirrors the transport's direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Server → device (global model broadcast).
    Down,
    /// Device → server (local update upload).
    Up,
}

impl Dir {
    fn as_str(self) -> &'static str {
        match self {
            Dir::Down => "down",
            Dir::Up => "up",
        }
    }

    fn parse(s: &str) -> Result<Self, de::Error> {
        match s {
            "down" => Ok(Dir::Down),
            "up" => Ok(Dir::Up),
            other => Err(de::Error::custom(format!("unknown direction `{other}`"))),
        }
    }
}

/// One structured event on the round-lifecycle timeline.
///
/// The taxonomy covers the whole stack: the round driver (round and
/// phase boundaries, selection, aggregation, evaluation), the
/// environment (broadcast, training completion, joins), the simulated
/// transport (per-attempt frame outcomes), and the Helios soft-training
/// regulator (mask issuance, skip settlement).
#[derive(Debug, Clone, PartialEq)]
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
        /// `throttle`, `drift_label_rotate`, `drift_input_shift`).
        kind: String,
        /// Affected device, when the event is device-scoped (`None` for
        /// fleet-wide effects such as drift or a fleet-wide throttle).
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
/// receives and every JSONL line encodes.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulated time at emission, seconds.
    pub t: f64,
    /// The event payload.
    pub event: TraceEvent,
}

fn map(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn u(v: u64) -> Value {
    Value::UInt(v)
}

fn f(v: f64) -> Value {
    Value::Float(v)
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let kind = ("type", s(self.kind()));
        match self {
            TraceEvent::RoundStart { cycle, population } => map(vec![
                kind,
                ("cycle", u(*cycle)),
                ("population", u(*population)),
            ]),
            TraceEvent::PhaseStart { cycle, phase } | TraceEvent::PhaseEnd { cycle, phase } => {
                map(vec![kind, ("cycle", u(*cycle)), ("phase", s(phase))])
            }
            TraceEvent::DeviceSelected {
                cycle,
                device,
                cohort,
            } => map(vec![
                kind,
                ("cycle", u(*cycle)),
                ("device", u(*device)),
                ("cohort", u(*cohort)),
            ]),
            TraceEvent::BroadcastSent { cycle, devices } => {
                map(vec![kind, ("cycle", u(*cycle)), ("devices", u(*devices))])
            }
            TraceEvent::MaskIssued {
                cycle,
                device,
                active_units,
                total_units,
            } => map(vec![
                kind,
                ("cycle", u(*cycle)),
                ("device", u(*device)),
                ("active_units", u(*active_units)),
                ("total_units", u(*total_units)),
            ]),
            TraceEvent::TrainDone { device, compute_s } => map(vec![
                kind,
                ("device", u(*device)),
                ("compute_s", f(*compute_s)),
            ]),
            TraceEvent::FrameSent {
                device,
                dir,
                bytes,
                attempt,
                mode,
            } => {
                let mut fields = vec![
                    kind,
                    ("device", u(*device)),
                    ("dir", s(dir.as_str())),
                    ("bytes", u(*bytes)),
                    ("attempt", u(*attempt)),
                ];
                // Omitted (not null) when absent: v1 records keep their
                // exact pre-wire-v2 bytes, pinning the trace digest.
                if let Some(m) = mode {
                    fields.push(("mode", s(m)));
                }
                map(fields)
            }
            TraceEvent::FrameDropped { device, attempt }
            | TraceEvent::FrameCorrupted { device, attempt } => {
                map(vec![kind, ("device", u(*device)), ("attempt", u(*attempt))])
            }
            TraceEvent::Retry {
                device,
                attempt,
                backoff_s,
            } => map(vec![
                kind,
                ("device", u(*device)),
                ("attempt", u(*attempt)),
                ("backoff_s", f(*backoff_s)),
            ]),
            TraceEvent::Delivered {
                device,
                bytes,
                attempts,
                elapsed_s,
            } => map(vec![
                kind,
                ("device", u(*device)),
                ("bytes", u(*bytes)),
                ("attempts", u(*attempts)),
                ("elapsed_s", f(*elapsed_s)),
            ]),
            TraceEvent::SendFailed {
                device,
                attempts,
                elapsed_s,
            } => map(vec![
                kind,
                ("device", u(*device)),
                ("attempts", u(*attempts)),
                ("elapsed_s", f(*elapsed_s)),
            ]),
            TraceEvent::Timeout { device } => map(vec![kind, ("device", u(*device))]),
            TraceEvent::UpdateAggregated { cycle, device } => {
                map(vec![kind, ("cycle", u(*cycle)), ("device", u(*device))])
            }
            TraceEvent::SkipSettled {
                cycle,
                device,
                delivered,
            } => map(vec![
                kind,
                ("cycle", u(*cycle)),
                ("device", u(*device)),
                ("delivered", Value::Bool(*delivered)),
            ]),
            TraceEvent::EvalDone {
                cycle,
                loss,
                accuracy,
            } => map(vec![
                kind,
                ("cycle", u(*cycle)),
                ("loss", f(*loss)),
                ("accuracy", f(*accuracy)),
            ]),
            TraceEvent::RoundEnd {
                cycle,
                span_s,
                train_s,
                comm_s,
                aggregated,
                missed,
            } => map(vec![
                kind,
                ("cycle", u(*cycle)),
                ("span_s", f(*span_s)),
                ("train_s", f(*train_s)),
                ("comm_s", f(*comm_s)),
                ("aggregated", u(*aggregated)),
                ("missed", u(*missed)),
            ]),
            TraceEvent::DeviceJoined { device } => map(vec![kind, ("device", u(*device))]),
            TraceEvent::ScenarioEvent {
                cycle,
                kind: scenario_kind,
                device,
                value,
            } => map(vec![
                kind,
                ("cycle", u(*cycle)),
                ("kind", s(scenario_kind)),
                ("device", device.map_or(Value::Null, u)),
                ("value", f(*value)),
            ]),
        }
    }
}

fn get<'a>(pairs: &'a [(String, Value)], key: &str) -> Result<&'a Value, de::Error> {
    find(pairs, key).ok_or_else(|| de::Error::custom(format!("missing field `{key}`")))
}

fn get_u64(pairs: &[(String, Value)], key: &str) -> Result<u64, de::Error> {
    match get(pairs, key)? {
        Value::UInt(v) => Ok(*v),
        Value::Int(v) if *v >= 0 => Ok(*v as u64),
        other => Err(de::Error::custom(format!(
            "field `{key}` is not an unsigned integer: {other:?}"
        ))),
    }
}

fn get_f64(pairs: &[(String, Value)], key: &str) -> Result<f64, de::Error> {
    match get(pairs, key)? {
        Value::Float(v) => Ok(*v),
        Value::UInt(v) => Ok(*v as f64),
        Value::Int(v) => Ok(*v as f64),
        other => Err(de::Error::custom(format!(
            "field `{key}` is not a number: {other:?}"
        ))),
    }
}

fn get_str<'a>(pairs: &'a [(String, Value)], key: &str) -> Result<&'a str, de::Error> {
    match get(pairs, key)? {
        Value::Str(v) => Ok(v),
        other => Err(de::Error::custom(format!(
            "field `{key}` is not a string: {other:?}"
        ))),
    }
}

/// Optional string field: absent or `null` reads as `None`.
fn get_opt_str(pairs: &[(String, Value)], key: &str) -> Result<Option<String>, de::Error> {
    match find(pairs, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(v)) => Ok(Some(v.clone())),
        Some(other) => Err(de::Error::custom(format!(
            "field `{key}` is not a string or null: {other:?}"
        ))),
    }
}

/// Optional device field: absent or `null` reads as `None`.
fn get_opt_u64(pairs: &[(String, Value)], key: &str) -> Result<Option<u64>, de::Error> {
    match find(pairs, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::UInt(v)) => Ok(Some(*v)),
        Some(Value::Int(v)) if *v >= 0 => Ok(Some(*v as u64)),
        Some(other) => Err(de::Error::custom(format!(
            "field `{key}` is not an unsigned integer or null: {other:?}"
        ))),
    }
}

fn get_bool(pairs: &[(String, Value)], key: &str) -> Result<bool, de::Error> {
    match get(pairs, key)? {
        Value::Bool(v) => Ok(*v),
        other => Err(de::Error::custom(format!(
            "field `{key}` is not a bool: {other:?}"
        ))),
    }
}

impl Deserialize for TraceEvent {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let Value::Map(pairs) = v else {
            return Err(de::Error::custom("trace event is not an object"));
        };
        let p = pairs.as_slice();
        Ok(match get_str(p, "type")? {
            "RoundStart" => TraceEvent::RoundStart {
                cycle: get_u64(p, "cycle")?,
                population: get_u64(p, "population")?,
            },
            "PhaseStart" => TraceEvent::PhaseStart {
                cycle: get_u64(p, "cycle")?,
                phase: get_str(p, "phase")?.to_string(),
            },
            "PhaseEnd" => TraceEvent::PhaseEnd {
                cycle: get_u64(p, "cycle")?,
                phase: get_str(p, "phase")?.to_string(),
            },
            "DeviceSelected" => TraceEvent::DeviceSelected {
                cycle: get_u64(p, "cycle")?,
                device: get_u64(p, "device")?,
                cohort: get_u64(p, "cohort")?,
            },
            "BroadcastSent" => TraceEvent::BroadcastSent {
                cycle: get_u64(p, "cycle")?,
                devices: get_u64(p, "devices")?,
            },
            "MaskIssued" => TraceEvent::MaskIssued {
                cycle: get_u64(p, "cycle")?,
                device: get_u64(p, "device")?,
                active_units: get_u64(p, "active_units")?,
                total_units: get_u64(p, "total_units")?,
            },
            "TrainDone" => TraceEvent::TrainDone {
                device: get_u64(p, "device")?,
                compute_s: get_f64(p, "compute_s")?,
            },
            "FrameSent" => TraceEvent::FrameSent {
                device: get_u64(p, "device")?,
                dir: Dir::parse(get_str(p, "dir")?)?,
                bytes: get_u64(p, "bytes")?,
                attempt: get_u64(p, "attempt")?,
                mode: get_opt_str(p, "mode")?,
            },
            "FrameDropped" => TraceEvent::FrameDropped {
                device: get_u64(p, "device")?,
                attempt: get_u64(p, "attempt")?,
            },
            "FrameCorrupted" => TraceEvent::FrameCorrupted {
                device: get_u64(p, "device")?,
                attempt: get_u64(p, "attempt")?,
            },
            "Retry" => TraceEvent::Retry {
                device: get_u64(p, "device")?,
                attempt: get_u64(p, "attempt")?,
                backoff_s: get_f64(p, "backoff_s")?,
            },
            "Delivered" => TraceEvent::Delivered {
                device: get_u64(p, "device")?,
                bytes: get_u64(p, "bytes")?,
                attempts: get_u64(p, "attempts")?,
                elapsed_s: get_f64(p, "elapsed_s")?,
            },
            "SendFailed" => TraceEvent::SendFailed {
                device: get_u64(p, "device")?,
                attempts: get_u64(p, "attempts")?,
                elapsed_s: get_f64(p, "elapsed_s")?,
            },
            "Timeout" => TraceEvent::Timeout {
                device: get_u64(p, "device")?,
            },
            "UpdateAggregated" => TraceEvent::UpdateAggregated {
                cycle: get_u64(p, "cycle")?,
                device: get_u64(p, "device")?,
            },
            "SkipSettled" => TraceEvent::SkipSettled {
                cycle: get_u64(p, "cycle")?,
                device: get_u64(p, "device")?,
                delivered: get_bool(p, "delivered")?,
            },
            "EvalDone" => TraceEvent::EvalDone {
                cycle: get_u64(p, "cycle")?,
                loss: get_f64(p, "loss")?,
                accuracy: get_f64(p, "accuracy")?,
            },
            "RoundEnd" => TraceEvent::RoundEnd {
                cycle: get_u64(p, "cycle")?,
                span_s: get_f64(p, "span_s")?,
                train_s: get_f64(p, "train_s")?,
                comm_s: get_f64(p, "comm_s")?,
                aggregated: get_u64(p, "aggregated")?,
                missed: get_u64(p, "missed")?,
            },
            "DeviceJoined" => TraceEvent::DeviceJoined {
                device: get_u64(p, "device")?,
            },
            "ScenarioEvent" => TraceEvent::ScenarioEvent {
                cycle: get_u64(p, "cycle")?,
                kind: get_str(p, "kind")?.to_string(),
                device: get_opt_u64(p, "device")?,
                value: get_f64(p, "value")?,
            },
            other => return Err(de::Error::custom(format!("unknown event type `{other}`"))),
        })
    }
}

impl Serialize for TraceRecord {
    /// Flat object: the timestamp rides first (`"t"`), then the event's
    /// own fields — `{"t":1.5,"type":"Timeout","device":2}`.
    fn to_value(&self) -> Value {
        let mut pairs = vec![("t".to_string(), Value::Float(self.t))];
        if let Value::Map(event_pairs) = self.event.to_value() {
            pairs.extend(event_pairs);
        }
        Value::Map(pairs)
    }
}

impl Deserialize for TraceRecord {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let Value::Map(pairs) = v else {
            return Err(de::Error::custom("trace record is not an object"));
        };
        let t = get_f64(pairs, "t")?;
        Ok(TraceRecord {
            t,
            event: TraceEvent::from_value(v)?,
        })
    }
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
