//! Trace analysis shared by the `trace_report` CLI and the tier-1
//! determinism tests: [`summarize`] a parsed trace, or [`validate`] its
//! structural invariants.

use std::collections::BTreeMap;

use crate::{TraceEvent, TraceRecord};

/// One device's event totals over a trace.
#[derive(Debug, Default)]
pub struct DeviceStats {
    /// `DeviceSelected` events.
    pub selected: u64,
    /// `TrainDone` events.
    pub train_cycles: u64,
    /// Simulated compute seconds summed over `TrainDone`.
    pub train_s: f64,
    /// `Delivered` events.
    pub delivered: u64,
    /// Bytes summed over `Delivered`.
    pub bytes: u64,
    /// `FrameDropped` events.
    pub drops: u64,
    /// `FrameCorrupted` events.
    pub corrupt: u64,
    /// `Retry` events.
    pub retries: u64,
    /// `Timeout` events.
    pub timeouts: u64,
    /// `SendFailed` events.
    pub failed: u64,
    /// `MaskIssued` events.
    pub masks: u64,
    /// `SkipSettled` events with `delivered: false`.
    pub skips_missed: u64,
}

/// What [`summarize`] extracts from a trace.
#[derive(Debug)]
pub struct Summary {
    /// Per-device totals, by device id.
    pub devices: BTreeMap<u64, DeviceStats>,
    /// `RoundEnd` events.
    pub rounds: u64,
    /// Simulated seconds summed over `RoundEnd` spans.
    pub span_s: f64,
    /// (phase, start, end) in record order.
    pub phases: Vec<(String, f64, f64)>,
    /// (cycle, loss, accuracy) of the last `EvalDone`.
    pub last_eval: Option<(u64, f64, f64)>,
    /// Scenario-engine events by kind (churn, throttle, drift).
    pub scenario: BTreeMap<String, u64>,
}

/// Folds a trace into per-device totals, phase spans and round counts.
pub fn summarize(records: &[TraceRecord]) -> Summary {
    let mut devices: BTreeMap<u64, DeviceStats> = BTreeMap::new();
    let mut rounds = 0;
    let mut span_s = 0f64;
    let mut phases = Vec::new();
    let mut open: Vec<(String, f64)> = Vec::new();
    let mut last_eval = None;
    let mut scenario: BTreeMap<String, u64> = BTreeMap::new();

    for rec in records {
        match &rec.event {
            TraceEvent::RoundEnd { span_s: s, .. } => {
                rounds += 1;
                span_s += s;
            }
            TraceEvent::PhaseStart { phase, .. } => open.push((phase.clone(), rec.t)),
            TraceEvent::PhaseEnd { phase, .. } => {
                if let Some(pos) = open.iter().rposition(|(p, _)| p == phase) {
                    let (p, start) = open.remove(pos);
                    phases.push((p, start, rec.t));
                }
            }
            TraceEvent::DeviceSelected { device, .. } => {
                devices.entry(*device).or_default().selected += 1;
            }
            TraceEvent::MaskIssued { device, .. } => {
                devices.entry(*device).or_default().masks += 1;
            }
            TraceEvent::TrainDone { device, compute_s } => {
                let d = devices.entry(*device).or_default();
                d.train_cycles += 1;
                d.train_s += compute_s;
            }
            TraceEvent::FrameDropped { device, .. } => {
                devices.entry(*device).or_default().drops += 1;
            }
            TraceEvent::FrameCorrupted { device, .. } => {
                devices.entry(*device).or_default().corrupt += 1;
            }
            TraceEvent::Retry { device, .. } => {
                devices.entry(*device).or_default().retries += 1;
            }
            TraceEvent::Delivered { device, bytes, .. } => {
                let d = devices.entry(*device).or_default();
                d.delivered += 1;
                d.bytes += bytes;
            }
            TraceEvent::SendFailed { device, .. } => {
                devices.entry(*device).or_default().failed += 1;
            }
            TraceEvent::Timeout { device } => {
                devices.entry(*device).or_default().timeouts += 1;
            }
            TraceEvent::SkipSettled {
                device,
                delivered: false,
                ..
            } => {
                devices.entry(*device).or_default().skips_missed += 1;
            }
            TraceEvent::EvalDone {
                cycle,
                loss,
                accuracy,
            } => last_eval = Some((*cycle, *loss, *accuracy)),
            TraceEvent::ScenarioEvent { kind, .. } => {
                *scenario.entry(kind.clone()).or_default() += 1;
            }
            _ => {}
        }
    }

    Summary {
        devices,
        rounds,
        span_s,
        phases,
        last_eval,
        scenario,
    }
}

/// Structural check of a parsed trace: sim-time is finite and monotone,
/// every phase span closes, every frame event reaches a terminal
/// `Delivered` / `SendFailed` / `Timeout`, and `FrameSent` mode tags and
/// scenario-event kinds are known. The error names the first violation.
pub fn validate(records: &[TraceRecord]) -> Result<(), String> {
    if records.is_empty() {
        return Err("trace is empty".to_string());
    }

    // 1. Sim-time is monotone (non-decreasing) across the trace.
    let mut prev = f64::NEG_INFINITY;
    for (i, rec) in records.iter().enumerate() {
        if !rec.t.is_finite() {
            return Err(format!("record {}: non-finite timestamp {}", i + 1, rec.t));
        }
        if rec.t < prev {
            return Err(format!(
                "record {}: sim-time regressed ({} < {prev})",
                i + 1,
                rec.t
            ));
        }
        prev = rec.t;
    }

    // 2. Every phase span closes, properly nested per (cycle, phase).
    let mut open: Vec<(u64, String)> = Vec::new();
    for rec in records {
        match &rec.event {
            TraceEvent::PhaseStart { cycle, phase } => open.push((*cycle, phase.clone())),
            TraceEvent::PhaseEnd { cycle, phase } => {
                match open.iter().rposition(|(c, p)| c == cycle && p == phase) {
                    Some(pos) => {
                        open.remove(pos);
                    }
                    None => {
                        return Err(format!(
                            "PhaseEnd without matching start: cycle {cycle} phase {phase}"
                        ))
                    }
                }
            }
            _ => {}
        }
    }
    if let Some((cycle, phase)) = open.first() {
        return Err(format!("unclosed phase: cycle {cycle} phase {phase}"));
    }

    // 3. Every non-terminal frame event (sent/dropped/corrupted/retry)
    //    is followed by a terminal outcome for that device.
    let mut pending: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, rec) in records.iter().enumerate() {
        match &rec.event {
            TraceEvent::FrameSent { device, .. }
            | TraceEvent::FrameDropped { device, .. }
            | TraceEvent::FrameCorrupted { device, .. }
            | TraceEvent::Retry { device, .. } => {
                pending.insert(*device, i + 1);
            }
            TraceEvent::Delivered { device, .. }
            | TraceEvent::SendFailed { device, .. }
            | TraceEvent::Timeout { device } => {
                pending.remove(device);
            }
            _ => {}
        }
    }
    if let Some((device, line)) = pending.iter().next() {
        return Err(format!(
            "device {device}: frame activity at record {line} never reached a terminal \
             Delivered/SendFailed/Timeout outcome"
        ));
    }

    // 4. FrameSent mode tags, when present, name a known wire-v2 mode
    //    (v1 frames omit the field entirely).
    const FRAME_MODES: [&str; 4] = ["delta", "topk", "qf16", "qi8"];
    for (i, rec) in records.iter().enumerate() {
        if let TraceEvent::FrameSent {
            mode: Some(mode), ..
        } = &rec.event
        {
            if !FRAME_MODES.contains(&mode.as_str()) {
                return Err(format!(
                    "record {}: unknown FrameSent compression mode `{mode}`",
                    i + 1
                ));
            }
        }
    }

    // 5. Scenario events carry a known kind and a finite value.
    const SCENARIO_KINDS: [&str; 7] = [
        "join",
        "leave",
        "return",
        "throttle",
        "outage",
        "drift_label_rotate",
        "drift_input_shift",
    ];
    for (i, rec) in records.iter().enumerate() {
        if let TraceEvent::ScenarioEvent { kind, value, .. } = &rec.event {
            if !SCENARIO_KINDS.contains(&kind.as_str()) {
                return Err(format!(
                    "record {}: unknown scenario event kind `{kind}`",
                    i + 1
                ));
            }
            if !value.is_finite() {
                return Err(format!(
                    "record {}: scenario event `{kind}` has non-finite value {value}",
                    i + 1
                ));
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dir;

    fn rec(t: f64, event: TraceEvent) -> TraceRecord {
        TraceRecord { t, event }
    }

    fn healthy_trace() -> Vec<TraceRecord> {
        vec![
            rec(
                0.0,
                TraceEvent::RoundStart {
                    cycle: 0,
                    population: 2,
                },
            ),
            rec(
                0.0,
                TraceEvent::PhaseStart {
                    cycle: 0,
                    phase: "route".into(),
                },
            ),
            rec(
                0.0,
                TraceEvent::FrameSent {
                    device: 1,
                    dir: Dir::Up,
                    bytes: 32,
                    attempt: 1,
                    mode: None,
                },
            ),
            rec(
                0.1,
                TraceEvent::FrameDropped {
                    device: 1,
                    attempt: 1,
                },
            ),
            rec(
                0.1,
                TraceEvent::Retry {
                    device: 1,
                    attempt: 1,
                    backoff_s: 0.05,
                },
            ),
            rec(
                0.4,
                TraceEvent::Delivered {
                    device: 1,
                    bytes: 32,
                    attempts: 2,
                    elapsed_s: 0.4,
                },
            ),
            rec(
                0.5,
                TraceEvent::PhaseEnd {
                    cycle: 0,
                    phase: "route".into(),
                },
            ),
            rec(
                0.5,
                TraceEvent::RoundEnd {
                    cycle: 0,
                    span_s: 0.5,
                    train_s: 0.0,
                    comm_s: 0.5,
                    aggregated: 1,
                    missed: 0,
                },
            ),
        ]
    }

    #[test]
    fn healthy_trace_validates_and_summarizes() {
        let records = healthy_trace();
        validate(&records).expect("valid");
        let summary = summarize(&records);
        assert_eq!(summary.rounds, 1);
        let d = summary.devices.get(&1).expect("device 1");
        assert_eq!(d.drops, 1);
        assert_eq!(d.retries, 1);
        assert_eq!(d.delivered, 1);
        assert_eq!(summary.phases.len(), 1);
    }

    #[test]
    fn scenario_events_summarize_and_validate() {
        let mut records = healthy_trace();
        records.insert(
            0,
            rec(
                0.0,
                TraceEvent::ScenarioEvent {
                    cycle: 0,
                    kind: "throttle".into(),
                    device: Some(1),
                    value: 0.8,
                },
            ),
        );
        validate(&records).expect("valid");
        let summary = summarize(&records);
        assert_eq!(summary.scenario.get("throttle"), Some(&1));

        // An unknown kind is rejected.
        records[0] = rec(
            0.0,
            TraceEvent::ScenarioEvent {
                cycle: 0,
                kind: "meteor_strike".into(),
                device: None,
                value: 1.0,
            },
        );
        let err = validate(&records).expect_err("unknown kind");
        assert!(err.contains("meteor_strike"), "{err}");

        // A non-finite value is rejected.
        records[0] = rec(
            0.0,
            TraceEvent::ScenarioEvent {
                cycle: 0,
                kind: "throttle".into(),
                device: None,
                value: f64::NAN,
            },
        );
        let err = validate(&records).expect_err("non-finite value");
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn validation_rejects_time_regression() {
        let mut records = healthy_trace();
        records[3].t = -1.0;
        let err = validate(&records).expect_err("regression");
        assert!(err.contains("regressed"), "{err}");
    }

    #[test]
    fn validation_rejects_unterminated_retry() {
        let mut records = healthy_trace();
        records.retain(|r| !matches!(r.event, TraceEvent::Delivered { .. }));
        let err = validate(&records).expect_err("dangling retry");
        assert!(err.contains("terminal"), "{err}");
    }

    #[test]
    fn validation_rejects_unclosed_phase() {
        let mut records = healthy_trace();
        records.retain(|r| !matches!(r.event, TraceEvent::PhaseEnd { .. }));
        let err = validate(&records).expect_err("unclosed phase");
        assert!(err.contains("unclosed"), "{err}");
    }

    #[test]
    fn validation_checks_frame_mode_tags() {
        // Every known wire-v2 mode validates.
        for mode in ["delta", "topk", "qf16", "qi8"] {
            let mut records = healthy_trace();
            let TraceEvent::FrameSent { mode: slot, .. } = &mut records[2].event else {
                panic!("record 2 should be the FrameSent");
            };
            *slot = Some(mode.into());
            validate(&records).expect("known mode");
        }
        // An unknown tag is rejected.
        let mut records = healthy_trace();
        let TraceEvent::FrameSent { mode: slot, .. } = &mut records[2].event else {
            panic!("record 2 should be the FrameSent");
        };
        *slot = Some("gzip".into());
        let err = validate(&records).expect_err("unknown mode");
        assert!(err.contains("gzip"), "{err}");
    }
}
