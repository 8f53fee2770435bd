//! Declarative scenario timelines for the Helios simulator.
//!
//! A [`ScenarioConfig`] describes, from configuration alone, how a
//! federated fleet evolves over simulated time: device churn
//! (join/leave/return), diurnal availability waves, battery/thermal
//! throttling curves, and label/concept drift. The config is pure data:
//! `helios-fl` compiles it into a [`Schedule`] and applies the events at
//! fixed hook points in the round driver, so every effect is a pure
//! function of `(config, seed, device, cycle)` and runs replay bitwise
//! at any thread width.
//!
//! This crate deliberately depends on nothing but `serde`: it owns the
//! vocabulary and the math (wave shapes, decay curves, schedule
//! compilation and validation) and leaves application to the engine.
//! An empty scenario — the [`Default`] — compiles to an empty schedule
//! and must leave the engine's behavior bit-identical to a build
//! without any scenario support.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Error raised when a scenario timeline is internally inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Human-readable description of the inconsistency.
    pub what: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scenario: {}", self.what)
    }
}

impl std::error::Error for ScenarioError {}

fn invalid(what: impl Into<String>) -> ScenarioError {
    ScenarioError { what: what.into() }
}

fn one() -> usize {
    1
}

fn default_true() -> bool {
    true
}

fn default_floor() -> f64 {
    0.1
}

fn default_phase_spread() -> f64 {
    1.0
}

/// What a [`ChurnEvent`] does to the enrolled population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnAction {
    /// Enroll `count` brand-new devices at the end of the population.
    Join,
    /// Take an existing device offline (it stops being sampled).
    Leave,
    /// Bring a previously departed device back online.
    Return,
}

/// A single discrete churn event on the fleet timeline.
///
/// `device` is only meaningful for [`ChurnAction::Leave`] and
/// [`ChurnAction::Return`]; `count` only for [`ChurnAction::Join`].
/// Both default so JSON configs spell only the fields their action
/// uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Cycle at whose start the event fires.
    pub cycle: usize,
    /// Join, leave, or return.
    pub action: ChurnAction,
    /// Target device for `Leave` / `Return` (ignored for `Join`).
    #[serde(default)]
    pub device: usize,
    /// Number of devices appended for `Join` (ignored otherwise).
    #[serde(default = "one")]
    pub count: usize,
}

/// A monotone battery/thermal degradation curve.
///
/// From `start_cycle` on, the affected device's effective compute
/// throughput (and, independently, its uplink/downlink bandwidth) is
/// scaled by `max(floor, 1 - decay * (cycle - start_cycle))`: full
/// speed at onset, then a linear ramp down to a hard floor. Several
/// rules touching the same device multiply.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThrottleRule {
    /// First cycle at which the rule takes effect.
    pub start_cycle: usize,
    /// Affected device; `None` throttles the whole fleet.
    #[serde(default)]
    pub device: Option<usize>,
    /// Per-cycle linear decay of compute throughput (`0` disables).
    #[serde(default)]
    pub compute_decay: f64,
    /// Per-cycle linear decay of link bandwidth (`0` disables).
    #[serde(default)]
    pub bandwidth_decay: f64,
    /// Lower bound the scale never drops below.
    #[serde(default = "default_floor")]
    pub floor: f64,
}

impl ThrottleRule {
    fn ramp(&self, decay: f64, cycle: usize) -> f64 {
        if cycle < self.start_cycle || decay <= 0.0 {
            return 1.0;
        }
        let elapsed = (cycle - self.start_cycle) as f64;
        (1.0 - decay * elapsed).max(self.floor)
    }

    /// Compute-throughput scale in `[floor, 1]` at `cycle`.
    #[must_use]
    pub fn compute_scale(&self, cycle: usize) -> f64 {
        self.ramp(self.compute_decay, cycle)
    }

    /// Link-bandwidth scale in `[floor, 1]` at `cycle`.
    #[must_use]
    pub fn bandwidth_scale(&self, cycle: usize) -> f64 {
        self.ramp(self.bandwidth_decay, cycle)
    }

    /// Whether the rule affects `device`.
    #[must_use]
    pub fn applies_to(&self, device: usize) -> bool {
        self.device.is_none_or(|d| d == device)
    }

    /// Whether the rule has begun by `cycle`.
    #[must_use]
    pub fn active_at(&self, cycle: usize) -> bool {
        cycle >= self.start_cycle
    }
}

/// A scheduled link outage: the affected device's (or the whole
/// fleet's) simulated transport bandwidth collapses to a near-zero
/// trickle for every cycle in `[from_cycle, until_cycle)`, then
/// restores to the device's scenario-scaled profile. Outages model
/// backhaul failures and tunnels-without-coverage — the device still
/// *trains*, it just cannot move bytes at any useful rate, so the
/// round driver's straggler policies see it as an extreme laggard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageWindow {
    /// First cycle of the outage (inclusive).
    pub from_cycle: usize,
    /// First cycle after the outage (exclusive).
    pub until_cycle: usize,
    /// Affected device; `None` blacks out the whole fleet.
    #[serde(default)]
    pub device: Option<usize>,
}

impl OutageWindow {
    /// Whether the outage is in force at `cycle`.
    #[must_use]
    pub fn contains(&self, cycle: usize) -> bool {
        (self.from_cycle..self.until_cycle).contains(&cycle)
    }

    /// Whether the window affects `device`.
    #[must_use]
    pub fn applies_to(&self, device: usize) -> bool {
        self.device.is_none_or(|d| d == device)
    }
}

/// Which statistical property of the data a [`DriftEvent`] shifts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DriftKind {
    /// Rotate every label by `round(amount)` class positions (mod the
    /// class count) — abrupt concept drift.
    LabelRotate,
    /// Add `amount` to every input pixel — gradual covariate shift.
    InputShift,
}

impl DriftKind {
    /// Stable identifier used in trace events.
    #[must_use]
    pub fn trace_kind(&self) -> &'static str {
        match self {
            DriftKind::LabelRotate => "drift_label_rotate",
            DriftKind::InputShift => "drift_input_shift",
        }
    }
}

/// A scheduled shift in the data distribution.
///
/// Drift events apply cumulatively and in timeline order: a client that
/// joins (or is re-materialized) late replays every event up to the
/// current cycle one at a time, so lazily and eagerly instantiated
/// fleets see bit-identical shards.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftEvent {
    /// Cycle at whose start the shift fires.
    pub cycle: usize,
    /// Label rotation or input shift.
    pub kind: DriftKind,
    /// Magnitude (class positions for rotation, pixel offset for shift).
    pub amount: f64,
}

/// A diurnal availability wave: per-device phase-shifted sinusoid that
/// modulates the availability weight over simulated time.
///
/// The wave is pure math over a *unit phase* in `[0, 1)` that the
/// engine derives per device from the run seed, so the crate stays
/// dependency-free while the composed availability remains a pure
/// function of `(base_seed, device, cycle)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiurnalWave {
    /// Length of one day in cycles.
    pub period_cycles: usize,
    /// Trough of the wave (`0` = fully unavailable at night).
    #[serde(default)]
    pub min_scale: f64,
    /// How much of a full period device phases spread over (`1` =
    /// devices are staggered across the whole day, `0` = all in sync).
    #[serde(default = "default_phase_spread")]
    pub phase_spread: f64,
}

impl DiurnalWave {
    /// Wave scale in `[min_scale, 1]` for a device with the given unit
    /// phase at `cycle`. Pure in `(unit_phase, cycle)`.
    #[must_use]
    pub fn scale(&self, unit_phase: f64, cycle: usize) -> f64 {
        let period = self.period_cycles.max(1);
        // Reduce modulo the period in integers so the wave is *exactly*
        // periodic in floating point, not just mathematically.
        let pos = (cycle % period) as f64 / period as f64;
        let phase = unit_phase * self.phase_spread;
        let s = 0.5 * (1.0 + (std::f64::consts::TAU * (pos + phase)).sin());
        self.min_scale + (1.0 - self.min_scale) * s
    }
}

/// A declarative scenario timeline, carried on
/// `helios_fl::FlConfig::scenario` behind `#[serde(default)]` so
/// existing configuration files still load (empty scenario, engine
/// behavior bit-identical to a static fleet).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Discrete join/leave/return events.
    #[serde(default)]
    pub churn: Vec<ChurnEvent>,
    /// Optional diurnal availability wave over the whole fleet.
    #[serde(default)]
    pub diurnal: Option<DiurnalWave>,
    /// Battery/thermal throttling curves.
    #[serde(default)]
    pub throttle: Vec<ThrottleRule>,
    /// Scheduled link-outage windows.
    #[serde(default)]
    pub outages: Vec<OutageWindow>,
    /// Scheduled label/concept drift events.
    #[serde(default)]
    pub drift: Vec<DriftEvent>,
    /// When `true` (the default), drift also rewrites the held-out test
    /// set at fire time, modeling a world that changed under everyone.
    #[serde(default = "default_true")]
    pub drift_test_set: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            churn: Vec::new(),
            diurnal: None,
            throttle: Vec::new(),
            outages: Vec::new(),
            drift: Vec::new(),
            drift_test_set: true,
        }
    }
}

impl ScenarioConfig {
    /// `true` when the scenario changes nothing — the engine must then
    /// skip runtime construction entirely.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.churn.is_empty()
            && self.diurnal.is_none()
            && self.throttle.is_empty()
            && self.outages.is_empty()
            && self.drift.is_empty()
    }

    /// Compiles the timeline into a deterministic [`Schedule`]: one
    /// entry per discrete event, sorted by `(cycle, source order)`.
    /// Pure in `self`; identical configs compile to identical
    /// schedules.
    #[must_use]
    pub fn compile(&self) -> Schedule {
        let mut events = Vec::with_capacity(self.churn.len() + self.drift.len());
        for (i, ev) in self.churn.iter().enumerate() {
            let kind = match ev.action {
                ChurnAction::Join => EventKind::Join { count: ev.count },
                ChurnAction::Leave => EventKind::Leave { device: ev.device },
                ChurnAction::Return => EventKind::Return { device: ev.device },
            };
            events.push(ScheduledEvent {
                cycle: ev.cycle,
                seq: i,
                kind,
            });
        }
        for (i, ev) in self.drift.iter().enumerate() {
            events.push(ScheduledEvent {
                cycle: ev.cycle,
                seq: self.churn.len() + i,
                kind: EventKind::Drift {
                    kind: ev.kind,
                    amount: ev.amount,
                },
            });
        }
        events.sort_by_key(|e| (e.cycle, e.seq));
        Schedule { events }
    }

    /// Population size at the start of `cycle`, after all joins with
    /// `cycle <= cycle` have fired.
    #[must_use]
    pub(crate) fn population_at(&self, initial_population: usize, cycle: usize) -> usize {
        let joined: usize = self
            .churn
            .iter()
            .filter(|e| e.action == ChurnAction::Join && e.cycle <= cycle)
            .map(|e| e.count)
            .sum();
        initial_population + joined
    }

    /// Checks the timeline against an initial population: every leave /
    /// return targets a device that exists (and is in the right online
    /// state) at event time, joins enroll at least one device, decay
    /// curves and wave parameters are in range.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] describing the first inconsistency in
    /// schedule order.
    pub fn validate(&self, initial_population: usize) -> Result<(), ScenarioError> {
        if let Some(w) = &self.diurnal {
            if w.period_cycles == 0 {
                return Err(invalid("diurnal period_cycles must be >= 1"));
            }
            if !(0.0..=1.0).contains(&w.min_scale) {
                return Err(invalid(format!(
                    "diurnal min_scale must be in [0, 1], got {}",
                    w.min_scale
                )));
            }
            if !(0.0..=1.0).contains(&w.phase_spread) {
                return Err(invalid(format!(
                    "diurnal phase_spread must be in [0, 1], got {}",
                    w.phase_spread
                )));
            }
        }
        for (i, r) in self.throttle.iter().enumerate() {
            if !(0.0..=1.0).contains(&r.compute_decay) || !(0.0..=1.0).contains(&r.bandwidth_decay)
            {
                return Err(invalid(format!(
                    "throttle rule {i}: decays must be in [0, 1]"
                )));
            }
            if !(r.floor > 0.0 && r.floor <= 1.0) {
                return Err(invalid(format!(
                    "throttle rule {i}: floor must be in (0, 1], got {}",
                    r.floor
                )));
            }
            if let Some(d) = r.device {
                if d >= self.population_at(initial_population, r.start_cycle) {
                    return Err(invalid(format!(
                        "throttle rule {i}: device {d} does not exist at cycle {}",
                        r.start_cycle
                    )));
                }
            }
        }
        for (i, o) in self.outages.iter().enumerate() {
            if o.until_cycle <= o.from_cycle {
                return Err(invalid(format!(
                    "outage {i}: window [{}, {}) is empty",
                    o.from_cycle, o.until_cycle
                )));
            }
            if let Some(d) = o.device {
                if d >= self.population_at(initial_population, o.from_cycle) {
                    return Err(invalid(format!(
                        "outage {i}: device {d} does not exist at cycle {}",
                        o.from_cycle
                    )));
                }
            }
        }
        for (i, ev) in self.drift.iter().enumerate() {
            if !ev.amount.is_finite() {
                return Err(invalid(format!("drift event {i}: amount must be finite")));
            }
        }

        // Replay the compiled churn timeline tracking population growth
        // and the offline set, exactly as the engine will.
        let mut population = initial_population;
        let mut offline: BTreeSet<usize> = BTreeSet::new();
        for ev in self.compile().events() {
            match ev.kind {
                EventKind::Join { count } => {
                    if count == 0 {
                        return Err(invalid(format!(
                            "churn at cycle {}: join count must be >= 1",
                            ev.cycle
                        )));
                    }
                    population += count;
                }
                EventKind::Leave { device } => {
                    if device >= population {
                        return Err(invalid(format!(
                            "churn at cycle {}: leave targets device {device} but only {population} exist",
                            ev.cycle
                        )));
                    }
                    if !offline.insert(device) {
                        return Err(invalid(format!(
                            "churn at cycle {}: device {device} is already offline",
                            ev.cycle
                        )));
                    }
                }
                EventKind::Return { device } => {
                    if !offline.remove(&device) {
                        return Err(invalid(format!(
                            "churn at cycle {}: device {device} returns but never left",
                            ev.cycle
                        )));
                    }
                }
                EventKind::Drift { .. } => {}
            }
        }
        Ok(())
    }
}

/// One compiled timeline entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledEvent {
    /// Cycle at whose start the event fires.
    pub cycle: usize,
    /// Stable source-order tie-break within a cycle.
    pub seq: usize,
    /// What happens.
    pub kind: EventKind,
}

/// Payload of a [`ScheduledEvent`]. Internal engine vocabulary — not
/// serialized, so it may carry data unlike the serde-facing config
/// enums.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Enroll `count` new devices.
    Join {
        /// Number of devices appended to the population.
        count: usize,
    },
    /// Take `device` offline.
    Leave {
        /// Target device.
        device: usize,
    },
    /// Bring `device` back online.
    Return {
        /// Target device.
        device: usize,
    },
    /// Shift the data distribution.
    Drift {
        /// Label rotation or input shift.
        kind: DriftKind,
        /// Magnitude.
        amount: f64,
    },
}

/// A compiled, deterministic event schedule: discrete events sorted by
/// `(cycle, source order)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    events: Vec<ScheduledEvent>,
}

impl Schedule {
    /// All events in firing order.
    #[must_use]
    pub fn events(&self) -> &[ScheduledEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn join(cycle: usize, count: usize) -> ChurnEvent {
        ChurnEvent {
            cycle,
            action: ChurnAction::Join,
            device: 0,
            count,
        }
    }

    fn leave(cycle: usize, device: usize) -> ChurnEvent {
        ChurnEvent {
            cycle,
            action: ChurnAction::Leave,
            device,
            count: 1,
        }
    }

    fn ret(cycle: usize, device: usize) -> ChurnEvent {
        ChurnEvent {
            cycle,
            action: ChurnAction::Return,
            device,
            count: 1,
        }
    }

    #[test]
    fn default_scenario_is_empty_and_valid() {
        let s = ScenarioConfig::default();
        assert!(s.is_empty());
        assert!(s.drift_test_set);
        assert!(s.validate(0).is_ok());
        assert!(s.compile().events().is_empty());
    }

    #[test]
    fn config_round_trips_through_json_with_defaults() {
        let text = r#"{
            "churn": [
                {"cycle": 1, "action": "Join", "count": 2},
                {"cycle": 2, "action": "Leave", "device": 0}
            ],
            "diurnal": {"period_cycles": 8},
            "throttle": [{"start_cycle": 1, "compute_decay": 0.2}],
            "drift": [{"cycle": 3, "kind": "LabelRotate", "amount": 1.0}]
        }"#;
        let s: ScenarioConfig = serde_json::from_str(text).unwrap();
        assert_eq!(s.churn.len(), 2);
        assert_eq!(s.churn[0].count, 2);
        assert_eq!(s.churn[1].device, 0);
        assert_eq!(s.churn[1].count, 1, "count defaults to 1");
        let wave = s.diurnal.unwrap();
        assert_eq!(wave.period_cycles, 8);
        assert_eq!(wave.phase_spread, 1.0, "phase_spread defaults to 1");
        assert_eq!(s.throttle[0].floor, 0.1, "floor defaults to 0.1");
        assert!(s.throttle[0].device.is_none());
        assert!(s.drift_test_set, "drift_test_set defaults to true");
        let echo: ScenarioConfig =
            serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(echo, s);
    }

    #[test]
    fn empty_json_object_is_default() {
        let s: ScenarioConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(s, ScenarioConfig::default());
    }

    #[test]
    fn compile_sorts_by_cycle_with_stable_source_order() {
        let s = ScenarioConfig {
            churn: vec![join(5, 1), leave(1, 0), join(1, 2)],
            drift: vec![DriftEvent {
                cycle: 1,
                kind: DriftKind::InputShift,
                amount: 0.1,
            }],
            ..ScenarioConfig::default()
        };
        let schedule = s.compile();
        let cycles: Vec<usize> = schedule.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![1, 1, 1, 5]);
        // Within cycle 1: churn events in source order, then drift.
        assert_eq!(
            schedule.events()[0].kind,
            EventKind::Leave { device: 0 },
            "source order preserved within a cycle"
        );
        assert_eq!(schedule.events()[1].kind, EventKind::Join { count: 2 });
        assert!(matches!(schedule.events()[2].kind, EventKind::Drift { .. }));
        // Compilation is deterministic.
        assert_eq!(s.compile(), schedule);
    }

    #[test]
    fn validate_tracks_population_growth_and_offline_state() {
        // Device 10 only exists after the cycle-2 join of 8 devices.
        let s = ScenarioConfig {
            churn: vec![join(2, 8), leave(3, 10), ret(5, 10)],
            ..ScenarioConfig::default()
        };
        assert!(s.validate(4).is_ok());
        assert_eq!(s.population_at(4, 1), 4);
        assert_eq!(s.population_at(4, 2), 12);

        let early = ScenarioConfig {
            churn: vec![leave(0, 10)],
            ..ScenarioConfig::default()
        };
        assert!(early.validate(4).is_err(), "leave before the join");

        let twice = ScenarioConfig {
            churn: vec![leave(0, 1), leave(1, 1)],
            ..ScenarioConfig::default()
        };
        assert!(twice.validate(4).is_err(), "double leave");

        let ghost = ScenarioConfig {
            churn: vec![ret(0, 1)],
            ..ScenarioConfig::default()
        };
        assert!(ghost.validate(4).is_err(), "return without leave");

        let zero = ScenarioConfig {
            churn: vec![join(0, 0)],
            ..ScenarioConfig::default()
        };
        assert!(zero.validate(4).is_err(), "zero-count join");
    }

    #[test]
    fn validate_checks_parameter_ranges() {
        let bad_wave = ScenarioConfig {
            diurnal: Some(DiurnalWave {
                period_cycles: 0,
                min_scale: 0.0,
                phase_spread: 1.0,
            }),
            ..ScenarioConfig::default()
        };
        assert!(bad_wave.validate(4).is_err());

        let bad_decay = ScenarioConfig {
            throttle: vec![ThrottleRule {
                start_cycle: 0,
                device: None,
                compute_decay: 1.5,
                bandwidth_decay: 0.0,
                floor: 0.1,
            }],
            ..ScenarioConfig::default()
        };
        assert!(bad_decay.validate(4).is_err());

        let bad_floor = ScenarioConfig {
            throttle: vec![ThrottleRule {
                start_cycle: 0,
                device: None,
                compute_decay: 0.1,
                bandwidth_decay: 0.0,
                floor: 0.0,
            }],
            ..ScenarioConfig::default()
        };
        assert!(bad_floor.validate(4).is_err());

        let ghost_device = ScenarioConfig {
            throttle: vec![ThrottleRule {
                start_cycle: 0,
                device: Some(99),
                compute_decay: 0.1,
                bandwidth_decay: 0.0,
                floor: 0.1,
            }],
            ..ScenarioConfig::default()
        };
        assert!(ghost_device.validate(4).is_err());

        let nan_drift = ScenarioConfig {
            drift: vec![DriftEvent {
                cycle: 0,
                kind: DriftKind::InputShift,
                amount: f64::NAN,
            }],
            ..ScenarioConfig::default()
        };
        assert!(nan_drift.validate(4).is_err());
    }

    #[test]
    fn outage_windows_are_half_open_and_validated() {
        let o = OutageWindow {
            from_cycle: 2,
            until_cycle: 5,
            device: Some(1),
        };
        assert!(!o.contains(1));
        assert!(o.contains(2));
        assert!(o.contains(4));
        assert!(!o.contains(5), "until_cycle is exclusive");
        assert!(o.applies_to(1));
        assert!(!o.applies_to(2));
        assert!(
            OutageWindow { device: None, ..o }.applies_to(2),
            "fleet-wide outage applies to everyone"
        );

        let ok = ScenarioConfig {
            outages: vec![o],
            ..ScenarioConfig::default()
        };
        assert!(!ok.is_empty());
        assert!(ok.validate(4).is_ok());

        let empty_window = ScenarioConfig {
            outages: vec![OutageWindow {
                from_cycle: 3,
                until_cycle: 3,
                device: None,
            }],
            ..ScenarioConfig::default()
        };
        assert!(empty_window.validate(4).is_err(), "empty window");

        let ghost = ScenarioConfig {
            outages: vec![OutageWindow {
                from_cycle: 0,
                until_cycle: 2,
                device: Some(9),
            }],
            ..ScenarioConfig::default()
        };
        assert!(ghost.validate(4).is_err(), "device does not exist");

        // A device enrolled by an earlier join may be targeted.
        let late = ScenarioConfig {
            churn: vec![join(1, 8)],
            outages: vec![OutageWindow {
                from_cycle: 2,
                until_cycle: 4,
                device: Some(9),
            }],
            ..ScenarioConfig::default()
        };
        assert!(late.validate(4).is_ok());

        // Serde: `device` defaults to fleet-wide.
        let parsed: ScenarioConfig =
            serde_json::from_str(r#"{"outages": [{"from_cycle": 1, "until_cycle": 3}]}"#).unwrap();
        assert_eq!(parsed.outages.len(), 1);
        assert!(parsed.outages[0].device.is_none());
    }

    #[test]
    fn throttle_ramp_is_monotone_and_floored() {
        let r = ThrottleRule {
            start_cycle: 2,
            device: Some(3),
            compute_decay: 0.25,
            bandwidth_decay: 0.5,
            floor: 0.2,
        };
        assert_eq!(r.compute_scale(0), 1.0, "inactive before start");
        assert_eq!(r.compute_scale(2), 1.0, "full speed at onset");
        let mut prev = 1.0;
        for c in 2..12 {
            let s = r.compute_scale(c);
            assert!(s <= prev, "monotone non-increasing");
            assert!(s >= r.floor, "never below floor");
            prev = s;
        }
        assert_eq!(r.compute_scale(100), 0.2, "clamps at floor");
        assert_eq!(r.bandwidth_scale(3), 0.5);
        assert!(r.applies_to(3));
        assert!(!r.applies_to(4));
        assert!(
            ThrottleRule { device: None, ..r }.applies_to(4),
            "fleet-wide rule applies to everyone"
        );
        assert!(!r.active_at(1));
        assert!(r.active_at(2));
    }

    #[test]
    fn wave_stays_in_band_and_is_periodic() {
        let w = DiurnalWave {
            period_cycles: 24,
            min_scale: 0.25,
            phase_spread: 1.0,
        };
        for cycle in 0..100 {
            for phase in [0.0, 0.33, 0.99] {
                let s = w.scale(phase, cycle);
                assert!((0.25..=1.0).contains(&s), "scale {s} out of band");
            }
        }
        assert_eq!(
            w.scale(0.4, 3).to_bits(),
            w.scale(0.4, 3 + 24).to_bits(),
            "exactly periodic"
        );
        // Phase actually separates devices.
        assert_ne!(w.scale(0.0, 5).to_bits(), w.scale(0.5, 5).to_bits());
        // Zero spread puts everyone in sync regardless of phase.
        let sync = DiurnalWave {
            phase_spread: 0.0,
            ..w
        };
        assert_eq!(sync.scale(0.1, 7).to_bits(), sync.scale(0.9, 7).to_bits());
    }

    #[test]
    fn drift_kind_trace_names_are_stable() {
        assert_eq!(DriftKind::LabelRotate.trace_kind(), "drift_label_rotate");
        assert_eq!(DriftKind::InputShift.trace_kind(), "drift_input_shift");
    }
}
