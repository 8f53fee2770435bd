//! Scenario-engine runtime state and the two hooks the round driver
//! calls each cycle to replay the timeline onto the environment. The
//! hooks read `FlConfig::scenario` directly; the runtime keeps only
//! the churn overlay and how far the timeline has fired.

use crate::client::drifted;
use crate::population::Population;
use crate::{FlConfig, FlEnv, FlError, Result};
use helios_scenario::{ChurnAction, ChurnEvent, ScenarioConfig, ThrottleRule};
use std::collections::BTreeSet;

/// Bandwidth a link collapses to during a scenario outage window. The
/// link model rejects an exact zero (transfer time would be infinite in
/// a way the scheduler cannot rank), so an outage is "one microbit per
/// second": finite, deterministic, and slower than any real profile by
/// many orders of magnitude.
const OUTAGE_TRICKLE_BPS: f64 = 1e-6;

/// Mutable scenario-engine state carried by the environment for the
/// duration of one run. Absent (`None`) when the config's scenario is
/// empty, which guarantees zero behavioral change for pre-scenario
/// runs.
#[derive(Debug, Clone)]
pub(crate) struct ScenarioRuntime {
    /// Devices currently departed (scenario `Leave` without a matching
    /// `Return`). They are filtered out of every cohort but keep their
    /// id, skip counters, and materialized state, so a `Return` resumes
    /// them exactly where they left off — Helios's device-id-keyed
    /// collaboration state survives churn.
    pub(crate) offline: BTreeSet<usize>,
    /// Cycle currently being driven; consulted when a client is
    /// materialized mid-run so it picks up the throttle scale already
    /// in force.
    pub(crate) current_cycle: usize,
    /// Cycles whose churn and drift have fired: `0..fired`. It only
    /// grows, so a second run on the same environment, whose cycle
    /// count restarts at 0, fires nothing twice.
    fired: usize,
}

impl ScenarioRuntime {
    /// Validates the config's scenario timeline and starts its runtime
    /// state, or `None` for an empty scenario (static fleet, historical
    /// behavior).
    /// Scenario `Join` events grow the population from the store's
    /// generator source, so they require one that retains its clients.
    pub(crate) fn new(config: &FlConfig, store: &Population) -> Result<Option<Self>> {
        let scenario = &config.scenario;
        if scenario.is_empty() {
            return Ok(None);
        }
        scenario
            .validate(store.len())
            .map_err(|e| FlError::InvalidRunConfig {
                what: format!("scenario: {}", e.what),
            })?;
        if scenario.churn.iter().any(|e| e.action == ChurnAction::Join) {
            store.check_growable()?;
        }
        Ok(Some(ScenarioRuntime {
            offline: BTreeSet::new(),
            current_cycle: 0,
            fired: 0,
        }))
    }
}

/// Product of `scale` over every throttle rule applying to `device`;
/// `1.0` when no rule does.
fn throttle_scale(
    scenario: &ScenarioConfig,
    device: usize,
    scale: impl Fn(&ThrottleRule) -> f64,
) -> f64 {
    let rules = scenario.throttle.iter().filter(|r| r.applies_to(device));
    rules.map(scale).product()
}

/// The compute scale in force for `device` at `cycle`.
pub(crate) fn compute_scale(scenario: &ScenarioConfig, device: usize, cycle: usize) -> f64 {
    throttle_scale(scenario, device, |r| r.compute_scale(cycle))
}

/// Records one applied timeline event on the trace bus.
fn trace(cycle: usize, kind: &str, device: Option<usize>, value: f64) {
    helios_obs::emit(|| helios_obs::TraceEvent::ScenarioEvent {
        cycle: cycle as u64,
        kind: kind.into(),
        device: device.map(|d| d as u64),
        value,
    });
}

impl FlEnv {
    /// Scenario hook the round driver calls at the top of every cycle,
    /// before cohort selection: walks every not-yet-fired cycle up to
    /// `cycle` and applies its churn, then its drift, each in config
    /// order (joins grow the population, leaves/returns update the
    /// churn overlay, drift rotates the held-out test set); then
    /// recomputes every materialized client's throttle scale from the
    /// timeline. A no-op when the scenario is empty.
    ///
    /// Every applied event emits a
    /// [`TraceEvent::ScenarioEvent`](helios_obs::TraceEvent); all work
    /// here is serial and deterministic, so traces stay byte-identical
    /// at any thread width.
    ///
    /// # Errors
    ///
    /// Propagates join materialization and drift transform errors.
    pub fn scenario_begin_cycle(&mut self, cycle: usize) -> Result<()> {
        let Some(rt) = &mut self.scenario_rt else {
            return Ok(());
        };
        rt.current_cycle = cycle;
        let unfired = rt.fired..=cycle;
        rt.fired = rt.fired.max(cycle + 1);
        for fire in unfired {
            // Copied out: a join needs the whole environment.
            let churn = &self.config.scenario.churn;
            let due: Vec<ChurnEvent> = churn.iter().filter(|e| e.cycle == fire).copied().collect();
            for ev in due {
                match ev.action {
                    ChurnAction::Join => {
                        for _ in 0..ev.count {
                            // Newcomers come from the store's generators.
                            let (profile, shard) = self.store.generate(self.store.len())?;
                            let id = self.join_client(profile, shard)?;
                            trace(cycle, "join", Some(id), 1.0);
                        }
                    }
                    ChurnAction::Leave => {
                        if let Some(rt) = &mut self.scenario_rt {
                            rt.offline.insert(ev.device);
                        }
                        trace(cycle, "leave", Some(ev.device), 0.0);
                    }
                    ChurnAction::Return => {
                        if let Some(rt) = &mut self.scenario_rt {
                            rt.offline.remove(&ev.device);
                        }
                        trace(cycle, "return", Some(ev.device), 1.0);
                    }
                }
            }
            // The evaluation distribution drifts with the fleet, at fire
            // time; client shards catch up per participant in
            // `scenario_prepare_cohort`.
            let drift = &self.config.scenario.drift;
            for ev in drift.iter().filter(|e| e.cycle == fire) {
                self.test_set = drifted(&self.test_set, ev.kind, ev.amount)?;
                trace(cycle, ev.kind.trace_kind(), None, ev.amount);
            }
        }
        // Battery/thermal throttling: recompute every materialized
        // client's compute scale from the timeline (the pristine profile
        // is rescaled each cycle, never compounded), and record each
        // active rule once per cycle.
        let scenario = &self.config.scenario;
        if !scenario.throttle.is_empty() {
            for c in self.store.iter_mut() {
                c.set_compute_scale(compute_scale(scenario, c.id(), cycle));
            }
            for rule in scenario.throttle.iter().filter(|r| r.active_at(cycle)) {
                trace(cycle, "throttle", rule.device, rule.compute_scale(cycle));
            }
        }
        Ok(())
    }

    /// Scenario hook the round driver calls right after cohort
    /// selection, before the broadcast: replays any not-yet-applied
    /// drift events onto each participant's shard and applies bandwidth
    /// throttling to participant links. A no-op when the scenario is
    /// empty.
    ///
    /// Drift is replayed one event at a time in timeline order from each
    /// client's own counter — f32 arithmetic is not associative, so late
    /// joiners and late-materialized devices must walk the same event
    /// sequence to converge on the same bytes as devices resident since
    /// cycle 0 (the lazy==eager parity contract).
    ///
    /// # Errors
    ///
    /// Propagates materialization, drift transform, and link errors.
    pub fn scenario_prepare_cohort(&mut self, cycle: usize, participants: &[usize]) -> Result<()> {
        if self.scenario_rt.is_none() {
            return Ok(());
        }
        if !self.config.scenario.drift.is_empty() {
            let due = self.config.scenario.drift_through(cycle);
            for &p in participants {
                let c = self.client_mut(p)?;
                while let Some(ev) = due.get(c.drift_applied()) {
                    c.apply_drift(ev.kind, ev.amount)?;
                }
            }
        }
        // Bandwidth throttling scales the configured base link; an
        // outage window overrides everything and collapses the link to
        // a near-zero trickle (the link model rejects an exact zero).
        // Skipped when networking is disabled; throttling additionally
        // needs a finite base bandwidth (there is nothing to scale
        // down on an unlimited link), but an outage clamps even an
        // unlimited link.
        let scenario = &self.config.scenario;
        let Some(transport) = &mut self.transport else {
            return Ok(());
        };
        if scenario.throttle.is_empty() && scenario.outages.is_empty() {
            return Ok(());
        }
        let base = self.config.net.link;
        for &p in participants {
            let outage = scenario
                .outages
                .iter()
                .any(|o| o.contains(cycle) && o.applies_to(p));
            let mut link = base;
            if outage {
                link.bandwidth_bps = Some(OUTAGE_TRICKLE_BPS);
            } else if let Some(bw) = base.bandwidth_bps {
                let scale = throttle_scale(scenario, p, |r| r.bandwidth_scale(cycle));
                link.bandwidth_bps = Some(bw * scale);
            }
            // With outages on the timeline the link is re-asserted
            // every cycle: the first cycle after a window closes
            // must restore the scenario-scaled profile. Without
            // outages, only actually-scaled links are touched
            // (identical behavior to the pre-outage engine).
            if !scenario.outages.is_empty() || link.bandwidth_bps != base.bandwidth_bps {
                self.store.check_enrolled(p)?;
                transport.set_link(p, link)?;
            }
        }
        for o in scenario.outages.iter().filter(|o| o.contains(cycle)) {
            trace(cycle, "outage", o.device, 0.0);
        }
        Ok(())
    }
}
