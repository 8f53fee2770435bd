//! Run metrics: the curves and summary statistics the paper reports.

use helios_device::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Per-phase breakdown of one aggregation cycle, populated by the round
/// driver identically for every strategy.
///
/// The simulated fields (`train_s`, `comm_s`) partition the cycle's
/// simulated span: `train_s + comm_s` equals the clock advance the cycle
/// produced. The wire fields come from the simulated transport and are
/// zero when networking is disabled. The flop counters are snapshot
/// deltas of the driving thread's kernel counters, into which every
/// fan-out folds its workers' counts: they are this run's work alone,
/// comparable across runs and widths. Equality compares only the
/// simulated outcome (timing partition and participation) — see
/// [`PhaseBreakdown::eq`] for why the observability counters (wire
/// bytes, retries, flops) are excluded.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Simulated local-training time: the slowest participant's compute
    /// span, clipped to the cycle span (async schemes advance by the
    /// capable pace even while a straggler keeps computing).
    pub train_s: f64,
    /// Simulated communication/waiting time: the cycle span minus
    /// `train_s` — transport latency, retries, and deadline waiting.
    pub comm_s: f64,
    /// Bytes actually put on the simulated wire this cycle, counting
    /// every retry attempt (0 when networking is disabled).
    pub wire_bytes: u64,
    /// Transport re-transmissions this cycle.
    pub retries: u64,
    /// Participants that missed the cycle (retry exhaustion or
    /// deadline).
    pub missed: usize,
    /// Client updates folded into the global model this cycle.
    pub aggregated_updates: usize,
    /// Kernel floating-point operations of this cycle's local training,
    /// summed over every participant: exact, comparable across runs and
    /// widths (left out of `==` — see the struct docs).
    pub train_flops: u64,
    /// Kernel floating-point operations of this cycle's global-model
    /// evaluation: exact, comparable across runs and widths (left out
    /// of `==` — see the struct docs).
    pub eval_flops: u64,
}

impl PartialEq for PhaseBreakdown {
    /// Compares the *simulated collaboration outcome* — the timing
    /// partition and the participation counts. The observability
    /// counters are excluded because they describe how the outcome was
    /// computed and carried, not the outcome: the flop counters differ
    /// between packed and zeroing execution of one sub-model, and the
    /// wire/retry counters between a routed and a direct run, even when
    /// the learning outcome is bitwise identical (the transparency
    /// invariants the parity suites assert).
    fn eq(&self, other: &Self) -> bool {
        self.train_s == other.train_s
            && self.comm_s == other.comm_s
            && self.missed == other.missed
            && self.aggregated_updates == other.aggregated_updates
    }
}

/// State of the collaboration after one aggregation cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Aggregation cycle index (of the *capable* devices, matching the
    /// X-axis of the paper's Fig 5).
    pub cycle: usize,
    /// Simulated time at the end of the cycle.
    pub sim_time: SimTime,
    /// Global-model accuracy on the held-out test set.
    pub test_accuracy: f64,
    /// Global-model loss on the held-out test set.
    pub test_loss: f64,
    /// Number of client updates aggregated this cycle.
    pub participants: usize,
    /// Bytes exchanged with the server this cycle (uploads of trained
    /// parameters plus full-model downloads).
    pub comm_bytes: f64,
    /// Per-phase breakdown of the cycle. Defaults to zeros when
    /// deserializing result files written before this field existed.
    #[serde(default)]
    pub phases: PhaseBreakdown,
}

/// Host-side profile of one strategy run, filled in by the round driver.
///
/// The fields are *wall-clock* observations of this run's phases, timed
/// on the driving thread (seconds of real time) — they describe how long
/// the simulation took to execute, never the simulated timeline, and are
/// excluded from [`RunMetrics`] equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunProfile {
    /// Wall time spent in client selection and per-client configuration.
    pub setup_s: f64,
    /// Wall time spent broadcasting the global model.
    pub broadcast_s: f64,
    /// Wall time spent in local training (the client fan-out).
    pub train_s: f64,
    /// Wall time spent routing updates through the simulated transport.
    pub route_s: f64,
    /// Wall time spent in the aggregation hook.
    pub aggregate_s: f64,
    /// Wall time spent evaluating the global model.
    pub eval_s: f64,
}

/// Full metrics of one strategy run.
///
/// # Example
///
/// ```
/// use helios_device::SimTime;
/// use helios_fl::{RoundRecord, RunMetrics};
///
/// let mut m = RunMetrics::new("probe");
/// m.push(RoundRecord {
///     cycle: 0,
///     sim_time: SimTime::from_secs(10.0),
///     test_accuracy: 0.5,
///     test_loss: 1.0,
///     participants: 4,
///     comm_bytes: 1024.0,
///     phases: Default::default(),
/// });
/// assert_eq!(m.best_accuracy(), 0.5);
/// assert!(m.time_to_reach(0.4).is_some());
/// assert!(m.time_to_reach(0.9).is_none());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMetrics {
    strategy: String,
    records: Vec<RoundRecord>,
    /// Host-side execution profile (absent in files written before it
    /// existed).
    #[serde(default)]
    profile: RunProfile,
}

impl PartialEq for RunMetrics {
    /// Compares the simulated outcome (strategy name and records); the
    /// host-side [`RunProfile`] is wall-clock noise and is excluded.
    fn eq(&self, other: &Self) -> bool {
        self.strategy == other.strategy && self.records == other.records
    }
}

impl RunMetrics {
    /// Creates an empty metrics collection for a named strategy.
    pub fn new(strategy: impl Into<String>) -> Self {
        RunMetrics {
            strategy: strategy.into(),
            records: Vec::new(),
            profile: RunProfile::default(),
        }
    }

    /// Strategy name.
    pub fn strategy(&self) -> &str {
        &self.strategy
    }

    /// The host-side execution profile recorded by the round driver.
    pub fn profile(&self) -> &RunProfile {
        &self.profile
    }

    /// Installs the host-side execution profile.
    pub fn set_profile(&mut self, profile: RunProfile) {
        self.profile = profile;
    }

    /// Appends one cycle record.
    pub fn push(&mut self, record: RoundRecord) {
        self.records.push(record);
    }

    /// All records in cycle order.
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Accuracy after the final cycle (0 when empty).
    pub fn final_accuracy(&self) -> f64 {
        self.records.last().map_or(0.0, |r| r.test_accuracy)
    }

    /// Best accuracy over the run (0 when empty).
    pub fn best_accuracy(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.test_accuracy)
            .fold(0.0, f64::max)
    }

    /// Mean accuracy over the last `k` cycles — the "converged accuracy"
    /// the paper compares, robust to single-cycle fluctuation.
    pub fn tail_accuracy(&self, k: usize) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let start = self.records.len().saturating_sub(k.max(1));
        let tail = &self.records[start..];
        tail.iter().map(|r| r.test_accuracy).sum::<f64>() / tail.len() as f64
    }

    /// Standard deviation of accuracy over the last `k` cycles (the
    /// fluctuation Fig 6 contrasts between Helios and S.T.-only).
    pub fn tail_accuracy_std(&self, k: usize) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let start = self.records.len().saturating_sub(k.max(1));
        let tail = &self.records[start..];
        let mean = tail.iter().map(|r| r.test_accuracy).sum::<f64>() / tail.len() as f64;
        let var = tail
            .iter()
            .map(|r| (r.test_accuracy - mean).powi(2))
            .sum::<f64>()
            / tail.len() as f64;
        var.sqrt()
    }

    /// Simulated time at which accuracy first reaches `target`, if ever.
    pub fn time_to_reach(&self, target: f64) -> Option<SimTime> {
        self.records
            .iter()
            .find(|r| r.test_accuracy >= target)
            .map(|r| r.sim_time)
    }

    /// Total simulated time of the run.
    pub fn total_time(&self) -> SimTime {
        self.records.last().map_or(SimTime::ZERO, |r| r.sim_time)
    }

    /// Speedup of this run over `other` in reaching `target` accuracy
    /// (simulated-time ratio `other / self`). `None` when either run never
    /// reaches the target.
    pub fn speedup_over(&self, other: &RunMetrics, target: f64) -> Option<f64> {
        let mine = self.time_to_reach(target)?.as_secs_f64();
        let theirs = other.time_to_reach(target)?.as_secs_f64();
        if mine <= 0.0 {
            return None;
        }
        Some(theirs / mine)
    }

    /// Total bytes exchanged with the server over the run.
    pub fn total_comm_bytes(&self) -> f64 {
        self.records.iter().map(|r| r.comm_bytes).sum()
    }

    /// Renders the run as CSV, one row per cycle with the full per-phase
    /// breakdown appended
    /// (`cycle,sim_time_s,accuracy,loss,participants,comm_bytes,train_s,comm_s,wire_bytes,retries,missed,aggregated,train_flops,eval_flops`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "cycle,sim_time_s,accuracy,loss,participants,comm_bytes,train_s,comm_s,wire_bytes,retries,missed,aggregated,train_flops,eval_flops\n",
        );
        for r in &self.records {
            let _ = writeln!(
                out,
                "{},{:.3},{:.4},{:.4},{},{:.0},{:.3},{:.3},{},{},{},{},{},{}",
                r.cycle,
                r.sim_time.as_secs_f64(),
                r.test_accuracy,
                r.test_loss,
                r.participants,
                r.comm_bytes,
                r.phases.train_s,
                r.phases.comm_s,
                r.phases.wire_bytes,
                r.phases.retries,
                r.phases.missed,
                r.phases.aggregated_updates,
                r.phases.train_flops,
                r.phases.eval_flops
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cycle: usize, secs: f64, acc: f64) -> RoundRecord {
        RoundRecord {
            cycle,
            sim_time: SimTime::from_secs(secs),
            test_accuracy: acc,
            test_loss: 1.0 - acc,
            participants: 2,
            comm_bytes: 100.0,
            phases: PhaseBreakdown {
                train_s: secs * 0.8,
                comm_s: secs * 0.2,
                aggregated_updates: 2,
                ..PhaseBreakdown::default()
            },
        }
    }

    fn sample_run() -> RunMetrics {
        let mut m = RunMetrics::new("s");
        m.push(record(0, 10.0, 0.3));
        m.push(record(1, 20.0, 0.6));
        m.push(record(2, 30.0, 0.5));
        m.push(record(3, 40.0, 0.7));
        m
    }

    #[test]
    fn summary_statistics() {
        let m = sample_run();
        assert_eq!(m.final_accuracy(), 0.7);
        assert_eq!(m.best_accuracy(), 0.7);
        assert!((m.tail_accuracy(2) - 0.6).abs() < 1e-12);
        assert!(m.tail_accuracy_std(2) > 0.0);
        assert_eq!(m.total_time().as_secs_f64(), 40.0);
    }

    #[test]
    fn target_search() {
        let m = sample_run();
        assert_eq!(m.time_to_reach(0.55).unwrap().as_secs_f64(), 20.0);
        assert_eq!(m.time_to_reach(0.95), None);
    }

    #[test]
    fn speedup_is_a_time_ratio() {
        let fast = sample_run();
        let mut slow = RunMetrics::new("slow");
        slow.push(record(0, 100.0, 0.7));
        assert!((fast.speedup_over(&slow, 0.55).unwrap() - 5.0).abs() < 1e-12);
        assert!(fast.speedup_over(&slow, 0.99).is_none());
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = RunMetrics::new("empty");
        assert_eq!(m.final_accuracy(), 0.0);
        assert_eq!(m.best_accuracy(), 0.0);
        assert_eq!(m.tail_accuracy(5), 0.0);
        assert_eq!(m.total_time(), SimTime::ZERO);
        assert!(m.time_to_reach(0.1).is_none());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample_run().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("cycle,"));
        assert!(lines[0].ends_with(
            "train_s,comm_s,wire_bytes,retries,missed,aggregated,train_flops,eval_flops"
        ));
        assert!(lines[1].starts_with("0,10.000,0.3000"));
        assert!(lines[1].ends_with(",8.000,2.000,0,0,0,2,0,0"));
    }

    #[test]
    fn observability_counters_do_not_break_equality() {
        // The kernel counters differ between packed and zeroing
        // execution, and the wire counters between routed and direct
        // runs, with identical learning outcomes — neither may
        // participate in equality.
        let a = PhaseBreakdown {
            train_s: 1.0,
            train_flops: 10,
            ..PhaseBreakdown::default()
        };
        let b = PhaseBreakdown {
            train_s: 1.0,
            train_flops: 99,
            eval_flops: 7,
            wire_bytes: 4096,
            retries: 3,
            ..PhaseBreakdown::default()
        };
        assert_eq!(a, b);
        let c = PhaseBreakdown { train_s: 2.0, ..a };
        assert_ne!(a, c);
        let d = PhaseBreakdown { missed: 1, ..a };
        assert_ne!(a, d);
    }

    #[test]
    fn run_profile_is_excluded_from_equality_but_round_trips() {
        let mut a = sample_run();
        let b = sample_run();
        a.set_profile(RunProfile {
            train_s: 123.0,
            ..RunProfile::default()
        });
        assert_eq!(a, b, "host profile is wall-clock noise");
        let json = serde_json::to_string(&a).unwrap();
        let back: RunMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.profile().train_s, 123.0);
        // Files written before the profile/phases fields existed load.
        let legacy = r#"{"strategy":"old","records":[{"cycle":0,"sim_time":1.5,
            "test_accuracy":0.5,"test_loss":1.0,"participants":2,"comm_bytes":8.0}]}"#;
        let old: RunMetrics = serde_json::from_str(legacy).unwrap();
        assert_eq!(old.records()[0].phases, PhaseBreakdown::default());
    }
}
