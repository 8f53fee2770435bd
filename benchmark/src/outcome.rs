//! Simulated outcomes and operation accounting.
//!
//! A change that only speeds the simulator up must leave every simulated
//! statistic identical, so each run is reduced to an [`Outcome`] whose
//! digest two commits can compare exactly.

use helios_fl::RunMetrics;
use serde::value::Value;

/// The simulated result of one run: what `RunMetrics` equality compares,
/// hashed, plus the totals the report prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// FNV-1a over the strategy name and every record's compared fields.
    pub digest: u64,
    pub total_time_s: f64,
    pub final_accuracy: f64,
    pub final_loss: f64,
    pub comm_bytes_total: f64,
    pub wire_bytes_total: u64,
    pub retries_total: u64,
    pub missed: usize,
    pub aggregated: usize,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

impl Outcome {
    pub fn of(metrics: &RunMetrics) -> Outcome {
        let mut h = Fnv::new();
        h.bytes(metrics.strategy().as_bytes());
        let records = metrics.records();
        for r in records {
            h.u64(r.cycle as u64);
            h.f64(r.sim_time.as_secs_f64());
            h.f64(r.test_accuracy);
            h.f64(r.test_loss);
            h.u64(r.participants as u64);
            h.f64(r.comm_bytes);
            h.f64(r.phases.train_s);
            h.f64(r.phases.comm_s);
            h.u64(r.phases.missed as u64);
            h.u64(r.phases.aggregated_updates as u64);
        }
        Outcome {
            digest: h.0,
            total_time_s: metrics.total_time().as_secs_f64(),
            final_accuracy: metrics.final_accuracy(),
            final_loss: records.last().map_or(0.0, |r| r.test_loss),
            comm_bytes_total: metrics.total_comm_bytes(),
            wire_bytes_total: records.iter().map(|r| r.phases.wire_bytes).sum(),
            retries_total: records.iter().map(|r| r.phases.retries).sum(),
            missed: records.iter().map(|r| r.phases.missed).sum(),
            aggregated: records.iter().map(|r| r.phases.aggregated_updates).sum(),
        }
    }

    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest)
    }

    /// The report's `sim` block.
    pub fn to_value(self) -> Value {
        Value::Map(vec![
            ("outcome_digest".into(), Value::Str(self.digest_hex())),
            ("total_time_s".into(), Value::Float(self.total_time_s)),
            ("final_accuracy".into(), Value::Float(self.final_accuracy)),
            ("final_loss".into(), Value::Float(self.final_loss)),
            (
                "comm_bytes_total".into(),
                Value::Float(self.comm_bytes_total),
            ),
            (
                "wire_bytes_total".into(),
                Value::UInt(self.wire_bytes_total),
            ),
            ("retries_total".into(), Value::UInt(self.retries_total)),
            ("missed_updates".into(), Value::UInt(self.missed as u64)),
            (
                "aggregated_updates".into(),
                Value::UInt(self.aggregated as u64),
            ),
        ])
    }

    pub fn print(&self) {
        println!(
            "  sim.outcome_digest {}  sim.total_time_s {:.3}  sim.final_accuracy {:.4}  \
             sim.final_loss {:.4}  sim.comm_bytes_total {:.0}",
            self.digest_hex(),
            self.total_time_s,
            self.final_accuracy,
            self.final_loss,
            self.comm_bytes_total
        );
    }
}

/// Counts operations and failed checks. An operation is one
/// `Strategy::run`, one traced run, one probe or one child process; it
/// fails when it returns `Err`, its child exits nonzero, or a check on
/// its result fails. A simulated deadline miss is an outcome, not a
/// failure.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one operation and passes its value through.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// A check on an operation already counted.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.fail(format!("check failed: {what}"));
        }
    }

    fn fail(&mut self, why: String) {
        eprintln!("FAILED {why}");
        // Several checks may fail on one operation; the share of failed
        // operations never exceeds one.
        self.failed = (self.failed + 1).min(self.attempted.max(1));
        self.failures.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The checks every production or traced run must pass.
pub fn check_run(
    tally: &mut Tally,
    w: &crate::workloads::Workload,
    metrics: &RunMetrics,
    quick: bool,
) {
    let label = w.name;
    tally.check(
        &format!("{label}: one record per cycle"),
        metrics.records().len() == w.cycles,
    );
    tally.check(
        &format!("{label}: aggregated + missed == participants every cycle"),
        metrics
            .records()
            .iter()
            .all(|r| r.phases.aggregated_updates + r.phases.missed == w.cohort()),
    );
    if quick {
        // Too short to learn anything.
        return;
    }
    let losses: Vec<f64> = metrics.records().iter().map(|r| r.test_loss).collect();
    tally.check(
        &format!("{label}: the test loss is finite and fell from the first cycle to the last"),
        matches!((losses.first(), losses.last()), (Some(a), Some(b)) if b.is_finite() && b < a),
    );
    if let Some(multiple) = w.accuracy_over_chance {
        let chance = 1.0 / w.data.num_classes as f64;
        tally.check(
            &format!("{label}: final accuracy at least {multiple} times chance"),
            metrics.final_accuracy() >= multiple * chance,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_device::SimTime;
    use helios_fl::RoundRecord;

    fn run(acc: f64) -> RunMetrics {
        let mut m = RunMetrics::new("s");
        m.push(RoundRecord {
            cycle: 0,
            sim_time: SimTime::from_secs(2.0),
            test_accuracy: acc,
            test_loss: 1.0,
            participants: 3,
            comm_bytes: 10.0,
            phases: Default::default(),
        });
        m
    }

    #[test]
    fn digest_separates_outcomes_and_ignores_host_profile() {
        let (a, mut b) = (run(0.5), run(0.5));
        b.set_profile(helios_fl::RunProfile {
            train_s: 9.0,
            ..Default::default()
        });
        assert_eq!(Outcome::of(&a), Outcome::of(&b));
        assert_ne!(Outcome::of(&a).digest, Outcome::of(&run(0.25)).digest);
        assert_eq!(Outcome::of(&a).digest_hex().len(), 16);
    }

    #[test]
    fn tally_counts_failed_operations_and_checks() {
        let mut t = Tally::default();
        assert_eq!(t.op("ok", Ok::<_, String>(1)), Some(1));
        assert_eq!(t.op("bad", Err::<u8, _>("boom")), None);
        t.check("holds", true);
        assert_eq!((t.attempted, t.failed, t.correct()), (2, 1, false));
        t.check("a", false);
        t.check("b", false);
        assert_eq!(t.failed, 2, "failed operations never exceed attempted");
    }
}
