//! What one role prints: the human-readable report, a `detail` line the
//! parent process and result files are built from, and — last — the one
//! JSON object of the driver contract.

use crate::metrics::Metrics;
use crate::outcome::{Outcome, Tally};
use crate::workloads::Workload;
use serde::value::Value;

/// Prefix of the machine-readable line that precedes the contract line.
pub const DETAIL_PREFIX: &str = "detail ";

/// Follows `path` down nested JSON objects.
pub fn lookup<'a>(mut v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    for key in path {
        match v {
            Value::Map(m) => v = serde::value::find(m, key)?,
            _ => return None,
        }
    }
    Some(v)
}

/// Which half of the measurement a process performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// `--trace 0`: end-to-end metrics.
    Timed,
    /// `--trace 1`: per-layer metrics.
    Ledger,
}

impl Role {
    pub fn name(self) -> &'static str {
        match self {
            Role::Timed => "timed",
            Role::Ledger => "ledger",
        }
    }

    /// The `--trace` value that selects this role.
    pub fn trace_flag(self) -> &'static str {
        match self {
            Role::Timed => "0",
            Role::Ledger => "1",
        }
    }

    /// The key result files keep this role's metrics under.
    pub fn section(self) -> &'static str {
        match self {
            Role::Timed => "end_to_end",
            Role::Ledger => "per_layer",
        }
    }
}

pub struct RoleReport {
    pub role: Role,
    pub workload: Workload,
    pub metrics: Metrics,
    pub tally: Tally,
    pub sim: Option<Outcome>,
    /// The traced run's spans (ledger role only).
    pub spans: Option<Value>,
}

impl RoleReport {
    pub fn new(
        role: Role,
        w: &Workload,
        metrics: Metrics,
        mut tally: Tally,
        sim: Option<Outcome>,
        spans: Option<Value>,
    ) -> Self {
        for problem in metrics.finish() {
            tally.check(&format!("{} {}: {problem}", w.name, role.name()), false);
        }
        RoleReport {
            role,
            workload: *w,
            metrics,
            tally,
            sim,
            spans,
        }
    }

    /// Everything this role measured, for the parent and for `--out`.
    pub fn detail_value(&self) -> Value {
        let mut pairs = vec![
            ("workload".into(), Value::Str(self.workload.name.into())),
            ("role".into(), Value::Str(self.role.name().into())),
            ("correct".into(), Value::Bool(self.tally.correct())),
            ("ops_attempted".into(), Value::UInt(self.tally.attempted)),
            ("ops_failed".into(), Value::UInt(self.tally.failed)),
            (
                "failures".into(),
                Value::Seq(
                    self.tally
                        .failures
                        .iter()
                        .cloned()
                        .map(Value::Str)
                        .collect(),
                ),
            ),
            (
                "sim".into(),
                self.sim.map_or(Value::Null, Outcome::to_value),
            ),
            (self.role.section().into(), self.metrics.detail_value()),
        ];
        if let Some(spans) = &self.spans {
            pairs.push(("spans".into(), spans.clone()));
        }
        Value::Map(pairs)
    }

    /// The driver contract's object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_value(&self) -> Value {
        Value::Map(vec![
            ("correct".into(), Value::Bool(self.tally.correct())),
            ("attempted".into(), Value::UInt(self.tally.attempted.max(1))),
            ("failed".into(), Value::UInt(self.tally.failed)),
            ("metrics".into(), self.metrics.contract_value()),
        ])
    }

    pub fn print(&self) {
        let w = &self.workload;
        println!(
            "== {} [{}] {} cycles x {} participants — {}",
            w.name,
            self.role.name(),
            w.cycles,
            w.cohort(),
            w.why
        );
        self.metrics.print();
        if let Some(sim) = &self.sim {
            sim.print();
        }
        println!(
            "  ops_attempted {}  ops_failed {}  correct {}",
            self.tally.attempted,
            self.tally.failed,
            self.tally.correct()
        );
        for f in &self.tally.failures {
            println!("  FAILED {f}");
        }
    }

    /// Prints the report, the detail line and — last — the contract line.
    pub fn emit(&self) {
        self.print();
        let json = |v: &Value| serde_json::to_string(v).unwrap_or_else(|e| format!("\"{e}\""));
        println!("{DETAIL_PREFIX}{}", json(&self.detail_value()));
        println!("{}", json(&self.contract_value()));
    }
}
