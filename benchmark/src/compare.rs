//! `--compare A.json B.json`: applies the bounds `BENCHMARK.json` fixes to
//! two result files and says, per workload and end-to-end metric, whether
//! B is `ok`, `worse`, or `unresolved` against A.

use crate::report::lookup;
use crate::stats::Summary;
use crate::workloads::BoxResult;
use serde::value::{find, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound, so "no worse" cannot
    /// be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// B against A for a metric where `lower_is_better`, with `bound` the
/// share of A's median B may be worse by.
pub fn judge(a: &Summary, b: &Summary, lower_is_better: bool, bound: f64) -> Verdict {
    let worse_by = if lower_is_better {
        (b.median - a.median) / a.median
    } else {
        (a.median - b.median) / a.median
    };
    if worse_by > bound {
        return Verdict::Worse;
    }
    let all_better = if lower_is_better {
        b.max < a.min
    } else {
        b.min > a.max
    };
    if a.spread().max(b.spread()) > bound && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

fn object<'a>(v: &'a Value, what: &str) -> BoxResult<&'a [(String, Value)]> {
    match v {
        Value::Map(m) => Ok(m),
        _ => Err(format!("{what} is not an object").into()),
    }
}

fn field<'a>(map: &'a [(String, Value)], key: &str) -> BoxResult<&'a Value> {
    find(map, key).ok_or_else(|| format!("missing field {key:?}").into())
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn text(v: &Value) -> BoxResult<&str> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(format!("expected a string, found {other:?}").into()),
    }
}

fn summary(metric: &Value) -> Option<Summary> {
    let Value::Map(m) = metric else { return None };
    let get = |k: &str| find(m, k).and_then(number);
    Some(Summary {
        n: get("n")? as usize,
        median: get("median")?,
        min: get("min")?,
        max: get("max")?,
        quartiles: get("q1").zip(get("q3")),
    })
}

fn load(path: &str) -> BoxResult<Value> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(serde_json::from_str::<Value>(&text).map_err(|e| format!("{path}: {e}"))?)
}

/// The statistics of metric `name` in `section` of a workload block;
/// `None` when absent or `n/a`.
fn metric_summary(block: &[(String, Value)], section: &str, name: &str) -> Option<Summary> {
    summary(lookup(find(block, section)?, &[name])?)
}

/// Share of operations that failed in a workload block.
fn failed_share(block: &[(String, Value)]) -> f64 {
    let get = |k: &str| find(block, k).and_then(number).unwrap_or(0.0);
    get("ops_failed") / get("ops_attempted").max(1.0)
}

/// Compares result files `a` and `b` under the bounds in `bounds_path`.
/// Returns whether B passes: no `worse` row and no higher share of failed
/// operations.
pub fn run(a_path: &str, b_path: &str, bounds_path: &str) -> BoxResult<bool> {
    let (a, b, bounds) = (load(a_path)?, load(b_path)?, load(bounds_path)?);
    let bounds = object(&bounds, bounds_path)?;
    let Value::Seq(workloads) = field(bounds, "workloads")? else {
        return Err("workloads is not an array".into());
    };
    let Value::Seq(end_to_end) = field(bounds, "end_to_end")? else {
        return Err("end_to_end is not an array".into());
    };
    let a_workloads = object(field(object(&a, a_path)?, "workloads")?, "A.workloads")?;
    let b_workloads = object(field(object(&b, b_path)?, "workloads")?, "B.workloads")?;

    let mut pass = true;
    println!(
        "{:<16} {:<22} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for w in workloads {
        let name = text(field(object(w, "workload")?, "name")?)?;
        let (Some(wa), Some(wb)) = (find(a_workloads, name), find(b_workloads, name)) else {
            println!("{name:<16} missing from a result file");
            pass = false;
            continue;
        };
        let (wa, wb) = (object(wa, name)?, object(wb, name)?);
        for metric in end_to_end {
            let metric = object(metric, "metric")?;
            let metric_name = text(field(metric, "name")?)?;
            let lower = text(field(metric, "better")?)? == "lower";
            let bound = number(field(metric, "bound")?).ok_or("bound is not a number")?;
            let sides = metric_summary(wa, "end_to_end", metric_name).zip(metric_summary(
                wb,
                "end_to_end",
                metric_name,
            ));
            let Some((sa, sb)) = sides else {
                println!("{name:<16} {metric_name:<22} not measured on both sides");
                pass = false;
                continue;
            };
            let verdict = judge(&sa, &sb, lower, bound);
            pass &= verdict != Verdict::Worse;
            println!(
                "{name:<16} {metric_name:<22} {:>12.4} {:>12.4} {:>+7.1}% {:>6.0}%  {}",
                sa.median,
                sb.median,
                100.0 * (sb.median - sa.median) / sa.median,
                100.0 * bound,
                verdict.as_str()
            );
        }
        // Simulated statistics and exact counts: a change that only makes
        // the simulator faster leaves all of them identical.
        let same_sim = find(wa, "sim") == find(wb, "sim");
        println!(
            "{name:<16} {:<22} {}",
            "sim.*",
            if same_sim { "same" } else { "differs" }
        );
        for n in crate::metrics::EXACT {
            let value = |block| metric_summary(block, "per_layer", n).map(|s| s.median);
            let (va, vb) = (value(wa), value(wb));
            if va != vb {
                let shown = |v: Option<f64>| v.map_or("n/a".to_string(), |v| v.to_string());
                println!("{name:<16} {n:<22} {} -> {}  differs", shown(va), shown(vb));
            }
        }
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        if fb > fa {
            println!("{name:<16} failed-operation share rose from {fa:.4} to {fb:.4}");
            pass = false;
        }
    }
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: f64) -> Summary {
        Summary::single(v)
    }

    #[test]
    fn bounds_apply_in_the_metric_direction() {
        // Lower is better, bound 10%.
        assert_eq!(judge(&flat(10.0), &flat(10.9), true, 0.1), Verdict::Ok);
        assert_eq!(judge(&flat(10.0), &flat(11.1), true, 0.1), Verdict::Worse);
        assert_eq!(judge(&flat(10.0), &flat(5.0), true, 0.1), Verdict::Ok);
        // Higher is better.
        assert_eq!(judge(&flat(10.0), &flat(8.9), false, 0.1), Verdict::Worse);
        assert_eq!(judge(&flat(10.0), &flat(12.0), false, 0.1), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = Summary {
            n: 5,
            median: 10.0,
            min: 8.0,
            max: 12.0,
            quartiles: None,
        };
        assert_eq!(judge(&noisy, &flat(10.2), true, 0.1), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &flat(7.0), true, 0.1), Verdict::Ok);
        // Quartiles, where present, replace the range.
        let tight = Summary {
            quartiles: Some((9.9, 10.1)),
            ..noisy
        };
        assert_eq!(judge(&tight, &flat(10.2), true, 0.1), Verdict::Ok);
        // Beyond the bound is worse however noisy.
        assert_eq!(judge(&noisy, &flat(12.0), true, 0.1), Verdict::Worse);
    }
}
