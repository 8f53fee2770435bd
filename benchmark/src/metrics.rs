//! The benchmark's metric names. `BENCHMARK.json` declares the same two
//! lists; a unit test holds them equal in both directions, and
//! [`Metrics::finish`] fails a run that sets a name outside its list or
//! leaves one unset.

use crate::stats::Summary;
use serde::value::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the simulator sees, per workload.
pub const END_TO_END: &[MetricDef] = &[
    lo("setup_s", "s"),
    lo("run_wall_s", "s"),
    hi("client_rounds_per_s", "1/s"),
    lo("peak_rss_mb", "MB"),
];

/// The per-layer ledger, outside in. The same names are reported on every
/// workload; a layer the workload leaves off reads `n/a` (0 in JSON).
pub const PER_LAYER: &[MetricDef] = &[
    // fl: traced driver phases (self seconds), one traced 1-thread run.
    lo("fl.begin_run_s", "s"),
    lo("fl.select_s", "s"),
    lo("fl.broadcast_s", "s"),
    lo("fl.configure_s", "s"),
    lo("fl.train_s", "s"),
    lo("fl.route_s", "s"),
    lo("fl.aggregate_s", "s"),
    lo("fl.post_cycle_s", "s"),
    lo("fl.evaluate_s", "s"),
    lo("fl.unattributed_s", "s"),
    lo("fl.t1_wall_s", "s"),
    hi("fl.thread_scaling", "ratio"),
    lo("fl.rss_after_train_mb", "MB"),
    lo("fl.rss_after_route_mb", "MB"),
    lo("fl.update_bytes_per_participant", "B"),
    lo("fl.materialize_client_us", "us"),
    lo("fl.sampler_cohort_us", "us"),
    lo("fl.aggregator_push_ns_per_param", "ns"),
    lo("fl.aggregator_finish_us", "us"),
    hi("fl.client_rounds", "count"),
    hi("fl.aggregated_updates", "count"),
    lo("fl.materialized_clients", "count"),
    hi("trace.accounted_share", "ratio"),
    lo("trace.overhead_ratio", "ratio"),
    // nn: one model of the workload's kind, batch 16, 1 thread.
    lo("nn.train_step_us.full", "us"),
    lo("nn.train_step_us.k50", "us"),
    lo("nn.train_step_us.k25", "us"),
    lo("nn.forward_us.full", "us"),
    lo("nn.forward_us.k50", "us"),
    lo("nn.forward_us.k25", "us"),
    lo("nn.backward_us.full", "us"),
    lo("nn.backward_us.k50", "us"),
    lo("nn.backward_us.k25", "us"),
    lo("nn.step_us", "us"),
    lo("nn.loss_us", "us"),
    lo("nn.zero_grad_us", "us"),
    lo("nn.eval_forward_us", "us"),
    lo("nn.param_vector_us", "us"),
    lo("nn.set_param_vector_us", "us"),
    lo("nn.set_masks_us", "us"),
    lo("nn.param_mask_us", "us"),
    lo("nn.model_build_us", "us"),
    lo("nn.masked_wall_ratio.k50", "ratio"),
    lo("nn.masked_wall_ratio.k25", "ratio"),
    lo("nn.masked_flop_ratio.k50", "ratio"),
    lo("nn.masked_flop_ratio.k25", "ratio"),
    // tensor: the model's GEMM shapes and its heaviest conv, batch 16.
    hi("tensor.gemm_gflops.fwd_geomean", "GFLOP/s"),
    hi("tensor.gemm_gflops.bwd_geomean", "GFLOP/s"),
    hi("tensor.gemm_gflops.min_shape", "GFLOP/s"),
    lo("tensor.conv2d_fwd_us", "us"),
    lo("tensor.conv2d_bwd_us", "us"),
    lo("tensor.conv2d_bwd_packed_us.k25", "us"),
    lo("tensor.pool_fwd_us", "us"),
    lo("tensor.pool_bwd_us", "us"),
    hi("tensor.gather_gbps", "GB/s"),
    hi("tensor.scatter_gbps", "GB/s"),
    lo("tensor.workspace_reallocs", "count"),
    // net: codec and transport on updates captured from the traced run.
    hi("net.encode_mbps", "MB/s"),
    lo("net.encode_us_per_update", "us"),
    hi("net.decode_mbps", "MB/s"),
    hi("net.crc32_mbps", "MB/s"),
    lo("net.broadcast_encode_us", "us"),
    lo("net.transport_us_per_frame", "us"),
    lo("net.frame_bytes_mean", "B"),
    lo("net.compression_ratio", "ratio"),
    lo("net.wire_bytes_total", "B"),
    lo("net.retries_total", "count"),
    lo("net.missed_updates", "count"),
    // helios: soft-training policy pieces.
    lo("helios.next_mask_us", "us"),
    lo("helios.contributions_us", "us"),
    lo("helios.identify_us", "us"),
    lo("helios.fit_keep_us", "us"),
    lo("helios.weights_us", "us"),
    lo("helios.stragglers", "count"),
    lo("helios.mean_keep_ratio", "ratio"),
    // data / device: input generators and the cost model.
    lo("data.generate_ms", "ms"),
    lo("data.shuffled_batches_us", "us"),
    lo("data.shard_synth_us", "us"),
    lo("device.profile_synth_us", "us"),
    lo("device.cycle_time_ns", "ns"),
    // obs: the trace bus, off on every workload; probed last.
    lo("obs.emit_disabled_ns", "ns"),
    lo("obs.emit_ring_ns", "ns"),
    lo("obs.emit_jsonl_ns", "ns"),
    // alloc: the counting allocator over the traced run, exact at 1 thread.
    lo("alloc.calls_per_client_round", "count"),
    lo("alloc.bytes_per_client_round", "B"),
    lo("alloc.calls.select", "count"),
    lo("alloc.calls.train", "count"),
    lo("alloc.calls.route", "count"),
    lo("alloc.calls.aggregate", "count"),
    // sim: simulated statistics a simulator speed-up must leave identical.
    lo("sim.total_time_s", "s"),
    hi("sim.final_accuracy", "ratio"),
    lo("sim.final_loss", "loss"),
    lo("sim.comm_bytes_total", "B"),
];

/// Per-layer values that are counts or simulated statistics, not
/// timings: two runs of one commit at one seed agree on them exactly, so
/// `--compare` reports any that differ.
pub const EXACT: &[&str] = &[
    "fl.update_bytes_per_participant",
    "fl.client_rounds",
    "fl.aggregated_updates",
    "fl.materialized_clients",
    "nn.masked_flop_ratio.k50",
    "nn.masked_flop_ratio.k25",
    "net.frame_bytes_mean",
    "net.compression_ratio",
    "net.wire_bytes_total",
    "net.retries_total",
    "net.missed_updates",
    "helios.stragglers",
    "helios.mean_keep_ratio",
    "alloc.calls_per_client_round",
    "alloc.bytes_per_client_round",
    "alloc.calls.select",
    "alloc.calls.train",
    "alloc.calls.route",
    "alloc.calls.aggregate",
    "sim.total_time_s",
    "sim.final_accuracy",
    "sim.final_loss",
    "sim.comm_bytes_total",
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Unset,
    NotApplicable,
    Value(Summary),
}

/// One role's metric values, index-aligned with its definition list.
#[derive(Debug, Clone)]
pub struct Metrics {
    defs: &'static [MetricDef],
    entries: Vec<Entry>,
    /// Names set twice or not in `defs`; reported by [`Metrics::finish`].
    misuse: Vec<String>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Metrics {
            defs,
            entries: vec![Entry::Unset; defs.len()],
            misuse: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, entry: Entry) {
        match self.defs.iter().position(|d| d.name == name) {
            Some(i) if self.entries[i] == Entry::Unset => self.entries[i] = entry,
            Some(_) => self.misuse.push(format!("{name} set twice")),
            None => self.misuse.push(format!("{name} is not a declared metric")),
        }
    }

    /// A repeated measurement.
    pub fn set(&mut self, name: &str, summary: Summary) {
        self.put(name, Entry::Value(summary));
    }

    /// An exact count or a one-sample reading (`n = 1`).
    pub fn single(&mut self, name: &str, value: f64) {
        self.put(name, Entry::Value(Summary::single(value)));
    }

    /// The layer is off on this workload.
    pub fn na(&mut self, name: &str) {
        self.put(name, Entry::NotApplicable);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<Summary> {
        let i = self.defs.iter().position(|d| d.name == name)?;
        match self.entries[i] {
            Entry::Value(s) => Some(s),
            _ => None,
        }
    }

    /// Everything wrong with the set of names: unset, set twice, unknown.
    /// Empty on a correct run.
    pub fn finish(&self) -> Vec<String> {
        let mut problems = self.misuse.clone();
        for (d, e) in self.defs.iter().zip(&self.entries) {
            if *e == Entry::Unset {
                problems.push(format!("{} was never reported", d.name));
            }
        }
        problems
    }

    /// The `metrics` object of the driver contract: one number per name,
    /// the median; `n/a` and unset read 0.
    pub fn contract_value(&self) -> Value {
        Value::Map(
            self.defs
                .iter()
                .zip(&self.entries)
                .map(|(d, e)| {
                    let v = match e {
                        Entry::Value(s) => s.median,
                        _ => 0.0,
                    };
                    let pairs = vec![
                        ("value".to_string(), Value::Float(v)),
                        ("unit".to_string(), Value::Str(d.unit.to_string())),
                    ];
                    (d.name.to_string(), Value::Map(pairs))
                })
                .collect(),
        )
    }

    /// The detailed form kept in result files: every statistic, or
    /// `"n/a"`.
    pub fn detail_value(&self) -> Value {
        Value::Map(
            self.defs
                .iter()
                .zip(&self.entries)
                .map(|(d, e)| {
                    let v = match e {
                        Entry::Value(s) => {
                            let mut pairs = vec![
                                ("unit".to_string(), Value::Str(d.unit.to_string())),
                                ("better".to_string(), Value::Str(d.better.as_str().into())),
                            ];
                            pairs.extend(s.to_value());
                            Value::Map(pairs)
                        }
                        _ => Value::Str("n/a".into()),
                    };
                    (d.name.to_string(), v)
                })
                .collect(),
        )
    }

    /// One line per metric: name, value with unit, direction, and the
    /// sample statistics behind it. The traced-driver phase rows also show
    /// their share of the traced wall (the phases plus what none covers).
    pub fn print(&self) {
        let traced_wall: f64 = self
            .defs
            .iter()
            .zip(&self.entries)
            .filter(|(d, _)| is_phase(d.name))
            .map(|(_, e)| match e {
                Entry::Value(s) => s.median,
                _ => 0.0,
            })
            .sum();
        for (d, e) in self.defs.iter().zip(&self.entries) {
            match e {
                Entry::Value(s) => {
                    let mut line = format!(
                        "  {:<36} {:>14} {:<8} {:<7} n={}",
                        d.name,
                        format_value(s.median),
                        d.unit,
                        d.better.as_str(),
                        s.n
                    );
                    if s.n > 1 {
                        line +=
                            &format!(" min={} max={}", format_value(s.min), format_value(s.max));
                    }
                    if let Some((q1, q3)) = s.quartiles {
                        line += &format!(" q1={} q3={}", format_value(q1), format_value(q3));
                    }
                    if is_phase(d.name) && traced_wall > 0.0 {
                        line += &format!(" share={:.1}%", 100.0 * s.median / traced_wall);
                    }
                    println!("{line}");
                }
                _ => println!(
                    "  {:<36} {:>14} {:<8} {}",
                    d.name,
                    "n/a",
                    d.unit,
                    d.better.as_str()
                ),
            }
        }
    }
}

/// The traced-driver phase rows, which the report also shows as a share
/// of the traced wall time.
pub const PHASES: [&str; 9] = [
    "begin_run",
    "select",
    "broadcast",
    "configure",
    "train",
    "route",
    "aggregate",
    "post_cycle",
    "evaluate",
];

fn is_phase(name: &str) -> bool {
    name.strip_prefix("fl.")
        .and_then(|n| n.strip_suffix("_s"))
        .is_some_and(|phase| phase == "unattributed" || PHASES.contains(&phase))
}

fn format_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.001 {
        format!("{v:.3e}")
    } else if v.abs() >= 1e6 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::find;

    fn declared(list: &Value) -> Vec<(String, String, String)> {
        let Value::Seq(items) = list else {
            panic!("metric list is not an array")
        };
        items
            .iter()
            .map(|m| {
                let Value::Map(m) = m else {
                    panic!("metric is not an object")
                };
                let s = |k: &str| match find(m, k) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{k}: {other:?}"),
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let Value::Map(root) = serde_json::from_str::<Value>(&text).expect("valid JSON") else {
            panic!("BENCHMARK.json is not an object")
        };
        let mut e2e = declared(find(&root, "end_to_end").expect("end_to_end"));
        let mut layer = declared(find(&root, "per_layer").expect("per_layer"));
        let (mut ours_e2e, mut ours_layer) = (ours(END_TO_END), ours(PER_LAYER));
        for v in [&mut e2e, &mut layer, &mut ours_e2e, &mut ours_layer] {
            v.sort();
        }
        assert_eq!(e2e, ours_e2e);
        assert_eq!(layer, ours_layer);
        let Some(Value::Seq(workloads)) = find(&root, "workloads") else {
            panic!("workloads")
        };
        let names: Vec<String> = workloads
            .iter()
            .map(|w| match w {
                Value::Map(w) => match find(w, "name") {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("workload name: {other:?}"),
                },
                other => panic!("workload: {other:?}"),
            })
            .collect();
        assert_eq!(names, crate::workloads::names());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        for name in EXACT {
            assert!(
                PER_LAYER.iter().any(|d| d.name == *name),
                "{name} is not declared"
            );
        }
    }

    #[test]
    fn finish_reports_unset_unknown_and_duplicate_names() {
        let mut m = Metrics::new(END_TO_END);
        m.single("setup_s", 1.0);
        m.single("setup_s", 2.0);
        m.single("not_a_metric", 1.0);
        m.na("peak_rss_mb");
        let problems = m.finish();
        assert_eq!(problems.len(), 4, "{problems:?}");
        assert_eq!(m.get("setup_s").map(|s| s.median), Some(1.0));
        assert_eq!(m.get("peak_rss_mb"), None);
    }
}
