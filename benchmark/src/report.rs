//! Metric names, the result line, and the files under `benchmark/out/`.
//!
//! The metric tables here are the single source of names: the measurement
//! code fills them, `BENCHMARK.json` lists them, and a unit test holds the
//! two together.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// End-to-end metrics, `(name, unit)`. Reported by an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("events_per_s", "events/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("goodput_mbps", "Mbit/s"),
];

/// The nine `rss_cc` registry names, in registry order; one
/// `tcp.ack_pump_ns.<name>` metric each.
pub const CC_VARIANTS: [&str; 9] = [
    "standard",
    "restricted",
    "limited",
    "ssthreshless",
    "highspeed",
    "scalable",
    "bbr",
    "relentless",
    "hybrid",
];

/// Per-layer metrics other than the per-variant ACK pumps, `(name, unit)`.
/// Reported by a traced run.
const PER_LAYER_FIXED: [(&str, &str); 54] = [
    ("sim.queue.hold_sparse_ns", "ns"),
    ("sim.queue.hold_dense_ns", "ns"),
    ("sim.queue.cancel_ns", "ns"),
    ("sim.engine.dispatch_ns", "ns"),
    ("sim.shard.window_1d_ns", "ns"),
    ("sim.shard.window_2d_ns", "ns"),
    ("sim.shard.envelope_ns", "ns"),
    ("sim.events", "count"),
    ("sim.queue.scheduled", "count"),
    ("sim.queue.cancelled", "count"),
    ("sim.queue.wheel_hit_pct", "%"),
    ("sim.queue.far_migrations", "count"),
    ("sim.shard.windows", "count"),
    ("net.fabric.hop_ns", "ns"),
    ("net.arena.insert_take_ns", "ns"),
    ("net.droptail.enq_deq_ns", "ns"),
    ("net.red.enq_deq_ns", "ns"),
    ("net.impair.decide_ns", "ns"),
    ("net.router_drops", "count"),
    ("net.red_early_drops", "count"),
    ("net.red_forced_drops", "count"),
    ("net.ecn_marks", "count"),
    ("net.bottleneck_queue_mean_pkts", "pkts"),
    ("host.nic.tx_cycle_ns", "ns"),
    ("host.send_stalls", "count"),
    ("host.nic_utilization_pct", "%"),
    ("tcp.recovery_ns", "ns"),
    ("tcp.receiver.segment_ns", "ns"),
    ("tcp.receiver.ooo_segment_ns", "ns"),
    ("tcp.segs_out", "count"),
    ("tcp.acks_in", "count"),
    ("tcp.dup_acks_in", "count"),
    ("tcp.retrans_segs", "count"),
    ("tcp.fast_retrans", "count"),
    ("tcp.timeouts", "count"),
    ("tcp.ecn_echoes", "count"),
    ("tcp.useful_seg_pct", "%"),
    ("cc.restricted_gain_pct", "%"),
    ("control.pid.update_ns", "ns"),
    ("core.spec.parse_s", "s"),
    ("core.spec.expand_s", "s"),
    ("core.run_s", "s"),
    ("core.report.results_csv_s", "s"),
    ("core.report.fairness_s", "s"),
    ("core.report.to_json_s", "s"),
    ("core.pipeline_self_s", "s"),
    ("core.world_build_s", "s"),
    ("attr.sim_pct", "%"),
    ("attr.shard_pct", "%"),
    ("attr.net_pct", "%"),
    ("attr.host_pct", "%"),
    ("attr.tcp_cc_pct", "%"),
    ("attr.glue_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// Name of the ACK-pump metric of one registry variant.
pub fn ack_pump_metric(variant: &str) -> String {
    format!("tcp.ack_pump_ns.{variant}")
}

/// Every per-layer metric, `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    all.extend(CC_VARIANTS.iter().map(|v| (ack_pump_metric(v), "ns")));
    all
}

/// The contract's name rule: starts with a letter or digit, then at most 63
/// more of letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `BENCHMARK.json`, the declaration the driver reads: exactly these keys.
/// The A/A mode takes its bounds from it; the unit tests hold the rest of it
/// to the tables above.
#[allow(dead_code)]
#[derive(Debug, Deserialize)]
pub struct Declaration {
    /// The benchmark's command.
    pub command: Vec<String>,
    /// Directories that hold the benchmark and nothing else.
    pub paths: Vec<String>,
    /// `--seconds` of every driver run.
    pub run_seconds: u32,
    /// The workloads and why each exists.
    pub workloads: Vec<WorkloadDecl>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<EndToEndDecl>,
    /// Per-layer metrics.
    pub per_layer: Vec<PerLayerDecl>,
}

/// One workload of the declaration.
#[allow(dead_code)]
#[derive(Debug, Deserialize)]
pub struct WorkloadDecl {
    /// Name.
    pub name: String,
    /// One-line reason.
    pub why: String,
}

/// One end-to-end metric of the declaration.
#[allow(dead_code)]
#[derive(Debug, Deserialize)]
pub struct EndToEndDecl {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric of the declaration.
#[allow(dead_code)]
#[derive(Debug, Deserialize)]
pub struct PerLayerDecl {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
}

impl Declaration {
    /// Read `BENCHMARK.json` from the root of the checkout this crate was
    /// built in.
    pub fn load() -> Result<Self, String> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde::from_json_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// One metric value as the result line carries it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    /// The number as measured, all digits.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The result line: the last line of standard output, one JSON object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultLine {
    /// Every output check passed.
    pub correct: bool,
    /// Runs attempted (set-up, warm-up and measured).
    pub attempted: u64,
    /// Runs that errored, panicked, were truncated or failed a check.
    pub failed: u64,
    /// The end-to-end metrics (untraced) or the per-layer metrics (traced).
    pub metrics: BTreeMap<String, MetricValue>,
}

impl ResultLine {
    /// Render as one line of JSON.
    pub fn to_json(&self) -> String {
        serde::to_json_string(self)
    }

    /// Parse a result line back (the suite reads its children's).
    pub fn from_json(line: &str) -> Result<Self, String> {
        serde::from_json_str(line).map_err(|e| e.to_string())
    }
}

/// A metric as measured: the value for the result line plus the words the
/// human-readable listing prints after it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count, tail percentile, or what a count was read from.
    pub note: String,
}

/// Fill the table `names` from `values`, in table order. Panics when a name
/// has no value or a value has no name: the tables and the measurement code
/// must agree exactly.
pub fn fill<N: AsRef<str>>(
    names: &[(N, &'static str)],
    mut values: BTreeMap<String, (f64, String)>,
) -> Vec<Metric> {
    let metrics = names
        .iter()
        .map(|(name, unit)| {
            let name = name.as_ref();
            let (value, note) = values
                .remove(name)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            Metric {
                name: name.to_string(),
                value,
                unit,
                note,
            }
        })
        .collect();
    assert!(
        values.is_empty(),
        "measured but not in the metric table: {:?}",
        values.keys().collect::<Vec<_>>()
    );
    metrics
}

/// Where the numbers were taken: recorded beside them in `latest.json`.
#[derive(Debug, Clone, Serialize)]
pub struct Environment {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
    /// Cores available to the process.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Environment {
    /// Probe the host.
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Environment {
            git_commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// `VmHWM` of this process, MB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `benchmark/out/`, created on demand. The crate is built in the checkout
/// it measures, so its manifest directory is the benchmark's directory.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WORKLOADS;

    fn declaration() -> Declaration {
        Declaration::load().expect("BENCHMARK.json with exactly the contract's keys")
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_names() {
        let decl = declaration();
        let declared: Vec<(&str, &str)> = decl
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(declared, END_TO_END.to_vec(), "end-to-end names and units");
        let declared: Vec<(String, &str)> = decl
            .per_layer
            .iter()
            .map(|m| (m.name.clone(), m.unit.as_str()))
            .collect();
        assert_eq!(declared, per_layer(), "per-layer names and units");
        let declared: Vec<(&str, &str)> = decl
            .workloads
            .iter()
            .map(|w| (w.name.as_str(), w.why.as_str()))
            .collect();
        let emitted: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(declared, emitted, "workload names and reasons");
    }

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let decl = declaration();
        assert_eq!(decl.paths, ["benchmark"]);
        assert_eq!(decl.command, ["bash", "benchmark/run.sh"]);
        assert!((1..=60).contains(&decl.run_seconds));
        assert!((2..=8).contains(&decl.workloads.len()));
        assert!((1..=16).contains(&decl.end_to_end.len()));
        assert!((1..=128).contains(&decl.per_layer.len()));
        let mut names: Vec<&str> = Vec::new();
        names.extend(decl.workloads.iter().map(|w| w.name.as_str()));
        names.extend(decl.end_to_end.iter().map(|m| m.name.as_str()));
        names.extend(decl.per_layer.iter().map(|m| m.name.as_str()));
        for (i, name) in names.iter().enumerate() {
            assert!(is_metric_name(name), "`{name}`");
            assert!(!names[..i].contains(name), "`{name}` is used twice");
        }
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in &decl.end_to_end {
            assert!(unit_ok(&m.unit), "{}: unit `{}`", m.name, m.unit);
            assert!(["lower", "higher"].contains(&m.better.as_str()));
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound", m.name);
        }
        for m in &decl.per_layer {
            assert!(unit_ok(&m.unit), "{}: unit `{}`", m.name, m.unit);
            assert!(["lower", "higher"].contains(&m.better.as_str()));
        }
        let setup = decl
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        assert!(decl.end_to_end.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn name_rule() {
        assert!(is_metric_name("tcp.ack_pump_ns.standard"));
        assert!(is_metric_name("9lives"));
        assert!(!is_metric_name(""));
        assert!(!is_metric_name(".hidden"));
        assert!(!is_metric_name("has space"));
        assert!(!is_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn variant_names_match_the_registry() {
        let registry: Vec<&str> = crate::api::cc_variants().iter().map(|(n, _)| *n).collect();
        assert_eq!(registry, CC_VARIANTS);
    }

    #[test]
    fn result_line_round_trips_on_one_line() {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "wall_s".to_string(),
            MetricValue {
                value: 0.412_345_678_9,
                unit: "s".into(),
            },
        );
        let line = ResultLine {
            correct: true,
            attempted: 123,
            failed: 0,
            metrics,
        };
        let json = line.to_json();
        assert!(!json.contains('\n'));
        assert!(json.contains("\"wall_s\":{\"value\":0.4123456789,\"unit\":\"s\"}"));
        assert_eq!(ResultLine::from_json(&json).unwrap(), line);
    }

    #[test]
    fn fill_orders_by_the_table_and_rejects_strays() {
        let names = [("b", "s"), ("a", "ns")];
        let mut values = BTreeMap::new();
        values.insert("a".to_string(), (1.0, String::new()));
        values.insert("b".to_string(), (2.0, String::new()));
        let filled = fill(&names, values.clone());
        assert_eq!(filled[0].name, "b");
        assert_eq!(filled[1].value, 1.0);
        values.insert("stray".to_string(), (3.0, String::new()));
        assert!(std::panic::catch_unwind(|| fill(&names, values)).is_err());
    }
}
