//! Simulator perf harness: events/sec on the paper testbeds, tracked as a
//! machine-readable trajectory.
//!
//! Every figure and table in the reproduction re-runs the 25 s testbed
//! through `Engine::run_until`, so raw simulator speed bounds how much
//! scenario space the harness can afford to explore. This module times those
//! runs, computes events/sec from [`rss_core::RunReport::events_processed`], and
//! writes `BENCH_simulator.json` at the workspace root so the perf
//! trajectory is captured for every PR (CI runs it in `--quick` mode and
//! uploads the file as an artifact).
//!
//! ```text
//! cargo run --release -p rss-bench --bin perf            # 5 iterations
//! cargo run --release -p rss-bench --bin perf -- --quick # 2 iterations
//! ```

use rss_core::plot::ascii_table;
use rss_core::{run, AppModel, CcAlgorithm, FlowSpec, Scenario, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

/// Trajectory-file schema version (bump on incompatible shape changes).
pub const TRAJECTORY_SCHEMA: u32 = 1;

/// One timed workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfRow {
    /// Workload name (matches the criterion target in the `simulator` group).
    pub name: String,
    /// Events the engine dispatched in one run (identical across
    /// iterations — the simulator is deterministic).
    pub events: u64,
    /// Best (minimum) wall time across iterations, milliseconds.
    pub wall_ms: f64,
    /// Events per second at the best wall time.
    pub events_per_sec: f64,
    /// Mean wall time across iterations, milliseconds.
    pub wall_ms_mean: f64,
}

/// A finished perf sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    /// Schema version of the trajectory file.
    pub schema: u32,
    /// Benchmark group the rows belong to.
    pub bench: String,
    /// Iterations per workload.
    pub iters: u32,
    /// Per-workload results.
    pub rows: Vec<PerfRow>,
}

/// Time `iters` runs of each `(name, scenario)` workload.
pub fn run_perf_scenarios(workloads: &[(&str, Scenario)], iters: u32) -> PerfReport {
    assert!(iters > 0);
    let mut rows = Vec::with_capacity(workloads.len());
    for (name, sc) in workloads {
        let mut best = f64::INFINITY;
        let mut total = 0.0;
        let mut events = 0;
        for _ in 0..iters {
            let t0 = Instant::now();
            let report = run(sc);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert!(
                events == 0 || events == report.events_processed,
                "non-deterministic event count for {name}"
            );
            events = report.events_processed;
            best = best.min(wall_ms);
            total += wall_ms;
        }
        rows.push(PerfRow {
            name: name.to_string(),
            events,
            wall_ms: best,
            events_per_sec: events as f64 / (best / 1e3),
            wall_ms_mean: total / iters as f64,
        });
    }
    PerfReport {
        schema: TRAJECTORY_SCHEMA,
        bench: "simulator".into(),
        iters,
        rows,
    }
}

/// The shard-scaling workload: 10k Reno flows on a 1 Gbit/s, 60 ms
/// dumbbell for 2 simulated seconds — the same geometry as
/// `scenarios/manyflow_dumbbell.json`. `shards = None` is the classic
/// serial world; `Some(k)` is the conservative-lookahead executor with `k`
/// domains.
pub fn manyflow(shards: Option<u32>) -> Scenario {
    let mut sc = Scenario::paper_testbed(CcAlgorithm::Reno)
        .with_rate(1_000_000_000)
        .with_rtt(SimDuration::from_millis(60))
        .with_duration(SimDuration::from_secs(2))
        .with_access_delay(SimDuration::from_millis(1));
    sc.path.router_queue_pkts = 1000;
    sc.flows = (0..10_000)
        .map(|_| FlowSpec {
            algo: CcAlgorithm::Reno,
            app: AppModel::Bulk { bytes: None },
            start: SimTime::ZERO,
        })
        .collect();
    sc.web100_stride = 1024;
    sc.sample_interval = SimDuration::from_millis(500);
    sc.shards = shards;
    sc
}

/// Time the paper testbeds plus the shard-scaling ladder (the `simulator`
/// bench group's workloads). `manyflow_serial` is the 10k-flow dumbbell as
/// one unit on one thread: it pins the many-flow hot path (packet arena,
/// lazy timer cancellation) against wall-time regressions the way the
/// paper rows pin the single-flow path. The `shard_scaling_*` rows run the
/// same dumbbell cut into per-pair units in 1/2/4/8 domains; their wall
/// times are recorded in the trajectory but exempt from the regression
/// gate (parallel speedup is a property of the host's core count — see
/// [`PerfReport::check_against`]).
pub fn run_perf(iters: u32) -> PerfReport {
    run_perf_scenarios(
        &[
            ("paper_run_standard_25s", Scenario::paper_testbed_standard()),
            (
                "paper_run_restricted_25s",
                Scenario::paper_testbed_restricted(),
            ),
            ("manyflow_serial", manyflow(None)),
            ("shard_scaling_1", manyflow(Some(1))),
            ("shard_scaling_2", manyflow(Some(2))),
            ("shard_scaling_4", manyflow(Some(4))),
            ("shard_scaling_8", manyflow(Some(8))),
        ],
        iters,
    )
}

impl PerfReport {
    /// Render as a table.
    pub fn print(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.events.to_string(),
                    format!("{:.1}", r.wall_ms),
                    format!("{:.1}", r.wall_ms_mean),
                    format!("{:.2}", r.events_per_sec / 1e6),
                ]
            })
            .collect();
        ascii_table(
            &["workload", "events", "best ms", "mean ms", "Mevents/s"],
            &rows,
        )
    }

    /// Serialize the trajectory as JSON.
    pub fn to_json(&self) -> String {
        let mut s = serde::to_json_string(self);
        s.push('\n');
        s
    }

    /// Parse a trajectory back from its [`Self::to_json`] rendering — the
    /// regression gate reads the committed baseline through this.
    pub fn from_json(text: &str) -> Result<Self, serde::de::Error> {
        serde::from_json_str(text)
    }

    /// Read a trajectory file.
    pub fn read_from(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Write the trajectory to `path` (creating parent directories — a
    /// fresh clone has no artifact tree yet).
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }

    /// Regression gate: compare this (fresh) trajectory against a committed
    /// baseline. Returns the list of violations — workloads whose best wall
    /// time regressed by more than `tolerance` (0.25 = 25 %) — or an error
    /// string when the reports are not comparable. New workloads (absent
    /// from the baseline) pass; vanished workloads fail.
    pub fn check_against(
        &self,
        baseline: &PerfReport,
        tolerance: f64,
    ) -> Result<Vec<String>, String> {
        if baseline.schema != self.schema {
            return Err(format!(
                "trajectory schema mismatch: baseline {} vs current {}",
                baseline.schema, self.schema
            ));
        }
        let mut violations = Vec::new();
        for base in &baseline.rows {
            let Some(cur) = self.rows.iter().find(|r| r.name == base.name) else {
                violations.push(format!(
                    "workload `{}` vanished from the perf sweep",
                    base.name
                ));
                continue;
            };
            if cur.events != base.events {
                // Event counts are deterministic; a change is a *behavior*
                // change, which the scenario goldens gate — only flag the
                // wall-time dimension here when events still match.
                continue;
            }
            if base.name.starts_with("shard_scaling") {
                // Shard-ladder wall times measure parallel speedup, which
                // is a property of the host's core count, not of the code:
                // CI runners, laptops, and single-core containers disagree
                // wildly. The rows still gate behavior through the event
                // count above; wall time is trajectory-only.
                continue;
            }
            let limit = base.wall_ms * (1.0 + tolerance);
            if cur.wall_ms > limit {
                violations.push(format!(
                    "workload `{}`: {:.1} ms vs baseline {:.1} ms (> {:.0}% regression)",
                    base.name,
                    cur.wall_ms,
                    base.wall_ms,
                    tolerance * 100.0
                ));
            }
        }
        Ok(violations)
    }

    /// Write the trajectory to its canonical home, `BENCH_simulator.json`
    /// at the workspace root. Returns the path.
    pub fn write_trajectory(&self) -> PathBuf {
        let path = crate::workspace_root().join("BENCH_simulator.json");
        self.write_to(&path).expect("write trajectory json");
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rss_core::SimDuration;

    fn tiny(seed: u64) -> Scenario {
        Scenario::paper_testbed_standard()
            .with_rate(10_000_000)
            .with_rtt(SimDuration::from_millis(10))
            .with_duration(SimDuration::from_millis(400))
            .with_seed(seed)
    }

    #[test]
    fn perf_rows_are_consistent() {
        let report = run_perf_scenarios(&[("tiny", tiny(1))], 2);
        assert_eq!(report.rows.len(), 1);
        let r = &report.rows[0];
        assert!(r.events > 0);
        assert!(r.wall_ms > 0.0 && r.wall_ms <= r.wall_ms_mean * 1.0001);
        let expect = r.events as f64 / (r.wall_ms / 1e3);
        assert!((r.events_per_sec - expect).abs() / expect < 1e-9);
        assert!(report.print().contains("Mevents/s"));
    }

    #[test]
    fn regression_gate_flags_slowdowns_and_vanished_workloads() {
        let base = PerfReport {
            schema: TRAJECTORY_SCHEMA,
            bench: "simulator".into(),
            iters: 2,
            rows: vec![
                PerfRow {
                    name: "a".into(),
                    events: 100,
                    wall_ms: 100.0,
                    events_per_sec: 1000.0,
                    wall_ms_mean: 110.0,
                },
                PerfRow {
                    name: "gone".into(),
                    events: 5,
                    wall_ms: 1.0,
                    events_per_sec: 5000.0,
                    wall_ms_mean: 1.0,
                },
            ],
        };
        let mut fresh = base.clone();
        fresh.rows.remove(1);
        // Within tolerance: ok.
        fresh.rows[0].wall_ms = 120.0;
        let v = fresh.check_against(&base, 0.25).unwrap();
        assert_eq!(v.len(), 1, "{v:?}"); // only the vanished workload
        assert!(v[0].contains("vanished"), "{v:?}");
        // Past tolerance: flagged.
        fresh.rows[0].wall_ms = 130.0;
        let v = fresh.check_against(&base, 0.25).unwrap();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains("workload `a`")), "{v:?}");
        // Different event count = behavior change, not a perf regression.
        fresh.rows[0].events = 99;
        let v = fresh.check_against(&base, 0.25).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        // Round-trip the baseline through JSON like the gate does.
        let back = PerfReport::from_json(&base.to_json()).unwrap();
        assert_eq!(back.to_json(), base.to_json());
    }

    #[test]
    fn gate_exempts_shard_scaling_wall_time_but_not_events() {
        let base = PerfReport {
            schema: TRAJECTORY_SCHEMA,
            bench: "simulator".into(),
            iters: 2,
            rows: vec![PerfRow {
                name: "shard_scaling_4".into(),
                events: 100,
                wall_ms: 100.0,
                events_per_sec: 1000.0,
                wall_ms_mean: 110.0,
            }],
        };
        let mut fresh = base.clone();
        // A 10x wall-time blowup on a shard row passes: speedup depends on
        // the host's core count, not the code.
        fresh.rows[0].wall_ms = 1000.0;
        assert!(fresh.check_against(&base, 0.25).unwrap().is_empty());
        // But the row must still exist...
        let empty = PerfReport {
            rows: vec![],
            ..base.clone()
        };
        let v = empty.check_against(&base, 0.25).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        // ...and an event-count change is a behavior change for the goldens,
        // never a wall-time violation here.
        fresh.rows[0].events = 99;
        assert!(fresh.check_against(&base, 0.25).unwrap().is_empty());
    }

    #[test]
    fn manyflow_workload_is_the_scenario_file_geometry() {
        let sc = manyflow(Some(4));
        assert_eq!(sc.flows.len(), 10_000);
        assert_eq!(sc.path.rate_bps, 1_000_000_000);
        assert_eq!(sc.path.router_queue_pkts, 1000);
        assert_eq!(sc.shards, Some(4));
        // The lookahead precondition the sharded executor asserts.
        assert!(sc.path.rtt > sc.path.access_delay * 4);
    }

    #[test]
    fn trajectory_json_round_trips_shape() {
        let report = run_perf_scenarios(&[("tiny", tiny(2))], 1);
        let json = report.to_json();
        assert!(json.contains("\"bench\":\"simulator\""), "{json}");
        assert!(json.contains("\"schema\":1"), "{json}");
        assert!(json.contains("\"name\":\"tiny\""), "{json}");
        let path = std::env::temp_dir().join("rss_bench_trajectory_test.json");
        report.write_to(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
        let _ = std::fs::remove_file(&path);
    }
}
