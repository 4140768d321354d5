//! Cross-variant fairness & convergence metrics — how flows *interact* on a
//! shared bottleneck, where every earlier layer measured each variant alone.
//!
//! The paper's central claim is that Restricted Slow-Start recovers
//! throughput *without* hurting competing traffic; the RED mean-field line
//! of work (arXiv:math/0603325) shows multi-flow convergence is where
//! congestion-control schemes actually differentiate. This module turns a
//! finished [`RunReport`] into that measurement:
//!
//! * a **windowed Jain-index series** over the per-flow goodput timeseries
//!   ([`crate::FlowReport::goodput_series_bps`]);
//! * the **convergence-to-ε time** — the earliest time from which the
//!   windowed index stays at or above `1 − ε`
//!   ([`rss_sim::convergence_time`]), which staggered-start scenarios use to
//!   ask "how long until the late flow gets its share?";
//! * **per-flow** shares/stalls and **per-variant** aggregates (label,
//!   flow count, goodput, stall count), so a restricted-vs-ssthreshless
//!   pair reads as two lines, not a soup of connections.
//!
//! Scenario files opt in with a top-level `fairness` block
//! ([`crate::spec::FairnessDef`]); `rss run` then prints these metrics and
//! writes the [`fairness_csv`] artifact, which rides the golden-gated CI
//! matrix exactly like the per-flow summary CSV.

use crate::report::RunReport;
use crate::spec::{fmt_f64, ExpandedRun, ScenarioSpec};
use rss_sim::{convergence_time, jain_fairness};
use std::fmt::Write as _;

/// One flow's slice of the fairness picture.
#[derive(Debug, Clone)]
pub struct FlowFairness {
    /// Connection index within the run.
    pub conn: u32,
    /// Congestion-control registry label ("standard", "highspeed", ...).
    pub algo: String,
    /// Mean goodput over the run, bits/s.
    pub goodput_bps: f64,
    /// This flow's fraction of the run's total goodput (0 when nothing
    /// moved).
    pub share: f64,
    /// Send-stalls this flow suffered.
    pub stalls: u64,
}

/// Aggregate over every flow running one congestion-control variant.
#[derive(Debug, Clone)]
pub struct VariantFairness {
    /// Congestion-control registry label.
    pub algo: String,
    /// Number of flows running the variant.
    pub flows: usize,
    /// Combined mean goodput, bits/s.
    pub goodput_bps: f64,
    /// Combined send-stall count.
    pub stalls: u64,
}

/// Fairness & convergence metrics for one finished run.
#[derive(Debug, Clone)]
pub struct FairnessReport {
    /// Goodput-averaging window, seconds.
    pub window_s: f64,
    /// Convergence tolerance: converged once the windowed index stays at or
    /// above `1 − eps`.
    pub eps: f64,
    /// Jain's index over the whole-run per-flow mean goodputs.
    pub jain: f64,
    /// Windowed Jain index `(window_end_s, index)` over the per-flow
    /// goodput timeseries.
    pub jain_series: Vec<(f64, f64)>,
    /// Earliest time from which the windowed index stays `≥ 1 − eps`
    /// across every *active* window (windows where no flow moved data are
    /// not evidence — an idle tail cannot converge a run).
    pub convergence_s: Option<f64>,
    /// Per-flow breakdown, in connection order.
    pub flows: Vec<FlowFairness>,
    /// Per-variant aggregates, in first-appearance order.
    pub variants: Vec<VariantFairness>,
}

impl FairnessReport {
    /// Compute the fairness metrics of a finished run: goodput averaged
    /// over `window_s`-second windows, convergence against tolerance `eps`.
    pub fn from_run(report: &RunReport, window_s: f64, eps: f64) -> FairnessReport {
        assert!(window_s > 0.0, "window must be positive");
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
        let end_s = report.duration_s;

        // Per-flow goodput timeseries, flattened into one preallocated
        // flows × windows table (one row per flow) instead of a Vec-of-Vecs
        // of pairs that is then transposed — manyflow scenarios run this
        // over thousands of flows, and the flat table is the only buffer.
        let mut window_ends: Vec<f64> = Vec::new();
        let mut t = window_s;
        while t <= end_s + 1e-9 {
            window_ends.push(t);
            t += window_s;
        }
        let n_flows = report.flows.len();
        let n_windows = if n_flows == 0 { 0 } else { window_ends.len() };
        let mut table: Vec<f64> = Vec::with_capacity(n_flows * n_windows);
        for f in &report.flows {
            f.goodput_series_fill(window_s, end_s, &mut table);
        }
        debug_assert_eq!(table.len(), n_flows * n_windows);
        let mut jain_series = Vec::with_capacity(n_windows);
        // Windows where no flow moved any data score Jain = 1.0 (the
        // degenerate all-zero case) but say nothing about fairness — a run
        // whose bounded transfers all finish early must not read as
        // "converged" over its idle tail. They stay in the series (the
        // timeline is complete) but are excluded as convergence evidence.
        let mut active_jain = Vec::with_capacity(n_windows);
        let mut allocs: Vec<f64> = Vec::with_capacity(n_flows);
        for w in 0..n_windows {
            allocs.clear();
            allocs.extend((0..n_flows).map(|f| table[f * n_windows + w]));
            let j = jain_fairness(&allocs);
            jain_series.push((window_ends[w], j));
            if allocs.iter().any(|&x| x > 0.0) {
                active_jain.push((window_ends[w], j));
            }
        }

        let total: f64 = report.flows.iter().map(|f| f.goodput_bps).sum();
        let flows: Vec<FlowFairness> = report
            .flows
            .iter()
            .map(|f| FlowFairness {
                conn: f.conn,
                algo: f.algo.clone(),
                goodput_bps: f.goodput_bps,
                share: if total > 0.0 {
                    f.goodput_bps / total
                } else {
                    0.0
                },
                stalls: f.vars.send_stall,
            })
            .collect();

        let mut variants: Vec<VariantFairness> = Vec::new();
        for f in &flows {
            match variants.iter_mut().find(|v| v.algo == f.algo) {
                Some(v) => {
                    v.flows += 1;
                    v.goodput_bps += f.goodput_bps;
                    v.stalls += f.stalls;
                }
                None => variants.push(VariantFairness {
                    algo: f.algo.clone(),
                    flows: 1,
                    goodput_bps: f.goodput_bps,
                    stalls: f.stalls,
                }),
            }
        }

        FairnessReport {
            window_s,
            eps,
            jain: report.fairness(),
            convergence_s: convergence_time(&active_jain, 1.0 - eps),
            jain_series,
            flows,
            variants,
        }
    }
}

/// Compute one [`FairnessReport`] per expanded run, using the spec's
/// `fairness` block parameters — the single analysis pass the `rss` CLI's
/// printed table and [`fairness_csv`] both consume.
///
/// # Panics
///
/// Panics when the spec has no `fairness` block (the caller gates on it).
pub fn fairness_reports(spec: &ScenarioSpec, reports: &[RunReport]) -> Vec<FairnessReport> {
    let def = spec
        .fairness
        .as_ref()
        .expect("fairness_reports needs a fairness block");
    reports
        .iter()
        .map(|r| FairnessReport::from_run(r, def.window_s(), def.eps()))
        .collect()
}

/// Render the fairness CSV for an expanded + executed scenario: one row per
/// (run, flow), with the run-level index and convergence time repeated on
/// each row. Takes the [`fairness_reports`] output so the CLI's table and
/// the artifact share one computation. Byte-deterministic given
/// bit-identical reports — the golden-gated CI matrix diffs it like the
/// per-flow summary CSV.
pub fn fairness_csv(spec: &ScenarioSpec, runs: &[ExpandedRun], frs: &[FairnessReport]) -> String {
    assert_eq!(
        runs.len(),
        frs.len(),
        "one fairness report per expanded run"
    );
    let mut out = String::from(
        "scenario,run,cell,window_s,eps,flow,variant,start_s,goodput_bps,share,\
         stalls,jain,convergence_s\n",
    );
    // Rows go straight into `out`; `write!` into a `String` cannot fail.
    for (er, fr) in runs.iter().zip(frs) {
        for f in &fr.flows {
            let _ = write!(out, "{},{},{},", spec.name, er.label, er.cell);
            fmt_f64(fr.window_s, &mut out);
            fmt_f64(fr.eps, &mut out);
            let _ = write!(out, "{},{},", f.conn, f.algo);
            fmt_f64(
                er.scenario.flows[f.conn as usize].start.as_secs_f64(),
                &mut out,
            );
            fmt_f64(f.goodput_bps, &mut out);
            fmt_f64(f.share, &mut out);
            let _ = write!(out, "{},", f.stalls);
            fmt_f64(fr.jain, &mut out);
            if let Some(t) = fr.convergence_s {
                serde::write_f64(t, &mut out);
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FlowReport;
    use rss_host::NicStats;
    use rss_sim::SimTime;
    use rss_web100::{Series, Web100Vars};

    /// A flow whose cumulative acked bytes ramp linearly from `from_s` at
    /// `rate_bps` (whole bytes every quarter second at the rates below).
    fn ramp_flow(conn: u32, algo: &str, from_s: f64, rate_bps: f64, end_s: f64) -> FlowReport {
        let mut acked = Series::new();
        acked.push(SimTime::ZERO, 0);
        acked.push(SimTime::from_secs_f64(from_s), 0);
        let mut t = from_s;
        while t < end_s {
            t += 0.25;
            let bytes = (t - from_s) * rate_bps / 8.0;
            assert_eq!(bytes.fract(), 0.0, "{bytes}");
            acked.push(SimTime::from_secs_f64(t), bytes as u64);
        }
        FlowReport {
            conn,
            algo: algo.into(),
            vars: Web100Vars {
                send_stall: conn as u64, // distinguishable per flow
                ..Default::default()
            },
            goodput_bps: rate_bps * (end_s - from_s) / end_s,
            utilization: 0.5,
            completed_at_s: None,
            stall_times_s: vec![],
            congestion_times_s: vec![],
            cwnd_series: Series::new(),
            acked_series: acked,
            receiver_delivered_bytes: 0,
            receiver_dup_segments: 0,
            receiver_ooo_segments: 0,
            rto_episodes: 0,
            rto_max_backoff: 0,
            rto_max_recovery_s: None,
        }
    }

    fn report(flows: Vec<FlowReport>, end_s: f64) -> RunReport {
        RunReport {
            duration_s: end_s,
            seed: 1,
            path_rate_bps: 100_000_000,
            flows,
            sender_ifq_series: vec![],
            sender_nic: NicStats::default(),
            sender_nic_utilization: 0.9,
            router_queue_drops: 0,
            router_red_early_drops: 0,
            router_red_forced_drops: 0,
            router_ecn_marks: 0,
            bottleneck_queue_series: vec![],
            cross_offered_bytes: 0,
            cross_delivered_bytes: 0,
            events_processed: 0,
            engine: None,
            shard: None,
            truncated: None,
        }
    }

    #[test]
    fn staggered_start_converges_when_the_late_flow_catches_up() {
        // Flow 1 starts at t=4 and then matches flow 0's rate exactly: the
        // windowed index is 0.5 while flow 1 is absent, 1.0 once it runs.
        let r = report(
            vec![
                ramp_flow(0, "standard", 0.0, 50e6, 10.0),
                ramp_flow(1, "scalable", 4.0, 50e6, 10.0),
            ],
            10.0,
        );
        let fr = FairnessReport::from_run(&r, 1.0, 0.05);
        assert_eq!(fr.jain_series.len(), 10);
        assert!(fr.jain_series[1].1 < 0.6, "early windows are one-sided");
        assert!(fr.jain_series[9].1 > 0.99, "late windows are fair");
        let conv = fr.convergence_s.expect("converges");
        assert!(
            (4.0..=6.0).contains(&conv),
            "convergence {conv} should track the staggered start"
        );
        // Per-variant aggregation keeps the two labels apart.
        assert_eq!(fr.variants.len(), 2);
        assert_eq!(fr.variants[0].algo, "standard");
        assert_eq!(fr.variants[1].algo, "scalable");
        assert_eq!(fr.variants[1].stalls, 1);
    }

    #[test]
    fn equal_flows_are_fair_from_the_first_window() {
        let r = report(
            vec![
                ramp_flow(0, "standard", 0.0, 40e6, 8.0),
                ramp_flow(1, "standard", 0.0, 40e6, 8.0),
            ],
            8.0,
        );
        let fr = FairnessReport::from_run(&r, 1.0, 0.05);
        assert!((fr.jain - 1.0).abs() < 1e-9);
        assert_eq!(fr.convergence_s, Some(1.0));
        assert_eq!(fr.variants.len(), 1);
        assert_eq!(fr.variants[0].flows, 2);
        assert!((fr.flows[0].share - 0.5).abs() < 1e-9);
    }

    #[test]
    fn idle_tail_is_not_convergence_evidence() {
        // Both flows finish an unfair 4:1 split by t=4 of a 10 s run: the
        // trailing all-zero windows score Jain = 1.0 (degenerate case) but
        // must not make the run read as converged.
        let r = report(
            vec![
                ramp_flow(0, "scalable", 0.0, 80e6, 4.0),
                ramp_flow(1, "standard", 0.0, 20e6, 4.0),
            ],
            10.0,
        );
        let fr = FairnessReport::from_run(&r, 1.0, 0.05);
        assert!(
            fr.jain_series[9].1 > 0.99,
            "idle windows still render as degenerate-fair in the series"
        );
        assert_eq!(
            fr.convergence_s, None,
            "an unfair run with an idle tail must not converge"
        );
    }

    #[test]
    fn one_hog_never_converges() {
        let r = report(
            vec![
                ramp_flow(0, "scalable", 0.0, 90e6, 8.0),
                ramp_flow(1, "standard", 0.0, 0.0, 8.0),
            ],
            8.0,
        );
        let fr = FairnessReport::from_run(&r, 1.0, 0.05);
        assert_eq!(fr.convergence_s, None);
        // Two flows, one hog: the run-level index sits at 1/2.
        assert!((fr.jain - 0.5).abs() < 1e-9, "jain {}", fr.jain);
    }
}
