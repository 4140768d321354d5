//! End-to-end checks of the cross-variant fairness subsystem: the shipped
//! fairness scenarios expand, run, and report the metrics the acceptance
//! story names — a Jain index for the restricted-vs-ssthreshless pair,
//! convergence times for staggered starts, and per-variant aggregates —
//! with the byte-level gating left to the golden-gated CI matrix.

use restricted_slow_start::{
    cc_registry, fairness_csv, fairness_reports, run, FairnessReport, ScenarioSpec, SimTime,
};
use std::path::Path;

fn load(name: &str) -> ScenarioSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name);
    ScenarioSpec::load(&path).expect("scenario file loads")
}

#[test]
fn shared_bottleneck_reports_jain_for_the_restricted_vs_ssthreshless_pair() {
    let spec = load("fairness_shared_bottleneck.json");
    let def = spec.fairness.as_ref().expect("fairness block present");
    let runs = spec.expand().unwrap();
    let er = runs
        .iter()
        .find(|r| r.label == "restricted_vs_ssthreshless")
        .expect("the acceptance pair is in the file");
    let report = run(&er.scenario);
    let fr = FairnessReport::from_run(&report, def.window_s(), def.eps());
    assert!(
        fr.jain > 0.0 && fr.jain <= 1.0,
        "Jain index out of range: {}",
        fr.jain
    );
    let labels: Vec<&str> = fr.variants.iter().map(|v| v.algo.as_str()).collect();
    assert_eq!(labels, ["restricted", "ssthreshless"]);
    // Both variants move real traffic through the shared bottleneck.
    for v in &fr.variants {
        assert!(
            v.goodput_bps > 5e6,
            "{} starved at {} bit/s",
            v.algo,
            v.goodput_bps
        );
    }
    // The windowed series covers the whole run (30 s at a 1 s window).
    assert_eq!(fr.jain_series.len(), 30);
}

#[test]
fn staggered_scenario_defers_convergence_until_the_late_flow_joins() {
    let spec = load("fairness_staggered.json");
    let def = spec.fairness.as_ref().expect("fairness block present");
    let runs = spec.expand().unwrap();
    let er = runs
        .iter()
        .find(|r| r.label == "late_standard")
        .expect("symmetric staggered run present");
    assert_eq!(er.scenario.flows[1].start, SimTime::from_secs(8));
    let report = run(&er.scenario);
    let fr = FairnessReport::from_run(&report, def.window_s(), def.eps());
    let conv = fr
        .convergence_s
        .expect("a symmetric AIMD pair must converge");
    assert!(
        conv >= 8.0,
        "cannot converge before the second flow starts, got {conv}"
    );
    // Before the late flow joins, one flow holds everything: index ≈ 1/2.
    assert!(
        fr.jain_series[3].1 < 0.6,
        "early windows should be one-sided: {:?}",
        &fr.jain_series[..4]
    );
    // Flow 0 is an unlimited bulk flow: its window, not the sender, holds
    // it back for most of its life.
    let v = &report.flows[0].vars;
    let life = er.scenario.duration.as_nanos() - er.scenario.flows[0].start.as_nanos();
    assert!(
        2 * v.snd_lim_time_cwnd_ns > life,
        "flow 0 is cwnd-limited under half its life: {v:?}"
    );
}

#[test]
fn every_staggered_flows_limit_times_span_its_own_lifetime() {
    // Web100's `SndLimTime*` partition the time a flow existed: a flow that
    // joins at 8 s reports no "sender-limited" time before its first byte.
    let spec = load("fairness_staggered.json");
    for er in spec.expand().unwrap() {
        let sc = &er.scenario;
        let report = run(sc);
        assert_eq!(report.duration_s, sc.duration.as_secs_f64(), "{}", er.label);
        for (f, flow) in report.flows.iter().zip(&sc.flows) {
            let v = &f.vars;
            let sum = v.snd_lim_time_rwin_ns + v.snd_lim_time_cwnd_ns + v.snd_lim_time_sender_ns;
            assert_eq!(
                sum,
                sc.duration.as_nanos() - flow.start.as_nanos(),
                "{} flow {}: {v:?}",
                er.label,
                f.conn
            );
        }
    }
}

#[test]
fn fairness_csv_is_deterministic_and_carries_the_metrics() {
    let spec = load("fairness_shared_bottleneck.json");
    let runs: Vec<_> = spec
        .expand()
        .unwrap()
        .into_iter()
        .filter(|r| r.label == "highspeed_vs_scalable")
        .collect();
    let reports: Vec<_> = runs.iter().map(|r| run(&r.scenario)).collect();
    let frs = fairness_reports(&spec, &reports);
    let a = fairness_csv(&spec, &runs, &frs);
    let b = fairness_csv(&spec, &runs, &frs);
    assert_eq!(a, b, "fairness CSV must be byte-deterministic");
    assert!(a.starts_with("scenario,run,cell,window_s,eps,flow,variant,"));
    assert!(a.contains(",highspeed,"), "{a}");
    assert!(a.contains(",scalable,"), "{a}");
}

#[test]
fn both_new_variants_are_in_the_registry_menu() {
    for name in ["highspeed", "scalable"] {
        let v = cc_registry::find(name)
            .unwrap_or_else(|| panic!("`{name}` missing from `rss list --variants`"));
        assert!(!v.summary.is_empty());
        assert!(!v.showcase.is_empty());
    }
    // And the generated gallery mentions the fairness scenarios.
    let md = cc_registry::markdown_gallery();
    assert!(md.contains("fairness_shared_bottleneck.json"), "{md}");
}
