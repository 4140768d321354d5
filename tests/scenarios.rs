//! Spec ↔ code parity: every checked-in scenario file must expand to exactly
//! the hand-coded testbed it re-expresses.
//!
//! Equality is checked on the `Scenario` structs themselves (via their
//! `Debug` rendering — the same identity key `run_many` uses).
//! Runs are pure deterministic functions of the scenario, so struct equality
//! implies bit-identical reports, event counts and CSVs; for the headline
//! pair the reports are additionally compared end-to-end. The CI `scenario-matrix`
//! job closes the loop by diffing the CSVs `rss run` emits against the
//! goldens under `scenarios/golden/`.

use restricted_slow_start::{
    run, stripe_bytes, AppModel, CcAlgorithm, FlowSpec, RssConfig, Scenario, ScenarioSpec,
    SimDuration, SimTime, StallResponse,
};
use std::path::{Path, PathBuf};

fn load(name: &str) -> ScenarioSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name);
    ScenarioSpec::load(&path).expect("scenario file loads")
}

fn dbg(sc: &Scenario) -> String {
    format!("{sc:?}")
}

#[test]
fn every_checked_in_scenario_parses_and_validates() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("scenarios dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(files.len() >= 8, "expected the eight shipped scenarios");
    for f in files {
        let spec = ScenarioSpec::load(&f).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
        spec.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", f.display()));
    }
}

#[test]
fn quickstart_spec_matches_the_paper_testbed_constructors() {
    let runs = load("quickstart.json").expand().unwrap();
    assert_eq!(runs.len(), 2);
    assert_eq!(runs[0].label, "standard");
    assert_eq!(runs[1].label, "restricted");
    assert_eq!(
        dbg(&runs[0].scenario),
        dbg(&Scenario::paper_testbed_standard())
    );
    assert_eq!(
        dbg(&runs[1].scenario),
        dbg(&Scenario::paper_testbed_restricted())
    );
}

#[test]
fn headline_spec_matches_the_paper_testbed_constructors() {
    let runs = load("headline.json").expand().unwrap();
    assert_eq!(runs.len(), 2);
    assert_eq!(
        dbg(&runs[0].scenario),
        dbg(&Scenario::paper_testbed_standard())
    );
    assert_eq!(
        dbg(&runs[1].scenario),
        dbg(&Scenario::paper_testbed_restricted())
    );
}

#[test]
fn figure1_spec_matches_the_e1_variant_set() {
    let runs = load("figure1.json").expand().unwrap();
    assert_eq!(runs.len(), 3);
    let mut tahoe = Scenario::paper_testbed_standard();
    tahoe.tcp.stall_response = StallResponse::RestartFromOne;
    assert_eq!(
        dbg(&runs[0].scenario),
        dbg(&Scenario::paper_testbed_standard())
    );
    assert_eq!(
        dbg(&runs[1].scenario),
        dbg(&Scenario::paper_testbed_restricted())
    );
    assert_eq!(dbg(&runs[2].scenario), dbg(&tahoe));
}

#[test]
fn wan_sweep_spec_matches_the_hand_built_grid() {
    let runs = load("wan_sweep.json").expand().unwrap();
    // The grid examples/wan_sweep.rs used to build in code.
    let rtts_ms = [10u64, 30, 60, 120];
    let rates_mbps = [10u64, 100, 1000];
    let mut expected = Vec::new();
    for &rate in &rates_mbps {
        for &rtt in &rtts_ms {
            let bps = rate * 1_000_000;
            expected.push(
                Scenario::paper_testbed_standard()
                    .with_rate(bps)
                    .with_rtt(SimDuration::from_millis(rtt))
                    .with_auto_rwnd(),
            );
            expected.push(
                Scenario::paper_testbed(CcAlgorithm::Restricted(RssConfig::tuned_for(bps, 1500)))
                    .with_rate(bps)
                    .with_rtt(SimDuration::from_millis(rtt))
                    .with_auto_rwnd(),
            );
        }
    }
    assert_eq!(runs.len(), expected.len());
    for (i, (got, want)) in runs.iter().zip(&expected).enumerate() {
        assert_eq!(dbg(&got.scenario), dbg(want), "grid cell {i} diverged");
    }
}

#[test]
fn gridftp_spec_matches_the_hand_built_striping() {
    let runs = load("gridftp_parallel.json").expand().unwrap();
    let total: u64 = 100 * 1024 * 1024;
    let mut expected = Vec::new();
    for streams in [1u32, 2, 4, 8] {
        for algo in [
            CcAlgorithm::Reno,
            CcAlgorithm::Restricted(RssConfig::tuned_for(100_000_000 / streams as u64, 1500)),
        ] {
            let mut sc = Scenario::paper_testbed(algo);
            sc.flows = stripe_bytes(total, streams)
                .into_iter()
                .map(|bytes| FlowSpec {
                    algo,
                    app: AppModel::Bulk { bytes: Some(bytes) },
                    start: SimTime::ZERO,
                })
                .collect();
            sc.shared_sender_host = true;
            sc.stop_when_complete = true;
            sc.duration = SimDuration::from_secs(60);
            sc.web100_stride = 16;
            expected.push(sc);
        }
    }
    assert_eq!(runs.len(), expected.len());
    for (i, (got, want)) in runs.iter().zip(&expected).enumerate() {
        assert_eq!(dbg(&got.scenario), dbg(want), "cell {i} diverged");
    }
}

/// The 10k-flow shard-executor scenario: expansion resolves `"auto"` to a
/// concrete positive shard count, the `count` field replicates the flow
/// template, and the geometry satisfies the executor's lookahead
/// precondition (`rtt > 4 × access_delay`, so the cross-domain window is
/// positive).
#[test]
fn manyflow_spec_expands_to_10k_sharded_flows() {
    let runs = load("manyflow_dumbbell.json").expand().unwrap();
    assert_eq!(runs.len(), 1);
    let sc = &runs[0].scenario;
    assert_eq!(sc.flows.len(), 10_000);
    assert!(sc.shards.is_some_and(|n| n >= 1), "auto must resolve");
    assert_eq!(sc.path.access_delay, SimDuration::from_millis(1));
    assert!(sc.path.rtt > sc.path.access_delay * 4);
}

/// The SSthreshless LFN scenario's claim, asserted end-to-end: with the
/// classic mis-set 64 KiB initial ssthresh on a 200 Mbit/s × 120 ms path,
/// the ssthresh-free probe finishes the bounded transfer several times
/// sooner than both Standard (which slow-starts only to 64 KiB) and
/// Restricted (whose PID also only paces the sub-ssthresh phase) — and does
/// it without a single send-stall.
#[test]
fn ssthreshless_beats_standard_and_restricted_on_the_lfn_path() {
    let runs = load("ssthreshless_lfn.json").expand().unwrap();
    assert_eq!(runs.len(), 3);
    let reports: Vec<_> = runs.iter().map(|r| run(&r.scenario)).collect();
    let completed: Vec<f64> = reports
        .iter()
        .map(|r| r.flows[0].completed_at_s.expect("transfer completes"))
        .collect();
    let (std_t, rss_t, ssl_t) = (completed[0], completed[1], completed[2]);
    assert!(
        ssl_t * 3.0 < std_t,
        "ssthreshless {ssl_t} s should finish at least 3x sooner than standard {std_t} s"
    );
    assert!(
        ssl_t * 3.0 < rss_t,
        "ssthreshless {ssl_t} s should finish at least 3x sooner than restricted {rss_t} s"
    );
    assert_eq!(
        reports[2].flows[0].vars.send_stall, 0,
        "the delay probe must not overflow the IFQ"
    );
}

/// End-to-end: running the spec-loaded headline pair reproduces the
/// hand-coded runs bit-exactly — identical event counts and identical
/// serialized reports.
#[test]
fn spec_runs_reproduce_hand_coded_runs_bit_exactly() {
    let runs = load("quickstart.json").expand().unwrap();
    let from_spec_std = run(&runs[0].scenario);
    let from_spec_rss = run(&runs[1].scenario);
    let hand_std = run(&Scenario::paper_testbed_standard());
    let hand_rss = run(&Scenario::paper_testbed_restricted());
    assert_eq!(from_spec_std.events_processed, hand_std.events_processed);
    assert_eq!(from_spec_rss.events_processed, hand_rss.events_processed);
    assert_eq!(from_spec_std.to_json(), hand_std.to_json());
    assert_eq!(from_spec_rss.to_json(), hand_rss.to_json());
}
