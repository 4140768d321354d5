//! One realization, however the units are grouped.
//!
//! Every run is the same `World` over the same unit map — one unit per host
//! pair plus two hubs — with events fired in `(time, unit, per-unit seq)`
//! order. `Scenario::shards` only says how many domains the units are spread
//! over: `None` is one domain under one engine with no window loop, `Some(n)`
//! is `n` domains advanced in lookahead windows. So each cell below — one
//! feature of the model apiece — must produce the same bytes all four ways:
//! the results CSV, and the report JSON once the two executor diagnostics
//! (`engine`, `shard`) are blanked. A feature wired into one driver only, or
//! wired differently, shows up here as a diff.

use restricted_slow_start::{
    results_csv, run, CcAlgorithm, CrossSpec, ExpandedRun, FlowSpec, GilbertElliott,
    ImpairmentConfig, Jitter, QueueDiscipline, RedParams, RunReport, Scenario, ScenarioSpec,
    SimDuration, SimTime, TrafficPattern,
};

/// Eight long flows saturating a 20 Mbit/s, 10 ms bottleneck behind fast
/// access links: the router queue is the contention point.
fn base() -> Scenario {
    let mut sc = Scenario::paper_testbed(CcAlgorithm::Reno)
        .with_rate(20_000_000)
        .with_rtt(SimDuration::from_millis(10))
        .with_duration(SimDuration::from_secs(12))
        .with_access_delay(SimDuration::from_micros(500));
    sc.path.access_rate_bps = Some(200_000_000);
    sc.host.nic_rate_bps = 200_000_000;
    sc.path.router_queue_pkts = 60;
    sc.flows = (0..8)
        .map(|i| FlowSpec {
            start: SimTime::from_millis(20 * i),
            ..FlowSpec::bulk(CcAlgorithm::Reno)
        })
        .collect();
    sc.web100_stride = 16;
    sc
}

/// The results CSV of one run, and its report JSON with the executor
/// diagnostics blanked.
fn rendered(spec: &ScenarioSpec, sc: &Scenario, mut report: RunReport) -> (String, String) {
    let run = ExpandedRun {
        label: "cell".into(),
        cell: 0,
        scenario: sc.clone(),
    };
    let csv = results_csv(
        spec,
        std::slice::from_ref(&run),
        std::slice::from_ref(&report),
    );
    report.engine = None;
    report.shard = None;
    (csv, report.to_json())
}

/// Run `sc` without `shards` and in one, two and three domains; every
/// rendering must equal the first. Returns the run without `shards`.
fn same_bytes(cell: &str, sc: Scenario) -> RunReport {
    let spec = ScenarioSpec::from_json(r#"{"name":"one_world","runs":[{"label":"cell"}]}"#)
        .expect("a minimal spec parses");
    let plain = run(&sc);
    assert!(plain.engine.is_some() && plain.shard.is_none());
    let want = rendered(&spec, &sc, plain.clone());
    let mut walk = None;
    for n in 1..=3 {
        let sharded = run(&sc.clone().with_shards(n));
        assert!(sharded.engine.is_none());
        // The walk itself does not depend on the domain count either.
        let counts = sharded.shard.expect("windowed runs report their walk");
        assert_eq!(*walk.get_or_insert(counts), counts, "{cell}: {n} domains");
        let got = rendered(&spec, &sc, sharded);
        assert!(
            got.0 == want.0,
            "{cell}: results CSV differs in {n} domains"
        );
        assert!(
            got.1 == want.1,
            "{cell}: report JSON differs in {n} domains"
        );
    }
    plain
}

#[test]
fn drop_tail_with_random_loss() {
    let mut sc = base();
    sc.path.loss_prob = 0.001;
    let r = same_bytes("drop-tail + loss", sc);
    assert!(r.router_queue_drops > 0, "the bottleneck never overflowed");
}

#[test]
fn red_bottleneck() {
    let sc = base().with_queue(QueueDiscipline::Red(RedParams::for_capacity(60)));
    let r = same_bytes("RED", sc);
    assert!(r.router_red_early_drops > 0 && r.router_ecn_marks == 0);
}

#[test]
fn red_ecn_bottleneck() {
    let sc = base().with_queue(QueueDiscipline::RedEcn(RedParams::for_capacity(60)));
    let r = same_bytes("RED+ECN", sc);
    assert!(
        r.router_ecn_marks > 0,
        "a congested ECN bottleneck never marked"
    );
}

#[test]
fn haul_and_access_impairments_with_duplication() {
    let mut sc = base();
    sc.haul_impairment = Some(ImpairmentConfig {
        burst_loss: Some(GilbertElliott {
            p_good_to_bad: 0.002,
            p_bad_to_good: 0.4,
            loss_good: 0.0,
            loss_bad: 0.3,
        }),
        jitter: Some(Jitter {
            prob: 0.1,
            max: SimDuration::from_micros(300),
        }),
        duplicate_prob: 0.01,
        ..Default::default()
    });
    sc.access_impairment = Some(ImpairmentConfig {
        jitter: Some(Jitter {
            prob: 0.05,
            max: SimDuration::from_micros(100),
        }),
        duplicate_prob: 0.005,
        ..Default::default()
    });
    let r = same_bytes("impairments", sc);
    let dups: u64 = r.flows.iter().map(|f| f.receiver_dup_segments).sum();
    assert!(dups > 0, "duplication never reached a receiver");
}

#[test]
fn paced_variant() {
    let mut sc = base();
    for f in &mut sc.flows {
        f.algo = CcAlgorithm::Bbr;
    }
    same_bytes("BBR (paced)", sc);
}

#[test]
fn cross_traffic() {
    let mut sc = base();
    sc.cross = vec![CrossSpec {
        pattern: TrafficPattern::Cbr {
            rate_bps: 4_000_000,
            pkt_size: 1000,
        },
        start: SimTime::ZERO,
        stop: Some(SimTime::from_millis(8000)),
    }];
    let r = same_bytes("cross traffic", sc);
    assert!(r.cross_delivered_bytes > 0);
}

#[test]
fn stop_when_complete() {
    let mut sc = base();
    for f in &mut sc.flows {
        f.bytes = Some(1_000_000);
    }
    sc.stop_when_complete = true;
    sc.duration = SimDuration::from_secs(60);
    let r = same_bytes("stop_when_complete", sc);
    assert!(r.flows.iter().all(|f| f.completed_at_s.is_some()));
    assert!(r.duration_s < 30.0, "did not stop early: {}", r.duration_s);
    assert!(r.truncated.is_none());
    // Every driver ends the run at the end of the lookahead window (500 us
    // here) that holds the last completion, not at the completing ACK.
    let last = r
        .flows
        .iter()
        .filter_map(|f| f.completed_at_s)
        .fold(0.0, f64::max);
    let windows = r.duration_s / 500e-6;
    assert!(r.duration_s > last && r.duration_s - last <= 500e-6);
    assert!((windows - windows.round()).abs() < 1e-6, "{}", r.duration_s);
}

#[test]
fn flows_with_nothing_to_send_complete_as_they_start() {
    // Three bytes striped over eight streams leave five streams 0 bytes.
    // They are complete at their start, so the run stops once the three
    // 1-byte streams are acked instead of running to its horizon.
    let spec = ScenarioSpec::from_json(
        r#"{"name":"empty_streams","runs":[{"label":"x","shared_sender_host":true,
            "stop_when_complete":true,"duration_s":2,"path":{"access_delay_us":500},
            "gridftp":{"total_bytes":3,"streams":8,"cc":"Standard"}}]}"#,
    )
    .expect("parses");
    let sc = spec.expand().expect("expands").remove(0).scenario;
    let r = same_bytes("streams with nothing to send", sc);
    let done: Vec<f64> = r.flows.iter().filter_map(|f| f.completed_at_s).collect();
    assert_eq!(done.len(), 8, "every stream completes");
    assert_eq!(done.iter().filter(|&&t| t == 0.0).count(), 5);
    assert!(r.duration_s < 0.1, "did not stop early: {}", r.duration_s);
    assert!(r.truncated.is_none());
}

#[test]
fn shared_sender_host() {
    let mut sc = base();
    sc.shared_sender_host = true;
    // One 20 Mbit/s NIC feeds all flows: the IFQ, not the router, is the
    // contention point, and send-stalls are the signal.
    sc.path.access_rate_bps = None;
    sc.host.nic_rate_bps = 20_000_000;
    let r = same_bytes("shared sender host", sc);
    assert!(r.total_stalls() > 0);
}

#[test]
fn max_sim_time_clamp() {
    // The watchdog cuts the run short of its horizon, mid-transfer and off
    // the 500 us lookahead grid: the same cut, and the same verdict, from
    // every driver.
    let mut sc = base();
    sc.max_sim_time = Some(SimDuration::from_micros(2_345_678));
    let r = same_bytes("max_sim_time", sc);
    assert_eq!(r.duration_s, 2.345678);
    let reason = r.truncated.as_deref().expect("truncation reported");
    assert!(reason.contains("max_sim_time"), "{reason}");
}

#[test]
fn horizon_off_the_lookahead_grid() {
    // 3.0001237 s is no multiple of the 500 us window: the last window is a
    // short one, and events at the horizon itself still fire.
    let mut sc = base();
    sc.duration = SimDuration::from_nanos(3_000_123_700);
    let r = same_bytes("off-grid horizon", sc);
    assert_eq!(r.duration_s, 3.0001237);
    assert!(r.truncated.is_none());
}

/// The paper's own regime under the windowed driver: one flow on the
/// 100 Mbit/s x 60 ms pipe leaves the links idle for most of every RTT, so
/// nearly every 10 us lookahead window is empty. Two domains must give the
/// one-domain report byte for byte, and the walk must skip the empty windows
/// rather than meet at two barriers in each (run again by name in CI, under
/// a timeout).
#[test]
fn paper_testbed_runs_in_two_domains() {
    let sc = Scenario::paper_testbed_restricted().with_duration(SimDuration::from_secs(5));
    let one = run(&sc.clone().with_shards(1));
    let two = run(&sc.with_shards(2));
    assert_eq!(one.to_json(), two.to_json());
    let walk = one.shard.expect("windowed runs report their walk");
    assert_eq!(walk.windows_run + walk.windows_skipped, 500_000);
    assert!(
        walk.windows_skipped > walk.windows_run,
        "most windows of a one-flow run are empty: {walk:?}"
    );
    assert!(walk.envelopes > 0);
}
