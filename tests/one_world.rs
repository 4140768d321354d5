//! One physics under both unit maps.
//!
//! `Scenario::shards = None` (one unit owns the topology) and
//! `shards = Some(1)` (one unit per host pair plus two hubs, in one domain)
//! run the same `World` code over different data: the per-pair map draws
//! bottleneck loss/RED decisions from per-port streams and orders
//! same-instant events of different pairs independently, so the two are
//! different *realizations* and cannot be compared byte for byte. What must
//! agree is the macroscopic behaviour, feature by feature: a feature wired
//! into only one map — or wired differently — shows up here as a goodput gap
//! or as a signal (mark, drop, RTO episode) present on one side only.

use restricted_slow_start::{
    run, AppModel, CcAlgorithm, CrossSpec, FlowSpec, GilbertElliott, ImpairmentConfig, Jitter,
    QueueDiscipline, RedParams, RunReport, Scenario, SimDuration, SimTime, TrafficPattern,
};

/// Eight long flows saturating a 20 Mbit/s, 10 ms bottleneck behind fast
/// access links: the router queue is the contention point, and aggregate
/// goodput sits at capacity whatever the realization.
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

/// The signals a feature leaves in a report; each must be present under
/// both unit maps or under neither.
fn signals(r: &RunReport) -> [(&'static str, u64); 5] {
    [
        ("router queue drops", r.router_queue_drops),
        ("ECN marks", r.router_ecn_marks),
        (
            "ECN echoes",
            r.flows.iter().map(|f| f.vars.ecn_echoes).sum(),
        ),
        ("RTO episodes", r.flows.iter().map(|f| f.rto_episodes).sum()),
        ("cross bytes delivered", r.cross_delivered_bytes),
    ]
}

/// Run `sc` under both unit maps and hold them to the same physics.
fn same_physics(cell: &str, sc: Scenario) -> (RunReport, RunReport) {
    let one_unit = run(&sc);
    let per_pair = run(&sc.with_shards(1));
    assert!(one_unit.engine.is_some() && per_pair.engine.is_none());
    let (a, b) = (one_unit.total_goodput_bps(), per_pair.total_goodput_bps());
    assert!(
        (a - b).abs() <= 0.03 * a.max(b),
        "{cell}: aggregate goodput {a:.0} (one unit) vs {b:.0} (per pair) differ by more than 3 %"
    );
    for ((what, x), (_, y)) in signals(&one_unit).into_iter().zip(signals(&per_pair)) {
        assert_eq!(
            x > 0,
            y > 0,
            "{cell}: {what} = {x} under one unit but {y} per pair"
        );
    }
    (one_unit, per_pair)
}

#[test]
fn drop_tail_with_random_loss() {
    let mut sc = base();
    sc.path.loss_prob = 0.001;
    let (a, _) = same_physics("drop-tail + loss", sc);
    assert!(a.router_queue_drops > 0, "the bottleneck never overflowed");
}

#[test]
fn red_bottleneck() {
    let sc = base().with_queue(QueueDiscipline::Red(RedParams::for_capacity(60)));
    let (a, b) = same_physics("RED", sc);
    for r in [&a, &b] {
        assert!(r.router_red_early_drops > 0 && r.router_ecn_marks == 0);
    }
}

#[test]
fn red_ecn_bottleneck() {
    let sc = base().with_queue(QueueDiscipline::RedEcn(RedParams::for_capacity(60)));
    let (a, _) = same_physics("RED+ECN", sc);
    assert!(
        a.router_ecn_marks > 0,
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
    let (a, b) = same_physics("impairments", sc);
    for r in [&a, &b] {
        let dups: u64 = r.flows.iter().map(|f| f.receiver_dup_segments).sum();
        assert!(dups > 0, "duplication never reached a receiver");
    }
}

#[test]
fn paced_variant() {
    let mut sc = base();
    for f in &mut sc.flows {
        f.algo = CcAlgorithm::Bbr;
    }
    same_physics("BBR (paced)", sc);
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
    let (a, b) = same_physics("cross traffic", sc);
    let (x, y) = (
        a.cross_delivered_bytes as f64,
        b.cross_delivered_bytes as f64,
    );
    assert!(
        (x - y).abs() <= 0.03 * x.max(y),
        "cross delivery {x} vs {y}"
    );
}

#[test]
fn stop_when_complete() {
    let mut sc = base();
    for f in &mut sc.flows {
        f.app = AppModel::Bulk {
            bytes: Some(1_000_000),
        };
    }
    sc.stop_when_complete = true;
    sc.duration = SimDuration::from_secs(60);
    let (a, b) = same_physics("stop_when_complete", sc);
    for r in [&a, &b] {
        assert!(r.flows.iter().all(|f| f.completed_at_s.is_some()));
        assert!(r.duration_s < 30.0, "did not stop early: {}", r.duration_s);
    }
    // The one-unit world stops at the completing ACK, the windowed driver at
    // the next window boundary (at most one lookahead later).
    assert!((a.duration_s - b.duration_s).abs() <= 0.03 * a.duration_s);
}

#[test]
fn shared_sender_host() {
    let mut sc = base();
    sc.shared_sender_host = true;
    // One 20 Mbit/s NIC feeds all flows: the IFQ, not the router, is the
    // contention point, and send-stalls are the signal.
    sc.path.access_rate_bps = None;
    sc.host.nic_rate_bps = 20_000_000;
    let (a, b) = same_physics("shared sender host", sc);
    let stalls = |r: &RunReport| r.flows.iter().map(|f| f.vars.send_stall).sum::<u64>();
    assert_eq!(stalls(&a) > 0, stalls(&b) > 0);
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
