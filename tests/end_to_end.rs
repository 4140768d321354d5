//! Cross-crate integration tests: full host + network + TCP stack runs.
//!
//! These exercise the exact code paths the paper's experiments use and pin
//! down the transport invariants the experiments rely on: byte-exact delivery,
//! loss recovery, determinism, and the paper's qualitative result.

use restricted_slow_start::{
    run, run_many, AppModel, CcAlgorithm, CrossSpec, FlowSpec, RssConfig, Scenario, SimDuration,
    SimTime, StallResponse, TrafficPattern,
};

/// A small, fast path for functional tests (not the paper scenario).
fn small(algo: CcAlgorithm) -> Scenario {
    let mut sc = Scenario::paper_testbed(algo)
        .with_rate(20_000_000)
        .with_rtt(SimDuration::from_millis(20))
        .with_duration(SimDuration::from_secs(4));
    sc.web100_stride = 4;
    sc
}

#[test]
fn bounded_transfer_delivers_every_byte_exactly_once() {
    for &bytes in &[1u64, 999, 1448, 1449, 100_000, 2_000_003] {
        let mut sc = small(CcAlgorithm::Reno);
        sc.flows[0].app = AppModel::Bulk { bytes: Some(bytes) };
        sc.stop_when_complete = true;
        sc.duration = SimDuration::from_secs(60);
        let r = run(&sc);
        let f = &r.flows[0];
        assert_eq!(
            f.receiver_delivered_bytes, bytes,
            "wrong byte count delivered for {bytes}-byte transfer"
        );
        assert_eq!(f.vars.thru_bytes_acked, bytes);
        assert!(f.completed_at_s.is_some(), "transfer {bytes} unfinished");
        // Loss-free path: nothing retransmitted, nothing duplicated.
        assert_eq!(f.vars.pkts_retrans, 0);
        assert_eq!(f.receiver_dup_segments, 0);
    }
}

#[test]
fn transfer_survives_random_loss() {
    for seed in 1..=3u64 {
        let mut sc = small(CcAlgorithm::Reno).with_seed(seed);
        sc.path.loss_prob = 0.02;
        sc.flows[0].app = AppModel::Bulk {
            bytes: Some(400_000),
        };
        sc.stop_when_complete = true;
        sc.duration = SimDuration::from_secs(120);
        let r = run(&sc);
        let f = &r.flows[0];
        assert_eq!(
            f.receiver_delivered_bytes, 400_000,
            "delivery broken under loss (seed {seed})"
        );
        assert!(f.completed_at_s.is_some(), "did not finish (seed {seed})");
        assert!(
            f.vars.pkts_retrans > 0,
            "2% loss must force retransmissions (seed {seed})"
        );
    }
}

#[test]
fn transfer_survives_heavy_loss_via_timeouts() {
    let mut sc = small(CcAlgorithm::Reno);
    sc.path.loss_prob = 0.15;
    sc.flows[0].app = AppModel::Bulk {
        bytes: Some(50_000),
    };
    sc.stop_when_complete = true;
    sc.duration = SimDuration::from_secs(300);
    let r = run(&sc);
    let f = &r.flows[0];
    assert_eq!(f.receiver_delivered_bytes, 50_000);
    assert!(
        f.vars.timeouts > 0 || f.vars.fast_retran > 0,
        "recovery machinery unused under 15% loss? {:?}",
        f.vars
    );
}

#[test]
fn restricted_survives_loss_too() {
    let mut sc = small(CcAlgorithm::Restricted(RssConfig::tuned_for(
        20_000_000, 1500,
    )));
    sc.path.loss_prob = 0.03;
    sc.flows[0].app = AppModel::Bulk {
        bytes: Some(300_000),
    };
    sc.stop_when_complete = true;
    sc.duration = SimDuration::from_secs(120);
    let r = run(&sc);
    assert_eq!(r.flows[0].receiver_delivered_bytes, 300_000);
}

#[test]
fn whole_run_reports_are_deterministic() {
    let mk = || {
        let mut sc = small(CcAlgorithm::Restricted(RssConfig::tuned_for(
            20_000_000, 1500,
        )));
        sc.path.loss_prob = 0.01;
        sc.cross = vec![CrossSpec {
            pattern: TrafficPattern::Poisson {
                rate_bps: 2_000_000,
                pkt_size: 1000,
            },
            start: SimTime::ZERO,
            stop: None,
        }];
        sc
    };
    let a = run(&mk());
    let b = run(&mk());
    assert_eq!(
        a.flows[0].vars.data_bytes_out,
        b.flows[0].vars.data_bytes_out
    );
    assert_eq!(a.flows[0].vars.pkts_retrans, b.flows[0].vars.pkts_retrans);
    assert_eq!(a.flows[0].cwnd_series, b.flows[0].cwnd_series);
    assert_eq!(a.sender_ifq_series, b.sender_ifq_series);
    assert_eq!(a.cross_delivered_bytes, b.cross_delivered_bytes);
}

#[test]
fn delayed_acks_work_end_to_end() {
    use restricted_slow_start::AckPolicy;
    let mut sc = small(CcAlgorithm::Reno);
    sc.tcp.ack_policy = AckPolicy::Delayed {
        timeout: SimDuration::from_millis(200),
    };
    sc.flows[0].app = AppModel::Bulk {
        bytes: Some(500_000),
    };
    sc.stop_when_complete = true;
    sc.duration = SimDuration::from_secs(60);
    let r = run(&sc);
    let f = &r.flows[0];
    assert_eq!(f.receiver_delivered_bytes, 500_000);
    // Delayed ACKs: far fewer ACKs than segments.
    assert!(
        f.vars.ack_pkts_in < f.vars.pkts_out * 3 / 4,
        "acks {} vs pkts {}",
        f.vars.ack_pkts_in,
        f.vars.pkts_out
    );
}

#[test]
fn paper_shape_standard_stalls_restricted_does_not() {
    let std = run(&Scenario::paper_testbed_standard());
    let rss = run(&Scenario::paper_testbed_restricted());
    assert!(std.flows[0].vars.send_stall >= 1);
    assert_eq!(rss.flows[0].vars.send_stall, 0);
    // scenarios/golden/scenario_headline.csv: 59.6 -> 94.5 Mbit/s, +58.5 %.
    // Each level within 5 %, the gain within 8 points: a model change that
    // moves either is named here before the byte-gate merely reports a diff.
    let (std_bps, rss_bps) = (std.flows[0].goodput_bps, rss.flows[0].goodput_bps);
    assert!((56.6e6..62.6e6).contains(&std_bps), "standard {std_bps}");
    assert!((89.8e6..99.2e6).contains(&rss_bps), "restricted {rss_bps}");
    let gain = rss_bps / std_bps - 1.0;
    assert!((0.505..0.665).contains(&gain), "gain {gain}");
    // The restricted controller parks the IFQ at 90 % of txqueuelen: over
    // the run's second half the mean is within 1.5 packets of 90 (the
    // sampled queue sits up to one packet above what the controller reads;
    // `tests/paper_claims.rs` derives why).
    let half = rss.duration_s / 2.0;
    let tail: Vec<f64> = rss
        .sender_ifq_series
        .iter()
        .filter(|&&(t, _)| t > half)
        .map(|&(_, v)| v)
        .collect();
    let mean = tail.iter().sum::<f64>() / tail.len() as f64;
    assert!(
        (mean - 90.0).abs() <= 1.5,
        "IFQ should sit at the 90-packet set point, got {mean}"
    );
}

#[test]
fn stall_responses_differ_where_expected() {
    let mut ignore = Scenario::paper_testbed_standard();
    ignore.tcp.stall_response = StallResponse::Ignore;
    let cwr = run(&Scenario::paper_testbed_standard());
    let ign = run(&ignore);
    // Ignoring the signal keeps the NIC saturated (upper bound)...
    assert!(ign.flows[0].goodput_bps > cwr.flows[0].goodput_bps);
    // ...at the cost of a wildly inflated window (the "memory waste" §2
    // complains about, in congestion-window form).
    assert!(ign.flows[0].vars.max_cwnd > 10 * cwr.flows[0].vars.max_cwnd);
}

#[test]
fn periodic_app_is_sender_limited() {
    let mut sc = small(CcAlgorithm::Reno);
    sc.flows[0].app = AppModel::Periodic {
        burst_bytes: 20_000,
        interval: SimDuration::from_millis(200),
        count: Some(10),
    };
    sc.duration = SimDuration::from_secs(5);
    let r = run(&sc);
    let f = &r.flows[0];
    assert_eq!(f.receiver_delivered_bytes, 200_000);
    // An app writing 0.8 Mbit/s into a 20 Mbit/s path is sender-limited.
    let v = &f.vars;
    assert!(
        v.snd_lim_time_sender_ns > v.snd_lim_time_cwnd_ns,
        "expected sender-limited: {v:?}"
    );
}

#[test]
fn two_flows_on_separate_hosts_share_the_bottleneck() {
    let mut sc = small(CcAlgorithm::Reno);
    sc.flows = vec![
        FlowSpec::bulk(CcAlgorithm::Reno),
        FlowSpec {
            start: SimTime::from_millis(500),
            ..FlowSpec::bulk(CcAlgorithm::Reno)
        },
    ];
    sc.duration = SimDuration::from_secs(6);
    let r = run(&sc);
    assert_eq!(r.flows.len(), 2);
    assert!(r.flows[0].goodput_bps > 1e6);
    // The latecomer is held to 0.956 Mbit/s: a drop-tail phase effect. The
    // first flow's NIC runs at the bottleneck's own 20 Mbit/s, so each of
    // its packets reaches the router at the instant one departs, and at a
    // tie the port finishes its departure first — the slot is always there
    // for the first flow and the queue is full for the second (all 109
    // drops are its). The floor was 1e6 when the one-unit map broke that
    // tie by insertion counter (5.5 / 13.5 Mbit/s); the per-pair map has
    // always measured these 955 680 bit/s, and it is now the only map.
    assert!(r.flows[1].goodput_bps > 0.5e6);
    // Combined goodput bounded by the line rate.
    assert!(r.total_goodput_bps() <= 20_000_000.0 * 1.01);
}

#[test]
fn cross_traffic_is_accounted() {
    let mut sc = small(CcAlgorithm::Reno);
    sc.cross = vec![CrossSpec {
        pattern: TrafficPattern::Cbr {
            rate_bps: 5_000_000,
            pkt_size: 1250,
        },
        start: SimTime::ZERO,
        stop: Some(SimTime::from_secs(2)),
    }];
    let r = run(&sc);
    assert!(r.cross_offered_bytes > 0);
    assert!(r.cross_delivered_bytes > 0);
    assert!(r.cross_delivered_bytes <= r.cross_offered_bytes);
    // CBR 5 Mbit/s for 2 s ≈ 1.25 MB offered.
    let expect = 5_000_000.0 / 8.0 * 2.0;
    let offered = r.cross_offered_bytes as f64;
    assert!(
        (offered - expect).abs() / expect < 0.05,
        "offered {offered} vs {expect}"
    );
}

#[test]
fn run_many_parallel_equals_sequential() {
    let scenarios: Vec<Scenario> = (0..6)
        .map(|i| {
            let mut sc = small(CcAlgorithm::Reno).with_seed(i + 1);
            sc.path.loss_prob = 0.01;
            sc
        })
        .collect();
    let (parallel, _) = run_many(&scenarios);
    for (i, sc) in scenarios.iter().enumerate() {
        let solo = run(sc);
        let parallel = parallel[i].0.as_ref().expect("scenario runs");
        assert_eq!(
            parallel.flows[0].vars.data_bytes_out, solo.flows[0].vars.data_bytes_out,
            "scenario {i} differs between parallel and sequential execution"
        );
    }
}

#[test]
fn goodput_never_exceeds_line_rate() {
    for algo in [
        CcAlgorithm::Reno,
        CcAlgorithm::Restricted(RssConfig::tuned_for(20_000_000, 1500)),
        CcAlgorithm::Limited { max_ssthresh: None },
    ] {
        let r = run(&small(algo));
        assert!(
            r.flows[0].goodput_bps <= 20_000_000.0,
            "{algo:?} exceeded line rate: {}",
            r.flows[0].goodput_bps
        );
    }
}
