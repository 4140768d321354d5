//! World-model integration tests: wiring details the end-to-end suite
//! doesn't pin down (start offsets, shared hosts, RED bottlenecks, the
//! sampled series and what sampling costs).

use rss_core::{
    run, CcAlgorithm, CrossSpec, FlowSpec, RssConfig, Scenario, SimDuration, SimTime,
    TrafficPattern,
};

fn base(algo: CcAlgorithm) -> Scenario {
    let mut sc = Scenario::paper_testbed(algo)
        .with_rate(20_000_000)
        .with_rtt(SimDuration::from_millis(10))
        .with_duration(SimDuration::from_secs(3));
    sc.web100_stride = 4;
    sc
}

#[test]
fn flow_start_offset_is_respected() {
    let mut sc = base(CcAlgorithm::Reno);
    sc.flows[0].start = SimTime::from_millis(1500);
    let r = run(&sc);
    let f = &r.flows[0];
    assert!(f.vars.data_bytes_out > 0);
    // Nothing acked before the start time.
    let first_ack_t = f.acked_series.first().map(|(t, _)| t).unwrap();
    assert!(
        first_ack_t >= 1.5,
        "data moved before flow start: {first_ack_t}"
    );
}

#[test]
fn staggered_flows_both_progress() {
    let mut sc = base(CcAlgorithm::Reno);
    sc.flows = vec![
        FlowSpec::bulk(CcAlgorithm::Reno),
        FlowSpec {
            start: SimTime::from_millis(1000),
            ..FlowSpec::bulk(CcAlgorithm::Reno)
        },
    ];
    let r = run(&sc);
    assert!(r.flows[0].vars.thru_bytes_acked > 0);
    assert!(r.flows[1].vars.thru_bytes_acked > 0);
    // The staggered flow's first activity is at/after its start time.
    let f1_first = r.flows[1].acked_series.first().map(|(t, _)| t).unwrap();
    assert!(f1_first >= 1.0, "flow 1 moved before its start: {f1_first}");
    // Flow 0 was alone for the first second and banked progress there.
    let f0_at_1s = r.flows[0].goodput_in_window_bps(0.0, 1.0);
    assert!(f0_at_1s > 1_000_000.0, "flow 0 idle in its solo window");
}

#[test]
fn shared_host_flows_share_one_ifq() {
    let mut sc = base(CcAlgorithm::Reno);
    sc.flows = vec![
        FlowSpec::bulk(CcAlgorithm::Reno),
        FlowSpec::bulk(CcAlgorithm::Reno),
    ];
    sc.shared_sender_host = true;
    let shared = run(&sc);
    sc.shared_sender_host = false;
    let separate = run(&sc);
    // Shared host: both flows squeeze through one 20 Mbit/s NIC; separate
    // hosts contend only at the bottleneck router. Both top out at the line
    // rate overall.
    assert!(shared.total_goodput_bps() <= 20_000_000.0 * 1.01);
    assert!(separate.total_goodput_bps() <= 20_000_000.0 * 1.01);
    // The shared-host run has exactly one sender NIC's worth of tx bytes
    // equal to the sum of flows (plus headers).
    let payload: u64 = shared.flows.iter().map(|f| f.vars.data_bytes_out).sum();
    assert!(shared.sender_nic.tx_bytes >= payload);
}

#[test]
fn red_bottleneck_run_works_and_differs_from_droptail() {
    use rss_core::{QueueDiscipline, RedParams};
    let mk = |queue: QueueDiscipline| {
        let mut sc = base(CcAlgorithm::Reno);
        // Fast NICs so the router queue is the contention point.
        sc.path.access_rate_bps = Some(200_000_000);
        sc.host.nic_rate_bps = 200_000_000;
        sc.path.router_queue_pkts = 50;
        sc = sc.with_queue(queue);
        sc.duration = SimDuration::from_secs(5);
        sc
    };
    let droptail = run(&mk(QueueDiscipline::DropTail));
    let red = run(&mk(QueueDiscipline::Red(RedParams::for_capacity(50))));
    assert!(droptail.flows[0].vars.thru_bytes_acked > 0);
    assert!(red.flows[0].vars.thru_bytes_acked > 0);
    // RED drops early: the flow sees loss events before the hard limit and
    // the trajectory differs from drop-tail.
    assert_ne!(
        droptail.flows[0].vars.data_bytes_out, red.flows[0].vars.data_bytes_out,
        "RED had no effect on the run"
    );
    assert!(
        red.flows[0].vars.fast_retran + red.flows[0].vars.timeouts > 0,
        "RED produced no congestion signals"
    );
    assert!(
        red.router_red_early_drops > 0,
        "no early drops counted in the report"
    );
    assert_eq!(red.router_ecn_marks, 0, "plain RED must never CE-mark");
    assert_eq!(droptail.router_red_early_drops, 0);
}

#[test]
fn ecn_bottleneck_marks_instead_of_dropping_and_still_controls_the_queue() {
    use rss_core::{QueueDiscipline, RedParams};
    let mk = |queue: QueueDiscipline| {
        let mut sc = base(CcAlgorithm::Reno);
        sc.path.access_rate_bps = Some(200_000_000);
        sc.host.nic_rate_bps = 200_000_000;
        sc.path.router_queue_pkts = 50;
        sc = sc.with_queue(queue);
        sc.duration = SimDuration::from_secs(5);
        sc
    };
    let red = run(&mk(QueueDiscipline::Red(RedParams::for_capacity(50))));
    let ecn = run(&mk(QueueDiscipline::RedEcn(RedParams::for_capacity(50))));
    assert!(ecn.router_ecn_marks > 0, "ECN bottleneck never marked");
    assert!(
        ecn.flows[0].vars.ecn_echoes > 0,
        "sender never saw an ECN echo"
    );
    // Marks replace in-band drops, so the ECN run retransmits less than the
    // dropping RED run while the queue stays controlled.
    assert!(
        ecn.flows[0].vars.pkts_retrans < red.flows[0].vars.pkts_retrans,
        "ECN {} vs RED {} retransmits",
        ecn.flows[0].vars.pkts_retrans,
        red.flows[0].vars.pkts_retrans
    );
    assert!(ecn.flows[0].vars.thru_bytes_acked > 0);
    // The average queue must not sit pinned at the hard limit.
    let peak = ecn
        .bottleneck_queue_series
        .iter()
        .map(|&(_, v)| v)
        .fold(0.0f64, f64::max);
    assert!(peak <= 50.0, "queue beyond capacity: {peak}");
}

#[test]
fn ifq_series_covers_run_and_respects_capacity() {
    let sc = base(CcAlgorithm::Restricted(RssConfig::tuned_for(
        20_000_000, 1500,
    )));
    let r = run(&sc);
    assert!(!r.sender_ifq_series.is_empty());
    let last_t = r.sender_ifq_series.last().unwrap().0;
    assert!(last_t > 2.9, "sampling stopped early: {last_t}");
    assert!(r
        .sender_ifq_series
        .iter()
        .all(|&(_, v)| (0.0..=100.0).contains(&v)));
}

#[test]
fn cross_only_scenario_moves_cross_traffic() {
    let mut sc = base(CcAlgorithm::Reno);
    sc.flows[0].bytes = Some(0);
    sc.cross = vec![CrossSpec {
        pattern: TrafficPattern::Cbr {
            rate_bps: 4_000_000,
            pkt_size: 1000,
        },
        start: SimTime::ZERO,
        stop: None,
    }];
    let r = run(&sc);
    assert_eq!(r.flows[0].vars.data_bytes_out, 0);
    // ~4 Mbit/s for 3 s = 1.5 MB.
    let expect = 4_000_000.0 / 8.0 * 3.0;
    let got = r.cross_delivered_bytes as f64;
    assert!(
        (got - expect).abs() / expect < 0.05,
        "cross delivery {got} vs {expect}"
    );
}

#[test]
fn open_loop_cross_overload_is_dropped_not_wedged() {
    let mut sc = base(CcAlgorithm::Reno);
    sc.flows[0].bytes = Some(0);
    // Offer 2x the line rate: the source's own NIC must shed the excess.
    sc.cross = vec![CrossSpec {
        pattern: TrafficPattern::Cbr {
            rate_bps: 40_000_000,
            pkt_size: 1000,
        },
        start: SimTime::ZERO,
        stop: None,
    }];
    let r = run(&sc);
    let ratio = r.cross_delivery_ratio();
    assert!(
        (0.4..0.6).contains(&ratio),
        "expected ~half delivered at 2x overload, got {ratio}"
    );
}

#[test]
fn limited_slow_start_runs_through_world() {
    let r = run(&base(CcAlgorithm::Limited { max_ssthresh: None }));
    assert!(r.flows[0].vars.thru_bytes_acked > 0);
    assert_eq!(r.flows[0].algo, "limited");
}

#[test]
fn report_metadata_round_trips() {
    let sc = base(CcAlgorithm::Reno).with_seed(77);
    let r = run(&sc);
    assert_eq!(r.seed, 77);
    assert_eq!(r.path_rate_bps, 20_000_000);
    assert!((r.duration_s - 3.0).abs() < 1e-9);
    let r2 = r.clone();
    assert_eq!(
        format!("{:?}", r.flows[0].vars),
        format!("{:?}", r2.flows[0].vars)
    );
}

/// Four flows of two variants through a marking RED bottleneck with random
/// loss, beside an open-loop cross stream: every network-level field of the
/// report is non-trivial.
fn red_cross() -> Scenario {
    use rss_core::{QueueDiscipline, RedParams};
    let mut sc = base(CcAlgorithm::Reno)
        .with_access_delay(SimDuration::from_micros(500))
        .with_duration(SimDuration::from_millis(800));
    sc.flows = (0..4u64)
        .map(|i| FlowSpec {
            algo: if i % 2 == 0 {
                CcAlgorithm::Reno
            } else {
                CcAlgorithm::Restricted(RssConfig::tuned())
            },
            bytes: None,
            start: SimTime::from_millis(5 * i),
        })
        .collect();
    sc.cross = vec![CrossSpec {
        pattern: TrafficPattern::Cbr {
            rate_bps: 2_000_000,
            pkt_size: 1500,
        },
        start: SimTime::ZERO,
        stop: None,
    }];
    sc.path.loss_prob = 0.001;
    sc.path.router_queue_pkts = 40;
    sc.with_queue(QueueDiscipline::RedEcn(RedParams::for_capacity(40)))
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `runner::report` reads the network-level fields, releases each world down
/// to its connections, and only then renders the flows. The two-domain
/// digest was recorded from the commit before that reorder (flows first, on
/// top of the complete worlds), so a field dropped, reordered or read after
/// its owner was released shows here; the one-engine digest is pinned from
/// the commit that made it the same realization (it differs from the other
/// in the `engine` / `shard` diagnostics only). Both were re-pinned once
/// when sampling shrank to two chains per run: against the digests before,
/// the JSON differed in `events_processed` and `engine.*` alone (15 566 →
/// 15 323 events, three of the four pairs' 81-sample chains gone). Both were
/// re-pinned again when a router port began putting a packet on the link as
/// it starts serializing it. That moves the port's link-loss draw from the
/// end of a serialization to its start, and this fixture's bottleneck port
/// feeds one private stream to RED and to `loss_prob` at once, so the two
/// mechanisms interleave their draws differently and the physics moved (ECN
/// marks 31 → 35, flow 0's goodput 5.26 → 4.87 Mbit/s). With `loss_prob` 0,
/// or with a drop-tail queue, the same comparison differs in
/// `events_processed` and `engine.*` alone. The one-engine digest was
/// re-pinned once more when the event queue stopped keeping cancelled
/// entries: its JSON lost the `engine` counter of swept cancelled entries
/// (21 bytes) and nothing else; the two-domain report has no `engine` and did not move. Both
/// were re-pinned when a flow's limit times began at its own start: each
/// JSON differs from the one before in flows 1–3's `snd_lim_time_sender_ns`
/// alone, by their starts (5, 10 and 15 ms). Both were re-pinned when a
/// window with room for less than one segment began to count as the
/// window's limit: each JSON differs from the one before in the four flows'
/// `snd_lim_time_cwnd_ns` and `snd_lim_time_sender_ns` alone (every flow's
/// sender-limited time went to 0). Both were re-pinned when the flows'
/// per-ACK series began to render as runs: each report, read back by the
/// reader of its own format, equals the one before field for field and
/// sample for sample (29 661 → 23 568 bytes one-engine). The two reports
/// still differ from each other in `engine` / `shard` only.
#[test]
fn report_json_is_pinned_across_the_network_first_reorder() {
    for (shards, want) in [
        (None, 0x1e27_e8bc_90a8_5f56u64),
        (Some(2), 0x7532_2d0a_68cd_332c),
    ] {
        let mut sc = red_cross();
        sc.shards = shards;
        let r = run(&sc);
        assert!(r.router_ecn_marks > 0 && r.cross_delivered_bytes > 0);
        assert!(r.sender_nic.tx_pkts > 0 && r.bottleneck_queue_series.len() > 1);
        let json = r.to_json();
        assert_eq!(
            fnv1a64(json.as_bytes()),
            want,
            "shards {shards:?}: {} bytes of report JSON diverged (got {:#018x})",
            json.len(),
            fnv1a64(json.as_bytes()),
        );
    }
}

/// The reporting accessors read a world that is still whole — what an
/// embedder driving its own engine sees — and agree with the report `run`
/// assembles from them before it releases the network.
#[test]
fn reporting_accessors_work_on_an_unconsumed_world() {
    use rss_core::world::World;
    let sc = red_cross();
    let mut engine = World::build(&sc).expect("buildable").into_engine();
    let stats = engine.run_until(SimTime::ZERO + sc.duration);
    let world = engine.model();
    let r = run(&sc);
    assert_eq!(stats.events_processed, r.events_processed);
    let nic = world.sender_host().expect("flow 0 is this world's");
    assert_eq!(nic.stats().tx_pkts, r.sender_nic.tx_pkts);
    let ifq = world.sender_ifq_series().expect("flow 0 is this world's");
    // The series the world recorded is the report's, sample for sample.
    assert!(ifq.len() > 1);
    assert_eq!(ifq, r.sender_ifq_series);
    assert_eq!(world.fabric().queue_drops, r.router_queue_drops);
    assert_eq!(world.red_stats().ecn_marks, r.router_ecn_marks);
    let depth = world.bottleneck_series().expect("one world owns the port");
    assert_eq!(depth, r.bottleneck_queue_series);
    assert_eq!(world.cross_delivered_bytes(), r.cross_delivered_bytes);
}

/// Sampling costs two event chains per run — flow 0's sender IFQ and the
/// forward bottleneck — whatever the host-pair count: the events a finer
/// grid adds are the same for 1 and 8 pairs, under one engine and in two
/// domains.
#[test]
fn sampling_runs_two_chains_whatever_the_host_pair_count() {
    let events = |pairs: usize, interval_ms: u64, shards: Option<u32>| {
        let mut sc = base(CcAlgorithm::Reno).with_duration(SimDuration::from_secs(1));
        sc.flows = vec![FlowSpec::bulk(CcAlgorithm::Reno); pairs];
        sc.sample_interval = SimDuration::from_millis(interval_ms);
        sc.shards = shards;
        run(&sc).events_processed
    };
    for shards in [None, Some(2)] {
        for pairs in [1, 8] {
            // A chain samples [0, 1 s] 11 times at 100 ms, 5 times at 250 ms.
            let extra = events(pairs, 100, shards) - events(pairs, 250, shards);
            assert_eq!(extra, 2 * (11 - 5), "shards {shards:?}, {pairs} pairs");
        }
    }
}
