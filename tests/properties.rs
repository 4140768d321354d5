//! Property-based integration tests: transport invariants must hold for
//! arbitrary (bounded) scenario parameters, not just the hand-picked ones.

use proptest::prelude::*;
use restricted_slow_start::{
    run, CcAlgorithm, Flap, GilbertElliott, ImpairmentConfig, Jitter, OutageWindow,
    QueueDiscipline, RedParams, RssConfig, Scenario, SimDuration, SimTime,
};

fn arb_algo() -> impl Strategy<Value = CcAlgorithm> {
    prop_oneof![
        Just(CcAlgorithm::Reno),
        Just(CcAlgorithm::Limited { max_ssthresh: None }),
        (1u64..=1000)
            .prop_map(|r| CcAlgorithm::Restricted(RssConfig::tuned_for(r * 1_000_000, 1500))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Every byte of a bounded transfer is delivered in order, exactly once,
    /// regardless of path shape, queue sizes, loss and algorithm.
    #[test]
    fn delivery_invariant(
        rate_mbps in 5u64..200,
        rtt_ms in 2u64..80,
        txqueuelen in 10u32..300,
        loss_milli in 0u32..30,            // 0 .. 3% loss
        bytes in 1u64..600_000,
        algo in arb_algo(),
        seed in 1u64..1000,
    ) {
        let mut sc = Scenario::paper_testbed(algo)
            .with_rate(rate_mbps * 1_000_000)
            .with_rtt(SimDuration::from_millis(rtt_ms))
            .with_txqueuelen(txqueuelen)
            .with_seed(seed)
            .with_auto_rwnd();
        sc.path.loss_prob = loss_milli as f64 / 1000.0;
        sc.flows[0].bytes = Some(bytes);
        sc.stop_when_complete = true;
        // Generous horizon so even lossy/small-window runs finish.
        sc.duration = SimDuration::from_secs(600);
        sc.web100_stride = 64;

        let r = run(&sc);
        let f = &r.flows[0];

        prop_assert_eq!(f.receiver_delivered_bytes, bytes,
            "in-order delivery broken");
        prop_assert_eq!(f.vars.thru_bytes_acked, bytes,
            "sender byte accounting broken");
        prop_assert!(f.completed_at_s.is_some(), "transfer never completed");
        // No data invented: the wire never carries more than what was sent.
        prop_assert!(f.vars.data_bytes_out >= bytes);
        // Goodput can never exceed the line rate.
        prop_assert!(f.goodput_bps <= rate_mbps as f64 * 1_000_000.0 * 1.001);
        // Loss-free paths must not retransmit.
        if loss_milli == 0 {
            prop_assert_eq!(f.vars.pkts_retrans, 0, "spurious retransmission");
        }
    }

    /// Determinism: the same scenario always produces the same counters.
    #[test]
    fn determinism_invariant(
        rate_mbps in 5u64..100,
        rtt_ms in 2u64..60,
        loss_milli in 0u32..40,
        seed in 1u64..500,
    ) {
        let mk = || {
            let mut sc = Scenario::paper_testbed_standard()
                .with_rate(rate_mbps * 1_000_000)
                .with_rtt(SimDuration::from_millis(rtt_ms))
                .with_seed(seed)
                .with_duration(SimDuration::from_millis(1200));
            sc.path.loss_prob = loss_milli as f64 / 1000.0;
            sc.web100_stride = 32;
            sc
        };
        let a = run(&mk());
        let b = run(&mk());
        prop_assert_eq!(a.flows[0].vars.data_bytes_out, b.flows[0].vars.data_bytes_out);
        prop_assert_eq!(a.flows[0].vars.pkts_retrans, b.flows[0].vars.pkts_retrans);
        prop_assert_eq!(a.flows[0].vars.send_stall, b.flows[0].vars.send_stall);
    }

    /// The restriction property: on a loss-free path the restricted scheme
    /// never stalls and never lets the IFQ exceed txqueuelen.
    #[test]
    fn restriction_invariant(
        rtt_ms in 5u64..100,
        txqueuelen in 20u32..300,
        seed in 1u64..100,
    ) {
        let mut sc = Scenario::paper_testbed(
            CcAlgorithm::Restricted(RssConfig::tuned()),
        )
        .with_rtt(SimDuration::from_millis(rtt_ms))
        .with_txqueuelen(txqueuelen)
        .with_seed(seed)
        .with_duration(SimDuration::from_secs(8))
        .with_auto_rwnd();
        sc.web100_stride = 32;

        let r = run(&sc);
        prop_assert_eq!(r.flows[0].vars.send_stall, 0, "restricted stalled");
        let peak = r
            .sender_ifq_series
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0f64, f64::max);
        prop_assert!(peak <= txqueuelen as f64, "IFQ exceeded capacity");
    }
}

/// An impairment mix spanning every fault mechanism, parameterized so
/// proptest explores outage placement, burst density and jitter depth.
fn arb_impairment() -> impl Strategy<Value = ImpairmentConfig> {
    (
        0u32..3,   // which mechanisms are on (bit 0: burst, bit 1: flap)
        1u32..20,  // outage start, 100ms units
        1u32..8,   // outage length, 100ms units
        0u32..200, // jitter probability, milli
        1u32..30,  // jitter max, 100us units
        0u32..30,  // duplicate probability, milli
    )
        .prop_map(
            |(mask, o_start, o_len, j_milli, j_max, dup_milli)| ImpairmentConfig {
                burst_loss: (mask & 1 != 0).then_some(GilbertElliott {
                    p_good_to_bad: 0.002,
                    p_bad_to_good: 0.3,
                    loss_good: 0.0,
                    loss_bad: 0.6,
                }),
                outages: vec![OutageWindow {
                    start: SimTime::from_millis(100 * o_start as u64),
                    duration: SimDuration::from_millis(100 * o_len as u64),
                }],
                flap: (mask & 2 != 0).then_some(Flap {
                    mean_up: SimDuration::from_millis(400),
                    mean_down: SimDuration::from_millis(20),
                }),
                jitter: Some(Jitter {
                    prob: j_milli as f64 / 1000.0,
                    max: SimDuration::from_micros(100 * j_max as u64),
                }),
                duplicate_prob: dup_milli as f64 / 1000.0,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Fault injection never breaks the sharded executor's headline
    /// guarantee: an impaired run is byte-identical at 1, 2 and 4 shards.
    #[test]
    fn impaired_runs_are_shard_invariant(
        rtt_ms in 6u64..60,
        seed in 1u64..500,
        haul in arb_impairment(),
        access_on in any::<bool>(),
    ) {
        let mk = |shards| {
            let mut sc = Scenario::paper_testbed_standard()
                .with_rate(20_000_000)
                .with_rtt(SimDuration::from_millis(rtt_ms))
                .with_seed(seed)
                .with_duration(SimDuration::from_millis(2500))
                .with_access_delay(SimDuration::from_micros(500));
            sc.flows.push(sc.flows[0]);
            sc.flows[1].algo = CcAlgorithm::Restricted(RssConfig::tuned());
            sc.flows[1].start = SimTime::from_millis(40);
            sc.haul_impairment = Some(haul.clone());
            if access_on {
                sc.access_impairment = Some(ImpairmentConfig {
                    flap: Some(Flap {
                        mean_up: SimDuration::from_millis(300),
                        mean_down: SimDuration::from_millis(15),
                    }),
                    ..Default::default()
                });
            }
            sc.web100_stride = 16;
            sc.shards = Some(shards);
            sc
        };
        let one = run(&mk(1)).to_json();
        prop_assert_eq!(&one, &run(&mk(2)).to_json(), "2 shards diverged");
        prop_assert_eq!(&one, &run(&mk(4)).to_json(), "4 shards diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        ..ProptestConfig::default()
    })]

    /// AQM bottlenecks never break the sharded executor's headline
    /// guarantee: a run over a random RED or RED+ECN configuration is
    /// byte-identical at 1, 2 and 4 shards — drops drawn from the hub RNG
    /// and CE marks echoed back through the ACK stream included.
    #[test]
    fn aqm_runs_are_shard_invariant(
        seed in 1u64..500,
        cap in 30u32..120,
        min_frac in 1u32..5,      // min_th = cap · frac/10
        band_frac in 1u32..6,     // max_th = min_th + cap · frac/10, clamped
        wq_milli in 1u32..60,
        max_p_centi in 2u32..60,
        gentle in any::<bool>(),
        ecn in any::<bool>(),
        flows in 2u32..5,
    ) {
        let min_th = cap as f64 * min_frac as f64 / 10.0;
        let red = RedParams {
            min_th,
            max_th: (min_th + cap as f64 * band_frac as f64 / 10.0).min(cap as f64),
            wq: wq_milli as f64 / 1000.0,
            max_p: max_p_centi as f64 / 100.0,
            gentle,
        };
        let queue = if ecn {
            QueueDiscipline::RedEcn(red)
        } else {
            QueueDiscipline::Red(red)
        };
        let mk = |shards| {
            let mut sc = Scenario::paper_testbed_standard()
                .with_rate(20_000_000)
                .with_rtt(SimDuration::from_millis(20))
                .with_seed(seed)
                .with_duration(SimDuration::from_millis(2500))
                .with_access_delay(SimDuration::from_micros(500));
            sc.path.router_queue_pkts = cap;
            for i in 1..flows {
                sc.flows.push(sc.flows[0]);
                sc.flows[i as usize].start = SimTime::from_millis(30 * i as u64);
            }
            sc.web100_stride = 16;
            sc = sc.with_queue(queue);
            sc.shards = Some(shards);
            sc
        };
        let one = run(&mk(1)).to_json();
        prop_assert_eq!(&one, &run(&mk(2)).to_json(), "2 shards diverged");
        prop_assert_eq!(&one, &run(&mk(4)).to_json(), "4 shards diverged");
    }
}
