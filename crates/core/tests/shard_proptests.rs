//! Property-based check of the runner's headline guarantee: for a random
//! small scenario, the `RunReport` JSON is byte-identical without `shards`
//! and at every shard count. `shards = 1` is the reference; any divergence
//! means some grouping-visible state leaked across a unit boundary, or a
//! driver ordered, cut or counted the run its own way.

use proptest::prelude::*;
use rss_core::{
    run, CcAlgorithm, CrossSpec, FlowSpec, RssConfig, Scenario, SimDuration, SimTime,
    TrafficPattern,
};

fn random_scenario(
    n_flows: usize,
    starts_ms: &[u16],
    bounded: &[bool],
    loss_millis: u16,
    cross: bool,
    shared_host: bool,
    seed: u64,
) -> Scenario {
    let mut sc = Scenario::paper_testbed(CcAlgorithm::Reno)
        .with_rate(20_000_000)
        .with_rtt(SimDuration::from_millis(10))
        .with_duration(SimDuration::from_millis(150))
        .with_access_delay(SimDuration::from_micros(500))
        .with_seed(seed);
    sc.flows = (0..n_flows)
        .map(|i| FlowSpec {
            algo: match i % 3 {
                0 => CcAlgorithm::Reno,
                1 => CcAlgorithm::Restricted(RssConfig::tuned()),
                _ => CcAlgorithm::HighSpeed,
            },
            bytes: bounded[i % bounded.len()].then_some(40_000),
            start: SimTime::from_millis(starts_ms[i % starts_ms.len()] as u64),
        })
        .collect();
    if cross {
        sc.cross = vec![CrossSpec {
            pattern: TrafficPattern::Cbr {
                rate_bps: 1_500_000,
                pkt_size: 1500,
            },
            start: SimTime::ZERO,
            stop: None,
        }];
    }
    sc.shared_sender_host = shared_host;
    sc.path.loss_prob = loss_millis as f64 / 1000.0;
    sc.web100_stride = 8;
    sc
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Any grouping of units into 2–4 shards reproduces the 1-shard report
    /// byte-for-byte, and so — up to the two executor diagnostics — does the
    /// one-engine run without `shards`.
    #[test]
    fn sharded_reports_are_bit_identical(
        n_flows in 2usize..=8,
        shards in 2u32..=4,
        starts_ms in prop::collection::vec(0u16..80, 1..4),
        bounded in prop::collection::vec(any::<bool>(), 1..4),
        loss_millis in 0u16..20,
        cross in any::<bool>(),
        shared_host in any::<bool>(),
        seed in 1u64..500,
    ) {
        let base = random_scenario(
            n_flows, &starts_ms, &bounded, loss_millis, cross, shared_host, seed,
        );
        let mut reference = run(&base.clone().with_shards(1));
        let parallel = run(&base.clone().with_shards(shards)).to_json();
        prop_assert_eq!(reference.to_json(), parallel, "{} shards diverged", shards);
        let mut plain = run(&base);
        prop_assert!(plain.engine.take().is_some() && reference.shard.take().is_some());
        prop_assert_eq!(reference.to_json(), plain.to_json(), "no shards diverged");
    }
}
