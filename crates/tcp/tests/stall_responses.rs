//! Every registry variant answers a send-stall the way the sender's
//! [`StallResponse`] says: `Cwr` is the variant's own `LocalStall`
//! reduction, `RestartFromOne` restarts slow-start from one segment, and
//! `Ignore` leaves the window alone. Web100 counts the stall under all three.

use rss_sim::SimTime;
use rss_tcp::cc::registry;
use rss_tcp::{
    make_cc, CcAlgorithm, CcView, CongestionEvent, ConnId, IfqSnapshot, RssConfig, ScalableConfig,
    SslConfig, StallResponse, TcpConfig, TcpSender,
};

/// One algorithm per registry row, in row order.
fn every_row() -> Vec<CcAlgorithm> {
    let algos = vec![
        CcAlgorithm::Reno,
        CcAlgorithm::Restricted(RssConfig::tuned()),
        CcAlgorithm::Limited { max_ssthresh: None },
        CcAlgorithm::Ssthreshless(SslConfig::default()),
        CcAlgorithm::HighSpeed,
        CcAlgorithm::Scalable(ScalableConfig::default()),
        CcAlgorithm::Bbr,
        CcAlgorithm::Relentless,
        CcAlgorithm::Hybrid,
    ];
    assert_eq!(algos.len(), registry::variants().len(), "one per row");
    for (algo, row) in algos.iter().zip(registry::variants()) {
        assert!(std::ptr::eq(algo.info(), row), "{algo:?} reads another row");
    }
    algos
}

#[test]
fn every_variant_answers_each_stall_response() {
    // A full IFQ rejects the segment after a 20-segment initial window.
    let ifq = IfqSnapshot {
        depth: 100,
        max: 100,
    };
    let now = SimTime::from_millis(1);
    for algo in every_row() {
        for response in [
            StallResponse::Cwr,
            StallResponse::RestartFromOne,
            StallResponse::Ignore,
        ] {
            let cfg = TcpConfig {
                initial_cwnd_mss: 20,
                stall_response: response,
                ..TcpConfig::default()
            };
            let mss = cfg.mss as u64;
            let cc = make_cc(algo, &cfg).expect("defaults build every variant");
            let mut s = TcpSender::new(ConnId(0), cfg, cc, None);
            while let Some(plan) = s.can_transmit(SimTime::ZERO) {
                s.commit_transmit(SimTime::ZERO, plan);
            }
            let before = (s.cc().cwnd(), s.cc().ssthresh());
            s.on_local_stall(now, ifq);
            let after = (s.cc().cwnd(), s.cc().ssthresh());
            let label = format!("{} under {response:?}", algo.label());
            assert_eq!(
                s.web100().vars().send_stall,
                1,
                "{label}: stall not counted"
            );
            match response {
                StallResponse::Cwr => {
                    // The same controller, handed the stall directly.
                    let mut alone = make_cc(algo, &cfg).unwrap();
                    let view = CcView {
                        now,
                        flight: s.flight(),
                        ifq_depth: ifq.depth,
                        ifq_max: ifq.max,
                        last_rtt: None,
                        min_rtt: None,
                        delivery_rate: None,
                        app_limited: false,
                    };
                    alone.on_congestion(&view, CongestionEvent::LocalStall);
                    assert_eq!(after, (alone.cwnd(), alone.ssthresh()), "{label}");
                    assert!(after.0 >= mss && after.0 <= before.0, "{label}: {after:?}");
                }
                StallResponse::RestartFromOne => {
                    assert_eq!(after.0, mss, "{label}: cwnd");
                    assert!(s.cc().in_slow_start(), "{label}: not in slow-start");
                }
                StallResponse::Ignore => assert_eq!(after, before, "{label}"),
            }
        }
    }
}
