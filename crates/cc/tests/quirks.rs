//! Responses of single variants that differ from "Reno with one piece
//! swapped": each test pins one of them through the public surface alone
//! (`CcEngine::new` and the engine's hooks). The byte goldens and
//! the benchmark's `lossy_aqm` goodput, which runs every variant through a
//! marking RED bottleneck, depend on all of them.

use rss_cc::{
    CcAlgorithm, CcEngine, CcParams, CcView, CongestionEvent, RecoveryEvent, RssConfig,
    ScalableConfig, SslConfig,
};
use rss_control::PidGains;
use rss_sim::{SimDuration, SimTime};

const MSS: u64 = 1000;

fn build(algo: CcAlgorithm, cwnd_segments: u64, ssthresh: u64) -> CcEngine {
    let p = CcParams {
        initial_cwnd: cwnd_segments * MSS,
        initial_ssthresh: ssthresh,
        mss: MSS as u32,
    };
    CcEngine::new(&algo, &p).expect("valid parameters")
}

fn view(now_ms: u64, flight: u64) -> CcView {
    CcView {
        now: SimTime::from_millis(now_ms),
        flight,
        ifq_depth: 0,
        ifq_max: 100,
        last_rtt: None,
        min_rtt: None,
        delivery_rate: None,
        app_limited: false,
    }
}

fn acks(cc: &mut CcEngine, n: u64, bytes: u64) {
    for _ in 0..n {
        cc.on_ack(&view(0, 0), bytes);
    }
}

#[test]
fn highspeed_and_scalable_keep_their_accumulator_across_fast_retransmit_and_ecn_echo() {
    let ecn = RecoveryEvent::EcnEcho;
    let fr = CongestionEvent::FastRetransmit;
    // HighSpeed below Low_Window (a(w) = 1) in congestion avoidance: nine
    // MSS acknowledged of a ten-segment window leave 9 000 bytes of credit.
    let hs = || {
        let mut cc = build(CcAlgorithm::HighSpeed, 10, 5 * MSS);
        acks(&mut cc, 9, MSS);
        assert_eq!(cc.cwnd(), 10 * MSS);
        cc
    };
    // The echo is Reno's halving and leaves the credit: one more MSS steps.
    let mut cc = hs();
    cc.on_recovery(&view(0, 20 * MSS), ecn);
    assert_eq!((cc.cwnd(), cc.ssthresh()), (10 * MSS, 10 * MSS));
    acks(&mut cc, 1, MSS);
    assert_eq!(cc.cwnd(), 11 * MSS, "HighSpeed credit survives an echo");
    // Reno's own accumulator is cleared by the same echo.
    let mut reno = build(CcAlgorithm::Reno, 10, 5 * MSS);
    acks(&mut reno, 9, MSS);
    reno.on_recovery(&view(0, 20 * MSS), ecn);
    acks(&mut reno, 1, MSS);
    assert_eq!(reno.cwnd(), 10 * MSS, "Reno's credit does not");
    // A fast retransmit keeps the credit too: 9 000 + 1 000 ≥ 8 000.
    let mut cc = hs();
    cc.on_congestion(&view(0, 10 * MSS), fr);
    assert_eq!((cc.cwnd(), cc.ssthresh()), (8 * MSS, 5 * MSS));
    acks(&mut cc, 1, MSS);
    assert_eq!(
        cc.cwnd(),
        9 * MSS,
        "HighSpeed credit survives a fast retransmit"
    );
    // Recovery exit, a CWR stall and a timeout clear it.
    let mut cc = hs();
    cc.on_recovery(&view(0, 0), RecoveryEvent::Exit { newly_acked: 0 });
    acks(&mut cc, 1, MSS);
    assert_eq!(cc.cwnd(), 5 * MSS, "exit clears the credit");
    let mut cc = hs();
    cc.on_congestion(&view(0, 10 * MSS), CongestionEvent::LocalStall);
    acks(&mut cc, 1, MSS);
    assert_eq!(cc.cwnd(), 5 * MSS, "a CWR stall clears the credit");
    let mut cc = hs();
    cc.on_congestion(&view(0, 10 * MSS), CongestionEvent::Timeout);
    acks(&mut cc, 5, MSS); // four slow-start ACKs to ssthresh, one CA ACK
    assert_eq!(cc.cwnd(), 5 * MSS, "a timeout clears the credit");
    // At a large window the echo still halves, where a loss cuts by b(w).
    let mut big = build(CcAlgorithm::HighSpeed, 1000, 5 * MSS);
    big.on_recovery(&view(0, 1000 * MSS), ecn);
    assert_eq!(big.ssthresh(), 500 * MSS, "an echo is Reno's halving");
    let mut big = build(CcAlgorithm::HighSpeed, 1000, 5 * MSS);
    big.on_congestion(&view(0, 1000 * MSS), fr);
    assert!(big.ssthresh() > 600 * MSS, "a loss keeps 1 - b(w)");

    // Scalable: 99 bytes of a 100-byte increase step survive both signals.
    let scalable = || {
        let mut cc = build(
            CcAlgorithm::Scalable(ScalableConfig::default()),
            50,
            5 * MSS,
        );
        acks(&mut cc, 1, 99);
        assert_eq!(cc.cwnd(), 50 * MSS);
        cc
    };
    let mut cc = scalable();
    cc.on_recovery(&view(0, 20 * MSS), ecn);
    assert_eq!((cc.cwnd(), cc.ssthresh()), (10 * MSS, 10 * MSS));
    acks(&mut cc, 1, 1);
    assert_eq!(cc.cwnd(), 10 * MSS + 1, "Scalable credit survives an echo");
    let mut cc = scalable();
    cc.on_congestion(&view(0, 40 * MSS), fr);
    assert_eq!((cc.cwnd(), cc.ssthresh()), (38 * MSS, 35 * MSS));
    acks(&mut cc, 1, 1);
    assert_eq!(
        cc.cwnd(),
        38 * MSS + 1,
        "Scalable credit survives a fast retransmit"
    );
    let mut cc = scalable();
    cc.on_recovery(&view(0, 0), RecoveryEvent::Exit { newly_acked: 0 });
    acks(&mut cc, 1, 1);
    assert_eq!(cc.cwnd(), 5 * MSS, "exit clears the credit");
}

#[test]
fn relentless_answers_an_echo_with_one_segment_and_keeps_its_own_recovery_credit() {
    // Congestion avoidance at 100 segments, 98 000 bytes of Reno credit.
    let mut cc = build(CcAlgorithm::Relentless, 100, 2 * MSS);
    acks(&mut cc, 98, MSS);
    assert_eq!(cc.cwnd(), 100 * MSS);
    cc.on_recovery(&view(0, 100 * MSS), RecoveryEvent::EcnEcho);
    assert_eq!((cc.cwnd(), cc.ssthresh()), (99 * MSS, 99 * MSS));
    // No Reno halving ran, so its credit is intact: 98 000 + 1 000 ≥ 99 000.
    acks(&mut cc, 1, MSS);
    assert_eq!(cc.cwnd(), 100 * MSS, "the echo left Reno's credit alone");

    // In recovery a duplicate ACK still inflates the window.
    let mut cc = build(CcAlgorithm::Relentless, 100, 2 * MSS);
    let v = view(0, 100 * MSS);
    cc.on_congestion(&v, CongestionEvent::FastRetransmit);
    assert_eq!((cc.cwnd(), cc.ssthresh()), (102 * MSS, 99 * MSS));
    cc.on_recovery(&v, RecoveryEvent::DupAck);
    assert_eq!(cc.cwnd(), 103 * MSS);
    // The recovery credit is its own: a CWR stall mid-recovery clears
    // Reno's accumulator but not the 50 000 bytes credited here, so the
    // exit's 48 000 complete one MSS of growth on the 98-segment target.
    cc.on_recovery(
        &v,
        RecoveryEvent::PartialAck {
            newly_acked: 50 * MSS,
        },
    );
    assert_eq!(cc.ssthresh(), 98 * MSS);
    cc.on_congestion(&v, CongestionEvent::LocalStall);
    assert_eq!(cc.cwnd(), 50 * MSS);
    cc.on_recovery(
        &v,
        RecoveryEvent::Exit {
            newly_acked: 48 * MSS,
        },
    );
    assert_eq!((cc.cwnd(), cc.ssthresh()), (99 * MSS, 99 * MSS));
}

#[test]
fn ssthreshless_ignores_initial_ssthresh_and_keeps_probing_after_an_ecn_echo() {
    let mut cc = build(CcAlgorithm::Ssthreshless(SslConfig::default()), 2, 4 * MSS);
    assert_eq!(
        cc.ssthresh(),
        u64::MAX / 2,
        "the configured 4 MSS is ignored"
    );
    acks(&mut cc, 10, MSS);
    assert_eq!(cc.cwnd(), 12 * MSS);
    assert!(cc.in_slow_start());
    // The echo halves the window and pins ssthresh to it, yet the probe
    // runs on: still slow-start, still one MSS per ACK past ssthresh.
    cc.on_recovery(&view(0, 12 * MSS), RecoveryEvent::EcnEcho);
    assert_eq!((cc.cwnd(), cc.ssthresh()), (6 * MSS, 6 * MSS));
    assert!(
        cc.in_slow_start(),
        "probing is slow-start, not cwnd < ssthresh"
    );
    acks(&mut cc, 5, MSS);
    assert_eq!(cc.cwnd(), 11 * MSS);
    assert!(cc.in_slow_start());
}

#[test]
fn hybrid_rearms_its_heuristics_only_on_a_timeout() {
    let rtt_view = |now_ms: u64, rtt_ms: u64| CcView {
        last_rtt: Some(SimDuration::from_millis(rtt_ms)),
        min_rtt: Some(SimDuration::from_millis(100)),
        ..view(now_ms, 0)
    };
    let mut cc = build(CcAlgorithm::Hybrid, 16, u64::MAX / 2);
    // Round 1 sets a 100 ms baseline (ACKs 20 ms apart: no ACK train).
    for i in 0..16 {
        cc.on_ack(&rtt_view(i * 20, 100), MSS);
    }
    // Recovery events in slow-start keep the baseline...
    cc.on_recovery(&rtt_view(330, 100), RecoveryEvent::DupAck);
    cc.on_recovery(
        &rtt_view(330, 100),
        RecoveryEvent::PartialAck { newly_acked: MSS },
    );
    assert_eq!(cc.cwnd(), 33 * MSS);
    // ...so round 2's 120 ms minimum is judged against it and exits.
    for i in 0..8 {
        assert!(cc.in_slow_start(), "sample {i}");
        cc.on_ack(&rtt_view(400 + i * 20, 120), MSS);
    }
    assert!(
        !cc.in_slow_start(),
        "the baseline survived the recovery events"
    );
    assert_eq!(cc.ssthresh(), cc.cwnd());
    // A timeout re-enters slow-start with the heuristics armed afresh: a
    // new flat baseline, then a jump, exits again.
    let lost = CcView {
        flight: 200 * MSS,
        ..rtt_view(1000, 120)
    };
    cc.on_congestion(&lost, CongestionEvent::Timeout);
    assert_eq!(cc.ssthresh(), 100 * MSS);
    let mut t = 1100;
    let mut feed = |cc: &mut CcEngine, rtt_ms: u64, n: usize| {
        for _ in 0..n {
            cc.on_ack(&rtt_view(t, rtt_ms), MSS);
            t += 20;
        }
    };
    while cc.cwnd() < 16 * MSS {
        feed(&mut cc, 100, 1);
    }
    feed(&mut cc, 100, 24);
    assert!(cc.in_slow_start(), "a flat RTT does not exit");
    // The rest of the 32-segment round, then the next round's 8 samples.
    feed(&mut cc, 130, 24 + 8);
    assert!(!cc.in_slow_start(), "the re-armed heuristics fire again");
    assert!(
        cc.ssthresh() < 100 * MSS,
        "HyStart set ssthresh, not the timeout"
    );
}

#[test]
fn restricted_resets_its_pid_only_on_a_timeout_and_keeps_its_set_point() {
    // Gains low enough that the output stays inside (0, 1) segment per
    // ACK, so the integral term shows in the growth.
    let algo = CcAlgorithm::Restricted(RssConfig {
        gains: PidGains::pi(0.05, 0.05),
        ..RssConfig::tuned()
    });
    let at = |now_ms: u64, ifq_max: u32| CcView {
        ifq_depth: 85,
        ifq_max,
        ..view(now_ms, 0)
    };
    let mut cc = build(algo, 2, u64::MAX / 2);
    let mut twin = build(algo, 2, u64::MAX / 2);
    for i in 0..10 {
        cc.on_ack(&at(i, 100), MSS);
        twin.on_ack(&at(i, 100), MSS);
    }
    assert!(cc.cwnd() < 5 * MSS, "throttled below one MSS per ACK");
    // Recovery events in slow-start leave the controller's state alone:
    // afterwards the two grow in step, one MSS apart.
    cc.on_recovery(&at(10, 100), RecoveryEvent::DupAck);
    cc.on_recovery(&at(10, 100), RecoveryEvent::PartialAck { newly_acked: MSS });
    for i in 10..20 {
        cc.on_ack(&at(i, 100), MSS);
        twin.on_ack(&at(i, 100), MSS);
        assert_eq!(cc.cwnd(), twin.cwnd() + MSS, "ack at {i} ms");
    }
    // A timeout resets the PID and the fractional credit but keeps the set
    // point taken from the first view (90 of 100): a fresh controller whose
    // first view reports the same 100-packet IFQ tracks it exactly, though
    // the views now say the IFQ holds 200.
    let lost = CcView {
        flight: 100 * MSS,
        ..at(20, 100)
    };
    cc.on_congestion(&lost, CongestionEvent::Timeout);
    assert_eq!((cc.cwnd(), cc.ssthresh()), (MSS, 50 * MSS));
    let mut fresh = build(algo, 1, u64::MAX / 2);
    for i in 100..120 {
        cc.on_ack(&at(i, 200), MSS);
        fresh.on_ack(&at(i, if i == 100 { 100 } else { 200 }), MSS);
        assert_eq!(cc.cwnd(), fresh.cwnd(), "ack at {i} ms");
    }
    assert!(cc.cwnd() < 15 * MSS, "still throttled: the set point is 90");
}
