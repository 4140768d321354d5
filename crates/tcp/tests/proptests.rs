//! Property-based tests for the TCP state machines.

use proptest::prelude::*;
use rss_sim::{SimDuration, SimTime};
use rss_tcp::{
    make_cc, CcAlgorithm, CcView, ConnId, RssConfig, ScalableConfig, SslConfig, TcpConfig,
    TcpReceiver,
};

proptest! {
    /// The receiver reassembles any permutation of segments (with arbitrary
    /// duplication) into exactly the original byte stream.
    #[test]
    fn receiver_reassembles_any_arrival_order(
        n_segments in 1usize..40,
        order in prop::collection::vec(0usize..40, 1..120),
        seg_len in 1u32..2000,
    ) {
        let total = n_segments as u64 * seg_len as u64;
        let mut r = TcpReceiver::new(ConnId(0), TcpConfig::default());
        let mut t = 0u64;
        // Deliver segments in the given (possibly duplicated) order...
        for &i in &order {
            let i = i % n_segments;
            t += 1;
            r.on_segment(SimTime::from_micros(t), i as u64 * seg_len as u64, seg_len);
        }
        // ...then deliver any still-missing segments in order.
        for i in 0..n_segments {
            t += 1;
            r.on_segment(SimTime::from_micros(t), i as u64 * seg_len as u64, seg_len);
        }
        prop_assert_eq!(r.rcv_nxt(), total, "stream not fully reassembled");
        prop_assert_eq!(r.ooo_bytes(), 0, "out-of-order data left behind");
    }

    /// The cumulative ACK never decreases and never exceeds the highest byte
    /// received.
    #[test]
    fn acks_are_monotone_and_bounded(
        arrivals in prop::collection::vec((0u64..30, 1u32..1500), 1..80),
    ) {
        let mut r = TcpReceiver::new(ConnId(0), TcpConfig::default());
        let mut highest_end = 0u64;
        let mut last_ack = 0u64;
        for (i, &(seg, len)) in arrivals.iter().enumerate() {
            let seq = seg * 1448;
            highest_end = highest_end.max(seq + len as u64);
            let a = r.on_segment(SimTime::from_micros(i as u64 + 1), seq, len);
            prop_assert!(a.ack >= last_ack, "ACK went backwards");
            prop_assert!(a.ack <= highest_end, "ACK beyond received data");
            last_ack = a.ack;
        }
    }

    /// Congestion-window algebra invariants hold for every algorithm under
    /// arbitrary ACK/congestion event sequences: cwnd stays within
    /// [1 MSS, initial + total_acked + inflation] and never hits zero.
    #[test]
    fn cc_window_stays_sane(
        algo_pick in 0u8..9,
        events in prop::collection::vec((0u8..4, 1u64..20_000), 1..300),
    ) {
        let cfg = TcpConfig::default();
        let algo = match algo_pick {
            0 => CcAlgorithm::Reno,
            1 => CcAlgorithm::Restricted(RssConfig::tuned()),
            2 => CcAlgorithm::Ssthreshless(SslConfig::default()),
            3 => CcAlgorithm::HighSpeed,
            4 => CcAlgorithm::Scalable(ScalableConfig::default()),
            5 => CcAlgorithm::Bbr,
            6 => CcAlgorithm::Relentless,
            7 => CcAlgorithm::Hybrid,
            _ => CcAlgorithm::Limited { max_ssthresh: None },
        };
        let mut cc = make_cc(algo, &cfg).expect("default config is valid");
        let mss = cfg.mss as u64;
        let mut now_us = 0u64;
        for &(kind, arg) in &events {
            now_us += 120;
            let view = CcView {
                now: SimTime::from_micros(now_us),
                flight: arg.min(cc.cwnd()),
                ifq_depth: (arg % 120) as u32,
                ifq_max: 100,
                // Exercise the delay-based arm: RTTs wander up to ~4x above
                // a fixed floor, so the ssthreshless probe exit fires on
                // some trajectories and not others.
                last_rtt: Some(SimDuration::from_micros(60_000 + (arg * 7919) % 180_000)),
                min_rtt: Some(SimDuration::from_micros(60_000)),
                // Wandering rate samples (with occasional app-limited marks)
                // drive the rate-based arms' bandwidth filters.
                delivery_rate: Some(1 + (arg * 104_729) % 10_000_000),
                app_limited: arg % 5 == 0,
            };
            match kind {
                0 => cc.on_ack(&view, arg.min(3 * mss)),
                1 => cc.on_congestion(&view, rss_tcp::CongestionEvent::Timeout),
                2 => cc.on_congestion(&view, rss_tcp::CongestionEvent::LocalStall),
                _ => cc.on_congestion(&view, rss_tcp::CongestionEvent::FastRetransmit),
            }
            prop_assert!(cc.cwnd() >= mss, "window collapsed below 1 MSS");
            prop_assert!(cc.ssthresh() >= 2 * mss, "ssthresh below the floor");
            prop_assert!(cc.cwnd() < u64::MAX / 4, "window diverged");
        }
    }

    /// The restricted scheme's defining property, for arbitrary IFQ
    /// trajectories: per-ACK growth never exceeds the standard slow-start
    /// increment.
    #[test]
    fn restricted_growth_bounded_by_standard(
        depths in prop::collection::vec(0u32..150, 1..500),
    ) {
        let cfg = TcpConfig::default();
        let mut cc = make_cc(CcAlgorithm::Restricted(RssConfig::tuned()), &cfg)
            .expect("default config is valid");
        let mss = cfg.mss as u64;
        let mut now_us = 0u64;
        let mut prev = cc.cwnd();
        for &d in &depths {
            now_us += 120;
            let view = CcView {
                now: SimTime::from_micros(now_us),
                flight: prev,
                ifq_depth: d.min(100),
                ifq_max: 100,
                last_rtt: None,
                min_rtt: None,
                delivery_rate: None,
                app_limited: false,
            };
            cc.on_ack(&view, mss);
            prop_assert!(
                cc.cwnd() <= prev + mss,
                "grew more than one MSS on one ACK"
            );
            prev = cc.cwnd();
        }
    }

    /// Sender-level fuzz: a bounded transfer driven by arbitrary interleaved
    /// transmissions, cumulative and duplicate ACKs, ECN echoes, send-stalls
    /// and timer fires never violates flight/window accounting, and loss
    /// recovery keeps its shape: a retransmitted hole starts at `snd_una`
    /// and is at most one MSS, fast retransmit counts exactly the entries
    /// into recovery, and a timeout ends recovery.
    #[test]
    fn sender_accounting_invariants(
        script in prop::collection::vec((0u8..6, 1u64..5), 1..200),
    ) {
        use rss_tcp::{IfqSnapshot, TcpSender};
        let cfg = TcpConfig {
            mss: 1000,
            ..TcpConfig::default()
        };
        let cc = make_cc(CcAlgorithm::Reno, &cfg).unwrap();
        let mut s = TcpSender::new(ConnId(0), cfg, cc, Some(200_000));
        let ifq = IfqSnapshot { depth: 0, max: 100 };
        let mut now = SimTime::ZERO;
        for &(op, amount) in &script {
            now += rss_sim::SimDuration::from_millis(10);
            let was_recovering = s.in_recovery();
            let fast_retran = s.web100().vars().fast_retran;
            match op {
                0 => {
                    // Transmit as allowed. A plan that is not the next new
                    // byte (nor a go-back-N resend from it) is the hole.
                    while let Some(p) = s.can_transmit(now) {
                        if p.seq != s.snd_nxt() {
                            prop_assert!(p.retransmit, "{:?}", p);
                            prop_assert_eq!(p.seq, s.snd_una());
                            prop_assert!(p.len > 0 && p.len <= 1000, "{:?}", p);
                        }
                        s.commit_transmit(now, p);
                    }
                }
                1 => {
                    // Cumulative ACK for `amount` segments (bounded by nxt).
                    let ack = (s.snd_una() + amount * 1000).min(s.snd_nxt());
                    if ack > 0 {
                        s.on_ack(now, ack, 1_000_000, ifq);
                    }
                }
                2 => {
                    if let Some(d) = s.rto_deadline() {
                        // Firing the timer advances the wall clock to the
                        // deadline; keep the script's clock monotone.
                        now = now.max(d);
                        if s.on_rto_check(now, ifq) {
                            prop_assert!(!s.in_recovery(), "recovery survived a timeout");
                        }
                    }
                }
                3 => {
                    // `amount` duplicate ACKs.
                    for _ in 0..amount {
                        s.on_ack(now, s.snd_una(), 1_000_000, ifq);
                    }
                }
                4 => s.on_ecn_echo(now, ifq),
                _ => s.on_local_stall(now, IfqSnapshot { depth: 100, max: 100 }),
            }
            let entered = !was_recovering && s.in_recovery();
            prop_assert_eq!(
                s.web100().vars().fast_retran - fast_retran,
                u64::from(entered),
                "fast retransmits vs entries into recovery"
            );
            prop_assert!(s.snd_una() <= s.snd_nxt(), "una passed nxt");
            prop_assert_eq!(s.flight(), s.snd_nxt() - s.snd_una());
            prop_assert!(s.snd_nxt() <= 200_000 + 1000, "sent past app data");
        }
    }
}
