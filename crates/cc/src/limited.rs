//! Limited Slow-Start (RFC 3742) — the era's other proposal for taming
//! slow-start on big-BDP paths, used as an extension baseline
//! (`scenarios/slow_start_variants.json`). Where the paper's scheme closes a feedback loop on the host IFQ,
//! RFC 3742 simply caps the exponential phase open-loop once the window
//! passes `max_ssthresh`.

use crate::reno::Reno;

/// RFC 3742 growth for one ACK once the window is past `max_ssthresh` but
/// still below ssthresh. Returns `false`, leaving the ACK to standard
/// slow-start or to congestion avoidance, everywhere else.
pub(crate) fn on_ack(r: &mut Reno, max_ssthresh: u64, newly_acked: u64) -> bool {
    if r.cwnd >= r.ssthresh || r.cwnd <= max_ssthresh {
        return false;
    }
    // RFC 3742: K = int(cwnd / (0.5 max_ssthresh));
    //           cwnd += int(MSS / K) per arriving ACK
    // — at most max_ssthresh/2 segments of growth per RTT.
    let k = (r.cwnd / (max_ssthresh / 2)).max(1);
    let inc = (r.mss / k).max(1);
    r.cwnd += inc.min(newly_acked.min(r.mss));
    true
}

#[cfg(test)]
mod tests {
    use crate::reno::SlowStart;
    use crate::{test_engine, test_view, CcAlgorithm, CcEngine};
    use crate::{CongestionEvent, RecoveryEvent};

    const MSS: u32 = 1000;

    /// Limited slow-start at `cwnd_segments`, far below ssthresh.
    fn lss(max_ss_segments: u64, cwnd_segments: u64) -> CcEngine {
        let algo = CcAlgorithm::Limited {
            max_ssthresh: Some(max_ss_segments * MSS as u64),
        };
        test_engine(algo, cwnd_segments * MSS as u64, u64::MAX / 2, MSS)
    }

    #[test]
    fn standard_growth_below_max_ssthresh() {
        let mut cc = lss(100, 2);
        let v = test_view(0, 0);
        let start = cc.cwnd();
        for _ in 0..10 {
            cc.on_ack(&v, MSS as u64);
        }
        assert_eq!(cc.cwnd(), start + 10 * MSS as u64);
    }

    #[test]
    fn growth_limited_above_max_ssthresh() {
        // cwnd at 20 segments, double max_ssthresh.
        let mut cc = lss(10, 20);
        let v = test_view(0, 0);
        // K = 20/(10/2) = 4 -> inc = MSS/4 per ACK.
        cc.on_ack(&v, MSS as u64);
        assert_eq!(cc.cwnd(), 20 * MSS as u64 + MSS as u64 / 4);
    }

    #[test]
    fn per_rtt_growth_is_bounded_by_half_max_ssthresh() {
        let mut cc = lss(10, 40);
        let v = test_view(0, 0);
        // A whole window of ACKs (40 segments): growth must be at most
        // max_ssthresh/2 = 5 segments.
        let before = cc.cwnd();
        for _ in 0..40 {
            cc.on_ack(&v, MSS as u64);
        }
        let grown = cc.cwnd() - before;
        assert!(
            grown <= 5 * MSS as u64 + MSS as u64, // one-ACK slack for rounding
            "grew {grown} bytes in one RTT"
        );
        assert!(grown >= 4 * MSS as u64, "should still grow meaningfully");
    }

    #[test]
    fn loss_behaviour_is_reno() {
        let mut cc = lss(10, 2);
        let v = test_view(0, 30 * MSS as u64);
        cc.on_congestion(&v, CongestionEvent::FastRetransmit);
        assert_eq!(cc.ssthresh(), 15 * MSS as u64);
        cc.on_recovery(&v, RecoveryEvent::Exit { newly_acked: 0 });
        assert_eq!(cc.cwnd(), 15 * MSS as u64);
    }

    #[test]
    fn name_and_param_accessors() {
        assert_eq!(
            crate::registry::find("limited").unwrap().algo,
            "limited-slow-start"
        );
        let max_ssthresh = |cc: &CcEngine| match cc.window().start {
            SlowStart::Limited { max_ssthresh } => max_ssthresh,
            ref other => panic!("{other:?}"),
        };
        assert_eq!(max_ssthresh(&lss(50, 2)), 50 * MSS as u64);
        // No max_ssthresh: the RFC's 100 segments.
        let rfc = CcAlgorithm::Limited { max_ssthresh: None };
        let cc = test_engine(rfc, 2 * MSS as u64, u64::MAX / 2, MSS);
        assert_eq!(max_ssthresh(&cc), 100 * MSS as u64);
    }
}
