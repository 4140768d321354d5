//! Limited Slow-Start (RFC 3742) — the era's other proposal for taming
//! slow-start on big-BDP paths, used as an extension baseline
//! (`scenarios/slow_start_variants.json`). Where the paper's scheme closes a feedback loop on the host IFQ,
//! RFC 3742 simply caps the exponential phase open-loop once the window
//! passes `max_ssthresh`.

use crate::reno::Reno;
use crate::{CcView, CongestionControl, CongestionEvent, RecoveryEvent};

/// RFC 3742 window management: Reno everywhere except the slow-start growth
/// rule.
#[derive(Debug, Clone)]
pub struct LimitedSlowStart {
    base: Reno,
    /// The `max_ssthresh` parameter, bytes (RFC suggests 100 segments).
    max_ssthresh: u64,
    mss: u64,
}

impl LimitedSlowStart {
    /// Create with the RFC's recommended `max_ssthresh` of 100 segments.
    pub fn new(initial_cwnd: u64, initial_ssthresh: u64, mss: u32) -> Self {
        Self::with_max_ssthresh(initial_cwnd, initial_ssthresh, mss, 100 * mss as u64)
    }

    /// Create with an explicit `max_ssthresh` (bytes).
    pub fn with_max_ssthresh(
        initial_cwnd: u64,
        initial_ssthresh: u64,
        mss: u32,
        max_ssthresh: u64,
    ) -> Self {
        assert!(max_ssthresh >= 2 * mss as u64);
        LimitedSlowStart {
            base: Reno::new(initial_cwnd, initial_ssthresh, mss),
            max_ssthresh,
            mss: mss as u64,
        }
    }

    /// The configured `max_ssthresh` in bytes.
    pub fn max_ssthresh(&self) -> u64 {
        self.max_ssthresh
    }
}

impl CongestionControl for LimitedSlowStart {
    fn cwnd(&self) -> u64 {
        self.base.cwnd()
    }

    fn ssthresh(&self) -> u64 {
        self.base.ssthresh()
    }

    fn on_ack(&mut self, view: &CcView, newly_acked: u64) {
        if !self.in_slow_start() {
            self.base.on_ack(view, newly_acked);
            return;
        }
        let cwnd = self.base.cwnd();
        if cwnd <= self.max_ssthresh {
            // Below max_ssthresh: standard doubling.
            self.base.slow_start_ack(newly_acked);
        } else {
            // RFC 3742: K = int(cwnd / (0.5 max_ssthresh));
            //           cwnd += int(MSS / K) per arriving ACK
            // — at most max_ssthresh/2 segments of growth per RTT.
            let k = (cwnd / (self.max_ssthresh / 2)).max(1);
            let inc = (self.mss / k).max(1);
            self.base
                .force_cwnd(cwnd + inc.min(newly_acked.min(self.mss)));
        }
    }

    fn on_congestion(&mut self, view: &CcView, ev: CongestionEvent) {
        self.base.on_congestion(view, ev);
    }

    fn on_recovery(&mut self, view: &CcView, ev: RecoveryEvent) {
        self.base.on_recovery(view, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_view;

    const MSS: u32 = 1000;

    fn lss(max_ss_segments: u64) -> LimitedSlowStart {
        LimitedSlowStart::with_max_ssthresh(
            2 * MSS as u64,
            u64::MAX / 2,
            MSS,
            max_ss_segments * MSS as u64,
        )
    }

    #[test]
    fn standard_growth_below_max_ssthresh() {
        let mut cc = lss(100);
        let v = test_view(0, 0);
        let start = cc.cwnd();
        for _ in 0..10 {
            cc.on_ack(&v, MSS as u64);
        }
        assert_eq!(cc.cwnd(), start + 10 * MSS as u64);
    }

    #[test]
    fn growth_limited_above_max_ssthresh() {
        let mut cc = lss(10);
        let v = test_view(0, 0);
        // Push cwnd to 20 segments (double max_ssthresh).
        cc.base.force_cwnd(20 * MSS as u64);
        // K = 20/(10/2) = 4 -> inc = MSS/4 per ACK.
        cc.on_ack(&v, MSS as u64);
        assert_eq!(cc.cwnd(), 20 * MSS as u64 + MSS as u64 / 4);
    }

    #[test]
    fn per_rtt_growth_is_bounded_by_half_max_ssthresh() {
        let mut cc = lss(10);
        let v = test_view(0, 0);
        cc.base.force_cwnd(40 * MSS as u64);
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
        let mut cc = lss(10);
        let v = test_view(0, 30 * MSS as u64);
        cc.on_congestion(&v, CongestionEvent::FastRetransmit);
        assert_eq!(cc.ssthresh(), 15 * MSS as u64);
        cc.on_recovery(&v, RecoveryEvent::Exit { newly_acked: 0 });
        assert_eq!(cc.cwnd(), 15 * MSS as u64);
    }

    #[test]
    fn name_and_param_accessors() {
        let cc = lss(50);
        assert_eq!(
            crate::registry::find("limited").unwrap().algo,
            "limited-slow-start"
        );
        assert_eq!(cc.max_ssthresh(), 50 * MSS as u64);
    }
}
