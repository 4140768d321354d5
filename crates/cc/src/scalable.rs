//! Scalable TCP (Kelly 2003) — the LFN survey's MIMD representative
//! (arXiv:1705.08929 §III). Standard TCP's recovery time after one loss
//! grows linearly with the window (AIMD: halve, then add one segment per
//! RTT); Scalable makes both responses *multiplicative* — grow by a fixed
//! 1/`ai_cnt` of each acked byte, back off by a fixed 1/8 — so the recovery
//! time becomes a constant number of RTTs at any rate.
//!
//! Slow-start and NewReno recovery mechanics are the standard baseline; only
//! the congestion-avoidance increase and the decrease factor change (the
//! paper's scheme is exactly this delta over Reno).

use crate::reno::Reno;
use crate::{CcView, CongestionControl, CongestionEvent, RecoveryEvent};
use serde::{Deserialize, Serialize};

/// Configuration of the Scalable TCP controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScalableConfig {
    /// Per-ACK additive increase denominator: the window grows by
    /// `newly_acked / ai_cnt` bytes per ACK (Kelly's a = 0.01 ⇒ 100).
    pub ai_cnt: u32,
}

impl Default for ScalableConfig {
    fn default() -> Self {
        ScalableConfig { ai_cnt: 100 }
    }
}

/// Scalable TCP window management: MIMD growth with a fixed 1/8 backoff.
#[derive(Debug, Clone)]
pub struct ScalableTcp {
    base: Reno,
    cfg: ScalableConfig,
    mss: u64,
    /// Byte accumulator for the fractional per-ACK increase.
    ai_accum: u64,
}

impl ScalableTcp {
    /// Create a Scalable controller.
    pub fn new(initial_cwnd: u64, initial_ssthresh: u64, mss: u32, cfg: ScalableConfig) -> Self {
        assert!(cfg.ai_cnt > 0, "ai_cnt must be positive");
        ScalableTcp {
            base: Reno::new(initial_cwnd, initial_ssthresh, mss),
            cfg,
            mss: mss as u64,
            ai_accum: 0,
        }
    }

    /// The configured increase denominator.
    pub fn ai_cnt(&self) -> u32 {
        self.cfg.ai_cnt
    }

    /// The fixed multiplicative decrease: `ssthresh = max(7/8 · flight,
    /// 2 MSS)` — Kelly's b = 0.125 applied where the Reno baseline halves.
    fn reduce(&mut self, view: &CcView) {
        let kept = view.flight - view.flight / 8;
        self.base.force_ssthresh(kept.max(2 * self.mss));
    }
}

impl CongestionControl for ScalableTcp {
    fn cwnd(&self) -> u64 {
        self.base.cwnd()
    }

    fn ssthresh(&self) -> u64 {
        self.base.ssthresh()
    }

    fn on_ack(&mut self, view: &CcView, newly_acked: u64) {
        if self.in_slow_start() {
            self.base.on_ack(view, newly_acked);
            return;
        }
        // cwnd += newly_acked / ai_cnt, with the sub-byte remainder carried
        // so slow trickles of small ACKs still grow the window.
        self.ai_accum += newly_acked.min(2 * self.mss);
        let grow = self.ai_accum / self.cfg.ai_cnt as u64;
        if grow > 0 {
            self.ai_accum -= grow * self.cfg.ai_cnt as u64;
            self.base.force_cwnd(self.base.cwnd() + grow);
        }
    }

    fn on_congestion(&mut self, view: &CcView, ev: CongestionEvent) {
        match ev {
            CongestionEvent::FastRetransmit => {
                self.reduce(view);
                self.base.force_cwnd(self.base.ssthresh() + 3 * self.mss);
            }
            CongestionEvent::Timeout => {
                self.reduce(view);
                self.base.force_cwnd(self.mss);
                self.ai_accum = 0;
            }
            CongestionEvent::LocalStall => {
                self.reduce(view);
                self.base.force_cwnd(self.base.ssthresh());
                self.ai_accum = 0;
            }
        }
    }

    fn on_recovery(&mut self, view: &CcView, ev: RecoveryEvent) {
        self.base.on_recovery(view, ev);
        if matches!(ev, RecoveryEvent::Exit { .. }) {
            self.ai_accum = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_view;

    const MSS: u32 = 1000;

    fn stcp(cwnd_segments: u64, ssthresh_segments: u64) -> ScalableTcp {
        ScalableTcp::new(
            cwnd_segments * MSS as u64,
            ssthresh_segments * MSS as u64,
            MSS,
            ScalableConfig::default(),
        )
    }

    #[test]
    fn growth_is_proportional_to_the_window() {
        // MIMD signature: a window of ACKs grows the window by a fixed
        // *fraction* (1/100), so a 10x window grows 10x as many bytes/RTT.
        for w in [100u64, 1000] {
            let mut cc = stcp(w, 5);
            assert!(!cc.in_slow_start());
            let before = cc.cwnd();
            for _ in 0..w {
                cc.on_ack(&test_view(0, 0), MSS as u64);
            }
            let grown = cc.cwnd() - before;
            let expect = w * MSS as u64 / 100;
            assert!(
                grown >= expect - 1 && grown <= expect + 1,
                "w={w}: grew {grown} bytes, expected ~{expect}"
            );
        }
    }

    #[test]
    fn backoff_is_one_eighth() {
        let mut cc = stcp(800, 5);
        let flight = 800 * MSS as u64;
        cc.on_congestion(&test_view(0, flight), CongestionEvent::FastRetransmit);
        assert_eq!(cc.ssthresh(), flight - flight / 8);
        cc.on_recovery(
            &test_view(0, flight),
            RecoveryEvent::Exit { newly_acked: 0 },
        );
        assert_eq!(cc.cwnd(), flight - flight / 8);
    }

    #[test]
    fn slow_start_is_standard() {
        let mut cc = stcp(2, u64::MAX / 2 / MSS as u64);
        let v = test_view(0, 0);
        cc.on_ack(&v, MSS as u64);
        cc.on_ack(&v, MSS as u64);
        assert_eq!(cc.cwnd(), 4 * MSS as u64);
    }

    #[test]
    fn sub_ai_cnt_acks_accumulate() {
        let mut cc = stcp(50, 5);
        let v = test_view(0, 0);
        // 99 bytes acked: no growth yet; the 100th byte tips it.
        cc.on_ack(&v, 99);
        let before = cc.cwnd();
        cc.on_ack(&v, 1);
        assert_eq!(cc.cwnd(), before + 1);
    }

    #[test]
    fn timeout_restarts_from_one_segment() {
        let mut cc = stcp(400, 5);
        let v = test_view(0, 300 * MSS as u64);
        cc.on_congestion(&v, CongestionEvent::Timeout);
        assert_eq!(cc.cwnd(), MSS as u64);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn stall_cwr_backs_off_and_leaves_slow_start() {
        let mut cc = stcp(400, 5);
        let flight = 300 * MSS as u64;
        cc.on_congestion(&test_view(0, flight), CongestionEvent::LocalStall);
        assert_eq!(cc.cwnd(), flight - flight / 8);
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn name_and_params() {
        let cc = stcp(2, 2);
        assert_eq!(
            crate::registry::find("scalable").unwrap().algo,
            "scalable-tcp"
        );
        assert_eq!(cc.ai_cnt(), 100);
    }
}
