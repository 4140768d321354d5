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

/// Congestion-avoidance growth for one ACK: `cwnd += newly_acked /
/// ai_cnt`, with the sub-byte remainder carried in `accum` so slow trickles
/// of small ACKs still grow the window.
pub(crate) fn grow(r: &mut Reno, ai_cnt: u32, accum: &mut u64, newly_acked: u64) {
    *accum += newly_acked.min(2 * r.mss);
    let grow = *accum / ai_cnt as u64;
    if grow > 0 {
        *accum -= grow * ai_cnt as u64;
        r.cwnd += grow;
    }
}

/// The fixed multiplicative decrease: a loss keeps 7/8 of the flight —
/// Kelly's b = 0.125 applied where the Reno baseline halves.
pub(crate) fn kept(flight: u64) -> u64 {
    flight - flight / 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reno::Avoidance;
    use crate::{test_engine, test_view, CcAlgorithm, CcEngine};
    use crate::{CongestionEvent, RecoveryEvent};

    const MSS: u32 = 1000;

    fn stcp(cwnd_segments: u64, ssthresh_segments: u64) -> CcEngine {
        let (cwnd, ssthresh) = (cwnd_segments * MSS as u64, ssthresh_segments * MSS as u64);
        let algo = CcAlgorithm::Scalable(ScalableConfig::default());
        test_engine(algo, cwnd, ssthresh, MSS)
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
        assert!(matches!(
            cc.window().avoid,
            Avoidance::Scalable { ai_cnt: 100, .. }
        ));
    }
}
