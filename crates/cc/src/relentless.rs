//! Relentless congestion control (Mathis, arXiv:1102.3270).
//!
//! Standard TCP halves the window on any loss event, however small; the
//! Relentless modification decreases the window by *exactly the number of
//! segments lost* instead. Growth is untouched (standard slow-start and
//! one-MSS-per-RTT congestion avoidance), so under a random per-segment loss
//! probability `p` the window settles where growth balances loss:
//!
//! > one segment gained per RTT = `W · p` segments lost per RTT,
//! > hence `W = 1/p` segments and goodput ≈ `MSS / (p · RTT)`
//!
//! (valid while `1/p` fits inside the path's BDP and the receiver window).
//! That closed form is asserted against the simulator by a workspace test,
//! so the implementation cannot drift from the model unnoticed.
//!
//! Mapping onto this sender's recovery machinery: the fast-retransmit signal
//! itself accounts for the first lost segment, and every partial ACK during
//! recovery exposes exactly one further retransmission hole, so each
//! subtracts one more MSS. Congestion-avoidance growth keeps running *through*
//! recovery — Relentless updates the window on every ACK, so delivered bytes
//! earn their 1-MSS-per-window increase even while holes are being repaired.
//! That detail is load-bearing for the closed form: a NewReno episode repairs
//! one hole per RTT, so at the `W = 1/p` equilibrium (one loss per RTT) the
//! connection spends most of its time in recovery, and suspending growth
//! there would depress the balance point to a fraction of `1/p`. Timeouts
//! remain the standard Reno response — the scheme relaxes fast recovery, not
//! the conservation-of-packets fallback.

use crate::reno::Reno;
use crate::{CcView, CongestionControl, CongestionEvent, RecoveryEvent};

/// Relentless window management: Reno growth, decrease-by-losses recovery.
#[derive(Debug, Clone)]
pub struct RelentlessCc {
    base: Reno,
    mss: u64,
    /// Window to restore at recovery exit: the pre-loss window minus one MSS
    /// per detected loss (Reno's exit would deflate to `ssthresh` instead),
    /// plus congestion-avoidance credit earned while recovering.
    recovery_target: u64,
    /// Byte-counting accumulator for in-recovery congestion avoidance:
    /// `recovery_target` gains one MSS per `recovery_target` bytes delivered.
    ca_accum: u64,
}

impl RelentlessCc {
    /// Create with an initial window and threshold.
    pub fn new(initial_cwnd: u64, initial_ssthresh: u64, mss: u32) -> Self {
        RelentlessCc {
            base: Reno::new(initial_cwnd, initial_ssthresh, mss),
            mss: mss as u64,
            recovery_target: 0,
            ca_accum: 0,
        }
    }

    /// One detected loss: take exactly one segment off the recovery target,
    /// never below the two-segment floor the rest of the stack assumes.
    fn charge_one_loss(&mut self) {
        self.recovery_target = self
            .recovery_target
            .saturating_sub(self.mss)
            .max(2 * self.mss);
    }

    /// Congestion-avoidance growth for bytes cumulatively ACKed during
    /// recovery: one MSS per `recovery_target` bytes, byte-counted.
    fn credit_growth(&mut self, newly_acked: u64) {
        if self.recovery_target == 0 {
            return;
        }
        self.ca_accum += newly_acked;
        while self.ca_accum >= self.recovery_target {
            self.ca_accum -= self.recovery_target;
            self.recovery_target += self.mss;
        }
    }
}

impl CongestionControl for RelentlessCc {
    fn cwnd(&self) -> u64 {
        self.base.cwnd()
    }

    fn ssthresh(&self) -> u64 {
        self.base.ssthresh()
    }

    fn on_ack(&mut self, view: &CcView, newly_acked: u64) {
        self.base.on_ack(view, newly_acked);
    }

    fn on_congestion(&mut self, view: &CcView, ev: CongestionEvent) {
        match ev {
            CongestionEvent::FastRetransmit => {
                // Enter recovery owing one segment (the fast-retransmitted
                // hole). Keep Reno's in-recovery inflation baseline so dup-ACK
                // inflation and partial-ACK deflation behave as usual, but pin
                // ssthresh to the target so the exit lands there and
                // congestion avoidance resumes — no slow-start burst, no
                // halving.
                self.recovery_target = self.base.cwnd();
                self.ca_accum = 0;
                self.charge_one_loss();
                self.base.force_ssthresh(self.recovery_target);
                self.base.force_cwnd(self.recovery_target + 3 * self.mss);
            }
            CongestionEvent::Timeout | CongestionEvent::LocalStall => {
                // Standard responses: Relentless only changes fast recovery.
                self.base.on_congestion(view, ev);
            }
        }
    }

    fn on_recovery(&mut self, view: &CcView, ev: RecoveryEvent) {
        match ev {
            RecoveryEvent::PartialAck { newly_acked } => {
                // Each partial ACK exposes exactly one more retransmission
                // hole: one more lost segment to pay for...
                self.charge_one_loss();
                // ...but the bytes it cumulatively acknowledges were
                // delivered, and Relentless keeps congestion avoidance
                // running through recovery.
                self.credit_growth(newly_acked);
                self.base.force_ssthresh(self.recovery_target);
            }
            RecoveryEvent::Exit { newly_acked } => {
                // A single-loss episode delivers almost the whole window in
                // the recovery-closing jump; credit it before the base
                // deflates cwnd to ssthresh.
                self.credit_growth(newly_acked);
                self.base.force_ssthresh(self.recovery_target);
            }
            RecoveryEvent::DupAck => {}
            RecoveryEvent::EcnEcho => {
                // A CE mark is one congestion signal, not a loss: decrease by
                // exactly one segment, in the spirit of decrease-by-losses,
                // instead of delegating to the base's CWR halving. Early
                // return — the unconditional base delegation below would
                // halve on top of this.
                let target = self.base.cwnd().saturating_sub(self.mss).max(2 * self.mss);
                self.base.force_ssthresh(target);
                self.base.force_cwnd(target);
                return;
            }
        }
        self.base.on_recovery(view, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_view;

    const MSS: u32 = 1000;

    fn relentless(cwnd_segments: u64) -> RelentlessCc {
        let mut cc = RelentlessCc::new(2 * MSS as u64, u64::MAX / 2, MSS);
        cc.base.force_cwnd(cwnd_segments * MSS as u64);
        cc.base.force_ssthresh(2 * MSS as u64); // congestion avoidance
        cc
    }

    #[test]
    fn growth_is_reno() {
        let mut cc = relentless(10);
        let v = test_view(0, 0);
        for _ in 0..10 {
            cc.on_ack(&v, MSS as u64);
        }
        assert_eq!(cc.cwnd(), 11 * MSS as u64, "1 MSS per window of ACKs");
    }

    #[test]
    fn single_loss_costs_exactly_one_segment() {
        let mut cc = relentless(100);
        let v = test_view(0, 100 * MSS as u64);
        cc.on_congestion(&v, CongestionEvent::FastRetransmit);
        cc.on_recovery(&v, RecoveryEvent::Exit { newly_acked: 0 });
        assert_eq!(cc.cwnd(), 99 * MSS as u64, "decrease by the one loss");
        assert!(!cc.in_slow_start(), "resumes congestion avoidance");
    }

    #[test]
    fn each_partial_ack_costs_one_more_segment() {
        let mut cc = relentless(100);
        let v = test_view(0, 100 * MSS as u64);
        cc.on_congestion(&v, CongestionEvent::FastRetransmit);
        // Three further holes surface as three partial ACKs.
        for _ in 0..3 {
            cc.on_recovery(
                &v,
                RecoveryEvent::PartialAck {
                    newly_acked: MSS as u64,
                },
            );
        }
        cc.on_recovery(&v, RecoveryEvent::Exit { newly_acked: 0 });
        assert_eq!(cc.cwnd(), 96 * MSS as u64, "four losses, four segments");
    }

    #[test]
    fn congestion_avoidance_keeps_running_through_recovery() {
        let mut cc = relentless(100);
        let v = test_view(0, 100 * MSS as u64);
        cc.on_congestion(&v, CongestionEvent::FastRetransmit);
        // One RTT of recovery: the partial ACK both exposes a second hole
        // (one segment charged) and acknowledges a window's worth of
        // delivered data (one segment earned). Two losses, one growth.
        cc.on_recovery(
            &v,
            RecoveryEvent::PartialAck {
                newly_acked: 99 * MSS as u64,
            },
        );
        cc.on_recovery(&v, RecoveryEvent::Exit { newly_acked: 0 });
        assert_eq!(
            cc.cwnd(),
            99 * MSS as u64,
            "two losses paid, one window of ACKs earned back one MSS"
        );
    }

    #[test]
    fn the_recovery_exit_jump_counts_toward_growth() {
        let mut cc = relentless(100);
        let v = test_view(0, 100 * MSS as u64);
        cc.on_congestion(&v, CongestionEvent::FastRetransmit);
        // Single-loss episode: the whole window is acknowledged by the
        // recovery-closing jump. One segment paid, one earned back.
        cc.on_recovery(
            &v,
            RecoveryEvent::Exit {
                newly_acked: 99 * MSS as u64,
            },
        );
        assert_eq!(
            cc.cwnd(),
            100 * MSS as u64,
            "one loss paid, one window delivered: the window holds"
        );
    }

    #[test]
    fn decrease_floors_at_two_segments() {
        let mut cc = relentless(3);
        let v = test_view(0, 3 * MSS as u64);
        cc.on_congestion(&v, CongestionEvent::FastRetransmit);
        for _ in 0..5 {
            cc.on_recovery(
                &v,
                RecoveryEvent::PartialAck {
                    newly_acked: MSS as u64,
                },
            );
        }
        cc.on_recovery(&v, RecoveryEvent::Exit { newly_acked: 0 });
        assert_eq!(cc.cwnd(), 2 * MSS as u64);
    }

    #[test]
    fn ecn_echo_costs_exactly_one_segment() {
        let mut cc = relentless(100);
        let v = test_view(0, 100 * MSS as u64);
        cc.on_recovery(&v, RecoveryEvent::EcnEcho);
        assert_eq!(cc.cwnd(), 99 * MSS as u64, "one mark, one segment");
        assert!(!cc.in_slow_start(), "stays in congestion avoidance");
        // Floors at two segments like every other decrease.
        let mut small = relentless(2);
        small.on_recovery(&v, RecoveryEvent::EcnEcho);
        assert_eq!(small.cwnd(), 2 * MSS as u64);
    }

    #[test]
    fn timeout_is_standard() {
        let mut cc = relentless(64);
        let v = test_view(0, 64 * MSS as u64);
        cc.on_congestion(&v, CongestionEvent::Timeout);
        assert_eq!(cc.cwnd(), MSS as u64, "loss window");
        assert_eq!(cc.ssthresh(), 32 * MSS as u64, "standard halving");
        assert!(cc.in_slow_start());
    }
}
