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
use crate::{CcView, RecoveryEvent};

/// Relentless recovery state. Growth and the timeout and stall responses
/// are Reno's; only fast recovery and the ECN echo change.
#[derive(Debug, Default)]
pub(crate) struct RelentlessRecovery {
    /// Window to restore at recovery exit: the pre-loss window minus one MSS
    /// per detected loss (Reno's exit would deflate to `ssthresh` instead),
    /// plus congestion-avoidance credit earned while recovering.
    target: u64,
    /// Byte-counting accumulator for in-recovery congestion avoidance:
    /// `target` gains one MSS per `target` bytes delivered. Separate from
    /// Reno's accumulator, which a stall or timeout mid-recovery clears.
    credit: u64,
}

impl RelentlessRecovery {
    /// One detected loss: take exactly one segment off the recovery target,
    /// never below the two-segment floor the rest of the stack assumes.
    fn charge_one_loss(&mut self, r: &Reno) {
        self.target = self.target.saturating_sub(r.mss).max(r.floor());
    }

    /// Congestion-avoidance growth for bytes cumulatively ACKed during
    /// recovery: one MSS per `target` bytes, byte-counted.
    fn credit_growth(&mut self, r: &Reno, newly_acked: u64) {
        if self.target == 0 {
            return;
        }
        self.credit += newly_acked;
        while self.credit >= self.target {
            self.credit -= self.target;
            self.target += r.mss;
        }
    }

    /// Fast retransmit: enter recovery owing one segment (the
    /// fast-retransmitted hole). Keep Reno's in-recovery inflation baseline
    /// so dup-ACK inflation and partial-ACK deflation behave as usual, but
    /// pin ssthresh to the target so the exit lands there and congestion
    /// avoidance resumes — no slow-start burst, no halving.
    pub(crate) fn enter(&mut self, r: &mut Reno) {
        self.target = r.cwnd;
        self.credit = 0;
        self.charge_one_loss(r);
        r.ssthresh = self.target;
        r.cwnd = self.target + 3 * r.mss;
    }

    pub(crate) fn on_recovery(&mut self, r: &mut Reno, view: &CcView, ev: RecoveryEvent) {
        match ev {
            RecoveryEvent::PartialAck { newly_acked } => {
                // Each partial ACK exposes exactly one more retransmission
                // hole: one more lost segment to pay for...
                self.charge_one_loss(r);
                // ...but the bytes it cumulatively acknowledges were
                // delivered, and Relentless keeps congestion avoidance
                // running through recovery.
                self.credit_growth(r, newly_acked);
                r.ssthresh = self.target;
            }
            RecoveryEvent::Exit { newly_acked } => {
                // A single-loss episode delivers almost the whole window in
                // the recovery-closing jump; credit it before Reno deflates
                // cwnd to ssthresh.
                self.credit_growth(r, newly_acked);
                r.ssthresh = self.target;
            }
            RecoveryEvent::DupAck => {}
            RecoveryEvent::EcnEcho => {
                // A CE mark is one congestion signal, not a loss: decrease by
                // exactly one segment, in the spirit of decrease-by-losses,
                // instead of Reno's CWR halving (which would also clear
                // Reno's accumulator).
                let target = r.cwnd.saturating_sub(r.mss).max(r.floor());
                r.ssthresh = target;
                r.cwnd = target;
                return;
            }
        }
        r.on_recovery(view, ev);
    }
}

#[cfg(test)]
mod tests {
    use crate::{test_engine, test_view, CcAlgorithm, CcEngine};
    use crate::{CongestionEvent, RecoveryEvent};

    const MSS: u32 = 1000;

    /// Relentless in congestion avoidance at `cwnd_segments`.
    fn relentless(cwnd_segments: u64) -> CcEngine {
        let cwnd = cwnd_segments * MSS as u64;
        test_engine(CcAlgorithm::Relentless, cwnd, 2 * MSS as u64, MSS)
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
