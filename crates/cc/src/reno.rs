//! Standard TCP congestion control (RFC 5681 slow-start and congestion
//! avoidance, NewReno-style recovery window management) — the Linux 2.4.19
//! baseline of the paper's §4, including its response to local send-stalls.

use crate::{CcView, CongestionControl, CongestionEvent, RecoveryEvent};

/// Reno/NewReno window management.
#[derive(Debug, Clone)]
pub struct Reno {
    cwnd: u64,
    ssthresh: u64,
    mss: u64,
    /// Byte accumulator for congestion-avoidance growth (appropriate byte
    /// counting of the classic `cwnd += MSS²/cwnd` per ACK).
    ca_accum: u64,
}

impl Reno {
    /// Create with an initial window and threshold.
    pub fn new(initial_cwnd: u64, initial_ssthresh: u64, mss: u32) -> Self {
        assert!(mss > 0);
        Reno {
            cwnd: initial_cwnd,
            ssthresh: initial_ssthresh,
            mss: mss as u64,
            ca_accum: 0,
        }
    }

    /// Minimum window: 2 segments, the RFC 5681 loss-window floor the
    /// simulation uses throughout (1-MSS windows deadlock with delayed ACKs).
    fn floor(&self) -> u64 {
        2 * self.mss
    }

    fn halve(&mut self, view: &CcView) {
        self.ssthresh = (view.flight / 2).max(self.floor());
    }

    /// Overwrite the window directly (used by wrapping algorithms that
    /// compute their own slow-start growth, e.g. restricted slow-start).
    pub(crate) fn force_cwnd(&mut self, cwnd: u64) {
        self.cwnd = cwnd;
    }

    /// Overwrite the threshold directly (used by wrapping algorithms that
    /// derive their own exit point, e.g. ssthreshless start pinning
    /// `ssthresh = cwnd` when its probe completes).
    pub(crate) fn force_ssthresh(&mut self, ssthresh: u64) {
        self.ssthresh = ssthresh;
    }

    pub(crate) fn slow_start_ack(&mut self, newly_acked: u64) {
        // RFC 5681: cwnd += min(N, SMSS) per ACK.
        self.cwnd += newly_acked.min(self.mss);
    }

    pub(crate) fn cong_avoid_ack(&mut self, newly_acked: u64) {
        // Byte-counting equivalent of cwnd += MSS·MSS/cwnd per ACK.
        self.ca_accum += newly_acked;
        while self.ca_accum >= self.cwnd {
            self.ca_accum -= self.cwnd;
            self.cwnd += self.mss;
        }
    }

    pub(crate) fn handle_congestion(&mut self, view: &CcView, ev: CongestionEvent) {
        match ev {
            CongestionEvent::FastRetransmit => {
                self.halve(view);
                // Enter recovery inflated by the three dup-ACKed segments.
                self.cwnd = self.ssthresh + 3 * self.mss;
            }
            CongestionEvent::Timeout => {
                self.halve(view);
                self.cwnd = self.mss; // loss window: restart from one segment
                self.ca_accum = 0;
            }
            CongestionEvent::LocalStall => {
                // Linux 2.4 local-congestion path: halve and leave
                // slow-start, no retransmission.
                self.halve(view);
                self.cwnd = self.ssthresh;
                self.ca_accum = 0;
            }
        }
    }
}

impl CongestionControl for Reno {
    #[inline]
    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    #[inline]
    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    #[inline]
    fn on_ack(&mut self, _view: &CcView, newly_acked: u64) {
        if self.in_slow_start() {
            self.slow_start_ack(newly_acked);
        } else {
            self.cong_avoid_ack(newly_acked);
        }
    }

    fn on_congestion(&mut self, view: &CcView, ev: CongestionEvent) {
        self.handle_congestion(view, ev);
    }

    fn on_recovery(&mut self, view: &CcView, ev: RecoveryEvent) {
        match ev {
            RecoveryEvent::DupAck => {
                // Window inflation: each dup ACK means a segment left the
                // network.
                self.cwnd += self.mss;
            }
            RecoveryEvent::PartialAck { newly_acked } => {
                // NewReno deflation: remove the acked data, add back one MSS
                // for the retransmission just triggered.
                self.cwnd = self
                    .cwnd
                    .saturating_sub(newly_acked)
                    .saturating_add(self.mss)
                    .max(self.ssthresh.min(self.cwnd));
                self.cwnd = self.cwnd.max(self.floor());
            }
            RecoveryEvent::Exit { .. } => {
                // Deflate to ssthresh; congestion avoidance resumes there.
                self.cwnd = self.ssthresh;
                self.ca_accum = 0;
            }
            RecoveryEvent::EcnEcho => {
                // RFC 3168 CWR response: halve and leave slow-start, no
                // retransmission — the same reduction as a CWR local stall.
                self.halve(view);
                self.cwnd = self.ssthresh;
                self.ca_accum = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_view;

    const MSS: u32 = 1000;

    fn reno() -> Reno {
        Reno::new(2 * MSS as u64, u64::MAX / 2, MSS)
    }

    #[test]
    fn slow_start_doubles_per_window_of_acks() {
        let mut cc = reno();
        let v = test_view(0, 0);
        assert!(cc.in_slow_start());
        // One window of per-segment ACKs doubles cwnd: 2 ACKs of 1 MSS each.
        cc.on_ack(&v, MSS as u64);
        cc.on_ack(&v, MSS as u64);
        assert_eq!(cc.cwnd(), 4 * MSS as u64);
        // Next window: 4 ACKs -> 8 MSS.
        for _ in 0..4 {
            cc.on_ack(&v, MSS as u64);
        }
        assert_eq!(cc.cwnd(), 8 * MSS as u64);
    }

    #[test]
    fn slow_start_increment_capped_at_mss_per_ack() {
        let mut cc = reno();
        let v = test_view(0, 0);
        // A stretch ACK covering 4 MSS still only grows cwnd by 1 MSS (L=1).
        cc.on_ack(&v, 4 * MSS as u64);
        assert_eq!(cc.cwnd(), 3 * MSS as u64);
    }

    #[test]
    fn congestion_avoidance_grows_one_mss_per_window() {
        let mut cc = Reno::new(10 * MSS as u64, 5 * MSS as u64, MSS);
        assert!(!cc.in_slow_start());
        let v = test_view(0, 0);
        // Ack one full window worth of bytes: cwnd += 1 MSS.
        for _ in 0..10 {
            cc.on_ack(&v, MSS as u64);
        }
        assert_eq!(cc.cwnd(), 11 * MSS as u64);
    }

    #[test]
    fn fast_retransmit_halves_and_inflates() {
        let mut cc = reno();
        let v = test_view(0, 20 * MSS as u64);
        cc.on_congestion(&v, CongestionEvent::FastRetransmit);
        assert_eq!(cc.ssthresh(), 10 * MSS as u64);
        assert_eq!(cc.cwnd(), 13 * MSS as u64); // ssthresh + 3 MSS
        cc.on_recovery(&v, RecoveryEvent::DupAck);
        assert_eq!(cc.cwnd(), 14 * MSS as u64);
        cc.on_recovery(&v, RecoveryEvent::Exit { newly_acked: 0 });
        assert_eq!(cc.cwnd(), 10 * MSS as u64);
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn timeout_collapses_to_one_segment_and_slow_starts() {
        let mut cc = reno();
        let v = test_view(0, 16 * MSS as u64);
        cc.on_congestion(&v, CongestionEvent::Timeout);
        assert_eq!(cc.ssthresh(), 8 * MSS as u64);
        assert_eq!(cc.cwnd(), MSS as u64);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn ssthresh_floor_two_segments() {
        let mut cc = reno();
        let v = test_view(0, MSS as u64); // tiny flight
        cc.on_congestion(&v, CongestionEvent::Timeout);
        assert_eq!(cc.ssthresh(), 2 * MSS as u64);
    }

    #[test]
    fn local_stall_cwr_halves_without_restart() {
        let mut cc = reno();
        let v = test_view(0, 200 * MSS as u64);
        cc.on_congestion(&v, CongestionEvent::LocalStall);
        assert_eq!(cc.ssthresh(), 100 * MSS as u64);
        assert_eq!(cc.cwnd(), 100 * MSS as u64);
        assert!(!cc.in_slow_start(), "CWR leaves slow-start");
    }

    #[test]
    fn ecn_echo_halves_like_cwr() {
        let mut cc = reno();
        let v = test_view(0, 20 * MSS as u64);
        cc.on_recovery(&v, RecoveryEvent::EcnEcho);
        assert_eq!(cc.ssthresh(), 10 * MSS as u64);
        assert_eq!(cc.cwnd(), 10 * MSS as u64);
        assert!(!cc.in_slow_start(), "ECN echo leaves slow-start");
        // A second echo at the reduced flight keeps halving, floored at 2 MSS.
        let v = test_view(0, 3 * MSS as u64);
        cc.on_recovery(&v, RecoveryEvent::EcnEcho);
        assert_eq!(cc.cwnd(), 2 * MSS as u64);
    }

    #[test]
    fn partial_ack_deflates_but_not_below_floor() {
        let mut cc = reno();
        let v = test_view(0, 20 * MSS as u64);
        cc.on_congestion(&v, CongestionEvent::FastRetransmit);
        let before = cc.cwnd();
        cc.on_recovery(
            &v,
            RecoveryEvent::PartialAck {
                newly_acked: 4 * MSS as u64,
            },
        );
        assert!(cc.cwnd() < before);
        assert!(cc.cwnd() >= 2 * MSS as u64);
    }
}
