//! The window engine: standard TCP's state (RFC 5681 slow-start and
//! congestion avoidance, NewReno recovery window management — the Linux
//! 2.4.19 baseline of the paper's §4, including its response to local
//! send-stalls) and the two policies a variant may swap in for parts of it.
//!
//! A `SlowStart` policy owns growth while `cwnd < ssthresh` and the exit
//! from that phase; an `Avoidance` policy owns growth above ssthresh, the
//! cut on each [`CongestionEvent`] and the [`RecoveryEvent`] responses.
//! `Standard` × `Reno` is the baseline itself. Policy state that fits beside
//! the window stays inline; larger state is one concrete `Box` per arm.

use crate::hybrid::HyStart;
use crate::relentless::RelentlessRecovery;
use crate::restricted::PidStart;
use crate::ssthreshless::DelayProbe;
use crate::{highspeed, limited, scalable, CcParams, CcView, CongestionEvent, RecoveryEvent};

/// Reno's window state, which every policy reads and writes.
#[derive(Debug)]
pub(crate) struct Reno {
    pub(crate) cwnd: u64,
    pub(crate) ssthresh: u64,
    pub(crate) mss: u64,
    /// Byte accumulator for congestion-avoidance growth (appropriate byte
    /// counting of the classic `cwnd += MSS²/cwnd` per ACK).
    ca_accum: u64,
}

impl Reno {
    /// Minimum window: 2 segments, the RFC 5681 loss-window floor the
    /// simulation uses throughout (1-MSS windows deadlock with delayed ACKs).
    pub(crate) fn floor(&self) -> u64 {
        2 * self.mss
    }

    #[inline]
    pub(crate) fn slow_start_ack(&mut self, newly_acked: u64) {
        // RFC 5681: cwnd += min(N, SMSS) per ACK.
        self.cwnd += newly_acked.min(self.mss);
    }

    #[inline]
    fn cong_avoid_ack(&mut self, newly_acked: u64) {
        // Byte-counting equivalent of cwnd += MSS·MSS/cwnd per ACK.
        self.ca_accum += newly_acked;
        while self.ca_accum >= self.cwnd {
            self.ca_accum -= self.cwnd;
            self.cwnd += self.mss;
        }
    }

    /// Set ssthresh to `kept` bytes of the flight (floored) and the window
    /// the event leaves.
    fn cut(&mut self, ev: CongestionEvent, kept: u64) {
        self.ssthresh = kept.max(self.floor());
        self.cwnd = match ev {
            // Enter recovery inflated by the three dup-ACKed segments.
            CongestionEvent::FastRetransmit => self.ssthresh + 3 * self.mss,
            // Loss window: restart from one segment.
            CongestionEvent::Timeout => self.mss,
            // Linux 2.4 local-congestion path: leave slow-start, no
            // retransmission.
            CongestionEvent::LocalStall => self.ssthresh,
        };
    }

    pub(crate) fn on_recovery(&mut self, view: &CcView, ev: RecoveryEvent) {
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
                    .max(self.ssthresh.min(self.cwnd))
                    .max(self.floor());
            }
            RecoveryEvent::Exit { .. } => {
                // Deflate to ssthresh; congestion avoidance resumes there.
                self.cwnd = self.ssthresh;
                self.ca_accum = 0;
            }
            RecoveryEvent::EcnEcho => {
                // RFC 3168 CWR response: halve and leave slow-start, no
                // retransmission — the same reduction as a CWR local stall.
                self.cut(CongestionEvent::LocalStall, view.flight / 2);
                self.ca_accum = 0;
            }
        }
    }
}

/// Who grows the window while `cwnd < ssthresh`, and when that phase ends.
#[derive(Debug)]
pub(crate) enum SlowStart {
    /// RFC 5681: one MSS per ACK up to ssthresh.
    Standard,
    /// RFC 3742: growth capped past `max_ssthresh` bytes
    /// ([`limited`](crate::limited)).
    Limited { max_ssthresh: u64 },
    /// HyStart's early exit ([`hybrid`](crate::hybrid)).
    Hybrid(Box<HyStart>),
    /// The paper's PID-paced growth ([`restricted`](crate::restricted)).
    Restricted(Box<PidStart>),
    /// The delay probe that replaces ssthresh
    /// ([`ssthreshless`](crate::ssthreshless)).
    Ssthreshless(Box<DelayProbe>),
}

/// Who grows the window above ssthresh, and how it is cut.
#[derive(Debug)]
pub(crate) enum Avoidance {
    /// RFC 5681 AIMD: one MSS per window, halve on congestion.
    Reno,
    /// RFC 3649's a(w)/b(w) table ([`highspeed`](crate::highspeed)), with
    /// its own byte accumulator.
    HighSpeed { accum: u64 },
    /// Kelly's MIMD ([`scalable`](crate::scalable)), with its own byte
    /// accumulator.
    Scalable { ai_cnt: u32, accum: u64 },
    /// Decrease by the segments lost ([`relentless`](crate::relentless)).
    Relentless(Box<RelentlessRecovery>),
}

/// The window engine every variant but BBR runs: Reno's state, a
/// slow-start policy and an avoidance policy.
#[derive(Debug)]
pub struct Window {
    pub(crate) reno: Reno,
    pub(crate) start: SlowStart,
    pub(crate) avoid: Avoidance,
}

impl Window {
    pub(crate) fn new(p: &CcParams, start: SlowStart, avoid: Avoidance) -> Window {
        // The delay probe ends slow-start by measurement: it never reads a
        // configured threshold.
        let ssthresh = match start {
            SlowStart::Ssthreshless(_) => u64::MAX / 2,
            _ => p.initial_ssthresh,
        };
        let reno = Reno {
            cwnd: p.initial_cwnd,
            ssthresh,
            mss: p.mss as u64,
            ca_accum: 0,
        };
        Window { reno, start, avoid }
    }

    #[inline]
    pub(crate) fn in_slow_start(&self) -> bool {
        match &self.start {
            SlowStart::Ssthreshless(probe) => probe.probing(),
            _ => self.reno.cwnd < self.reno.ssthresh,
        }
    }

    #[inline]
    pub(crate) fn on_ack(&mut self, view: &CcView, newly_acked: u64) {
        let r = &mut self.reno;
        // A slow-start policy that grew the window itself takes the ACK.
        let taken = match &mut self.start {
            SlowStart::Standard => false,
            SlowStart::Limited { max_ssthresh } => limited::on_ack(r, *max_ssthresh, newly_acked),
            SlowStart::Hybrid(h) => {
                h.on_ack(r, view, newly_acked);
                false
            }
            SlowStart::Restricted(pid) => pid.on_ack(r, view, newly_acked),
            SlowStart::Ssthreshless(probe) => probe.on_ack(r, view, newly_acked),
        };
        if taken {
            return;
        }
        if r.cwnd < r.ssthresh {
            r.slow_start_ack(newly_acked);
            return;
        }
        match &mut self.avoid {
            Avoidance::Reno | Avoidance::Relentless(_) => r.cong_avoid_ack(newly_acked),
            Avoidance::HighSpeed { accum } => highspeed::grow(r, accum, newly_acked),
            Avoidance::Scalable { ai_cnt, accum } => scalable::grow(r, *ai_cnt, accum, newly_acked),
        }
    }

    pub(crate) fn on_congestion(&mut self, view: &CcView, ev: CongestionEvent) {
        let r = &mut self.reno;
        let flight = view.flight;
        match &mut self.avoid {
            Avoidance::Relentless(rec) if ev == CongestionEvent::FastRetransmit => rec.enter(r),
            Avoidance::Reno | Avoidance::Relentless(_) => r.cut(ev, flight / 2),
            Avoidance::HighSpeed { .. } => r.cut(ev, highspeed::kept(r, flight)),
            Avoidance::Scalable { .. } => r.cut(ev, scalable::kept(flight)),
        }
        // A fast retransmit keeps every accumulator; the other cuts clear
        // the one the avoidance policy grows with.
        if ev != CongestionEvent::FastRetransmit {
            match &mut self.avoid {
                Avoidance::Reno | Avoidance::Relentless(_) => r.ca_accum = 0,
                Avoidance::HighSpeed { accum } | Avoidance::Scalable { accum, .. } => *accum = 0,
            }
        }
        match &mut self.start {
            SlowStart::Hybrid(h) if ev == CongestionEvent::Timeout => **h = HyStart::default(),
            SlowStart::Restricted(pid) if ev == CongestionEvent::Timeout => pid.restart(),
            SlowStart::Ssthreshless(probe) => probe.on_congestion(ev),
            _ => {}
        }
    }

    pub(crate) fn on_recovery(&mut self, view: &CcView, ev: RecoveryEvent) {
        let r = &mut self.reno;
        match &mut self.avoid {
            Avoidance::Reno => r.on_recovery(view, ev),
            // The echo is Reno's halving, which clears only Reno's
            // accumulator: these two keep theirs.
            Avoidance::HighSpeed { accum } | Avoidance::Scalable { accum, .. } => {
                r.on_recovery(view, ev);
                if matches!(ev, RecoveryEvent::Exit { .. }) {
                    *accum = 0;
                }
            }
            Avoidance::Relentless(rec) => rec.on_recovery(r, view, ev),
        }
        if let (SlowStart::Ssthreshless(probe), RecoveryEvent::Exit { .. }) = (&mut self.start, ev)
        {
            probe.finish();
        }
    }

    /// Bytes of policy state boxed beside the window.
    pub(crate) fn heap_bytes(&self) -> usize {
        let start = match &self.start {
            SlowStart::Standard | SlowStart::Limited { .. } => 0,
            SlowStart::Hybrid(_) => size_of::<HyStart>(),
            SlowStart::Restricted(_) => size_of::<PidStart>(),
            SlowStart::Ssthreshless(_) => size_of::<DelayProbe>(),
        };
        let avoid = match &self.avoid {
            Avoidance::Relentless(_) => size_of::<RelentlessRecovery>(),
            _ => 0,
        };
        start + avoid
    }
}

#[cfg(test)]
mod tests {
    use crate::{test_engine, test_view, CcAlgorithm, CongestionEvent};
    use crate::{CcEngine, RecoveryEvent};

    const MSS: u32 = 1000;

    fn reno() -> CcEngine {
        test_engine(CcAlgorithm::Reno, 2 * MSS as u64, u64::MAX / 2, MSS)
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
        let mut cc = test_engine(CcAlgorithm::Reno, 10 * MSS as u64, 5 * MSS as u64, MSS);
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
