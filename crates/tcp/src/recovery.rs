//! Loss recovery: what to retransmit, and what the controller hears about
//! each ACK. [`NewReno`] (RFC 6582) is the one implementation: it enters
//! fast recovery on the threshold-th duplicate ACK and repairs one hole per
//! round trip, the segment at `snd_una`, until a cumulative ACK reaches
//! `recover` (the `snd_nxt` of entry). [`TcpSender`](crate::TcpSender) hands
//! it every ACK and replaces it with [`NewReno::default`] on an RTO.

use crate::cc::{CongestionEvent, RecoveryEvent};
use crate::sender::TxPlan;
use std::ops::Range;

/// What the congestion controller hears: the argument of the sender's one
/// call into its [`CcEngine`](crate::CcEngine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcSignal {
    /// New data acknowledged outside recovery, bytes (`on_ack`).
    Ack(u64),
    /// A loss (`on_congestion`).
    Congestion(CongestionEvent),
    /// A send-stall, and the event `on_congestion` hears of it (`None`:
    /// nothing), as the [`StallResponse`](crate::StallResponse) picks.
    Stall(Option<CongestionEvent>),
    /// A fast-recovery event or an ECN echo (`on_recovery`).
    Recovery(RecoveryEvent),
}

/// NewReno fast retransmit and fast recovery for one connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NewReno {
    /// Duplicate ACKs since the last ACK of new data.
    dupacks: u32,
    /// `snd_nxt` when the episode began; `Some` while in recovery.
    recover: Option<u64>,
    /// End of the hole waiting to be retransmitted, `snd_una..hole`.
    hole: Option<u64>,
}

impl NewReno {
    /// True while a fast-recovery episode is in progress.
    #[inline]
    pub fn in_recovery(&self) -> bool {
        self.recover.is_some()
    }

    /// The retransmission due before any new data, if a hole is waiting.
    #[inline]
    pub fn retransmit(&self, snd_una: u64) -> Option<TxPlan> {
        self.hole.map(|end| TxPlan {
            seq: snd_una,
            len: (end - snd_una) as u32,
            retransmit: true,
        })
    }

    /// `plan` left the host; if it was the waiting hole, the hole is sent.
    #[inline]
    pub fn on_transmit(&mut self, plan: TxPlan, snd_una: u64) {
        if self.retransmit(snd_una) == Some(plan) {
            self.hole = None;
        }
    }

    /// An ACK acknowledged `newly` bytes (0: a duplicate) and left `flight`
    /// (`snd_una..snd_nxt`) unacknowledged; the `dupack_threshold`-th
    /// duplicate enters recovery, and a hole is at most `mss` long. Returns
    /// what the controller hears, if anything.
    #[inline]
    pub fn on_ack(
        &mut self,
        newly: u64,
        flight: Range<u64>,
        dupack_threshold: u32,
        mss: u32,
    ) -> Option<CcSignal> {
        if newly == 0 {
            if flight.is_empty() {
                return None;
            }
            self.dupacks += 1;
            //= https://www.rfc-editor.org/rfc/rfc9002#section-7.3.2
            //# A sender that is already in a recovery period stays in it and does not
            //# reenter it.
            if self.in_recovery() {
                return Some(CcSignal::Recovery(RecoveryEvent::DupAck));
            }
            if self.dupacks != dupack_threshold {
                return None;
            }
            //= https://www.rfc-editor.org/rfc/rfc9002#section-7.3.2
            //# A NewReno sender enters a recovery period when it detects the loss of
            //# a packet or when the ECN-CE count reported by its peer increases.
            // Only loss enters here. An ECN echo is answered outside recovery
            // (`TcpSender::on_ecn_echo`), so an echo before this fast
            // retransmit in the same window of data cuts that window twice.
            self.recover = Some(flight.end);
            self.hole = Some(first_segment_end(flight, mss));
            return Some(CcSignal::Congestion(CongestionEvent::FastRetransmit));
        }
        self.dupacks = 0;
        if self.hole.is_some_and(|end| end <= flight.start) {
            self.hole = None;
        }
        let ev = match self.recover {
            None => return Some(CcSignal::Ack(newly)),
            //= https://www.rfc-editor.org/rfc/rfc9002#section-7.3.2
            //# A recovery period ends and the sender enters congestion avoidance
            //# when a packet sent during the recovery period is acknowledged.
            // Here it ends on a cumulative ACK at or past `recover`, which an
            // ACK of only the data sent before entry already reaches.
            Some(recover) if flight.start >= recover => {
                *self = NewReno::default();
                RecoveryEvent::Exit { newly_acked: newly }
            }
            Some(_) => {
                // A partial ACK: the next hole starts at the new `snd_una`,
                // unless the last one is still waiting to be sent. Data past
                // it is in flight, because `recover <= snd_nxt`.
                if self.hole.is_none() {
                    self.hole = Some(first_segment_end(flight, mss));
                }
                RecoveryEvent::PartialAck { newly_acked: newly }
            }
        };
        Some(CcSignal::Recovery(ev))
    }
}

/// End of the first segment of `flight`: at most one MSS.
fn first_segment_end(flight: Range<u64>, mss: u32) -> u64 {
    flight.start + (mss as u64).min(flight.end - flight.start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CcAlgorithm;
    use crate::make_cc;
    use crate::sender::{IfqSnapshot, TcpSender};
    use crate::types::{ConnId, TcpConfig};
    use rss_sim::SimTime;
    use std::cmp::Ordering;
    use CcSignal::{Ack, Congestion, Recovery};

    const MSS: u32 = 1000;

    fn cfg(dupack_threshold: u32) -> TcpConfig {
        TcpConfig {
            mss: MSS,
            dupack_threshold,
            ..TcpConfig::default()
        }
    }

    fn hole(seq: u64, len: u32) -> Option<TxPlan> {
        Some(TxPlan {
            seq,
            len,
            retransmit: true,
        })
    }

    /// In recovery since three duplicates at `snd_una` 0 with `snd_nxt`
    /// (hence `recover`) 10 000; the hole `0..1000` not yet sent.
    fn recovering() -> NewReno {
        let mut r = NewReno::default();
        for _ in 0..3 {
            r.on_ack(0, 0..10_000, 3, MSS);
        }
        assert!(r.in_recovery());
        r
    }

    #[test]
    fn the_threshold_th_dup_ack_enters_once_and_later_ones_are_dup_acks() {
        // (threshold, outstanding, the hole entry queues)
        for (threshold, outstanding, want_hole) in [
            (1, 4000..9000, hole(4000, MSS)),
            (3, 4000..9000, hole(4000, MSS)),
            (5, 4000..9000, hole(4000, MSS)),
            // Less than a segment outstanding: the hole is what is left.
            (3, 4000..4400, hole(4000, 400)),
        ] {
            let mut r = NewReno::default();
            for n in 1..=threshold + 3 {
                let want = match n.cmp(&threshold) {
                    Ordering::Less => None,
                    Ordering::Equal => Some(Congestion(CongestionEvent::FastRetransmit)),
                    Ordering::Greater => Some(Recovery(RecoveryEvent::DupAck)),
                };
                let got = r.on_ack(0, outstanding.clone(), threshold, MSS);
                assert_eq!(got, want, "threshold {threshold}, duplicate {n}");
                assert_eq!(r.in_recovery(), n >= threshold);
            }
            assert_eq!(r.retransmit(4000), want_hole, "threshold {threshold}");
        }
        // With nothing outstanding a duplicate is not counted at all.
        let mut r = NewReno::default();
        for _ in 0..5 {
            assert_eq!(r.on_ack(0, 7000..7000, 3, MSS), None);
        }
        assert_eq!(r, NewReno::default());
    }

    #[test]
    fn a_partial_ack_queues_the_next_hole_only_once_the_last_was_sent_or_covered() {
        // (hole sent before the ACK, partial ACK point, hole after it)
        for (sent, ack, want) in [
            // Waiting and partly covered: the rest of it is still the hole.
            (false, 400, hole(400, 600)),
            // Waiting and covered: a new hole at the new `snd_una`.
            (false, 1000, hole(1000, MSS)),
            (false, 2500, hole(2500, MSS)),
            // Sent: a new hole at the new `snd_una`, however little was acked.
            (true, 400, hole(400, MSS)),
            (true, 1000, hole(1000, MSS)),
            (true, 9500, hole(9500, 500)),
        ] {
            let mut r = recovering();
            // New data leaving the host is not the hole.
            r.on_transmit(
                TxPlan {
                    seq: 10_000,
                    len: MSS,
                    retransmit: false,
                },
                0,
            );
            assert_eq!(r.retransmit(0), hole(0, MSS));
            if sent {
                r.on_transmit(r.retransmit(0).unwrap(), 0);
                assert_eq!(r.retransmit(0), None);
            }
            let got = r.on_ack(ack, ack..10_000, 3, MSS);
            let partial = RecoveryEvent::PartialAck { newly_acked: ack };
            assert_eq!(got, Some(Recovery(partial)), "sent {sent}, ack {ack}");
            assert!(r.in_recovery());
            assert_eq!(r.retransmit(ack), want, "sent {sent}, ack {ack}");
        }
    }

    #[test]
    fn a_full_ack_at_or_past_recover_exits_and_clears_the_hole() {
        // (ACK point, snd_nxt after it, hole sent before the ACK)
        for (ack, nxt, sent) in [
            (10_000, 10_000, false),
            (10_000, 12_000, true),
            (11_000, 12_000, false),
        ] {
            let mut r = recovering();
            if sent {
                r.on_transmit(r.retransmit(0).unwrap(), 0);
            }
            let exit = RecoveryEvent::Exit { newly_acked: ack };
            assert_eq!(r.on_ack(ack, ack..nxt, 3, MSS), Some(Recovery(exit)));
            assert!(!r.in_recovery());
            assert_eq!(r.retransmit(ack), None);
            assert_eq!(r, NewReno::default(), "ack {ack}");
            // What follows is ordinary: an ACK of new data reaches `on_ack`.
            assert_eq!(
                r.on_ack(500, ack + 500..nxt.max(ack + 500), 3, MSS),
                Some(Ack(500))
            );
        }
    }

    #[test]
    fn an_rto_resets_the_count_the_episode_and_the_hole() {
        // (duplicates before the timeout, in recovery when it fires)
        for (dups, recovering) in [(0, false), (2, false), (3, true), (5, true)] {
            let cfg = TcpConfig {
                initial_cwnd_mss: 4,
                ..cfg(3)
            };
            let cc = make_cc(CcAlgorithm::Reno, &cfg).unwrap();
            let mut s = TcpSender::new(ConnId(0), cfg, cc, None);
            let ifq = IfqSnapshot { depth: 0, max: 100 };
            while let Some(p) = s.can_transmit(SimTime::ZERO) {
                s.commit_transmit(SimTime::ZERO, p);
            }
            for _ in 0..dups {
                s.on_ack(SimTime::from_millis(1), 0, cfg.rwnd, ifq);
            }
            assert_eq!(s.in_recovery(), recovering, "{dups} duplicates");
            let d = s.rto_deadline().unwrap();
            assert!(s.on_rto_check(d, ifq));
            assert!(!s.in_recovery(), "{dups} duplicates");
            // Go-back-N from `snd_una` under the one-segment window.
            let p = s.can_transmit(d).unwrap();
            assert_eq!((p.seq, p.len), (0, MSS));
            s.commit_transmit(d, p);
            assert_eq!(s.can_transmit(d), None);
            // The count starts over: two more duplicates do not enter.
            for _ in 0..2 {
                s.on_ack(d, 0, cfg.rwnd, ifq);
            }
            assert!(!s.in_recovery(), "{dups} duplicates");
        }
    }
}
