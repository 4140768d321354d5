//! Hybrid Start — HyStart (Ha & Rhee, Computer Networks 55(9), 2011).
//!
//! Standard slow-start only stops at `ssthresh` or at the first loss, and on
//! a long fat network the loss exit arrives with an entire overshot window's
//! worth of drops. HyStart keeps the doubling but watches two signals for
//! evidence that the pipe just filled, and converts slow-start to congestion
//! avoidance (`ssthresh = cwnd`) the moment either fires:
//!
//! * **ACK train** — the leading edge of each round's ACK clock: when the
//!   train of closely-spaced ACKs (≤ 2 ms apart) has stretched to half the
//!   minimum RTT, the flight occupies ≥ half the pipe (at double the rate),
//!   i.e. cwnd has reached the BDP.
//! * **Delay increase** — the round's minimum RTT, taken over its first
//!   [`N_SAMPLING`] samples, exceeding the previous round's minimum by
//!   `clamp(prev/`[`THRESHOLD_DIVIDEND`]`, 4 ms, 16 ms)`: a standing queue
//!   has started to form.
//!
//! Below [`LOW_SSTHRESH`] neither heuristic may fire (small windows exit
//! slow-start cheaply anyway, and the signals are noisy there). Everything
//! outside the exit decision — growth, loss handling, recovery — is standard
//! Reno; a timeout re-enters slow-start and re-arms the heuristics, exactly
//! like the reference implementations.

use crate::reno::Reno;
use crate::CcView;
use rss_sim::{SimDuration, SimTime};

/// Window (in segments) below which HyStart never fires.
pub const LOW_SSTHRESH: u64 = 16;
/// RTT samples per round folded into the round minimum before the
/// delay-increase check may fire.
pub const N_SAMPLING: u32 = 8;
/// Lower clamp of the delay-increase threshold.
pub const MIN_DELAY_THRESHOLD: SimDuration = SimDuration::from_millis(4);
/// Upper clamp of the delay-increase threshold.
pub const MAX_DELAY_THRESHOLD: SimDuration = SimDuration::from_millis(16);
/// The delay-increase threshold is `previous round min / THRESHOLD_DIVIDEND`
/// before clamping.
pub const THRESHOLD_DIVIDEND: u64 = 8;
/// Largest inter-ACK gap that still extends the ACK train.
pub const ACK_SPACING: SimDuration = SimDuration::from_millis(2);

/// HyStart's state beside standard slow-start growth. A timeout re-arms
/// the heuristics by resetting it to the default.
#[derive(Debug, Default)]
pub(crate) struct HyStart {
    /// ACKed bytes left in the current round (a round = one flight).
    round_remaining: u64,
    /// Minimum RTT of the *previous* round — the delay baseline.
    last_round_min: Option<SimDuration>,
    /// Minimum over the current round's first `N_SAMPLING` samples.
    cur_round_min: Option<SimDuration>,
    /// Samples folded into `cur_round_min` so far.
    sample_count: u32,
    /// When the current ACK train started.
    train_start: Option<SimTime>,
    /// Arrival time of the previous ACK (train-spacing check).
    last_ack_at: Option<SimTime>,
    /// Set once a heuristic has fired; cleared when a timeout re-enters
    /// slow-start.
    exited: bool,
}

impl HyStart {
    /// `clamp(prev / 8, 4 ms, 16 ms)` — the delay-increase trigger level
    /// above the previous round's minimum.
    fn delay_threshold(prev: SimDuration) -> SimDuration {
        (prev / THRESHOLD_DIVIDEND)
            .max(MIN_DELAY_THRESHOLD)
            .min(MAX_DELAY_THRESHOLD)
    }

    /// Convert slow-start into congestion avoidance at the current window.
    fn exit_slow_start(&mut self, r: &mut Reno) {
        r.ssthresh = r.cwnd;
        self.exited = true;
    }

    /// Both heuristics, evaluated on one ACK while in slow-start and not
    /// yet exited. The engine's growth follows: standard slow-start, or
    /// congestion avoidance if this ACK ended the phase.
    pub(crate) fn on_ack(&mut self, r: &mut Reno, view: &CcView, newly_acked: u64) {
        if r.cwnd < r.ssthresh && !self.exited {
            self.observe(r, view);
            self.round_remaining = self.round_remaining.saturating_sub(newly_acked);
        }
    }

    fn observe(&mut self, r: &mut Reno, view: &CcView) {
        let now = view.now;
        if self.round_remaining == 0 {
            // A new round opens: rotate the delay baseline, restart the
            // sample counter and the ACK train.
            self.round_remaining = r.cwnd;
            if self.cur_round_min.is_some() {
                self.last_round_min = self.cur_round_min;
            }
            self.cur_round_min = None;
            self.sample_count = 0;
            self.train_start = Some(now);
            self.last_ack_at = None;
        }

        let armed = r.cwnd >= LOW_SSTHRESH * r.mss;

        // Delay increase: fold the sample into the round minimum; judge once
        // the round has enough samples and a previous round to compare with.
        if let Some(rtt) = view.last_rtt {
            if self.sample_count < N_SAMPLING {
                self.cur_round_min = Some(self.cur_round_min.map_or(rtt, |m| m.min(rtt)));
                self.sample_count += 1;
            }
            if armed && self.sample_count >= N_SAMPLING {
                if let (Some(cur), Some(prev)) = (self.cur_round_min, self.last_round_min) {
                    if cur >= prev + Self::delay_threshold(prev) {
                        self.exit_slow_start(r);
                        return;
                    }
                }
            }
        }

        // ACK train: closely-spaced ACKs stretch the train; a gap restarts
        // it. A train half the propagation RTT long means the window spans
        // the pipe.
        if let Some(last) = self.last_ack_at {
            if now.saturating_since(last) <= ACK_SPACING {
                if let (Some(start), Some(min_rtt)) = (self.train_start, view.min_rtt) {
                    if armed && now.saturating_since(start) >= min_rtt / 2 {
                        self.exit_slow_start(r);
                        self.last_ack_at = Some(now);
                        return;
                    }
                }
            } else {
                self.train_start = Some(now);
            }
        }
        self.last_ack_at = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CongestionEvent;
    use crate::{test_engine, test_view, CcAlgorithm, CcEngine};

    const MSS: u32 = 1000;

    fn hystart(cwnd_segments: u64) -> CcEngine {
        let cwnd = cwnd_segments * MSS as u64;
        test_engine(CcAlgorithm::Hybrid, cwnd, u64::MAX / 2, MSS)
    }

    fn view(now_ms: u64, rtt_ms: u64, min_rtt_ms: u64) -> crate::CcView {
        let mut v = test_view(now_ms, 0);
        v.last_rtt = Some(SimDuration::from_millis(rtt_ms));
        v.min_rtt = Some(SimDuration::from_millis(min_rtt_ms));
        v
    }

    #[test]
    fn delay_increase_exits_slow_start() {
        let mut cc = hystart(16);
        // Round 1: 16 ACKs at a flat 100 ms RTT establish the baseline
        // (ACKs 20 ms apart — too sparse for the train heuristic).
        for i in 0..16 {
            cc.on_ack(&view(i * 20, 100, 100), MSS as u64);
        }
        assert!(cc.in_slow_start(), "flat RTT must not exit");
        // Round 2: RTT jumped to 120 ms ≥ 100 + clamp(100/8, 4, 16) ms.
        // The 8th sample renders the verdict.
        for i in 0..8 {
            assert!(cc.in_slow_start());
            cc.on_ack(&view(400 + i * 20, 120, 100), MSS as u64);
        }
        assert!(!cc.in_slow_start(), "standing queue must exit");
        assert_eq!(cc.ssthresh(), cc.cwnd(), "exit pins ssthresh = cwnd");
    }

    #[test]
    fn ack_train_exits_when_train_spans_half_min_rtt() {
        let mut cc = hystart(16);
        // min RTT 20 ms; ACKs 1 ms apart. The train reaches 10 ms = minRTT/2
        // at the 11th ACK. RTT stays flat so the delay check never fires.
        for i in 0..10 {
            cc.on_ack(&view(i, 20, 20), MSS as u64);
            assert!(cc.in_slow_start(), "ack {i}: train still short");
        }
        cc.on_ack(&view(10, 20, 20), MSS as u64);
        assert!(!cc.in_slow_start(), "train spanned half the pipe");
    }

    #[test]
    fn a_gap_restarts_the_ack_train() {
        let mut cc = hystart(16);
        // 6 ms of train, a 5 ms gap, then 6 more ms: never 10 ms contiguous.
        for i in 0..7 {
            cc.on_ack(&view(i, 20, 20), MSS as u64);
        }
        for i in 0..7 {
            cc.on_ack(&view(12 + i, 20, 20), MSS as u64);
        }
        assert!(cc.in_slow_start(), "broken train must not exit");
    }

    #[test]
    fn below_low_window_never_exits() {
        let mut cc = hystart(4);
        for i in 0..4 {
            cc.on_ack(&view(i * 20, 100, 100), MSS as u64);
        }
        for i in 0..8 {
            cc.on_ack(&view(100 + i, 150, 100), MSS as u64);
        }
        assert!(cc.in_slow_start(), "window below LOW_SSTHRESH");
    }

    #[test]
    fn timeout_rearms_the_heuristics() {
        let mut cc = hystart(16);
        for i in 0..16 {
            cc.on_ack(&view(i * 20, 100, 100), MSS as u64);
        }
        for i in 0..8 {
            cc.on_ack(&view(400 + i * 20, 120, 100), MSS as u64);
        }
        assert!(!cc.in_slow_start());
        // A flight of 200 segments leaves ssthresh at 100: far above where
        // the heuristics fire.
        let v = crate::CcView {
            flight: 200 * MSS as u64,
            ..view(1000, 120, 100)
        };
        cc.on_congestion(&v, CongestionEvent::Timeout);
        assert!(cc.in_slow_start(), "timeout re-enters slow-start");
        // The heuristics run again: a fresh baseline then a fresh jump.
        let mut t = 1100;
        while cc.cwnd() < LOW_SSTHRESH * MSS as u64 {
            cc.on_ack(&view(t, 100, 100), MSS as u64);
            t += 20;
        }
        for _ in 0..24 {
            cc.on_ack(&view(t, 100, 100), MSS as u64);
            t += 20;
        }
        assert!(cc.in_slow_start(), "a flat RTT does not exit");
        // The rest of the 32-segment round, then the next round's samples.
        for _ in 0..32 {
            cc.on_ack(&view(t, 130, 100), MSS as u64);
            t += 20;
        }
        assert!(cc.ssthresh() < 100 * MSS as u64, "HyStart, not ssthresh");
        assert!(!cc.in_slow_start(), "re-armed heuristics fire again");
    }
}
