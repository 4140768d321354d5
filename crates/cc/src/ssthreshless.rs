//! SSthreshless Start — delay-probed slow-start without ssthresh estimation
//! (Lu, Zhang, Foh, Fu — arXiv:1401.7146).
//!
//! Standard slow-start ends where `ssthresh` says it does, and `ssthresh` is
//! a guess: the kernel's cached metric, a hand-tuned sysctl, or infinity. On
//! a long fat network every wrong guess is expensive — too low and the flow
//! crawls through congestion avoidance across a multi-megabyte
//! bandwidth-delay product; too high and the burst overshoots the path and
//! the loss episode collapses the window. The paper's position is that the
//! estimate should not exist at all: the sender can *measure* when the pipe
//! is full.
//!
//! Concretisation used here (a two-stage probe mirroring the paper's
//! queueing-delay state machine). After each ACK the sender estimates its
//! own backlog in the path Vegas-style:
//!
//! ```text
//! backlog ≈ (cwnd / MSS) · (1 − minRTT / lastRTT)
//! ```
//!
//! * **Fast probe** — grow one MSS per ACK (standard doubling; never more
//!   aggressive than the baseline). Doubling is bursty, so its own transient
//!   queues inflate the tail-of-round RTT samples long before the pipe is
//!   actually full; the first backlog reading past `γ`
//!   ([`SslConfig::gamma_segments`]) is therefore treated as *proximity*,
//!   not arrival, and merely ends the doubling.
//! * **Paced probe** — grow one MSS per eight ACKs (≈ ×9/8 per RTT) and
//!   judge fullness per *round* (one flight of ACKed bytes) by the round's
//!   **minimum** RTT sample, HyStart-style: ACK-clocked sending inflates
//!   the tail of every ACK train with the probe's own transient queue, but
//!   the head of a round rides an empty queue unless a *standing* queue has
//!   formed — so `round-min` reads exactly the standing queue. When the
//!   round-min backlog crosses `2γ`, the pipe is full, with overshoot
//!   bounded by one paced round (~cwnd/8).
//! * **Exit** — snap window and threshold to the measured bandwidth-delay
//!   product, `cwnd · minRTT/roundMinRTT` (a pure deflation: no burst), and
//!   step into congestion avoidance. No ssthresh was consulted at any
//!   point.
//!
//! Everything outside the probe is plain Reno: fast retransmit halves,
//! timeouts collapse the window and re-arm the fast probe (the next
//! slow-start is again ssthresh-free).

use crate::reno::Reno;
use crate::{CcView, CongestionEvent};
use rss_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Configuration of the SSthreshless probe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SslConfig {
    /// Backlog threshold `γ`, in segments: the fast probe ends at the first
    /// reading ≥ `γ`, the paced probe exits at a confirmed reading ≥ `2γ`
    /// (paper's operating range: a few segments; default 8).
    pub gamma_segments: f64,
}

/// Paced-probe growth divisor: one MSS per this many ACKs' worth of
/// credit, each ACK crediting at most one MSS (the RFC 5681 `L=1`
/// stretch-ACK cap slow-start growth uses). Under per-segment ACKs that is
/// ×9/8 per RTT; delayed/stretch ACKs only make the probe more
/// conservative. Fixed, like Reno's AIMD constants.
const PACE_DIVISOR: u64 = 8;

impl SslConfig {
    /// The default probe threshold (8 segments of measured backlog).
    pub fn recommended() -> Self {
        SslConfig {
            gamma_segments: 8.0,
        }
    }
}

impl Default for SslConfig {
    fn default() -> Self {
        Self::recommended()
    }
}

/// The probe's state (one-way: congestion events can re-arm `Fast`, but
/// backlog readings only ever ratchet forward).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Doubling, watching for the first transient delay signal.
    Fast,
    /// Eighth-rate growth, watching for a standing queue.
    Paced,
    /// Probe complete — the engine's Reno rules drive.
    Done,
}

/// The delay probe that stands in for slow-start: ssthresh-free, with the
/// engine's Reno rules everywhere else.
#[derive(Debug)]
pub(crate) struct DelayProbe {
    cfg: SslConfig,
    phase: Phase,
    /// Byte accumulator for the paced probe (one MSS per
    /// `PACE_DIVISOR`·MSS acked).
    paced_accum: u64,
    /// ACKed bytes still to drain before the paced probe trusts its RTT
    /// samples: two flights — samples lag one flight, and the first
    /// post-switch sends transit the fast stage's still-draining transient
    /// queue, so their samples are stale too.
    settle_remaining: u64,
    /// ACKed bytes left in the current paced round (a round = one flight).
    round_remaining: u64,
    /// Smallest RTT sample seen this paced round — the standing-queue
    /// reading the exit decision trusts.
    round_rtt_min: Option<SimDuration>,
}

impl DelayProbe {
    /// A fast probe. There is deliberately no ssthresh input: the probe
    /// exit is measured, not configured (the engine keeps an
    /// effectively-infinite threshold until the probe pins it).
    pub(crate) fn new(cfg: SslConfig) -> Self {
        DelayProbe {
            cfg,
            phase: Phase::Fast,
            paced_accum: 0,
            settle_remaining: 0,
            round_remaining: 0,
            round_rtt_min: None,
        }
    }

    /// True while the delay probe (the variant's slow-start phase) runs.
    pub(crate) fn probing(&self) -> bool {
        self.phase != Phase::Done
    }

    /// The probe's state follows the slow-start semantics of the Reno
    /// response: a timeout re-arms the fast probe (the next slow-start is
    /// again ssthresh-free), fast retransmit and a CWR stall end it. The
    /// post-loss ssthresh is deliberately left alone: the probe never
    /// consults it (that is the variant's point), recovery exit still
    /// deflates to it, and the probe's own exit overwrites it with the
    /// measured BDP.
    pub(crate) fn on_congestion(&mut self, ev: CongestionEvent) {
        match ev {
            CongestionEvent::Timeout => *self = DelayProbe::new(self.cfg),
            CongestionEvent::FastRetransmit | CongestionEvent::LocalStall => {
                self.phase = Phase::Done
            }
        }
    }

    /// Recovery exit ends the probe.
    pub(crate) fn finish(&mut self) {
        self.phase = Phase::Done;
    }

    /// Estimated own-queue backlog in segments, if both RTT extremes are
    /// known.
    fn backlog_segments(r: &Reno, view: &CcView) -> Option<f64> {
        let (last, min) = (view.last_rtt?, view.min_rtt?);
        let last = last.as_nanos() as f64;
        let min = min.as_nanos() as f64;
        if last <= 0.0 {
            return None;
        }
        let cwnd_seg = r.cwnd as f64 / r.mss as f64;
        Some(cwnd_seg * (1.0 - min / last))
    }

    /// Leave the probe: pin window and threshold to the measured BDP
    /// (`round_min` is the standing-queue RTT the decision was made on).
    fn exit_probe(&mut self, r: &mut Reno, round_min_ns: f64, global_min_ns: f64) {
        let bdp = (r.cwnd as f64 * global_min_ns / round_min_ns) as u64;
        let target = bdp.max(r.floor());
        r.cwnd = target;
        r.ssthresh = target;
        self.phase = Phase::Done;
    }

    /// The probe's growth for one ACK; `false` once the probe is done and
    /// the engine's Reno rules take the ACK.
    pub(crate) fn on_ack(&mut self, r: &mut Reno, view: &CcView, newly_acked: u64) -> bool {
        match self.phase {
            Phase::Fast => match Self::backlog_segments(r, view) {
                // First delay signal: doubling's own transient queue says
                // the pipe is near. Stop doubling; creep and confirm (after
                // one flight of ACKs has flushed the transient's samples).
                Some(b) if b >= self.cfg.gamma_segments => {
                    self.phase = Phase::Paced;
                    self.settle_remaining = 2 * r.cwnd;
                }
                _ => r.slow_start_ack(newly_acked),
            },
            Phase::Paced => self.paced_ack(r, view, newly_acked),
            Phase::Done => return false,
        }
        true
    }

    fn paced_ack(&mut self, r: &mut Reno, view: &CcView, newly_acked: u64) {
        // Eighth-rate growth while the probe runs.
        self.paced_accum += newly_acked.min(r.mss);
        if self.paced_accum >= PACE_DIVISOR * r.mss {
            self.paced_accum -= PACE_DIVISOR * r.mss;
            r.cwnd += r.mss;
        }
        if self.settle_remaining > 0 {
            // Still settling: these samples price the fast stage's
            // transient queue and must not leak into any round the exit
            // verdict reads. The first trusted round opens the moment the
            // window drains.
            self.settle_remaining = self.settle_remaining.saturating_sub(newly_acked);
            if self.settle_remaining == 0 {
                self.round_remaining = r.cwnd;
                self.round_rtt_min = None;
            }
            return;
        }
        // Round accounting: fold the sample into the round minimum and
        // judge fullness once per flight of ACKed bytes.
        if let Some(rtt) = view.last_rtt {
            self.round_rtt_min = Some(self.round_rtt_min.map_or(rtt, |m| m.min(rtt)));
        }
        if self.round_remaining > newly_acked {
            self.round_remaining -= newly_acked;
            return;
        }
        let verdict = match (self.round_rtt_min, view.min_rtt) {
            (Some(rmin), Some(gmin)) if rmin.as_nanos() > 0 => {
                let rmin = rmin.as_nanos() as f64;
                let gmin = gmin.as_nanos() as f64;
                let cwnd_seg = r.cwnd as f64 / r.mss as f64;
                let standing = cwnd_seg * (1.0 - gmin / rmin);
                (standing >= 2.0 * self.cfg.gamma_segments).then_some((rmin, gmin))
            }
            _ => None,
        };
        match verdict {
            Some((rmin, gmin)) => self.exit_probe(r, rmin, gmin),
            None => {
                self.round_remaining = r.cwnd;
                self.round_rtt_min = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reno::SlowStart;
    use crate::{test_engine, CcAlgorithm, CcEngine, RecoveryEvent};
    use rss_sim::SimTime;

    const MSS: u32 = 1000;

    fn view(now_ms: u64, last_rtt_ms: Option<u64>, min_rtt_ms: Option<u64>) -> CcView {
        CcView {
            now: SimTime::from_millis(now_ms),
            flight: 0,
            ifq_depth: 0,
            ifq_max: 100,
            last_rtt: last_rtt_ms.map(SimDuration::from_millis),
            min_rtt: min_rtt_ms.map(SimDuration::from_millis),
            delivery_rate: None,
            app_limited: false,
        }
    }

    fn ssl_with(cfg: SslConfig) -> CcEngine {
        // The 4-segment ssthresh is ignored: the probe never reads one.
        let algo = CcAlgorithm::Ssthreshless(cfg);
        test_engine(algo, 2 * MSS as u64, 4 * MSS as u64, MSS)
    }

    fn ssl() -> CcEngine {
        ssl_with(SslConfig {
            gamma_segments: 8.0,
        })
    }

    fn probe(cc: &CcEngine) -> &DelayProbe {
        match &cc.window().start {
            SlowStart::Ssthreshless(probe) => probe,
            other => panic!("{other:?}"),
        }
    }

    fn paced(cc: &CcEngine) -> bool {
        probe(cc).phase == Phase::Paced
    }

    #[test]
    fn initial_probe_grows_at_standard_rate_without_rtt_samples() {
        let mut cc = ssl();
        let start = cc.cwnd();
        assert!(cc.in_slow_start());
        for i in 0..10 {
            cc.on_ack(&view(i, None, None), MSS as u64);
        }
        assert_eq!(cc.cwnd(), start + 10 * MSS as u64);
        assert!(
            probe(&cc).probing() && !paced(&cc),
            "no delay signal: still fast"
        );
    }

    #[test]
    fn steady_growth_ignores_any_configured_ssthresh() {
        // The ssthreshless property: with the RTT pinned at the propagation
        // floor (empty path), doubling continues far past where a classic
        // 16-segment ssthresh would have stopped it.
        let mut cc = ssl();
        for i in 0..100 {
            cc.on_ack(&view(i, Some(60), Some(60)), MSS as u64);
        }
        assert!(cc.cwnd() > 100 * MSS as u64, "cwnd {} too small", cc.cwnd());
        assert!(probe(&cc).probing(), "zero backlog: still probing");
        assert!(cc.in_slow_start());
    }

    #[test]
    fn transient_delay_ends_doubling_but_not_the_probe() {
        let mut cc = ssl();
        // Grow to 40 segments with an empty path...
        for i in 0..38 {
            cc.on_ack(&view(i, Some(60), Some(60)), MSS as u64);
        }
        assert_eq!(cc.cwnd(), 40 * MSS as u64);
        // ...then one burst-inflated sample: backlog ≈ 40·(1−60/76) ≈ 8.4
        // ≥ γ. That ends the fast stage without touching the window.
        cc.on_ack(&view(40, Some(76), Some(60)), MSS as u64);
        assert!(paced(&cc), "transient signal switches to the paced stage");
        assert_eq!(cc.cwnd(), 40 * MSS as u64, "no growth on the switch ACK");
        // Paced growth: one MSS per eight ACKed-MSS, not one per ACK.
        for i in 0..16 {
            cc.on_ack(&view(41 + i, Some(60), Some(60)), MSS as u64);
        }
        assert_eq!(cc.cwnd(), 42 * MSS as u64, "×9/8-rate creep");
        assert!(cc.in_slow_start(), "probe still running");
    }

    #[test]
    fn standing_queue_exits_at_the_measured_bdp() {
        // Stretch ACKs of one flight each make the paced round accounting
        // explicit: every on_ack below closes exactly one round.
        let mut cc = ssl();
        for i in 0..38 {
            cc.on_ack(&view(i, Some(60), Some(60)), MSS as u64);
        }
        cc.on_ack(&view(40, Some(76), Some(60)), MSS as u64); // → paced
        assert!(paced(&cc));
        let flight = 40 * MSS as u64;
        // Rounds 1-2 drain the two-flight settle window; their samples are
        // stale fast-phase transient and must NOT exit the probe, however
        // inflated they read.
        cc.on_ack(&view(100, Some(120), Some(60)), flight);
        assert!(paced(&cc), "stale transient ignored while settling");
        cc.on_ack(&view(160, Some(120), Some(60)), flight);
        assert!(paced(&cc), "still settling");
        // Settled round with a sub-threshold standing queue: the round min
        // 40·(1−60/90) ≈ 13.3 < 2γ=16 keeps the paced probe running...
        cc.on_ack(&view(220, Some(90), Some(60)), flight);
        assert!(paced(&cc), "below the confirmation threshold");
        // ...but a round whose *minimum* reads 40·(1−60/104) ≈ 16.9 ≥ 16
        // confirms the pipe is full: snap to the measured BDP 40·60/104 ≈
        // 23 segments and enter congestion avoidance.
        cc.on_ack(&view(280, Some(104), Some(60)), flight);
        assert!(!probe(&cc).probing(), "probe must end");
        assert!(!cc.in_slow_start());
        assert_eq!(cc.cwnd(), 23_076);
        assert_eq!(cc.ssthresh(), cc.cwnd());
        // Growth from here is congestion avoidance: ~1 MSS per window.
        let before = cc.cwnd();
        for i in 0..24 {
            cc.on_ack(&view(300 + i, Some(60), Some(60)), MSS as u64);
        }
        assert_eq!(cc.cwnd(), before + MSS as u64);
    }

    #[test]
    fn congestion_response_is_reno_and_timeout_rearms_the_probe() {
        let mut cc = ssl();
        for i in 0..38 {
            cc.on_ack(&view(i, Some(60), Some(60)), MSS as u64);
        }
        let v = CcView {
            flight: 20 * MSS as u64,
            ..view(40, Some(60), Some(60))
        };
        // Fast retransmit: Reno halving + inflation, probe over.
        cc.on_congestion(&v, CongestionEvent::FastRetransmit);
        assert_eq!(cc.ssthresh(), 10 * MSS as u64);
        assert_eq!(cc.cwnd(), 13 * MSS as u64);
        assert!(!cc.in_slow_start());
        cc.on_recovery(&v, RecoveryEvent::Exit { newly_acked: 0 });
        assert_eq!(cc.cwnd(), 10 * MSS as u64);
        // Timeout: window collapses and the (ssthresh-free) probe restarts.
        cc.on_congestion(&v, CongestionEvent::Timeout);
        assert_eq!(cc.cwnd(), MSS as u64);
        assert!(
            probe(&cc).probing() && !paced(&cc),
            "timeout re-arms the fast probe"
        );
        assert!(cc.in_slow_start());
        // And the restarted probe again ignores any finite threshold — it
        // doubles straight past the Reno base's post-loss ssthresh, which
        // is deliberately left in place for the recovery hooks.
        for i in 0..50 {
            cc.on_ack(&view(50 + i, Some(60), Some(60)), MSS as u64);
        }
        assert_eq!(cc.cwnd(), 51 * MSS as u64);
        assert!(cc.cwnd() > cc.ssthresh(), "probe ignores ssthresh");
        assert!(
            cc.in_slow_start(),
            "probing defines slow-start, not ssthresh"
        );
    }

    #[test]
    fn restart_stall_during_recovery_does_not_balloon_the_window() {
        // Regression: a timeout-class event (a RestartFromOne stall reaches
        // the controller as one) while fast recovery is in flight re-arms
        // the probe; the later recovery exit deflates to the Reno base's
        // ssthresh, which must be the genuine post-loss value — not an
        // "infinite" sentinel that would hand the sender an unbounded
        // window.
        let mut cc = ssl_with(SslConfig::recommended());
        for i in 0..38 {
            cc.on_ack(&view(i, Some(60), Some(60)), MSS as u64);
        }
        let v = CcView {
            flight: 40 * MSS as u64,
            ..view(40, Some(60), Some(60))
        };
        cc.on_congestion(&v, CongestionEvent::FastRetransmit);
        cc.on_congestion(&v, CongestionEvent::Timeout); // mid-recovery restart
        assert!(probe(&cc).probing(), "RestartFromOne re-arms the probe");
        cc.on_recovery(&v, RecoveryEvent::Exit { newly_acked: 0 });
        assert_eq!(cc.cwnd(), 20 * MSS as u64, "deflate to the real ssthresh");
        assert!(!probe(&cc).probing());
    }

    #[test]
    fn cwr_stall_leaves_the_probe() {
        let mut cc = ssl();
        for i in 0..10 {
            cc.on_ack(&view(i, Some(60), Some(60)), MSS as u64);
        }
        let v = CcView {
            flight: 10 * MSS as u64,
            ..view(10, Some(60), Some(60))
        };
        cc.on_congestion(&v, CongestionEvent::LocalStall);
        assert!(!probe(&cc).probing(), "CWR leaves slow-start");
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn bdp_snap_respects_the_two_segment_floor() {
        let mut cc = ssl_with(SslConfig {
            gamma_segments: 0.5,
        });
        // Tiny window, huge RTT inflation: backlog 2·(1−10/600) ≈ 1.97
        // clears both γ=0.5 (→ paced) and, once the two-flight settle
        // window drains, 2γ=1 (→ exit); the BDP estimate 2000·10/600 ≈ 33
        // bytes is floored at 2 MSS.
        cc.on_ack(&view(0, Some(600), Some(10)), MSS as u64);
        assert!(paced(&cc));
        for i in 0..3 {
            // One flight per stretch ACK: two settle rounds, then the
            // confirming round.
            cc.on_ack(&view(1 + i, Some(600), Some(10)), 2 * MSS as u64);
        }
        assert!(!probe(&cc).probing());
        assert_eq!(cc.cwnd(), 2 * MSS as u64);
    }

    #[test]
    fn name_and_config_accessors() {
        let cc = ssl();
        assert_eq!(
            crate::registry::find("ssthreshless").unwrap().algo,
            "ssthreshless-start"
        );
        assert_eq!(probe(&cc).cfg.gamma_segments, 8.0);
    }
}
