//! BBR-style rate probing (Cardwell et al., "BBR: Congestion-Based
//! Congestion Control", ACM Queue 14(5), 2016) — the repo's demonstration
//! that the pacing contract carries a genuinely rate-based controller, not
//! just window variants with a speed limit.
//!
//! The controller models the path by two rolling statistics — windowed
//! maximum delivery rate (`max_bw`, the bottleneck-bandwidth estimate) and
//! windowed minimum RTT (`min_rtt`, the propagation-delay estimate) — and
//! steers by *pacing rate* = gain × `max_bw` through three regimes:
//!
//! * **Startup**: gain 2.885 (the slow-start-equivalent 2/ln 2) until the
//!   bandwidth estimate stops growing ≥ 25 % per round for
//!   [`FULL_BW_ROUNDS`] consecutive rounds — the pipe is full.
//! * **Drain**: gain 1/2.885 for the queue built during startup, until
//!   flight ≤ one estimated BDP.
//! * **ProbeBw**: an eight-phase gain cycle `[1.25, 0.75, 1 ×6]`, one phase
//!   per `min_rtt`, probing for more bandwidth then draining what the probe
//!   queued.
//!
//! The congestion window is a backstop, not the control variable: it is
//! capped at [`CWND_GAIN`] × BDP (and grows at most by the bytes each ACK
//! delivered, so it can never outrun delivery). Loss is *not* a primary
//! signal — fast recovery leaves the model untouched — but a retransmission
//! timeout still collapses to one segment like every other variant here,
//! because at that point the model has demonstrably failed.
//!
//! Quantities and units follow the crate contract: all window and rate
//! state is in payload bytes and payload bytes per second.

use crate::filter::{BandwidthEstimator, WindowedFilter};
use crate::{CcView, CongestionEvent, PacingDecision};
use rss_sim::SimDuration;
use rss_sim::SimTime;
use std::cmp::Reverse;

/// Window over which bandwidth and RTT extrema are remembered.
pub const FILTER_WINDOW: SimDuration = SimDuration::from_secs(10);
/// Rounds without ≥ 25 % bandwidth growth before startup declares the pipe
/// full.
pub const FULL_BW_ROUNDS: u32 = 3;
/// Congestion-window gain over the estimated BDP (the in-flight backstop).
pub const CWND_GAIN: u64 = 2;
/// The ssthresh BBR reports: the "effectively infinite" sentinel the window
/// variants use for the same idea.
pub const SSTHRESH: u64 = u64::MAX / 2;
/// Startup/drain pacing gain as a ratio: 2.885 ≈ 2/ln 2.
pub const HIGH_GAIN: (u64, u64) = (2885, 1000);
/// The ProbeBw pacing-gain cycle, one entry per `min_rtt`.
pub const PROBE_GAINS: [(u64, u64); 8] = [
    (5, 4),
    (3, 4),
    (1, 1),
    (1, 1),
    (1, 1),
    (1, 1),
    (1, 1),
    (1, 1),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Startup,
    Drain,
    /// Index into [`PROBE_GAINS`].
    ProbeBw(usize),
}

/// BBR-style rate-probing congestion control: the engine's one arm that
/// is not a window engine. It has no loss threshold, reports
/// [`SSTHRESH`], and ignores every recovery event.
#[derive(Debug, Clone)]
pub struct BbrProbe {
    mss: u64,
    cwnd: u64,
    state: State,
    bw: BandwidthEstimator,
    /// The windowed minimum RTT, as the maximum of reversed samples.
    min_rtt: WindowedFilter<Reverse<SimDuration>>,
    /// ACKed bytes left in the current round (a round = one flight).
    round_remaining: u64,
    /// Bandwidth estimate the startup plateau detector last grew past.
    full_bw: u64,
    /// Consecutive rounds the estimate failed to grow ≥ 25 %.
    full_bw_rounds: u32,
    /// When the current ProbeBw phase started.
    cycle_stamp: SimTime,
}

impl BbrProbe {
    /// Create in startup with an initial window.
    pub(crate) fn new(initial_cwnd: u64, mss: u32) -> Self {
        let mss = mss as u64;
        BbrProbe {
            mss,
            cwnd: initial_cwnd.max(4 * mss),
            state: State::Startup,
            bw: BandwidthEstimator::new(FILTER_WINDOW),
            min_rtt: WindowedFilter::new(FILTER_WINDOW),
            round_remaining: 0,
            full_bw: 0,
            full_bw_rounds: 0,
            cycle_stamp: SimTime::ZERO,
        }
    }

    /// Estimated bandwidth-delay product in bytes, if both filters have a
    /// sample.
    fn bdp(&self) -> Option<u64> {
        let bw = self.bw.bandwidth()?;
        let Reverse(rtt) = self.min_rtt.current()?;
        Some((bw as u128 * rtt.as_nanos() as u128 / 1_000_000_000) as u64)
    }

    /// The in-flight backstop: [`CWND_GAIN`] × BDP, floored at four
    /// segments; unbounded until the model has its first estimates.
    fn target_cwnd(&self) -> u64 {
        match self.bdp() {
            Some(bdp) => (CWND_GAIN * bdp).max(4 * self.mss),
            None => u64::MAX,
        }
    }

    /// The pacing gain of the current regime.
    fn gain(&self) -> (u64, u64) {
        match self.state {
            State::Startup => HIGH_GAIN,
            State::Drain => (HIGH_GAIN.1, HIGH_GAIN.0),
            State::ProbeBw(phase) => PROBE_GAINS[phase],
        }
    }

    /// Round-boundary bookkeeping: the startup plateau detector.
    fn on_round_end(&mut self) {
        if self.state != State::Startup {
            return;
        }
        let bw = self.bw.bandwidth().unwrap_or(0);
        // Grown ≥ 25 % since the last mark? Keep chasing; else count a
        // plateau round.
        if bw * 4 >= self.full_bw * 5 && bw > self.full_bw {
            self.full_bw = bw;
            self.full_bw_rounds = 0;
        } else {
            self.full_bw_rounds += 1;
            if self.full_bw_rounds >= FULL_BW_ROUNDS {
                self.state = State::Drain;
            }
        }
    }

    fn advance_state(&mut self, view: &CcView) {
        match self.state {
            State::Startup => {}
            State::Drain => {
                if let Some(bdp) = self.bdp() {
                    if view.flight <= bdp {
                        self.state = State::ProbeBw(0);
                        self.cycle_stamp = view.now;
                    }
                }
            }
            State::ProbeBw(phase) => {
                let rotation = self
                    .min_rtt
                    .current()
                    .map_or(SimDuration::from_millis(100), |Reverse(rtt)| rtt);
                if view.now.saturating_since(self.cycle_stamp) >= rotation {
                    self.state = State::ProbeBw((phase + 1) % PROBE_GAINS.len());
                    self.cycle_stamp = view.now;
                }
            }
        }
    }

    pub(crate) fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// Startup is the slow-start analogue (exponential rate growth).
    pub(crate) fn in_slow_start(&self) -> bool {
        self.state == State::Startup
    }

    pub(crate) fn on_ack(&mut self, view: &CcView, newly_acked: u64) {
        if let Some(rtt) = view.last_rtt {
            self.min_rtt.update(view.now, Reverse(rtt));
        }
        self.bw.on_ack(view);

        // Round accounting drives the startup plateau detector.
        if self.round_remaining == 0 {
            self.round_remaining = self.cwnd;
        }
        if self.round_remaining <= newly_acked {
            self.on_round_end();
            self.round_remaining = 0;
        } else {
            self.round_remaining -= newly_acked;
        }

        self.advance_state(view);

        // The window backstop: grow by at most what this ACK delivered,
        // clamp to CWND_GAIN × BDP once the model has estimates.
        self.cwnd = self
            .cwnd
            .saturating_add(newly_acked)
            .min(self.target_cwnd())
            .max(4 * self.mss);
    }

    pub(crate) fn on_congestion(&mut self, ev: CongestionEvent) {
        match ev {
            // Loss is not a model signal; fast recovery proceeds with the
            // window it has (the pacing rate already bounds the send rate).
            CongestionEvent::FastRetransmit | CongestionEvent::LocalStall => {}
            CongestionEvent::Timeout => {
                // The model failed badly enough to drain the ACK clock:
                // conserve packets like everyone else and rebuild.
                self.cwnd = self.mss;
            }
        }
    }

    pub(crate) fn pacing(&self) -> PacingDecision {
        match self.bw.bandwidth() {
            // No estimate yet: let the window run the show (startup ACKs
            // will produce one within a round trip).
            None => PacingDecision::Unpaced,
            Some(bw) => {
                let (num, den) = self.gain();
                let rate = (bw as u128 * num as u128 / den as u128) as u64;
                PacingDecision::Rate {
                    bytes_per_sec: rate.max(1),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{test_view, CcEngine, RecoveryEvent};

    const MSS: u32 = 1000;

    fn bbr() -> BbrProbe {
        BbrProbe::new(4 * MSS as u64, MSS)
    }

    fn view(now_ms: u64, rate: Option<u64>, rtt_ms: u64, flight: u64) -> CcView {
        let mut v = test_view(now_ms, flight);
        v.last_rtt = Some(SimDuration::from_millis(rtt_ms));
        v.min_rtt = Some(SimDuration::from_millis(rtt_ms));
        v.delivery_rate = rate;
        v
    }

    /// Drive one full round of ACKs (cwnd worth of bytes) at a fixed
    /// delivery-rate sample.
    fn run_round(cc: &mut BbrProbe, t_ms: &mut u64, rate: u64, rtt_ms: u64) {
        let acks = cc.cwnd() / MSS as u64;
        for _ in 0..=acks {
            cc.on_ack(&view(*t_ms, Some(rate), rtt_ms, cc.cwnd()), MSS as u64);
            *t_ms += 1;
        }
    }

    #[test]
    fn no_estimate_means_unpaced_window_growth() {
        let mut cc = bbr();
        assert_eq!(cc.pacing(), PacingDecision::Unpaced);
        let before = cc.cwnd();
        // An ACK with no delivery-rate sample: pure window growth.
        let mut v = test_view(0, 0);
        v.last_rtt = None;
        cc.on_ack(&v, MSS as u64);
        assert_eq!(cc.cwnd(), before + MSS as u64);
        assert_eq!(cc.pacing(), PacingDecision::Unpaced);
    }

    #[test]
    fn startup_paces_at_high_gain_over_max_bw() {
        let mut cc = bbr();
        cc.on_ack(&view(0, Some(1_000_000), 50, 0), MSS as u64);
        assert!(cc.in_slow_start());
        assert_eq!(
            cc.pacing(),
            PacingDecision::Rate {
                bytes_per_sec: 1_000_000 * HIGH_GAIN.0 / HIGH_GAIN.1
            }
        );
    }

    #[test]
    fn plateau_exits_startup_then_drain_reaches_probe_bw() {
        let mut cc = bbr();
        let mut t = 0u64;
        // Growing estimate: stays in startup.
        run_round(&mut cc, &mut t, 1_000_000, 50);
        run_round(&mut cc, &mut t, 2_000_000, 50);
        assert!(cc.in_slow_start(), "estimate still growing");
        // Flat estimate for FULL_BW_ROUNDS rounds: pipe declared full.
        for _ in 0..FULL_BW_ROUNDS {
            assert!(cc.in_slow_start());
            run_round(&mut cc, &mut t, 2_000_000, 50);
        }
        assert!(!cc.in_slow_start(), "plateau must end startup");
        assert_eq!(cc.state, State::Drain);
        let drain = match cc.pacing() {
            PacingDecision::Rate { bytes_per_sec } => bytes_per_sec,
            other => panic!("expected a rate, got {other:?}"),
        };
        assert_eq!(
            drain,
            2_000_000 * HIGH_GAIN.1 / HIGH_GAIN.0,
            "drain inverts the gain"
        );
        // Flight at one BDP hands over to ProbeBw.
        let bdp = cc.bdp().unwrap();
        cc.on_ack(&view(t, Some(2_000_000), 50, bdp), MSS as u64);
        assert_eq!(cc.state, State::ProbeBw(0));
    }

    #[test]
    fn probe_bw_cycles_one_phase_per_min_rtt() {
        let mut cc = bbr();
        cc.state = State::ProbeBw(0);
        cc.cycle_stamp = SimTime::from_millis(0);
        cc.min_rtt.update(
            SimTime::from_millis(0),
            Reverse(SimDuration::from_millis(50)),
        );
        cc.bw.on_ack(&view(0, Some(2_000_000), 50, 0));
        // Same min_rtt elapses → next phase (0.75, the drain phase).
        cc.on_ack(&view(50, Some(2_000_000), 50, 0), MSS as u64);
        assert_eq!(cc.state, State::ProbeBw(1));
        assert_eq!(
            cc.pacing(),
            PacingDecision::Rate {
                bytes_per_sec: 2_000_000 * 3 / 4
            }
        );
        // Cycle wraps after all eight phases.
        for i in 2..=8 {
            cc.on_ack(&view(50 * i, Some(2_000_000), 50, 0), MSS as u64);
        }
        assert_eq!(cc.state, State::ProbeBw(0));
    }

    #[test]
    fn cwnd_is_clamped_to_twice_the_bdp() {
        let mut cc = bbr();
        // 2 MB/s × 100 ms ⇒ BDP = 200 000 bytes ⇒ clamp at 400 000.
        let mut t = 0u64;
        for _ in 0..40 {
            run_round(&mut cc, &mut t, 2_000_000, 100);
        }
        assert_eq!(cc.cwnd(), 2 * 200_000);
    }

    #[test]
    fn fast_retransmit_keeps_the_model_timeout_collapses() {
        let mut cc = bbr();
        let mut t = 0u64;
        run_round(&mut cc, &mut t, 2_000_000, 50);
        let before = cc.cwnd();
        let v = view(t, None, 50, before);
        let mut cc = CcEngine::Bbr(Box::new(cc));
        cc.on_congestion(&v, CongestionEvent::FastRetransmit);
        cc.on_recovery(&v, RecoveryEvent::Exit { newly_acked: 0 });
        assert_eq!(cc.cwnd(), before, "loss does not touch the model");
        assert_eq!(cc.ssthresh(), SSTHRESH);
        cc.on_congestion(&v, CongestionEvent::Timeout);
        assert_eq!(cc.cwnd(), MSS as u64, "RTO conserves packets");
    }
}
