//! Restricted Slow-Start — the paper's contribution.
//!
//! §3 of the paper: "We use a PID control algorithm to determine the rate of
//! increase during the slow-start phase. … The 90 % of the maximum value of
//! the network interface queue (IFQ) size is used as the set point and the
//! current value of the IFQ is used as the process variable. … the controller
//! calculates an output that determines the new value of the sender window."
//!
//! The paper leaves "an output that determines the new value" open. The
//! concretisation used here: the controller runs on every ACK; its output
//! `u` — in *segments* — is the permitted cwnd change for that ACK, clamped
//! to `[-1, +1]` segment. The `+1` ceiling makes the scheme *restricted*: it
//! can never out-accelerate standard slow-start (which adds one MSS per
//! ACK); as the IFQ approaches the set point the error shrinks and growth
//! throttles smoothly; on overshoot the window eases off. Outside slow-start
//! (after any loss event) behaviour is plain Reno — the paper modifies only
//! the slow-start phase.

use crate::reno::Reno;
use crate::CcView;
use rss_control::{PidConfig, PidController, PidGains};
use serde::{Deserialize, Serialize};

/// Configuration of the restricted slow-start controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RssConfig {
    /// PID gains (from Ziegler–Nichols; see `rss-control`).
    pub gains: PidGains,
    /// Set point as a fraction of the maximum IFQ size (paper: 0.9).
    pub setpoint_frac: f64,
    /// Largest window growth per ACK, in segments (paper's restriction: 1,
    /// i.e. never faster than standard slow-start).
    pub max_increment_segments: f64,
    /// Largest window *reduction* per ACK, in segments.
    pub max_decrement_segments: f64,
}

impl RssConfig {
    /// Defaults: the paper's 90 % set point with gains from the
    /// Ziegler–Nichols rule on the small-signal IFQ plant (the paper-rule
    /// arm of `scenarios/pid_ablation.json`; `examples/zn_tuning.rs` runs
    /// the tuning experiment itself).
    ///
    /// The IFQ's small-signal plant is an integrator (queue accumulates the
    /// controller's per-ACK increments at the ACK rate, K ≈ 8333 pkt/s on
    /// the 100 Mbit/s testbed) with one ACK interval of dead time
    /// (θ ≈ 120 µs), giving `Kc = π/(2Kθ) ≈ 1.571` and `Tc = 4θ = 480 µs`.
    /// The paper's rule `Kp = 0.33·Kc, Ti = 0.5·Tc, Td = 0.33·Tc` yields the
    /// constants below; `examples/zn_tuning.rs` reproduces them from the
    /// automated search and `tests/paper_claims.rs` confirms they hold the
    /// IFQ at the set point with zero stalls.
    pub fn tuned() -> Self {
        Self::tuned_for(100_000_000, 1500)
    }

    /// The Ziegler–Nichols paper rule specialised to a path.
    ///
    /// Small-signal IFQ plant: integrator with gain `K = ACK rate` and dead
    /// time `θ = one packet serialization time = 1/K`, so `K·θ = 1` and
    /// `Kc = π/(2Kθ) = π/2` independent of rate, while `Tc = 4θ` scales with
    /// the per-packet time. `wire_pkt_bytes` is MSS + headers (1500 on the
    /// paper's Ethernet path).
    pub fn tuned_for(rate_bps: u64, wire_pkt_bytes: u32) -> Self {
        assert!(rate_bps > 0 && wire_pkt_bytes > 0);
        let ack_rate = rate_bps as f64 / (8.0 * wire_pkt_bytes as f64);
        let theta = 1.0 / ack_rate;
        let kc = std::f64::consts::FRAC_PI_2;
        let tc = 4.0 * theta;
        RssConfig {
            gains: PidGains::pid(0.33 * kc, 0.5 * tc, 0.33 * tc),
            setpoint_frac: 0.9,
            max_increment_segments: 1.0,
            max_decrement_segments: 1.0,
        }
    }

    /// Same set point, caller-supplied gains (used by the tuning pipeline
    /// and the ablation experiments).
    pub fn with_gains(gains: PidGains) -> Self {
        RssConfig {
            gains,
            ..Self::tuned()
        }
    }
}

impl Default for RssConfig {
    fn default() -> Self {
        Self::tuned()
    }
}

/// The paper's slow-start: the PID controller and what it needs beside
/// the window.
#[derive(Debug)]
pub(crate) struct PidStart {
    pid: PidController,
    /// Set point as a fraction of the IFQ capacity, applied at the first
    /// view.
    setpoint_frac: f64,
    /// Growth ceiling per ACK, in multiples of standard slow-start's.
    max_increment: f64,
    /// Set once the IFQ capacity is known (first view); a timeout keeps it.
    setpoint_ready: bool,
    /// Fractional cwnd accumulation (sub-MSS controller outputs add up).
    frac_accum: f64,
}

impl PidStart {
    pub(crate) fn new(cfg: RssConfig) -> Self {
        let pid_cfg = PidConfig::new(cfg.gains, 0.0)
            .with_output_limits(-cfg.max_decrement_segments, cfg.max_increment_segments);
        PidStart {
            pid: PidController::new(pid_cfg),
            setpoint_frac: cfg.setpoint_frac,
            max_increment: cfg.max_increment_segments,
            setpoint_ready: false,
            frac_accum: 0.0,
        }
    }

    /// The PID restarts fresh when a timeout re-enters slow-start; the set
    /// point stays.
    pub(crate) fn restart(&mut self) {
        self.pid.reset();
        self.frac_accum = 0.0;
    }

    /// PID-paced growth for one ACK while in slow-start; `false` above
    /// ssthresh, where the avoidance policy grows the window.
    pub(crate) fn on_ack(&mut self, r: &mut Reno, view: &CcView, newly_acked: u64) -> bool {
        if r.cwnd >= r.ssthresh {
            return false;
        }
        if !self.setpoint_ready {
            self.pid
                .set_setpoint(self.setpoint_frac * view.ifq_max as f64);
            self.setpoint_ready = true;
        }
        // Controller output: permitted window change, in segments/ACK.
        let u = self.pid.update(view.now, view.ifq_depth as f64);
        // Restriction: never grow faster than `max_increment` times what
        // standard slow-start would add on this ACK (the RFC 5681
        // increment, min(newly_acked, MSS)). The paper's scheme uses 1.0 —
        // never more aggressive than standard; the ablation experiments
        // raise it to measure what the restriction itself contributes.
        let standard_inc = newly_acked.min(r.mss) as f64;
        let delta_bytes = (u * r.mss as f64).min(standard_inc * self.max_increment);
        self.frac_accum += delta_bytes;
        if self.frac_accum >= 1.0 {
            let add = self.frac_accum.floor();
            self.frac_accum -= add;
            r.cwnd += add as u64;
        } else if self.frac_accum <= -1.0 {
            let sub = (-self.frac_accum).floor();
            self.frac_accum += sub;
            // The floor bounds the decrease; it never raises a window that
            // a timeout left below it.
            r.cwnd = r.cwnd.saturating_sub(sub as u64).max(r.floor().min(r.cwnd));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reno::SlowStart;
    use crate::{test_engine, CcAlgorithm, CcEngine};
    use crate::{CongestionEvent, RecoveryEvent};
    use rss_sim::SimTime;

    const MSS: u32 = 1000;

    fn view(now_ms: u64, ifq_depth: u32) -> CcView {
        CcView {
            now: SimTime::from_millis(now_ms),
            flight: 0,
            ifq_depth,
            ifq_max: 100,
            last_rtt: None,
            min_rtt: None,
            delivery_rate: None,
            app_limited: false,
        }
    }

    fn rss() -> CcEngine {
        let cfg = RssConfig {
            gains: PidGains::pid(0.5, 0.5, 0.05),
            setpoint_frac: 0.9,
            max_increment_segments: 1.0,
            max_decrement_segments: 1.0,
        };
        test_engine(
            CcAlgorithm::Restricted(cfg),
            2 * MSS as u64,
            u64::MAX / 2,
            MSS,
        )
    }

    fn controller(cc: &CcEngine) -> &PidController {
        match &cc.window().start {
            SlowStart::Restricted(s) => &s.pid,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_ifq_grows_at_standard_slow_start_rate() {
        let mut cc = rss();
        // IFQ empty: error = 90, controller saturates at +1 segment/ACK —
        // exactly standard slow-start.
        let start = cc.cwnd();
        for i in 0..10 {
            cc.on_ack(&view(i, 0), MSS as u64);
        }
        assert_eq!(cc.cwnd(), start + 10 * MSS as u64);
    }

    #[test]
    fn growth_throttles_near_setpoint() {
        let mut cc = rss();
        // Warm the controller with an empty queue, then report occupancy at
        // the set point: growth must drop well below 1 MSS per ACK.
        for i in 0..5 {
            cc.on_ack(&view(i, 0), MSS as u64);
        }
        let at_setpoint = cc.cwnd();
        for i in 5..25 {
            cc.on_ack(&view(i, 90), MSS as u64);
        }
        let grown = cc.cwnd() as i64 - at_setpoint as i64;
        assert!(
            grown < 20 * MSS as i64 / 4,
            "growth at setpoint too fast: {grown} bytes over 20 ACKs"
        );
    }

    #[test]
    fn overshoot_shrinks_window_but_not_below_floor() {
        let mut cc = rss();
        for i in 0..5 {
            cc.on_ack(&view(i, 0), MSS as u64);
        }
        let before = cc.cwnd();
        // Queue far above set point: negative error, window eases off.
        for i in 5..60 {
            cc.on_ack(&view(i, 100), MSS as u64);
        }
        assert!(cc.cwnd() < before, "window should shrink on overshoot");
        assert!(cc.cwnd() >= 2 * MSS as u64, "floor respected");
    }

    #[test]
    fn never_faster_than_standard_slow_start() {
        // Property-style check over a sweep of IFQ depths: per-ACK growth
        // never exceeds one MSS.
        let mut cc = rss();
        let mut prev = cc.cwnd();
        for i in 0..200 {
            let depth = (i * 7) % 100;
            cc.on_ack(&view(i, depth as u32), MSS as u64);
            let now = cc.cwnd();
            assert!(
                now <= prev + MSS as u64,
                "grew {} > MSS in one ACK",
                now - prev
            );
            prev = now;
        }
    }

    #[test]
    fn falls_back_to_reno_after_slow_start() {
        let algo = CcAlgorithm::Restricted(RssConfig::tuned());
        // Already past ssthresh: congestion avoidance.
        let mut cc = test_engine(algo, 10 * MSS as u64, 5 * MSS as u64, MSS);
        assert!(!cc.in_slow_start());
        let v = view(0, 0);
        for _ in 0..10 {
            cc.on_ack(&v, MSS as u64);
        }
        // CA growth: one MSS per window, not one per ACK.
        assert_eq!(cc.cwnd(), 11 * MSS as u64);
    }

    #[test]
    fn loss_response_is_reno() {
        let mut cc = rss();
        let v = CcView {
            flight: 20 * MSS as u64,
            ..view(0, 50)
        };
        cc.on_congestion(&v, CongestionEvent::FastRetransmit);
        assert_eq!(cc.ssthresh(), 10 * MSS as u64);
        assert_eq!(cc.cwnd(), 13 * MSS as u64);
        cc.on_recovery(&v, RecoveryEvent::Exit { newly_acked: 0 });
        assert_eq!(cc.cwnd(), 10 * MSS as u64);
    }

    #[test]
    fn timeout_resets_controller() {
        let mut cc = rss();
        for i in 0..20 {
            cc.on_ack(&view(i, 40), MSS as u64);
        }
        assert!(controller(&cc).update_count() > 0);
        let v = CcView {
            flight: 10 * MSS as u64,
            ..view(20, 50)
        };
        cc.on_congestion(&v, CongestionEvent::Timeout);
        assert_eq!(controller(&cc).update_count(), 0, "controller reset");
        assert_eq!(cc.cwnd(), MSS as u64);
    }

    #[test]
    fn an_overfull_ifq_after_a_timeout_does_not_raise_the_window() {
        let mut cc = rss();
        let v = CcView {
            flight: 100 * MSS as u64,
            ..view(0, 50)
        };
        cc.on_congestion(&v, CongestionEvent::Timeout);
        assert_eq!(cc.cwnd(), MSS as u64);
        assert!(cc.in_slow_start());
        // The IFQ is full, over the set point: the controller asks for less,
        // and the 2-MSS floor must not turn that into growth.
        for i in 1..=2 {
            cc.on_ack(&view(i, 100), MSS as u64);
            assert_eq!(cc.cwnd(), MSS as u64, "ACK {i}");
        }
    }

    #[test]
    fn setpoint_from_first_view() {
        let mut cc = rss();
        cc.on_ack(&view(0, 0), MSS as u64);
        assert!((controller(&cc).config().setpoint - 90.0).abs() < 1e-12);
    }

    #[test]
    fn tuned_for_matches_paper_rule() {
        let cfg = RssConfig::tuned_for(100_000_000, 1500);
        // ACK rate 8333.3/s, θ = 120 µs, Kc = π/2, Tc = 480 µs.
        assert!((cfg.gains.kp - 0.33 * std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!(
            (cfg.gains.ti - 0.000_24).abs() < 1e-9,
            "ti {}",
            cfg.gains.ti
        );
        assert!(
            (cfg.gains.td - 0.000_158_4).abs() < 1e-9,
            "td {}",
            cfg.gains.td
        );
        assert_eq!(cfg.setpoint_frac, 0.9);
        // Kp is rate-invariant; the time constants scale inversely with rate.
        let fast = RssConfig::tuned_for(1_000_000_000, 1500);
        assert!((fast.gains.kp - cfg.gains.kp).abs() < 1e-12);
        assert!((fast.gains.ti - cfg.gains.ti / 10.0).abs() < 1e-9);
    }
}
