//! Discrete-time PID controller.
//!
//! The paper (§3) uses the standard (ISA / "ideal") form the 1987 Gerry survey
//! describes:
//!
//! ```text
//! u(t) = Kp * ( E(t) + (1/Ti) ∫ E dt + Td * dE/dt )
//! ```
//!
//! with the error `E = setpoint − process_variable`, the process variable
//! being the instantaneous IFQ occupancy and the setpoint 90 % of the maximum
//! IFQ size. This module implements that transfer function plus the two
//! classical robustness measures any deployed PID needs: integral anti-windup
//! (conditional clamping) and a first-order low-pass filter on the derivative
//! term (the derivative of a queue-occupancy signal is extremely noisy).

use rss_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Controller gains in standard form. `ti`/`td` are in **seconds**.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PidGains {
    /// Proportional gain `Kp`.
    pub kp: f64,
    /// Integral time constant `Ti` (s). `f64::INFINITY` disables the
    /// integral term (standard-form convention).
    pub ti: f64,
    /// Derivative time constant `Td` (s). `0.0` disables the derivative term.
    pub td: f64,
}

impl PidGains {
    /// Proportional-only controller.
    pub fn p(kp: f64) -> Self {
        PidGains {
            kp,
            ti: f64::INFINITY,
            td: 0.0,
        }
    }

    /// Proportional-integral controller.
    pub fn pi(kp: f64, ti: f64) -> Self {
        PidGains { kp, ti, td: 0.0 }
    }

    /// Full PID controller.
    pub fn pid(kp: f64, ti: f64, td: f64) -> Self {
        PidGains { kp, ti, td }
    }

    /// True if every gain is finite-or-conventional and non-negative.
    pub fn is_valid(&self) -> bool {
        self.kp.is_finite()
            && self.kp >= 0.0
            && self.ti > 0.0 // INFINITY allowed
            && self.td >= 0.0
            && self.td.is_finite()
    }
}

/// Static configuration of a [`PidController`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PidConfig {
    /// Controller gains.
    pub gains: PidGains,
    /// Target value for the process variable (for RSS: `0.9 × ifq_max`).
    pub setpoint: f64,
    /// Lower clamp on the controller output.
    pub output_min: f64,
    /// Upper clamp on the controller output.
    pub output_max: f64,
    /// Smoothing factor for the derivative low-pass filter, in `(0, 1]`.
    /// `1.0` means unfiltered; smaller values smooth more.
    pub derivative_filter: f64,
}

impl PidConfig {
    /// Config with symmetric output limits and sensible filtering defaults.
    pub fn new(gains: PidGains, setpoint: f64) -> Self {
        PidConfig {
            gains,
            setpoint,
            output_min: f64::NEG_INFINITY,
            output_max: f64::INFINITY,
            derivative_filter: 0.5,
        }
    }

    /// Set output clamps (builder style).
    pub fn with_output_limits(mut self, min: f64, max: f64) -> Self {
        assert!(min <= max, "output_min > output_max");
        self.output_min = min;
        self.output_max = max;
        self
    }
}

/// The controller state. Feed it timestamped process-variable samples through
/// [`PidController::update`]; it returns the clamped control output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PidController {
    cfg: PidConfig,
    integral: f64,
    prev: Option<PrevSample>,
    filtered_derivative: f64,
    last_output: f64,
    updates: u64,
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct PrevSample {
    time_ns: u64,
    error: f64,
    pv: f64,
}

impl PidController {
    /// Create a controller from a configuration.
    pub fn new(cfg: PidConfig) -> Self {
        assert!(cfg.gains.is_valid(), "invalid PID gains {:?}", cfg.gains);
        PidController {
            cfg,
            integral: 0.0,
            prev: None,
            filtered_derivative: 0.0,
            last_output: 0.0,
            updates: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PidConfig {
        &self.cfg
    }

    /// Change the setpoint without resetting accumulated state.
    pub fn set_setpoint(&mut self, setpoint: f64) {
        self.cfg.setpoint = setpoint;
    }

    /// The most recent output (clamped).
    pub fn last_output(&self) -> f64 {
        self.last_output
    }

    /// Number of updates performed.
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// The accumulated integral ∫E dt (seconds-weighted error).
    pub fn integral(&self) -> f64 {
        self.integral
    }

    /// Clear all accumulated state (integral, derivative history, counters).
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.prev = None;
        self.filtered_derivative = 0.0;
        self.last_output = 0.0;
        self.updates = 0;
    }

    /// Process one measurement of the process variable at time `now` and
    /// return the control output `Kp(E + 1/Ti ∫E dt + Td dE/dt)`, clamped to
    /// the configured output range.
    ///
    /// Anti-windup: the integral is only accumulated while the *unclamped*
    /// output stays inside the limits or the error drives it back toward the
    /// allowed range (conditional integration).
    pub fn update(&mut self, now: SimTime, pv: f64) -> f64 {
        assert!(pv.is_finite(), "non-finite process variable {pv}");
        let error = self.cfg.setpoint - pv;
        self.updates += 1;

        let dt = match self.prev {
            Some(p) => {
                let dt_ns = now.as_nanos().saturating_sub(p.time_ns);
                dt_ns as f64 / 1e9
            }
            None => 0.0,
        };

        // Integral term (skipped on the very first sample: no dt yet).
        let mut candidate_integral = self.integral;
        if dt > 0.0 && self.cfg.gains.ti.is_finite() {
            // Trapezoidal accumulation is noticeably more accurate than
            // rectangular at the coarse per-ACK sampling RSS uses.
            let prev_error = self.prev.map_or(error, |p| p.error);
            candidate_integral += 0.5 * (error + prev_error) * dt;
        }

        // Derivative term, low-pass filtered.
        if dt > 0.0 && self.cfg.gains.td > 0.0 {
            // On the measurement, not the error: d(error)/dt = -d(pv)/dt
            // while the setpoint holds, and a setpoint change does not kick
            // the output.
            let prev_pv = self.prev.map_or(pv, |p| p.pv);
            let raw = -(pv - prev_pv) / dt;
            let a = self.cfg.derivative_filter;
            self.filtered_derivative = a * raw + (1.0 - a) * self.filtered_derivative;
        }

        let g = self.cfg.gains;
        let integral_term = if g.ti.is_finite() {
            candidate_integral / g.ti
        } else {
            0.0
        };
        let unclamped = g.kp * (error + integral_term + g.td * self.filtered_derivative);
        let output = unclamped.clamp(self.cfg.output_min, self.cfg.output_max);

        // Conditional integration: commit the new integral only if we are not
        // saturated, or if the new error pushes the output back in range.
        let saturated_high = unclamped > self.cfg.output_max && error > 0.0;
        let saturated_low = unclamped < self.cfg.output_min && error < 0.0;
        if !(saturated_high || saturated_low) {
            self.integral = candidate_integral;
        }

        self.prev = Some(PrevSample {
            time_ns: now.as_nanos(),
            error,
            pv,
        });
        self.last_output = output;
        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plant::{DeadTimePlant, FirstOrderPlant, Plant};
    use crate::ziegler_nichols::{find_ultimate_gain, ZnSearchConfig};
    use rss_sim::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn p_only_is_proportional_to_error() {
        let mut c = PidController::new(PidConfig::new(PidGains::p(2.0), 10.0));
        assert_eq!(c.update(t(0), 4.0), 12.0); // E = 6, u = 2*6
        assert_eq!(c.update(t(1), 10.0), 0.0); // E = 0
        assert_eq!(c.update(t(2), 13.0), -6.0); // E = -3
    }

    #[test]
    fn integral_accumulates_error_over_time() {
        // PI with Ti = 1 s: after holding E = 1 for 2 s, the integral term
        // contributes ~2.0 (trapezoid over constant error is exact).
        let mut c = PidController::new(PidConfig::new(PidGains::pi(1.0, 1.0), 1.0));
        let mut now = SimTime::ZERO;
        let mut u = 0.0;
        for _ in 0..2001 {
            u = c.update(now, 0.0); // E = 1 forever
            now += SimDuration::from_millis(1);
        }
        // u = Kp*(E + I/Ti) = 1 + 2.0
        assert!((u - 3.0).abs() < 1e-6, "u = {u}");
    }

    #[test]
    fn first_sample_has_no_integral_or_derivative() {
        let mut c = PidController::new(PidConfig::new(PidGains::pid(1.0, 0.5, 0.5), 5.0));
        let u = c.update(t(0), 0.0);
        assert_eq!(u, 5.0); // pure P on first sample
        assert_eq!(c.integral(), 0.0);
    }

    #[test]
    fn derivative_opposes_rapid_pv_rise() {
        // derivative on measurement: pv jumping up should *reduce* output.
        let cfg = PidConfig {
            derivative_filter: 1.0,
            ..PidConfig::new(PidGains::pid(1.0, f64::INFINITY, 0.1), 10.0)
        };
        let mut c = PidController::new(cfg);
        c.update(t(0), 0.0);
        let u_slow = 10.0 - 5.0; // E if pv were 5, no derivative
        let u = c.update(t(100), 5.0); // pv rose 5 in 100 ms -> dpv/dt = 50/s
        assert!(u < u_slow, "derivative should oppose the rise: {u}");
        // u = Kp*(E + Td * (-50)) = 5 - 5 = 0
        assert!((u - 0.0).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn derivative_kick_avoided_on_setpoint_change() {
        let cfg = PidConfig {
            derivative_filter: 1.0,
            ..PidConfig::new(PidGains::pid(1.0, f64::INFINITY, 1.0), 0.0)
        };
        let mut c = PidController::new(cfg);
        c.update(t(0), 5.0);
        c.set_setpoint(100.0);
        // pv unchanged: derivative-on-measurement sees no pv movement, so no
        // spike beyond the proportional response.
        let u = c.update(t(1), 5.0);
        assert!((u - 95.0).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn output_clamps() {
        let cfg = PidConfig::new(PidGains::p(100.0), 10.0).with_output_limits(-1.0, 1.0);
        let mut c = PidController::new(cfg);
        assert_eq!(c.update(t(0), 0.0), 1.0);
        assert_eq!(c.update(t(1), 20.0), -1.0);
    }

    #[test]
    fn anti_windup_freezes_integral_when_saturated() {
        let cfg = PidConfig::new(PidGains::pi(1.0, 0.1), 10.0).with_output_limits(0.0, 1.0);
        let mut c = PidController::new(cfg);
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            c.update(now, 0.0); // persistent large error, output pinned at 1.0
            now += SimDuration::from_millis(1);
        }
        let wound = c.integral();
        assert!(
            wound < 0.05,
            "integral should be frozen while saturated, got {wound}"
        );
        // When the pv overshoots the setpoint the controller must react
        // immediately rather than bleeding off a huge stored integral.
        let u = c.update(now, 20.0);
        assert_eq!(u, 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = PidController::new(PidConfig::new(PidGains::pi(1.0, 1.0), 1.0));
        c.update(t(0), 0.0);
        c.update(t(1000), 0.0);
        assert!(c.integral() > 0.0);
        c.reset();
        assert_eq!(c.integral(), 0.0);
        assert_eq!(c.last_output(), 0.0);
    }

    #[test]
    fn update_count_tracks() {
        let mut c = PidController::new(PidConfig::new(PidGains::p(1.0), 0.0));
        for i in 0..5 {
            c.update(t(i), 0.0);
        }
        assert_eq!(c.update_count(), 5);
    }

    #[test]
    #[should_panic(expected = "invalid PID gains")]
    fn rejects_negative_kp() {
        PidController::new(PidConfig::new(PidGains::p(-1.0), 0.0));
    }

    #[test]
    #[should_panic(expected = "non-finite process variable")]
    fn rejects_nan_pv() {
        let mut c = PidController::new(PidConfig::new(PidGains::p(1.0), 0.0));
        c.update(t(0), f64::NAN);
    }

    #[test]
    fn gains_validity() {
        assert!(PidGains::p(1.0).is_valid());
        assert!(PidGains::pi(1.0, 2.0).is_valid());
        assert!(!PidGains::pid(1.0, 0.0, 0.1).is_valid()); // Ti = 0 ill-formed
        assert!(!PidGains::pid(1.0, 1.0, f64::INFINITY).is_valid());
    }

    /// Close a loop of `cfg` around `plant` for `duration` seconds at a
    /// fixed `dt`; returns the plant output the controller saw each step.
    fn closed_loop<P: Plant>(plant: &mut P, cfg: PidConfig, dt: f64, duration: f64) -> Vec<f64> {
        let mut pid = PidController::new(cfg);
        (0..(duration / dt).ceil() as usize)
            .map(|i| {
                let y = plant.output();
                let u = pid.update(SimTime::from_secs_f64(i as f64 * dt), y);
                plant.step(u, dt);
                y
            })
            .collect()
    }

    #[test]
    fn pi_eliminates_steady_state_error_on_first_order() {
        // P-only on a first-order plant leaves offset; PI removes it.
        let mut plant = FirstOrderPlant::new(1.0, 0.5, 0.0);
        let p_cfg = PidConfig::new(PidGains::p(2.0), 1.0);
        let y_final_p = *closed_loop(&mut plant, p_cfg, 1e-3, 20.0).last().unwrap();
        // P-only steady state: y = Kp*K/(1+Kp*K) = 2/3.
        assert!((y_final_p - 2.0 / 3.0).abs() < 0.01, "y {y_final_p}");

        plant.reset();
        let pi_cfg = PidConfig::new(PidGains::pi(2.0, 0.5), 1.0);
        let y_final_pi = *closed_loop(&mut plant, pi_cfg, 1e-3, 20.0).last().unwrap();
        assert!((y_final_pi - 1.0).abs() < 0.01, "y {y_final_pi}");
    }

    #[test]
    fn zn_paper_gains_stabilize_fopdt() {
        // End-to-end: tune on the plant, then close the loop with the paper's
        // rule and check the step response settles with bounded overshoot.
        let mut plant = DeadTimePlant::new(FirstOrderPlant::new(1.0, 1.0, 0.0), 1.0);
        let zcfg = ZnSearchConfig {
            dt: 2e-3,
            sim_time: 80.0,
            ..Default::default()
        };
        let zn = find_ultimate_gain(&mut plant, &zcfg).unwrap();
        plant.reset();
        let ys = closed_loop(
            &mut plant,
            PidConfig::new(zn.paper_gains(), 1.0),
            2e-3,
            60.0,
        );
        let last = ys[ys.len() - 1];
        let peak = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!((last - 1.0).abs() < 0.02, "settles at {last}");
        assert!(peak < 1.6, "overshoots to {peak}");
    }
}
