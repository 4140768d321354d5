//! Reference plant models for controller testing and tuning.
//!
//! The Ziegler–Nichols tuner and the PID ablation experiments need plants with
//! *known* analytic behaviour so the tuner's output can be checked against
//! theory. The IFQ of a sending host behaves approximately as an integrator
//! with transport delay (occupancy integrates the send/drain rate mismatch and
//! the controller observes it one feedback epoch late), so those two models
//! are the load-bearing ones; first- and second-order lags round out the
//! standard test set.

use std::collections::VecDeque;

/// A single-input single-output plant advanced in fixed time steps.
pub trait Plant {
    /// Advance the plant by `dt` seconds with control input `u`; returns the
    /// new output.
    fn step(&mut self, u: f64, dt: f64) -> f64;

    /// Current output without advancing.
    fn output(&self) -> f64;

    /// Return the plant to its initial state.
    fn reset(&mut self);
}

/// First-order lag: `tau · dy/dt + y = K · u`.
#[derive(Debug, Clone)]
pub struct FirstOrderPlant {
    /// Steady-state gain.
    pub gain: f64,
    /// Time constant (s).
    pub tau: f64,
    y: f64,
    y0: f64,
}

impl FirstOrderPlant {
    /// Create with initial output `y0`.
    pub fn new(gain: f64, tau: f64, y0: f64) -> Self {
        assert!(tau > 0.0, "tau must be positive");
        FirstOrderPlant {
            gain,
            tau,
            y: y0,
            y0,
        }
    }
}

impl Plant for FirstOrderPlant {
    fn step(&mut self, u: f64, dt: f64) -> f64 {
        // Exact discretisation of the linear ODE for a zero-order-hold input.
        let a = (-dt / self.tau).exp();
        self.y = a * self.y + (1.0 - a) * self.gain * u;
        self.y
    }
    fn output(&self) -> f64 {
        self.y
    }
    fn reset(&mut self) {
        self.y = self.y0;
    }
}

/// Pure integrator: `dy/dt = K · u`. The small-signal model of a queue whose
/// input rate is the control variable and whose drain rate is constant.
#[derive(Debug, Clone)]
pub struct IntegratorPlant {
    /// Integration gain.
    pub gain: f64,
    y: f64,
    y0: f64,
    /// Optional saturation bounds `(lo, hi)` — a real queue cannot go
    /// negative or exceed its capacity.
    pub limits: Option<(f64, f64)>,
}

impl IntegratorPlant {
    /// Unbounded integrator starting at `y0`.
    pub fn new(gain: f64, y0: f64) -> Self {
        IntegratorPlant {
            gain,
            y: y0,
            y0,
            limits: None,
        }
    }

    /// Integrator clamped to `[lo, hi]`, modelling a finite queue.
    pub fn saturating(gain: f64, y0: f64, lo: f64, hi: f64) -> Self {
        assert!(lo < hi);
        IntegratorPlant {
            gain,
            y: y0,
            y0,
            limits: Some((lo, hi)),
        }
    }
}

impl Plant for IntegratorPlant {
    fn step(&mut self, u: f64, dt: f64) -> f64 {
        self.y += self.gain * u * dt;
        if let Some((lo, hi)) = self.limits {
            self.y = self.y.clamp(lo, hi);
        }
        self.y
    }
    fn output(&self) -> f64 {
        self.y
    }
    fn reset(&mut self) {
        self.y = self.y0;
    }
}

/// Wraps another plant with pure transport delay (dead time) on the input.
///
/// Dead time is what gives a first-order plant a finite ultimate gain, making
/// it the canonical Ziegler–Nichols test subject.
#[derive(Debug, Clone)]
pub struct DeadTimePlant<P> {
    inner: P,
    /// Transport delay (s).
    pub delay: f64,
    // (remaining_delay, input) entries, oldest first.
    pipeline: VecDeque<(f64, f64)>,
}

impl<P: Plant> DeadTimePlant<P> {
    /// Delay the input to `inner` by `delay` seconds.
    pub fn new(inner: P, delay: f64) -> Self {
        assert!(delay >= 0.0);
        DeadTimePlant {
            inner,
            delay,
            pipeline: VecDeque::new(),
        }
    }

    /// Access to the wrapped plant.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Plant> Plant for DeadTimePlant<P> {
    fn step(&mut self, u: f64, dt: f64) -> f64 {
        self.pipeline.push_back((self.delay, u));
        // Age the pipeline; inputs whose delay has fully elapsed drive the
        // inner plant (piecewise within this dt step, oldest first).
        let mut remaining_dt = dt;
        while remaining_dt > 0.0 {
            match self.pipeline.front_mut() {
                Some((lag, pending_u)) if *lag <= 1e-12 => {
                    // This input is already live; it drives the plant until a
                    // younger input becomes live or dt is exhausted.
                    let live_u = *pending_u;
                    // Find how long until the *next* entry becomes live.
                    let until_next = self
                        .pipeline
                        .get(1)
                        .map(|&(lag2, _)| lag2)
                        .unwrap_or(f64::INFINITY);
                    let run = remaining_dt.min(until_next.max(1e-12));
                    self.inner.step(live_u, run);
                    remaining_dt -= run;
                    // Age every queued entry by the time we just consumed.
                    for (lag, _) in self.pipeline.iter_mut().skip(1) {
                        *lag = (*lag - run).max(0.0);
                    }
                    // Keep only the most recent live entry at the front.
                    while self.pipeline.len() > 1
                        && self.pipeline.get(1).map(|&(l, _)| l <= 1e-12) == Some(true)
                    {
                        self.pipeline.pop_front();
                    }
                }
                Some((lag, _)) => {
                    // Nothing live yet: the plant coasts with zero input.
                    let run = remaining_dt.min(*lag);
                    self.inner.step(0.0, run);
                    remaining_dt -= run;
                    for (lag, _) in self.pipeline.iter_mut() {
                        *lag = (*lag - run).max(0.0);
                    }
                }
                None => {
                    self.inner.step(0.0, remaining_dt);
                    break;
                }
            }
        }
        self.inner.output()
    }
    fn output(&self) -> f64 {
        self.inner.output()
    }
    fn reset(&mut self) {
        self.inner.reset();
        self.pipeline.clear();
    }
}

/// Analytic ultimate gain and period for a first-order-plus-dead-time plant
/// `K e^{−θs} / (τs + 1)` under proportional control.
///
/// The ultimate frequency `ω` solves `atan(ωτ) + ωθ = π`; then
/// `Kc = sqrt(1 + (ωτ)²) / K` and `Tc = 2π / ω`. Used to validate the
/// Ziegler–Nichols search.
pub fn fopdt_ultimate(gain: f64, tau: f64, theta: f64) -> (f64, f64) {
    assert!(gain > 0.0 && tau > 0.0 && theta > 0.0);
    // Bisection on ω: f(ω) = atan(ωτ) + ωθ − π, monotone increasing.
    let f = |w: f64| (w * tau).atan() + w * theta - std::f64::consts::PI;
    let mut lo = 1e-9;
    let mut hi = std::f64::consts::PI / theta; // f(hi) >= 0 always
    assert!(f(lo) < 0.0);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if f(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let w = 0.5 * (lo + hi);
    let kc = (1.0 + (w * tau).powi(2)).sqrt() / gain;
    let tc = 2.0 * std::f64::consts::PI / w;
    (kc, tc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_order_reaches_steady_state() {
        let mut p = FirstOrderPlant::new(2.0, 0.5, 0.0);
        for _ in 0..10_000 {
            p.step(1.0, 0.001);
        }
        assert!((p.output() - 2.0).abs() < 1e-6, "y = {}", p.output());
    }

    #[test]
    fn first_order_time_constant() {
        // After exactly tau seconds, a step response reaches 1 - 1/e.
        let mut p = FirstOrderPlant::new(1.0, 2.0, 0.0);
        let dt = 0.001;
        let steps = (2.0 / dt) as usize;
        for _ in 0..steps {
            p.step(1.0, dt);
        }
        let expect = 1.0 - (-1.0f64).exp();
        assert!((p.output() - expect).abs() < 1e-3, "y = {}", p.output());
    }

    #[test]
    fn integrator_ramps_linearly() {
        let mut p = IntegratorPlant::new(3.0, 0.0);
        for _ in 0..1000 {
            p.step(2.0, 0.001);
        }
        assert!((p.output() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn saturating_integrator_respects_limits() {
        let mut p = IntegratorPlant::saturating(1.0, 0.0, 0.0, 10.0);
        for _ in 0..100_000 {
            p.step(5.0, 0.01);
        }
        assert_eq!(p.output(), 10.0);
        for _ in 0..100_000 {
            p.step(-5.0, 0.01);
        }
        assert_eq!(p.output(), 0.0);
    }

    #[test]
    fn dead_time_delays_response() {
        let mut p = DeadTimePlant::new(IntegratorPlant::new(1.0, 0.0), 0.5);
        // Apply u=1 for 0.4 s: still inside the dead time, output ~0.
        for _ in 0..400 {
            p.step(1.0, 0.001);
        }
        assert!(p.output().abs() < 1e-9, "y = {}", p.output());
        // After a further 0.6 s, the input has been live for ~0.5 s.
        for _ in 0..600 {
            p.step(1.0, 0.001);
        }
        assert!((p.output() - 0.5).abs() < 0.01, "y = {}", p.output());
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut p = DeadTimePlant::new(FirstOrderPlant::new(1.0, 1.0, 0.25), 0.1);
        for _ in 0..1000 {
            p.step(1.0, 0.001);
        }
        assert!(p.output() > 0.3);
        p.reset();
        assert_eq!(p.output(), 0.25);
    }

    #[test]
    fn fopdt_ultimate_matches_known_case() {
        // K=1, tau=1, theta=1: ultimate frequency solves atan(w) + w = pi,
        // w ≈ 2.0288, Kc = sqrt(1+w^2) ≈ 2.26, Tc ≈ 3.096.
        let (kc, tc) = fopdt_ultimate(1.0, 1.0, 1.0);
        assert!((kc - 2.26).abs() < 0.01, "kc = {kc}");
        assert!((tc - 3.097).abs() < 0.01, "tc = {tc}");
    }
}
