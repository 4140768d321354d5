//! Ziegler–Nichols ultimate-gain (closed-loop) tuning.
//!
//! The paper (§3) tunes its PID with the classic 1942 Ziegler–Nichols
//! procedure: proportional-only control, raise the gain until the loop shows
//! *sustained* oscillation, record the critical gain `Kc` and oscillation
//! period `Tc`, then derive the PID gains. The paper's constants
//!
//! ```text
//! Kp = 0.33 Kc,   Ti = 0.5 Tc,   Td = 0.33 Tc
//! ```
//!
//! are the Ziegler–Nichols *"some overshoot"* rule (`Kc/3, Tc/2, Tc/3`). The
//! original authors ran this by hand on a live kernel; here the experiment is
//! automated against a plant model, which makes the tuning experiment
//! (`examples/zn_tuning.rs`) reproducible.

use crate::pid::PidGains;
use crate::plant::Plant;
use serde::{Deserialize, Serialize};

/// How a closed-loop response was classified by the oscillation detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoopBehavior {
    /// Oscillation amplitude shrinks: gain below critical.
    Decaying,
    /// Oscillation amplitude approximately constant: at the critical gain.
    Sustained,
    /// Oscillation amplitude grows (or diverges): gain above critical.
    Growing,
}

/// Configuration for the ultimate-gain search.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ZnSearchConfig {
    /// Lower bound of the proportional-gain search interval.
    pub kp_lo: f64,
    /// Upper bound of the proportional-gain search interval.
    pub kp_hi: f64,
    /// Integration step for the closed-loop simulation (s).
    pub dt: f64,
    /// Closed-loop horizon per gain candidate (s). Must cover several
    /// oscillation periods.
    pub sim_time: f64,
    /// Setpoint for the closed-loop experiment.
    pub setpoint: f64,
    /// Relative convergence tolerance on `Kc`.
    pub tolerance: f64,
    /// Amplitude-ratio band treated as "sustained" (e.g. 0.05 ⇒ 0.95–1.05).
    pub sustained_band: f64,
}

impl Default for ZnSearchConfig {
    fn default() -> Self {
        ZnSearchConfig {
            kp_lo: 1e-3,
            kp_hi: 1e3,
            dt: 1e-3,
            sim_time: 60.0,
            setpoint: 1.0,
            tolerance: 1e-3,
            sustained_band: 0.05,
        }
    }
}

/// Outcome of a successful tuning run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ZnResult {
    /// Critical (ultimate) proportional gain.
    pub kc: f64,
    /// Oscillation period at the critical gain (s).
    pub tc: f64,
    /// Number of closed-loop experiments performed during the search.
    pub experiments: u32,
}

/// Why the search failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ZnError {
    /// Even the highest gain in range produced a decaying response — the
    /// plant has no finite ultimate gain (e.g. a pure first-order lag).
    NoOscillationInRange,
    /// Even the lowest gain in range produced a growing response.
    UnstableAtMinimumGain,
    /// The response at the critical gain had too few peaks to measure `Tc`.
    PeriodUndetectable,
}

impl std::fmt::Display for ZnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZnError::NoOscillationInRange => {
                write!(f, "no sustained oscillation found in the gain range")
            }
            ZnError::UnstableAtMinimumGain => {
                write!(f, "loop unstable even at the minimum gain")
            }
            ZnError::PeriodUndetectable => write!(f, "could not measure oscillation period"),
        }
    }
}

impl std::error::Error for ZnError {}

impl ZnResult {
    /// The paper's tuning rule (§3): `Kp = 0.33 Kc, Ti = 0.5 Tc, Td = 0.33 Tc`
    /// — the Ziegler–Nichols "some overshoot" variant.
    pub fn paper_gains(&self) -> PidGains {
        PidGains::pid(0.33 * self.kc, 0.5 * self.tc, 0.33 * self.tc)
    }
}

/// Detected peaks of a response: indices and values of local maxima.
fn find_peaks(ys: &[f64]) -> Vec<(usize, f64)> {
    let mut peaks = Vec::new();
    for i in 1..ys.len().saturating_sub(1) {
        if ys[i] > ys[i - 1] && ys[i] >= ys[i + 1] {
            // Plateau handling: only record the first sample of a plateau.
            if peaks
                .last()
                .map(|&(j, _): &(usize, f64)| i - j > 1 || ys[i] != ys[j])
                .unwrap_or(true)
            {
                peaks.push((i, ys[i]));
            }
        }
    }
    peaks
}

/// Run one proportional-only closed-loop experiment and record the output.
fn run_p_loop<P: Plant>(plant: &mut P, kp: f64, cfg: &ZnSearchConfig) -> Vec<f64> {
    plant.reset();
    let steps = (cfg.sim_time / cfg.dt).ceil() as usize;
    let mut ys = Vec::with_capacity(steps);
    for _ in 0..steps {
        let y = plant.output();
        ys.push(y);
        if !y.is_finite() || y.abs() > 1e12 {
            break; // diverged; enough signal for classification
        }
        let u = kp * (cfg.setpoint - y);
        plant.step(u, cfg.dt);
    }
    ys
}

/// Classify a closed-loop response by the trend of its peak amplitudes.
///
/// Amplitudes are measured around the *tail mean*, not the setpoint:
/// proportional-only control leaves a steady-state offset, and a settled
/// response with offset must classify as `Decaying`, not `Sustained`.
pub fn classify_response(ys: &[f64], setpoint: f64, sustained_band: f64) -> LoopBehavior {
    if ys.iter().any(|y| !y.is_finite()) || ys.iter().any(|y| y.abs() > 1e12) {
        return LoopBehavior::Growing;
    }
    // Ignore the initial transient: look at the second half.
    let tail = &ys[ys.len() / 2..];
    if tail.len() < 4 {
        return LoopBehavior::Decaying;
    }
    let mean = tail.iter().sum::<f64>() / tail.len() as f64;
    // Oscillations smaller than this are numerical noise around steady state.
    let amp_floor = 1e-6 * setpoint.abs().max(1.0);
    let peaks = find_peaks(tail);
    let amps: Vec<f64> = peaks
        .iter()
        .map(|&(_, v)| (v - mean).abs())
        .filter(|&a| a > amp_floor)
        .collect();
    if amps.len() < 3 {
        return LoopBehavior::Decaying;
    }
    // Geometric trend over the window: ratio of the mean of the last third to
    // the mean of the first third of peak amplitudes.
    let third = (amps.len() / 3).max(1);
    let head: f64 = amps[..third].iter().sum::<f64>() / third as f64;
    let tail_amp: f64 = amps[amps.len() - third..].iter().sum::<f64>() / third as f64;
    if head <= 1e-12 {
        return LoopBehavior::Decaying;
    }
    let ratio = tail_amp / head;
    if ratio < 1.0 - sustained_band {
        LoopBehavior::Decaying
    } else if ratio > 1.0 + sustained_band {
        LoopBehavior::Growing
    } else {
        LoopBehavior::Sustained
    }
}

/// Measure the mean oscillation period (s) from the response tail.
fn measure_period(ys: &[f64], dt: f64) -> Option<f64> {
    let tail_start = ys.len() / 2;
    let tail = &ys[tail_start..];
    let peaks = find_peaks(tail);
    if peaks.len() < 3 {
        return None;
    }
    let intervals: Vec<f64> = peaks
        .windows(2)
        .map(|w| (w[1].0 - w[0].0) as f64 * dt)
        .collect();
    Some(intervals.iter().sum::<f64>() / intervals.len() as f64)
}

/// Find the ultimate gain `Kc` and period `Tc` of `plant` by bisection on the
/// proportional gain, exactly as the manual Ziegler–Nichols experiment does.
pub fn find_ultimate_gain<P: Plant>(
    plant: &mut P,
    cfg: &ZnSearchConfig,
) -> Result<ZnResult, ZnError> {
    assert!(cfg.kp_lo > 0.0 && cfg.kp_hi > cfg.kp_lo, "bad gain range");
    let mut experiments = 0u32;
    let classify = |plant: &mut P, kp: f64, experiments: &mut u32| {
        *experiments += 1;
        let ys = run_p_loop(plant, kp, cfg);
        classify_response(&ys, cfg.setpoint, cfg.sustained_band)
    };

    // Establish the bracket.
    if classify(plant, cfg.kp_hi, &mut experiments) == LoopBehavior::Decaying {
        return Err(ZnError::NoOscillationInRange);
    }
    match classify(plant, cfg.kp_lo, &mut experiments) {
        LoopBehavior::Growing => return Err(ZnError::UnstableAtMinimumGain),
        LoopBehavior::Sustained => {
            // Degenerate but possible: treat kp_lo as critical.
        }
        LoopBehavior::Decaying => {}
    }

    let mut lo = cfg.kp_lo;
    let mut hi = cfg.kp_hi;
    while (hi - lo) / hi > cfg.tolerance {
        let mid = (lo * hi).sqrt(); // geometric bisection suits gain scales
        match classify(plant, mid, &mut experiments) {
            LoopBehavior::Decaying => lo = mid,
            LoopBehavior::Growing => hi = mid,
            LoopBehavior::Sustained => {
                lo = mid;
                hi = mid * (1.0 + cfg.tolerance);
                break;
            }
        }
    }
    let kc = 0.5 * (lo + hi);

    // One final experiment at Kc to measure the period.
    let ys = run_p_loop(plant, kc, cfg);
    experiments += 1;
    let tc = measure_period(&ys, cfg.dt).ok_or(ZnError::PeriodUndetectable)?;
    Ok(ZnResult {
        kc,
        tc,
        experiments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plant::{fopdt_ultimate, DeadTimePlant, FirstOrderPlant, IntegratorPlant};

    #[test]
    fn finds_kc_tc_for_fopdt_within_a_few_percent() {
        // K=1, tau=1, theta=1 has analytic Kc ≈ 2.26, Tc ≈ 3.10.
        let (kc_true, tc_true) = fopdt_ultimate(1.0, 1.0, 1.0);
        let mut plant = DeadTimePlant::new(FirstOrderPlant::new(1.0, 1.0, 0.0), 1.0);
        let cfg = ZnSearchConfig {
            dt: 2e-3,
            sim_time: 80.0,
            ..Default::default()
        };
        let r = find_ultimate_gain(&mut plant, &cfg).expect("tuning failed");
        let kc_err = (r.kc - kc_true).abs() / kc_true;
        let tc_err = (r.tc - tc_true).abs() / tc_true;
        assert!(kc_err < 0.05, "kc {} vs {kc_true}", r.kc);
        assert!(tc_err < 0.05, "tc {} vs {tc_true}", r.tc);
    }

    #[test]
    fn integrator_with_delay_has_ultimate_gain() {
        // Integrator + dead time θ: Kc = π/(2 K θ), Tc = 4θ.
        let theta = 0.25;
        let mut plant = DeadTimePlant::new(IntegratorPlant::new(1.0, 0.0), theta);
        let cfg = ZnSearchConfig {
            dt: 1e-3,
            sim_time: 40.0,
            ..Default::default()
        };
        let r = find_ultimate_gain(&mut plant, &cfg).expect("tuning failed");
        let kc_true = std::f64::consts::FRAC_PI_2 / theta;
        let tc_true = 4.0 * theta;
        assert!((r.kc - kc_true).abs() / kc_true < 0.06, "kc {}", r.kc);
        assert!((r.tc - tc_true).abs() / tc_true < 0.06, "tc {}", r.tc);
    }

    #[test]
    fn pure_first_order_has_no_ultimate_gain() {
        let mut plant = FirstOrderPlant::new(1.0, 1.0, 0.0);
        let cfg = ZnSearchConfig::default();
        assert_eq!(
            find_ultimate_gain(&mut plant, &cfg).unwrap_err(),
            ZnError::NoOscillationInRange
        );
    }

    #[test]
    fn paper_rule_constants() {
        let r = ZnResult {
            kc: 3.0,
            tc: 2.0,
            experiments: 0,
        };
        let g = r.paper_gains();
        assert!((g.kp - 0.99).abs() < 1e-12);
        assert!((g.ti - 1.0).abs() < 1e-12);
        assert!((g.td - 0.66).abs() < 1e-12);
    }

    #[test]
    fn classifier_labels_synthetic_responses() {
        let setpoint = 0.0;
        let decaying: Vec<f64> = (0..4000)
            .map(|i| (i as f64 * 0.05).sin() * (-(i as f64) * 0.002).exp())
            .collect();
        let sustained: Vec<f64> = (0..4000).map(|i| (i as f64 * 0.05).sin()).collect();
        let growing: Vec<f64> = (0..4000)
            .map(|i| (i as f64 * 0.05).sin() * ((i as f64) * 0.002).exp())
            .collect();
        assert_eq!(
            classify_response(&decaying, setpoint, 0.05),
            LoopBehavior::Decaying
        );
        assert_eq!(
            classify_response(&sustained, setpoint, 0.05),
            LoopBehavior::Sustained
        );
        assert_eq!(
            classify_response(&growing, setpoint, 0.05),
            LoopBehavior::Growing
        );
    }

    #[test]
    fn classifier_flags_divergence_as_growing() {
        let ys = vec![0.0, 1.0, f64::INFINITY];
        assert_eq!(classify_response(&ys, 0.0, 0.05), LoopBehavior::Growing);
    }

    #[test]
    fn flat_response_is_decaying() {
        let ys = vec![1.0; 1000];
        assert_eq!(classify_response(&ys, 1.0, 0.05), LoopBehavior::Decaying);
    }
}
