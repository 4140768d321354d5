//! Fairness statistics over per-flow allocations and their time series.

/// Jain's fairness index for a set of per-flow allocations:
/// `(Σx)² / (n · Σx²)`; 1.0 is perfectly fair, `1/n` is one flow hogging
/// everything. Degenerate inputs (no flows, or all allocations zero) read
/// as perfectly fair.
pub fn jain_fairness(allocs: &[f64]) -> f64 {
    if allocs.is_empty() {
        return 1.0;
    }
    let sum: f64 = allocs.iter().sum();
    let sumsq: f64 = allocs.iter().map(|x| x * x).sum();
    if sumsq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (allocs.len() as f64 * sumsq)
}

/// Convergence time of a `(time, value)` series: the earliest time from
/// which the value stays at or above `target` through the end of the
/// series. `None` when the series is empty or the value dips below the
/// target after every crossing — a flapping metric has not converged.
///
/// The fairness subsystem feeds this the windowed Jain-index series with
/// `target = 1 − ε` to get the convergence-to-ε time; it is equally usable
/// on utilization or delivery-ratio series.
pub fn convergence_time(series: &[(f64, f64)], target: f64) -> Option<f64> {
    let mut since = None;
    for &(t, v) in series {
        if v >= target {
            since.get_or_insert(t);
        } else {
            since = None;
        }
    }
    since
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_bounds() {
        assert!((jain_fairness(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        let skew = jain_fairness(&[1.0, 0.0, 0.0, 0.0]);
        assert!((skew - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_index_two_flow_hand_computed_cases() {
        // Equal shares: perfectly fair.
        assert!((jain_fairness(&[50e6, 50e6]) - 1.0).abs() < 1e-12);
        // One hog: 1/n = 1/2.
        assert!((jain_fairness(&[100e6, 0.0]) - 0.5).abs() < 1e-12);
        // 3:1 split: (3+1)² / (2 · (9+1)) = 16/20 = 0.8.
        assert!((jain_fairness(&[3.0, 1.0]) - 0.8).abs() < 1e-12);
        // Scale invariance: same split at line rate.
        assert!((jain_fairness(&[75e6, 25e6]) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn jain_index_four_flow_hand_computed_cases() {
        // Equal quarters: 1.0.
        assert!((jain_fairness(&[25.0, 25.0, 25.0, 25.0]) - 1.0).abs() < 1e-12);
        // One hog: 1/n = 1/4.
        assert!((jain_fairness(&[1e9, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // 4:2:2:2 split: (10)² / (4 · (16+4+4+4)) = 100/112.
        assert!((jain_fairness(&[4.0, 2.0, 2.0, 2.0]) - 100.0 / 112.0).abs() < 1e-12);
        // Two pairs at 2:1: (6)² / (4 · (4+4+1+1)) = 36/40 = 0.9.
        assert!((jain_fairness(&[2.0, 2.0, 1.0, 1.0]) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn convergence_finds_the_last_upward_crossing() {
        let s = [
            (1.0, 0.2),
            (2.0, 0.96),
            (3.0, 0.5),
            (4.0, 0.97),
            (5.0, 0.99),
        ];
        assert_eq!(convergence_time(&s, 0.95), Some(4.0));
        // Converged from the first sample.
        assert_eq!(convergence_time(&s, 0.1), Some(1.0));
        // Never converges / empty series.
        assert_eq!(convergence_time(&s, 0.999), None);
        assert_eq!(convergence_time(&[], 0.5), None);
        // A final dip un-converges the whole series.
        let flap = [(1.0, 0.99), (2.0, 0.99), (3.0, 0.1)];
        assert_eq!(convergence_time(&flap, 0.95), None);
    }
}
