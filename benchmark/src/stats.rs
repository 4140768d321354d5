//! Order statistics for timing samples.

/// Median of `values` (mean of the middle pair for even counts). Panics on
/// an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile that still has at least ten samples beyond
/// it, with its value: `n = 41` gives p75 (10.25 samples above), `n = 1000`
/// gives p99. `None` below 20 samples, where no percentile above the median
/// qualifies.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    if n < 20 {
        return None;
    }
    let pct = ((1.0 - 10.0 / n as f64) * 100.0).floor().min(99.0) as u32;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest-rank: the smallest sample with at least pct % at or below it.
    let rank = ((pct as f64 / 100.0) * n as f64).ceil() as usize;
    Some((pct, v[rank.clamp(1, n) - 1]))
}

/// Interquartile range as a share of the median, quartiles as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method) —
/// the spread rule the benchmark contract applies to ten runs.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quantile = |k: usize| -> f64 {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quantile(3) - quantile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&ramp(19)), None);
        assert_eq!(tail_percentile(&ramp(20)), Some((50, 10.0)));
        // 41 samples: 1 − 10/41 = 75.6 % → p75; rank ⌈30.75⌉ = 31 leaves
        // exactly ten larger samples.
        assert_eq!(tail_percentile(&ramp(41)), Some((75, 31.0)));
        assert_eq!(tail_percentile(&ramp(100)), Some((90, 90.0)));
        assert_eq!(tail_percentile(&ramp(1000)), Some((99, 990.0)));
        // Never past p99, however many samples.
        assert_eq!(tail_percentile(&ramp(100_000)).unwrap().0, 99);
        for n in [20, 33, 41, 64, 250, 1000] {
            let (_, value) = tail_percentile(&ramp(n)).unwrap();
            assert!(n as f64 - value >= 10.0, "n={n} value={value}");
        }
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert!((quartile_spread(&[10.0, 20.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
