//! Time-ordered recording into the plain vectors a flow report holds.
//!
//! Times are seconds since the start of the run (`SimTime::as_secs_f64`, the
//! conversion the report applies). Every append checks that time does not
//! run backwards.

use rss_sim::SimTime;

/// `now` in seconds, checked not to precede the latest entry `last`.
fn stamp(now: SimTime, last: Option<f64>) -> f64 {
    let t = now.as_secs_f64();
    if let Some(last) = last {
        assert!(t >= last, "samples must be time-ordered ({t} < {last})");
    }
    t
}

/// Append the time of one event at `now`.
pub(crate) fn record(times: &mut Vec<f64>, now: SimTime) {
    times.push(stamp(now, times.last().copied()));
}

/// Append the sample `(now, v)`.
pub(crate) fn push(series: &mut Vec<(f64, f64)>, now: SimTime, v: f64) {
    series.push((stamp(now, series.last().map(|s| s.0)), v));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn push_and_query() {
        let mut s = Vec::new();
        push(&mut s, ms(0), 2.0);
        push(&mut s, ms(10), 4.0);
        push(&mut s, ms(20), 8.0);
        assert_eq!(s, [(0.0, 2.0), (0.01, 4.0), (0.02, 8.0)]);
        // Events at the same instant are in order.
        let mut t = Vec::new();
        record(&mut t, ms(500));
        record(&mut t, ms(1500));
        record(&mut t, ms(1500));
        assert_eq!(t, [0.5, 1.5, 1.5]);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_out_of_order() {
        let mut s = Vec::new();
        push(&mut s, ms(10), 1.0);
        push(&mut s, ms(5), 2.0);
    }
}
