//! Time-series recording for figures and experiment post-processing.
//!
//! Figure 1 of the paper is a *cumulative event count over time*; the
//! throughput plots are *windowed rates*. [`TimeSeries`] covers both: it
//! stores raw `(time, value)` samples and offers a cumulative view;
//! [`EventCounter`] is the staircase.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A named sequence of timestamped samples, append-only in time order.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct TimeSeries {
    name: String,
    times_ns: Vec<u64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Create an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            times_ns: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a sample. Timestamps must be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&last) = self.times_ns.last() {
            assert!(
                t.as_nanos() >= last,
                "samples must be time-ordered ({} < {last})",
                t.as_nanos()
            );
        }
        self.times_ns.push(t.as_nanos());
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times_ns.len()
    }

    /// True if no samples recorded.
    pub fn is_empty(&self) -> bool {
        self.times_ns.is_empty()
    }

    /// Iterate `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times_ns
            .iter()
            .zip(&self.values)
            .map(|(&t, &v)| (SimTime::from_nanos(t), v))
    }

    /// Last sample, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        match (self.times_ns.last(), self.values.last()) {
            (Some(&t), Some(&v)) => Some((SimTime::from_nanos(t), v)),
            _ => None,
        }
    }

    /// Cumulative sum view: `(time, running total)` for each sample.
    pub fn cumulative(&self) -> Vec<(SimTime, f64)> {
        let mut total = 0.0;
        self.iter()
            .map(|(t, v)| {
                total += v;
                (t, total)
            })
            .collect()
    }

    /// Render as CSV with a header; times in seconds.
    pub fn to_csv(&self) -> String {
        let mut s = String::with_capacity(self.len() * 24 + 32);
        s.push_str("time_s,");
        s.push_str(&self.name);
        s.push('\n');
        for (t, v) in self.iter() {
            s.push_str(&format!("{:.9},{v}\n", t.as_secs_f64()));
        }
        s
    }
}

/// Counts discrete events and exposes both the total and the event-time log.
/// This is exactly the shape of the paper's Figure 1 (cumulative send-stalls).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EventCounter {
    times_ns: Vec<u64>,
}

impl EventCounter {
    /// Create an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event at `t`.
    pub fn record(&mut self, t: SimTime) {
        if let Some(&last) = self.times_ns.last() {
            debug_assert!(t.as_nanos() >= last, "events must be time-ordered");
        }
        self.times_ns.push(t.as_nanos());
    }

    /// Total number of events.
    pub fn count(&self) -> u64 {
        self.times_ns.len() as u64
    }

    /// Number of events at or before `t`.
    pub fn count_at(&self, t: SimTime) -> u64 {
        self.times_ns.partition_point(|&x| x <= t.as_nanos()) as u64
    }

    /// Event timestamps.
    pub fn times(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.times_ns.iter().map(|&t| SimTime::from_nanos(t))
    }

    /// The cumulative staircase sampled at fixed intervals over `[0, end]`:
    /// `(sample_time, cumulative_count)`.
    pub fn staircase(&self, end: SimTime, step: SimDuration) -> Vec<(SimTime, u64)> {
        assert!(step > SimDuration::ZERO);
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            out.push((t, self.count_at(t)));
            if t >= end {
                break;
            }
            t = (t + step).min(end);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn push_and_query() {
        let mut s = TimeSeries::new("cwnd");
        s.push(ms(0), 2.0);
        s.push(ms(10), 4.0);
        s.push(ms(20), 8.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.last(), Some((ms(20), 8.0)));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_out_of_order() {
        let mut s = TimeSeries::new("x");
        s.push(ms(10), 1.0);
        s.push(ms(5), 2.0);
    }

    #[test]
    fn cumulative_monotone() {
        let mut s = TimeSeries::new("ev");
        s.push(ms(1), 1.0);
        s.push(ms(2), 1.0);
        s.push(ms(3), 1.0);
        let c = s.cumulative();
        assert_eq!(c[2].1, 3.0);
    }

    #[test]
    fn csv_shape() {
        let mut s = TimeSeries::new("v");
        s.push(ms(1), 2.5);
        let csv = s.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("time_s,v"));
        assert_eq!(lines.next(), Some("0.001000000,2.5"));
    }

    #[test]
    fn event_counter_staircase() {
        let mut c = EventCounter::new();
        c.record(ms(500));
        c.record(ms(1500));
        c.record(ms(1500));
        c.record(ms(7000));
        assert_eq!(c.count(), 4);
        assert_eq!(c.count_at(ms(499)), 0);
        assert_eq!(c.count_at(ms(500)), 1);
        assert_eq!(c.count_at(ms(1500)), 3);
        assert_eq!(c.count_at(ms(9999)), 4);
        let st = c.staircase(SimTime::from_secs(8), SimDuration::from_secs(1));
        assert_eq!(st.len(), 9);
        assert_eq!(st[0], (SimTime::ZERO, 0));
        assert_eq!(st[2].1, 3);
        assert_eq!(st[8].1, 4);
    }
}
