//! The time-windowed extremum filter and the delivery-rate estimator.
//!
//! Rate-based congestion control runs on two rolling statistics: the largest
//! recently-observed delivery rate (the bottleneck-bandwidth estimate, which
//! must *forget* old samples so a route change or competing flow shows up)
//! and the smallest recently-observed RTT (the propagation-delay estimate,
//! which must likewise expire samples taken while queues were standing).
//! Both are "extremum over a sliding time window" queries, answered by one
//! filter in O(1) amortized time with the classic monotonic deque: a new
//! sample evicts every older sample it dominates, so the deque stays sorted
//! and the front is always the current extremum. The filter keeps the
//! maximum; a minimum is the maximum of samples wrapped in
//! [`Reverse`](std::cmp::Reverse).
//!
//! All timestamps are simulation time; windows are closed on both ends
//! (a sample recorded exactly `window` ago still counts).

use rss_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

use crate::CcView;

/// Rolling maximum over a sliding time window: of bytes-per-second samples,
/// or a rolling minimum of RTT samples wrapped in
/// [`Reverse`](std::cmp::Reverse).
///
/// The deque invariant: values are strictly decreasing front-to-back, times
/// are increasing. The front is the windowed maximum.
#[derive(Debug, Clone)]
pub struct WindowedFilter<T> {
    window: SimDuration,
    samples: VecDeque<(SimTime, T)>,
}

impl<T: Ord + Copy> WindowedFilter<T> {
    /// A filter remembering samples for `window` of simulation time.
    pub fn new(window: SimDuration) -> Self {
        WindowedFilter {
            window,
            samples: VecDeque::new(),
        }
    }

    /// Record `value` at `now` and expire samples older than the window.
    /// Samples must arrive in non-decreasing time order (simulation time
    /// never runs backwards).
    pub fn update(&mut self, now: SimTime, value: T) {
        while self.samples.back().is_some_and(|&(_, v)| v <= value) {
            self.samples.pop_back();
        }
        self.samples.push_back((now, value));
        self.expire(now);
    }

    /// Drop samples that have aged out of the window as of `now`.
    pub fn expire(&mut self, now: SimTime) {
        while self
            .samples
            .front()
            .is_some_and(|&(t, _)| t + self.window < now)
        {
            self.samples.pop_front();
        }
    }

    /// The current windowed maximum, if any in-window sample exists.
    pub fn current(&self) -> Option<T> {
        self.samples.front().map(|&(_, v)| v)
    }
}

/// Bottleneck-bandwidth estimator fed from the sender's delivery-rate
/// samples (which ride the same Karn-filtered ACK path as RTT samples:
/// retransmitted segments never produce one).
///
/// Application-limited samples measure the application, not the path, so
/// they are only admitted when they *raise* the estimate — the standard
/// rate-sampling rule (draft-cheng-iccrg-delivery-rate-estimation).
#[derive(Debug, Clone)]
pub struct BandwidthEstimator {
    max_bw: WindowedFilter<u64>,
}

impl BandwidthEstimator {
    /// An estimator whose max filter spans `window` of simulation time.
    pub fn new(window: SimDuration) -> Self {
        BandwidthEstimator {
            max_bw: WindowedFilter::new(window),
        }
    }

    /// Ingest the delivery-rate sample carried by an ACK-time view, if any.
    /// Returns the sample it admitted into the filter.
    pub fn on_ack(&mut self, view: &CcView) -> Option<u64> {
        let rate = view.delivery_rate?;
        if view.app_limited && self.max_bw.current().is_some_and(|cur| rate <= cur) {
            self.max_bw.expire(view.now);
            return None;
        }
        self.max_bw.update(view.now, rate);
        Some(rate)
    }

    /// The current bottleneck-bandwidth estimate, payload bytes per second.
    pub fn bandwidth(&self) -> Option<u64> {
        self.max_bw.current()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn max_filter_tracks_running_maximum() {
        let mut f = WindowedFilter::new(d(100));
        assert_eq!(f.current(), None);
        f.update(t(0), 10);
        f.update(t(10), 30);
        f.update(t(20), 20);
        assert_eq!(f.current(), Some(30));
    }

    #[test]
    fn max_filter_expires_by_hand_computed_deadline() {
        let mut f = WindowedFilter::new(d(100));
        f.update(t(0), 50); // expires strictly after t=100ms
        f.update(t(40), 20); // shadowed until the 50 ages out
                             // At exactly t=100ms the t=0 sample is still in the closed window.
        f.expire(t(100));
        assert_eq!(f.current(), Some(50));
        // One nanosecond later it is gone and the 20 from t=40ms surfaces.
        f.expire(t(100) + SimDuration::from_nanos(1));
        assert_eq!(f.current(), Some(20));
        // The survivor itself dies just past t=140ms.
        f.expire(t(141));
        assert_eq!(f.current(), None);
    }

    #[test]
    fn max_filter_eviction_keeps_later_equal_sample() {
        // An equal newer sample replaces the older one, extending the
        // estimate's lifetime — ties must not pin the stale timestamp.
        let mut f = WindowedFilter::new(d(100));
        f.update(t(0), 40);
        f.update(t(90), 40);
        f.expire(t(150)); // t=0 would have expired at 100ms; t=90 lives to 190ms
        assert_eq!(f.current(), Some(40));
    }

    #[test]
    fn min_filter_tracks_and_expires() {
        let mut f = WindowedFilter::new(d(200));
        f.update(t(0), Reverse(d(80)));
        f.update(t(50), Reverse(d(60))); // new minimum evicts the 80
        f.update(t(100), Reverse(d(70))); // kept behind the 60
        assert_eq!(f.current(), Some(Reverse(d(60))));
        // The 60 from t=50ms expires just past t=250ms; the 70 takes over.
        f.expire(t(251));
        assert_eq!(f.current(), Some(Reverse(d(70))));
        // And the 70 from t=100ms expires just past t=300ms.
        f.expire(t(301));
        assert_eq!(f.current(), None);
    }

    fn view_with_rate(now_ms: u64, rate: Option<u64>, app_limited: bool) -> CcView {
        let mut v = crate::test_view(now_ms, 0);
        v.delivery_rate = rate;
        v.app_limited = app_limited;
        v
    }

    #[test]
    fn estimator_ignores_app_limited_samples_that_would_lower() {
        let mut e = BandwidthEstimator::new(d(1000));
        assert_eq!(
            e.on_ack(&view_with_rate(0, Some(1_000_000), false)),
            Some(1_000_000)
        );
        // App-limited and below the estimate: rejected.
        assert_eq!(e.on_ack(&view_with_rate(10, Some(200_000), true)), None);
        assert_eq!(e.bandwidth(), Some(1_000_000));
        // App-limited but *above* the estimate: the path proved it can do
        // more, so it is admitted.
        assert_eq!(
            e.on_ack(&view_with_rate(20, Some(2_000_000), true)),
            Some(2_000_000)
        );
        assert_eq!(e.bandwidth(), Some(2_000_000));
        // No sample on the view is a no-op.
        assert_eq!(e.on_ack(&view_with_rate(30, None, false)), None);
    }
}
