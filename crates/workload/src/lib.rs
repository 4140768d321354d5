//! # rss-workload — application models
//!
//! Traffic the transport carries in the experiments:
//!
//! * [`AppModel::Bulk`] — the memory-to-memory transfer of the paper's §4
//!   (an iperf-style source, optionally bounded);
//! * [`AppModel::Periodic`] — burst-every-interval writes, which exercise the
//!   application-limited (`SndLimTime_Sender`) paths and model request
//!   pipelining;
//! * parallel-stream helpers for the GridFTP-style workloads that motivated
//!   the authors (one logical transfer striped over N connections).
//!
//! Data flows one way (sender → receiver) as in the paper's evaluation;
//! request/response *think time* is modelled by the periodic writer rather
//! than by reversing the data path.

#![warn(missing_docs)]

use rss_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// What the sending application does on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppModel {
    /// Write continuously; `bytes = None` means until the run ends.
    Bulk {
        /// Total transfer size; `None` = unbounded.
        bytes: Option<u64>,
    },
    /// Write `burst_bytes` every `interval`, `count` times (`None` =
    /// forever).
    Periodic {
        /// Bytes written per burst.
        burst_bytes: u64,
        /// Gap between the *starts* of consecutive bursts.
        interval: SimDuration,
        /// Number of bursts; `None` = unbounded.
        count: Option<u32>,
    },
}

impl AppModel {
    /// Bytes the sender should be created with (`None` = unbounded source).
    pub fn initial_bytes(&self) -> Option<u64> {
        match *self {
            AppModel::Bulk { bytes } => bytes,
            // Periodic sources start empty and are fed by write events.
            AppModel::Periodic { .. } => Some(0),
        }
    }

    /// Total bytes this model will ever write, if bounded.
    pub fn total_bytes(&self) -> Option<u64> {
        match *self {
            AppModel::Bulk { bytes } => bytes,
            AppModel::Periodic {
                burst_bytes, count, ..
            } => count.map(|c| burst_bytes.saturating_mul(u64::from(c))),
        }
    }
}

/// Drives an [`AppModel`]'s write schedule.
#[derive(Debug, Clone)]
pub struct AppDriver {
    model: AppModel,
    bursts_done: u32,
}

impl AppDriver {
    /// Create a driver for `model`.
    pub fn new(model: AppModel) -> Self {
        AppDriver {
            model,
            bursts_done: 0,
        }
    }

    /// The model being driven.
    pub fn model(&self) -> AppModel {
        self.model
    }

    /// The next write this application performs at-or-after `now`:
    /// `(when, bytes)`. `None` when the application is done writing.
    /// Call once per returned event; the driver advances internally.
    pub fn next_write(&mut self, start: SimTime) -> Option<(SimTime, u64)> {
        match self.model {
            AppModel::Bulk { .. } => None, // all data committed up front
            AppModel::Periodic {
                burst_bytes,
                interval,
                count,
            } => {
                if let Some(c) = count {
                    if self.bursts_done >= c {
                        return None;
                    }
                }
                let when = start + interval * self.bursts_done as u64;
                self.bursts_done += 1;
                Some((when, burst_bytes))
            }
        }
    }

    /// Number of bursts emitted so far.
    pub fn bursts_done(&self) -> u32 {
        self.bursts_done
    }
}

/// Split a transfer of `total_bytes` over `streams` parallel connections
/// (GridFTP-style striping): returns per-stream byte counts that sum exactly
/// to the total, differing by at most one byte.
pub fn stripe_bytes(total_bytes: u64, streams: u32) -> Vec<u64> {
    assert!(streams > 0);
    let base = total_bytes / streams as u64;
    let extra = (total_bytes % streams as u64) as u32;
    (0..streams).map(|i| base + u64::from(i < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_commits_everything_up_front() {
        let m = AppModel::Bulk {
            bytes: Some(1_000_000),
        };
        assert_eq!(m.initial_bytes(), Some(1_000_000));
        assert_eq!(m.total_bytes(), Some(1_000_000));
        let mut d = AppDriver::new(m);
        assert_eq!(d.next_write(SimTime::ZERO), None);
    }

    #[test]
    fn unbounded_bulk() {
        let m = AppModel::Bulk { bytes: None };
        assert_eq!(m.initial_bytes(), None);
        assert_eq!(m.total_bytes(), None);
    }

    #[test]
    fn periodic_schedule() {
        let m = AppModel::Periodic {
            burst_bytes: 5000,
            interval: SimDuration::from_millis(100),
            count: Some(3),
        };
        assert_eq!(m.initial_bytes(), Some(0));
        assert_eq!(m.total_bytes(), Some(15_000));
        let mut d = AppDriver::new(m);
        let start = SimTime::from_secs(1);
        assert_eq!(
            d.next_write(start),
            Some((SimTime::from_millis(1000), 5000))
        );
        assert_eq!(
            d.next_write(start),
            Some((SimTime::from_millis(1100), 5000))
        );
        assert_eq!(
            d.next_write(start),
            Some((SimTime::from_millis(1200), 5000))
        );
        assert_eq!(d.next_write(start), None);
        assert_eq!(d.bursts_done(), 3);
    }

    #[test]
    fn periodic_unbounded_keeps_going() {
        let m = AppModel::Periodic {
            burst_bytes: 100,
            interval: SimDuration::from_millis(10),
            count: None,
        };
        let mut d = AppDriver::new(m);
        for _ in 0..1000 {
            assert!(d.next_write(SimTime::ZERO).is_some());
        }
        assert!(m.total_bytes().is_none());
    }

    #[test]
    fn striping_conserves_bytes() {
        for streams in 1..=16 {
            for total in [0u64, 1, 999, 1_000_000, 12_345_677] {
                let parts = stripe_bytes(total, streams);
                assert_eq!(parts.len(), streams as usize);
                assert_eq!(parts.iter().sum::<u64>(), total);
                let min = parts.iter().min().unwrap();
                let max = parts.iter().max().unwrap();
                assert!(max - min <= 1, "uneven stripe: {parts:?}");
            }
        }
    }
}
