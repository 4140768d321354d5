//! Cross-traffic generators.
//!
//! §1 of the paper argues that slow-start bursts on big-BDP paths are "hard
//! on the rest of the traffic sharing the congested link";
//! `scenarios/network_bottleneck_boundary.json` shares the bottleneck between
//! the TCP flow under test and one of these open-loop sources.

use rss_sim::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

/// The arrival process of a source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Constant bit rate: one `pkt_size` packet every `size·8/rate`.
    Cbr {
        /// Offered rate in bits/s.
        rate_bps: u64,
        /// Packet size in bytes.
        pkt_size: u32,
    },
    /// Poisson arrivals with the same mean rate.
    Poisson {
        /// Offered mean rate in bits/s.
        rate_bps: u64,
        /// Packet size in bytes.
        pkt_size: u32,
    },
    /// Exponential on/off source: CBR bursts at `rate_bps` during "on"
    /// periods (mean `on_mean_s`), silent during "off" (mean `off_mean_s`).
    OnOff {
        /// Burst rate in bits/s while on.
        rate_bps: u64,
        /// Packet size in bytes.
        pkt_size: u32,
        /// Mean on-period, seconds.
        on_mean_s: f64,
        /// Mean off-period, seconds.
        off_mean_s: f64,
    },
}

impl TrafficPattern {
    /// The long-run average offered load in bits/s.
    pub fn mean_rate_bps(&self) -> f64 {
        match *self {
            TrafficPattern::Cbr { rate_bps, .. } | TrafficPattern::Poisson { rate_bps, .. } => {
                rate_bps as f64
            }
            TrafficPattern::OnOff {
                rate_bps,
                on_mean_s,
                off_mean_s,
                ..
            } => rate_bps as f64 * on_mean_s / (on_mean_s + off_mean_s),
        }
    }
}

/// A stateful source producing `(inter-arrival gap, packet size)` pairs.
#[derive(Debug, Clone)]
pub struct TrafficSource {
    pattern: TrafficPattern,
    rng: SimRng,
    /// Remaining time in the current on-period (OnOff only).
    on_remaining_s: f64,
}

impl TrafficSource {
    /// Create a source with its own RNG stream.
    pub fn new(pattern: TrafficPattern, rng: SimRng) -> Self {
        TrafficSource {
            pattern,
            rng,
            on_remaining_s: 0.0,
        }
    }

    /// The pattern this source follows.
    pub fn pattern(&self) -> TrafficPattern {
        self.pattern
    }

    /// Gap to wait before emitting the next packet, and its size.
    pub fn next_packet(&mut self) -> (SimDuration, u32) {
        match self.pattern {
            TrafficPattern::Cbr { rate_bps, pkt_size } => (
                SimDuration::for_bytes_at_rate(pkt_size as u64, rate_bps),
                pkt_size,
            ),
            TrafficPattern::Poisson { rate_bps, pkt_size } => {
                let mean_gap_s = pkt_size as f64 * 8.0 / rate_bps as f64;
                (
                    SimDuration::from_secs_f64(self.rng.exp_with_mean(mean_gap_s)),
                    pkt_size,
                )
            }
            TrafficPattern::OnOff {
                rate_bps,
                pkt_size,
                on_mean_s,
                off_mean_s,
            } => {
                let gap_s = pkt_size as f64 * 8.0 / rate_bps as f64;
                let mut wait = 0.0;
                // Consume on-time; when it runs out, insert an off-period and
                // draw a fresh on-period.
                while self.on_remaining_s < gap_s {
                    wait += self.rng.exp_with_mean(off_mean_s);
                    self.on_remaining_s += self.rng.exp_with_mean(on_mean_s);
                }
                self.on_remaining_s -= gap_s;
                (SimDuration::from_secs_f64(wait + gap_s), pkt_size)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_gap_is_exact() {
        let mut s = TrafficSource::new(
            TrafficPattern::Cbr {
                rate_bps: 8_000_000,
                pkt_size: 1000,
            },
            SimRng::seed_from_u64(1),
        );
        let (gap, size) = s.next_packet();
        assert_eq!(size, 1000);
        assert_eq!(gap, SimDuration::from_millis(1)); // 8000 bits / 8 Mbit/s
        assert_eq!(s.next_packet().0, gap, "CBR gaps constant");
    }

    #[test]
    fn poisson_mean_rate_approximates_target() {
        let mut s = TrafficSource::new(
            TrafficPattern::Poisson {
                rate_bps: 10_000_000,
                pkt_size: 1250,
            },
            SimRng::seed_from_u64(2),
        );
        let n = 50_000;
        let mut total = SimDuration::ZERO;
        for _ in 0..n {
            total += s.next_packet().0;
        }
        let bits = n as f64 * 1250.0 * 8.0;
        let rate = bits / total.as_secs_f64();
        assert!(
            (rate - 10_000_000.0).abs() / 10_000_000.0 < 0.02,
            "rate {rate}"
        );
    }

    #[test]
    fn onoff_long_run_rate_matches_duty_cycle() {
        let pattern = TrafficPattern::OnOff {
            rate_bps: 20_000_000,
            pkt_size: 1250,
            on_mean_s: 0.1,
            off_mean_s: 0.3,
        };
        assert!((pattern.mean_rate_bps() - 5_000_000.0).abs() < 1.0);
        let mut s = TrafficSource::new(pattern, SimRng::seed_from_u64(3));
        let n = 100_000;
        let mut total = SimDuration::ZERO;
        for _ in 0..n {
            total += s.next_packet().0;
        }
        let bits = n as f64 * 1250.0 * 8.0;
        let rate = bits / total.as_secs_f64();
        // ~500 on/off cycles in this sample: expect a few percent of noise.
        assert!(
            (rate - 5_000_000.0).abs() / 5_000_000.0 < 0.10,
            "rate {rate}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || {
            TrafficSource::new(
                TrafficPattern::Poisson {
                    rate_bps: 1_000_000,
                    pkt_size: 500,
                },
                SimRng::seed_from_u64(42),
            )
        };
        let mut a = mk();
        let mut b = mk();
        for _ in 0..100 {
            assert_eq!(a.next_packet(), b.next_packet());
        }
    }
}
