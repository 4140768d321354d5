//! RTT estimation and retransmission-timeout computation (RFC 6298, which
//! codified the RFC 2988 algorithm the Linux 2.4-era stack used).

use rss_sim::{OptNanos, SimDuration};

/// SRTT/RTTVAR estimator with RTO derivation and exponential backoff.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: OptNanos<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    min_rto: SimDuration,
    max_rto: SimDuration,
    backoff_shift: u32,
}

impl RttEstimator {
    /// Create with the given RTO clamps; the initial RTO before any sample is
    /// the RFC's 1 s (raised to `min_rto` if that is larger).
    pub fn new(min_rto: SimDuration, max_rto: SimDuration) -> Self {
        let initial = SimDuration::from_secs(1).max(min_rto).min(max_rto);
        RttEstimator {
            srtt: OptNanos::NONE,
            rttvar: SimDuration::ZERO,
            rto: initial,
            min_rto,
            max_rto,
            backoff_shift: 0,
        }
    }

    /// Feed one RTT measurement (from a never-retransmitted segment, per
    /// Karn's rule — the caller enforces that).
    pub fn on_sample(&mut self, rtt: SimDuration) {
        let srtt = match self.srtt.get() {
            None => {
                self.rttvar = rtt / 2;
                rtt
            }
            Some(srtt) => {
                // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R'|
                let delta = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = (self.rttvar * 3) / 4 + delta / 4;
                // SRTT = 7/8 SRTT + 1/8 R'
                (srtt * 7) / 8 + rtt / 8
            }
        };
        self.srtt.set(srtt);
        // RTO = SRTT + max(G, 4·RTTVAR); clock granularity G is below 1 ns
        // in simulation, so effectively RTO = SRTT + 4·RTTVAR.
        let rto = srtt + self.rttvar * 4;
        self.rto = rto.max(self.min_rto).min(self.max_rto);
        self.backoff_shift = 0;
    }

    /// Smoothed RTT, if any sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt.get()
    }

    /// RTT variance estimate.
    pub fn rttvar(&self) -> SimDuration {
        self.rttvar
    }

    /// The current RTO including any timeout backoff.
    pub fn rto(&self) -> SimDuration {
        let backed = self.rto.saturating_mul(1u64 << self.backoff_shift.min(32));
        backed.min(self.max_rto)
    }

    /// Exponential backoff after a retransmission timeout fires.
    pub fn backoff(&mut self) {
        self.backoff_shift = (self.backoff_shift + 1).min(16);
    }

    /// Current backoff shift (0 = no backoff; the effective RTO is the base
    /// RTO doubled this many times, clamped to `max_rto`).
    pub fn backoff_shift(&self) -> u32 {
        self.backoff_shift
    }

    /// Clear the timeout backoff without a new sample.
    ///
    /// Karn's rule forbids RTT samples from retransmitted segments, so under
    /// heavy loss an estimator that only resets backoff on samples would ride
    /// the maximum RTO forever. Like Linux, forward progress (an ACK of new
    /// data) clears the backoff even when no sample can be taken.
    pub fn clear_backoff(&mut self) {
        self.backoff_shift = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rss_sim::SimTime;
    use rss_web100::InstrumentBlock;

    fn est() -> RttEstimator {
        RttEstimator::new(SimDuration::from_millis(200), SimDuration::from_secs(60))
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn initial_rto_is_one_second() {
        assert_eq!(est().rto(), SimDuration::from_secs(1));
    }

    #[test]
    fn first_sample_initializes_srtt_and_var() {
        let mut e = est();
        e.on_sample(ms(60));
        assert_eq!(e.srtt(), Some(ms(60)));
        assert_eq!(e.rttvar(), ms(30));
        // RTO = 60 + 4*30 = 180 -> clamped to min 200 ms.
        assert_eq!(e.rto(), ms(200));
    }

    #[test]
    fn smoothing_follows_rfc_weights() {
        let mut e = est();
        e.on_sample(ms(100));
        e.on_sample(ms(200));
        // RTTVAR = 3/4*50 + 1/4*|100-200| = 62.5
        // SRTT = 7/8*100 + 1/8*200 = 112.5
        let srtt = e.srtt().unwrap();
        assert_eq!(srtt.as_nanos(), 112_500_000);
        assert_eq!(e.rttvar().as_nanos(), 62_500_000);
        // RTO = 112.5 + 250 = 362.5 ms
        assert_eq!(e.rto().as_nanos(), 362_500_000);
    }

    #[test]
    fn steady_rtt_converges_and_rto_tightens() {
        let mut e = est();
        for _ in 0..100 {
            e.on_sample(ms(60));
        }
        let srtt = e.srtt().unwrap();
        assert_eq!(srtt, ms(60));
        // Variance decays toward zero; RTO pinned at the floor.
        assert_eq!(e.rto(), ms(200));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = est();
        e.on_sample(ms(500)); // RTO = 500 + 4*250 = 1500 ms
        assert_eq!(e.rto(), ms(1500));
        e.backoff();
        assert_eq!(e.rto(), ms(3000));
        e.backoff();
        assert_eq!(e.rto(), ms(6000));
        for _ in 0..20 {
            e.backoff();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60), "capped at max");
        // A fresh sample clears the backoff.
        e.on_sample(ms(500));
        assert!(e.rto() < SimDuration::from_secs(2));
    }

    #[test]
    fn clear_backoff_resets_rto_without_sample() {
        let mut e = est();
        e.on_sample(ms(500));
        let base = e.rto();
        e.backoff();
        e.backoff();
        assert_eq!(e.rto(), base * 4);
        e.clear_backoff();
        assert_eq!(e.rto(), base);
    }

    #[test]
    fn max_backoff_shift_is_sticky() {
        // The deepest shift is the recorder's, fed each timeout's shift as
        // the sender feeds it.
        let mut e = est();
        let mut rec = InstrumentBlock::new();
        let fire = |e: &mut RttEstimator, rec: &mut InstrumentBlock| {
            e.backoff();
            rec.on_rto(SimTime::ZERO, e.backoff_shift());
        };
        e.on_sample(ms(500));
        for _ in 0..3 {
            fire(&mut e, &mut rec);
        }
        assert_eq!(e.backoff_shift(), 3);
        assert_eq!(rec.rto_max_backoff(), 3);
        // Recovery clears the live backoff but the high-water mark stays.
        e.clear_backoff();
        assert_eq!(e.backoff_shift(), 0);
        assert_eq!(rec.rto_max_backoff(), 3);
        fire(&mut e, &mut rec);
        assert_eq!(
            rec.rto_max_backoff(),
            3,
            "shallower episode does not raise it"
        );
    }

    #[test]
    fn estimator_size_is_pinned() {
        // 64 B with `srtt` an `Option` (16 B) and a sample count nothing
        // but tests read. The deepest backoff shift, which only the report
        // read, went to the recorder; the 4 bytes it held are padding.
        let size = std::mem::size_of::<RttEstimator>();
        assert!(size <= 48, "RttEstimator is {size} bytes");
    }
}
