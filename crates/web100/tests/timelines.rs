//! The congestion-signal times against the two `Vec<f64>` a connection
//! recorded before.
//!
//! A connection used to append `now.as_secs_f64()` to one vector at every
//! congestion signal and to a second at every send-stall. It now records
//! each signal once, as a nanosecond step and a stall mark, and the report
//! widens the times when it is built. The widened vectors must be those two
//! vectors bit for bit: at equal timestamps, 1 ns apart, and near 2^62 ns,
//! where a double no longer holds every nanosecond.

use proptest::prelude::*;
use rss_sim::SimTime;
use rss_web100::{CongestionKind, InstrumentBlock};

const KINDS: [CongestionKind; 4] = [
    CongestionKind::FastRetransmit,
    CongestionKind::Timeout,
    CongestionKind::SendStall,
    CongestionKind::EcnEcho,
];

fn bits(times: impl Iterator<Item = f64>) -> Vec<u64> {
    times.map(f64::to_bits).collect()
}

proptest! {
    #[test]
    fn signal_times_widen_to_the_vectors_they_replaced(
        start in prop_oneof![
            Just(0u64),
            0u64..1_000_000_000_000,
            (1u64 << 62) - 1_000_000..(1u64 << 62) + 1_000_000,
        ],
        signals in prop::collection::vec(
            (prop_oneof![Just(0u64), Just(1u64), 0u64..1_000, 0u64..1 << 40], 0usize..4),
            0..64,
        ),
    ) {
        let mut block = InstrumentBlock::new();
        let (mut stall_times_s, mut congestion_times_s) = (Vec::new(), Vec::new());
        let mut ns = start;
        for (step, kind) in signals {
            ns += step;
            let now = SimTime::from_nanos(ns);
            block.on_congestion(now, KINDS[kind]);
            congestion_times_s.push(now.as_secs_f64());
            if KINDS[kind] == CongestionKind::SendStall {
                stall_times_s.push(now.as_secs_f64());
            }
        }
        let t = block.take_timelines();
        prop_assert_eq!(
            bits(t.stall_times().map(SimTime::as_secs_f64)),
            bits(stall_times_s.into_iter())
        );
        prop_assert_eq!(
            bits(t.congestion_times().map(SimTime::as_secs_f64)),
            bits(congestion_times_s.into_iter())
        );
        prop_assert_eq!(t.congestion_times().count() as u64, block.vars().congestion_signals);
    }
}
