//! The congestion-signal times against the two `Vec<f64>` a connection
//! recorded before, and the RTO episodes against a reference walk of the
//! same events.
//!
//! A connection used to append `now.as_secs_f64()` to one vector at every
//! congestion signal and to a second at every send-stall. It now records
//! each signal once, as a nanosecond step and a stall mark, and the report
//! widens the times when it is built. The widened vectors must be those two
//! vectors bit for bit: at equal timestamps, 1 ns apart, and near 2^62 ns,
//! where a double no longer holds every nanosecond.
//!
//! The RTO episodes are recorded from the same calls the sender makes: a
//! timeout is a `Timeout` signal and an RTO fire carrying the new backoff
//! shift, and an ACK of new data ends the open episode. Their count, the
//! longest recovery and the deepest backoff must be what a walk of the
//! event list computes.

use proptest::prelude::*;
use rss_sim::{SimDuration, SimTime};
use rss_web100::{CongestionKind, InstrumentBlock};

const KINDS: [CongestionKind; 4] = [
    CongestionKind::FastRetransmit,
    CongestionKind::Timeout,
    CongestionKind::SendStall,
    CongestionKind::EcnEcho,
];

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A congestion signal of `KINDS[i]`.
    Signal(usize),
    /// A retransmission timeout that backed off to this shift.
    RtoFire(u32),
    /// An ACK acknowledging this many new bytes (0: a duplicate).
    Ack(u64),
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        (0usize..4).prop_map(Event::Signal),
        (0u32..=16).prop_map(Event::RtoFire),
        prop_oneof![Just(0u64), 1u64..1 << 20].prop_map(Event::Ack),
    ]
}

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
        events in prop::collection::vec(
            (prop_oneof![Just(0u64), Just(1u64), 0u64..1_000, 0u64..1 << 40], event()),
            0..64,
        ),
    ) {
        let mut block = InstrumentBlock::new();
        let (mut stall_times_s, mut congestion_times_s) = (Vec::new(), Vec::new());
        let (mut open, mut episodes, mut max_recovery, mut max_backoff) = (None, 0, None, 0);
        let mut ns = start;
        for (step, ev) in events {
            ns += step;
            let now = SimTime::from_nanos(ns);
            let kind = match ev {
                Event::Signal(k) => KINDS[k],
                Event::RtoFire(_) => CongestionKind::Timeout,
                Event::Ack(newly) => {
                    block.on_ack_in(now, newly, 1 << 20);
                    if newly > 0 {
                        if let Some(since) = open.take() {
                            let span = now.saturating_since(since);
                            max_recovery = Some(max_recovery.map_or(span, |m: SimDuration| m.max(span)));
                        }
                    }
                    continue;
                }
            };
            block.on_signal(now, Some(kind), 1448, 1448, false);
            congestion_times_s.push(now.as_secs_f64());
            if kind == CongestionKind::SendStall {
                stall_times_s.push(now.as_secs_f64());
            }
            if let Event::RtoFire(shift) = ev {
                block.on_rto(now, shift);
                max_backoff = max_backoff.max(shift);
                if open.is_none() {
                    open = Some(now);
                    episodes += 1;
                }
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
        prop_assert_eq!(block.rto_episodes(), episodes);
        prop_assert_eq!(block.rto_max_recovery(), max_recovery);
        prop_assert_eq!(block.rto_max_backoff(), max_backoff);
    }
}
