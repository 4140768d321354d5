//! The sender's in-flight records: one per segment sent and not yet
//! acknowledged, ordered by segment end, 16 bytes each, in a ring whose
//! capacity follows the flight.
//!
//! A record keeps the departure time in the low 62 bits of one word, with
//! the segment's `retransmitted` and `app_limited` marks in its top two
//! (every simulated time lies below 2^62 ns: `Scenario::check` bounds the
//! horizon and every time knob there). The segment's end and `snd_una` at
//! departure follow as 32-bit sequence numbers, compared and unwrapped as
//! TCP compares sequence numbers, modulo 2^32 (RFC 793 §3.3): the sender
//! caps its window at 2^30 bytes (RFC 7323 §2.2), so every end lies within
//! 2^31 of `snd_una` and of every other end, and 32 bits say which one it
//! is.
//!
//! The ring gives back its slack. After an ACK's pops, a ring that holds at
//! most a quarter of its capacity shrinks to twice its length, and a
//! timeout's [`SentRing::clear`] releases it. A ring of at most
//! [`KEEP`] records is left alone, so small flows and a steady flight never
//! allocate.

use rss_sim::SimTime;
use std::collections::VecDeque;

/// What the sender knew about a segment when it departed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SentInfo {
    pub(crate) sent_at: SimTime,
    pub(crate) retransmitted: bool,
    /// `snd_una` when this segment departed (the bytes delivered so far):
    /// the ACK that covers it turns `snd_una − this` over `now − sent_at`
    /// into a delivery-rate sample.
    pub(crate) delivered_at_send: u64,
    /// True when the application had run dry at departure time — the rate
    /// sample this segment produces measures the app, not the path.
    pub(crate) app_limited: bool,
}

/// One segment's [`SentInfo`] and end, packed in 16 bytes (see the module
/// docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SentRecord {
    /// Send time in ns, below [`RETRANSMITTED`] and [`APP_LIMITED`].
    stamp: u64,
    /// Segment end, modulo 2^32.
    end: u32,
    /// `snd_una` at departure, modulo 2^32.
    delivered: u32,
}

const TIME_MASK: u64 = (1 << 62) - 1;
const RETRANSMITTED: u64 = 1 << 62;
const APP_LIMITED: u64 = 1 << 63;

/// Records a ring keeps room for whatever it holds.
const KEEP: usize = 8;

/// The full sequence number `seq` stands for, the one within 2^31 of `near`.
#[inline]
fn unwrap(seq: u32, near: u64) -> u64 {
    near.wrapping_add_signed(i64::from(seq.wrapping_sub(near as u32) as i32))
}

impl SentRecord {
    /// # Panics
    /// If `info.sent_at` is 2^62 ns or later.
    #[inline]
    fn new(end: u64, info: &SentInfo) -> Self {
        let ns = info.sent_at.as_nanos();
        assert!(ns <= TIME_MASK, "a send time of {ns} ns is past 2^62 ns");
        SentRecord {
            stamp: ns
                | if info.retransmitted { RETRANSMITTED } else { 0 }
                | if info.app_limited { APP_LIMITED } else { 0 },
            end: end as u32,
            delivered: info.delivered_at_send as u32,
        }
    }

    #[inline]
    fn retransmitted(&self) -> bool {
        self.stamp & RETRANSMITTED != 0
    }

    /// How far the segment end lies past `seq`, modulo 2^32.
    #[inline]
    fn end_past(&self, seq: u64) -> i32 {
        self.end.wrapping_sub(seq as u32) as i32
    }

    /// The record as it was made, unwrapped against `una`.
    #[inline]
    fn info(&self, una: u64) -> SentInfo {
        SentInfo {
            sent_at: SimTime::from_nanos(self.stamp & TIME_MASK),
            retransmitted: self.retransmitted(),
            delivered_at_send: unwrap(self.delivered, una),
            app_limited: self.stamp & APP_LIMITED != 0,
        }
    }
}

/// The in-flight records, ordered by segment end (see the module docs).
/// New data appends at the back; cumulative ACKs drain from the front, so
/// the per-ACK bookkeeping is O(acked segments).
#[derive(Debug, Default)]
pub(crate) struct SentRing(VecDeque<SentRecord>);

impl SentRing {
    /// Record the segment ending at `end` that departed as `info`. New data
    /// lands at the back; a retransmission overwrites the record for the
    /// same end, or is inserted in order.
    #[inline]
    pub(crate) fn record(&mut self, end: u64, info: SentInfo) {
        let rec = SentRecord::new(end, &info);
        match self.0.back() {
            Some(last) if last.end_past(end) >= 0 => self.resend(end, rec),
            _ => self.0.push_back(rec),
        }
    }

    /// A retransmission's record, out of line so that appending new data
    /// stays inlined into the sender.
    #[cold]
    fn resend(&mut self, end: u64, rec: SentRecord) {
        match self.0.binary_search_by(|r| r.end_past(end).cmp(&0)) {
            Ok(i) => self.0[i] = rec,
            Err(i) => self.0.insert(i, rec),
        }
    }

    /// Drop every record the cumulative `ack` covers, then give back the
    /// slack. Returns the newest of them that was never retransmitted
    /// (Karn's rule): it gives the RTT sample and anchors the delivery-rate
    /// sample.
    #[inline]
    pub(crate) fn ack(&mut self, ack: u64) -> Option<SentInfo> {
        let mut anchor = None;
        while let Some(&r) = self.0.front() {
            if r.end_past(ack) > 0 {
                break;
            }
            self.0.pop_front();
            if !r.retransmitted() {
                anchor = Some(r);
            }
        }
        if self.0.capacity() > KEEP && self.0.len() * 4 <= self.0.capacity() {
            self.shrink();
        }
        anchor.map(|r| r.info(ack))
    }

    /// Move the records into a buffer of twice their number. A fresh
    /// buffer, not `shrink_to`: shrinking in place splits the allocation
    /// and leaves a free tail beside it that the ring's next growth cannot
    /// take back, which on the 10k-flow dumbbell cost 0.3 MB of peak RSS.
    #[cold]
    fn shrink(&mut self) {
        let mut ring = VecDeque::with_capacity(KEEP.max(2 * self.0.len()));
        ring.extend(self.0.drain(..));
        self.0 = ring;
    }

    /// Forget every record (a timeout rolls the flight back); a ring of
    /// more than [`KEEP`] records is released.
    pub(crate) fn clear(&mut self) {
        if self.0.capacity() > KEEP {
            self.0 = VecDeque::new();
        } else {
            self.0.clear();
        }
    }

    /// Bytes the ring holds on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.0.capacity() * size_of::<SentRecord>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl SentRing {
        /// Every record, unwrapped against `una`, in ring order.
        fn unwrapped(&self, una: u64) -> Vec<(u64, SentInfo)> {
            self.0
                .iter()
                .map(|r| (unwrap(r.end, una), r.info(una)))
                .collect()
        }
    }

    /// The ring the sender kept before: 32-byte `(end, SentInfo)` pairs in
    /// a `VecDeque` that never shrinks.
    #[derive(Default)]
    struct Reference(VecDeque<(u64, SentInfo)>);

    impl Reference {
        fn record(&mut self, end: u64, info: SentInfo) {
            match self.0.back() {
                Some(&(last, _)) if last < end => self.0.push_back((end, info)),
                None => self.0.push_back((end, info)),
                _ => match self.0.binary_search_by(|&(e, _)| e.cmp(&end)) {
                    Ok(i) => self.0[i] = (end, info),
                    Err(i) => self.0.insert(i, (end, info)),
                },
            }
        }

        fn ack(&mut self, ack: u64) -> Option<SentInfo> {
            let mut anchor = None;
            while let Some(&(end, info)) = self.0.front() {
                if end > ack {
                    break;
                }
                self.0.pop_front();
                if !info.retransmitted {
                    anchor = Some(info);
                }
            }
            anchor
        }
    }

    /// The largest flight the sender allows (RFC 7323's window cap).
    const MAX_FLIGHT: u64 = 1 << 30;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// New data of this length, if the flight has room for it.
        Send(u64, bool),
        /// A retransmission from `snd_una` to this fraction (of 2^16) of
        /// the highest byte sent.
        Resend(u64),
        /// A cumulative ACK this fraction (of 2^16) of the way to the
        /// highest byte sent.
        Ack(u64),
        /// A retransmission timeout: the flight rolls back.
        Timeout,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (
                prop_oneof![1u64..2_000, 1u64..1 << 20, 1u64..=MAX_FLIGHT],
                any::<bool>()
            )
                .prop_map(|(len, app)| Op::Send(len, app)),
            (0u64..=1 << 16).prop_map(Op::Resend),
            (0u64..=1 << 16).prop_map(Op::Ack),
            Just(Op::Timeout),
        ]
    }

    proptest! {
        /// The ring against the 32-byte records it replaced: the same RTT
        /// sample and rate anchor from every ACK, the same records left,
        /// with sequence numbers that cross 2^32 and flights up to 2^30,
        /// and room for at most four times what it holds.
        #[test]
        fn the_ring_matches_the_unpacked_records_it_replaced(
            base in prop_oneof![
                (1u64 << 32) - (1 << 31)..1 << 32,
                (3u64 << 32) - (1 << 20)..3 << 32,
            ],
            start in prop_oneof![Just(0u64), (1u64 << 62) - (1 << 40)..(1u64 << 62) - (1 << 39)],
            ops in prop::collection::vec((0u64..1 << 24, op()), 1..300),
        ) {
            let (mut ring, mut reference) = (SentRing::default(), Reference::default());
            let (mut una, mut nxt, mut max_sent, mut now) = (base, base, base, start);
            for (dt, op) in ops {
                now += dt;
                let sent = |retransmitted, app_limited| SentInfo {
                    sent_at: SimTime::from_nanos(now),
                    retransmitted,
                    delivered_at_send: una,
                    app_limited,
                };
                match op {
                    Op::Send(len, app_limited) => {
                        let len = len.min(una + MAX_FLIGHT - nxt);
                        if len == 0 {
                            continue;
                        }
                        let end = nxt + len;
                        let info = sent(end <= max_sent, app_limited);
                        ring.record(end, info);
                        reference.record(end, info);
                        nxt = end;
                        max_sent = max_sent.max(end);
                    }
                    Op::Resend(frac) => {
                        let end = una + (max_sent - una) * frac / (1 << 16);
                        if end == una {
                            continue;
                        }
                        let info = sent(true, false);
                        ring.record(end, info);
                        reference.record(end, info);
                        nxt = nxt.max(end);
                    }
                    Op::Ack(frac) => {
                        let ack = una + (max_sent - una) * frac / (1 << 16);
                        if ack == una {
                            continue;
                        }
                        una = ack;
                        nxt = nxt.max(ack);
                        let (got, want) = (ring.ack(ack), reference.ack(ack));
                        prop_assert_eq!(got, want);
                        // The RTT sample and the rate anchor's bytes.
                        let sample = |a: Option<SentInfo>| {
                            a.map(|i| (now - i.sent_at.as_nanos(), una - i.delivered_at_send))
                        };
                        prop_assert_eq!(sample(got), sample(want));
                        let cap = ring.0.capacity();
                        prop_assert!(
                            cap <= KEEP.max(4 * ring.0.len()),
                            "capacity {} for {} records",
                            cap,
                            ring.0.len()
                        );
                    }
                    Op::Timeout => {
                        ring.clear();
                        reference.0.clear();
                        nxt = una;
                        prop_assert!(ring.0.capacity() <= KEEP);
                    }
                }
                prop_assert!(ring.unwrapped(una).iter().eq(reference.0.iter()));
            }
        }
    }

    #[test]
    fn times_and_marks_share_a_word_without_touching_each_other() {
        for ns in [0, 1, TIME_MASK] {
            for (retransmitted, app_limited) in
                [(false, false), (true, false), (false, true), (true, true)]
            {
                let info = SentInfo {
                    sent_at: SimTime::from_nanos(ns),
                    retransmitted,
                    delivered_at_send: u64::MAX - 5,
                    app_limited,
                };
                let rec = SentRecord::new(u64::MAX, &info);
                assert_eq!(rec.info(u64::MAX - 5), info);
                assert_eq!(unwrap(rec.end, u64::MAX - 5), u64::MAX);
                assert_eq!(rec.end_past(u64::MAX - 5), 5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "past 2^62 ns")]
    fn a_send_time_past_2_62_ns_is_refused() {
        let info = SentInfo {
            sent_at: SimTime::from_nanos(1 << 62),
            retransmitted: false,
            delivered_at_send: 0,
            app_limited: false,
        };
        SentRecord::new(1, &info);
    }

    #[test]
    fn a_small_ring_keeps_its_room_and_a_large_one_gives_it_back() {
        let info = |una| SentInfo {
            sent_at: SimTime::ZERO,
            retransmitted: false,
            delivered_at_send: una,
            app_limited: false,
        };
        let mut ring = SentRing::default();
        for end in 1..=KEEP as u64 {
            ring.record(end, info(0));
        }
        let small = ring.0.capacity();
        assert!(ring.ack(KEEP as u64 - 1).is_some());
        assert_eq!(
            ring.0.capacity(),
            small,
            "a ring of {KEEP} records is left alone"
        );
        ring.clear();
        assert_eq!(
            ring.0.capacity(),
            small,
            "and keeps its room through a timeout"
        );
        for end in 1..=1000 {
            ring.record(end, info(0));
        }
        ring.ack(990);
        assert_eq!(ring.0.capacity(), 20, "ten records left: room for twenty");
        ring.ack(994);
        assert_eq!(ring.0.capacity(), 20, "six of twenty is over a quarter");
        ring.ack(995);
        assert_eq!(ring.0.capacity(), 10, "five of twenty is a quarter");
        ring.clear();
        assert_eq!(ring.heap_bytes(), 0, "a timeout releases a large ring");
    }
}
