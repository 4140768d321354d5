//! The receive side: a cumulative ACK for every data segment, as Linux 2.4
//! sent throughout slow-start ("quickack"), and out-of-order reassembly.
//!
//! Receive-window dynamics are not modelled (the application drains
//! instantly, as iperf-style sinks do); the advertised window is the
//! configured static `rwnd`, matching the hand-tuned hosts of the paper's
//! testbed.

use crate::types::{ConnId, TcpConfig};
use rss_sim::SimTime;
use std::collections::BTreeMap;

/// An acknowledgment the receiver wants transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckToSend {
    /// Cumulative ACK (next expected byte).
    pub ack: u64,
    /// Advertised receive window, bytes.
    pub rwnd: u64,
    /// ECN echo: a CE mark was observed since the last ACK sent (RFC 3168
    /// ECE, simplified to echo-once per observed CE batch — the sender's
    /// once-per-RTT gate makes persistent-ECE semantics redundant here).
    pub ece: bool,
}

/// Statistics kept by the receiver (for delivery-invariant checks).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReceiverStats {
    /// Data segments received, including duplicates.
    pub segments_in: u64,
    /// Segments that were entirely duplicate data.
    pub duplicate_segments: u64,
    /// Segments buffered out of order.
    pub out_of_order_segments: u64,
    /// ACKs generated.
    pub acks_out: u64,
}

/// One connection's receive state.
#[derive(Debug)]
pub struct TcpReceiver {
    conn: ConnId,
    /// The advertised window, bytes: [`TcpConfig::rwnd`].
    rwnd: u64,
    rcv_nxt: u64,
    /// Out-of-order segments: start → end (coalesced on insert).
    ooo: BTreeMap<u64, u64>,
    /// CE observed since the last ACK went out; the next ACK carries ECE.
    ece_pending: bool,
    stats: ReceiverStats,
}

impl TcpReceiver {
    /// Fresh receiver expecting byte 0.
    pub fn new(conn: ConnId, cfg: TcpConfig) -> Self {
        TcpReceiver {
            conn,
            rwnd: cfg.rwnd,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            ece_pending: false,
            stats: ReceiverStats::default(),
        }
    }

    /// The arriving data segment (about to be fed to
    /// [`TcpReceiver::on_segment`]) carried a CE mark: the next ACK out
    /// echoes it as ECE.
    pub fn on_ce(&mut self) {
        self.ece_pending = true;
    }

    /// The connection this receiver belongs to.
    pub fn conn(&self) -> ConnId {
        self.conn
    }

    /// Next expected byte = bytes delivered in order to the application.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Bytes currently buffered out of order.
    pub fn ooo_bytes(&self) -> u64 {
        self.ooo.iter().map(|(&s, &e)| e - s).sum()
    }

    /// Bytes the out-of-order ranges hold on the heap, counted as one
    /// B-tree leaf (eleven ranges and a parent link, 192 bytes) per eleven
    /// ranges: a lower bound, exact while they fit one leaf.
    pub fn heap_bytes(&self) -> usize {
        self.ooo.len().div_ceil(11) * 192
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// Process an arriving data segment `[seq, seq+len)` and return the ACK
    /// it calls for: every segment is acknowledged at once, so the arrival
    /// time goes unused.
    pub fn on_segment(&mut self, _now: SimTime, seq: u64, len: u32) -> AckToSend {
        assert!(len > 0, "zero-length data segment");
        self.stats.segments_in += 1;
        let end = seq + len as u64;
        if end <= self.rcv_nxt {
            // Entirely duplicate: the ACK restates rcv_nxt (RFC 5681).
            self.stats.duplicate_segments += 1;
        } else if seq > self.rcv_nxt {
            // Out of order: buffer it; the ACK is a duplicate.
            self.stats.out_of_order_segments += 1;
            self.insert_ooo(seq, end);
        } else {
            // In-order (possibly partially duplicate) delivery.
            self.rcv_nxt = end;
            self.drain_ooo();
        }
        self.stats.acks_out += 1;
        AckToSend {
            ack: self.rcv_nxt,
            rwnd: self.rwnd,
            ece: std::mem::take(&mut self.ece_pending),
        }
    }

    fn insert_ooo(&mut self, seq: u64, end: u64) {
        // Coalesce with overlapping/adjacent intervals.
        let mut start = seq;
        let mut stop = end;
        // Absorb any interval that begins before `stop` and ends after `start`.
        let overlapping: Vec<u64> = self
            .ooo
            .range(..=stop)
            .filter(|&(&s, &e)| e >= start && s <= stop)
            .map(|(&s, _)| s)
            .collect();
        for s in overlapping {
            let e = self.ooo.remove(&s).expect("key just seen");
            start = start.min(s);
            stop = stop.max(e);
        }
        self.ooo.insert(start, stop);
    }

    fn drain_ooo(&mut self) {
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s > self.rcv_nxt {
                break;
            }
            self.ooo.remove(&s);
            self.rcv_nxt = self.rcv_nxt.max(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn receiver() -> TcpReceiver {
        TcpReceiver::new(ConnId(0), TcpConfig::default())
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn in_order_acks_every_segment() {
        let mut r = receiver();
        let a = r.on_segment(t(0), 0, 1000);
        assert_eq!(a.ack, 1000);
        let a = r.on_segment(t(1), 1000, 1000);
        assert_eq!(a.ack, 2000);
        assert_eq!(r.rcv_nxt(), 2000);
        assert_eq!(r.stats().acks_out, 2);
    }

    #[test]
    fn out_of_order_triggers_immediate_dupack() {
        let mut r = receiver();
        let a = r.on_segment(t(0), 1000, 1000);
        assert_eq!(a.ack, 0, "dup ack restates rcv_nxt");
        assert_eq!(r.ooo_bytes(), 1000);
        // Filling the gap delivers everything and acks immediately.
        let a = r.on_segment(t(1), 0, 1000);
        assert_eq!(a.ack, 2000);
        assert_eq!(r.ooo_bytes(), 0);
    }

    #[test]
    fn duplicate_segment_acked_immediately() {
        let mut r = receiver();
        r.on_segment(t(0), 0, 1000);
        r.on_segment(t(1), 1000, 1000);
        let a = r.on_segment(t(2), 0, 1000);
        assert_eq!(a.ack, 2000);
        assert_eq!(r.stats().duplicate_segments, 1);
    }

    #[test]
    fn ooo_intervals_coalesce() {
        let mut r = receiver();
        r.on_segment(t(0), 3000, 1000); // [3000,4000)
        r.on_segment(t(1), 1000, 1000); // [1000,2000)
        r.on_segment(t(2), 2000, 1000); // bridges to [1000,4000)
        assert_eq!(r.ooo_bytes(), 3000);
        let a = r.on_segment(t(3), 0, 1000);
        assert_eq!(a.ack, 4000, "whole buffer drained at once");
    }

    #[test]
    fn overlapping_ooo_not_double_counted() {
        let mut r = receiver();
        r.on_segment(t(0), 1000, 1000);
        r.on_segment(t(1), 1500, 1000); // overlaps [1500,2000)
        assert_eq!(r.ooo_bytes(), 1500); // [1000,2500)
        let a = r.on_segment(t(2), 0, 1000);
        assert_eq!(a.ack, 2500);
    }

    #[test]
    fn partial_overlap_with_delivered_data() {
        let mut r = receiver();
        r.on_segment(t(0), 0, 1000);
        // Retransmission covering old + new data.
        let a = r.on_segment(t(1), 500, 1000);
        assert_eq!(a.ack, 1500);
    }

    #[test]
    fn advertised_window_is_static_rwnd() {
        let mut r = receiver();
        let a = r.on_segment(t(0), 0, 1000);
        assert_eq!(a.rwnd, TcpConfig::default().rwnd);
    }

    #[test]
    fn ce_mark_echoed_once_then_cleared() {
        let mut r = receiver();
        let a = r.on_segment(t(0), 0, 1000);
        assert!(!a.ece, "no CE seen yet");
        r.on_ce();
        let a = r.on_segment(t(1), 1000, 1000);
        assert!(a.ece, "CE echoed on the next ACK");
        let a = r.on_segment(t(2), 2000, 1000);
        assert!(!a.ece, "echo-once: cleared after one ACK");
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_len_rejected() {
        let mut r = receiver();
        r.on_segment(t(0), 0, 0);
    }

    #[test]
    fn a_receiver_keeps_its_window_and_policy_not_the_config() {
        // One per flow. Holding the whole `TcpConfig` it was 184 B, 120 B
        // with its delayed-ACK deadline an `Option` (16 B), and 112 B with
        // the delayed-ACK policy, segment count and deadline.
        let r = std::mem::size_of::<TcpReceiver>();
        assert!(r <= 80, "TcpReceiver is {r} bytes");
    }
}
