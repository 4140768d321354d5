//! Drop-tail FIFO queue — a router port's queue discipline, and the storage
//! under RED.
//!
//! The disciplines are generic over what they hold ([`Queued`]): a router
//! port holds 16-byte [`crate::PacketHandle`]s to packets parked in the
//! fabric's arena, and [`DropTailQueue`] holds [`Packet`]s themselves. A
//! queue keeps its limits, its contents and its byte occupancy, and no
//! counters: a drop is counted by whoever decides what it means (the
//! fabric's `queue_drops`, RED's own counters).

use crate::packet::{Body, Ecn, Packet};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Capacity limits for a queue. Either or both of the limits may be set;
/// an unset limit is unbounded. Linux's `txqueuelen` is a packet limit.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Maximum number of queued packets.
    pub max_packets: Option<u32>,
    /// Maximum number of queued bytes.
    pub max_bytes: Option<u64>,
}

impl QueueConfig {
    /// Packet-count-limited queue (the `txqueuelen` model).
    pub fn packets(max: u32) -> Self {
        QueueConfig {
            max_packets: Some(max),
            max_bytes: None,
        }
    }

    /// Byte-limited queue.
    pub fn bytes(max: u64) -> Self {
        QueueConfig {
            max_packets: None,
            max_bytes: Some(max),
        }
    }

    /// Unbounded queue (for test fixtures).
    pub fn unbounded() -> Self {
        QueueConfig {
            max_packets: None,
            max_bytes: None,
        }
    }
}

/// Why a packet was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueError {
    /// The packet-count limit was reached.
    PacketLimit,
    /// The byte limit was reached.
    ByteLimit,
}

/// What a queue discipline asks of the things it holds.
pub trait Queued {
    /// On-the-wire size in bytes: byte occupancy and byte limits.
    fn wire_size(&self) -> u32;
    /// ECN codepoint: whether an AQM may mark instead of dropping.
    fn ecn(&self) -> Ecn;
    /// Overwrite the ECN codepoint (an AQM setting CE).
    fn set_ecn(&mut self, codepoint: Ecn);
}

impl<B: Body> Queued for Packet<B> {
    #[inline]
    fn wire_size(&self) -> u32 {
        self.body.wire_size()
    }
    #[inline]
    fn ecn(&self) -> Ecn {
        self.body.ecn()
    }
    #[inline]
    fn set_ecn(&mut self, codepoint: Ecn) {
        self.body.set_ecn(codepoint);
    }
}

/// A bounded FIFO with drop-tail semantics, over any [`Queued`] element.
#[derive(Debug, Clone)]
pub struct DropTail<T> {
    cfg: QueueConfig,
    q: VecDeque<T>,
    bytes: u64,
}

/// A drop-tail queue of [`Packet`]s with body `B`.
pub type DropTailQueue<B> = DropTail<Packet<B>>;

impl<T: Queued> DropTail<T> {
    /// Create an empty queue with the given limits.
    pub fn new(cfg: QueueConfig) -> Self {
        DropTail {
            cfg,
            q: VecDeque::new(),
            bytes: 0,
        }
    }

    /// The configured limits.
    pub fn config(&self) -> QueueConfig {
        self.cfg
    }

    /// Check whether `pkt` would be accepted right now, without mutating.
    pub fn would_accept(&self, pkt: &T) -> Result<(), EnqueueError> {
        if let Some(maxp) = self.cfg.max_packets {
            if self.q.len() as u32 >= maxp {
                return Err(EnqueueError::PacketLimit);
            }
        }
        if let Some(maxb) = self.cfg.max_bytes {
            if self.bytes + pkt.wire_size() as u64 > maxb {
                return Err(EnqueueError::ByteLimit);
            }
        }
        Ok(())
    }

    /// Enqueue, or return the packet unchanged if the queue is full.
    pub fn try_enqueue(&mut self, pkt: T) -> Result<(), (EnqueueError, T)> {
        if let Err(e) = self.would_accept(&pkt) {
            return Err((e, pkt));
        }
        self.bytes += pkt.wire_size() as u64;
        if self.q.capacity() == 0 {
            // First buffer: room for one. A queue in front of an idle
            // transmitter hands each packet straight on and never holds two
            // — most access-port queues of a many-flow run — and
            // `VecDeque`'s own first step is four slots. A second packet
            // grows it the usual way.
            self.q.reserve_exact(1);
        }
        self.q.push_back(pkt);
        Ok(())
    }

    /// Pop the head-of-line packet.
    pub fn dequeue(&mut self) -> Option<T> {
        let pkt = self.q.pop_front()?;
        self.bytes -= pkt.wire_size() as u64;
        Some(pkt)
    }

    /// Current packet count.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Current byte occupancy.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Bytes the buffer holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        self.q.capacity() * size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, RawBody};
    use rss_sim::SimTime;

    fn pkt(id: u64, size: u32) -> Packet<RawBody> {
        Packet {
            id,
            src: NodeId(0),
            dst: NodeId(1),
            flow: FlowId(0),
            created: SimTime::ZERO,
            body: RawBody { size },
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = DropTailQueue::new(QueueConfig::unbounded());
        for i in 0..10 {
            q.try_enqueue(pkt(i, 100)).unwrap();
        }
        for i in 0..10 {
            assert_eq!(q.dequeue().unwrap().id, i);
        }
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn packet_limit_enforced() {
        let mut q = DropTailQueue::new(QueueConfig::packets(2));
        q.try_enqueue(pkt(0, 100)).unwrap();
        q.try_enqueue(pkt(1, 100)).unwrap();
        let err = q.try_enqueue(pkt(2, 100)).unwrap_err();
        assert_eq!(err.0, EnqueueError::PacketLimit);
        assert_eq!(err.1.id, 2, "rejected packet returned intact");
        // Space frees after a dequeue.
        q.dequeue().unwrap();
        q.try_enqueue(pkt(3, 100)).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn byte_limit_enforced() {
        let mut q = DropTailQueue::new(QueueConfig::bytes(250));
        q.try_enqueue(pkt(0, 100)).unwrap();
        q.try_enqueue(pkt(1, 100)).unwrap();
        let err = q.try_enqueue(pkt(2, 100)).unwrap_err();
        assert_eq!(err.0, EnqueueError::ByteLimit);
        // A smaller packet still fits.
        q.try_enqueue(pkt(3, 50)).unwrap();
        assert_eq!(q.bytes(), 250);
    }

    #[test]
    fn byte_accounting_conserved() {
        let mut q = DropTailQueue::new(QueueConfig::unbounded());
        q.try_enqueue(pkt(0, 100)).unwrap();
        q.try_enqueue(pkt(1, 200)).unwrap();
        assert_eq!(q.bytes(), 300);
        q.dequeue().unwrap();
        assert_eq!(q.bytes(), 200);
        q.dequeue().unwrap();
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn a_queue_that_never_held_two_packets_allocated_for_one() {
        let mut q = DropTailQueue::new(QueueConfig::packets(100));
        assert_eq!(q.q.capacity(), 0, "an unused queue owns no buffer");
        for i in 0..1000 {
            q.try_enqueue(pkt(i, 1500)).unwrap();
            assert_eq!(q.dequeue().unwrap().id, i);
        }
        assert_eq!(q.q.capacity(), 1);
        // A backlog grows it, FIFO order intact across the growth.
        for i in 0..10 {
            q.try_enqueue(pkt(i, 1500)).unwrap();
        }
        assert!(q.q.capacity() >= 10);
        for i in 0..10 {
            assert_eq!(q.dequeue().unwrap().id, i);
        }
    }

    #[test]
    fn a_queue_of_handles_is_limits_a_buffer_and_a_byte_count() {
        // One per router port: 20 002 on the 10k-flow dumbbell. With
        // enqueue, dequeue, drop and high-water counters it was 112 B.
        assert!(std::mem::size_of::<DropTail<crate::PacketHandle>>() <= 64);
    }

    #[test]
    fn would_accept_is_pure() {
        let q: DropTailQueue<RawBody> = DropTailQueue::new(QueueConfig::packets(1));
        assert!(q.would_accept(&pkt(0, 1)).is_ok());
        assert_eq!(q.len(), 0);
    }
}
