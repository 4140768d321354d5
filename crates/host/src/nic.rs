//! The sending host's soft components: interface queue (IFQ) and NIC.
//!
//! This is the subsystem the paper is actually about. On Linux 2.4, a TCP
//! segment leaving the stack is enqueued on the device's qdisc — a FIFO of
//! `txqueuelen` packets — and the NIC drains it at line rate. If the stack
//! produces a burst larger than the qdisc can absorb (exactly what slow-start
//! does on a big-BDP path), the enqueue *fails*: a **send-stall**. Linux 2.4
//! fed that failure back into TCP as if it were network congestion, which is
//! the pathology Restricted Slow-Start removes.
//!
//! [`HostNic`] models the qdisc + device pair as one FIFO: while the device
//! is busy, the packet it serializes is the IFQ's head, so the device slot is
//! counted in [`HostNic::ifq_depth`] and left out of [`HostNic::ifq_queued`],
//! and an enqueue is refused when `txqueuelen` packets wait behind it. The
//! FIFO's buffer grows one slot at a time: its capacity is the deepest the
//! IFQ has been, device slot included (at most `txqueuelen + 1`), and a host
//! that never sends owns none.

use rss_net::{Body, EnqueueError, Packet, SerializeMemo};
use rss_sim::{OptNanos, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Static configuration of a host's transmit path.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HostConfig {
    /// NIC line rate, bits per second. The paper's hosts had 100 Mbit/s NICs.
    pub nic_rate_bps: u64,
    /// Interface-queue capacity in packets (Linux `txqueuelen`; the 2.4-era
    /// default was 100).
    pub txqueuelen: u32,
    /// MTU in bytes (1500 for Ethernet).
    pub mtu: u32,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            nic_rate_bps: 100_000_000,
            txqueuelen: 100,
            mtu: 1500,
        }
    }
}

/// Counters for one host transmit path.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct NicStats {
    /// Packets fully serialized onto the wire.
    pub tx_pkts: u64,
    /// Bytes fully serialized onto the wire.
    pub tx_bytes: u64,
    /// Enqueue attempts rejected by a full IFQ (send-stalls seen by *all*
    /// users of this NIC, not per-connection).
    pub stalls: u64,
    /// Cumulative time the NIC spent transmitting.
    pub busy_time: SimDuration,
}

/// The qdisc + NIC pair of one host.
#[derive(Debug, Clone)]
pub struct HostNic<B> {
    cfg: HostConfig,
    /// The IFQ in FIFO order. While the device is busy its head is the
    /// packet being serialized.
    ifq: VecDeque<Packet<B>>,
    /// When the device started serializing the head; `None` while idle.
    tx_started: OptNanos<SimTime>,
    /// Serialization time of the last packet's size (a bulk sender's are
    /// all one MSS).
    ser: SerializeMemo,
    stats: NicStats,
}

impl<B: Body> HostNic<B> {
    /// Create an idle NIC with an empty IFQ.
    pub fn new(cfg: HostConfig) -> Self {
        HostNic {
            cfg,
            ifq: VecDeque::new(),
            tx_started: OptNanos::NONE,
            ser: SerializeMemo::default(),
            stats: NicStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> HostConfig {
        self.cfg
    }

    /// Instantaneous IFQ depth in packets (the PID controller's process
    /// variable). Includes the packet on the device, matching how the qdisc
    /// backlog is read on Linux only loosely — the device slot is counted
    /// because it is still host-side backlog.
    pub fn ifq_depth(&self) -> u32 {
        self.ifq.len() as u32
    }

    /// Queued packets excluding the device slot.
    pub fn ifq_queued(&self) -> u32 {
        self.ifq_depth() - u32::from(self.tx_started.is_some())
    }

    /// Maximum IFQ depth (txqueuelen).
    pub fn ifq_max(&self) -> u32 {
        self.cfg.txqueuelen
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NicStats {
        self.stats
    }

    /// Bytes the IFQ's buffer holds on the heap: a slot per packet of the
    /// deepest the IFQ has been, each a whole [`Packet`].
    pub fn heap_bytes(&self) -> usize {
        self.ifq.capacity() * size_of::<Packet<B>>()
    }

    /// Offer a packet to the qdisc.
    ///
    /// On success the caller must invoke [`HostNic::start_tx_if_idle`] to
    /// (possibly) begin serialization. On failure the packet is returned —
    /// this is the **send-stall** the paper's Figure 1 counts; the caller
    /// forwards it to the congestion-control module as a local congestion
    /// signal.
    pub fn enqueue(&mut self, pkt: Packet<B>) -> Result<(), (EnqueueError, Packet<B>)> {
        if self.ifq_queued() >= self.cfg.txqueuelen {
            self.stats.stalls += 1;
            return Err((EnqueueError::PacketLimit, pkt));
        }
        if self.ifq.len() == self.ifq.capacity() {
            self.ifq.reserve_exact(1);
        }
        self.ifq.push_back(pkt);
        Ok(())
    }

    /// If the device is idle and the IFQ is non-empty, start serializing the
    /// head packet and return its serialization time; the caller schedules a
    /// tx-done event that far in the future.
    pub fn start_tx_if_idle(&mut self, now: SimTime) -> Option<SimDuration> {
        if self.tx_started.is_some() {
            return None;
        }
        let size = self.ifq.front()?.wire_size();
        self.tx_started.set(now);
        Some(self.ser.time(size, self.cfg.nic_rate_bps))
    }

    /// The device finished serializing: returns the packet now on the wire.
    /// The caller puts it in flight and calls [`HostNic::start_tx_if_idle`]
    /// again for the next one.
    pub fn on_tx_done(&mut self, now: SimTime) -> Packet<B> {
        let started = self
            .tx_started
            .take()
            .expect("tx-done with no packet on device");
        let pkt = self
            .ifq
            .pop_front()
            .expect("the device's packet heads the IFQ");
        self.stats.tx_pkts += 1;
        self.stats.tx_bytes += pkt.wire_size() as u64;
        self.stats.busy_time += now.saturating_since(started);
        pkt
    }

    /// Fraction of `[0, now]` the device spent transmitting.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let total = now.as_nanos();
        if total == 0 {
            return 0.0;
        }
        let mut busy = self.stats.busy_time;
        if let Some(started) = self.tx_started.get() {
            busy += now.saturating_since(started);
        }
        busy.as_nanos() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rss_net::{FlowId, NodeId, RawBody};

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

    fn nic(txqueuelen: u32) -> HostNic<RawBody> {
        HostNic::new(HostConfig {
            nic_rate_bps: 100_000_000,
            txqueuelen,
            mtu: 1500,
        })
    }

    #[test]
    fn serializes_at_line_rate() {
        let mut n = nic(10);
        n.enqueue(pkt(0, 1500)).unwrap();
        let ser = n.start_tx_if_idle(SimTime::ZERO).unwrap();
        // 1500 B at 100 Mbit/s = 120 us.
        assert_eq!(ser, SimDuration::from_micros(120));
        assert_eq!(n.ifq_depth(), 1, "the device slot holds the packet");
        let done = SimTime::ZERO + ser;
        let out = n.on_tx_done(done);
        assert_eq!(out.id, 0);
        assert_eq!(n.ifq_depth(), 0);
        assert_eq!(n.stats().tx_pkts, 1);
        assert_eq!(n.stats().tx_bytes, 1500);
        assert_eq!(n.stats().busy_time, ser);
    }

    #[test]
    fn full_ifq_generates_send_stall() {
        let mut n = nic(2);
        n.enqueue(pkt(0, 1500)).unwrap();
        n.enqueue(pkt(1, 1500)).unwrap();
        let err = n.enqueue(pkt(2, 1500));
        assert!(err.is_err(), "third packet must stall");
        let (_, returned) = err.unwrap_err();
        assert_eq!(returned.id, 2);
        assert_eq!(n.stats().stalls, 1);
        // Starting transmission frees a queue slot.
        n.start_tx_if_idle(SimTime::ZERO).unwrap();
        n.enqueue(pkt(3, 1500)).unwrap();
        assert_eq!(n.stats().stalls, 1);
    }

    #[test]
    fn ifq_depth_counts_device_slot() {
        let mut n = nic(10);
        n.enqueue(pkt(0, 1500)).unwrap();
        n.enqueue(pkt(1, 1500)).unwrap();
        assert_eq!(n.ifq_depth(), 2);
        assert_eq!(n.ifq_queued(), 2);
        n.start_tx_if_idle(SimTime::ZERO).unwrap();
        assert_eq!(n.ifq_depth(), 2, "device slot still backlog");
        assert_eq!(n.ifq_queued(), 1);
        n.on_tx_done(SimTime::from_micros(120));
        assert_eq!(n.ifq_depth(), 1);
    }

    #[test]
    fn device_busy_blocks_second_start() {
        let mut n = nic(10);
        n.enqueue(pkt(0, 1500)).unwrap();
        n.enqueue(pkt(1, 1500)).unwrap();
        assert!(n.start_tx_if_idle(SimTime::ZERO).is_some());
        assert!(n.start_tx_if_idle(SimTime::ZERO).is_none());
    }

    #[test]
    fn drain_order_is_fifo() {
        let mut n = nic(10);
        for i in 0..5 {
            n.enqueue(pkt(i, 100)).unwrap();
        }
        let mut now = SimTime::ZERO;
        for expect in 0..5 {
            let ser = n.start_tx_if_idle(now).unwrap();
            now += ser;
            assert_eq!(n.on_tx_done(now).id, expect);
        }
    }

    #[test]
    fn utilization_accounts_busy_fraction() {
        let mut n = nic(10);
        n.enqueue(pkt(0, 1500)).unwrap();
        let ser = n.start_tx_if_idle(SimTime::ZERO).unwrap();
        n.on_tx_done(SimTime::ZERO + ser);
        // Busy 120 us out of 240 us = 50 %.
        let u = n.utilization(SimTime::from_micros(240));
        assert!((u - 0.5).abs() < 1e-9, "u = {u}");
        // Mid-transmission time counts as busy.
        n.enqueue(pkt(1, 1500)).unwrap();
        n.start_tx_if_idle(SimTime::from_micros(240)).unwrap();
        let u = n.utilization(SimTime::from_micros(300));
        assert!((u - (120.0 + 60.0) / 300.0).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn the_buffer_is_as_deep_as_the_ifq_has_been_device_slot_included() {
        let mut n = nic(4);
        assert_eq!(n.ifq.capacity(), 0, "an unused NIC owns no buffer");
        // A packet at a time through an idle device: one slot.
        let mut now = SimTime::ZERO;
        for i in 0..100 {
            n.enqueue(pkt(i, 1500)).unwrap();
            now += n.start_tx_if_idle(now).unwrap();
            n.on_tx_done(now);
        }
        assert_eq!(n.ifq.capacity(), 1);
        // A backlog grows it slot by slot: the device's packet plus
        // `txqueuelen` behind it, and not one more for the refused packet.
        n.enqueue(pkt(100, 1500)).unwrap();
        n.start_tx_if_idle(now).unwrap();
        let mut deepest = 1;
        for i in 101..110 {
            if n.enqueue(pkt(i, 1500)).is_ok() {
                deepest += 1;
            }
            assert_eq!(n.ifq.capacity(), deepest, "after packet {i}");
        }
        assert_eq!(deepest, 5);
        assert_eq!(n.ifq_depth(), 5);
        assert_eq!(n.ifq_queued(), 4);
        // Draining keeps the buffer, and refilling to the same depth reuses
        // it, FIFO order intact across the wrap.
        let mut ids = Vec::new();
        while n.ifq_depth() > 0 {
            now += SimDuration::from_micros(120);
            ids.push(n.on_tx_done(now).id);
            n.start_tx_if_idle(now);
            if ids.len() == 2 {
                n.enqueue(pkt(200, 1500)).unwrap();
                n.enqueue(pkt(201, 1500)).unwrap();
            }
        }
        assert_eq!(ids, [100, 101, 102, 103, 104, 200, 201]);
        assert_eq!(n.ifq.capacity(), 5);
    }

    #[test]
    fn a_nic_holds_no_packet_inline() {
        use std::mem::size_of;
        // The device's packet is the IFQ's head, so a NIC is the same size
        // whatever its packets carry. With a packet slot for the device and
        // a drop-tail queue (limits and counters) for the IFQ it was 256 B
        // for the simulator's `Packet<WireBody>`, and 112 B with the device's
        // start time an `Option` (16 B).
        assert!(size_of::<HostNic<RawBody>>() <= 104);
        assert_eq!(
            size_of::<HostNic<RawBody>>(),
            size_of::<HostNic<[u8; 64]>>()
        );
    }

    #[test]
    #[should_panic(expected = "tx-done with no packet")]
    fn tx_done_without_start_panics() {
        let mut n = nic(1);
        n.on_tx_done(SimTime::ZERO);
    }
}
