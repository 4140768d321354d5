//! The host NIC against the NIC it replaced.
//!
//! [`HostNic`] keeps the packet on its device as the head of its IFQ. The
//! reference below is the two-part NIC it replaced, written out as it was: a
//! drop-tail queue of `txqueuelen` packets for the qdisc, and a separate slot
//! for the packet the device is serializing. Random sequences of enqueues
//! (random sizes), transmit starts and transmit completions, at random clock
//! steps and `txqueuelen` 1–8, must get the same answers from both: the same
//! acceptances and refusals (the refused packet handed back intact), the
//! same depths, serialization times, drain order, counters and utilization,
//! bit for bit.

use proptest::prelude::*;
use rss_host::{HostConfig, HostNic, NicStats};
use rss_net::{
    Body, DropTailQueue, EnqueueError, FlowId, NodeId, Packet, QueueConfig, RawBody, SerializeMemo,
};
use rss_sim::{SimDuration, SimTime};

/// The qdisc + NIC pair as two parts: a bounded FIFO, and the packet the
/// device is serializing beside it.
struct ReferenceNic<B> {
    cfg: HostConfig,
    ifq: DropTailQueue<B>,
    /// Packet currently being serialized by the device.
    transmitting: Option<Packet<B>>,
    tx_started: SimTime,
    ser: SerializeMemo,
    stats: NicStats,
}

impl<B: Body> ReferenceNic<B> {
    fn new(cfg: HostConfig) -> Self {
        ReferenceNic {
            ifq: DropTailQueue::new(QueueConfig::packets(cfg.txqueuelen)),
            cfg,
            transmitting: None,
            tx_started: SimTime::ZERO,
            ser: SerializeMemo::default(),
            stats: NicStats::default(),
        }
    }

    fn ifq_depth(&self) -> u32 {
        self.ifq.len() as u32 + u32::from(self.transmitting.is_some())
    }

    fn ifq_queued(&self) -> u32 {
        self.ifq.len() as u32
    }

    fn enqueue(&mut self, pkt: Packet<B>) -> Result<(), (EnqueueError, Packet<B>)> {
        match self.ifq.try_enqueue(pkt) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.stats.stalls += 1;
                Err(e)
            }
        }
    }

    fn start_tx_if_idle(&mut self, now: SimTime) -> Option<SimDuration> {
        if self.transmitting.is_some() {
            return None;
        }
        let pkt = self.ifq.dequeue()?;
        let ser = self.ser.time(pkt.wire_size(), self.cfg.nic_rate_bps);
        self.transmitting = Some(pkt);
        self.tx_started = now;
        Some(ser)
    }

    fn on_tx_done(&mut self, now: SimTime) -> Packet<B> {
        let pkt = self
            .transmitting
            .take()
            .expect("tx-done with no packet on device");
        self.stats.tx_pkts += 1;
        self.stats.tx_bytes += pkt.wire_size() as u64;
        self.stats.busy_time += now.saturating_since(self.tx_started);
        pkt
    }

    fn utilization(&self, now: SimTime) -> f64 {
        let total = now.as_nanos();
        if total == 0 {
            return 0.0;
        }
        let mut busy = self.stats.busy_time;
        if self.transmitting.is_some() {
            busy += now.saturating_since(self.tx_started);
        }
        busy.as_nanos() as f64 / total as f64
    }
}

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

/// What an enqueue answered: `None` for accepted, else the error and the
/// refused packet's id and size.
fn verdict(r: Result<(), (EnqueueError, Packet<RawBody>)>) -> Option<(EnqueueError, u64, u32)> {
    r.err().map(|(e, p)| (e, p.id, p.body.size))
}

fn counters(s: NicStats) -> (u64, u64, u64, SimDuration) {
    (s.tx_pkts, s.tx_bytes, s.stalls, s.busy_time)
}

proptest! {
    /// Op 0 offers a packet of the drawn size, op 1 starts the device if it
    /// is idle, op 2 completes the device's packet if it is busy; the clock
    /// moves by the drawn step (0 included) before each.
    #[test]
    fn the_nic_matches_the_two_part_reference(
        txqueuelen in 1u32..9,
        rate_mbps in 1u64..2000,
        ops in prop::collection::vec((0u8..3, 40u32..9000, 0u64..400_000), 1..300),
    ) {
        let cfg = HostConfig {
            nic_rate_bps: rate_mbps * 1_000_000,
            txqueuelen,
            mtu: 1500,
        };
        let mut nic: HostNic<RawBody> = HostNic::new(cfg);
        let mut reference = ReferenceNic::new(cfg);
        let mut now = SimTime::ZERO;
        for (i, &(op, size, step_ns)) in ops.iter().enumerate() {
            now += SimDuration::from_nanos(step_ns);
            match op {
                0 => {
                    let got = verdict(nic.enqueue(pkt(i as u64, size)));
                    let want = verdict(reference.enqueue(pkt(i as u64, size)));
                    prop_assert_eq!(got, want, "enqueue of packet {}", i);
                }
                1 => {
                    let got = nic.start_tx_if_idle(now);
                    prop_assert_eq!(got, reference.start_tx_if_idle(now), "start at op {}", i);
                }
                _ => {
                    if reference.transmitting.is_some() {
                        let got = nic.on_tx_done(now);
                        let want = reference.on_tx_done(now);
                        prop_assert_eq!(
                            (got.id, got.body.size),
                            (want.id, want.body.size),
                            "tx-done at op {}", i
                        );
                    }
                }
            }
            prop_assert_eq!(nic.ifq_depth(), reference.ifq_depth(), "depth after op {}", i);
            prop_assert_eq!(nic.ifq_queued(), reference.ifq_queued(), "queued after op {}", i);
            prop_assert_eq!(counters(nic.stats()), counters(reference.stats), "op {}", i);
            prop_assert_eq!(
                nic.utilization(now).to_bits(),
                reference.utilization(now).to_bits(),
                "utilization after op {}", i
            );
        }
        // Drain both: the same packets, in the same order, at the same times.
        loop {
            let got = nic.start_tx_if_idle(now);
            prop_assert_eq!(got, reference.start_tx_if_idle(now));
            if reference.transmitting.is_none() {
                break;
            }
            now += got.unwrap_or(SimDuration::ZERO);
            let (got, want) = (nic.on_tx_done(now), reference.on_tx_done(now));
            prop_assert_eq!(got.id, want.id);
        }
        prop_assert_eq!(nic.ifq_depth(), 0);
        prop_assert_eq!(counters(nic.stats()), counters(reference.stats));
    }
}
