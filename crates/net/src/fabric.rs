//! The network fabric: packet motion through links and router queues.
//!
//! The fabric owns the *interior* of the network — router egress ports, their
//! queues, and the links. End hosts are the edge: a host NIC (modelled in
//! `rss-host`) serializes a packet and calls [`Fabric::start_flight`]; when a
//! packet arrives back at a host edge, [`Fabric::handle`] returns it to the
//! caller for delivery to the transport layer.
//!
//! The fabric is generic over the packet body and over the event-scheduling
//! callback, so the embedding world model decides how fabric events are
//! represented in its own event enum.
//!
//! # Units
//!
//! A [`UnitMap`] says which *unit* owns each egress direction `(node, link)`
//! and which units this fabric simulates: ports exist only for local
//! directions. Every arrival event names the unit that acts on it (the host,
//! or the router egress port the packet routes to), so the embedding model
//! can schedule the follow-ups as that unit's. A flight into a unit another
//! fabric simulates leaves as an [`Envelope`] in the outbox
//! ([`Fabric::drain_outbox`]) instead, and the owner of that unit's fabric
//! re-enters it with [`Fabric::park`]. [`Fabric::new`] is the one-unit map:
//! everything local, every arrival unit 0's.
//!
//! # What a port costs
//!
//! A 10k-pair dumbbell has 20 002 router egress ports, 16 618 of which never
//! carry a packet in a 2 s run, and two of which run RED. A port is therefore
//! kept to what every port uses — a drop-tail queue (whose buffer is
//! allocated on its first packet, for one packet: [`DropTailQueue`]), the
//! packet being serialized and two pointers: [`PortQueue::Red`] holds its
//! [`RedQueue`] in a `Box`, and a port's private random stream
//! ([`Fabric::set_port_rng`]) is boxed too. The RED and hub ports pay one
//! pointer hop per packet; every other port stops carrying 160 bytes of state
//! it never reads. The port table itself is sized once, from a count of the
//! directions the fabric simulates.

use crate::arena::{ArenaMode, PacketArena, PacketRef};
use crate::impair::{Impairment, Verdict};
use crate::packet::{Body, LinkId, NodeId, Packet};
use crate::queue::{DropTailQueue, QueueConfig, QueueStats};
use crate::red::{RedConfig, RedQueue, RedStats};
use crate::topology::{LinkSpec, NodeKind, RoutingTable, Topology};
use rss_sim::{Envelope, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Fabric-internal events. The embedding model stores these in its own event
/// enum and feeds them back into [`Fabric::handle`].
///
/// Plain-old-data: in-flight packet payloads are parked in the fabric's
/// [`PacketArena`] and the event carries only the 8-byte [`PacketRef`], so
/// scheduling a hop copies ~16 bytes instead of a full [`Packet`].
#[derive(Debug, Clone, Copy)]
pub enum NetEvent {
    /// A packet finished propagating along a link and reached its far end.
    Arrival {
        /// Who acts on it, as the direction index (`link * 2 + side`) of an
        /// egress: the host's own end of its access link, or the router
        /// egress port the packet routes to (`u32::MAX` if none does).
        /// Settled when the flight was launched, so the route is looked up
        /// once per hop.
        at: u32,
        /// Unit that owns that egress.
        unit: u32,
        /// Handle to the packet, parked in the fabric's arena.
        pkt: PacketRef,
    },
    /// A router egress port finished serializing its current packet.
    PortTxDone {
        /// Router owning the port.
        node: NodeId,
        /// Link the port feeds.
        link: LinkId,
    },
}

/// Queue discipline on a router egress port.
pub enum PortQueue<B> {
    /// Plain drop-tail FIFO.
    DropTail(DropTailQueue<B>),
    /// RED active queue management. Boxed: a topology has a handful of RED
    /// ports (the bottleneck's) and, at scale, tens of thousands of
    /// drop-tail access ports that would otherwise each carry RED's state.
    Red(Box<RedQueue<B>>),
}

impl<B: Body> PortQueue<B> {
    /// Offer a packet to the queue discipline; `false` means it was dropped.
    /// Drop-tail ignores `now` and `rng`; RED consumes both.
    pub fn try_enqueue(&mut self, now: SimTime, pkt: Packet<B>, rng: &mut SimRng) -> bool {
        match self {
            PortQueue::DropTail(q) => q.try_enqueue(pkt).is_ok(),
            PortQueue::Red(q) => q.try_enqueue(now, pkt, rng).is_ok(),
        }
    }
    /// Take the next packet for transmission.
    pub fn dequeue(&mut self, now: SimTime) -> Option<Packet<B>> {
        match self {
            PortQueue::DropTail(q) => q.dequeue(),
            PortQueue::Red(q) => q.dequeue(now),
        }
    }
    /// Current queue occupancy in packets.
    pub fn len(&self) -> usize {
        match self {
            PortQueue::DropTail(q) => q.len(),
            PortQueue::Red(q) => q.len(),
        }
    }
    /// Whether the queue holds no packets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Storage-layer statistics.
    pub fn stats(&self) -> QueueStats {
        match self {
            PortQueue::DropTail(q) => q.stats(),
            PortQueue::Red(q) => q.stats(),
        }
    }
    /// RED counters, when this port runs RED (None for drop-tail).
    pub fn red_stats(&self) -> Option<RedStats> {
        match self {
            PortQueue::DropTail(_) => None,
            PortQueue::Red(q) => Some(q.red_stats()),
        }
    }
}

struct Port<B> {
    queue: PortQueue<B>,
    /// The packet currently being serialized, if any.
    transmitting: Option<Packet<B>>,
    /// Private stream for this port's RED decisions and for random loss on
    /// the link it feeds; `None` draws from the fabric's shared stream.
    /// Boxed for the same reason as [`PortQueue::Red`]: only the two
    /// bottleneck ports of a dumbbell have one.
    rng: Option<Box<SimRng>>,
}

/// [`NetEvent::Arrival::at`] of a packet no egress of the router it reached
/// routes to.
const NO_ROUTE: u32 = u32::MAX;

/// A packet crossing into a unit another fabric simulates: the arrival it
/// would have been, with the payload inline (the source fabric's arena is
/// not the destination's).
#[derive(Debug, Clone)]
pub struct Handoff<B> {
    /// The egress that acts on the arrival ([`NetEvent::Arrival::at`]).
    pub at: u32,
    /// The packet.
    pub pkt: Packet<B>,
}

/// Which unit owns each egress direction `(node, link)` of a topology — a
/// host's NIC side of its access link, or a router's egress port — and which
/// of those units one fabric simulates.
#[derive(Debug, Clone)]
pub struct UnitMap {
    /// Owning unit per direction (`link * 2 + side`).
    owner: Vec<u32>,
    /// `local[unit]`: whether this fabric simulates the unit.
    local: Vec<bool>,
}

impl UnitMap {
    /// A map over `topo` with `units` units, none of them local and every
    /// direction owned by unit 0 until [`UnitMap::assign`] says otherwise.
    pub fn new(topo: &Topology, units: usize) -> Self {
        UnitMap {
            owner: vec![0; topo.links().len() * 2],
            local: vec![false; units],
        }
    }

    /// Give the egress direction of `link` at `node` to `unit`.
    pub fn assign(&mut self, topo: &Topology, node: NodeId, link: LinkId, unit: u32) {
        assert!((unit as usize) < self.local.len(), "unit out of range");
        self.owner[port_index(topo, node, link)] = unit;
    }

    /// Mark `unit` as simulated by the fabric this map is handed to.
    pub fn set_local(&mut self, unit: u32) {
        self.local[unit as usize] = true;
    }

    /// Whether the fabric holding this map simulates direction `dir`.
    fn is_local(&self, dir: usize) -> bool {
        self.local[self.owner[dir] as usize]
    }
}

/// A table over the direction index `link * 2 + side` that stores only the
/// occupied entries, so a fabric that owns (or impairs) a few directions of
/// a large topology does not pay a full slot for every empty one.
struct DirTable<T> {
    /// Index into `items` per direction; `u32::MAX` = empty.
    slot: Vec<u32>,
    items: Vec<T>,
}

impl<T> DirTable<T> {
    fn new(dirs: usize) -> Self {
        DirTable {
            slot: vec![u32::MAX; dirs],
            items: Vec::new(),
        }
    }

    #[inline]
    fn get(&self, dir: usize) -> Option<&T> {
        self.items.get(self.slot[dir] as usize)
    }

    #[inline]
    fn get_mut(&mut self, dir: usize) -> Option<&mut T> {
        self.items.get_mut(self.slot[dir] as usize)
    }

    fn insert(&mut self, dir: usize, item: T) {
        match self.get_mut(dir) {
            Some(old) => *old = item,
            None => {
                self.slot[dir] = u32::try_from(self.items.len()).expect("direction table overflow");
                self.items.push(item);
            }
        }
    }
}

/// Per-link transfer statistics (one entry per direction of use).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct LinkStats {
    /// Packets that completed the link.
    pub delivered_pkts: u64,
    /// Bytes that completed the link.
    pub delivered_bytes: u64,
    /// Packets lost to random link loss.
    pub lost_pkts: u64,
}

/// The interior packet-forwarding machine.
///
/// Router egress ports and link statistics live in dense tables built once at
/// construction ("topology-freeze") time: a link has exactly two ends, so the
/// port for `(node, link)` sits at `link * 2 + side`, and the per-hop lookups
/// on the packet path are indexed loads instead of tree walks.
pub struct Fabric<B> {
    topo: Topology,
    routes: RoutingTable,
    /// Router egress ports by direction (`link * 2 + side`); host-side ends
    /// of a link, and directions another unit's fabric owns, have none.
    ports: DirTable<Port<B>>,
    rng: SimRng,
    /// Per-link-direction impairments, indexed like ports. An absent entry
    /// (the default everywhere) is a zero-cost clean link.
    impairments: DirTable<Impairment>,
    /// Per-link transfer statistics, indexed by raw link id.
    link_stats: Vec<LinkStats>,
    /// In-flight packet payloads, referenced by [`NetEvent::Arrival`] events.
    arena: PacketArena<B>,
    units: UnitMap,
    /// Flights each unit has launched into another unit. An envelope takes
    /// its source unit's count as its sequence number, so `(time, unit,
    /// seq)` is a unique key however units are grouped into fabrics.
    seq: Vec<u64>,
    /// Flights into units this fabric does not simulate, produced since the
    /// last [`Fabric::drain_outbox`].
    outbox: Vec<Envelope<Handoff<B>>>,
    /// Packets dropped at routers because no route existed.
    pub unroutable_drops: u64,
    /// Packets dropped at router queues.
    pub queue_drops: u64,
}

impl<B: Body> Fabric<B> {
    /// Build a fabric over `topo` with drop-tail queues of `router_queue`
    /// capacity on every router egress port.
    pub fn new(topo: Topology, router_queue: QueueConfig, rng: SimRng) -> Self {
        let mut one_unit = UnitMap::new(&topo, 1);
        one_unit.set_local(0);
        Self::partitioned(topo, router_queue, rng, one_unit)
    }

    /// [`Fabric::new`] for the units `units` marks local: only their router
    /// egress ports are built, and flights into any other unit go to the
    /// outbox (see the module docs).
    pub fn partitioned(
        topo: Topology,
        router_queue: QueueConfig,
        rng: SimRng,
        units: UnitMap,
    ) -> Self {
        let routes = topo.compute_routes();
        let dirs = topo.links().len() * 2;
        // Counted first, so the port table is sized once instead of doubling
        // its way up (three reallocation copies, and half again as much
        // reserved as used, on a 10k-pair dumbbell).
        let mut ports = DirTable::new(dirs);
        ports
            .items
            .reserve_exact(local_router_dirs(&topo, &units).count());
        for idx in local_router_dirs(&topo, &units) {
            ports.insert(
                idx,
                Port {
                    queue: PortQueue::DropTail(DropTailQueue::new(router_queue)),
                    transmitting: None,
                    rng: None,
                },
            );
        }
        Fabric {
            impairments: DirTable::new(dirs),
            link_stats: vec![LinkStats::default(); topo.links().len()],
            topo,
            routes,
            ports,
            rng,
            arena: PacketArena::new(),
            seq: vec![0; units.local.len()],
            units,
            outbox: Vec::new(),
            unroutable_drops: 0,
            queue_drops: 0,
        }
    }

    /// Give the router egress port `(node, link)` a private random stream
    /// for its RED decisions and for loss on the link it feeds. Without one
    /// the port draws from the fabric's shared stream.
    pub fn set_port_rng(&mut self, node: NodeId, link: LinkId, rng: SimRng) {
        let idx = port_index(&self.topo, node, link);
        let port = self.ports.get_mut(idx).expect("not a router egress port");
        port.rng = Some(Box::new(rng));
    }

    /// Re-enter a packet another fabric handed off to `unit`: park it in
    /// this fabric's arena and return the arrival event to schedule at the
    /// envelope's time.
    pub fn park(&mut self, unit: u32, h: Handoff<B>) -> NetEvent {
        NetEvent::Arrival {
            at: h.at,
            unit,
            pkt: self.arena.insert(h.pkt),
        }
    }

    /// Flights launched from one unit into another so far, whichever way
    /// they travelled (a function of the unit map, not of which units share
    /// this fabric).
    pub fn cross_unit_flights(&self) -> u64 {
        self.seq.iter().sum()
    }

    /// Move the cross-unit flights produced since the last call into `into`,
    /// keeping the outbox's capacity.
    pub fn drain_outbox(&mut self, into: &mut Vec<Envelope<Handoff<B>>>) {
        into.append(&mut self.outbox);
    }

    /// Switch the in-flight arena's slot-recycling policy (testing aid:
    /// [`ArenaMode::Fresh`] is the allocation-per-packet reference build).
    /// Call before any traffic starts.
    pub fn set_arena_mode(&mut self, mode: ArenaMode) {
        self.arena.set_mode(mode);
    }

    /// Packets currently in flight on links (parked in the arena). A drained
    /// run ends at zero; anything else is a leak.
    pub fn packets_in_flight(&self) -> usize {
        self.arena.live()
    }

    /// Replace the queue on one router egress port with RED.
    pub fn set_red_port(&mut self, node: NodeId, link: LinkId, cfg: RedConfig) {
        let idx = port_index(&self.topo, node, link);
        let port = self.ports.get_mut(idx).expect("not a router egress port");
        port.queue = PortQueue::Red(Box::new(RedQueue::new(cfg)));
    }

    /// The topology the fabric runs on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Install a deterministic impairment on the direction of `link` whose
    /// packets depart `from`. Each direction carries its own instance (its
    /// own random streams); impairing one direction leaves the other clean.
    pub fn set_impairment(&mut self, link: LinkId, from: NodeId, imp: Impairment) {
        let idx = port_index(&self.topo, from, link);
        self.impairments.insert(idx, imp);
    }

    /// The impairment installed on `(link, from)`, if any — read-only access
    /// for post-run drop/jitter accounting.
    pub fn impairment(&self, link: LinkId, from: NodeId) -> Option<&Impairment> {
        try_port_index(&self.topo, from, link).and_then(|idx| self.impairments.get(idx))
    }

    /// Statistics for a link (zeroed default if unused).
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        self.link_stats
            .get(link.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Instantaneous queue length of a router egress port.
    pub fn port_queue_len(&self, node: NodeId, link: LinkId) -> Option<usize> {
        try_port_index(&self.topo, node, link)
            .and_then(|idx| self.ports.get(idx))
            .map(|p| p.queue.len())
    }

    /// RED counters of a router egress port; None when the pair is not a
    /// router egress port or the port runs drop-tail.
    pub fn red_port_stats(&self, node: NodeId, link: LinkId) -> Option<RedStats> {
        try_port_index(&self.topo, node, link)
            .and_then(|idx| self.ports.get(idx))
            .and_then(|p| p.queue.red_stats())
    }

    /// Put a fully serialized packet onto `link` leaving `from`: applies the
    /// link loss model and schedules the far-end arrival.
    ///
    /// Host NICs call this directly (their serialization time is the NIC's
    /// business); router ports call it internally when serialization ends.
    pub fn start_flight(
        &mut self,
        now: SimTime,
        from: NodeId,
        link: LinkId,
        pkt: Packet<B>,
        sched: &mut dyn FnMut(SimDuration, NetEvent),
    ) {
        let spec = *self.topo.link(link);
        let dir = port_index(&self.topo, from, link);
        let stats = &mut self.link_stats[link.0 as usize];
        if spec.params.loss_prob > 0.0 {
            let rng = match self.ports.get_mut(dir) {
                Some(Port { rng: Some(own), .. }) => &mut **own,
                _ => &mut self.rng,
            };
            if rng.chance(spec.params.loss_prob) {
                stats.lost_pkts += 1;
                return;
            }
        }
        // The impairment layer sees each departure after the independent
        // loss model: outage/burst drops, jitter (delay is only ever added,
        // so the link's propagation delay stays a valid lookahead bound for
        // the windowed driver) and duplication.
        let (extra_delay, duplicate) = match self.impairments.get_mut(dir) {
            None => (SimDuration::ZERO, false),
            Some(imp) => match imp.decide(now) {
                Verdict::Drop(_) => {
                    stats.lost_pkts += 1;
                    return;
                }
                Verdict::Deliver {
                    extra_delay,
                    duplicate,
                } => (extra_delay, duplicate),
            },
        };
        if duplicate {
            // The copy takes its own jittered flight, first; same packet id,
            // so the receiver's dedup accounting sees it as a true duplicate.
            let extra2 = self
                .impairments
                .get_mut(dir)
                .expect("duplicate verdict implies an impairment")
                .dup_jitter();
            stats.delivered_pkts += 1;
            stats.delivered_bytes += pkt.wire_size() as u64;
            self.launch(now, dir, &spec, extra2, pkt.clone(), sched);
        }
        let stats = &mut self.link_stats[link.0 as usize];
        stats.delivered_pkts += 1;
        stats.delivered_bytes += pkt.wire_size() as u64;
        self.launch(now, dir, &spec, extra_delay, pkt, sched);
    }

    /// Send `pkt` down `spec`'s link from direction `dir`: an arrival event
    /// for the unit that owns the far end, or — when another fabric
    /// simulates that unit — an envelope.
    #[inline]
    fn launch(
        &mut self,
        now: SimTime,
        dir: usize,
        spec: &LinkSpec,
        extra_delay: SimDuration,
        pkt: Packet<B>,
        sched: &mut dyn FnMut(SimDuration, NetEvent),
    ) {
        let delay = spec.params.prop_delay + extra_delay;
        // `dir` is `link * 2 + side`, so the far end's own side is `dir ^ 1`.
        let node = if dir & 1 == 0 { spec.b } else { spec.a };
        // The far end is owned by whoever will act on the arrival: the
        // host itself, or the router egress port the packet routes to
        // (an unroutable packet stays with the sender's unit and is counted
        // on arrival).
        let at = match self.topo.kind(node) {
            NodeKind::Host => dir ^ 1,
            NodeKind::Router => match self.routes.next_link(node, pkt.dst) {
                Some(out) => port_index(&self.topo, node, out),
                None => NO_ROUTE as usize,
            },
        };
        let src_unit = self.units.owner[dir];
        let unit = self.units.owner.get(at).copied().unwrap_or(src_unit);
        let at = at as u32;
        if src_unit != unit {
            let seq = &mut self.seq[src_unit as usize];
            *seq += 1;
            if !self.units.local[unit as usize] {
                self.outbox.push(Envelope {
                    time: now + delay,
                    src_unit,
                    seq: *seq,
                    dst_unit: unit,
                    msg: Handoff { at, pkt },
                });
                return;
            }
        }
        let pkt = self.arena.insert(pkt);
        sched(delay, NetEvent::Arrival { at, unit, pkt });
    }

    /// If the port at direction `idx` — `node`'s egress onto `spec`'s link —
    /// is idle and has queued work, begin serializing the next packet.
    fn kick_port(
        ports: &mut DirTable<Port<B>>,
        idx: usize,
        node: NodeId,
        spec: &LinkSpec,
        now: SimTime,
        sched: &mut dyn FnMut(SimDuration, NetEvent),
    ) {
        let port = ports.get_mut(idx).expect("missing port");
        if port.transmitting.is_some() {
            return;
        }
        let Some(pkt) = port.queue.dequeue(now) else {
            return;
        };
        let ser = spec.params.serialize_time(pkt.wire_size());
        port.transmitting = Some(pkt);
        let link = spec.id;
        sched(ser, NetEvent::PortTxDone { node, link });
    }

    /// Process one fabric event. Returns `Some((host, packet))` when a packet
    /// reaches an end host — the caller delivers it to the transport layer.
    ///
    /// `#[inline]`: this is the body of the model's hottest event arms, with
    /// one call site per world type. As a plain generic it is instantiated
    /// in whichever codegen unit the partitioner picks, and it is inlined
    /// into the model's handler only when the two land in the same unit —
    /// which any size change elsewhere in the using crate can flip, at
    /// 5–10 % of events/s on the paper testbed.
    #[inline]
    pub fn handle(
        &mut self,
        ev: NetEvent,
        now: SimTime,
        sched: &mut dyn FnMut(SimDuration, NetEvent),
    ) -> Option<(NodeId, Packet<B>)> {
        match ev {
            NetEvent::Arrival { at, pkt, .. } => {
                let pkt = self.arena.take(pkt);
                let idx = at as usize;
                let Some(spec) = self.topo.links().get(idx / 2) else {
                    debug_assert_eq!(at, NO_ROUTE);
                    self.unroutable_drops += 1;
                    return None;
                };
                let node = if idx & 1 == 0 { spec.a } else { spec.b };
                if self.topo.kind(node) == NodeKind::Host {
                    return Some((node, pkt));
                }
                // Router: forward.
                let port = self.ports.get_mut(idx).expect("router port missing");
                let rng = port.rng.as_deref_mut().unwrap_or(&mut self.rng);
                if port.queue.try_enqueue(now, pkt, rng) {
                    Self::kick_port(&mut self.ports, idx, node, spec, now, sched);
                } else {
                    self.queue_drops += 1;
                }
                None
            }
            NetEvent::PortTxDone { node, link } => {
                let idx = port_index(&self.topo, node, link);
                let port = self.ports.get_mut(idx).expect("missing port");
                let pkt = port
                    .transmitting
                    .take()
                    .expect("PortTxDone with no packet in flight");
                self.start_flight(now, node, link, pkt, sched);
                Self::kick_port(&mut self.ports, idx, node, self.topo.link(link), now, sched);
                None
            }
        }
    }
}

/// The router egress directions of `topo` that `units` marks local.
fn local_router_dirs<'a>(
    topo: &'a Topology,
    units: &'a UnitMap,
) -> impl Iterator<Item = usize> + 'a {
    topo.nodes()
        .filter(move |&node| topo.kind(node) == NodeKind::Router)
        .flat_map(move |node| {
            let links = topo.neighbors(node).iter();
            links.map(move |&(link, _)| port_index(topo, node, link))
        })
        .filter(move |&dir| units.is_local(dir))
}

/// Dense index of the egress port at `node` feeding `link`: a link has two
/// ends, so ports live at `link * 2 + side`. Hot-path variant: the endpoint
/// check is a couple of compares and keeps an internal invariant violation
/// loud in release instead of silently resolving to the wrong port.
#[inline]
fn port_index(topo: &Topology, node: NodeId, link: LinkId) -> usize {
    let spec = topo.link(link);
    assert!(node == spec.a || node == spec.b, "node not on link");
    link.0 as usize * 2 + usize::from(node == spec.b)
}

/// Validated [`port_index`] for externally-supplied `(node, link)` pairs:
/// None when the link is unknown or `node` is not one of its endpoints.
fn try_port_index(topo: &Topology, node: NodeId, link: LinkId) -> Option<usize> {
    let spec = topo.links().get(link.0 as usize)?;
    (node == spec.a || node == spec.b).then(|| link.0 as usize * 2 + usize::from(node == spec.b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketIdGen, RawBody};
    use crate::topology::{dumbbell, LinkParams};
    use rss_sim::{Engine, Model, Scheduler};

    /// Minimal world: raw packets pumped through a fabric, arrivals counted.
    struct RawWorld {
        fabric: Fabric<RawBody>,
        delivered: Vec<(SimTime, NodeId, u64)>,
    }

    impl Model for RawWorld {
        type Event = NetEvent;
        fn handle(&mut self, ev: Self::Event, sched: &mut Scheduler<'_, Self::Event>) {
            let now = sched.now();
            // Fabric follow-up events go straight into the scheduler — no
            // per-hop buffering.
            let out = self.fabric.handle(ev, now, &mut |d, e| {
                sched.after(d, e);
            });
            if let Some((node, pkt)) = out {
                self.delivered.push((now, node, pkt.id));
            }
        }
    }

    fn mk_world(
        n: usize,
        bn_rate: u64,
        queue: QueueConfig,
    ) -> (RawWorld, crate::topology::Dumbbell) {
        let access = LinkParams::new(1_000_000_000, SimDuration::from_micros(100));
        let bottleneck = LinkParams::new(bn_rate, SimDuration::from_millis(10));
        let (topo, d) = dumbbell(n, access, bottleneck);
        let fabric = Fabric::new(topo, queue, SimRng::seed_from_u64(99));
        (
            RawWorld {
                fabric,
                delivered: vec![],
            },
            d,
        )
    }

    /// Injection-time events outlive the `model_mut` borrow, so they stage
    /// through `pending` — a buffer the caller reuses across injections.
    #[allow(clippy::too_many_arguments)]
    fn send(
        eng: &mut Engine<RawWorld>,
        ids: &mut PacketIdGen,
        pending: &mut Vec<(SimDuration, NetEvent)>,
        from: NodeId,
        link: LinkId,
        dst: NodeId,
        size: u32,
        at: SimTime,
    ) {
        let pkt = Packet {
            id: ids.next_id(),
            src: from,
            dst,
            flow: FlowId(0),
            created: at,
            body: RawBody { size },
        };
        // Emulate a host NIC that has already serialized the packet.
        eng.model_mut()
            .fabric
            .start_flight(at, from, link, pkt, &mut |d, e| pending.push((d, e)));
        for (d, e) in pending.drain(..) {
            eng.schedule_at(at + d, e);
        }
    }

    #[test]
    fn a_port_does_not_carry_red_state_or_a_private_stream_inline() {
        // 20 000 access ports on the 10k-flow dumbbell: a drop-tail queue,
        // the packet on the wire and two pointers' worth of options.
        let port = std::mem::size_of::<Port<RawBody>>();
        assert!(port <= 200, "Port<RawBody> is {port} bytes");
        assert!(std::mem::size_of::<RedQueue<RawBody>>() > 200);
    }

    #[test]
    fn the_port_table_is_sized_once() {
        let (world, _) = mk_world(500, 100_000_000, QueueConfig::packets(100));
        let ports = &world.fabric.ports.items;
        // Two per pair (the routers' access sides) and the bottleneck's two.
        assert_eq!((ports.len(), ports.capacity()), (1002, 1002));
    }

    #[test]
    fn packet_crosses_dumbbell_with_correct_latency() {
        let (world, d) = mk_world(1, 100_000_000, QueueConfig::packets(100));
        let mut eng = Engine::new(world);
        let mut ids = PacketIdGen::new();
        let mut pending = Vec::new();
        send(
            &mut eng,
            &mut ids,
            &mut pending,
            d.senders[0],
            d.sender_access[0],
            d.receivers[0],
            1500,
            SimTime::ZERO,
        );
        eng.run_to_completion();
        let delivered = &eng.model().delivered;
        assert_eq!(delivered.len(), 1);
        let (t, node, _) = delivered[0];
        assert_eq!(node, d.receivers[0]);
        // A drained run leaves no packets parked in the arena.
        assert_eq!(eng.model().fabric.packets_in_flight(), 0);
        // Latency: prop 100us + (ser 120us + prop 10ms) + (ser 12us + prop 100us)
        let expect = SimDuration::from_micros(100)
            + SimDuration::for_bytes_at_rate(1500, 100_000_000)
            + SimDuration::from_millis(10)
            + SimDuration::for_bytes_at_rate(1500, 1_000_000_000)
            + SimDuration::from_micros(100);
        assert_eq!(t, SimTime::ZERO + expect);
    }

    #[test]
    fn bottleneck_serializes_back_to_back_packets() {
        let (world, d) = mk_world(1, 100_000_000, QueueConfig::packets(100));
        let mut eng = Engine::new(world);
        let mut ids = PacketIdGen::new();
        let mut pending = Vec::new();
        // Two packets injected at the same instant: the second must leave the
        // bottleneck one serialization time after the first.
        for _ in 0..2 {
            send(
                &mut eng,
                &mut ids,
                &mut pending,
                d.senders[0],
                d.sender_access[0],
                d.receivers[0],
                1500,
                SimTime::ZERO,
            );
        }
        eng.run_to_completion();
        let delivered = &eng.model().delivered;
        assert_eq!(delivered.len(), 2);
        let gap = delivered[1].0 - delivered[0].0;
        assert_eq!(gap, SimDuration::for_bytes_at_rate(1500, 100_000_000));
    }

    #[test]
    fn router_queue_overflow_drops() {
        // 2-packet router queue, 10 packets at once: expect drops.
        let (world, d) = mk_world(1, 10_000_000, QueueConfig::packets(2));
        let mut eng = Engine::new(world);
        let mut ids = PacketIdGen::new();
        let mut pending = Vec::new();
        for _ in 0..10 {
            send(
                &mut eng,
                &mut ids,
                &mut pending,
                d.senders[0],
                d.sender_access[0],
                d.receivers[0],
                1500,
                SimTime::ZERO,
            );
        }
        eng.run_to_completion();
        let world = eng.model();
        // 1 transmitting + 2 queued survive at the left router.
        assert_eq!(world.delivered.len(), 3);
        assert_eq!(world.fabric.queue_drops, 7);
    }

    #[test]
    fn fifo_order_end_to_end() {
        let (world, d) = mk_world(1, 50_000_000, QueueConfig::packets(100));
        let mut eng = Engine::new(world);
        let mut ids = PacketIdGen::new();
        let mut pending = Vec::new();
        for i in 0..20u64 {
            send(
                &mut eng,
                &mut ids,
                &mut pending,
                d.senders[0],
                d.sender_access[0],
                d.receivers[0],
                1000,
                SimTime::from_micros(i * 5),
            );
        }
        eng.run_to_completion();
        let ids_seen: Vec<u64> = eng.model().delivered.iter().map(|&(_, _, id)| id).collect();
        let mut sorted = ids_seen.clone();
        sorted.sort_unstable();
        assert_eq!(ids_seen, sorted, "packets reordered");
        assert_eq!(ids_seen.len(), 20);
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        let access = LinkParams::new(1_000_000_000, SimDuration::from_micros(100));
        let bottleneck = LinkParams::new(100_000_000, SimDuration::from_millis(10)).with_loss(0.5);
        let (topo, d) = dumbbell(1, access, bottleneck);
        let run = |seed: u64| {
            let fabric = Fabric::new(
                topo.clone(),
                QueueConfig::packets(100),
                SimRng::seed_from_u64(seed),
            );
            let mut eng = Engine::new(RawWorld {
                fabric,
                delivered: vec![],
            });
            let mut ids = PacketIdGen::new();
            let mut pending = Vec::new();
            for i in 0..100u64 {
                send(
                    &mut eng,
                    &mut ids,
                    &mut pending,
                    d.senders[0],
                    d.sender_access[0],
                    d.receivers[0],
                    1000,
                    SimTime::from_micros(i * 200),
                );
            }
            eng.run_to_completion();
            eng.model().delivered.len()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a, b, "same seed must give identical loss pattern");
        assert!(a > 20 && a < 80, "loss rate wildly off: {a}/100 delivered");
    }

    #[test]
    fn link_stats_account_bytes() {
        let (world, d) = mk_world(1, 100_000_000, QueueConfig::packets(100));
        let mut eng = Engine::new(world);
        let mut ids = PacketIdGen::new();
        let mut pending = Vec::new();
        for _ in 0..5 {
            send(
                &mut eng,
                &mut ids,
                &mut pending,
                d.senders[0],
                d.sender_access[0],
                d.receivers[0],
                1500,
                SimTime::ZERO,
            );
        }
        eng.run_to_completion();
        let s = eng.model().fabric.link_stats(d.bottleneck);
        assert_eq!(s.delivered_pkts, 5);
        assert_eq!(s.delivered_bytes, 7500);
    }
}
