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
//! # A hop moves a handle
//!
//! [`Fabric::start_flight`] parks the packet in the fabric's [`PacketArena`]
//! once. From there to the far host only its 16-byte [`PacketHandle`] moves —
//! through [`NetEvent::Arrival`] and a port's queue — and the packet itself
//! is read for its destination at each router and written for a CE mark. It
//! leaves the arena where its trip ends: returned by [`Fabric::handle`] at a
//! host, inline in an [`Envelope`] when another fabric simulates the next
//! unit, or dropped (queue overflow, RED, link loss, impairment, no route —
//! every one of them frees the slot).
//!
//! A router port has no transmitter slot. A packet is on the link from the
//! instant its port starts serializing it: the loss model and the impairment
//! decide its fate then (the impairment at the instant serialization ends),
//! and its arrival is scheduled serialization + propagation later. The port
//! keeps only when its transmitter is free again, and a
//! [`NetEvent::PortTxDone`] is scheduled only for a packet that has to wait
//! behind it, so a packet crossing an idle path costs one event per hop.
//!
//! What a hop asks of the topology is compiled at construction into one
//! 16-byte record per egress direction (the node it leaves, that node's
//! routing row if it is a router, the owning unit, the link's parameters)
//! and one `destination → egress direction` row per router, written by a
//! breadth-first search from that router. A hop is a few indexed loads, and
//! the [`Topology`] is dropped once the tables are built.
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
//! kept to what every port uses — a drop-tail queue of handles (whose buffer
//! is allocated for one handle when a packet first has to wait: [`DropTail`];
//! a packet that finds the transmitter free passes the queue by), when its
//! transmitter is free, the last serialization time and two pointers:
//! [`PortQueue::Red`] holds its [`Red`] queue in a `Box`, and a port's
//! private random stream ([`Fabric::set_port_rng`]) is boxed too. The RED and
//! hub ports pay one pointer hop per packet; every other port stops carrying
//! 160 bytes of state it never reads. A queued packet costs its port 16
//! bytes; the packet sits in the arena, whose slots are shared by every port
//! and recycled. The port table itself is sized once, from a count of the
//! directions the fabric simulates, and the impairment table's per-direction
//! index is built by the first [`Fabric::set_impairment`]: a clean network
//! has none.
//!
//! In events, a port costs a [`NetEvent::PortTxDone`] per packet that found
//! its transmitter busy and nothing else: a packet that finds it free goes
//! onto the link from its own [`NetEvent::Arrival`]. On the paper testbed,
//! where the sender's interface queue is the only one that fills, that is
//! eight events per data segment and its ACK where twelve were: each one's
//! `NicTxDone` and three arrivals.

use crate::arena::{ArenaMode, PacketArena, PacketHandle};
use crate::impair::{Impairment, Verdict};
use crate::packet::{Body, Ecn, LinkId, NodeId, Packet};
use crate::queue::{DropTail, QueueConfig};
use crate::red::{Red, RedConfig, RedStats};
use crate::topology::{LinkParams, NodeKind, SerializeMemo, Topology};
use rss_sim::{Envelope, SimDuration, SimRng, SimTime};
use std::collections::HashMap;

/// Fabric-internal events. The embedding model stores these in its own event
/// enum and feeds them back into [`Fabric::handle`].
///
/// Plain-old-data: in-flight packet payloads are parked in the fabric's
/// [`PacketArena`] and the event carries only the 16-byte [`PacketHandle`],
/// so scheduling a hop copies ~24 bytes instead of a full [`Packet`].
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
        /// The packet, parked in the fabric's arena since its host NIC sent
        /// it: the same handle goes into the port's queue and into the next
        /// arrival, until a host (or an envelope, or a drop) redeems it.
        pkt: PacketHandle,
    },
    /// A router egress port finished serializing a packet while others
    /// waited behind it: the next one starts. Scheduled only then — a port
    /// whose queue is empty when a serialization ends has no event for it.
    PortTxDone {
        /// Router owning the port.
        node: NodeId,
        /// Link the port feeds.
        link: LinkId,
    },
}

/// Queue discipline on a router egress port, over handles to parked packets.
pub enum PortQueue {
    /// Plain drop-tail FIFO.
    DropTail(DropTail<PacketHandle>),
    /// RED active queue management. Boxed: a topology has a handful of RED
    /// ports (the bottleneck's) and, at scale, tens of thousands of
    /// drop-tail access ports that would otherwise each carry RED's state.
    Red(Box<Red<PacketHandle>>),
}

impl PortQueue {
    /// Offer a packet to the queue discipline; `false` means it was dropped.
    /// Drop-tail ignores `now` and `rng`; RED consumes both.
    ///
    /// `#[inline]` (and on [`PortQueue::dequeue`]): not generic, so without
    /// the hint the per-hop enqueue is a call into this crate.
    #[inline]
    pub fn try_enqueue(&mut self, now: SimTime, pkt: PacketHandle, rng: &mut SimRng) -> bool {
        match self {
            PortQueue::DropTail(q) => q.try_enqueue(pkt).is_ok(),
            PortQueue::Red(q) => q.try_enqueue(now, pkt, rng).is_ok(),
        }
    }
    /// Offer a packet that finds the queue empty and the transmitter free:
    /// the packet to serialize at once, or `None` if it is dropped. RED
    /// enqueues and dequeues it, so its average and idle time see both;
    /// drop-tail, which keeps nothing a packet passing through would change,
    /// only checks that it would have been accepted.
    #[inline]
    fn pass(&mut self, now: SimTime, pkt: PacketHandle, rng: &mut SimRng) -> Option<PacketHandle> {
        match self {
            PortQueue::DropTail(q) => q.would_accept(&pkt).is_ok().then_some(pkt),
            PortQueue::Red(q) => {
                q.try_enqueue(now, pkt, rng).ok()?;
                q.dequeue(now)
            }
        }
    }
    /// Take the next packet for transmission.
    #[inline]
    pub fn dequeue(&mut self, now: SimTime) -> Option<PacketHandle> {
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
    /// RED counters, when this port runs RED (None for drop-tail).
    pub fn red_stats(&self) -> Option<RedStats> {
        match self {
            PortQueue::DropTail(_) => None,
            PortQueue::Red(q) => Some(q.red_stats()),
        }
    }
    /// Bytes the queue holds on the heap: its buffer, and RED's state.
    fn heap_bytes(&self) -> usize {
        match self {
            PortQueue::DropTail(q) => q.heap_bytes(),
            PortQueue::Red(q) => size_of::<Red<PacketHandle>>() + q.heap_bytes(),
        }
    }
}

/// A router port's transmitter. The packet it serializes is already on the
/// link, so it holds no packet, only when it is free again.
#[derive(Debug, Clone, Copy)]
enum Tx {
    /// Free, nothing queued.
    Idle,
    /// Serializing until this instant, nothing queued: no event is due, and
    /// an arrival at or after it finds the port free.
    Until(SimTime),
    /// Serializing until this instant with packets queued behind: the one
    /// [`NetEvent::PortTxDone`] due then starts the next.
    Pending(SimTime),
}

struct Port {
    queue: PortQueue,
    /// When the transmitter is free, and whether a `PortTxDone` is due.
    tx: Tx,
    /// Private stream for this port's RED decisions and for random loss on
    /// the link it feeds; `None` draws from the fabric's shared stream.
    /// Boxed for the same reason as [`PortQueue::Red`]: only the two
    /// bottleneck ports of a dumbbell have one.
    rng: Option<Box<SimRng>>,
    /// Serialization time of the last packet's size on the port's link.
    ser: SerializeMemo,
}

/// [`NetEvent::Arrival::at`] of a packet no egress of the router it reached
/// routes to.
const NO_ROUTE: u32 = u32::MAX;

/// [`Hop::row`] of a direction that leaves a host.
const HOST: u32 = u32::MAX;

/// What a hop asks about one egress direction `link * 2 + side`, compiled
/// from the topology, its routes and the unit map at construction.
#[derive(Debug, Clone, Copy)]
struct Hop {
    /// The node this direction's packets leave — and the one that acts on an
    /// arrival addressed to it.
    from: NodeId,
    /// [`HOST`] if `from` is a host; else which row of [`Fabric::routes`]
    /// is `from`'s.
    row: u32,
    /// Unit that owns the direction.
    unit: u32,
    /// The link's parameters, as an index into [`Fabric::params`].
    params: u32,
}

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
/// a large topology does not pay a full slot for every empty one. An index
/// shorter than the topology's direction count reads as empty past its end,
/// so `DirTable::new(0)` costs nothing until its first insert.
struct DirTable<T> {
    /// Index into `items` per direction; `u32::MAX` (or no entry) = empty.
    slot: Vec<u32>,
    items: Vec<T>,
}

impl<T> DirTable<T> {
    /// Bytes the index and the entries hold on the heap, not counting what
    /// each entry holds.
    fn heap_bytes(&self) -> usize {
        self.slot.capacity() * size_of::<u32>() + self.items.capacity() * size_of::<T>()
    }

    fn new(dirs: usize) -> Self {
        DirTable {
            slot: vec![u32::MAX; dirs],
            items: Vec::new(),
        }
    }

    #[inline]
    fn get(&self, dir: usize) -> Option<&T> {
        self.items.get(*self.slot.get(dir)? as usize)
    }

    #[inline]
    fn get_mut(&mut self, dir: usize) -> Option<&mut T> {
        self.items.get_mut(*self.slot.get(dir)? as usize)
    }

    /// Put `item` at `dir`, building the index for all `dirs` directions if
    /// the table has none yet.
    fn insert(&mut self, dir: usize, dirs: usize, item: T) {
        if self.slot.is_empty() {
            self.slot = vec![u32::MAX; dirs];
        }
        match self.get_mut(dir) {
            Some(old) => *old = item,
            None => {
                self.slot[dir] = u32::try_from(self.items.len()).expect("direction table overflow");
                self.items.push(item);
            }
        }
    }
}

/// What a [`Fabric`] holds on the heap, by owner, in bytes as requested from
/// the allocator ([`Fabric::heap_bytes`]).
#[derive(Debug, Clone, Copy)]
pub struct FabricBytes {
    /// Router egress ports: the port table and its per-direction index,
    /// each queue's buffer, RED state and private random stream.
    pub ports: usize,
    /// The compiled hop records, routing rows, link parameters and unit
    /// tables.
    pub hops: usize,
    /// The packet arena's slots and free list.
    pub arena: usize,
    /// Impairments with their outage schedules, and the envelope outbox.
    pub other: usize,
}

/// The interior packet-forwarding machine.
///
/// Router egress ports and hop records live in dense tables
/// built once at construction: a link has exactly two ends, so everything
/// about `(node, link)` sits at `link * 2 + side`, and every lookup after
/// construction reads the hop records instead of the topology, which the
/// fabric does not keep.
pub struct Fabric<B> {
    /// One record per direction (`link * 2 + side`).
    hops: Vec<Hop>,
    /// The topology's node count: the stride of [`Fabric::routes`].
    nodes: usize,
    /// One row of `nodes` words per router, in node order:
    /// `routes[row * nodes + dst]` is the router's egress direction toward
    /// `dst`, or [`NO_ROUTE`].
    routes: Vec<u32>,
    /// The distinct link parameters of the topology ([`Hop::params`]).
    params: Vec<LinkParams>,
    /// `local[unit]`: whether this fabric simulates the unit.
    local: Vec<bool>,
    /// Router egress ports by direction; host-side ends of a link, and
    /// directions another unit's fabric owns, have none.
    ports: DirTable<Port>,
    rng: SimRng,
    /// Per-link-direction impairments, indexed like ports. An absent entry
    /// (the default everywhere) is a zero-cost clean link, and a fabric with
    /// no impairment has no index either.
    impairments: DirTable<Impairment>,
    /// Every packet inside the fabric: queued, or on a link (serializing or
    /// flying).
    arena: PacketArena<B>,
    /// Flights each unit has launched into another unit. An envelope takes
    /// its source unit's count as its sequence number, so `(time, unit,
    /// seq)` is a unique key however units are grouped into fabrics.
    seq: Vec<u64>,
    /// Flights into units this fabric does not simulate, produced since the
    /// last [`Fabric::drain_outbox`].
    outbox: Vec<Envelope<Handoff<B>>>,
    /// Packets dropped at routers because no route existed.
    pub unroutable_drops: u64,
    /// Packets lost on links: to random link loss, or dropped by an
    /// impairment.
    pub link_drops: u64,
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
                dirs,
                Port {
                    queue: PortQueue::DropTail(DropTail::new(router_queue)),
                    tx: Tx::Idle,
                    rng: None,
                    ser: SerializeMemo::default(),
                },
            );
        }
        let (hops, routes, params) = compile_hops(&topo, &units.owner);
        Fabric {
            impairments: DirTable::new(0),
            hops,
            nodes: topo.node_count(),
            routes,
            params,
            ports,
            rng,
            arena: PacketArena::new(),
            seq: vec![0; units.local.len()],
            local: units.local,
            outbox: Vec::new(),
            unroutable_drops: 0,
            link_drops: 0,
            queue_drops: 0,
        }
    }

    /// Give the router egress port `(node, link)` a private random stream
    /// for its RED decisions and for loss on the link it feeds. Without one
    /// the port draws from the fabric's shared stream.
    pub fn set_port_rng(&mut self, node: NodeId, link: LinkId, rng: SimRng) {
        let idx = self.dir_of(node, link);
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
            pkt: self.arena.park(h.pkt),
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

    /// What the fabric holds on the heap, by owner.
    pub fn heap_bytes(&self) -> FabricBytes {
        let ports = self
            .ports
            .items
            .iter()
            .map(|p| p.queue.heap_bytes() + p.rng.as_ref().map_or(0, |_| size_of::<SimRng>()));
        let impairments = self.impairments.items.iter().map(Impairment::heap_bytes);
        FabricBytes {
            ports: self.ports.heap_bytes() + ports.sum::<usize>(),
            hops: self.hops.capacity() * size_of::<Hop>()
                + self.routes.capacity() * size_of::<u32>()
                + self.params.capacity() * size_of::<LinkParams>()
                + self.local.capacity()
                + self.seq.capacity() * size_of::<u64>(),
            arena: self.arena.heap_bytes(),
            other: self.impairments.heap_bytes()
                + impairments.sum::<usize>()
                + self.outbox.capacity() * size_of::<Envelope<Handoff<B>>>(),
        }
    }

    /// Packets currently inside the fabric (parked in the arena): waiting in
    /// a router port's queue, or on a link, being serialized onto it or
    /// flying along it. A drained run ends at zero; anything else is a leak.
    pub fn packets_in_flight(&self) -> usize {
        self.arena.live()
    }

    /// Replace the queue on one router egress port with RED.
    pub fn set_red_port(&mut self, node: NodeId, link: LinkId, cfg: RedConfig) {
        let idx = self.dir_of(node, link);
        let port = self.ports.get_mut(idx).expect("not a router egress port");
        port.queue = PortQueue::Red(Box::new(Red::new(cfg)));
    }

    /// Install a deterministic impairment on the direction of `link` whose
    /// packets depart `from`. Each direction carries its own instance (its
    /// own random streams); impairing one direction leaves the other clean.
    pub fn set_impairment(&mut self, link: LinkId, from: NodeId, imp: Impairment) {
        let idx = self.dir_of(from, link);
        self.impairments.insert(idx, self.hops.len(), imp);
    }

    /// The impairment installed on `(link, from)`, if any — read-only access
    /// for post-run drop/jitter accounting.
    pub fn impairment(&self, link: LinkId, from: NodeId) -> Option<&Impairment> {
        self.try_dir(from, link)
            .and_then(|idx| self.impairments.get(idx))
    }

    /// Instantaneous queue length of a router egress port.
    pub fn port_queue_len(&self, node: NodeId, link: LinkId) -> Option<usize> {
        self.try_dir(node, link)
            .and_then(|idx| self.ports.get(idx))
            .map(|p| p.queue.len())
    }

    /// RED counters of a router egress port; None when the pair is not a
    /// router egress port or the port runs drop-tail.
    pub fn red_port_stats(&self, node: NodeId, link: LinkId) -> Option<RedStats> {
        self.try_dir(node, link)
            .and_then(|idx| self.ports.get(idx))
            .and_then(|p| p.queue.red_stats())
    }

    /// [`port_index`] from the hop records: the same answer and the same
    /// loud endpoint check.
    #[inline]
    fn dir_of(&self, node: NodeId, link: LinkId) -> usize {
        let dir = link.0 as usize * 2;
        if self.hops[dir].from == node {
            dir
        } else {
            assert!(self.hops[dir + 1].from == node, "node not on link");
            dir + 1
        }
    }

    /// [`Fabric::dir_of`] for a caller's `(node, link)`: None when the link
    /// is unknown or `node` is not one of its ends.
    fn try_dir(&self, node: NodeId, link: LinkId) -> Option<usize> {
        let dir = link.0 as usize * 2;
        let ends = self.hops.get(dir..dir + 2)?;
        ends.iter()
            .position(|h| h.from == node)
            .map(|side| dir + side)
    }

    /// Put a fully serialized packet onto `link` leaving `from`: parks it,
    /// applies the link loss model and schedules the far-end arrival.
    ///
    /// Host NICs call this (their serialization time is the NIC's business);
    /// a router port puts its packet's handle on the link itself when
    /// serialization starts.
    pub fn start_flight(
        &mut self,
        now: SimTime,
        from: NodeId,
        link: LinkId,
        pkt: Packet<B>,
        mut sched: impl FnMut(SimDuration, NetEvent),
    ) {
        let dir = self.dir_of(from, link);
        let pkt = self.arena.park(pkt);
        self.depart(now, dir, SimDuration::ZERO, pkt, &mut sched);
    }

    /// A parked packet goes onto direction `dir` at `now` and has left it
    /// completely `ser` later: the loss model and the impairment (as of that
    /// instant) decide whether (and how late, and how many times) it
    /// arrives.
    #[inline]
    fn depart(
        &mut self,
        now: SimTime,
        dir: usize,
        ser: SimDuration,
        pkt: PacketHandle,
        sched: &mut impl FnMut(SimDuration, NetEvent),
    ) {
        let loss_prob = self.params[self.hops[dir].params as usize].loss_prob;
        if loss_prob > 0.0 {
            let rng = match self.ports.get_mut(dir) {
                Some(Port { rng: Some(own), .. }) => &mut **own,
                _ => &mut self.rng,
            };
            if rng.chance(loss_prob) {
                self.link_drops += 1;
                self.arena.take(pkt.pkt);
                return;
            }
        }
        // The impairment layer sees each departure after the independent
        // loss model: outage/burst drops, jitter (delay is only ever added,
        // so the link's propagation delay stays a valid lookahead bound for
        // the windowed driver) and duplication.
        let mut wait = ser;
        if let Some(imp) = self.impairments.get_mut(dir) {
            match imp.decide(now + ser) {
                Verdict::Drop(_) => {
                    self.link_drops += 1;
                    self.arena.take(pkt.pkt);
                    return;
                }
                Verdict::Deliver {
                    extra_delay: jitter,
                    duplicate,
                } => {
                    wait = ser + jitter;
                    if duplicate {
                        let copy_wait = ser + imp.dup_jitter();
                        self.launch_copy(now, dir, copy_wait, pkt, sched);
                    }
                }
            }
        }
        self.launch(now, dir, wait, pkt, sched);
    }

    /// The impairment duplicated `pkt`: park a copy and send it on its own
    /// jittered flight, ahead of the original. Same packet id, so the
    /// receiver's dedup accounting sees it as a true duplicate. Out of line,
    /// so the hot departure has one [`Fabric::launch`] in it.
    #[cold]
    #[inline(never)]
    fn launch_copy(
        &mut self,
        now: SimTime,
        dir: usize,
        wait: SimDuration,
        pkt: PacketHandle,
        sched: &mut impl FnMut(SimDuration, NetEvent),
    ) {
        let copy = self.arena.get(pkt.pkt).clone();
        let copy = PacketHandle {
            pkt: self.arena.insert(copy),
            ..pkt
        };
        self.launch(now, dir, wait, copy, sched);
    }

    /// Where a packet for `dst` put on the link at direction `dir` is acted
    /// on: the far host's own direction, or the egress direction the far
    /// router forwards it on ([`NO_ROUTE`] if none) — and the unit that owns
    /// it (an unroutable packet stays with the sender's unit and is counted
    /// on arrival). `dst` is asked for only at a router.
    #[inline]
    fn next_hop(&self, dir: usize, dst: impl FnOnce() -> NodeId) -> (u32, u32) {
        // `dir` is `link * 2 + side`, so the far end's own side is `dir ^ 1`.
        let far = dir ^ 1;
        let at = match self.hops[far].row {
            HOST => far as u32,
            row => {
                let nodes = self.nodes;
                let dst = dst().0 as usize;
                if dst < nodes {
                    self.routes[row as usize * nodes + dst]
                } else {
                    NO_ROUTE
                }
            }
        };
        let unit = self.hops.get(at as usize).unwrap_or(&self.hops[dir]).unit;
        (at, unit)
    }

    /// Send `pkt` down the link at direction `dir`, propagating from `wait`
    /// after `now`: an arrival event for the unit that owns the far end, or —
    /// when another fabric simulates that unit — an envelope.
    #[inline]
    fn launch(
        &mut self,
        now: SimTime,
        dir: usize,
        wait: SimDuration,
        pkt: PacketHandle,
        sched: &mut impl FnMut(SimDuration, NetEvent),
    ) {
        let hop = self.hops[dir];
        let delay = self.params[hop.params as usize].prop_delay + wait;
        let (at, unit) = self.next_hop(dir, || self.arena.get(pkt.pkt).dst);
        let src_unit = hop.unit;
        if src_unit != unit {
            let seq = &mut self.seq[src_unit as usize];
            *seq += 1;
            if !self.local[unit as usize] {
                self.outbox.push(Envelope {
                    time: now + delay,
                    src_unit,
                    seq: *seq,
                    dst_unit: unit,
                    msg: Handoff {
                        at,
                        pkt: self.arena.take(pkt.pkt),
                    },
                });
                return;
            }
        }
        sched(delay, NetEvent::Arrival { at, unit, pkt });
    }

    /// The router port at direction `dir` starts serializing `pkt` at `now`.
    /// The packet goes onto the link ([`Fabric::depart`]), and the
    /// transmitter is busy until its serialization ends. Returns how long
    /// that is if packets wait behind it: the [`NetEvent::PortTxDone`] the
    /// caller schedules.
    fn transmit(
        &mut self,
        now: SimTime,
        dir: usize,
        pkt: PacketHandle,
        sched: &mut impl FnMut(SimDuration, NetEvent),
    ) -> Option<SimDuration> {
        let hop = self.hops[dir];
        let port = self.ports.get_mut(dir).expect("router port missing");
        let ser = port
            .ser
            .time(pkt.size, self.params[hop.params as usize].rate_bps);
        let waiting = !port.queue.is_empty();
        port.tx = if waiting {
            Tx::Pending(now + ser)
        } else {
            Tx::Until(now + ser)
        };
        if pkt.ecn == Ecn::Ce {
            // The queue's mark (or an earlier hop's: the write is
            // idempotent) reaches the packet before it reaches the wire.
            self.arena.get_mut(pkt.pkt).body.set_ecn(Ecn::Ce);
        }
        self.depart(now, dir, ser, pkt, sched);
        waiting.then_some(ser)
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
        mut sched: impl FnMut(SimDuration, NetEvent),
    ) -> Option<(NodeId, Packet<B>)> {
        // The router port that acted, and when its next start is due if
        // packets wait behind its transmitter.
        let (dir, next_start) = match ev {
            NetEvent::Arrival { at, pkt, .. } => {
                let idx = at as usize;
                let Some(&hop) = self.hops.get(idx) else {
                    debug_assert_eq!(at, NO_ROUTE);
                    self.arena.take(pkt.pkt);
                    self.unroutable_drops += 1;
                    return None;
                };
                if hop.row == HOST {
                    return Some((hop.from, self.arena.take(pkt.pkt)));
                }
                // Router: forward.
                let port = self.ports.get_mut(idx).expect("router port missing");
                let free = match port.tx {
                    Tx::Idle => true,
                    // A serialization that ends at this very instant has
                    // ended: the departure is taken before the arrival.
                    Tx::Until(end) if end <= now => {
                        // RED's idle time starts where the transmission
                        // ended, once: from here the port is `Idle`, even if
                        // this packet is dropped.
                        if let PortQueue::Red(red) = &mut port.queue {
                            red.idle_from(end);
                        }
                        port.tx = Tx::Idle;
                        true
                    }
                    Tx::Until(_) | Tx::Pending(_) => false,
                };
                let rng = port.rng.as_deref_mut().unwrap_or(&mut self.rng);
                let admitted = if free {
                    port.queue.pass(now, pkt, rng)
                } else {
                    port.queue.try_enqueue(now, pkt, rng).then_some(pkt)
                };
                let Some(admitted) = admitted else {
                    self.arena.take(pkt.pkt);
                    self.queue_drops += 1;
                    return None;
                };
                if free {
                    (idx, self.transmit(now, idx, admitted, &mut sched))
                } else if let Tx::Until(end) = port.tx {
                    // The first packet to wait behind the transmitter.
                    port.tx = Tx::Pending(end);
                    (idx, Some(end - now))
                } else {
                    return None;
                }
            }
            NetEvent::PortTxDone { node, link } => {
                let idx = self.dir_of(node, link);
                let port = self.ports.get_mut(idx).expect("router port missing");
                debug_assert!(matches!(port.tx, Tx::Pending(end) if end == now));
                let pkt = port.queue.dequeue(now).expect("a packet waits");
                (idx, self.transmit(now, idx, pkt, &mut sched))
            }
        };
        // A port's next start is scheduled here alone, so `sched` has two
        // call sites, this and `Fabric::launch`: with a third, it has stood
        // alone in the shipped binaries, a call per scheduled hop.
        if let Some(wait) = next_start {
            let node = self.hops[dir].from;
            let link = LinkId(dir as u32 / 2);
            sched(wait, NetEvent::PortTxDone { node, link });
        }
        None
    }
}

/// The hop records of `topo` under the unit ownership `owner`, the routers'
/// routing rows and the distinct link parameters the records index
/// ([`Fabric::hops`], [`Fabric::routes`], [`Fabric::params`]). A router
/// gets a full row even with one link, so a destination it cannot reach is
/// dropped there instead of bouncing back. Hosts get none: a host sends
/// everything on its NIC's link.
fn compile_hops(topo: &Topology, owner: &[u32]) -> (Vec<Hop>, Vec<u32>, Vec<LinkParams>) {
    let mut row_of = vec![HOST; topo.node_count()];
    let mut routes = Vec::new();
    let routers = topo.nodes().filter(|&n| topo.kind(n) == NodeKind::Router);
    for (row, node) in routers.enumerate() {
        row_of[node.0 as usize] = row as u32;
        let first_links = topo.first_links(node).into_iter();
        routes.extend(first_links.map(|first| match first {
            Some(out) => port_index(topo, node, out) as u32,
            None => NO_ROUTE,
        }));
    }
    let mut params = Vec::new();
    let mut interned = HashMap::new();
    let mut hops = Vec::with_capacity(owner.len());
    for link in topo.links() {
        let p = link.params;
        let key = (p.rate_bps, p.prop_delay, p.loss_prob.to_bits());
        let params_idx = *interned.entry(key).or_insert_with(|| {
            params.push(p);
            params.len() as u32 - 1
        });
        for from in [link.a, link.b] {
            hops.push(Hop {
                from,
                row: row_of[from.0 as usize],
                unit: owner[hops.len()],
                params: params_idx,
            });
        }
    }
    (hops, routes, params)
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
/// ends, so ports live at `link * 2 + side`. Build-time variant; once the
/// topology is dropped, the fabric reads the same answer off its hop
/// records ([`Fabric::dir_of`]).
fn port_index(topo: &Topology, node: NodeId, link: LinkId) -> usize {
    let spec = topo.link(link);
    assert!(node == spec.a || node == spec.b, "node not on link");
    link.0 as usize * 2 + usize::from(node == spec.b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketIdGen, RawBody};
    use crate::topology::{dumbbell, LinkParams};
    use rss_sim::{Engine, Model, Scheduler};

    /// Minimal world: raw packets pumped through a fabric, deliveries and
    /// the events it took recorded.
    struct RawWorld {
        fabric: Fabric<RawBody>,
        delivered: Vec<(SimTime, NodeId, u64)>,
        arrivals: usize,
        tx_dones: Vec<(SimTime, NodeId, LinkId)>,
    }

    impl RawWorld {
        fn new(fabric: Fabric<RawBody>) -> Self {
            RawWorld {
                fabric,
                delivered: vec![],
                arrivals: 0,
                tx_dones: vec![],
            }
        }
    }

    impl Model for RawWorld {
        type Event = NetEvent;
        fn handle(&mut self, ev: Self::Event, sched: &mut Scheduler<'_, Self::Event>) {
            let now = sched.now();
            match ev {
                NetEvent::Arrival { .. } => self.arrivals += 1,
                NetEvent::PortTxDone { node, link } => self.tx_dones.push((now, node, link)),
            }
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
        (RawWorld::new(fabric), d)
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
        use std::mem::size_of;
        // 20 000 access ports on the 10k-flow dumbbell: a drop-tail queue of
        // handles, the transmitter's state, the serialization memo and two
        // pointers' worth of options. 152 B while the queue kept counters.
        let port = size_of::<Port>();
        assert!(port <= 104, "Port is {port} bytes");
        assert!(size_of::<Red<PacketHandle>>() > 160);
        // What a queued or flying packet costs outside the arena, and what a
        // direction costs the hop table.
        assert_eq!(size_of::<PacketHandle>(), 16);
        assert_eq!(size_of::<Option<PacketHandle>>(), 16);
        assert!(size_of::<Hop>() <= 16, "Hop is {} bytes", size_of::<Hop>());
    }

    /// Reference routing, independent of [`Topology::first_links`]: the
    /// dense all-pairs table, one BFS per node over a plain adjacency list
    /// rebuilt from the link list (so in `connect` order). `[at][dst]` is
    /// the first link of the shortest path, ties to the earlier link.
    fn dense_first_links(t: &Topology) -> Vec<Vec<Option<LinkId>>> {
        let n = t.node_count();
        let mut adjacency = vec![Vec::new(); n];
        for l in t.links() {
            adjacency[l.a.0 as usize].push((l.id, l.b));
            adjacency[l.b.0 as usize].push((l.id, l.a));
        }
        (0..n)
            .map(|src| {
                let mut first = vec![None; n];
                let mut seen = vec![false; n];
                seen[src] = true;
                let mut queue = std::collections::VecDeque::from([src]);
                while let Some(at) = queue.pop_front() {
                    for &(link, nb) in &adjacency[at] {
                        let nb = nb.0 as usize;
                        if !seen[nb] {
                            seen[nb] = true;
                            first[nb] = first[at].or(Some(link));
                            queue.push_back(nb);
                        }
                    }
                }
                first
            })
            .collect()
    }

    /// [`Fabric::next_hop`] derived on the fly from the topology and the
    /// dense reference: who acts on a packet for `dst` put on the link at
    /// direction `dir`, and which unit that is.
    fn next_hop_by_walk(
        topo: &Topology,
        reference: &[Vec<Option<LinkId>>],
        owner: &[u32],
        dir: usize,
        dst: NodeId,
    ) -> (u32, u32) {
        let spec = topo.link(LinkId(dir as u32 / 2));
        let node = if dir & 1 == 0 { spec.b } else { spec.a };
        let first = reference[node.0 as usize].get(dst.0 as usize).copied();
        let at = match (topo.kind(node), first.flatten()) {
            (NodeKind::Host, _) => dir ^ 1,
            (NodeKind::Router, Some(out)) => port_index(topo, node, out),
            (NodeKind::Router, None) => NO_ROUTE as usize,
        };
        let unit = owner.get(at).copied().unwrap_or(owner[dir]);
        (at as u32, unit)
    }

    /// Every router row and every entry of `topo`'s compiled hop table
    /// against the dense reference, with a unit of its own per direction so
    /// a wrong owner cannot hide.
    fn assert_hop_table_matches_the_walk(topo: Topology) {
        let dirs = topo.links().len() * 2;
        let mut units = UnitMap::new(&topo, dirs);
        for l in topo.links() {
            for node in [l.a, l.b] {
                let unit = port_index(&topo, node, l.id) as u32;
                units.assign(&topo, node, l.id, unit);
                units.set_local(unit);
            }
        }
        let owner = units.owner.clone();
        let reference = dense_first_links(&topo);
        let fabric: Fabric<RawBody> = Fabric::partitioned(
            topo.clone(),
            QueueConfig::packets(4),
            SimRng::seed_from_u64(1),
            units,
        );
        // One row per router, in node order, and none for a host.
        let nodes = topo.node_count();
        let routers: Vec<NodeId> = topo
            .nodes()
            .filter(|&n| topo.kind(n) == NodeKind::Router)
            .collect();
        assert_eq!(fabric.routes.len(), routers.len() * nodes);
        for (row, &router) in fabric.routes.chunks(nodes).zip(&routers) {
            let expect: Vec<u32> = reference[router.0 as usize]
                .iter()
                .map(|first| first.map_or(NO_ROUTE, |l| port_index(&topo, router, l) as u32))
                .collect();
            assert_eq!(row, expect, "row of {router:?}");
        }
        let mut unrouted = 0;
        for dir in 0..dirs {
            let spec = topo.link(LinkId(dir as u32 / 2));
            let hop = fabric.hops[dir];
            assert_eq!(hop.from, if dir & 1 == 0 { spec.a } else { spec.b });
            assert_eq!(hop.row == HOST, topo.kind(hop.from) == NodeKind::Host);
            assert_eq!(hop.unit, owner[dir]);
            let p = fabric.params[hop.params as usize];
            assert_eq!(
                (p.rate_bps, p.prop_delay, p.loss_prob.to_bits()),
                (
                    spec.params.rate_bps,
                    spec.params.prop_delay,
                    spec.params.loss_prob.to_bits()
                )
            );
            assert_eq!(fabric.dir_of(hop.from, spec.id), dir);
            assert_eq!(fabric.try_dir(hop.from, spec.id), Some(dir));
            // One past the last node too: a destination outside the
            // topology has no route anywhere.
            for dst in (0..=nodes as u32).map(NodeId) {
                let walked = next_hop_by_walk(&topo, &reference, &owner, dir, dst);
                assert_eq!(fabric.next_hop(dir, || dst), walked, "{dir} -> {dst:?}");
                unrouted += usize::from(walked.0 == NO_ROUTE);
            }
        }
        assert!(unrouted > 0, "no NO_ROUTE entry was compared");
        // A link past the last, or a node off the link, has no direction.
        let past = LinkId(topo.links().len() as u32);
        assert_eq!(fabric.try_dir(NodeId(0), past), None);
        if let Some(l) = topo.links().first() {
            let off = topo.nodes().find(|&n| n != l.a && n != l.b);
            assert_eq!(off.and_then(|n| fabric.try_dir(n, l.id)), None);
        }
    }

    #[test]
    fn the_hop_table_is_the_topology_walk_compiled() {
        let access = LinkParams::new(1_000_000_000, SimDuration::from_micros(100));
        let haul = LinkParams::new(100_000_000, SimDuration::from_millis(10)).with_loss(0.01);
        for pairs in [1, 2, 40] {
            assert_hop_table_matches_the_walk(dumbbell(pairs, access, haul).0);
        }

        // r0 — r1 — r2, a host on r0, a host homed on both r1 and r2, and a
        // host and a router nothing connects to.
        let mut line = Topology::new();
        let r: Vec<NodeId> = (0..3).map(|_| line.add_router()).collect();
        line.connect(r[0], r[1], haul);
        line.connect(r[1], r[2], access);
        let single = line.add_host();
        line.connect(single, r[0], access);
        let dual = line.add_host();
        line.connect(dual, r[1], access);
        line.connect(dual, r[2], haul);
        line.add_host();
        line.add_router();
        assert_hop_table_matches_the_walk(line);
    }

    #[test]
    fn large_dumbbell_routes_stay_compact() {
        // 10k pairs: 20 002 nodes. An all-pairs table would be nodes² ≈
        // 4×10⁸ entries; the fabric compiles one row per router, two here.
        let access = LinkParams::new(1_000_000_000, SimDuration::from_micros(100));
        let (topo, d) = dumbbell(10_000, access, access);
        let nodes = topo.node_count();
        let fabric: Fabric<RawBody> =
            Fabric::new(topo, QueueConfig::packets(4), SimRng::seed_from_u64(1));
        assert_eq!(fabric.routes.len(), 2 * nodes);
        // Into the left router from the last sender: on to the bottleneck.
        let sender_out = fabric.dir_of(d.senders[9_999], d.sender_access[9_999]);
        let bottleneck = fabric.dir_of(d.left_router, d.bottleneck);
        let dst = d.receivers[9_999];
        assert_eq!(fabric.next_hop(sender_out, || dst).0, bottleneck as u32);
        // Across the bottleneck: out on the receiver's access link.
        let dst = d.receivers[1_234];
        let access_out = fabric.dir_of(d.right_router, d.receiver_access[1_234]);
        assert_eq!(fabric.next_hop(bottleneck, || dst).0, access_out as u32);
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
    fn an_idle_path_costs_one_event_per_hop() {
        let run = |packets: usize| {
            let (world, d) = mk_world(1, 100_000_000, QueueConfig::packets(100));
            let mut eng = Engine::new(world);
            let mut ids = PacketIdGen::new();
            let mut pending = Vec::new();
            for _ in 0..packets {
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
            let w = eng.into_model();
            assert_eq!(w.delivered.len(), packets);
            (w.arrivals, w.tx_dones, d)
        };
        // Into the left router, across the bottleneck, into the receiver.
        let (arrivals, tx_dones, _) = run(1);
        assert_eq!((arrivals, tx_dones.len()), (3, 0));
        // Two at once: the second waits behind the first at the bottleneck,
        // and only there — the far access port (1 Gbit/s) has finished the
        // first by the time the second crosses.
        let (arrivals, tx_dones, d) = run(2);
        assert_eq!(arrivals, 6);
        let first_sent = SimTime::ZERO
            + SimDuration::from_micros(100)
            + SimDuration::for_bytes_at_rate(1500, 100_000_000);
        assert_eq!(tx_dones, vec![(first_sent, d.left_router, d.bottleneck)]);
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
        // 1 on the link + 2 queued survive at the left router.
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
            let mut eng = Engine::new(RawWorld::new(fabric));
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
}
