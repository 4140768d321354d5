//! The world model: hosts, network fabric and TCP connections wired into one
//! deterministic event-driven system. This is the only model of the dumbbell;
//! every run, on one thread or many, executes this code.
//!
//! Event flow for one data segment:
//!
//! ```text
//! sender.can_transmit ─► HostNic.enqueue (IFQ) ──full──► send-stall ─► CC
//!        │ ok: at the IFQ's tail; its head is               (Figure 1 event)
//!        ▼     the packet the device serializes
//! NicTxDone (head leaves) ─► Fabric.start_flight ─► Arrival ─► router port ─► Arrival ─► … ─► receiver host
//!   └─► pump the host's connections              (busy: waits in the queue                    │
//!                                                 for its PortTxDone)                         │
//!            sender.on_ack ◄─ ACK path (receiver NIC) ◄─ TcpReceiver ◄────────────────────────┘
//! ```
//!
//! A segment costs its sender's `NicTxDone` and one `Arrival` per hop; a
//! `PortTxDone` is added only at a router port where it waits behind another
//! packet. A `NicTxDone` frees an IFQ slot, so it pumps every connection
//! sending from that host: a range of the connection table, since a host's
//! flows are consecutive.
//!
//! # The unit map
//!
//! A world is built for a `UnitPlan`: which *unit* owns each host pair
//! (its two hosts and the two router ports feeding their access links) and
//! each bottleneck egress port — `host_pairs + 2` units in every run — and
//! which of them this world simulates. All of them, under one
//! [`Engine::run_until`], is `Scenario::shards = None`; with `shards` the
//! units are grouped into domains, each domain one world driven in lookahead
//! windows by [`crate::shard`]. A flight into a unit another world simulates
//! leaves as an envelope (see [`rss_net::Fabric::partitioned`]); everything
//! else is an ordinary event of the unit it belongs to.
//!
//! Everything whose order could depend on the grouping is kept per unit:
//! event and envelope sequence numbers, packet ids, the sampling chains, and
//! the random streams of the two bottleneck ports. Events fire in
//! `(time, unit, per-unit seq)` order, so how the units are grouped changes
//! no byte of a report, and `tests/one_world.rs` holds every feature to that.
//!
//! # What is sampled
//!
//! Two queue depths are sampled on the `sample_interval` grid, because the
//! report reads exactly two: the IFQ of flow 0's sending host (the signal the
//! paper's controller watches, `RunReport::sender_ifq_series`) and the
//! forward bottleneck queue (`RunReport::bottleneck_queue_series`). Each is
//! one chain of [`Ev::Sample`] events belonging to the unit that owns what
//! it samples, so a run has at most two chains whatever its host-pair or
//! shard count. Both series are recorded as the `(t_s, packets)` vectors the
//! report holds and moved into it.

use crate::body::WireBody;
use crate::scenario::Scenario;
use crate::shard::UnitPlan;
use rss_host::HostNic;
use rss_net::{
    dumbbell, Ecn, Fabric, FlowId, Handoff, Impairment, LinkId, LinkParams, NetEvent, NodeId,
    OutageSchedule, Packet, QueueConfig, RedStats, TrafficSource, UnitMap,
};
use rss_sim::{
    event_tag, Engine, Envelope, Model, OptNanos, Scheduler, SimDuration, SimRng, SimTime,
};
use rss_tcp::{
    make_cc, AckToSend, CcError, ConnId, IfqSnapshot, SegKind, TcpReceiver, TcpSegment, TcpSender,
};
use rss_web100::InstrumentBlock;
use std::fmt;
use std::ops::Range;

/// Events of the complete experiment world. Every index is local to the
/// world that scheduled the event.
#[derive(Debug, Clone)]
pub enum Ev {
    /// Network-fabric internal event (POD; payloads live in the fabric's
    /// packet arena).
    Net(NetEvent),
    /// A host NIC finished serializing a packet.
    NicTxDone {
        /// Host index.
        host: u32,
    },
    /// A flow begins.
    FlowStart {
        /// Connection index.
        conn: u32,
    },
    /// RTO check for a connection (may be stale; the sender verifies).
    RtoCheck {
        /// Connection index.
        conn: u32,
    },
    /// Retry transmission after a send-stall back-off.
    StallRetry {
        /// Connection index.
        conn: u32,
    },
    /// A cross-traffic source emits its next packet.
    CrossEmit {
        /// Cross-stream index.
        idx: u32,
    },
    /// Periodic sampling of one queue-depth series.
    Sample(Probe),
}

/// The queues a world samples (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The IFQ of flow 0's sending host.
    SenderIfq,
    /// The forward bottleneck queue.
    Bottleneck,
}

/// Why a [`Scenario`] cannot be turned into a runnable world.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// `flows[flow]` was rejected by the congestion-control registry.
    Cc {
        /// Index of the offending flow.
        flow: usize,
        /// The registry's verdict.
        source: CcError,
    },
    /// A value [`Scenario::check`] rejects, with its message.
    Invalid(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Cc { flow, source } => write!(f, "flows[{flow}]: {source}"),
            BuildError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for BuildError {}

struct Conn {
    /// Scenario-wide flow index; what segments and reports carry.
    id: ConnId,
    sender: TcpSender,
    receiver: TcpReceiver,
    /// Index of the sending and of the receiving host; a pair's two hosts
    /// are in the same world.
    hosts: [u32; 2],
    start: SimTime,
    completed_at: OptNanos<SimTime>,
}

struct Cross {
    source: TrafficSource,
    /// Index of the emitting host.
    host: u32,
    dst: NodeId,
    flow: FlowId,
    start: SimTime,
    stop: Option<SimTime>,
    sent_bytes: u64,
}

/// One end host: its NIC, where it attaches, and what sends from it.
struct Host {
    nic: HostNic<WireBody>,
    node: NodeId,
    /// The host's access link.
    link: LinkId,
    /// Index of the unit that owns this host.
    unit: u32,
    /// Connections sending from this host: consecutive, because flows are
    /// built in order and a flow's host pair never precedes an earlier
    /// flow's.
    conns: Range<u32>,
}

/// Per-unit state: whatever must not depend on how units are grouped.
struct Unit {
    /// Scenario-wide unit id.
    id: u32,
    /// Next packet id; units number from disjoint bases.
    next_pkt: u64,
}

/// The experiment state of the units one `UnitPlan` domain owns;
/// implements [`Model`] for the DES engine.
///
/// Hosts, connections and cross sources live in dense vectors holding only
/// what this world owns; events and cross-references carry indexes into
/// them, and `conn_index` maps the flow ids on arriving segments.
pub struct World {
    fabric: Fabric<WireBody>,
    hosts: Vec<Host>,
    conns: Vec<Conn>,
    /// Connection index by scenario flow id (`u32::MAX`: another world's).
    conn_index: Vec<u32>,
    /// Wire header bytes of every segment (`tcp.header_bytes`).
    header_bytes: u32,
    /// The codepoint of every data segment: ECT exactly when the bottleneck
    /// CE-marks (`QueueDiscipline::RedEcn`), else not ECN-capable.
    data_ecn: Ecn,
    cross: Vec<Cross>,
    units: Vec<Unit>,
    /// Units of the whole plan, this world's or not.
    plan_units: usize,
    scheduled_rto: Vec<OptNanos<SimTime>>,
    sample_interval: SimDuration,
    duration: SimDuration,
    /// Ask the engine to stop at the event that completes the last
    /// connection. Only a world that holds every unit can tell
    /// ([`World::build`]); the window driver collects
    /// [`World::take_completions`] from every domain instead.
    stop_when_complete: bool,
    completed: u64,
    completions_taken: u64,
    /// Flow 0's sending host and its IFQ-depth series `(t_s, packets)`.
    /// `None` when another world owns flow 0.
    sender_ifq: Option<(u32, Vec<(f64, f64)>)>,
    /// The forward bottleneck port's unit and its queue-depth series
    /// `(t_s, packets)`, on the same grid. `None` when another world owns
    /// the port.
    bottleneck_series: Option<(u32, Vec<(f64, f64)>)>,
    /// The two routers framing the bottleneck (forward direction first).
    routers: [NodeId; 2],
    /// The shared long-haul (bottleneck) link.
    bottleneck: LinkId,
    cross_delivered_bytes: u64,
}

impl World {
    /// Build the world of every unit of a scenario, for one engine to drive
    /// ([`Scenario::shards`] is the driver's business and ignored here).
    ///
    /// Fails with a path-qualified [`BuildError`] when [`Scenario::check`]
    /// rejects a value of the scenario, or when a flow's congestion-control
    /// selection is rejected.
    pub fn build(sc: &Scenario) -> Result<World, BuildError> {
        sc.check().map_err(BuildError::Invalid)?;
        World::build_checked(sc)
    }

    /// [`World::build`] of a scenario that has passed [`Scenario::check`].
    pub(crate) fn build_checked(sc: &Scenario) -> Result<World, BuildError> {
        let mut world = World::build_domain(sc, &UnitPlan::per_pair(sc, 1), 0)?;
        world.stop_when_complete = sc.stop_when_complete;
        Ok(world)
    }

    /// Build the world of the units `plan` assigns to `domain`, for a
    /// scenario that has passed [`Scenario::check`].
    pub(crate) fn build_domain(
        sc: &Scenario,
        plan: &UnitPlan,
        domain: u32,
    ) -> Result<World, BuildError> {
        let owns = |unit: u32| plan.unit_domain[unit as usize] == domain;
        let pairs = sc.host_pairs();
        let access_delay = sc.path.access_delay;
        let one_way = sc.path.rtt / 2;
        let haul_delay = one_way.saturating_sub(access_delay * 2);
        let access = LinkParams::new(sc.path.access_rate(), access_delay);
        let haul = LinkParams::new(sc.path.rate_bps, haul_delay).with_loss(sc.path.loss_prob);
        let (topo, d) = dumbbell(pairs, access, haul);
        let routers = [d.left_router, d.right_router];

        let mut map = UnitMap::new(&topo, plan.unit_domain.len());
        for (p, &unit) in plan.pair_unit.iter().enumerate() {
            for (node, link) in [
                (d.senders[p], d.sender_access[p]),
                (d.left_router, d.sender_access[p]),
                (d.right_router, d.receiver_access[p]),
                (d.receivers[p], d.receiver_access[p]),
            ] {
                map.assign(&topo, node, link, unit);
            }
        }
        for (router, unit) in routers.into_iter().zip(plan.hub_units) {
            map.assign(&topo, router, d.bottleneck, unit);
        }
        for unit in (0..plan.unit_domain.len() as u32).filter(|&u| owns(u)) {
            map.set_local(unit);
        }

        let rng = SimRng::seed_from_u64(sc.seed);
        let mut fabric = Fabric::partitioned(
            topo,
            QueueConfig::packets(sc.path.router_queue_pkts),
            rng.derive(0xFAB),
            map,
        );

        // The bottleneck ports: RED (with or without ECN marking) sized to
        // the drop-tail capacity, and the haul impairment. Each link
        // direction gets a private per-packet stream, while the directions
        // (and legs) of one physical link share a single outage realization
        // — a flap downs the link as a whole. Outage schedules build out to
        // the full scenario duration.
        let fault_horizon = SimTime::ZERO + sc.duration;
        let mean_pkt = SimDuration::for_bytes_at_rate(1500, sc.path.rate_bps);
        let red = sc.queue.to_red_config(sc.path.router_queue_pkts, mean_pkt);
        let haul_cfg = sc.haul_impairment.as_ref().filter(|c| !c.is_noop());
        let haul_rng = rng.derive(0x1FA);
        let haul_schedule =
            haul_cfg.map(|cfg| OutageSchedule::build(cfg, &mut haul_rng.derive(0), fault_horizon));
        for (k, router) in routers.into_iter().enumerate() {
            if !owns(plan.hub_units[k]) {
                continue;
            }
            if let Some(red) = red {
                fabric.set_red_port(router, d.bottleneck, red);
            }
            // Ports in different units cannot share a stream.
            fabric.set_port_rng(router, d.bottleneck, rng.derive(0xFAB0 + k as u64));
            if let (Some(cfg), Some(schedule)) = (haul_cfg, &haul_schedule) {
                let imp = Impairment::new(cfg, schedule.clone(), haul_rng.derive(1 + k as u64));
                fabric.set_impairment(d.bottleneck, router, imp);
            }
        }

        // Hosts, laid out unit by unit (pairs ascend, and so do their units).
        let acc_cfg = sc.access_impairment.as_ref().filter(|c| !c.is_noop());
        let acc_rng = rng.derive(0xACC);
        let owns_pair = |p: usize| owns(plan.pair_unit[p]);
        let mut units: Vec<Unit> = Vec::new();
        let mut hosts: Vec<Host> =
            Vec::with_capacity(2 * (0..pairs).filter(|&p| owns_pair(p)).count());
        let mut pair_hosts = vec![[u32::MAX; 2]; pairs];
        for p in (0..pairs).filter(|&p| owns_pair(p)) {
            if let Some(cfg) = acc_cfg {
                let pair_rng = acc_rng.derive(p as u64);
                let schedule = OutageSchedule::build(cfg, &mut pair_rng.derive(0), fault_horizon);
                for (k, (link, from)) in [
                    (d.sender_access[p], d.senders[p]),
                    (d.sender_access[p], d.left_router),
                    (d.receiver_access[p], d.right_router),
                    (d.receiver_access[p], d.receivers[p]),
                ]
                .into_iter()
                .enumerate()
                {
                    fabric.set_impairment(
                        link,
                        from,
                        Impairment::new(cfg, schedule.clone(), pair_rng.derive(1 + k as u64)),
                    );
                }
            }
            let unit = local_unit(&mut units, plan.pair_unit[p]);
            for (k, (node, link)) in [
                (d.senders[p], d.sender_access[p]),
                (d.receivers[p], d.receiver_access[p]),
            ]
            .into_iter()
            .enumerate()
            {
                pair_hosts[p][k] = hosts.len() as u32;
                hosts.push(Host {
                    nic: HostNic::new(sc.host),
                    node,
                    link,
                    unit,
                    conns: 0..0,
                });
            }
        }

        let owns_flow = |i: usize| owns_pair(sc.flow_pair(i));
        let mut conns = Vec::with_capacity((0..sc.flows.len()).filter(|&i| owns_flow(i)).count());
        let mut conn_index = vec![u32::MAX; sc.flows.len()];
        for (i, f) in sc.flows.iter().enumerate().filter(|&(i, _)| owns_flow(i)) {
            let pair = sc.flow_pair(i);
            let id = ConnId(i as u32);
            let cc =
                make_cc(f.algo, &sc.tcp).map_err(|source| BuildError::Cc { flow: i, source })?;
            let mut sender = TcpSender::new(id, sc.tcp, cc, f.bytes);
            sender.web100_mut().sample_stride = sc.web100_stride;
            let c = conns.len() as u32;
            conn_index[i] = c;
            let sending = &mut hosts[pair_hosts[pair][0] as usize].conns;
            if sending.start == sending.end {
                *sending = c..c;
            }
            assert_eq!(sending.end, c, "a host's connections are consecutive");
            sending.end = c + 1;
            conns.push(Conn {
                id,
                sender,
                receiver: TcpReceiver::new(id, sc.tcp),
                hosts: pair_hosts[pair],
                start: f.start,
                completed_at: OptNanos::NONE,
            });
        }

        let mut cross = Vec::new();
        for (j, c) in sc.cross.iter().enumerate() {
            let pair = sc.cross_pair(j);
            if !owns_pair(pair) {
                continue;
            }
            cross.push(Cross {
                source: TrafficSource::new(c.pattern, rng.derive(0x0C05 + j as u64)),
                host: pair_hosts[pair][0],
                dst: d.receivers[pair],
                flow: FlowId(u32::MAX - j as u32),
                start: c.start,
                stop: c.stop,
                sent_bytes: 0,
            });
        }

        Ok(World {
            fabric,
            hosts,
            scheduled_rto: vec![OptNanos::NONE; conns.len()],
            conns,
            conn_index,
            header_bytes: sc.tcp.header_bytes,
            data_ecn: if sc.queue.ecn_marking() {
                Ecn::Ect
            } else {
                Ecn::NotEct
            },
            cross,
            units,
            plan_units: plan.unit_domain.len(),
            sample_interval: sc.sample_interval,
            duration: sc.duration,
            stop_when_complete: false,
            completed: 0,
            completions_taken: 0,
            sender_ifq: owns_flow(0).then(|| (pair_hosts[sc.flow_pair(0)][0], Vec::new())),
            bottleneck_series: owns(plan.hub_units[0]).then(|| (plan.hub_units[0], Vec::new())),
            routers,
            bottleneck: d.bottleneck,
            cross_delivered_bytes: 0,
        })
    }

    /// Wrap the world in an engine seeded with its initial events, each its
    /// unit's: flow starts and cross sources in scenario order, then the
    /// sampling chains of the series this world records.
    pub fn into_engine(self) -> Engine<World> {
        let unit_of = |host: u32| self.units[self.hosts[host as usize].unit as usize].id;
        let mut evs: Vec<(u32, SimTime, Ev)> = Vec::new();
        for (c, conn) in self.conns.iter().enumerate() {
            let ev = Ev::FlowStart { conn: c as u32 };
            evs.push((unit_of(conn.hosts[0]), conn.start, ev));
        }
        for (x, cross) in self.cross.iter().enumerate() {
            let ev = Ev::CrossEmit { idx: x as u32 };
            evs.push((unit_of(cross.host), cross.start, ev));
        }
        if let Some((host, _)) = self.sender_ifq {
            evs.push((unit_of(host), SimTime::ZERO, Ev::Sample(Probe::SenderIfq)));
        }
        if let Some((unit, _)) = self.bottleneck_series {
            evs.push((unit, SimTime::ZERO, Ev::Sample(Probe::Bottleneck)));
        }
        let units = self.plan_units;
        let mut engine = Engine::with_units(self, units);
        for (unit, t, ev) in evs {
            engine.schedule_for(unit, t, ev);
        }
        engine
    }

    // --- the window driver's side (see `crate::shard`) -----------------------

    /// An envelope for `unit` arrived from another world: park the packet
    /// and return the event to schedule at the envelope's time.
    pub(crate) fn accept(&mut self, unit: u32, h: Handoff<WireBody>) -> Ev {
        Ev::Net(self.fabric.park(unit, h))
    }

    /// Move the envelopes produced since the last call into `into`.
    pub(crate) fn drain_outgoing(&mut self, into: &mut Vec<Envelope<Handoff<WireBody>>>) {
        self.fabric.drain_outbox(into);
    }

    /// Connections completed since the last call.
    pub(crate) fn take_completions(&mut self) -> u64 {
        let new = self.completed - self.completions_taken;
        self.completions_taken = self.completed;
        new
    }

    // --- accessors for reporting --------------------------------------------

    /// Release everything but the connections: hosts and their NICs, the
    /// fabric (ports, queues, packet arena, topology, routes), the timer
    /// table. A finished run needs the network for a handful of counters and
    /// the two sampled series (taken before this); the per-flow reports are
    /// built from what is left, after this, so they are never resident
    /// beside the network they describe.
    pub(crate) fn into_connections(self) -> Connections {
        Connections {
            conns: self.conns,
            conn_index: self.conn_index,
        }
    }

    /// The NIC of flow 0's sending host, the host the report's host-level
    /// fields describe; `None` when another world owns flow 0.
    pub fn sender_host(&self) -> Option<&HostNic<WireBody>> {
        let (host, _) = self.sender_ifq.as_ref()?;
        Some(&self.hosts[*host as usize].nic)
    }

    /// That host's IFQ-depth series `(t_s, packets)` on the sampling grid;
    /// `None` when another world owns flow 0.
    pub fn sender_ifq_series(&self) -> Option<&[(f64, f64)]> {
        self.sender_ifq.as_ref().map(|(_, s)| &s[..])
    }

    /// Move flow 0's sending-host IFQ series out, for the report.
    pub(crate) fn take_sender_ifq_series(&mut self) -> Option<Vec<(f64, f64)>> {
        self.sender_ifq.take().map(|(_, s)| s)
    }

    /// The network fabric (router/link statistics).
    pub fn fabric(&self) -> &Fabric<WireBody> {
        &self.fabric
    }

    /// RED/ECN counters summed over the bottleneck ports this world owns
    /// (all zero on a drop-tail bottleneck).
    pub fn red_stats(&self) -> RedStats {
        let mut sum = RedStats::default();
        for router in self.routers {
            if let Some(s) = self.fabric.red_port_stats(router, self.bottleneck) {
                sum.early_drops += s.early_drops;
                sum.forced_drops += s.forced_drops;
                sum.ecn_marks += s.ecn_marks;
            }
        }
        sum
    }

    /// Forward-direction bottleneck queue-depth series `(t_s, packets)`,
    /// instantaneous depth on the sampling grid; `None` when another world
    /// owns the port.
    pub fn bottleneck_series(&self) -> Option<&[(f64, f64)]> {
        self.bottleneck_series.as_ref().map(|(_, s)| &s[..])
    }

    /// Move the bottleneck series out, for the report.
    pub(crate) fn take_bottleneck_series(&mut self) -> Option<Vec<(f64, f64)>> {
        self.bottleneck_series.take().map(|(_, s)| s)
    }

    /// The heap bytes this world holds, by owner: the connection table
    /// (with the flow index and the RTO timer table); the connections'
    /// send-timestamp rings, recorders and out-of-order ranges; the hosts
    /// with their IFQ buffers; the fabric's ports, its hop records and
    /// routes, and its packet arena; and the rest. The event queue is the
    /// engine's ([`Engine::heap_bytes`]).
    pub fn footprint(&self) -> Footprint {
        let per_conn = |f: fn(&Conn) -> usize| self.conns.iter().map(f).sum();
        let fabric = self.fabric.heap_bytes();
        let series = [&self.sender_ifq, &self.bottleneck_series]
            .into_iter()
            .flatten()
            .map(|(_, s)| s.capacity() * size_of::<(f64, f64)>());
        Footprint {
            rows: vec![
                (
                    "connections, inline",
                    self.conns.capacity() * size_of::<Conn>()
                        + self.conn_index.capacity() * size_of::<u32>()
                        + self.scheduled_rto.capacity() * size_of::<OptNanos<SimTime>>(),
                ),
                ("send-timestamp rings", per_conn(|c| c.sender.heap_bytes())),
                (
                    "timelines, RTO episodes",
                    per_conn(|c| c.sender.web100().heap_bytes()),
                ),
                ("out-of-order ranges", per_conn(|c| c.receiver.heap_bytes())),
                (
                    "hosts and IFQ buffers",
                    self.hosts.capacity() * size_of::<Host>()
                        + self.hosts.iter().map(|h| h.nic.heap_bytes()).sum::<usize>(),
                ),
                ("fabric ports", fabric.ports),
                ("hop records and routes", fabric.hops),
                ("packet arena", fabric.arena),
                (
                    "other",
                    fabric.other
                        + self.cross.capacity() * size_of::<Cross>()
                        + self.units.capacity() * size_of::<Unit>()
                        + series.sum::<usize>(),
                ),
            ],
        }
    }

    /// Bytes this world's cross streams have offered so far.
    pub fn cross_offered_bytes(&self) -> u64 {
        self.cross.iter().map(|c| c.sent_bytes).sum()
    }

    /// Cross-traffic bytes delivered to this world's sinks.
    pub fn cross_delivered_bytes(&self) -> u64 {
        self.cross_delivered_bytes
    }

    // --- internals -----------------------------------------------------------

    fn ifq_snapshot(&self, host: u32) -> IfqSnapshot {
        let nic = &self.hosts[host as usize].nic;
        IfqSnapshot {
            depth: nic.ifq_queued(),
            max: nic.ifq_max(),
        }
    }

    /// Queue `body` on `host`'s NIC as a fresh packet from the host's node;
    /// `false` when the IFQ is full (the packet is gone — what that means is
    /// the caller's call).
    fn enqueue(
        &mut self,
        host: u32,
        dst: NodeId,
        flow: FlowId,
        body: WireBody,
        now: SimTime,
        sched: &mut Scheduler<'_, Ev>,
    ) -> bool {
        let h = &mut self.hosts[host as usize];
        let unit = &mut self.units[h.unit as usize];
        let id = unit.next_pkt;
        unit.next_pkt += 1;
        let pkt = Packet {
            id,
            src: h.node,
            dst,
            flow,
            created: now,
            body,
        };
        if h.nic.enqueue(pkt).is_err() {
            return false;
        }
        if let Some(ser) = h.nic.start_tx_if_idle(now) {
            sched.after(ser, Ev::NicTxDone { host });
        }
        true
    }

    /// Transmit as much as connection `ci` is allowed to right now.
    fn pump(&mut self, ci: usize, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        loop {
            let conn = &self.conns[ci];
            if now < conn.start {
                break;
            }
            let Some(plan) = conn.sender.can_transmit(now) else {
                break;
            };
            let host = conn.hosts[0];
            let seg = TcpSegment {
                conn: conn.id,
                kind: SegKind::Data {
                    seq: plan.seq,
                    len: plan.len,
                    retransmit: plan.retransmit,
                },
                header_bytes: self.header_bytes,
                ecn: self.data_ecn,
            };
            let (dst, flow) = (self.hosts[conn.hosts[1] as usize].node, conn.id.into());
            if self.enqueue(host, dst, flow, WireBody::Tcp(seg), now, sched) {
                self.conns[ci].sender.commit_transmit(now, plan);
            } else {
                // Send-stall: the paper's central event.
                let snap = self.ifq_snapshot(host);
                let sender = &mut self.conns[ci].sender;
                sender.on_local_stall(now, snap);
                if let Some(at) = sender.stall_retry_at() {
                    sched.at(at, Ev::StallRetry { conn: ci as u32 });
                }
                break;
            }
        }
        // Post-pump bookkeeping: pacing wakeup, limitation state, RTO
        // scheduling. A pacer-held departure re-enters through the same
        // retry event a stall uses — the handler just pumps again.
        let sender = &mut self.conns[ci].sender;
        if let Some(at) = sender.pacing_retry_at(now) {
            sched.at(at, Ev::StallRetry { conn: ci as u32 });
        }
        sender.update_lim_state(now);
        if let Some(d) = sender.rto_deadline() {
            let needs = match self.scheduled_rto[ci].get() {
                Some(at) => d < at,
                None => true,
            };
            if needs {
                sched.at(d.max(now), Ev::RtoCheck { conn: ci as u32 });
                self.scheduled_rto[ci].set(d.max(now));
            }
        }
    }

    fn send_ack(&mut self, ci: usize, ack: AckToSend, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        let conn = &self.conns[ci];
        let seg = TcpSegment {
            conn: conn.id,
            kind: SegKind::Ack {
                ack: ack.ack,
                rwnd: ack.rwnd,
                ece: ack.ece,
            },
            header_bytes: self.header_bytes,
            ecn: Ecn::NotEct,
        };
        // ACKs leave the receiver host. A full receiver IFQ silently drops
        // the ACK; cumulative ACKs make this safe.
        let [to, host] = conn.hosts;
        let (dst, flow) = (self.hosts[to as usize].node, conn.id.into());
        self.enqueue(host, dst, flow, WireBody::Tcp(seg), now, sched);
    }

    fn deliver(
        &mut self,
        node: NodeId,
        pkt: Packet<WireBody>,
        now: SimTime,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        match pkt.body {
            WireBody::Raw { size } => {
                self.cross_delivered_bytes += size as u64;
            }
            WireBody::Tcp(seg) => {
                let ci = self.conn_index[seg.conn.0 as usize] as usize;
                match seg.kind {
                    SegKind::Data { seq, len, .. } => {
                        let [_, to] = self.conns[ci].hosts;
                        debug_assert_eq!(node, self.hosts[to as usize].node, "data at wrong host");
                        if seg.ecn == Ecn::Ce {
                            self.conns[ci].receiver.on_ce();
                        }
                        let ack = self.conns[ci].receiver.on_segment(now, seq, len);
                        self.send_ack(ci, ack, now, sched);
                    }
                    SegKind::Ack { ack, rwnd, ece } => {
                        let [to, _] = self.conns[ci].hosts;
                        debug_assert_eq!(node, self.hosts[to as usize].node, "ack at wrong host");
                        let snap = self.ifq_snapshot(self.conns[ci].hosts[0]);
                        let sender = &mut self.conns[ci].sender;
                        if ece {
                            sender.on_ecn_echo(now, snap);
                        }
                        sender.on_ack(now, ack, rwnd, snap);
                        if sender.is_complete() && self.conns[ci].completed_at.is_none() {
                            self.complete(ci, now, sched);
                        }
                        self.pump(ci, now, sched);
                    }
                }
            }
        }
    }

    /// Record connection `ci` as complete at `now`, and stop the run when
    /// it was the last one and the scenario asks for that.
    fn complete(&mut self, ci: usize, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        self.conns[ci].completed_at.set(now);
        self.completed += 1;
        if self.stop_when_complete && self.completed == self.conns.len() as u64 {
            sched.request_stop();
        }
    }

    fn emit_cross(&mut self, idx: usize, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        let c = &mut self.cross[idx];
        if c.stop.is_some_and(|stop| now >= stop) {
            return;
        }
        let (gap, size) = c.source.next_packet();
        c.sent_bytes += size as u64;
        // Cross sources are open-loop: a full IFQ just drops the datagram.
        let (host, dst, flow) = (c.host, c.dst, c.flow);
        self.enqueue(host, dst, flow, WireBody::Raw { size }, now, sched);
        // A gap past the clock's end (a source slower than one packet in
        // 2^64 ns) means the source never emits again.
        if let Some(next) = now.checked_add(gap) {
            sched.at(next, Ev::CrossEmit { idx: idx as u32 });
        }
    }
}

/// The connections of a finished world ([`World::into_connections`]).
pub(crate) struct Connections {
    conns: Vec<Conn>,
    /// Connection index by scenario flow id (`u32::MAX`: another world's).
    conn_index: Vec<u32>,
}

impl Connections {
    /// Scenario flow `i`'s recorder (mutably, for end-of-run finalization),
    /// its receiver and its completion time; `None` when another world
    /// owned the flow.
    pub(crate) fn flow(
        &mut self,
        i: usize,
    ) -> Option<(&mut InstrumentBlock, &TcpReceiver, Option<SimTime>)> {
        let c = self.conns.get_mut(*self.conn_index.get(i)? as usize)?;
        Some((c.sender.web100_mut(), &c.receiver, c.completed_at.get()))
    }
}

/// Heap bytes a world holds, by owner ([`World::footprint`]).
#[derive(Debug, Clone)]
pub struct Footprint {
    /// `(owner, bytes)`, in the order the owners were counted.
    pub rows: Vec<(&'static str, usize)>,
}

impl Footprint {
    /// Bytes over every row.
    pub fn total(&self) -> usize {
        self.rows.iter().map(|&(_, bytes)| bytes).sum()
    }
}

/// Index of unit `id` in `units`, appending it on first sight. A unit's
/// visits are consecutive, so one seen before is the last one.
fn local_unit(units: &mut Vec<Unit>, id: u32) -> u32 {
    if units.last().map(|u| u.id) != Some(id) {
        units.push(Unit {
            id,
            next_pkt: event_tag(id, 0),
        });
    }
    units.len() as u32 - 1
}

impl Model for World {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        match ev {
            Ev::Net(nev) => {
                // A flight may have crossed units: what follows is the
                // receiving unit's, whoever sent it.
                if let NetEvent::Arrival { unit, .. } = nev {
                    sched.enter(unit);
                }
                // Fabric follow-ups go straight into the scheduler: the
                // closure borrows only `sched`, disjoint from `self.fabric`,
                // so the hot path buffers (and allocates) nothing — and the
                // fabric takes it by type, so the event is built in the
                // queue slot it is stored in.
                let delivered = self.fabric.handle(nev, now, |d, e| {
                    sched.after(d, Ev::Net(e));
                });
                if let Some((node, pkt)) = delivered {
                    self.deliver(node, pkt, now, sched);
                }
            }
            Ev::NicTxDone { host } => {
                let h = &mut self.hosts[host as usize];
                let pkt = h.nic.on_tx_done(now);
                self.fabric.start_flight(now, h.node, h.link, pkt, |d, e| {
                    sched.after(d, Ev::Net(e));
                });
                if let Some(ser) = h.nic.start_tx_if_idle(now) {
                    sched.after(ser, Ev::NicTxDone { host });
                }
                // A queue slot freed: stalled connections on this host may
                // proceed.
                for ci in self.hosts[host as usize].conns.clone() {
                    self.pump(ci as usize, now, sched);
                }
            }
            Ev::FlowStart { conn } => {
                let ci = conn as usize;
                // A flow with nothing to send is complete as it starts: no
                // ACK will ever say so.
                if self.conns[ci].sender.is_complete() {
                    self.complete(ci, now, sched);
                }
                self.pump(ci, now, sched);
            }
            Ev::RtoCheck { conn } => {
                let ci = conn as usize;
                self.scheduled_rto[ci] = OptNanos::NONE;
                // Coalesced deadline check: every ACK pushes the RTO deadline
                // out, so most checks pop stale. A stale pop re-arms at the
                // live deadline and does nothing else — the expensive
                // snapshot + timer + pump path runs only when the deadline
                // has actually arrived (or vanished).
                if let Some(d) = self.conns[ci].sender.rto_deadline() {
                    if now < d {
                        sched.at(d, Ev::RtoCheck { conn });
                        self.scheduled_rto[ci].set(d);
                        return;
                    }
                }
                let snap = self.ifq_snapshot(self.conns[ci].hosts[0]);
                self.conns[ci].sender.on_rto_check(now, snap);
                self.pump(ci, now, sched);
            }
            Ev::StallRetry { conn } => {
                self.pump(conn as usize, now, sched);
            }
            Ev::CrossEmit { idx } => {
                self.emit_cross(idx as usize, now, sched);
            }
            Ev::Sample(probe) => {
                let (depth, series) = match probe {
                    Probe::SenderIfq => {
                        let (host, series) =
                            self.sender_ifq.as_mut().expect("chain of flow 0's world");
                        (self.hosts[*host as usize].nic.ifq_queued() as f64, series)
                    }
                    Probe::Bottleneck => {
                        let depth = self.fabric.port_queue_len(self.routers[0], self.bottleneck);
                        let (_, series) = self
                            .bottleneck_series
                            .as_mut()
                            .expect("chain of the port's world");
                        (depth.expect("sampling world owns the port") as f64, series)
                    }
                };
                series.push((now.as_secs_f64(), depth));
                let next = now + self.sample_interval;
                if next <= SimTime::ZERO + self.duration {
                    sched.at(next, Ev::Sample(probe));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    #[test]
    fn a_flow_costs_two_hosts_and_one_connection() {
        // 256, 296 and 1 056 B while each NIC kept its device's packet beside
        // a counting drop-tail IFQ, each host a vector of its connections and
        // each connection two copies of the scenario's `TcpConfig`; 112, 136
        // and 920 B with each optional time an `Option` (16 B), the
        // instrument's timelines inline (64 B) and the RTT sample count; 768 B
        // with the report-only state in the sender and both hosts' nodes
        // beside their indices; 704 B before the sender's congestion
        // controller grew from 40 to 64 B; 728 B with an application driver
        // (32 B) and the receiver's delayed-ACK state (32 B).
        let nic = size_of::<HostNic<WireBody>>();
        assert!(nic <= 104, "HostNic is {nic} B");
        assert!(size_of::<Host>() <= 128, "Host is {} B", size_of::<Host>());
        assert!(size_of::<Conn>() <= 664, "Conn is {} B", size_of::<Conn>());
    }
}
