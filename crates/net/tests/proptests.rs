//! Property-based tests for queues, fabric routing, and the packet arena.

use proptest::prelude::*;
use rss_net::{
    dumbbell, ArenaMode, Body, DropTailQueue, Ecn, Fabric, FlowId, GilbertElliott, Impairment,
    ImpairmentConfig, Jitter, LinkId, LinkParams, NetEvent, NodeId, NodeKind, Packet, PacketIdGen,
    QueueConfig, RawBody, RedConfig, RedQueue, Topology, UnitMap,
};
use rss_sim::{Engine, Model, Scheduler, SimDuration, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn pkt(id: u64, size: u32) -> Packet<RawBody> {
    Packet {
        id,
        src: NodeId(0),
        dst: NodeId(1),
        flow: FlowId(0),
        created: SimTime::ZERO,
        body: RawBody { size: size.max(1) },
    }
}

/// Minimal ECN-capable body: RED can CE-mark it, unlike [`RawBody`].
#[derive(Debug, Clone)]
struct EctBody {
    size: u32,
    ecn: Ecn,
}

impl Body for EctBody {
    fn wire_size(&self) -> u32 {
        self.size
    }
    fn ecn(&self) -> Ecn {
        self.ecn
    }
    fn set_ecn(&mut self, codepoint: Ecn) {
        self.ecn = codepoint;
    }
}

/// Raw packets pumped through a fabric; the delivered `(time, node, id)`
/// trace is the observable the arena-mode differential compares.
struct ArenaWorld {
    fabric: Fabric<RawBody>,
    delivered: Vec<(SimTime, NodeId, u64)>,
    /// [`NetEvent::Arrival::at`] of every arrival, in order: the egress
    /// direction (`link * 2 + side`) that acts on it.
    arrivals: Vec<u32>,
}

impl Model for ArenaWorld {
    type Event = NetEvent;
    fn handle(&mut self, ev: Self::Event, sched: &mut Scheduler<'_, Self::Event>) {
        let now = sched.now();
        if let NetEvent::Arrival { at, .. } = ev {
            self.arrivals.push(at);
        }
        let out = self.fabric.handle(ev, now, &mut |d, e| {
            sched.after(d, e);
        });
        if let Some((node, pkt)) = out {
            self.delivered.push((now, node, pkt.id));
        }
    }
}

/// One `size`-byte packet, id 7, from host `a` out on `link` to `b`, through
/// a fresh `Fabric` over `t`, run for a simulated second.
fn send_one(t: &Topology, a: NodeId, link: LinkId, b: NodeId, size: u32) -> ArenaWorld {
    let fabric = Fabric::new(t.clone(), QueueConfig::packets(4), SimRng::seed_from_u64(1));
    let mut eng = Engine::new(ArenaWorld {
        fabric,
        delivered: vec![],
        arrivals: vec![],
    });
    let packet = Packet {
        id: 7,
        src: a,
        dst: b,
        flow: FlowId(0),
        created: SimTime::ZERO,
        body: RawBody { size },
    };
    let mut pending = Vec::new();
    eng.model_mut()
        .fabric
        .start_flight(SimTime::ZERO, a, link, packet, |d, e| pending.push((d, e)));
    for (d, e) in pending {
        eng.schedule_at(SimTime::ZERO + d, e);
    }
    eng.run_until(SimTime::from_secs(1));
    eng.into_model()
}

/// Reference routing for a connected graph: the dense all-pairs table, one
/// BFS per node over a plain `Vec<Vec<_>>` adjacency rebuilt from the link
/// list (so in `connect` order, whatever [`Topology`] stores). `[at][dst]`
/// is the first link of the shortest path, ties to the earlier link.
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

/// Between every two hosts of a 1-, 2- and 40-pair dumbbell the fabric
/// forwards a packet along the dense reference's path: each link on it
/// carries the packet once, no other link carries it, and it arrives after
/// that path's latency.
#[test]
fn dumbbell_routes_match_the_dense_reference() {
    let params = LinkParams::new(1_000_000, SimDuration::from_millis(1));
    let size = 1000;
    let ser = SimDuration::for_bytes_at_rate(size as u64, params.rate_bps);
    for pairs in [1, 2, 40] {
        let (t, _) = dumbbell(pairs, params, params);
        let reference = dense_first_links(&t);
        let hosts: Vec<NodeId> = t.nodes().filter(|&n| t.kind(n) == NodeKind::Host).collect();
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                let mut path = Vec::new();
                let mut at = a;
                while at != b {
                    let link =
                        reference[at.0 as usize][b.0 as usize].expect("dumbbell is connected");
                    path.push(link);
                    at = t.link(link).other_end(at);
                }
                let world = send_one(&t, a, path[0], b, size);
                // It goes onto the first link, each router puts it on the
                // link its arrival names, and the last arrival is `b`'s own
                // end of the last link: every link of the path carries it
                // once, in order, and no other link does.
                let (&last, routed) = world.arrivals.split_last().expect("it arrives");
                let mut carried = vec![path[0]];
                carried.extend(routed.iter().map(|&at| LinkId(at / 2)));
                assert_eq!(carried, path, "{a:?} -> {b:?}");
                assert_eq!(LinkId(last / 2), *path.last().unwrap(), "{a:?} -> {b:?}");
                // Each router on the way serializes the packet once.
                let links = path.len() as u64;
                let latency = params.prop_delay * links + ser * (links - 1);
                assert_eq!(
                    world.delivered,
                    vec![(SimTime::ZERO + latency, b, 7)],
                    "{a:?} -> {b:?}"
                );
                assert_eq!(world.fabric.packets_in_flight(), 0);
            }
        }
    }
}

/// One full run of `sends` packets through an impaired dumbbell with the
/// given arena recycling policy; returns the delivered trace.
fn impaired_run(
    seed: u64,
    mode: ArenaMode,
    imp: &ImpairmentConfig,
    sends: &[(u64, u32)], // (inject gap µs, wire size)
) -> Vec<(SimTime, NodeId, u64)> {
    let access = LinkParams::new(1_000_000_000, SimDuration::from_micros(100));
    let bottleneck = LinkParams::new(50_000_000, SimDuration::from_millis(5));
    let (topo, d) = dumbbell(1, access, bottleneck);
    let mut fabric: Fabric<RawBody> =
        Fabric::new(topo, QueueConfig::packets(32), SimRng::seed_from_u64(seed));
    fabric.set_arena_mode(mode);
    // Impair the bottleneck's forward direction: loss, reordering jitter and
    // duplication all exercise distinct arena insert/take paths.
    fabric.set_impairment(
        d.bottleneck,
        d.left_router,
        Impairment::from_config(
            imp,
            &SimRng::seed_from_u64(seed ^ 0x5eed),
            SimTime::from_secs(60),
        ),
    );
    let mut eng = Engine::new(ArenaWorld {
        fabric,
        delivered: vec![],
        arrivals: vec![],
    });
    let mut ids = PacketIdGen::new();
    let mut pending: Vec<(SimDuration, NetEvent)> = Vec::new();
    let mut at = SimTime::ZERO;
    for &(gap_us, size) in sends {
        at += SimDuration::from_micros(gap_us);
        let pkt = Packet {
            id: ids.next_id(),
            src: d.senders[0],
            dst: d.receivers[0],
            flow: FlowId(0),
            created: at,
            body: RawBody { size: size.max(40) },
        };
        eng.model_mut().fabric.start_flight(
            at,
            d.senders[0],
            d.sender_access[0],
            pkt,
            &mut |dl, e| pending.push((dl, e)),
        );
        for (dl, e) in pending.drain(..) {
            eng.schedule_at(at + dl, e);
        }
    }
    eng.run_to_completion();
    assert_eq!(
        eng.model().fabric.packets_in_flight(),
        0,
        "drained run leaked arena slots"
    );
    eng.into_model().delivered
}

/// One fabric of the leak audit: a dumbbell whose left bottleneck port is
/// where packets die.
#[derive(Debug, Clone)]
struct AuditCase {
    seed: u64,
    pairs: usize,
    /// Drop-tail capacity of every router port.
    queue_pkts: u32,
    /// RED on the left bottleneck port instead of drop-tail, capacity
    /// `queue_pkts`: whether it marks, and its averaging weight.
    red: Option<(bool, f64)>,
    loss_prob: f64,
    imp: ImpairmentConfig,
    /// Simulate only the sending half: the left router's bottleneck port and
    /// everything behind it. Flights across the bottleneck leave as
    /// envelopes.
    split: bool,
    /// Per packet: inject gap (µs), sending pair, wire size, and whether it
    /// is addressed to a node nothing connects to.
    sends: Vec<(u64, usize, u32, bool)>,
}

/// How the packets of one audited run ended.
#[derive(Debug, Default)]
struct AuditTally {
    delivered: u64,
    delivered_ce: u64,
    enveloped: u64,
    enveloped_ce: u64,
    queue_drops: u64,
    red_early: u64,
    red_forced: u64,
    red_marks: u64,
    link_lost: u64,
    impair_drops: u64,
    duplicates: u64,
    unroutable: u64,
}

/// Pending fabric events in `(time, insertion)` order; an engine would do,
/// but the audit looks at the fabric between any two events.
#[derive(Default)]
struct Pending {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    events: Vec<NetEvent>,
    arrivals: usize,
    tx_dones: usize,
}

impl Pending {
    fn push(&mut self, at: SimTime, ev: NetEvent) {
        match ev {
            NetEvent::Arrival { .. } => self.arrivals += 1,
            NetEvent::PortTxDone { .. } => self.tx_dones += 1,
        }
        self.heap.push(Reverse((at, self.events.len() as u64)));
        self.events.push(ev);
    }

    fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, NetEvent)> {
        let &Reverse((at, i)) = self.heap.peek().filter(|e| e.0 .0 <= limit)?;
        self.heap.pop();
        let ev = self.events[i as usize];
        match ev {
            NetEvent::Arrival { .. } => self.arrivals -= 1,
            NetEvent::PortTxDone { .. } => self.tx_dones -= 1,
        }
        Some((at, ev))
    }
}

/// Run `case` to drain, holding the arena to account after every injection
/// and every event: what is parked is exactly what is queued in a port or on
/// a link (a pending `Arrival`: a packet being serialized is already on its
/// way), and nothing once the network is empty; and a `PortTxDone` is
/// pending for exactly the ports with packets queued.
fn audited_run(case: &AuditCase) -> AuditTally {
    let access = LinkParams::new(1_000_000_000, SimDuration::from_micros(50));
    let bottleneck =
        LinkParams::new(20_000_000, SimDuration::from_millis(2)).with_loss(case.loss_prob);
    let (mut topo, d) = dumbbell(case.pairs, access, bottleneck);
    let nowhere = topo.add_host();
    let queue = QueueConfig::packets(case.queue_pkts);
    let rng = SimRng::seed_from_u64(case.seed);
    let mut fabric: Fabric<EctBody> = if case.split {
        let mut units = UnitMap::new(&topo, 2);
        units.assign(&topo, d.right_router, d.bottleneck, 1);
        for (&r, &link) in d.receivers.iter().zip(&d.receiver_access) {
            units.assign(&topo, d.right_router, link, 1);
            units.assign(&topo, r, link, 1);
        }
        units.set_local(0);
        Fabric::partitioned(topo, queue, rng, units)
    } else {
        Fabric::new(topo, queue, rng)
    };
    if let Some((ecn, wq)) = case.red {
        let mut red = RedConfig::for_capacity(case.queue_pkts, SimDuration::from_micros(600));
        // A low band: early decisions and marks within a few packets. A
        // fast average then force-drops at `max_th`; a slow one lets a burst
        // run into the hard limit.
        red.min_th = 0.5;
        red.max_p = 0.5;
        red.wq = wq;
        red.ecn = ecn;
        fabric.set_red_port(d.left_router, d.bottleneck, red);
    }
    fabric.set_impairment(
        d.bottleneck,
        d.left_router,
        Impairment::from_config(
            &case.imp,
            &SimRng::seed_from_u64(case.seed ^ 0x5eed),
            SimTime::from_secs(60),
        ),
    );

    let mut ports = vec![
        (d.left_router, d.bottleneck),
        (d.right_router, d.bottleneck),
    ];
    ports.extend(d.sender_access.iter().map(|&l| (d.left_router, l)));
    ports.extend(d.receiver_access.iter().map(|&l| (d.right_router, l)));
    let mut pending = Pending::default();
    let mut tally = AuditTally::default();
    let mut outbox = Vec::new();
    let mut audit = |fabric: &mut Fabric<EctBody>, pending: &Pending, tally: &mut AuditTally| {
        fabric.drain_outbox(&mut outbox);
        for env in outbox.drain(..) {
            tally.enveloped += 1;
            tally.enveloped_ce += u64::from(env.msg.pkt.body.ecn == Ecn::Ce);
        }
        let lens = ports
            .iter()
            .filter_map(|&(node, link)| fabric.port_queue_len(node, link));
        let queued: usize = lens.clone().sum();
        assert_eq!(
            fabric.packets_in_flight(),
            queued + pending.arrivals,
            "parked != queued {queued} + on a link {}",
            pending.arrivals
        );
        // A port schedules its next start only while packets wait.
        let backlogged = lens.filter(|&len| len > 0).count();
        assert_eq!(
            pending.tx_dones, backlogged,
            "PortTxDone per backlogged port"
        );
    };

    let mut ids = PacketIdGen::new();
    let mut at = SimTime::ZERO;
    for &(gap_us, pair, size, lost) in &case.sends {
        at += SimDuration::from_micros(gap_us);
        // Everything due before this injection happens first.
        while let Some((now, ev)) = pending.pop_at_or_before(at) {
            let out = fabric.handle(ev, now, |dl, e| pending.push(now + dl, e));
            if let Some((_, pkt)) = out {
                tally.delivered += 1;
                tally.delivered_ce += u64::from(pkt.body.ecn == Ecn::Ce);
            }
            audit(&mut fabric, &pending, &mut tally);
        }
        let pair = pair % case.pairs;
        let pkt = Packet {
            id: ids.next_id(),
            src: d.senders[pair],
            dst: if lost { nowhere } else { d.receivers[pair] },
            flow: FlowId(pair as u32),
            created: at,
            body: EctBody {
                size: size.max(40),
                ecn: Ecn::Ect,
            },
        };
        fabric.start_flight(at, d.senders[pair], d.sender_access[pair], pkt, |dl, e| {
            pending.push(at + dl, e)
        });
        audit(&mut fabric, &pending, &mut tally);
    }
    while let Some((now, ev)) = pending.pop_at_or_before(SimTime::MAX) {
        let out = fabric.handle(ev, now, |dl, e| pending.push(now + dl, e));
        if let Some((_, pkt)) = out {
            tally.delivered += 1;
            tally.delivered_ce += u64::from(pkt.body.ecn == Ecn::Ce);
        }
        audit(&mut fabric, &pending, &mut tally);
    }
    assert_eq!(fabric.packets_in_flight(), 0, "drained run leaked");

    tally.queue_drops = fabric.queue_drops;
    tally.unroutable = fabric.unroutable_drops;
    if let Some(red) = fabric.red_port_stats(d.left_router, d.bottleneck) {
        tally.red_early = red.early_drops;
        tally.red_forced = red.forced_drops;
        tally.red_marks = red.ecn_marks;
    }
    let imp = fabric
        .impairment(d.bottleneck, d.left_router)
        .expect("installed above")
        .stats;
    tally.impair_drops = imp.burst_drops + imp.outage_drops;
    tally.duplicates = imp.duplicates;
    // The bottleneck is the one lossy and the one impaired link.
    tally.link_lost = fabric.link_drops - tally.impair_drops;
    // Every packet sent, and every copy made, ended exactly one way.
    assert_eq!(
        case.sends.len() as u64 + tally.duplicates,
        tally.delivered
            + tally.enveloped
            + tally.queue_drops
            + tally.link_lost
            + tally.impair_drops
            + tally.unroutable,
        "{tally:?}"
    );
    assert!(tally.queue_drops >= tally.red_early + tally.red_forced);
    tally
}

/// Burst loss, duplication and jitter on the audited bottleneck.
fn audit_impairment(dup: f64, p_good_to_bad: f64) -> ImpairmentConfig {
    ImpairmentConfig {
        burst_loss: Some(GilbertElliott {
            p_good_to_bad,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 0.8,
        }),
        jitter: Some(Jitter {
            prob: 0.3,
            max: SimDuration::from_micros(3_000),
        }),
        duplicate_prob: dup,
        ..Default::default()
    }
}

/// The audit on fixed fabrics that between them make a packet die every way
/// it can — each asserted to have happened, so the property below is not
/// vacuous about any of them.
#[test]
fn every_way_a_parked_packet_dies_frees_its_slot() {
    let burst: Vec<(u64, usize, u32, bool)> = (0..400)
        .map(|i| {
            (
                if i % 40 == 0 { 4_000 } else { 30 },
                i as usize,
                1000,
                i % 7 == 3,
            )
        })
        .collect();
    let case = AuditCase {
        seed: 7,
        pairs: 3,
        queue_pkts: 6,
        red: None,
        loss_prob: 0.1,
        imp: audit_impairment(0.2, 0.05),
        split: false,
        sends: burst,
    };
    let t = audited_run(&case);
    assert!(t.queue_drops > 0, "no drop-tail overflow: {t:?}");
    assert!(t.link_lost > 0, "no loss_prob drop: {t:?}");
    assert!(t.impair_drops > 0, "no impairment drop: {t:?}");
    assert!(t.duplicates > 0, "no duplicate: {t:?}");
    assert!(t.unroutable > 0, "no unroutable drop: {t:?}");
    assert!(t.delivered > 0 && t.enveloped == 0, "{t:?}");

    let red = AuditCase {
        red: Some((true, 0.5)),
        queue_pkts: 12,
        ..case.clone()
    };
    let t = audited_run(&red);
    assert!(t.red_early > 0, "no RED early drop: {t:?}");
    // A mark lands on the handle in the queue; it must be on the packet
    // that comes out of the arena, however it comes out.
    assert!(t.red_marks > 0 && t.delivered_ce > 0, "{t:?}");
    assert!(t.delivered_ce <= t.red_marks + t.duplicates, "{t:?}");

    let slow = AuditCase {
        red: Some((false, 0.002)),
        ..red.clone()
    };
    let t = audited_run(&slow);
    assert!(t.red_forced > 0, "no RED forced drop: {t:?}");

    let t = audited_run(&AuditCase { split: true, ..red });
    assert!(t.enveloped > 0 && t.enveloped_ce > 0, "no hand-off: {t:?}");
    assert_eq!(t.delivered, 0, "the receiving half is another fabric's");
}

proptest! {
    /// A parked packet is queued or on a link — at every step, on random
    /// fabrics, whichever way packets die on them (see [`audited_run`]) — and
    /// a drained fabric holds none.
    #[test]
    fn the_arena_holds_exactly_the_packets_inside_the_fabric(
        seed in 0u64..1_000_000,
        pairs in 1usize..4,
        queue_pkts in 1u32..12,
        red in prop_oneof![
            Just(None),
            (any::<bool>(), prop_oneof![Just(0.002), 0.01f64..1.0]).prop_map(Some),
        ],
        loss_prob in prop_oneof![Just(0.0), 0.0f64..0.4],
        dup in 0.0f64..0.4,
        p_good_to_bad in 0.0f64..0.2,
        split in any::<bool>(),
        sends in prop::collection::vec(
            (0u64..800, 0usize..4, 40u32..1500, (0u32..10).prop_map(|k| k == 0)),
            1..160,
        ),
    ) {
        audited_run(&AuditCase {
            seed,
            pairs,
            queue_pkts,
            red,
            loss_prob,
            imp: audit_impairment(dup, p_good_to_bad),
            split,
            sends,
        });
    }
}

/// The port under test in the differential below: drop-tail (with random
/// loss on the link it feeds) or RED (without: RED and link loss on one port
/// share its stream, and starting a serialization rather than ending it is
/// when the loss draw is taken, so the two interleave differently by design).
#[derive(Debug, Clone)]
enum DiffQueue {
    DropTail { cap: u32, loss_prob: f64 },
    Red(RedConfig),
}

/// One input of the port differential.
#[derive(Debug, Clone)]
struct PortCase {
    seed: u64,
    queue: DiffQueue,
    /// Per packet: the gap before its arrival in quarter milliseconds, its
    /// wire size and whether it is ECN-capable. Sizes are 500, 1000 or 1500
    /// bytes, whole quarter milliseconds at [`DIFF_RATE`], so arrivals land
    /// exactly on a departure often.
    arrivals: Vec<(u64, u32, bool)>,
}

/// The tested port's link: 8 Mbit/s, 3 ms.
const DIFF_RATE: u64 = 8_000_000;
const DIFF_PROP: SimDuration = SimDuration::from_millis(3);

/// What one port did with a packet stream, as both sides of the differential
/// report it.
#[derive(Debug, PartialEq)]
struct PortTrace {
    /// Per packet: when its serialization ended and whether it left CE, or
    /// `None` when the queue or the link dropped it.
    fates: Vec<Option<(SimTime, bool)>>,
    /// RED's average after each arrival, as bits.
    avgs: Vec<u64>,
    /// RED's counters at the end: average (bits), early, forced, marks.
    red: Option<(u64, u64, u64, u64)>,
    queue_drops: u64,
    lost: u64,
    /// Serializations that started as another ended, with the packet
    /// waiting: the reference's departures that dequeued one, the fabric's
    /// `PortTxDone` events.
    back_to_back: u64,
}

impl PortTrace {
    fn empty(packets: usize) -> Self {
        PortTrace {
            fates: vec![None; packets],
            avgs: Vec::new(),
            red: None,
            queue_drops: 0,
            lost: 0,
            back_to_back: 0,
        }
    }
}

/// Situations the reference met, so the differential is known not to be
/// vacuous about any of them.
#[derive(Debug, Default)]
struct PortCoverage {
    /// An arrival at the instant a serialization ended with nothing queued.
    idle_ties: u64,
    /// An arrival at the instant a serialization ended with a packet queued.
    busy_ties: u64,
    /// RED dropped an arrival that found the transmitter busy, and the next
    /// arrival found it free.
    busy_drop_then_idle: u64,
    /// RED dropped an arrival that found the transmitter free, and so did
    /// the next arrival.
    idle_drop_then_idle: u64,
}

fn diff_arrivals(case: &PortCase) -> Vec<(SimTime, Packet<EctBody>)> {
    let mut at = SimTime::ZERO;
    let arrivals = case.arrivals.iter().enumerate();
    arrivals
        .map(|(id, &(gap, size, ect))| {
            at += SimDuration::from_micros(250 * gap);
            let pkt = Packet {
                id: id as u64,
                src: NodeId(0),
                dst: NodeId(2),
                flow: FlowId(0),
                created: at,
                body: EctBody {
                    size,
                    ecn: if ect { Ecn::Ect } else { Ecn::NotEct },
                },
            };
            (at, pkt)
        })
        .collect()
}

/// A router port with the semantics it had when every departure was an
/// event: the packet being serialized sits in a transmitter slot, and each
/// serialization ends in a departure that puts it on the link (the loss
/// draw) and dequeues the next packet — on an empty queue too, which is
/// where RED's idle time starts. A departure at the instant of an arrival is
/// taken first.
fn reference_port(case: &PortCase) -> (PortTrace, PortCoverage) {
    enum Queue {
        DropTail(DropTailQueue<EctBody>),
        Red(RedQueue<EctBody>),
    }
    let (mut queue, loss_prob) = match &case.queue {
        DiffQueue::DropTail { cap, loss_prob } => (
            Queue::DropTail(DropTailQueue::new(QueueConfig::packets(*cap))),
            *loss_prob,
        ),
        DiffQueue::Red(cfg) => (Queue::Red(RedQueue::new(*cfg)), 0.0),
    };
    let dequeue = |queue: &mut Queue, now: SimTime| match queue {
        Queue::DropTail(q) => q.dequeue(),
        Queue::Red(q) => q.dequeue(now),
    };
    let serialize = |pkt: Packet<EctBody>, now: SimTime| {
        let end = now + SimDuration::for_bytes_at_rate(pkt.body.size as u64, DIFF_RATE);
        (pkt, end)
    };
    let mut rng = SimRng::seed_from_u64(case.seed);
    let mut trace = PortTrace::empty(case.arrivals.len());
    let mut cov = PortCoverage::default();
    let mut arrivals = diff_arrivals(case).into_iter().peekable();
    let mut transmitting: Option<(Packet<EctBody>, SimTime)> = None;
    // Whether the last arrival was a RED drop, and whether it found the
    // transmitter free.
    let mut last_red_drop: Option<bool> = None;
    loop {
        let next_arrival = arrivals.peek().map(|&(at, _)| at);
        match (transmitting.as_ref().map(|&(_, end)| end), next_arrival) {
            (None, None) => break,
            (Some(end), next) if next.is_none_or(|at| end <= at) => {
                let (pkt, _) = transmitting.take().expect("serializing");
                if loss_prob > 0.0 && rng.chance(loss_prob) {
                    trace.lost += 1;
                } else {
                    trace.fates[pkt.id as usize] = Some((end, pkt.body.ecn == Ecn::Ce));
                }
                let waiting = dequeue(&mut queue, end);
                if next == Some(end) {
                    if waiting.is_some() {
                        cov.busy_ties += 1;
                    } else {
                        cov.idle_ties += 1;
                    }
                }
                if let Some(pkt) = waiting {
                    trace.back_to_back += 1;
                    transmitting = Some(serialize(pkt, end));
                }
            }
            _ => {
                let (now, pkt) = arrivals.next().expect("an arrival is next");
                let free = transmitting.is_none();
                if free {
                    match last_red_drop {
                        Some(false) => cov.busy_drop_then_idle += 1,
                        Some(true) => cov.idle_drop_then_idle += 1,
                        None => {}
                    }
                }
                let accepted = match &mut queue {
                    Queue::DropTail(q) => q.try_enqueue(pkt).is_ok(),
                    Queue::Red(q) => {
                        let ok = q.try_enqueue(now, pkt, &mut rng).is_ok();
                        trace.avgs.push(q.avg().to_bits());
                        last_red_drop = (!ok).then_some(free);
                        ok
                    }
                };
                trace.queue_drops += u64::from(!accepted);
                if free && accepted {
                    transmitting = dequeue(&mut queue, now).map(|pkt| serialize(pkt, now));
                }
            }
        }
    }
    if let Queue::Red(q) = &queue {
        let s = q.red_stats();
        trace.red = Some((s.avg.to_bits(), s.early_drops, s.forced_drops, s.ecn_marks));
    }
    (trace, cov)
}

/// The same stream through a [`Fabric`]'s router port: a host feeds the
/// router over a zero-delay link, and the port under test feeds another
/// host. Each packet is injected only once everything due by its instant has
/// happened, so a `PortTxDone` at that instant is taken before it, as a
/// bottleneck port's is in the world model.
fn fabric_port(case: &PortCase) -> PortTrace {
    let mut topo = Topology::new();
    let src = topo.add_host();
    let router = topo.add_router();
    let dst = topo.add_host();
    let feed = topo.connect(
        src,
        router,
        LinkParams::new(1_000_000_000, SimDuration::ZERO),
    );
    let (cap, loss_prob) = match &case.queue {
        DiffQueue::DropTail { cap, loss_prob } => (*cap, *loss_prob),
        DiffQueue::Red(cfg) => (cfg.capacity.max_packets.expect("packet limit"), 0.0),
    };
    let out = topo.connect(
        router,
        dst,
        LinkParams::new(DIFF_RATE, DIFF_PROP).with_loss(loss_prob),
    );
    let mut fabric: Fabric<EctBody> = Fabric::new(
        topo,
        QueueConfig::packets(cap),
        SimRng::seed_from_u64(!case.seed),
    );
    if let DiffQueue::Red(cfg) = &case.queue {
        fabric.set_red_port(router, out, *cfg);
    }
    fabric.set_port_rng(router, out, SimRng::seed_from_u64(case.seed));

    let mut trace = PortTrace::empty(case.arrivals.len());
    let mut pending = Pending::default();
    let mut handle = |fabric: &mut Fabric<EctBody>, pending: &mut Pending, now, ev| {
        trace.back_to_back += u64::from(matches!(ev, NetEvent::PortTxDone { .. }));
        match fabric.handle(ev, now, |d, e| pending.push(now + d, e)) {
            Some((_, pkt)) => {
                let end = now - DIFF_PROP;
                trace.fates[pkt.id as usize] = Some((end, pkt.body.ecn == Ecn::Ce));
            }
            None if matches!(ev, NetEvent::Arrival { .. }) => {
                if let Some(red) = fabric.red_port_stats(router, out) {
                    trace.avgs.push(red.avg.to_bits());
                }
            }
            None => {}
        }
    };
    for (at, pkt) in diff_arrivals(case) {
        while let Some((now, ev)) = pending.pop_at_or_before(at) {
            handle(&mut fabric, &mut pending, now, ev);
        }
        fabric.start_flight(at, src, feed, pkt, |d, e| pending.push(at + d, e));
    }
    while let Some((now, ev)) = pending.pop_at_or_before(SimTime::MAX) {
        handle(&mut fabric, &mut pending, now, ev);
    }
    assert_eq!(fabric.packets_in_flight(), 0, "drained port leaked");
    trace.queue_drops = fabric.queue_drops;
    // `out` is the one lossy link.
    trace.lost = fabric.link_drops;
    trace.red = fabric
        .red_port_stats(router, out)
        .map(|s| (s.avg.to_bits(), s.early_drops, s.forced_drops, s.ecn_marks));
    trace
}

/// Run `case` through both ports and require the same trace, bit for bit.
fn port_differential(case: &PortCase) -> PortCoverage {
    let (want, cov) = reference_port(case);
    let got = fabric_port(case);
    assert_eq!(got, want, "{case:?}");
    cov
}

/// A RED port for the differential: a low band and a small buffer, so early
/// drops, marks and (with a slow average) forced drops come within a few
/// packets.
fn diff_red(cap: u32, wq: f64, max_p: f64, ecn: bool, gentle: bool) -> DiffQueue {
    let mut red = RedConfig::for_capacity(cap, SimDuration::from_micros(600));
    red.min_th = 0.5;
    red.max_th = 0.5 + cap as f64 / 3.0;
    red.max_p = max_p;
    red.wq = wq;
    red.ecn = ecn;
    red.gentle = gentle;
    DiffQueue::Red(red)
}

fn diff_queue() -> impl Strategy<Value = DiffQueue> {
    let red = |ecn: bool, gentle: bool| {
        (
            2u32..12,
            prop_oneof![Just(0.002), 0.02f64..1.0],
            0.05f64..1.0,
        )
            .prop_map(move |(cap, wq, max_p)| diff_red(cap, wq, max_p, ecn, gentle))
    };
    prop_oneof![
        (1u32..6, prop_oneof![Just(0.0), 0.0f64..0.3])
            .prop_map(|(cap, loss_prob)| DiffQueue::DropTail { cap, loss_prob }),
        red(false, false),
        red(true, false),
        red(false, true),
        red(true, true),
    ]
}

/// Arrival gaps in quarter milliseconds: mostly bursts (a third of a
/// 1000-byte serialization apart or less), sometimes an idle spell.
fn diff_gap() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 0u64..4, 0u64..4, 0u64..8, 10u64..80]
}

/// The differential on fixed streams of every discipline, each situation it
/// exists for asserted to have happened.
#[test]
fn the_port_differential_meets_ties_idle_gaps_and_red_drops() {
    let mut rng = SimRng::seed_from_u64(28);
    let mut stream = || -> Vec<(u64, u32, bool)> {
        (0..600)
            .map(|_| {
                let gap = match rng.range_inclusive(0, 4) {
                    0 => 0,
                    1 | 2 => rng.range_inclusive(0, 3),
                    3 => rng.range_inclusive(0, 7),
                    _ => rng.range_inclusive(10, 79),
                };
                let size = 500 * rng.range_inclusive(1, 3) as u32;
                (gap, size, rng.chance(0.7))
            })
            .collect()
    };
    let mut total = PortCoverage::default();
    let queues = [
        DiffQueue::DropTail {
            cap: 3,
            loss_prob: 0.1,
        },
        diff_red(8, 0.3, 0.5, false, false),
        diff_red(8, 0.002, 0.5, false, false),
        diff_red(8, 0.3, 0.5, true, false),
        diff_red(8, 0.3, 0.2, false, true),
        diff_red(8, 0.3, 0.2, true, true),
    ];
    for (k, queue) in queues.into_iter().enumerate() {
        let case = PortCase {
            seed: k as u64,
            queue,
            arrivals: stream(),
        };
        let cov = port_differential(&case);
        let (trace, _) = reference_port(&case);
        assert!(cov.idle_ties > 0 && cov.busy_ties > 0, "{cov:?}");
        assert!(trace.back_to_back > 0, "{k}: nothing ever waited");
        match &case.queue {
            DiffQueue::DropTail { .. } => {
                assert!(trace.lost > 0 && trace.queue_drops > 0, "{trace:?}")
            }
            DiffQueue::Red(cfg) => {
                let (_, early, forced, marks) = trace.red.expect("a RED port");
                assert!(early + forced > 0, "{k}: RED never dropped");
                assert_eq!(marks > 0, cfg.ecn, "{k}: marks {marks}");
                assert!(cfg.wq > 0.01 || forced > 0, "{k}: no forced drop");
            }
        }
        total.busy_drop_then_idle += cov.busy_drop_then_idle;
        total.idle_drop_then_idle += cov.idle_drop_then_idle;
    }
    assert!(total.busy_drop_then_idle > 0, "{total:?}");
    assert!(total.idle_drop_then_idle > 0, "{total:?}");
}

proptest! {
    /// A router port that puts a packet on the link as it starts serializing
    /// it, with an event only for a packet waiting behind the transmitter,
    /// does what a port with an event at every departure did: the same fate
    /// for every packet (dropped, CE, when its serialization ended), the
    /// same RED average after every arrival and the same RED counters, bit
    /// for bit — across drop-tail with link loss, RED dropping, RED marking
    /// and gentle RED; arrivals exactly at a departure; idle gaps; and RED
    /// drops followed by an arrival at an idle port.
    #[test]
    fn a_port_matches_the_event_per_departure_reference(
        seed in 0u64..1_000_000,
        queue in diff_queue(),
        arrivals in prop::collection::vec(
            (diff_gap(), (1u32..4).prop_map(|k| 500 * k), any::<bool>()),
            1..300,
        ),
    ) {
        port_differential(&PortCase { seed, queue, arrivals });
    }
}

proptest! {
    /// Slot recycling is invisible: a pooled arena and a fresh-slot-per-
    /// packet arena produce byte-identical delivered traces under loss,
    /// reordering jitter and duplication — the full impairment surface that
    /// exercises every arena insert/take path, including the duplicate
    /// double-insert.
    #[test]
    fn arena_pooling_is_invisible_under_impairments(
        seed in 0u64..1_000_000,
        dup in 0.0f64..0.5,
        jitter_prob in 0.0f64..1.0,
        jitter_max_us in 0u64..20_000,
        bursty in any::<bool>(),
        p_gb in 0.001f64..0.3,
        p_bg in 0.05f64..1.0,
        sends in prop::collection::vec((0u64..500, 40u32..1500), 1..120),
    ) {
        let imp = ImpairmentConfig {
            burst_loss: bursty.then_some(GilbertElliott {
                p_good_to_bad: p_gb,
                p_bad_to_good: p_bg,
                loss_good: 0.0,
                loss_bad: 0.8,
            }),
            jitter: Some(Jitter {
                prob: jitter_prob,
                max: SimDuration::from_micros(jitter_max_us),
            }),
            duplicate_prob: dup,
            ..Default::default()
        };
        let pooled = impaired_run(seed, ArenaMode::Pooled, &imp, &sends);
        let fresh = impaired_run(seed, ArenaMode::Fresh, &imp, &sends);
        prop_assert_eq!(pooled, fresh);
    }
}

proptest! {
    /// Conservation: every packet offered is either queued, dequeued or
    /// dropped — never duplicated, never lost.
    #[test]
    fn drop_tail_conserves_packets(
        cap in 1u32..64,
        ops in prop::collection::vec((any::<bool>(), 1u32..3000), 1..400),
    ) {
        let mut q = DropTailQueue::new(QueueConfig::packets(cap));
        let mut offered = 0u64;
        let mut dequeued = 0u64;
        let mut dropped = 0u64;
        for (i, &(is_enq, size)) in ops.iter().enumerate() {
            if is_enq {
                offered += 1;
                if q.try_enqueue(pkt(i as u64, size)).is_err() {
                    dropped += 1;
                }
            } else if q.dequeue().is_some() {
                dequeued += 1;
            }
            prop_assert!(q.len() as u32 <= cap, "capacity exceeded");
        }
        prop_assert_eq!(offered, dequeued + dropped + q.len() as u64);
    }

    /// Byte accounting matches the sum of queued packet sizes.
    #[test]
    fn drop_tail_byte_accounting(
        sizes in prop::collection::vec(1u32..2000, 1..100),
    ) {
        let mut q = DropTailQueue::new(QueueConfig::unbounded());
        let mut expect = 0u64;
        for (i, &s) in sizes.iter().enumerate() {
            q.try_enqueue(pkt(i as u64, s)).unwrap();
            expect += s as u64;
        }
        prop_assert_eq!(q.bytes(), expect);
        // Drain half and re-check.
        for _ in 0..sizes.len() / 2 {
            let p = q.dequeue().unwrap();
            expect -= p.wire_size() as u64;
        }
        prop_assert_eq!(q.bytes(), expect);
    }

    /// RED's admit curve is monotone in the average and saturates exactly at
    /// the force threshold — `max_th` standard, `2·max_th` gentle — for any
    /// legal parameter set.
    #[test]
    fn red_mark_prob_is_monotone_and_saturates(
        cap in 10u32..500,
        min_frac in 1u32..8,   // min_th = cap · frac/10
        band_frac in 1u32..9,  // max_th = min_th + cap · frac/10, clamped
        max_p_centi in 1u32..100,
        gentle in any::<bool>(),
    ) {
        let mut c = RedConfig::for_capacity(cap, SimDuration::from_micros(100));
        c.min_th = cap as f64 * min_frac as f64 / 10.0;
        c.max_th = (c.min_th + cap as f64 * band_frac as f64 / 10.0).min(cap as f64);
        prop_assert!(c.min_th < c.max_th, "generator produced an empty band");
        c.max_p = max_p_centi as f64 / 100.0;
        c.gentle = gentle;
        let force_th = if gentle { 2.0 * c.max_th } else { c.max_th };
        let mut last = -1.0;
        for i in 0..=1000 {
            let avg = 2.0 * cap as f64 * i as f64 / 1000.0;
            let p = c.mark_prob(avg);
            prop_assert!((0.0..=1.0).contains(&p), "p={p} out of range");
            prop_assert!(p >= last, "not monotone at avg {avg}");
            if avg <= c.min_th {
                prop_assert_eq!(p, 0.0, "non-zero below min_th at {}", avg);
            }
            if avg >= force_th {
                prop_assert_eq!(p, 1.0, "below 1 past force threshold at {}", avg);
            }
            last = p;
        }
    }

    /// Packet conservation and counter consistency hold for arbitrary RED
    /// parameters, op sequences and ECN settings: every offered packet is
    /// queued, dequeued or dropped; drops split exactly into early + forced;
    /// CE marks appear only with `ecn` on, and every marked packet is
    /// eventually delivered (marking never drops).
    #[test]
    fn red_conserves_packets_for_any_config(
        cap in 8u32..150,
        min_frac in 1u32..6,
        band_frac in 1u32..8,
        max_p_centi in 1u32..80,
        wq_milli in 1u32..1000,
        gentle in any::<bool>(),
        ecn in any::<bool>(),
        seed in 0u64..1_000_000,
        ops in prop::collection::vec((any::<bool>(), 1u64..400), 1..600),
    ) {
        let mut c = RedConfig::for_capacity(cap, SimDuration::from_micros(100));
        c.min_th = cap as f64 * min_frac as f64 / 10.0;
        c.max_th = (c.min_th + cap as f64 * band_frac as f64 / 10.0).min(cap as f64);
        prop_assert!(c.min_th < c.max_th, "generator produced an empty band");
        c.max_p = max_p_centi as f64 / 100.0;
        c.wq = wq_milli as f64 / 1000.0;
        c.gentle = gentle;
        c.ecn = ecn;
        let mut q: RedQueue<EctBody> = RedQueue::new(c);
        let mut rng = SimRng::seed_from_u64(seed);
        let (mut offered, mut dropped, mut dequeued, mut delivered_ce) = (0u64, 0u64, 0u64, 0u64);
        let mut now = SimTime::ZERO;
        for (i, &(is_enq, gap_us)) in ops.iter().enumerate() {
            now += SimDuration::from_micros(gap_us);
            if is_enq {
                offered += 1;
                let p = Packet {
                    id: i as u64,
                    src: NodeId(0),
                    dst: NodeId(1),
                    flow: FlowId(0),
                    created: now,
                    body: EctBody { size: 1000, ecn: Ecn::Ect },
                };
                if q.try_enqueue(now, p, &mut rng).is_err() {
                    dropped += 1;
                }
            } else if let Some(p) = q.dequeue(now) {
                dequeued += 1;
                if p.body.ecn() == Ecn::Ce {
                    delivered_ce += 1;
                }
            }
            prop_assert!(q.len() as u32 <= cap, "capacity exceeded");
            prop_assert!(q.avg() >= 0.0 && q.avg().is_finite());
        }
        prop_assert_eq!(offered, dequeued + dropped + q.len() as u64);
        prop_assert_eq!(q.early_drops() + q.forced_drops(), dropped);
        if !ecn {
            prop_assert_eq!(q.ecn_marks(), 0, "marks without ecn enabled");
        }
        // Drain: marked packets are all still in flight or delivered.
        while let Some(p) = q.dequeue(now) {
            if p.body.ecn() == Ecn::Ce {
                delivered_ce += 1;
            }
        }
        prop_assert_eq!(q.ecn_marks(), delivered_ce, "a CE mark went missing");
    }

    /// On a random chain of routers, cut in two when `0 < cut < routers`,
    /// with host `i` on router `i % routers`: one packet from every host to
    /// every other, each through a fresh `Fabric`, arrives after exactly the
    /// latency of the chain's one path between them, or — across the cut —
    /// never, dropped as unroutable at its first router.
    #[test]
    fn routes_converge_on_chains(hosts in 2usize..8, routers in 1usize..6, cut in 0usize..6) {
        let mut t = Topology::new();
        let params = LinkParams::new(1_000_000, SimDuration::from_millis(1));
        let rs: Vec<_> = (0..routers).map(|_| t.add_router()).collect();
        for (i, w) in rs.windows(2).enumerate() {
            if i + 1 != cut {
                t.connect(w[0], w[1], params);
            }
        }
        let hs: Vec<(NodeId, LinkId, usize)> = (0..hosts)
            .map(|i| {
                let h = t.add_host();
                let r = i % routers;
                (h, t.connect(h, rs[r], params), r)
            })
            .collect();
        let size = 1000;
        let ser = SimDuration::for_bytes_at_rate(size as u64, params.rate_bps);
        for &(a, link, ra) in &hs {
            for &(b, _, rb) in &hs {
                if a == b {
                    continue;
                }
                // A second is far past the longest path's 46 ms: a packet
                // still in flight by then is in a routing loop.
                let world = send_one(&t, a, link, b, size);
                let apart = cut > 0 && cut < routers && (ra < cut) != (rb < cut);
                if apart {
                    prop_assert!(world.delivered.is_empty(), "{a:?} -> {b:?} crossed the cut");
                    prop_assert_eq!(world.fabric.unroutable_drops, 1);
                } else {
                    // Both access links and the routers' chain between
                    // them, each crossed once; each router on the way
                    // serializes the packet once.
                    let links = 2 + ra.abs_diff(rb) as u64;
                    let latency = params.prop_delay * links + ser * (links - 1);
                    prop_assert_eq!(&world.delivered, &vec![(SimTime::ZERO + latency, b, 7)]);
                }
                prop_assert_eq!(world.fabric.packets_in_flight(), 0);
            }
        }
    }
}
