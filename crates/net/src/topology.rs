//! Topology graph: hosts, routers, links and static routing.
//!
//! The paper's testbed is a single WAN path (ANL ↔ LBNL); the reproduction
//! models it — and the multi-flow extension experiments — as an explicit
//! graph with BFS-computed static routes, the standard dumbbell being the
//! canonical instance.
//!
//! # Leaves are stored inline
//!
//! A dumbbell is almost all leaves: 10 000 host pairs are 20 000 hosts with
//! one link each around two routers. The graph pays for that shape once per
//! leaf, not once per heap block: a node with a single link keeps its
//! `(link, neighbour)` pair inside the adjacency table (`Adjacent::One`; a
//! second link moves it to a `Vec`), and the routing table keeps one 4-byte
//! word per node — a single-link host's only link, or the index of a dense
//! per-destination row held on the side for the nodes that have a choice.
//! [`Topology::neighbors`] returns the same slice, in [`Topology::connect`]
//! order, either way, so BFS tie-breaks and every computed route are those
//! of the plain `Vec<Vec<_>>` graph.

use crate::packet::{LinkId, NodeId};
use rss_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// An end host: runs a transport stack; terminates flows.
    Host,
    /// A router: forwards packets between links.
    Router,
}

/// Physical characteristics of a (bidirectional, symmetric) link.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkParams {
    /// Line rate, bits per second (used for serialization delay).
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub prop_delay: SimDuration,
    /// Independent per-packet loss probability (0 disables).
    pub loss_prob: f64,
}

impl LinkParams {
    /// A loss-free link.
    pub fn new(rate_bps: u64, prop_delay: SimDuration) -> Self {
        LinkParams {
            rate_bps,
            prop_delay,
            loss_prob: 0.0,
        }
    }

    /// Builder: set random loss.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.loss_prob = p;
        self
    }
}

/// A transmitter's memory of the last serialization time it computed. A
/// router port or a NIC sends runs of equal-sized packets at one rate, and
/// the 64-bit division behind [`SimDuration::for_bytes_at_rate`] is the
/// dearest instruction of a hop; the memo answers a repeat from two words.
/// It starts at the one size whose time is the same at every rate: none.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerializeMemo {
    bytes: u32,
    time: SimDuration,
}

impl SerializeMemo {
    /// Serialization time of `bytes` at `rate_bps` — the transmitter's one
    /// rate: the memo is keyed on the size alone.
    #[inline]
    pub fn time(&mut self, bytes: u32, rate_bps: u64) -> SimDuration {
        if bytes != self.bytes {
            let time = SimDuration::for_bytes_at_rate(bytes as u64, rate_bps);
            *self = SerializeMemo { bytes, time };
        }
        self.time
    }
}

/// A link instance between two nodes.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Link identifier.
    pub id: LinkId,
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Physical parameters (symmetric in both directions).
    pub params: LinkParams,
}

impl LinkSpec {
    /// The endpoint that is not `n`. Panics if `n` is not attached.
    pub fn other_end(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("node {n:?} not on link {:?}", self.id)
        }
    }
}

/// One node's incident links, as `(link, neighbour)` pairs in the order
/// they were connected.
#[derive(Debug, Clone, Default)]
enum Adjacent {
    /// No links yet.
    #[default]
    None,
    /// A single link, held inline (module docs).
    One([(LinkId, NodeId); 1]),
    /// Two or more.
    Many(Vec<(LinkId, NodeId)>),
}

impl Adjacent {
    fn as_slice(&self) -> &[(LinkId, NodeId)] {
        match self {
            Adjacent::None => &[],
            Adjacent::One(one) => one,
            Adjacent::Many(many) => many,
        }
    }

    fn push(&mut self, entry: (LinkId, NodeId)) {
        match self {
            Adjacent::None => *self = Adjacent::One([entry]),
            Adjacent::One([first]) => *self = Adjacent::Many(vec![*first, entry]),
            Adjacent::Many(many) => many.push(entry),
        }
    }
}

/// The network graph.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<NodeKind>,
    links: Vec<LinkSpec>,
    adjacency: Vec<Adjacent>,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(kind);
        self.adjacency.push(Adjacent::None);
        id
    }

    /// Add an end host.
    pub fn add_host(&mut self) -> NodeId {
        self.add_node(NodeKind::Host)
    }

    /// Add a router.
    pub fn add_router(&mut self) -> NodeId {
        self.add_node(NodeKind::Router)
    }

    /// Connect two nodes with a symmetric link.
    pub fn connect(&mut self, a: NodeId, b: NodeId, params: LinkParams) -> LinkId {
        assert!(a != b, "self-loops not allowed");
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkSpec { id, a, b, params });
        self.adjacency[a.0 as usize].push((id, b));
        self.adjacency[b.0 as usize].push((id, a));
        id
    }

    /// Node kind lookup.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.0 as usize]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Link lookup.
    pub fn link(&self, id: LinkId) -> &LinkSpec {
        &self.links[id.0 as usize]
    }

    /// All links.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// Links incident to `n` as `(link, neighbor)` pairs, in the order they
    /// were connected.
    pub fn neighbors(&self, n: NodeId) -> &[(LinkId, NodeId)] {
        self.adjacency[n.0 as usize].as_slice()
    }

    /// The unique link between `a` and `b`, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.neighbors(a)
            .iter()
            .find(|&&(_, nb)| nb == b)
            .map(|&(l, _)| l)
    }

    /// Compute shortest-path (hop count) static routes.
    ///
    /// Routing decisions are only made where a node has a choice: routers
    /// (and the rare multi-homed host) get a dense per-destination row built
    /// by one BFS from that node; a single-link host trivially forwards
    /// everything over its only link. This keeps the table `O(routers ×
    /// nodes)` instead of `O(nodes²)` — a 10k-pair dumbbell has 20k hosts
    /// but only two routers, so the dense-everything table would waste
    /// ~1.6 GB on rows nothing ever reads.
    pub fn compute_routes(&self) -> RoutingTable {
        assert!(
            self.links.len() < DENSE_ROW as usize,
            "link ids must stay below the dense-row tag"
        );
        let mut dense = Vec::new();
        let rows = self
            .nodes()
            .map(|node| {
                let adj = self.neighbors(node);
                match self.kind(node) {
                    NodeKind::Host if adj.is_empty() => NO_ROUTE,
                    NodeKind::Host if adj.len() == 1 => adj[0].0 .0,
                    // Routers always get a real row: a single-link router
                    // must still answer `None` for unreachable destinations
                    // or packets would ping-pong forever.
                    _ => push_dense_row(&mut dense, self.first_link_row(node)),
                }
            })
            .collect();
        RoutingTable {
            nodes: self.node_count() as u32,
            rows,
            dense,
        }
    }

    /// BFS from `src`: for every destination, the first link on a
    /// shortest (hop-count) path out of `src`, or `NO_ROUTE`.
    fn first_link_row(&self, src: NodeId) -> Vec<u32> {
        let n = self.node_count();
        let mut row = vec![NO_ROUTE; n];
        let mut visited = vec![false; n];
        visited[src.0 as usize] = true;
        let mut q = VecDeque::new();
        // Seed: each direct neighbor is reached over its own edge; deeper
        // nodes inherit the first link from whichever parent found them
        // first, so adjacency order fixes ties deterministically.
        for &(link, nb) in self.neighbors(src) {
            if !visited[nb.0 as usize] {
                visited[nb.0 as usize] = true;
                row[nb.0 as usize] = link.0;
                q.push_back(nb);
            }
        }
        while let Some(at) = q.pop_front() {
            let first = row[at.0 as usize];
            for &(_, nb) in self.neighbors(at) {
                if !visited[nb.0 as usize] {
                    visited[nb.0 as usize] = true;
                    row[nb.0 as usize] = first;
                    q.push_back(nb);
                }
            }
        }
        row
    }
}

/// "No route": a dense-row entry for an unreachable destination, and the
/// row word of an isolated node.
const NO_ROUTE: u32 = u32::MAX;

/// Row words from here up (short of [`NO_ROUTE`]) are `DENSE_ROW + i`: the
/// node's per-destination row is `dense[i]`. Anything below is a link id.
const DENSE_ROW: u32 = 1 << 31;

/// The `dense` index a row word stands for, if it stands for one.
#[inline]
fn dense_index(word: u32) -> Option<usize> {
    (DENSE_ROW..NO_ROUTE)
        .contains(&word)
        .then(|| (word - DENSE_ROW) as usize)
}

/// Append `row` to `dense` and return the row word that refers to it.
fn push_dense_row(dense: &mut Vec<Vec<u32>>, row: Vec<u32>) -> u32 {
    dense.push(row);
    DENSE_ROW + (dense.len() - 1) as u32
}

/// Static next-hop routing: `(at, dst) → link to forward on`.
///
/// Frozen at [`Topology::compute_routes`] time; the per-hop lookup on the
/// packet path is one indexed load plus (for routers) a second.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    nodes: u32,
    /// One word per node. A single-link host's only link: every destination
    /// goes over it, and reachability is enforced at the first router, which
    /// drops packets for destinations it has no row entry for. Or
    /// [`NO_ROUTE`] for an isolated node, or `DENSE_ROW + i` for a node that
    /// routes by destination.
    rows: Vec<u32>,
    /// Per-destination next-hop links of routers and multi-homed hosts.
    dense: Vec<Vec<u32>>,
}

impl RoutingTable {
    /// The link to use at `at` toward `dst` (None if unreachable).
    #[inline]
    pub fn next_link(&self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        if at.0 >= self.nodes || dst.0 >= self.nodes || at == dst {
            return None;
        }
        let word = self.rows[at.0 as usize];
        let link = match dense_index(word) {
            Some(i) => self.dense[i][dst.0 as usize],
            None => word,
        };
        (link != NO_ROUTE).then_some(LinkId(link))
    }

    /// Override a route (for asymmetric-path experiments). Panics if either
    /// node is outside the topology the table was computed for.
    pub fn set(&mut self, at: NodeId, dst: NodeId, link: LinkId) {
        assert!(at.0 < self.nodes && dst.0 < self.nodes, "node out of range");
        let word = &mut self.rows[at.0 as usize];
        if dense_index(*word).is_none() {
            // Materialize the compact row so the override has somewhere to
            // live: everything over the one link, or nothing anywhere.
            *word = push_dense_row(&mut self.dense, vec![*word; self.nodes as usize]);
        }
        let i = dense_index(*word).expect("just materialized");
        self.dense[i][dst.0 as usize] = link.0;
    }
}

/// Handles to the canonical dumbbell topology.
///
/// ```text
/// s0 ─┐                      ┌─ r0
/// s1 ─┼─ left ══ bottleneck ══ right ─┼─ r1
/// sN ─┘                      └─ rN
/// ```
#[derive(Debug, Clone)]
pub struct Dumbbell {
    /// Sender hosts, one per flow pair.
    pub senders: Vec<NodeId>,
    /// Receiver hosts, one per flow pair.
    pub receivers: Vec<NodeId>,
    /// Router on the sender side.
    pub left_router: NodeId,
    /// Router on the receiver side.
    pub right_router: NodeId,
    /// The shared bottleneck link.
    pub bottleneck: LinkId,
    /// Access links `senders[i] ↔ left_router`.
    pub sender_access: Vec<LinkId>,
    /// Access links `right_router ↔ receivers[i]`.
    pub receiver_access: Vec<LinkId>,
}

/// Build an `n`-pair dumbbell.
pub fn dumbbell(n: usize, access: LinkParams, bottleneck: LinkParams) -> (Topology, Dumbbell) {
    assert!(n > 0);
    let mut topo = Topology::new();
    let left = topo.add_router();
    let right = topo.add_router();
    let bn = topo.connect(left, right, bottleneck);
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    let mut sender_access = Vec::with_capacity(n);
    let mut receiver_access = Vec::with_capacity(n);
    for _ in 0..n {
        let s = topo.add_host();
        let r = topo.add_host();
        sender_access.push(topo.connect(s, left, access));
        receiver_access.push(topo.connect(right, r, access));
        senders.push(s);
        receivers.push(r);
    }
    (
        topo,
        Dumbbell {
            senders,
            receivers,
            left_router: left,
            right_router: right,
            bottleneck: bn,
            sender_access,
            receiver_access,
        },
    )
}

/// Build the paper's single-path testbed: sender ↔ router ↔ receiver with a
/// uniform line rate and a configurable one-way delay split across the two
/// hops. The sender's access link is its 100 Mbit/s NIC; the path adds no
/// extra bottleneck, exactly like the ANL↔LBNL circuit of §4.
pub fn single_path(rate_bps: u64, rtt: SimDuration) -> (Topology, Dumbbell) {
    let one_way = rtt / 2;
    // Split the one-way delay: two short access hops and a long haul.
    let access_delay = SimDuration::from_micros(10);
    let haul_delay = one_way.saturating_sub(access_delay * 2);
    let access = LinkParams::new(rate_bps, access_delay);
    let haul = LinkParams::new(rate_bps, haul_delay);
    dumbbell(1, access, haul)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> LinkParams {
        LinkParams::new(100_000_000, SimDuration::from_millis(1))
    }

    #[test]
    fn build_and_query() {
        let mut t = Topology::new();
        let h1 = t.add_host();
        let r = t.add_router();
        let h2 = t.add_host();
        let l1 = t.connect(h1, r, params());
        let l2 = t.connect(r, h2, params());
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.kind(h1), NodeKind::Host);
        assert_eq!(t.kind(r), NodeKind::Router);
        assert_eq!(t.link(l1).other_end(h1), r);
        assert_eq!(t.link_between(r, h2), Some(l2));
        assert_eq!(t.link_between(h1, h2), None);
        assert_eq!(t.neighbors(r).len(), 2);
    }

    #[test]
    fn neighbors_keep_connect_order_at_every_degree() {
        // Degree 0 and 1 are held inline, 2 and up in a `Vec`; the hub's
        // 10 000 links cross every growth step of one.
        let mut t = Topology::new();
        let hub = t.add_router();
        let lonely = t.add_host();
        let mut expect_hub = Vec::new();
        let mut dual = None;
        for i in 0..10_000 {
            let h = t.add_host();
            assert_eq!(t.neighbors(h), &[]);
            let l = t.connect(h, hub, params());
            expect_hub.push((l, h));
            assert_eq!(t.neighbors(h), &[(l, hub)]);
            assert_eq!(t.link_between(h, hub), Some(l));
            if i == 0 {
                // A second link: the host end listed first this time.
                let l2 = t.connect(hub, h, params());
                expect_hub.push((l2, h));
                assert_eq!(t.neighbors(h), &[(l, hub), (l2, hub)]);
                dual = Some((h, l));
            }
        }
        assert_eq!(t.neighbors(lonely), &[]);
        assert_eq!(t.neighbors(hub), expect_hub.as_slice());
        let copy = t.clone();
        assert_eq!(copy.neighbors(hub), expect_hub.as_slice());
        // Routes: a leaf's only link, the dual-homed host's first, nothing
        // from or to the isolated node.
        let routes = t.compute_routes();
        let (dual, first) = dual.unwrap();
        let (_, leaf) = expect_hub[5_000];
        assert_eq!(routes.next_link(leaf, dual), Some(expect_hub[5_000].0));
        assert_eq!(routes.next_link(dual, leaf), Some(first));
        assert_eq!(routes.next_link(hub, leaf), Some(expect_hub[5_000].0));
        assert_eq!(routes.next_link(lonely, leaf), None);
        assert_eq!(routes.next_link(hub, lonely), None);
    }

    #[test]
    fn route_override_materializes_a_compact_row() {
        let mut t = Topology::new();
        let h1 = t.add_host();
        let r = t.add_router();
        let h2 = t.add_host();
        let lonely = t.add_host();
        let l1 = t.connect(h1, r, params());
        let l2 = t.connect(r, h2, params());
        let mut routes = t.compute_routes();
        // A leaf: the override applies to one destination, the rest keep
        // going over its only link.
        routes.set(h1, h2, l2);
        assert_eq!(routes.next_link(h1, h2), Some(l2));
        assert_eq!(routes.next_link(h1, r), Some(l1));
        // An isolated node: one destination gains a route, no other does.
        routes.set(lonely, h2, l2);
        assert_eq!(routes.next_link(lonely, h2), Some(l2));
        assert_eq!(routes.next_link(lonely, h1), None);
        // Rows of other nodes are untouched.
        assert_eq!(routes.next_link(r, h2), Some(l2));
        assert_eq!(routes.next_link(h2, h1), Some(l2));
    }

    #[test]
    fn bfs_routes_follow_shortest_path() {
        // h1 - r1 - r2 - h2, plus a direct shortcut r1 - h2.
        let mut t = Topology::new();
        let h1 = t.add_host();
        let r1 = t.add_router();
        let r2 = t.add_router();
        let h2 = t.add_host();
        let l_h1r1 = t.connect(h1, r1, params());
        let _l_r1r2 = t.connect(r1, r2, params());
        let _l_r2h2 = t.connect(r2, h2, params());
        let shortcut = t.connect(r1, h2, params());
        let routes = t.compute_routes();
        // r1 should use the shortcut, not go through r2.
        assert_eq!(routes.next_link(r1, h2), Some(shortcut));
        assert_eq!(routes.next_link(h1, h2), Some(l_h1r1));
    }

    #[test]
    fn route_override() {
        let mut t = Topology::new();
        let h1 = t.add_host();
        let r1 = t.add_router();
        let r2 = t.add_router();
        let h2 = t.add_host();
        t.connect(h1, r1, params());
        let long1 = t.connect(r1, r2, params());
        t.connect(r2, h2, params());
        let direct = t.connect(r1, h2, params());
        let mut routes = t.compute_routes();
        assert_eq!(routes.next_link(r1, h2), Some(direct));
        routes.set(r1, h2, long1);
        assert_eq!(routes.next_link(r1, h2), Some(long1));
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let h1 = t.add_host();
        let h2 = t.add_host(); // not connected
        let routes = t.compute_routes();
        assert_eq!(routes.next_link(h1, h2), None);
    }

    #[test]
    fn dumbbell_shape() {
        let (t, d) = dumbbell(3, params(), params());
        assert_eq!(d.senders.len(), 3);
        assert_eq!(d.receivers.len(), 3);
        assert_eq!(t.node_count(), 8); // 2 routers + 6 hosts
        let routes = t.compute_routes();
        // Every sender reaches every receiver through the bottleneck.
        for &s in &d.senders {
            for &r in &d.receivers {
                assert!(routes.next_link(s, r).is_some());
                assert_eq!(routes.next_link(d.left_router, r), Some(d.bottleneck));
            }
        }
    }

    #[test]
    fn single_path_rtt_adds_up() {
        let rtt = SimDuration::from_millis(60);
        let (t, d) = single_path(100_000_000, rtt);
        // Sum of propagation delays along sender -> receiver, both ways.
        let routes = t.compute_routes();
        let mut delay = SimDuration::ZERO;
        let mut at = d.senders[0];
        let dst = d.receivers[0];
        while at != dst {
            let l = routes.next_link(at, dst).unwrap();
            delay += t.link(l).params.prop_delay;
            at = t.link(l).other_end(at);
        }
        assert_eq!(delay * 2, rtt);
    }

    #[test]
    fn large_dumbbell_routes_stay_compact() {
        // 10k pairs: 20,002 nodes. The dense-everything table would be
        // nodes² ≈ 4×10⁸ entries; per-router rows make this build fast
        // and small enough to route many-flow scenarios.
        let (t, d) = dumbbell(10_000, params(), params());
        let routes = t.compute_routes();
        assert_eq!(
            routes.next_link(d.senders[9_999], d.receivers[9_999]),
            Some(d.sender_access[9_999])
        );
        assert_eq!(
            routes.next_link(d.left_router, d.receivers[1_234]),
            Some(d.bottleneck)
        );
        assert_eq!(
            routes.next_link(d.right_router, d.receivers[1_234]),
            Some(d.receiver_access[1_234])
        );
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut t = Topology::new();
        let h = t.add_host();
        t.connect(h, h, params());
    }
}
