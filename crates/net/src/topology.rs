//! Topology graph: hosts, routers and links.
//!
//! The paper's testbed is a single WAN path (ANL ↔ LBNL); the reproduction
//! models it — and the multi-flow extension experiments — as an explicit
//! graph, the standard [`dumbbell`] being the canonical instance.
//!
//! A [`Topology`] is a build-time input. [`crate::Fabric`] compiles it into
//! its hop records and one `destination → egress` row per router, found by
//! a breadth-first search from that router (shortest hop count, ties to the
//! link connected first), and then drops it: no packet reads the graph.
//! Hosts get no row, because a host sends everything on its NIC's link.

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

/// The network graph.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<NodeKind>,
    links: Vec<LinkSpec>,
    /// Per node, its `(link, neighbour)` pairs in [`Topology::connect`]
    /// order.
    adjacency: Vec<Vec<(LinkId, NodeId)>>,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(kind);
        self.adjacency.push(Vec::new());
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
        &self.adjacency[n.0 as usize]
    }

    /// Breadth-first search from `src`: per node, the first link of a
    /// shortest (hop-count) path from `src` to it, or `None` for `src`
    /// itself and for a node no path reaches. Each direct neighbour is
    /// reached over its own link and a deeper node inherits the first link
    /// of whichever node found it first, so [`Topology::connect`] order
    /// breaks ties.
    pub(crate) fn first_links(&self, src: NodeId) -> Vec<Option<LinkId>> {
        let mut first = vec![None; self.node_count()];
        let mut queue = VecDeque::new();
        for &(link, nb) in self.neighbors(src) {
            if first[nb.0 as usize].is_none() {
                first[nb.0 as usize] = Some(link);
                queue.push_back(nb);
            }
        }
        while let Some(at) = queue.pop_front() {
            let via = first[at.0 as usize];
            for &(_, nb) in self.neighbors(at) {
                if nb != src && first[nb.0 as usize].is_none() {
                    first[nb.0 as usize] = via;
                    queue.push_back(nb);
                }
            }
        }
        first
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
        assert_eq!(t.neighbors(r), &[(l1, h1), (l2, h2)]);
        assert_eq!(t.neighbors(h2), &[(l2, r)]);
    }

    #[test]
    fn neighbors_keep_connect_order_at_every_degree() {
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
        // First links: a leaf's only link, the dual-homed host's first,
        // nothing from or to the isolated node.
        let (dual, first) = dual.unwrap();
        let (leaf_link, leaf) = expect_hub[5_000];
        assert_eq!(t.first_links(leaf)[dual.0 as usize], Some(leaf_link));
        assert_eq!(t.first_links(dual)[leaf.0 as usize], Some(first));
        let from_hub = t.first_links(hub);
        assert_eq!(from_hub[leaf.0 as usize], Some(leaf_link));
        assert_eq!(from_hub[dual.0 as usize], Some(first));
        assert_eq!(from_hub[lonely.0 as usize], None);
        assert!(t.first_links(lonely).iter().all(Option::is_none));
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
        let l_r1r2 = t.connect(r1, r2, params());
        let _l_r2h2 = t.connect(r2, h2, params());
        let shortcut = t.connect(r1, h2, params());
        // r1 should use the shortcut, not go through r2.
        let from_r1 = t.first_links(r1);
        assert_eq!(from_r1[h2.0 as usize], Some(shortcut));
        assert_eq!(from_r1[r2.0 as usize], Some(l_r1r2));
        assert_eq!(from_r1[r1.0 as usize], None);
        assert_eq!(t.first_links(h1)[h2.0 as usize], Some(l_h1r1));
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let h1 = t.add_host();
        let _h2 = t.add_host(); // not connected
        assert_eq!(t.first_links(h1), vec![None, None]);
    }

    #[test]
    fn dumbbell_shape() {
        let (t, d) = dumbbell(3, params(), params());
        assert_eq!(d.senders.len(), 3);
        assert_eq!(d.receivers.len(), 3);
        assert_eq!(t.node_count(), 8); // 2 routers + 6 hosts
                                       // Every sender reaches every receiver through the bottleneck.
        let from_left = t.first_links(d.left_router);
        for (i, &s) in d.senders.iter().enumerate() {
            let from_sender = t.first_links(s);
            for &r in &d.receivers {
                assert_eq!(from_sender[r.0 as usize], Some(d.sender_access[i]));
                assert_eq!(from_left[r.0 as usize], Some(d.bottleneck));
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut t = Topology::new();
        let h = t.add_host();
        t.connect(h, h, params());
    }
}
