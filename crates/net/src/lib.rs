//! # rss-net — network substrate
//!
//! Links, queues, routers and topologies for the *Restricted Slow-Start for
//! TCP* reproduction. The paper's evaluation ran over a real 100 Mbit/s,
//! 60 ms-RTT WAN between ANL and LBNL; this crate provides the simulated
//! equivalent: store-and-forward routers with drop-tail (or RED) egress
//! queues connected by rate/delay/loss links, plus the cross-traffic sources
//! used in the friendliness experiments.
//!
//! A [`Topology`] is only the input to a [`Fabric`]: the fabric compiles
//! its static shortest-path routes, one breadth-first search per router,
//! straight into its own per-direction tables and keeps no graph.
//!
//! The crate is generic over the packet body (see [`Body`]) so the TCP layer
//! can send full segment metadata through the fabric without a dependency
//! cycle.
#![warn(missing_docs)]

pub mod arena;
pub mod fabric;
pub mod impair;
pub mod packet;
pub mod queue;
pub mod red;
pub mod topology;
pub mod traffic;

pub use arena::{ArenaMode, PacketArena, PacketHandle, PacketRef};
pub use fabric::{Fabric, FabricBytes, Handoff, NetEvent, PortQueue, UnitMap};
pub use impair::{
    DropCause, Flap, GilbertElliott, ImpairStats, Impairment, ImpairmentConfig, Jitter,
    OutageSchedule, OutageWindow, Verdict,
};
pub use packet::{Body, Ecn, FlowId, LinkId, NodeId, Packet, PacketIdGen, RawBody};
pub use queue::{DropTail, DropTailQueue, EnqueueError, QueueConfig, Queued};
pub use red::{Red, RedConfig, RedQueue, RedStats};
pub use topology::{dumbbell, Dumbbell, LinkParams, LinkSpec, NodeKind, SerializeMemo, Topology};
pub use traffic::{TrafficPattern, TrafficSource};
