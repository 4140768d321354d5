//! # rss-sim — deterministic discrete-event simulation engine
//!
//! The foundation of the *Restricted Slow-Start for TCP* reproduction. The
//! paper evaluated a Linux 2.4.19 kernel patch on a real 100 Mbit/s WAN; this
//! workspace reproduces that testbed as a simulation, and every higher-level
//! crate (network, host, TCP) is driven by this engine.
//!
//! Design goals:
//!
//! * **Determinism** — integer nanosecond clock, `(time, insertion-seq)` event
//!   ordering and a self-contained xoshiro256++ RNG make runs bit-exact
//!   reproducible from a `u64` seed.
//! * **Zero-cost genericity** — the engine is generic over the model's event
//!   type; there is no boxing or dynamic dispatch on the hot path.
//! * **Measurement stays with its reader** — the engine records only its
//!   own counters ([`QueueCounters`], [`ShardStats`]). A model records the
//!   series its report reads, in the report's `(t_s, value)` shape, and the
//!   statistics kernel ([`jain_fairness`], [`convergence_time`]) works on
//!   plain slices of them.
//!
//! ```
//! use rss_sim::{Engine, Model, Scheduler, SimDuration, SimTime};
//!
//! struct Counter { fired: u32 }
//! impl Model for Counter {
//!     type Event = ();
//!     fn handle(&mut self, _e: (), sched: &mut Scheduler<'_, ()>) {
//!         self.fired += 1;
//!         if self.fired < 10 {
//!             sched.after(SimDuration::from_millis(1), ());
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { fired: 0 });
//! engine.schedule_at(SimTime::ZERO, ());
//! engine.run_to_completion();
//! assert_eq!(engine.model().fired, 10);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;

pub use engine::{Engine, Model, RunStats, Scheduler};
pub use queue::{event_tag, EventId, EventQueue, QueueCounters, MAX_UNITS};
pub use rng::{SimRng, SplitMix64};
pub use shard::{partition_units, run_sharded, Domain, Envelope, ShardError, ShardStats};
pub use stats::{convergence_time, jain_fairness};
pub use time::{
    Nanos, OptNanos, SimDuration, SimTime, NANOS_PER_MICRO, NANOS_PER_MILLI, NANOS_PER_SEC,
};
