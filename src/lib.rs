//! # restricted_slow_start — *Restricted Slow-Start for TCP*, reproduced
//!
//! A workspace-spanning reproduction of **Allcock, Hegde, Kettimuthu —
//! "Restricted Slow-Start for TCP" (IEEE CLUSTER 2005)**. The paper's
//! observation: on Linux, TCP congestion events are not only caused by the
//! network. Saturating the *sending host's* interface queue (`txqueuelen`)
//! raises **send-stall** pseudo-congestion events that halve the window
//! exactly like real loss, collapsing throughput on large
//! bandwidth-delay-product paths. Its fix: replace blind exponential
//! slow-start with a PID controller that paces window growth to hold the
//! interface queue at 90 % of capacity — the queue never overflows, so the
//! pathology never triggers.
//!
//! This crate is the facade over the layered workspace (see the README for
//! the crate diagram): it re-exports the whole public API of [`rss_core`],
//! which assembles the substrate crates — `rss-sim` (deterministic
//! discrete-event engine), `rss-net` (links/queues/topologies), `rss-host`
//! (the IFQ transmit path), `rss-tcp` (sans-IO transport), `rss-cc`
//! (pluggable congestion control with a variant registry), `rss-control`
//! (PID + Ziegler–Nichols), `rss-web100` (instrumentation) and
//! `rss-workload` (GridFTP-style striping).
//!
//! ## Quick start
//!
//! ```
//! use restricted_slow_start::{try_run, Scenario, SimDuration};
//!
//! // The paper's §4 testbed (100 Mbit/s, 60 ms RTT, txqueuelen 100),
//! // shortened for a doctest: standard TCP vs restricted slow-start.
//! let quick = |sc: Scenario| try_run(&sc.with_duration(SimDuration::from_millis(800)));
//! let std_report = quick(Scenario::paper_testbed_standard()).expect("runs");
//! let rss_report = quick(Scenario::paper_testbed_restricted()).expect("runs");
//!
//! // Both move data; runs are deterministic and bit-exact per seed.
//! assert!(std_report.flows[0].vars.data_bytes_out > 0);
//! assert!(rss_report.flows[0].vars.data_bytes_out > 0);
//! ```
//!
//! Entry points: [`Scenario`] (declarative experiment description with
//! `paper_testbed*` constructors), [`try_run`] / [`run_many`] (deterministic,
//! optionally parallel, each failed run a [`RunError`]), [`RunReport`] / [`FlowReport`]
//! (Web100 snapshots, stall logs, cwnd/IFQ/goodput series) and
//! [`plot`] for terminal rendering. Reproduce the paper's
//! figures with `cargo run --release --example figure1_send_stalls` or
//! `cargo run --release --bin rss -- run scenarios/figure1.json` (README
//! "Reproducing the paper" maps every artifact to its scenario file).

#![warn(missing_docs)]

pub use rss_core::*;
