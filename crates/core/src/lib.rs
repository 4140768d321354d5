//! # rss-core — Restricted Slow-Start for TCP: the public API
//!
//! A full reproduction of *Restricted Slow-Start for TCP* (Allcock, Hegde,
//! Kettimuthu; IEEE CLUSTER 2005). The paper replaces TCP's blind exponential
//! slow-start with a PID controller that paces window growth off the sending
//! host's interface-queue (IFQ) occupancy, eliminating the Linux
//! **send-stall** pseudo-congestion events that collapse throughput on
//! large bandwidth-delay paths.
//!
//! This crate assembles the substrates (`rss-sim`, `rss-net`, `rss-host`,
//! `rss-tcp`, `rss-cc`, `rss-control`, `rss-web100`, `rss-workload`) into
//! runnable experiments:
//!
//! * [`Scenario`] — a declarative experiment description;
//!   [`Scenario::paper_testbed`] is §4 of the paper (100 Mbit/s, 60 ms RTT,
//!   `txqueuelen` 100, 25 s);
//! * [`ScenarioSpec`] — the JSON scenario-file schema (the `scenarios/`
//!   directory and the `rss` CLI): the same experiments as data, with sweep
//!   grids expanding into deduplicated batches;
//! * [`try_run`] / [`run_many`] — deterministic execution of one scenario,
//!   or of a batch in parallel with duplicate cells sharing a simulation;
//!   every run returns its [`RunError`] instead of panicking;
//! * [`RunReport`] / [`FlowReport`] — Web100 snapshots, send-stall event
//!   logs (Figure 1), cwnd/IFQ/goodput series;
//! * [`plot`] — terminal rendering used by the `rss` CLI and the examples.
//!
//! ```
//! use rss_core::{try_run, Scenario, SimDuration};
//!
//! // A short run of the paper's testbed, standard TCP vs restricted.
//! let quick = |sc: Scenario| try_run(&sc.with_duration(SimDuration::from_millis(800)));
//! let std_report = quick(Scenario::paper_testbed_standard()).expect("runs");
//! let rss_report = quick(Scenario::paper_testbed_restricted()).expect("runs");
//! assert!(std_report.flows[0].vars.data_bytes_out > 0);
//! assert!(rss_report.flows[0].vars.data_bytes_out > 0);
//! ```

#![warn(missing_docs)]

pub mod body;
pub mod fairness;
pub mod plot;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod shard;
pub mod spec;
pub mod world;

pub use body::WireBody;
pub use fairness::{fairness_csv, fairness_reports, FairnessReport, FlowFairness, VariantFairness};
pub use report::{FlowReport, RunReport, ShardCounters};
pub use runner::{run, run_many, try_run, BatchCell, RunError};
pub use scenario::{CrossSpec, FlowSpec, PathSpec, QueueDiscipline, RedParams, Scenario};
pub use spec::{
    results_csv, runs_csv, BurstLossDef, CcDef, CrossDef, ExpandedRun, FairnessDef, FlapDef,
    FlowDef, GridFtpDef, HostDef, ImpairmentDef, ImpairmentsDef, JitterDef, OutageDef, OutputSpec,
    PathDef, QueueDef, RedDef, RunSpec, ScenarioSpec, ShardsDef, SpecError, SweepSpec, TcpDef,
    TuningDef,
};
pub use world::{BuildError, Ev, World};

// Re-export the pieces downstream users need to compose scenarios without
// depending on every substrate crate directly.
pub use rss_cc::{registry as cc_registry, CcError, CcParams, ScalableConfig, SslConfig};
pub use rss_control::{
    find_ultimate_gain, DeadTimePlant, FirstOrderPlant, IntegratorPlant, PidConfig, PidController,
    PidGains, Plant, ZnResult, ZnSearchConfig,
};
pub use rss_host::{HostConfig, NicStats};
pub use rss_net::{
    Flap, GilbertElliott, ImpairStats, Impairment, ImpairmentConfig, Jitter, LinkParams,
    OutageSchedule, OutageWindow, TrafficPattern,
};
pub use rss_sim::{convergence_time, jain_fairness, SimDuration, SimTime};
pub use rss_tcp::{CcAlgorithm, RssConfig, StallResponse, TcpConfig};
pub use rss_web100::Web100Vars;
pub use rss_workload::stripe_bytes;
