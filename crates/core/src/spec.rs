//! Declarative scenario files: the JSON schema (`ScenarioSpec`), its
//! expansion into concrete [`Scenario`]s, and the deterministic CSVs the
//! `rss` CLI emits: [`results_csv`] per flow and [`runs_csv`] per run.
//!
//! Every testbed the examples and the paper-claims tests run is expressible as
//! data: topology (rates, delays, queue limits), workload (flows, sizes,
//! start times, GridFTP-style striping), TCP knobs (slow-start variant as an
//! *open* enum — new variants such as SSthreshless Start slot in beside
//! `Standard`/`Restricted`/`Limited` — initial ssthresh, stall response),
//! run length, seed, and output artifacts. A `sweep` block expands one spec
//! into a grid of runs (RTT × rate × queue depth × seed × stream count)
//! which [`crate::run_many`] executes with duplicate cells deduped.
//!
//! Defaults follow [`Scenario::paper_testbed`]: omitting a knob yields the
//! paper's §4 testbed value, so `scenarios/quickstart.json` reproduces the
//! hand-coded constructors bit-for-bit (a workspace test asserts it).
//!
//! Unknown fields, unknown variants and type mismatches are hard errors
//! carrying the JSON path and source line (`at $.runs[0].tcp.mss (line 14):
//! …`) — a typo in a scenario file fails loudly instead of silently running
//! the default. A number is converted where the file writes it, and fails
//! there only if the scenario's type cannot hold it (`path.rate_mbps`,
//! `tcp.min_rto_ms`); each run is then judged once by [`Scenario::check`],
//! whose errors name the field it sees (`tcp.min_rto`), and each `cc`
//! definition once by the registry. Every error names the run (``run `a`:
//! flows[1].cc: ai_cnt must be at least 1, got 0``).
//!
//! Every field's rustdoc states its JSON name (always the Rust field name —
//! the vendored serde derives use externally-tagged field names verbatim),
//! its default, and its units, so the docs double as the file-format
//! reference.
//!
//! # Worked example
//!
//! A two-variant fairness comparison on a 50 Mbit/s path, swept over two
//! RTTs — everything a scenario file can say, in miniature:
//!
//! ```
//! use rss_core::{CcAlgorithm, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_json(
//!     r#"{
//!       "name": "worked_example",
//!       "comment": "standard vs scalable sharing one bottleneck",
//!       "runs": [{
//!         "label": "pair",
//!         "path": { "rate_mbps": 50, "rtt_ms": 40 },
//!         "flows": [
//!           { "cc": "Standard" },
//!           { "cc": { "Scalable": { "ai_cnt": 100 } }, "start_s": 2.0 }
//!         ],
//!         "duration_s": 10
//!       }],
//!       "sweep": { "rtt_ms": [40, 80] },
//!       "fairness": { "window_s": 1.0, "eps": 0.05 }
//!     }"#,
//! )
//! .expect("parses");
//!
//! // One run × two sweep cells; knobs land where the docs say they do.
//! assert_eq!(spec.cells(), 2);
//! let runs = spec.expand().expect("validates");
//! assert_eq!(runs.len(), 2);
//! assert_eq!(runs[0].scenario.path.rate_bps, 50_000_000);
//! assert_eq!(runs[1].scenario.path.rtt.as_nanos(), 80_000_000);
//! assert!(matches!(runs[0].scenario.flows[0].algo, CcAlgorithm::Reno));
//! assert_eq!(runs[0].scenario.flows[1].start.as_secs_f64(), 2.0);
//!
//! // The fairness block names its artifact beside the two summary CSVs.
//! assert_eq!(spec.csv_name(), "scenario_worked_example.csv");
//! assert_eq!(spec.runs_csv_name(), "runs_worked_example.csv");
//! assert_eq!(
//!     spec.fairness_csv_name().as_deref(),
//!     Some("fairness_worked_example.csv")
//! );
//! ```

use crate::report::RunReport;
use crate::scenario::{
    max_flows, not_whole_ns, too_long, too_many_flows, CrossSpec, FlowSpec, NonNegative, Open,
    PathSpec, Positive, QueueDiscipline, RedParams, Scenario,
};
use rss_cc::{CcParams, ScalableConfig, SslConfig};
use rss_host::HostConfig;
use rss_net::{Flap, GilbertElliott, ImpairmentConfig, Jitter, OutageWindow, TrafficPattern};
use rss_sim::{SimDuration, SimTime};
use rss_tcp::{CcAlgorithm, RssConfig, StallResponse, TcpConfig};
use rss_workload::stripe_bytes;
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write as _};

/// A scenario file: named, documented, one or more runs, an optional sweep
/// grid, and the artifacts to emit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name, used for default artifact names (JSON `name`,
    /// required, `[a-z0-9_-]+`).
    pub name: String,
    /// Free-form description — what paper figure/claim this reproduces
    /// (JSON `comment`, default none).
    pub comment: Option<String>,
    /// The runs executed per sweep cell, in order (JSON `runs`, required,
    /// at least one).
    pub runs: Vec<RunSpec>,
    /// Parameter grid multiplying the runs (JSON `sweep`, default a single
    /// cell).
    pub sweep: Option<SweepSpec>,
    /// Opt-in fairness & convergence measurement over every run (JSON
    /// `fairness`, default off).
    pub fairness: Option<FairnessDef>,
    /// Spread the units of every expanded scenario's world (one per host
    /// pair, two for the bottleneck) over parallel domains (JSON `shards`: a
    /// positive integer domain count or `"auto"` for one per available
    /// core; default: one domain, one thread, no window loop). Results are
    /// identical with and without it and for every count, so `"auto"` stays
    /// reproducible.
    pub shards: Option<ShardsDef>,
    /// Artifacts beside the two CSVs, under the output directory (JSON
    /// `output`, default none).
    pub output: Option<OutputSpec>,
}

/// The `shards` knob: an explicit shard count or `"auto"`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardsDef {
    /// Explicit shard count (positive; counts above the unit count clamp).
    Count(u32),
    /// One shard per core available at expansion time.
    Auto,
}

impl ShardsDef {
    /// Resolve to a concrete shard count. Safe to call on any machine:
    /// results do not depend on the resolved count.
    pub fn resolve(self) -> u32 {
        match self {
            ShardsDef::Count(n) => n,
            ShardsDef::Auto => std::thread::available_parallelism()
                .map(|n| n.get() as u32)
                .unwrap_or(1),
        }
    }
}

impl Serialize for ShardsDef {
    fn serialize_json(&self, out: &mut String) {
        match self {
            ShardsDef::Count(n) => n.serialize_json(out),
            ShardsDef::Auto => out.push_str("\"auto\""),
        }
    }
}

impl<'de> Deserialize<'de> for ShardsDef {
    fn deserialize_json(v: &serde::de::Value, path: &mut serde::de::Path) -> ShardsResult {
        const WANT: &str = "expected positive integer or \"auto\"";
        match String::deserialize_json(v, path) {
            Ok(s) if s == "auto" => Ok(ShardsDef::Auto),
            Ok(_) => Err(serde::de::Error::new(v.line(), path, WANT)),
            Err(_) => match u64::deserialize_json(v, path) {
                Ok(n) if (1..=u32::MAX as u64).contains(&n) => Ok(ShardsDef::Count(n as u32)),
                _ => Err(serde::de::Error::new(v.line(), path, WANT)),
            },
        }
    }
}

type ShardsResult = Result<ShardsDef, serde::de::Error>;

/// One run description. Every field is optional; omitted knobs default to
/// the paper's §4 testbed (100 Mbit/s, 60 ms RTT, `txqueuelen` 100, 25 s,
/// seed 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// Run label — the CSV `run` column (JSON `label`, required, unique
    /// within the file).
    pub label: String,
    /// Network path overrides (JSON `path`, default the §4 path).
    pub path: Option<PathDef>,
    /// Sending/receiving host overrides (JSON `host`, default the §4
    /// host).
    pub host: Option<HostDef>,
    /// Transport overrides (JSON `tcp`, default the Linux 2.4.19 profile).
    pub tcp: Option<TcpDef>,
    /// Explicit flow list (JSON `flows`; exactly one of `flows`/`gridftp`
    /// is required).
    pub flows: Option<Vec<FlowDef>>,
    /// GridFTP-style striping: one transfer over N parallel flows (JSON
    /// `gridftp`; mutually exclusive with `flows`).
    pub gridftp: Option<GridFtpDef>,
    /// Open-loop cross-traffic sources sharing the bottleneck (JSON
    /// `cross`, default none).
    pub cross: Option<Vec<CrossDef>>,
    /// Simulated run length, seconds (JSON `duration_s`, default 25).
    pub duration_s: Option<f64>,
    /// RNG seed, dimensionless (JSON `seed`, default 1).
    pub seed: Option<u64>,
    /// Put every flow on one sending host (JSON `shared_sender_host`,
    /// default false — each flow gets its own host pair).
    pub shared_sender_host: Option<bool>,
    /// Stop as soon as every bounded flow completes (JSON
    /// `stop_when_complete`, default false).
    pub stop_when_complete: Option<bool>,
    /// Bottleneck queue discipline (JSON `queue`: `"DropTail"`,
    /// `{"Red": {...}}` or `{"RedEcn": {...}}`; default `"DropTail"`).
    pub queue: Option<QueueDef>,
    /// Sampling interval of the sender-IFQ and bottleneck queue series,
    /// milliseconds (JSON `sample_interval_ms`, default 10).
    pub sample_interval_ms: Option<f64>,
    /// Thinning stride for the per-connection cwnd series, samples (JSON
    /// `web100_stride`, default 1 = keep all).
    pub web100_stride: Option<u32>,
    /// Size the receive window to the path (4×BDP, floor 2 MB), applied
    /// after any sweep overrides — mirrors [`Scenario::with_auto_rwnd`]
    /// (JSON `auto_rwnd`, default false).
    pub auto_rwnd: Option<bool>,
    /// Watchdog: hard wall on simulated time, seconds (JSON
    /// `max_sim_time_s`, default none). A run that has not finished by this
    /// point — typically a `stop_when_complete` run whose transfer can never
    /// complete under a permanent outage — ends here with an explicit
    /// `truncated` reason in its report instead of running to `duration_s`.
    /// Honored with and without `shards`, identically: it clamps the
    /// horizon.
    pub max_sim_time_s: Option<f64>,
    /// Watchdog: hard ceiling on events processed (JSON `max_events`,
    /// default none). Rejected together with `shards` — the window loop
    /// takes no budget, and a cut in mid-window would not be shard-count
    /// invariant; use `max_sim_time_s` there.
    pub max_events: Option<u64>,
}

/// Network-path knobs (defaults: the paper's 100 Mbit/s, 60 ms path).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PathDef {
    /// Bottleneck/backbone line rate, Mbit/s (JSON `rate_mbps`, default
    /// 100).
    pub rate_mbps: Option<f64>,
    /// Round-trip propagation time, milliseconds (JSON `rtt_ms`, default
    /// 60).
    pub rtt_ms: Option<f64>,
    /// Router egress queue capacity, packets (JSON `router_queue_pkts`,
    /// default 200).
    pub router_queue_pkts: Option<u32>,
    /// Independent per-packet loss probability, in [0, 1] (JSON
    /// `loss_prob`, default 0).
    pub loss_prob: Option<f64>,
    /// Access-link rate, Mbit/s (JSON `access_rate_mbps`, default: same as
    /// `rate_mbps`, which makes the sender's NIC the bottleneck — the
    /// paper's regime).
    pub access_rate_mbps: Option<f64>,
    /// One-way access-link propagation delay, microseconds (JSON
    /// `access_delay_us`, default 10). Bounds the sharded executor's
    /// lookahead window; the long-haul delay absorbs the rest of the RTT.
    pub access_delay_us: Option<f64>,
    /// Deterministic fault injection on the path's links (JSON
    /// `impairments`, default none).
    pub impairments: Option<ImpairmentsDef>,
}

/// Where fault injection applies: the long-haul bottleneck, the access
/// links, or both. Each link direction draws from its own seeded stream, so
/// results are reproducible and shard-count invariant.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ImpairmentsDef {
    /// Impairments on the bottleneck/haul link, both directions (JSON
    /// `haul`, default none).
    pub haul: Option<ImpairmentDef>,
    /// Impairments on every access link, all four legs per host pair (JSON
    /// `access`, default none). The legs of one pair share a single outage
    /// realization — a flap downs the pair's access as a whole.
    pub access: Option<ImpairmentDef>,
}

/// One link family's fault-injection knobs. Everything is optional; an
/// empty block impairs nothing.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ImpairmentDef {
    /// Gilbert–Elliott bursty loss (JSON `burst_loss`, default none).
    pub burst_loss: Option<BurstLossDef>,
    /// Scheduled outage windows (JSON `outages`, default none).
    pub outages: Option<Vec<OutageDef>>,
    /// Markov-modulated link flapping (JSON `flap`, default none).
    pub flap: Option<FlapDef>,
    /// Per-packet delay jitter (JSON `jitter`, default none). Jitter only
    /// ever *adds* delay, so reordering emerges without breaking the
    /// sharded executor's lookahead bound.
    pub jitter: Option<JitterDef>,
    /// Per-packet duplication probability, in [0, 1] (JSON
    /// `duplicate_prob`, default 0).
    pub duplicate_prob: Option<f64>,
}

/// Gilbert–Elliott two-state burst loss.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstLossDef {
    /// Per-packet probability of entering the Bad state, in [0, 1] (JSON
    /// `p_good_to_bad`, required).
    pub p_good_to_bad: f64,
    /// Per-packet probability of leaving the Bad state, in [0, 1] (JSON
    /// `p_bad_to_good`, required); mean burst length is its reciprocal.
    pub p_bad_to_good: f64,
    /// Loss probability in the Good state, in [0, 1] (JSON `loss_good`,
    /// default 0).
    pub loss_good: Option<f64>,
    /// Loss probability in the Bad state, in [0, 1] (JSON `loss_bad`,
    /// required).
    pub loss_bad: f64,
}

/// One scheduled outage window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutageDef {
    /// When the link goes down, seconds (JSON `start_s`, required).
    pub start_s: f64,
    /// How long it stays down, seconds (JSON `duration_s`, required).
    pub duration_s: f64,
}

/// Markov-modulated flapping: exponential up/down sojourns, link starts up.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlapDef {
    /// Mean up time between outages, seconds (JSON `mean_up_s`, required).
    pub mean_up_s: f64,
    /// Mean outage length, seconds (JSON `mean_down_s`, required).
    pub mean_down_s: f64,
}

/// Per-packet extra delay: with probability `prob`, uniform in [0, max].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JitterDef {
    /// Probability a packet is jittered at all, in [0, 1] (JSON `prob`,
    /// required).
    pub prob: f64,
    /// Maximum extra delay, milliseconds (JSON `max_ms`, required).
    pub max_ms: f64,
}

/// Host transmit-path knobs (defaults: 100 Mbit/s NIC, `txqueuelen` 100,
/// MTU 1500).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HostDef {
    /// NIC line rate, Mbit/s (JSON `nic_rate_mbps`, default: follow the
    /// path rate).
    pub nic_rate_mbps: Option<f64>,
    /// Interface-queue capacity, packets (JSON `txqueuelen`, default 100).
    pub txqueuelen: Option<u32>,
    /// MTU, bytes (JSON `mtu`, default 1500).
    pub mtu: Option<u32>,
}

/// Transport knobs (defaults: [`TcpConfig::default`], the Linux 2.4.19
/// profile of the paper's hosts).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TcpDef {
    /// Maximum segment size, payload bytes (JSON `mss`, default 1448).
    pub mss: Option<u32>,
    /// Per-segment wire header overhead, bytes (JSON `header_bytes`,
    /// default 52).
    pub header_bytes: Option<u32>,
    /// Initial congestion window, segments (JSON `initial_cwnd_mss`,
    /// default 2).
    pub initial_cwnd_mss: Option<u32>,
    /// Initial slow-start threshold, bytes (JSON `initial_ssthresh`,
    /// default: effectively infinite).
    pub initial_ssthresh: Option<u64>,
    /// Receiver's advertised window, bytes (JSON `rwnd_bytes`, default
    /// 2 MiB).
    pub rwnd_bytes: Option<u64>,
    /// Lower RTO bound, milliseconds (JSON `min_rto_ms`, default 200, at
    /// least 1).
    pub min_rto_ms: Option<f64>,
    /// Upper RTO bound, milliseconds (JSON `max_rto_ms`, default 60 000, at
    /// least `min_rto_ms`).
    pub max_rto_ms: Option<f64>,
    /// Congestion response to send-stalls (JSON `stall_response`, default
    /// `"Cwr"`).
    pub stall_response: Option<StallResponse>,
    /// Post-stall re-probe delay, milliseconds (JSON `stall_retry_ms`,
    /// default 1, positive).
    pub stall_retry_ms: Option<f64>,
    /// Duplicate ACKs triggering fast retransmit, count (JSON
    /// `dupack_threshold`, default 3, at least 1).
    pub dupack_threshold: Option<u32>,
}

/// Bottleneck queue discipline (JSON `queue`). Threshold and weight knobs
/// are optional; omitted ones default from the path's `router_queue_pkts`
/// ([`RedParams::for_capacity`]).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum QueueDef {
    /// Plain drop-tail FIFO (the default).
    #[default]
    DropTail,
    /// RED early dropping.
    Red(RedDef),
    /// RED with ECN: CE-mark ECT packets in the probabilistic band instead
    /// of dropping them (same knobs as `Red`). The flows are ECN-capable
    /// exactly under this queue: their data segments carry ECT.
    RedEcn(RedDef),
}

/// The knobs of a `Red` or `RedEcn` queue (JSON `{"Red": {...}}`).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RedDef {
    /// Average-queue threshold where early drops begin, packets (JSON
    /// `min_th`, default `0.25 × router_queue_pkts`).
    pub min_th: Option<f64>,
    /// Average-queue threshold where the drop probability reaches `max_p`,
    /// packets (JSON `max_th`, default `0.75 × router_queue_pkts`; must
    /// exceed `min_th`).
    pub max_th: Option<f64>,
    /// EWMA weight of the average-queue filter, dimensionless in (0, 1]
    /// (JSON `w_q`, default 0.002).
    pub w_q: Option<f64>,
    /// Drop/mark probability at `max_th`, dimensionless in (0, 1] (JSON
    /// `max_p`, default 0.1).
    pub max_p: Option<f64>,
    /// Gentle mode: ramp `max_p`→1 over `(max_th, 2·max_th)` instead of
    /// force-dropping at `max_th` (JSON `gentle`, default false).
    pub gentle: Option<bool>,
}

/// One TCP flow.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FlowDef {
    /// Congestion-control variant (JSON `cc`, default `"Standard"`; the
    /// menu is the `rss_cc` registry — see `docs/VARIANTS.md`).
    pub cc: Option<CcDef>,
    /// Bytes the flow transfers, all written at its start (JSON `bytes`,
    /// default: unbounded, until the run ends).
    pub bytes: Option<u64>,
    /// Flow start time, seconds (JSON `start_s`, default 0 — stagger
    /// starts to measure convergence with the `fairness` block).
    pub start_s: Option<f64>,
    /// Replication factor: this entry expands into `count` identical flows
    /// (JSON `count`, default 1, positive). The many-flow scenarios use it
    /// to describe 10⁴–10⁵ flows in one line.
    pub count: Option<u32>,
}

/// The slow-start variant under test — an **open** enum mirroring the
/// [`CcAlgorithm`] arms listed in [`rss_cc::registry`]: a new scheme adds
/// one arm here (resolved into its `CcAlgorithm` arm, which expansion
/// validates), and scenario files using it stay data.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum CcDef {
    /// Standard TCP (Reno/NewReno, the paper's baseline).
    #[default]
    Standard,
    /// The paper's Restricted Slow-Start (PID-paced window growth).
    Restricted {
        /// Gain selection (default `"ForPath"`).
        tuning: Option<TuningDef>,
        /// IFQ set point as a fraction of `txqueuelen` (default 0.9).
        setpoint_frac: Option<f64>,
    },
    /// RFC 3742 Limited Slow-Start.
    Limited {
        /// `max_ssthresh` in bytes; omitted = the RFC's 100 segments.
        max_ssthresh: Option<u64>,
    },
    /// SSthreshless Start (arXiv:1401.7146): delay-probed slow-start with no
    /// ssthresh estimate — doubles until the measured path backlog crosses
    /// `gamma_segments`, then steps into congestion avoidance at the
    /// measured BDP.
    Ssthreshless {
        /// Probe-exit backlog threshold, segments (default 8).
        gamma_segments: Option<f64>,
    },
    /// HighSpeed TCP (RFC 3649): the a(w)/b(w) response-table bend for
    /// large windows. No parameters — the RFC's constants.
    HighSpeed,
    /// Scalable TCP (Kelly 2003): MIMD growth, fixed 1/8 backoff.
    Scalable {
        /// Increase denominator: the window grows by `newly_acked / ai_cnt`
        /// bytes per ACK (default 100, i.e. Kelly's a = 0.01).
        ai_cnt: Option<u32>,
    },
    /// BBR-style rate probing (Cardwell et al. 2016): paces at gain × the
    /// windowed-max delivery rate through startup/drain/probe-bw, window
    /// capped at 2 × BDP. No parameters — the reference gain constants.
    Bbr,
    /// Relentless congestion control (Mathis, arXiv:1102.3270): decrease
    /// the window by exactly the segments lost instead of halving. No
    /// parameters.
    Relentless,
    /// Hybrid Start (Ha & Rhee 2011): standard slow-start with ACK-train and
    /// delay-increase exits ahead of loss. No parameters — the reference
    /// thresholds.
    Hybrid,
}

/// How the Restricted Slow-Start PID gains are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TuningDef {
    /// §3's Ziegler–Nichols rule applied to the (possibly swept) path rate
    /// and the host MTU — [`RssConfig::tuned_for`].
    ForPath,
    /// Like `ForPath` but tuned to this flow's share of a sending host split
    /// `n_flows` ways (GridFTP parallel streams).
    PerStream,
    /// Explicit PID gains (standard form).
    Gains {
        /// Proportional gain `Kp`.
        kp: f64,
        /// Integral time constant `Ti`, seconds.
        ti: f64,
        /// Derivative time constant `Td`, seconds.
        td: f64,
    },
}

/// GridFTP-style striping: one logical transfer over N parallel flows from
/// one sending host.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridFtpDef {
    /// Total transfer size, bytes, split evenly across streams (JSON
    /// `total_bytes`, required, positive).
    pub total_bytes: u64,
    /// Number of parallel streams (JSON `streams`, required, positive; the
    /// `streams` sweep axis overrides it).
    pub streams: u32,
    /// Congestion-control variant every stream runs (JSON `cc`, required).
    pub cc: CcDef,
}

/// One open-loop cross-traffic source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossDef {
    /// Arrival process (JSON `pattern`, required — `Cbr` or `Poisson` with
    /// `rate_bps`/`pkt_size`).
    pub pattern: TrafficPattern,
    /// Start time, seconds (JSON `start_s`, default 0).
    pub start_s: Option<f64>,
    /// Stop time, seconds (JSON `stop_s`, default: until the run ends).
    pub stop_s: Option<f64>,
}

/// A parameter grid. Each present axis multiplies the cell count; axes nest
/// in field order (`rate_mbps` outermost, `streams` innermost) with the
/// file's runs executed per cell.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Line rates, Mbit/s (JSON `rate_mbps`; sets the path rate, the NIC
    /// follows unless the host pins `nic_rate_mbps`).
    pub rate_mbps: Option<Vec<f64>>,
    /// Round-trip times, milliseconds (JSON `rtt_ms`).
    pub rtt_ms: Option<Vec<f64>>,
    /// Interface-queue depths, packets (JSON `txqueuelen`).
    pub txqueuelen: Option<Vec<u32>>,
    /// RNG seeds, dimensionless (JSON `seed`).
    pub seed: Option<Vec<u64>>,
    /// GridFTP stream counts (JSON `streams`; requires `gridftp` on every
    /// run). Each omitted axis keeps the run's own value; present axes
    /// multiply the cell count.
    pub streams: Option<Vec<u32>>,
}

/// Fairness & convergence measurement (JSON `fairness`, optional): when
/// present, `rss run` computes a [`crate::fairness::FairnessReport`] per
/// run — windowed Jain index over the per-flow goodput series,
/// convergence-to-ε time, per-variant goodput/stall aggregates — prints the
/// metrics, and writes the [`crate::fairness::fairness_csv`] artifact.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FairnessDef {
    /// Goodput-averaging window, seconds (JSON `window_s`, default 1).
    pub window_s: Option<f64>,
    /// Convergence tolerance: converged once the windowed Jain index stays
    /// at or above `1 − eps` (JSON `eps`, default 0.05; valid (0, 1)).
    pub eps: Option<f64>,
    /// Fairness CSV artifact name (JSON `csv`, default
    /// `fairness_<name>.csv`).
    pub csv: Option<String>,
}

impl FairnessDef {
    /// Resolved averaging window, seconds.
    pub fn window_s(&self) -> f64 {
        self.window_s.unwrap_or(1.0)
    }

    /// Resolved convergence tolerance.
    pub fn eps(&self) -> f64 {
        self.eps.unwrap_or(0.05)
    }
}

/// Artifact names, relative to the CLI's output directory.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct OutputSpec {
    /// Full machine-readable reports as JSON (JSON `json`, default: not
    /// written).
    pub json: Option<String>,
}

/// One concrete run produced by [`ScenarioSpec::expand`].
#[derive(Debug, Clone)]
pub struct ExpandedRun {
    /// The source run's label.
    pub label: String,
    /// Sweep-cell index this run belongs to (0 for unswept specs).
    pub cell: usize,
    /// The fully-resolved scenario, ready for [`crate::run`].
    pub scenario: Scenario,
}

/// A semantic error in a scenario file (parse errors come through here too,
/// keeping their JSON path + line rendering).
#[derive(Debug, Clone)]
pub struct SpecError {
    /// Human-readable description, location-qualified where possible.
    pub msg: String,
}

impl SpecError {
    fn new(msg: impl Into<String>) -> Self {
        SpecError { msg: msg.into() }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for SpecError {}

impl From<String> for SpecError {
    fn from(msg: String) -> Self {
        SpecError { msg }
    }
}

// ---------------------------------------------------------------------------
// Unit conversions
// ---------------------------------------------------------------------------

/// `x` units of `unit_ns` nanoseconds, in whole nanoseconds. Fails only
/// where a [`SimDuration`] cannot hold it: NaN, negative, 2^64 ns or more,
/// or non-zero but rounding to 0 ns.
fn nanos(x: f64, unit_ns: f64, path: &str) -> Result<SimDuration, SpecError> {
    NonNegative.check(x, path)?;
    let ns = (x * unit_ns).round();
    if ns >= u64::MAX as f64 {
        return Err(too_long(path, x).into());
    }
    if ns == 0.0 && x != 0.0 {
        return Err(not_whole_ns(path, x).into());
    }
    Ok(SimDuration::from_nanos(ns as u64))
}

/// A rate in Mbit/s, in whole bit/s. Fails only where a `u64` cannot hold
/// it: NaN, negative, 2^64 bit/s or more (a cast would saturate), or
/// non-zero but under 1 bit/s (it rounds toward a zero rate).
fn bps(mbps: f64, path: &str) -> Result<u64, SpecError> {
    let bps = mbps * 1e6;
    if !(bps == 0.0 || (1.0..u64::MAX as f64).contains(&bps)) {
        return Err(SpecError::new(format!(
            "{path} must be a rate of at least 1 bit/s (1e-6 Mbit/s) and under 2^64 bit/s, \
             got {mbps}"
        )));
    }
    Ok(bps.round() as u64)
}

impl ImpairmentDef {
    /// Convert to the engine-level config. `at` is the JSON path prefix
    /// (e.g. `path.impairments.haul`) so a conversion error names the exact
    /// knob.
    fn to_config(&self, at: &str) -> Result<ImpairmentConfig, SpecError> {
        let time = |x, unit, knob: &str| nanos(x, unit, &format!("{at}.{knob}"));
        let mut outages = Vec::new();
        for (i, o) in self.outages.iter().flatten().enumerate() {
            outages.push(OutageWindow {
                start: SimTime::ZERO + time(o.start_s, 1e9, &format!("outages[{i}].start_s"))?,
                duration: time(o.duration_s, 1e9, &format!("outages[{i}].duration_s"))?,
            });
        }
        let flap = |f: FlapDef| -> Result<_, SpecError> {
            let mean_up = time(f.mean_up_s, 1e9, "flap.mean_up_s")?;
            let mean_down = time(f.mean_down_s, 1e9, "flap.mean_down_s")?;
            Ok(Flap { mean_up, mean_down })
        };
        let jitter = |j: JitterDef| -> Result<_, SpecError> {
            let max = time(j.max_ms, 1e6, "jitter.max_ms")?;
            Ok(Jitter { prob: j.prob, max })
        };
        Ok(ImpairmentConfig {
            burst_loss: self.burst_loss.map(|b| GilbertElliott {
                p_good_to_bad: b.p_good_to_bad,
                p_bad_to_good: b.p_bad_to_good,
                loss_good: b.loss_good.unwrap_or(0.0),
                loss_bad: b.loss_bad,
            }),
            outages,
            flap: self.flap.map(flap).transpose()?,
            jitter: self.jitter.map(jitter).transpose()?,
            duplicate_prob: self.duplicate_prob.unwrap_or(0.0),
        })
    }
}

// ---------------------------------------------------------------------------
// Conversion to concrete scenarios
// ---------------------------------------------------------------------------

impl QueueDef {
    /// Resolve to the scenario-level discipline for a bottleneck of `cap`
    /// packets, an omitted RED knob taking its [`RedParams::for_capacity`]
    /// default.
    pub fn to_discipline(&self, cap: u32) -> QueueDiscipline {
        let params = |r: &RedDef| {
            let d = RedParams::for_capacity(cap);
            RedParams {
                min_th: r.min_th.unwrap_or(d.min_th),
                max_th: r.max_th.unwrap_or(d.max_th),
                wq: r.w_q.unwrap_or(d.wq),
                max_p: r.max_p.unwrap_or(d.max_p),
                gentle: r.gentle.unwrap_or(d.gentle),
            }
        };
        match self {
            QueueDef::DropTail => QueueDiscipline::DropTail,
            QueueDef::Red(red) => QueueDiscipline::Red(params(red)),
            QueueDef::RedEcn(red) => QueueDiscipline::RedEcn(params(red)),
        }
    }
}

impl CcDef {
    /// Resolve to a concrete algorithm for a flow on a `path_rate_bps` path
    /// with `wire_pkt_bytes` packets, one of `n_flows` on its sending host,
    /// and check the variant's parameter rules against the connection's
    /// `params` ([`rss_cc::registry::validate`]). `at` is the definition's
    /// JSON path (`flows[i].cc` or `gridftp.cc`), which every error names.
    /// The rate and packet size are those of a [`Scenario`] that passed
    /// [`Scenario::check`].
    pub fn to_algorithm(
        &self,
        at: &str,
        path_rate_bps: u64,
        wire_pkt_bytes: u32,
        n_flows: u32,
        params: &CcParams,
    ) -> Result<CcAlgorithm, SpecError> {
        let algo = match *self {
            CcDef::Standard => CcAlgorithm::Reno,
            CcDef::Restricted {
                tuning,
                setpoint_frac,
            } => {
                let at = format!("{at}.Restricted.tuning");
                let mut cfg = match tuning.unwrap_or(TuningDef::ForPath) {
                    TuningDef::ForPath => RssConfig::tuned_for(path_rate_bps, wire_pkt_bytes),
                    TuningDef::PerStream => {
                        let n = u64::from(n_flows.max(1));
                        if path_rate_bps < n {
                            return Err(SpecError::new(format!(
                                "{at}: PerStream needs at least 1 bit/s per flow, got \
                                 {path_rate_bps} bit/s over {n} flows"
                            )));
                        }
                        RssConfig::tuned_for(path_rate_bps / n, wire_pkt_bytes)
                    }
                    TuningDef::Gains { kp, ti, td } => {
                        RssConfig::with_gains(rss_control::PidGains::pid(kp, ti, td))
                    }
                };
                if let Some(sp) = setpoint_frac {
                    cfg.setpoint_frac = sp;
                }
                CcAlgorithm::Restricted(cfg)
            }
            CcDef::Limited { max_ssthresh } => CcAlgorithm::Limited { max_ssthresh },
            CcDef::Ssthreshless { gamma_segments } => CcAlgorithm::Ssthreshless(SslConfig {
                gamma_segments: gamma_segments.unwrap_or(SslConfig::default().gamma_segments),
            }),
            CcDef::HighSpeed => CcAlgorithm::HighSpeed,
            CcDef::Scalable { ai_cnt } => CcAlgorithm::Scalable(ScalableConfig {
                ai_cnt: ai_cnt.unwrap_or(ScalableConfig::default().ai_cnt),
            }),
            CcDef::Bbr => CcAlgorithm::Bbr,
            CcDef::Relentless => CcAlgorithm::Relentless,
            CcDef::Hybrid => CcAlgorithm::Hybrid,
        };
        // A definition that passes here cannot panic in a variant
        // constructor at run time (e.g. a `max_ssthresh` below the 2·MSS
        // floor), however many flows replicate it.
        rss_cc::registry::validate(&algo, params)
            .map_err(|e| SpecError::new(format!("{at}: {}", e.msg)))?;
        Ok(algo)
    }
}

impl RunSpec {
    /// Resolve this run against the paper-testbed defaults into a concrete
    /// [`Scenario`] in `shards` domains, judged by [`Scenario::check`].
    fn to_scenario(&self, shards: Option<u32>) -> Result<Scenario, SpecError> {
        // An omitted knob keeps its value in the paper testbed `tb`.
        let tb = Scenario::paper_testbed(CcAlgorithm::Reno);
        let (dp, dh, d) = (tb.path, tb.host, tb.tcp);
        let secs = |x, path: &str| nanos(x, 1e9, path);
        let ms = |x: Option<f64>, or, path: &str| x.map_or(Ok(or), |x| nanos(x, 1e6, path));
        let us = |x: Option<f64>, or, path: &str| x.map_or(Ok(or), |x| nanos(x, 1e3, path));
        let rate = |x: Option<f64>, or, path: &str| x.map_or(Ok(or), |m| bps(m, path));

        let p = self.path.clone().unwrap_or_default();
        let path = PathSpec {
            rate_bps: rate(p.rate_mbps, dp.rate_bps, "path.rate_mbps")?,
            rtt: ms(p.rtt_ms, dp.rtt, "path.rtt_ms")?,
            router_queue_pkts: p.router_queue_pkts.unwrap_or(dp.router_queue_pkts),
            loss_prob: p.loss_prob.unwrap_or(dp.loss_prob),
            access_rate_bps: (p.access_rate_mbps.map(|m| bps(m, "path.access_rate_mbps")))
                .transpose()?
                .or(dp.access_rate_bps),
            access_delay: us(p.access_delay_us, dp.access_delay, "path.access_delay_us")?,
        };
        let queue = self
            .queue
            .unwrap_or_default()
            .to_discipline(path.router_queue_pkts);
        let impairments = p.impairments.unwrap_or_default();
        let impair = |i: Option<ImpairmentDef>, at| i.map(|i| i.to_config(at)).transpose();

        let h = self.host.unwrap_or_default();
        let host = HostConfig {
            nic_rate_bps: rate(h.nic_rate_mbps, path.rate_bps, "host.nic_rate_mbps")?,
            txqueuelen: h.txqueuelen.unwrap_or(dh.txqueuelen),
            mtu: h.mtu.unwrap_or(dh.mtu),
        };

        let t = self.tcp.unwrap_or_default();
        let tcp = TcpConfig {
            mss: t.mss.unwrap_or(d.mss),
            header_bytes: t.header_bytes.unwrap_or(d.header_bytes),
            initial_cwnd_mss: t.initial_cwnd_mss.unwrap_or(d.initial_cwnd_mss),
            initial_ssthresh: t.initial_ssthresh.or(d.initial_ssthresh),
            rwnd: t.rwnd_bytes.unwrap_or(d.rwnd),
            min_rto: ms(t.min_rto_ms, d.min_rto, "tcp.min_rto_ms")?,
            max_rto: ms(t.max_rto_ms, d.max_rto, "tcp.max_rto_ms")?,
            stall_response: t.stall_response.unwrap_or(d.stall_response),
            stall_retry: ms(t.stall_retry_ms, d.stall_retry, "tcp.stall_retry_ms")?,
            dupack_threshold: t.dupack_threshold.unwrap_or(d.dupack_threshold),
        };

        // Each `cc` definition — its JSON path and the flows it defines — is
        // resolved and checked once the scenario's values have passed
        // `check`, then replicated.
        let mut ccs: Vec<(String, CcDef, std::ops::Range<usize>)> = Vec::new();
        let max_flows = max_flows(self.cross.as_ref().map_or(0, Vec::len));
        let flows: Vec<FlowSpec> = match (&self.gridftp, &self.flows) {
            (Some(_), Some(defs)) if !defs.is_empty() => {
                return Err(SpecError::new(
                    "`flows` and `gridftp` are mutually exclusive",
                ));
            }
            (Some(g), _) => {
                Positive.count(g.total_bytes, "gridftp.total_bytes")?;
                Positive.count(g.streams, "gridftp.streams")?;
                if g.streams > max_flows {
                    return Err(too_many_flows("gridftp.streams", max_flows).into());
                }
                ccs.push(("gridftp.cc".into(), g.cc, 0..g.streams as usize));
                stripe_bytes(g.total_bytes, g.streams)
                    .into_iter()
                    .map(|bytes| FlowSpec {
                        algo: CcAlgorithm::Reno,
                        bytes: Some(bytes),
                        start: SimTime::ZERO,
                    })
                    .collect()
            }
            (None, Some(defs)) if !defs.is_empty() => {
                let n = total_flows(defs, max_flows)?;
                let mut out = Vec::with_capacity(n as usize);
                for (i, f) in defs.iter().enumerate() {
                    let spec = FlowSpec {
                        algo: CcAlgorithm::Reno,
                        bytes: f.bytes,
                        start: SimTime::ZERO
                            + secs(f.start_s.unwrap_or(0.0), &format!("flows[{i}].start_s"))?,
                    };
                    let first = out.len();
                    out.extend((0..f.count.unwrap_or(1)).map(|_| spec));
                    let cc = f.cc.unwrap_or_default();
                    ccs.push((format!("flows[{i}].cc"), cc, first..out.len()));
                }
                out
            }
            _ => {
                return Err(SpecError::new(
                    "a run needs a non-empty `flows` list or a `gridftp` block",
                ));
            }
        };

        let mut cross = Vec::new();
        for (j, c) in self.cross.iter().flatten().enumerate() {
            let time = |s, knob| {
                Ok::<_, SpecError>(SimTime::ZERO + secs(s, &format!("cross[{j}].{knob}"))?)
            };
            cross.push(CrossSpec {
                pattern: c.pattern,
                start: time(c.start_s.unwrap_or(0.0), "start_s")?,
                stop: c.stop_s.map(|s| time(s, "stop_s")).transpose()?,
            });
        }

        let mut sc = Scenario {
            path,
            host,
            tcp,
            flows,
            cross,
            duration: (self.duration_s).map_or(Ok(tb.duration), |x| secs(x, "duration_s"))?,
            seed: self.seed.unwrap_or(tb.seed),
            shared_sender_host: self.shared_sender_host.unwrap_or(tb.shared_sender_host),
            sample_interval: ms(
                self.sample_interval_ms,
                tb.sample_interval,
                "sample_interval_ms",
            )?,
            web100_stride: self.web100_stride.unwrap_or(tb.web100_stride),
            stop_when_complete: self.stop_when_complete.unwrap_or(tb.stop_when_complete),
            queue,
            shards,
            haul_impairment: impair(impairments.haul, "path.impairments.haul")?,
            access_impairment: impair(impairments.access, "path.impairments.access")?,
            max_sim_time: self
                .max_sim_time_s
                .map(|s| secs(s, "max_sim_time_s"))
                .transpose()?,
            max_events: self.max_events,
        };
        if self.auto_rwnd.unwrap_or(false) {
            sc = sc.with_auto_rwnd();
        }
        sc.check()?;
        let (params, n) = (sc.tcp.cc_params(), sc.flows.len() as u32);
        for (at, cc, flows) in ccs {
            let algo = cc.to_algorithm(&at, sc.path.rate_bps, sc.host.mtu, n, &params)?;
            sc.flows[flows].iter_mut().for_each(|f| f.algo = algo);
        }
        Ok(sc)
    }
}

/// The number of flows `defs` replicate to, summed with checked arithmetic
/// before anything is allocated for them.
fn total_flows(defs: &[FlowDef], max: u32) -> Result<u32, SpecError> {
    let mut n: u32 = 0;
    for (i, f) in defs.iter().enumerate() {
        let c = Positive.count(f.count.unwrap_or(1), &format!("flows[{i}].count"))?;
        n = n
            .checked_add(c)
            .filter(|&n| n <= max)
            .ok_or_else(|| too_many_flows("flows", max))?;
    }
    Ok(n)
}

// ---------------------------------------------------------------------------
// Loading, validation, sweep expansion
// ---------------------------------------------------------------------------

impl SweepSpec {
    /// Each axis's name and length (`None` when absent, which keeps the
    /// run's own value), outermost first.
    fn axes(&self) -> [(&'static str, Option<usize>); 5] {
        [
            ("rate_mbps", self.rate_mbps.as_ref().map(Vec::len)),
            ("rtt_ms", self.rtt_ms.as_ref().map(Vec::len)),
            ("txqueuelen", self.txqueuelen.as_ref().map(Vec::len)),
            ("seed", self.seed.as_ref().map(Vec::len)),
            ("streams", self.streams.as_ref().map(Vec::len)),
        ]
    }
}

/// An artifact name is joined onto the output directory, so it must be one
/// plain path component: anything else could replace or escape that
/// directory, or fail with an OS error only after the whole run.
fn plain_file_name(name: &str, what: &str) -> Result<(), SpecError> {
    if name.is_empty() || name == "." || name == ".." || name.contains(['/', '\\']) {
        return Err(SpecError::new(format!(
            "{what}: must be a plain file name, got {name:?}"
        )));
    }
    Ok(())
}

impl ScenarioSpec {
    /// Parse a spec from JSON text. Errors carry the JSON path and line.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        serde::from_json_str::<ScenarioSpec>(text).map_err(|e| SpecError::new(e.to_string()))
    }

    /// Read and parse a spec file.
    pub fn load(path: &std::path::Path) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::new(format!("{}: {e}", path.display())))?;
        Self::from_json(&text).map_err(|e| SpecError::new(format!("{}: {}", path.display(), e.msg)))
    }

    /// Full validation: parseable fields (already guaranteed by construction)
    /// plus every semantic rule `expand` enforces.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.expand().map(|_| ())
    }

    /// Number of sweep cells (1 when no sweep block is present). An empty
    /// axis yields 0 — the same spec [`Self::expand`] rejects as invalid.
    pub fn cells(&self) -> usize {
        self.sweep.as_ref().map_or(1, |s| {
            s.axes().iter().map(|(_, len)| len.unwrap_or(1)).product()
        })
    }

    /// Expand the sweep grid into concrete runs: axes nest in declaration
    /// order (`rate_mbps` outermost, then `rtt_ms`, `txqueuelen`, `seed`,
    /// `streams`) and the file's runs execute in order within each cell —
    /// the same order the hand-coded sweeps build their scenario vectors in.
    pub fn expand(&self) -> Result<Vec<ExpandedRun>, SpecError> {
        let output = self.output.as_ref();
        let fairness = self.fairness.as_ref();
        for (what, name) in [
            ("$.name", Some(&self.name)),
            ("$.output.json", output.and_then(|o| o.json.as_ref())),
            ("$.fairness.csv", fairness.and_then(|f| f.csv.as_ref())),
        ] {
            if let Some(name) = name {
                plain_file_name(name, what)?;
            }
        }
        if self.runs.is_empty() {
            return Err(SpecError::new("a scenario needs at least one run"));
        }
        if let Some(f) = fairness {
            Positive.check(f.window_s(), "fairness.window_s")?;
            Open.check(f.eps(), "fairness.eps")?;
        }
        for (i, run) in self.runs.iter().enumerate() {
            if run.label.is_empty() {
                return Err(format!("runs[{i}]: `label` must not be empty").into());
            }
            if self.runs[..i].iter().any(|r| r.label == run.label) {
                return Err(format!("duplicate run label `{}`", run.label).into());
            }
        }
        let sw = self.sweep.clone().unwrap_or_default();
        if let Some((name, _)) = sw.axes().iter().find(|(_, len)| *len == Some(0)) {
            return Err(format!("sweep axis `{name}` must not be empty").into());
        }

        let mut out = Vec::new();
        for cell in 0..self.cells() {
            for run in &self.runs {
                let mut r = run.clone();
                // The cell's index on each present axis, innermost first.
                let mut rest = cell;
                let mut next = |len: usize| {
                    let k = rest % len;
                    rest /= len;
                    k
                };
                if let Some(xs) = &sw.streams {
                    let Some(g) = &mut r.gridftp else {
                        return Err(SpecError::new(format!(
                            "run `{}`: the `streams` sweep axis requires a `gridftp` block",
                            run.label
                        )));
                    };
                    g.streams = xs[next(xs.len())];
                }
                if let Some(xs) = &sw.seed {
                    r.seed = Some(xs[next(xs.len())]);
                }
                if let Some(xs) = &sw.txqueuelen {
                    r.host.get_or_insert_with(Default::default).txqueuelen =
                        Some(xs[next(xs.len())]);
                }
                if let Some(xs) = &sw.rtt_ms {
                    r.path.get_or_insert_with(Default::default).rtt_ms = Some(xs[next(xs.len())]);
                }
                if let Some(xs) = &sw.rate_mbps {
                    r.path.get_or_insert_with(Default::default).rate_mbps =
                        Some(xs[next(xs.len())]);
                }
                let scenario = r.to_scenario(self.shards.map(ShardsDef::resolve));
                out.push(ExpandedRun {
                    label: run.label.clone(),
                    cell,
                    scenario: scenario.map_err(|e| format!("run `{}`: {e}", run.label))?,
                });
            }
        }
        Ok(out)
    }

    /// The per-flow CSV artifact's name: `scenario_<name>.csv`.
    pub fn csv_name(&self) -> String {
        format!("scenario_{}.csv", self.name)
    }

    /// The per-run CSV artifact's name: `runs_<name>.csv`.
    pub fn runs_csv_name(&self) -> String {
        format!("runs_{}.csv", self.name)
    }

    /// Fairness CSV artifact name — `Some` only when the spec opts into the
    /// fairness block (`fairness_<name>.csv` unless `fairness.csv`
    /// overrides it).
    pub fn fairness_csv_name(&self) -> Option<String> {
        self.fairness.as_ref().map(|f| {
            f.csv
                .clone()
                .unwrap_or_else(|| format!("fairness_{}.csv", self.name))
        })
    }
}

// ---------------------------------------------------------------------------
// Deterministic CSV summary
// ---------------------------------------------------------------------------

/// Append one `f64` cell and its trailing comma, rendered by the
/// serializer's own [`serde::write_f64`] (shortest round-trip digits, never
/// an exponent), so the CSVs and the JSON report cannot disagree on a number
/// and goldens are byte-stable. Every cell is finite by construction.
pub(crate) fn fmt_f64(x: f64, out: &mut String) {
    serde::write_f64(x, out);
    out.push(',');
}

/// Render the per-flow summary CSV for an expanded + executed scenario.
/// One row per (run, flow); byte-deterministic given bit-identical reports,
/// which is what the golden-gated CI matrix diffs against.
pub fn results_csv(spec: &ScenarioSpec, runs: &[ExpandedRun], reports: &[RunReport]) -> String {
    assert_eq!(runs.len(), reports.len(), "one report per expanded run");
    let mut out = String::from(
        "scenario,run,cell,rate_mbps,rtt_ms,txqueuelen,seed,flows,flow,algo,\
         goodput_bps,utilization,send_stalls,congestion_signals,max_cwnd_bytes,\
         data_bytes_out,thru_bytes_acked,completed_s\n",
    );
    // Rows go straight into `out`; `write!` into a `String` cannot fail.
    for (er, report) in runs.iter().zip(reports) {
        let sc = &er.scenario;
        for f in &report.flows {
            let _ = write!(out, "{},{},{},", spec.name, er.label, er.cell);
            fmt_f64(sc.path.rate_bps as f64 / 1e6, &mut out);
            fmt_f64(sc.path.rtt.as_nanos() as f64 / 1e6, &mut out);
            let _ = write!(
                out,
                "{},{},{},{},{},",
                sc.host.txqueuelen,
                sc.seed,
                sc.flows.len(),
                f.conn,
                f.algo,
            );
            fmt_f64(f.goodput_bps, &mut out);
            fmt_f64(f.utilization, &mut out);
            let _ = write!(
                out,
                "{},{},{},{},{},",
                f.vars.send_stall,
                f.vars.congestion_signals,
                f.vars.max_cwnd,
                f.vars.data_bytes_out,
                f.vars.thru_bytes_acked,
            );
            if let Some(t) = f.completed_at_s {
                serde::write_f64(t, &mut out);
            }
            out.push('\n');
        }
    }
    out
}

/// Render the per-run CSV: one row per expanded run with the executor's
/// cost of it — the events it dispatched, the simulated time it ended at
/// and, when a watchdog cut it short, why. Executor changes that move no
/// flow's behaviour move only this file.
pub fn runs_csv(spec: &ScenarioSpec, runs: &[ExpandedRun], reports: &[RunReport]) -> String {
    assert_eq!(runs.len(), reports.len(), "one report per expanded run");
    let mut out = String::from("scenario,run,cell,seed,events,end_s,truncated\n");
    for (er, report) in runs.iter().zip(reports) {
        let _ = write!(
            out,
            "{},{},{},{},{},",
            spec.name, er.label, er.cell, er.scenario.seed, report.events_processed
        );
        fmt_f64(report.duration_s, &mut out);
        let _ = writeln!(out, "{}", report.truncated.as_deref().unwrap_or(""));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rss_sim::MAX_UNITS;

    fn minimal(json_runs: &str) -> String {
        format!("{{\"name\":\"t\",\"runs\":{json_runs}}}")
    }

    #[test]
    fn defaults_reproduce_the_paper_testbed() {
        let spec = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"standard","flows":[{}]},
                {"label":"restricted","flows":[{"cc":{"Restricted":{}}}]}]"#,
        ))
        .unwrap();
        let runs = spec.expand().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(
            format!("{:?}", runs[0].scenario),
            format!("{:?}", Scenario::paper_testbed_standard())
        );
        assert_eq!(
            format!("{:?}", runs[1].scenario),
            format!("{:?}", Scenario::paper_testbed_restricted())
        );
    }

    #[test]
    fn unknown_field_is_a_path_qualified_error() {
        // Every segment is ACKed, a flow is one bulk write of `bytes`, ECN
        // follows the queue, and a Restricted flow is tuned for its path,
        // its stream or explicit gains: the knobs that once chose otherwise
        // are unknown names now.
        for (runs, field, at) in [
            (
                r#"[{"label":"x","flows":[{}],"tcp":{"mss":1448,"msss":9}}]"#,
                "unknown field `msss`",
                "$.runs[0].tcp",
            ),
            (
                r#"[{"label":"x","flows":[{}],"red_bottleneck":true}]"#,
                "unknown field `red_bottleneck`",
                "$.runs[0]",
            ),
            (
                r#"[{"label":"x","flows":[{}],"tcp":{"ack_policy":"EverySegment"}}]"#,
                "unknown field `ack_policy`",
                "$.runs[0].tcp",
            ),
            (
                r#"[{"label":"x","flows":[{}],"tcp":{"ecn":true}}]"#,
                "unknown field `ecn`",
                "$.runs[0].tcp",
            ),
            (
                r#"[{"label":"x","flows":[{"app":{"Bulk":{"bytes":1000}}}]}]"#,
                "unknown field `app`",
                "$.runs[0].flows[0]",
            ),
            (
                r#"[{"label":"x","flows":[{"cc":{"Restricted":{"tuning":
                     {"ForRate":{"rate_mbps":100,"wire_pkt_bytes":1500}}}}}]}]"#,
                "unknown variant `ForRate`",
                "$.runs[0].flows[0].cc.Restricted.tuning",
            ),
        ] {
            let err = ScenarioSpec::from_json(&minimal(runs)).unwrap_err();
            assert!(err.msg.contains(field), "{}", err.msg);
            assert!(err.msg.contains(at), "{}", err.msg);
            assert!(err.msg.contains("line"), "{}", err.msg);
        }
    }

    #[test]
    fn wrong_type_is_a_path_qualified_error() {
        let err = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"x","flows":[{}],"duration_s":"long"}]"#,
        ))
        .unwrap_err();
        assert!(err.msg.contains("$.runs[0].duration_s"), "{}", err.msg);
        assert!(
            err.msg.contains("expected f64, found string"),
            "{}",
            err.msg
        );
    }

    #[test]
    fn artifact_names_must_be_plain_file_names() {
        let doc = |name: &str, extra: &str| {
            format!(r#"{{"name":"{name}","runs":[{{"label":"x","flows":[{{}}]}}]{extra}}}"#)
        };
        for bad in [
            "/tmp/x.csv",
            "../x.csv",
            "..",
            "sub/x.csv",
            r"sub\\x.csv",
            "",
        ] {
            for (what, text) in [
                ("$.name", doc(bad, "")),
                (
                    "$.output.json",
                    doc("ok", &format!(r#","output":{{"json":"{bad}"}}"#)),
                ),
                (
                    "$.fairness.csv",
                    doc("ok", &format!(r#","fairness":{{"csv":"{bad}"}}"#)),
                ),
            ] {
                let err = ScenarioSpec::from_json(&text)
                    .unwrap()
                    .validate()
                    .unwrap_err();
                assert!(
                    err.msg
                        .starts_with(&format!("{what}: must be a plain file name, got ")),
                    "{bad:?}: {}",
                    err.msg
                );
            }
        }
        // The message quotes the offending value.
        let err = ScenarioSpec::from_json(&doc("ok", r#","output":{"json":"../x.json"}"#))
            .unwrap()
            .validate()
            .unwrap_err();
        assert_eq!(
            err.msg,
            r#"$.output.json: must be a plain file name, got "../x.json""#
        );
        // The default names pass.
        ScenarioSpec::from_json(&doc("ok", r#","fairness":{}"#))
            .unwrap()
            .validate()
            .unwrap();
    }

    #[test]
    fn impairments_expand_into_the_scenario() {
        let spec = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"faulty","flows":[{}],
                 "path":{"impairments":{
                   "haul":{"burst_loss":{"p_good_to_bad":0.02,"p_bad_to_good":0.3,"loss_bad":0.4},
                           "outages":[{"start_s":2,"duration_s":0.5}],
                           "jitter":{"prob":0.1,"max_ms":3},
                           "duplicate_prob":0.01},
                   "access":{"flap":{"mean_up_s":5,"mean_down_s":0.2}}}},
                 "max_sim_time_s":10,"max_events":1000000}]"#,
        ))
        .unwrap();
        let runs = spec.expand().unwrap();
        let sc = &runs[0].scenario;
        let haul = sc.haul_impairment.as_ref().expect("haul impairment set");
        assert_eq!(haul.burst_loss.unwrap().p_good_to_bad, 0.02);
        assert_eq!(haul.burst_loss.unwrap().loss_good, 0.0);
        assert_eq!(haul.outages.len(), 1);
        assert_eq!(haul.outages[0].duration, SimDuration::from_millis(500));
        assert_eq!(haul.jitter.unwrap().max, SimDuration::from_millis(3));
        assert_eq!(haul.duplicate_prob, 0.01);
        let access = sc.access_impairment.as_ref().expect("access impairment");
        assert_eq!(
            access.flap.unwrap().mean_down,
            SimDuration::from_millis(200)
        );
        assert!(access.burst_loss.is_none());
        assert_eq!(sc.max_sim_time, Some(SimDuration::from_secs(10)));
        assert_eq!(sc.max_events, Some(1_000_000));
    }

    #[test]
    fn impairment_probabilities_are_validated_with_their_json_path() {
        for (knob, json) in [
            (
                "haul_impairment.burst_loss.loss_bad",
                r#"{"burst_loss":{"p_good_to_bad":0.1,"p_bad_to_good":0.1,"loss_bad":1.5}}"#,
            ),
            (
                "haul_impairment.jitter.prob",
                r#"{"jitter":{"prob":-0.2,"max_ms":1}}"#,
            ),
            ("haul_impairment.duplicate_prob", r#"{"duplicate_prob":2}"#),
            (
                "haul_impairment.burst_loss.p_good_to_bad",
                r#"{"burst_loss":{"p_good_to_bad":nan,"p_bad_to_good":0.1,"loss_bad":0.5}}"#,
            ),
            (
                "haul_impairment.burst_loss.p_bad_to_good",
                r#"{"burst_loss":{"p_good_to_bad":0.1,"p_bad_to_good":1.5,"loss_bad":0.5}}"#,
            ),
            (
                "haul_impairment.burst_loss.loss_good",
                r#"{"burst_loss":{"p_good_to_bad":0.1,"p_bad_to_good":0.1,
                                  "loss_good":-0.1,"loss_bad":0.5}}"#,
            ),
        ] {
            let doc = minimal(&format!(
                r#"[{{"label":"x","flows":[{{}}],"path":{{"impairments":{{"haul":{json}}}}}}}]"#
            ));
            // The vendored parser has no NaN literal; smuggle it through a
            // huge exponent only where the case asks for non-finite input.
            let doc = doc.replace("nan", "1e999");
            let spec = match ScenarioSpec::from_json(&doc) {
                Ok(s) => s,
                Err(e) => {
                    // Non-finite numbers may already die in the parser —
                    // also an acceptable rejection, as long as it's loud.
                    assert!(!e.msg.is_empty());
                    continue;
                }
            };
            let err = spec.expand().unwrap_err();
            assert!(err.msg.contains(knob), "missing `{knob}` in: {}", err.msg);
            assert!(err.msg.contains("must be in [0, 1]"), "{}", err.msg);
        }
    }

    #[test]
    fn impairment_durations_and_watchdog_knobs_are_validated() {
        let err = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"x","flows":[{}],
                 "path":{"impairments":{"access":{"flap":{"mean_up_s":0,"mean_down_s":1}}}}}]"#,
        ))
        .unwrap()
        .expand()
        .unwrap_err();
        assert!(
            err.msg.contains("access_impairment.flap.mean_up"),
            "{}",
            err.msg
        );
        let err = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"x","flows":[{}],"max_sim_time_s":-1}]"#,
        ))
        .unwrap()
        .expand()
        .unwrap_err();
        assert!(err.msg.contains("max_sim_time_s"), "{}", err.msg);
        // A duration whose nanoseconds overflow the clock's u64 is rejected,
        // not saturated into a run that panics on its first `now + d`; so is
        // one that fits a u64 but overflows once added to a time in the run.
        for (run, knob) in [
            (r#""tcp":{"stall_retry_ms":1e15}"#, "tcp.stall_retry_ms"),
            (
                r#""tcp":{"stall_retry_ms":1.8446744073709e13}"#,
                "tcp.stall_retry",
            ),
            (r#""duration_s":1e12"#, "duration_s"),
        ] {
            let err = ScenarioSpec::from_json(&minimal(&format!(
                r#"[{{"label":"x","flows":[{{}}],{run}}}]"#
            )))
            .unwrap()
            .validate()
            .unwrap_err();
            let want = format!("run `x`: {knob} must be under 2^62 ns (about 146 years)");
            assert!(err.msg.starts_with(&want), "{}", err.msg);
        }
        let err =
            ScenarioSpec::from_json(&minimal(r#"[{"label":"x","flows":[{}],"max_events":0}]"#))
                .unwrap()
                .expand()
                .unwrap_err();
        assert!(
            err.msg.contains("max_events must be positive"),
            "{}",
            err.msg
        );
        // TCP knobs that would livelock the engine (a zero RTO re-fires at
        // the instant it fires; so does a zero stall retry) or switch fast
        // retransmit off.
        for (tcp, want) in [
            (
                r#"{"max_rto_ms":0}"#,
                "tcp.max_rto must be at least tcp.min_rto (200 ms), got 0 ms",
            ),
            (
                r#"{"max_rto_ms":0.000001}"#,
                "tcp.max_rto must be at least tcp.min_rto (200 ms), got 0.000001 ms",
            ),
            (
                r#"{"min_rto_ms":500,"max_rto_ms":100}"#,
                "tcp.max_rto must be at least tcp.min_rto (500 ms), got 100 ms",
            ),
            (
                r#"{"min_rto_ms":0}"#,
                "tcp.min_rto must be at least 1 ms, got 0 ms",
            ),
            (
                r#"{"min_rto_ms":0.5}"#,
                "tcp.min_rto must be at least 1 ms, got 0.5 ms",
            ),
            (
                r#"{"stall_retry_ms":0,"stall_response":"Ignore"}"#,
                "tcp.stall_retry must be positive (at least 1 ns), got 0",
            ),
            (
                r#"{"dupack_threshold":0}"#,
                "tcp.dupack_threshold must be at least 1",
            ),
            (r#"{"mss":0}"#, "tcp.mss must be positive"),
            (
                r#"{"initial_cwnd_mss":0}"#,
                "tcp.initial_cwnd_mss must be positive",
            ),
            (
                r#"{"max_rto_ms":-1}"#,
                "tcp.max_rto_ms must be non-negative, got -1",
            ),
            (
                r#"{"stall_retry_ms":0.0000001}"#,
                "tcp.stall_retry_ms must be positive (at least 1 ns), got 0.0000001",
            ),
        ] {
            let err = ScenarioSpec::from_json(&minimal(&format!(
                r#"[{{"label":"x","flows":[{{}}],"tcp":{tcp}}}]"#
            )))
            .unwrap()
            .validate()
            .unwrap_err();
            assert_eq!(err.msg, format!("run `x`: {want}"), "{tcp}");
        }
        // The edges themselves are accepted.
        let spec = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"x","flows":[{}],
                 "tcp":{"min_rto_ms":1,"max_rto_ms":1,"stall_retry_ms":0.001,"dupack_threshold":1}}]"#,
        ))
        .unwrap();
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn max_events_with_shards_is_rejected_not_ignored() {
        let spec = |shards: &str| {
            ScenarioSpec::from_json(&format!(
                r#"{{"name":"t",{shards}"runs":[{{"label":"a","flows":[{{}}]}},
                    {{"label":"b","flows":[{{}}],"max_events":1000}}]}}"#
            ))
            .unwrap()
        };
        let err = spec(r#""shards":2,"#).validate().unwrap_err();
        assert_eq!(
            err.msg,
            "run `b`: max_events: not supported with shards; use max_sim_time"
        );
        // Without `shards` the budget is honoured as before.
        let runs = spec("").expand().unwrap();
        assert_eq!(runs[1].scenario.max_events, Some(1000));
    }

    #[test]
    fn unknown_variant_is_rejected_with_the_open_enum_list() {
        let err = ScenarioSpec::from_json(&minimal(r#"[{"label":"x","flows":[{"cc":"Vegas"}]}]"#))
            .unwrap_err();
        assert!(err.msg.contains("unknown variant `Vegas`"), "{}", err.msg);
        assert!(
            err.msg
                .contains("Standard, Restricted, Limited, Ssthreshless, HighSpeed, Scalable"),
            "{}",
            err.msg
        );
    }

    #[test]
    fn highspeed_and_scalable_arms_resolve_through_the_registry() {
        let spec = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"lfn","flows":[{"cc":"HighSpeed"},
                                        {"cc":{"Scalable":{}}},
                                        {"cc":{"Scalable":{"ai_cnt":50}}}]}]"#,
        ))
        .unwrap();
        let runs = spec.expand().unwrap();
        assert!(matches!(
            runs[0].scenario.flows[0].algo,
            CcAlgorithm::HighSpeed
        ));
        match runs[0].scenario.flows[1].algo {
            CcAlgorithm::Scalable(cfg) => assert_eq!(cfg.ai_cnt, 100),
            ref other => panic!("wrong algo {other:?}"),
        }
        match runs[0].scenario.flows[2].algo {
            CcAlgorithm::Scalable(cfg) => assert_eq!(cfg.ai_cnt, 50),
            ref other => panic!("wrong algo {other:?}"),
        }
        // Registry validation surfaces as a named spec error.
        let spec = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"bad","flows":[{"cc":{"Scalable":{"ai_cnt":0}}}]}]"#,
        ))
        .unwrap();
        let err = spec.validate().unwrap_err();
        assert!(err.msg.contains("run `bad`"), "{}", err.msg);
        assert!(err.msg.contains("ai_cnt"), "{}", err.msg);
    }

    #[test]
    fn validate_catches_everything_the_constructors_would_panic_on() {
        // `rss validate` must reject what `rss run` cannot build: a
        // max_ssthresh below the 2·MSS constructor floor...
        let spec = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"tiny","flows":[{"cc":{"Limited":{"max_ssthresh":1000}}}]}]"#,
        ))
        .unwrap();
        let err = spec.validate().unwrap_err();
        assert!(err.msg.contains("max_ssthresh"), "{}", err.msg);
        assert!(err.msg.contains("run `tiny`"), "{}", err.msg);
        // ...and PID gains PidController::new would assert on (Ti = 0).
        let spec = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"zeroti","flows":[{"cc":{"Restricted":{
                 "tuning":{"Gains":{"kp":1.0,"ti":0.0,"td":0.0}}}}}]}]"#,
        ))
        .unwrap();
        let err = spec.validate().unwrap_err();
        assert!(err.msg.contains("PID gains"), "{}", err.msg);
        // ...and rates that round to a zero-rate link, which cannot
        // serialize a packet.
        for (block, what) in [
            (r#""path":{"rate_mbps":1e-9}"#, "path.rate_mbps"),
            (
                r#""path":{"access_rate_mbps":1e-9}"#,
                "path.access_rate_mbps",
            ),
            (r#""host":{"nic_rate_mbps":1e-9}"#, "host.nic_rate_mbps"),
        ] {
            let spec = ScenarioSpec::from_json(&minimal(&format!(
                r#"[{{"label":"slow","flows":[{{}}],{block}}}]"#
            )))
            .unwrap();
            let err = spec.validate().unwrap_err();
            assert!(err.msg.contains("run `slow`"), "{}", err.msg);
            assert!(err.msg.contains(what), "{}", err.msg);
            assert!(err.msg.contains("at least 1 bit/s"), "{}", err.msg);
        }
        // ...and a segment whose wire size overflows its u32 (a panic in
        // `TcpSegment::wire_size`), or a receive window below one MSS, which
        // the silly-window rule never sends into (a run of 0 bytes). Then
        // inputs that panicked or never finished in `rss run`: a cross
        // source with a zero rate (a zero-rate link; an infinite Poisson
        // mean), a zero OnOff mean, an OnOff on-period mean under a
        // thousandth of the packet gap (10^9 draws per packet at 1e-12 s), a
        // zero packet size or a gap below 1 ns
        // (it emits forever at one instant); and a sampling grid past 2^20
        // samples per series (10^8 events in a 0.05 s run).
        let run = |block: &str| {
            let run = format!(r#"[{{"label":"seg","flows":[{{}}],{block}}}]"#);
            ScenarioSpec::from_json(&minimal(&run)).unwrap().validate()
        };
        for (block, want) in [
            (
                r#""tcp":{"header_bytes":4294967295}"#,
                "tcp.header_bytes: tcp.mss + tcp.header_bytes must fit the u32 wire size, \
                 got 1448 + 4294967295",
            ),
            (
                r#""tcp":{"rwnd_bytes":1000}"#,
                "tcp.rwnd: the receive window (1000 bytes) must hold one tcp.mss (1448 bytes)",
            ),
            (
                r#""tcp":{"mss":100000000}"#,
                "tcp.rwnd: the receive window (2097152 bytes) must hold one tcp.mss \
                 (100000000 bytes)",
            ),
            (
                r#""tcp":{"mss":100000000},"auto_rwnd":true"#,
                "tcp.rwnd: the receive window (3000000 bytes) must hold one tcp.mss \
                 (100000000 bytes)",
            ),
            (
                r#""cross":[{"pattern":{"Cbr":{"rate_bps":0,"pkt_size":1000}}}]"#,
                "cross[0].pattern.Cbr.rate_bps must be at least 1 bit/s, got 0",
            ),
            (
                r#""cross":[{"pattern":{"Poisson":{"rate_bps":0,"pkt_size":1000}}}]"#,
                "cross[0].pattern.Poisson.rate_bps must be at least 1 bit/s, got 0",
            ),
            (
                r#""cross":[{"pattern":{"Cbr":{"rate_bps":1000000,"pkt_size":1000}}},
                            {"pattern":{"OnOff":{"rate_bps":1000000,"pkt_size":1000,
                                                 "on_mean_s":0,"off_mean_s":1}}}]"#,
                "cross[1].pattern.OnOff.on_mean_s must be positive and finite, got 0",
            ),
            (
                r#""cross":[{"pattern":{"OnOff":{"rate_bps":1000000,"pkt_size":1000,
                                                 "on_mean_s":1e-12,"off_mean_s":1}}}]"#,
                "cross[0].pattern.OnOff.on_mean_s must be at least a thousandth of the packet \
                 gap pkt_size·8/rate_bps = 1000·8/1000000 s, got 0.000000000001",
            ),
            (
                r#""cross":[{"pattern":{"Cbr":{"rate_bps":1000000,"pkt_size":0}}}]"#,
                "cross[0].pattern.Cbr.pkt_size must be at least 1 byte, got 0",
            ),
            (
                r#""cross":[{"pattern":{"Cbr":{"rate_bps":18446744073709551615,"pkt_size":1}}}]"#,
                "cross[0].pattern.Cbr.rate_bps: the mean gap pkt_size·8/rate_bps must be at \
                 least 1 ns, got 1·8/18446744073709551615 s",
            ),
            (
                r#""duration_s":0.05,"sample_interval_ms":0.000001"#,
                "sample_interval: a 0.05 s horizon over 0.000001 ms is 50000000 samples \
                 per series, past the 1048576 (2^20) a run may take",
            ),
            (
                r#""duration_s":1.048577,"sample_interval_ms":0.001"#,
                "sample_interval: a 1.048577 s horizon over 0.001 ms is 1048577 samples \
                 per series, past the 1048576 (2^20) a run may take",
            ),
        ] {
            assert_eq!(run(block).unwrap_err().msg, format!("run `seg`: {want}"));
        }
        // The edges themselves are accepted: a 1 ns gap, 2^20 samples (also
        // when `max_sim_time_s` is what clamps the horizon to it).
        assert!(run(r#""tcp":{"header_bytes":4294965847}"#).is_ok());
        assert!(run(r#""tcp":{"rwnd_bytes":1448}"#).is_ok());
        assert!(
            run(r#""cross":[{"pattern":{"Cbr":{"rate_bps":8000000000,"pkt_size":1}}}]"#).is_ok()
        );
        assert!(run(r#""duration_s":1.048576,"sample_interval_ms":0.001"#).is_ok());
        assert!(run(r#""max_sim_time_s":1.048576,"sample_interval_ms":0.001"#).is_ok());
        // One out-of-range value per ranged knob: the message names the run,
        // then the knob's full JSON path. A `cc` is checked once, where it is
        // defined, whichever flow replicates it; a rate of 2^64 bit/s or more
        // is rejected, not saturated.
        let knob = |block: &str| {
            let flows = if block.contains(r#""flows""#) || block.contains(r#""gridftp""#) {
                ""
            } else {
                r#""flows":[{}],"#
            };
            ScenarioSpec::from_json(&minimal(&format!(r#"[{{"label":"x",{flows}{block}}}]"#)))
                .unwrap()
                .validate()
                .unwrap_err()
                .msg
        };
        const TOO_FAST: &str = "must be a rate of at least 1 bit/s (1e-6 Mbit/s) and under 2^64 \
                                bit/s, got 1000000000000000000000";
        let restricted = |params: &str| format!(r#""flows":[{{"cc":{{"Restricted":{params}}}}}]"#);
        for (block, want) in [
            (
                r#""path":{"rate_mbps":1e300}"#.to_string(),
                format!("path.rate_mbps {TOO_FAST}"),
            ),
            (
                r#""path":{"access_rate_mbps":1e300}"#.into(),
                format!("path.access_rate_mbps {TOO_FAST}"),
            ),
            (
                r#""host":{"nic_rate_mbps":1e300}"#.into(),
                format!("host.nic_rate_mbps {TOO_FAST}"),
            ),
            (
                r#""path":{"rate_mbps":0.000001},
                   "flows":[{"count":2,"cc":{"Restricted":{"tuning":"PerStream"}}}]"#
                    .into(),
                "flows[0].cc.Restricted.tuning: PerStream needs at least 1 bit/s per flow, got \
                 1 bit/s over 2 flows"
                    .into(),
            ),
            (
                restricted(r#"{"setpoint_frac":1.5}"#),
                "flows[0].cc: setpoint_frac must be in (0, 1], got 1.5".into(),
            ),
            (
                r#""flows":[{"count":3},{"cc":{"Scalable":{"ai_cnt":0}}}]"#.into(),
                "flows[1].cc: ai_cnt must be at least 1, got 0".into(),
            ),
            (
                r#""gridftp":{"total_bytes":1000000,"streams":2,
                             "cc":{"Scalable":{"ai_cnt":0}}}"#
                    .into(),
                "gridftp.cc: ai_cnt must be at least 1, got 0".into(),
            ),
            (
                r#""gridftp":{"total_bytes":0,"streams":2,"cc":"Standard"}"#.into(),
                "gridftp.total_bytes must be positive".into(),
            ),
            (
                r#""gridftp":{"total_bytes":1000000,"streams":0,"cc":"Standard"}"#.into(),
                "gridftp.streams must be positive".into(),
            ),
            (
                r#""path":{"rtt_ms":-1}"#.into(),
                "path.rtt_ms must be non-negative, got -1".into(),
            ),
            (
                r#""path":{"loss_prob":1.5}"#.into(),
                "path.loss_prob must be in [0, 1], got 1.5".into(),
            ),
            (
                r#""path":{"access_delay_us":0.0001}"#.into(),
                "path.access_delay_us must be positive (at least 1 ns), got 0.0001".into(),
            ),
            (
                r#""path":{"impairments":{"haul":{"outages":[{"start_s":-1,"duration_s":1}]}}}"#
                    .into(),
                "path.impairments.haul.outages[0].start_s must be non-negative, got -1".into(),
            ),
            (
                r#""path":{"impairments":{"access":{"outages":[{"start_s":1,"duration_s":0}]}}}"#
                    .into(),
                "access_impairment.outages[0].duration must be positive (at least 1 ns), got 0"
                    .into(),
            ),
            (
                r#""path":{"impairments":{"haul":{"flap":{"mean_up_s":1,"mean_down_s":0}}}}"#
                    .into(),
                "haul_impairment.flap.mean_down must be positive (at least 1 ns), got 0".into(),
            ),
            (
                r#""path":{"impairments":{"haul":{"jitter":{"prob":0.5,"max_ms":-1}}}}"#.into(),
                "path.impairments.haul.jitter.max_ms must be non-negative, got -1".into(),
            ),
            (
                r#""host":{"txqueuelen":0}"#.into(),
                "host.txqueuelen must be positive".into(),
            ),
            (
                r#""host":{"mtu":0}"#.into(),
                "host.mtu must be positive".into(),
            ),
            (
                r#""flows":[{},{"start_s":-1}]"#.into(),
                "flows[1].start_s must be non-negative, got -1".into(),
            ),
            (
                r#""flows":[{},{"count":0}]"#.into(),
                "flows[1].count must be positive".into(),
            ),
            (
                r#""cross":[{"pattern":{"Cbr":{"rate_bps":1000000,"pkt_size":1000}},
                             "start_s":-1}]"#
                    .into(),
                "cross[0].start_s must be non-negative, got -1".into(),
            ),
            (
                r#""cross":[{"pattern":{"Cbr":{"rate_bps":1000000,"pkt_size":1000}}},
                            {"pattern":{"Cbr":{"rate_bps":1000000,"pkt_size":1000}},
                             "stop_s":-1}]"#
                    .into(),
                "cross[1].stop_s must be non-negative, got -1".into(),
            ),
            (
                r#""duration_s":0"#.into(),
                "duration must be positive (at least 1 ns), got 0".into(),
            ),
            (
                r#""sample_interval_ms":0"#.into(),
                "sample_interval must be positive (at least 1 ns), got 0".into(),
            ),
            (
                r#""max_sim_time_s":0"#.into(),
                "max_sim_time must be positive (at least 1 ns), got 0".into(),
            ),
            (
                r#""max_events":0"#.into(),
                "max_events must be positive".into(),
            ),
            (
                r#""web100_stride":0"#.into(),
                "web100_stride must be positive".into(),
            ),
        ] {
            let msg = knob(&block);
            assert!(
                msg.starts_with(&format!("run `x`: {want}")),
                "{block}: {msg}"
            );
        }
        // The `rate_mbps` sweep axis writes `path.rate_mbps`.
        let err = ScenarioSpec::from_json(
            r#"{"name":"t","runs":[{"label":"x","flows":[{}]}],
                "sweep":{"rate_mbps":[100,1e300]}}"#,
        )
        .unwrap()
        .validate()
        .unwrap_err();
        assert!(
            err.msg
                .starts_with(&format!("run `x`: path.rate_mbps {TOO_FAST}")),
            "{}",
            err.msg
        );
    }

    #[test]
    fn ssthreshless_arm_resolves_and_validates_through_the_registry() {
        let spec = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"ssl","flows":[{"cc":{"Ssthreshless":{"gamma_segments":4.0}}}]}]"#,
        ))
        .unwrap();
        let runs = spec.expand().unwrap();
        match runs[0].scenario.flows[0].algo {
            CcAlgorithm::Ssthreshless(cfg) => assert_eq!(cfg.gamma_segments, 4.0),
            ref other => panic!("wrong algo {other:?}"),
        }
        // Default γ when the params block is empty.
        let spec = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"ssl","flows":[{"cc":{"Ssthreshless":{}}}]}]"#,
        ))
        .unwrap();
        match spec.expand().unwrap()[0].scenario.flows[0].algo {
            CcAlgorithm::Ssthreshless(cfg) => assert_eq!(cfg.gamma_segments, 8.0),
            ref other => panic!("wrong algo {other:?}"),
        }
        // Registry validation surfaces as a named spec error.
        let spec = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"bad","flows":[{"cc":{"Ssthreshless":{"gamma_segments":0.0}}}]}]"#,
        ))
        .unwrap();
        let err = spec.validate().unwrap_err();
        assert!(err.msg.contains("run `bad`"), "{}", err.msg);
        assert!(err.msg.contains("gamma_segments"), "{}", err.msg);
    }

    #[test]
    fn fairness_block_defaults_validates_and_names_its_artifact() {
        let spec = ScenarioSpec::from_json(
            r#"{"name":"fair","runs":[{"label":"x","flows":[{},{}]}],
                "fairness":{}}"#,
        )
        .unwrap();
        spec.validate().unwrap();
        let def = spec.fairness.as_ref().unwrap();
        assert_eq!(def.window_s(), 1.0);
        assert_eq!(def.eps(), 0.05);
        assert_eq!(
            spec.fairness_csv_name().as_deref(),
            Some("fairness_fair.csv")
        );
        // No block, no artifact.
        let plain = ScenarioSpec::from_json(&minimal(r#"[{"label":"x","flows":[{}]}]"#)).unwrap();
        assert_eq!(plain.fairness_csv_name(), None);
        // Overrides stick.
        let spec = ScenarioSpec::from_json(
            r#"{"name":"fair","runs":[{"label":"x","flows":[{}]}],
                "fairness":{"window_s":0.5,"eps":0.1,"csv":"f.csv"}}"#,
        )
        .unwrap();
        let def = spec.fairness.as_ref().unwrap();
        assert_eq!(def.window_s(), 0.5);
        assert_eq!(def.eps(), 0.1);
        assert_eq!(spec.fairness_csv_name().as_deref(), Some("f.csv"));
        // Out-of-range knobs are semantic errors, caught by validate.
        for bad in [
            r#"{"name":"f","runs":[{"label":"x","flows":[{}]}],"fairness":{"window_s":0}}"#,
            r#"{"name":"f","runs":[{"label":"x","flows":[{}]}],"fairness":{"eps":1.0}}"#,
            r#"{"name":"f","runs":[{"label":"x","flows":[{}]}],"fairness":{"eps":-0.5}}"#,
        ] {
            let spec = ScenarioSpec::from_json(bad).unwrap();
            let err = spec.validate().unwrap_err();
            assert!(err.msg.contains("fairness."), "{}", err.msg);
        }
    }

    #[test]
    fn truncated_input_is_reported() {
        let err = ScenarioSpec::from_json("{\"name\":\"t\",\n\"runs\":[").unwrap_err();
        assert!(
            err.msg.contains("truncated") || err.msg.contains("end of input"),
            "{}",
            err.msg
        );
        assert!(err.msg.contains("line 2"), "{}", err.msg);
    }

    #[test]
    fn sweep_expands_in_declared_order_and_sets_both_rates() {
        let spec = ScenarioSpec::from_json(
            r#"{"name":"grid",
                "runs":[{"label":"std","flows":[{}],"auto_rwnd":true},
                        {"label":"rss","flows":[{"cc":{"Restricted":{}}}],"auto_rwnd":true}],
                "sweep":{"rate_mbps":[10,1000],"rtt_ms":[10,120]}}"#,
        )
        .unwrap();
        assert_eq!(spec.cells(), 4);
        let runs = spec.expand().unwrap();
        assert_eq!(runs.len(), 8);
        // rate outermost: cells 0,1 at 10 Mbit/s; runs alternate std/rss.
        assert_eq!(runs[0].scenario.path.rate_bps, 10_000_000);
        assert_eq!(runs[0].scenario.host.nic_rate_bps, 10_000_000);
        assert_eq!(runs[0].scenario.path.rtt, SimDuration::from_millis(10));
        assert_eq!(runs[3].scenario.path.rtt, SimDuration::from_millis(120));
        assert_eq!(runs[4].scenario.path.rate_bps, 1_000_000_000);
        assert_eq!(runs[0].cell, 0);
        assert_eq!(runs[1].cell, 0);
        assert_eq!(runs[2].cell, 1);
        // auto_rwnd applies after the sweep override.
        let big = &runs[7].scenario; // 1 Gbit/s, 120 ms
        assert_eq!(big.tcp.rwnd, 4 * big.path.bdp_bytes());
    }

    #[test]
    fn gridftp_stripes_and_retunes_per_stream() {
        let spec = ScenarioSpec::from_json(
            r#"{"name":"g",
                "runs":[{"label":"rss","shared_sender_host":true,"stop_when_complete":true,
                         "gridftp":{"total_bytes":104857600,"streams":4,
                                    "cc":{"Restricted":{"tuning":"PerStream"}}}}],
                "sweep":{"streams":[1,4]}}"#,
        )
        .unwrap();
        let runs = spec.expand().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].scenario.flows.len(), 1);
        assert_eq!(runs[1].scenario.flows.len(), 4);
        let total: u64 = runs[1]
            .scenario
            .flows
            .iter()
            .map(|f| f.bytes.unwrap())
            .sum();
        assert_eq!(total, 104857600);
        // Per-stream tuning divides the rate by the stream count.
        let expect = RssConfig::tuned_for(100_000_000 / 4, 1500);
        match runs[1].scenario.flows[0].algo {
            CcAlgorithm::Restricted(cfg) => assert_eq!(cfg, expect),
            ref other => panic!("wrong algo {other:?}"),
        }
    }

    #[test]
    fn semantic_errors_name_the_run() {
        let spec = ScenarioSpec::from_json(&minimal(r#"[{"label":"broken","flows":[]}]"#)).unwrap();
        let err = spec.validate().unwrap_err();
        assert!(err.msg.contains("run `broken`"), "{}", err.msg);
        let spec = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"a","flows":[{}]},{"label":"a","flows":[{}]}]"#,
        ))
        .unwrap();
        assert!(spec
            .validate()
            .unwrap_err()
            .msg
            .contains("duplicate run label"));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ScenarioSpec::from_json(
            r#"{"name":"rt","comment":"round trip",
                "runs":[{"label":"x","flows":[{"cc":{"Limited":{"max_ssthresh":100000}},
                         "bytes":5000,"start_s":0.25}],
                         "tcp":{"stall_response":"RestartFromOne"},
                         "duration_s":1.5,"seed":7}],
                "sweep":{"rtt_ms":[10,20]},
                "output":{"json":"rt.json"}}"#,
        )
        .unwrap();
        let json = serde::to_json_string(&spec);
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn results_csv_is_deterministic_and_complete() {
        let spec = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"std","flows":[{}],
                 "path":{"rate_mbps":10,"rtt_ms":10},"duration_s":0.5}]"#,
        ))
        .unwrap();
        let runs = spec.expand().unwrap();
        let reports: Vec<RunReport> = runs.iter().map(|r| crate::run(&r.scenario)).collect();
        let a = results_csv(&spec, &runs, &reports);
        let b = results_csv(&spec, &runs, &reports);
        assert_eq!(a, b);
        let mut lines = a.lines();
        assert_eq!(
            lines.next(),
            Some(
                "scenario,run,cell,rate_mbps,rtt_ms,txqueuelen,seed,flows,flow,algo,\
                 goodput_bps,utilization,send_stalls,congestion_signals,max_cwnd_bytes,\
                 data_bytes_out,thru_bytes_acked,completed_s"
            )
        );
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), 1, "{a}");
        assert!(
            rows[0].starts_with("t,std,0,10,10,100,1,1,0,standard,"),
            "{a}"
        );
        // 18 cells; a bulk flow never completes, so the last one is empty.
        assert_eq!(rows[0].split(',').count(), 18, "{a}");
        assert!(rows[0].ends_with(','), "{a}");
    }

    #[test]
    fn runs_csv_has_one_row_per_expanded_run() {
        let spec = ScenarioSpec::from_json(&format!(
            "{{\"name\":\"t\",\"runs\":{},\"sweep\":{{\"seed\":[3,4]}}}}",
            r#"[{"label":"full","flows":[{}],"path":{"rate_mbps":10,"rtt_ms":10},
                 "duration_s":0.5},
                {"label":"cut","flows":[{}],"path":{"rate_mbps":10,"rtt_ms":10},
                 "duration_s":0.5,"max_sim_time_s":0.25}]"#
        ))
        .unwrap();
        let runs = spec.expand().unwrap();
        let reports: Vec<RunReport> = runs.iter().map(|r| crate::run(&r.scenario)).collect();
        let csv = runs_csv(&spec, &runs, &reports);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("scenario,run,cell,seed,events,end_s,truncated")
        );
        let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
        assert_eq!(rows.len(), runs.len());
        for ((row, er), report) in rows.iter().zip(&runs).zip(&reports) {
            assert_eq!(
                row[..4],
                [
                    "t",
                    &er.label,
                    &er.cell.to_string(),
                    &er.scenario.seed.to_string()
                ]
            );
            assert_eq!(row[4], report.events_processed.to_string());
            assert_eq!(row[5].parse::<f64>().unwrap(), report.duration_s);
            assert_eq!(row[6], report.truncated.as_deref().unwrap_or(""));
        }
        let cut: Vec<&Vec<&str>> = rows.iter().filter(|r| r[1] == "cut").collect();
        assert_eq!(cut.len(), 2);
        assert!(cut
            .iter()
            .all(|r| r[5] == "0.25" && r[6].starts_with("max_sim_time")));
        assert!(rows
            .iter()
            .filter(|r| r[1] == "full")
            .all(|r| r[5] == "0.5" && r[6].is_empty()));
    }

    fn with_shards(shards_json: &str) -> String {
        format!(
            r#"{{"name":"t","shards":{shards_json},
                "runs":[{{"label":"x","flows":[{{}}]}}]}}"#
        )
    }

    #[test]
    fn shards_accepts_counts_and_auto() {
        let spec = ScenarioSpec::from_json(&with_shards("4")).unwrap();
        assert_eq!(spec.shards, Some(ShardsDef::Count(4)));
        let runs = spec.expand().unwrap();
        assert_eq!(runs[0].scenario.shards, Some(4));

        let spec = ScenarioSpec::from_json(&with_shards("\"auto\"")).unwrap();
        assert_eq!(spec.shards, Some(ShardsDef::Auto));
        let runs = spec.expand().unwrap();
        assert!(runs[0].scenario.shards.unwrap() >= 1);

        // Omitted: one domain under one engine.
        let spec = ScenarioSpec::from_json(&minimal(r#"[{"label":"x","flows":[{}]}]"#)).unwrap();
        assert_eq!(spec.shards, None);
        assert_eq!(spec.expand().unwrap()[0].scenario.shards, None);
    }

    #[test]
    fn shards_rejects_zero_noninteger_and_other_strings() {
        for bad in ["0", "2.5", "\"many\"", "-1", "true", "4294967296"] {
            let err = ScenarioSpec::from_json(&with_shards(bad)).unwrap_err();
            assert!(err.msg.contains("at $.shards"), "{bad}: {}", err.msg);
            assert!(
                err.msg.contains("expected positive integer or \"auto\""),
                "{bad}: {}",
                err.msg
            );
        }
    }

    #[test]
    fn shards_round_trips_through_json() {
        for json in [&with_shards("8"), &with_shards("\"auto\"")] {
            let spec = ScenarioSpec::from_json(json).unwrap();
            let back = ScenarioSpec::from_json(&serde::to_json_string(&spec)).unwrap();
            assert_eq!(spec, back);
        }
    }

    #[test]
    fn sharded_specs_reject_geometry_without_lookahead() {
        // rtt 30 µs with the default 10 µs access delay leaves no haul
        // delay, hence no lookahead window.
        let err = ScenarioSpec::from_json(
            r#"{"name":"t","shards":2,
                "runs":[{"label":"x","flows":[{}],"path":{"rtt_ms":0.03}}]}"#,
        )
        .unwrap()
        .expand()
        .unwrap_err();
        assert!(err.msg.contains("run `x`"), "{}", err.msg);
        assert!(
            err.msg.contains("0 < 4 x access_delay < rtt"),
            "{}",
            err.msg
        );
        // The same geometry without `shards` stays valid (one engine waits
        // for nobody, so it needs no lookahead).
        ScenarioSpec::from_json(
            r#"{"name":"t","runs":[{"label":"x","flows":[{}],"path":{"rtt_ms":0.03}}]}"#,
        )
        .unwrap()
        .expand()
        .unwrap();
    }

    #[test]
    fn flow_count_replicates_and_validates() {
        let spec = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"many","flows":[{"count":3},{"cc":"HighSpeed"}]}]"#,
        ))
        .unwrap();
        let sc = &spec.expand().unwrap()[0].scenario;
        assert_eq!(sc.flows.len(), 4);
        assert!(matches!(sc.flows[0].algo, CcAlgorithm::Reno));
        assert!(matches!(sc.flows[2].algo, CcAlgorithm::Reno));
        assert!(matches!(sc.flows[3].algo, CcAlgorithm::HighSpeed));

        let err = ScenarioSpec::from_json(&minimal(r#"[{"label":"zero","flows":[{"count":0}]}]"#))
            .unwrap()
            .validate()
            .unwrap_err();
        assert!(err.msg.contains("flows[0].count"), "{}", err.msg);
    }

    #[test]
    fn flow_counts_past_the_engine_unit_limit_are_rejected() {
        // Every flow and cross stream may get a host pair, and the pairs
        // plus two hub units must fit the engine's 2^24 scheduling units.
        let at_limit = (MAX_UNITS - 2) as u32;
        let flows = |counts: &str| {
            let defs: Vec<String> = counts
                .split(',')
                .map(|c| format!(r#"{{"count":{c}}}"#))
                .collect();
            ScenarioSpec::from_json(&minimal(&format!(
                r#"[{{"label":"huge","flows":[{}]}}]"#,
                defs.join(",")
            )))
            .unwrap()
        };
        // At the limit the count is accepted; checked without expanding, which
        // would allocate 2^24 flows.
        let spec = flows(&format!("{},1", at_limit - 1));
        let defs = spec.runs[0].flows.as_deref().unwrap();
        assert_eq!(total_flows(defs, max_flows(0)).unwrap(), at_limit);
        // One cross stream takes one host pair from the flows.
        assert!(total_flows(defs, max_flows(1)).is_err());
        // One past it is a spec error naming the run and `flows`.
        let err = flows(&format!("{at_limit},1")).validate().unwrap_err();
        assert!(err.msg.contains("run `huge`: flows:"), "{}", err.msg);
        assert!(
            err.msg.contains(&format!("at most {at_limit} flows")),
            "{}",
            err.msg
        );
        // GridFTP streams are flows too.
        let err = ScenarioSpec::from_json(&minimal(&format!(
            r#"[{{"label":"striped","gridftp":{{"total_bytes":1000000000000,
                  "streams":{},"cc":"Standard"}}}}]"#,
            at_limit + 1
        )))
        .unwrap()
        .validate()
        .unwrap_err();
        assert!(
            err.msg.contains("run `striped`: gridftp.streams:"),
            "{}",
            err.msg
        );
    }

    #[test]
    fn flow_counts_that_overflow_are_rejected_before_any_allocation() {
        // Two u32::MAX counts used to saturate to one 2^32-flow allocation
        // and abort `rss validate`.
        let spec = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"overflow","flows":[{"count":4294967295},{"count":4294967295}]}]"#,
        ))
        .unwrap();
        let err = spec.validate().unwrap_err();
        assert!(err.msg.contains("run `overflow`: flows:"), "{}", err.msg);
    }

    #[test]
    fn access_delay_is_validated_and_applied() {
        let spec = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"x","flows":[{}],"path":{"access_delay_us":1000}}]"#,
        ))
        .unwrap();
        let sc = &spec.expand().unwrap()[0].scenario;
        assert_eq!(sc.path.access_delay, SimDuration::from_micros(1000));

        let err = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"x","flows":[{}],"path":{"access_delay_us":0}}]"#,
        ))
        .unwrap()
        .validate()
        .unwrap_err();
        assert!(err.msg.contains("path.access_delay"), "{}", err.msg);
    }

    #[test]
    fn empty_red_block_expands_to_the_default_red_queue() {
        let block = ScenarioSpec::from_json(&minimal(
            r#"[{"label":"x","flows":[{}],"queue":{"Red":{}}}]"#,
        ))
        .unwrap();
        let sc = &block.expand().unwrap()[0].scenario;
        assert!(matches!(sc.queue, QueueDiscipline::Red(_)));
        let d = RedParams::for_capacity(sc.path.router_queue_pkts);
        assert_eq!(sc.queue.red_params(), Some(&d));
        // An absent `queue` means drop-tail.
        let sc = &ScenarioSpec::from_json(&minimal(r#"[{"label":"x","flows":[{}]}]"#))
            .unwrap()
            .expand()
            .unwrap()[0]
            .scenario;
        assert_eq!(sc.queue, QueueDiscipline::DropTail);
    }

    #[test]
    fn queue_knobs_are_validated_with_their_json_path() {
        for (knob, fragment, detail) in [
            (
                "queue.Red.min_th",
                r#"{"Red":{"min_th":80,"max_th":20}}"#,
                "must be below",
            ),
            (
                "queue.Red.min_th",
                r#"{"Red":{"min_th":-1}}"#,
                "non-negative",
            ),
            ("queue.Red.wq", r#"{"Red":{"w_q":0}}"#, "in (0, 1]"),
            ("queue.Red.wq", r#"{"Red":{"w_q":1.5}}"#, "in (0, 1]"),
            ("queue.Red.max_p", r#"{"Red":{"max_p":0}}"#, "in (0, 1]"),
            (
                "queue.RedEcn.max_p",
                r#"{"RedEcn":{"max_p":2}}"#,
                "in (0, 1]",
            ),
            (
                "queue.RedEcn.min_th",
                r#"{"RedEcn":{"min_th":30,"max_th":30}}"#,
                "must be below",
            ),
            ("queue.RedEcn.wq", r#"{"RedEcn":{"w_q":0}}"#, "in (0, 1]"),
            (
                "queue.RedEcn.min_th",
                r#"{"RedEcn":{"min_th":-5}}"#,
                "non-negative",
            ),
            ("queue.Red.max_p", r#"{"Red":{"max_p":1.5}}"#, "in (0, 1]"),
        ] {
            let doc = minimal(&format!(
                r#"[{{"label":"x","flows":[{{}}],"queue":{fragment}}}]"#
            ));
            let err = ScenarioSpec::from_json(&doc).unwrap().expand().unwrap_err();
            assert!(err.msg.contains(knob), "missing `{knob}` in: {}", err.msg);
            assert!(
                err.msg.contains(detail),
                "missing `{detail}` in: {}",
                err.msg
            );
        }
        // Unknown discipline names get the open-enum treatment.
        let err =
            ScenarioSpec::from_json(&minimal(r#"[{"label":"x","flows":[{}],"queue":"Codel"}]"#))
                .unwrap_err();
        assert!(err.msg.contains("unknown variant `Codel`"), "{}", err.msg);
    }

    #[test]
    fn only_a_red_ecn_queue_makes_flows_ecn_capable() {
        // One flow at 200 Mbit/s into a 20 Mbit/s bottleneck of 50 packets:
        // the RED queues act on it. Under `RedEcn` its data segments are ECT,
        // so the queue marks them and the sender hears the echoes; a `Red`
        // queue marks nothing (it drops), and neither does drop-tail.
        let run = |queue: &str| {
            let spec = ScenarioSpec::from_json(&minimal(&format!(
                r#"[{{"label":"x","flows":[{{}}],"duration_s":2,"queue":{queue},
                     "path":{{"rate_mbps":20,"rtt_ms":10,"access_rate_mbps":200,
                              "router_queue_pkts":50}},
                     "host":{{"nic_rate_mbps":200}}}}]"#
            )))
            .unwrap();
            let report = crate::run(&spec.expand().unwrap()[0].scenario);
            (report.router_ecn_marks, report.flows[0].vars.ecn_echoes)
        };
        let (marks, echoes) = run(r#"{"RedEcn":{}}"#);
        assert!(
            marks > 0 && echoes > 0,
            "RedEcn: {marks} marks, {echoes} echoes"
        );
        for queue in [r#"{"Red":{}}"#, r#""DropTail""#] {
            assert_eq!(run(queue), (0, 0), "{queue}");
        }
    }

    #[test]
    fn queue_block_round_trips_through_json() {
        for queue in [
            r#""DropTail""#,
            r#"{"Red":{"min_th":10,"max_th":40,"w_q":0.005,"max_p":0.2,"gentle":true}}"#,
            r#"{"Red":{}}"#,
            r#"{"RedEcn":{"min_th":5}}"#,
        ] {
            let doc = minimal(&format!(
                r#"[{{"label":"x","flows":[{{}}],"queue":{queue}}}]"#
            ));
            let spec = ScenarioSpec::from_json(&doc).unwrap();
            let json = serde::to_json_string(&spec);
            let back = ScenarioSpec::from_json(&json).unwrap();
            assert_eq!(spec, back);
            assert_eq!(json, serde::to_json_string(&back));
        }
    }
}
