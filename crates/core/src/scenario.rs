//! Experiment scenarios: everything needed to reproduce one run.
//!
//! [`Scenario::paper_testbed`] encodes §4 of the paper: a 100 Mbit/s path
//! with 60 ms RTT, a Linux-2.4-style sending host (`txqueuelen` 100), one
//! bulk flow, a 25-second horizon.

use rss_host::HostConfig;
use rss_net::{ImpairmentConfig, QueueConfig, RedConfig, TrafficPattern};
use rss_sim::{SimDuration, SimTime};
use rss_tcp::{CcAlgorithm, RssConfig, TcpConfig};
use rss_workload::AppModel;

/// RED parameters at scenario level (thresholds in packets). Mirrors
/// [`rss_net::RedConfig`] minus the storage/idle-compensation fields the
/// world derives from the path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedParams {
    /// Average-queue threshold below which nothing is dropped or marked.
    pub min_th: f64,
    /// Start of the forced-drop region (or of the gentle ramp).
    pub max_th: f64,
    /// EWMA weight for the average queue size.
    pub wq: f64,
    /// Drop/mark probability at `max_th`.
    pub max_p: f64,
    /// Gentle mode: `max_p`→1 ramp over `(max_th, 2·max_th)` instead of a
    /// cliff at `max_th`.
    pub gentle: bool,
}

impl RedParams {
    /// The ns-2 style defaults for a queue of `cap` packets, read from
    /// [`rss_net::RedConfig::for_capacity`]; an empty `{"Red": {}}` spec
    /// block resolves to exactly these.
    pub fn for_capacity(cap: u32) -> Self {
        let c = RedConfig::for_capacity(cap, SimDuration::ZERO);
        RedParams {
            min_th: c.min_th,
            max_th: c.max_th,
            wq: c.wq,
            max_p: c.max_p,
            gentle: c.gentle,
        }
    }
}

/// Queue discipline on the bottleneck router egress ports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueDiscipline {
    /// Plain drop-tail FIFO (the paper's testbed; the default).
    DropTail,
    /// RED early dropping with the given parameters.
    Red(RedParams),
    /// RED with ECN: in-band decisions CE-mark ECT packets instead of
    /// dropping them.
    RedEcn(RedParams),
}

impl QueueDiscipline {
    /// The RED parameters, when the discipline is a RED variant.
    pub fn red_params(&self) -> Option<&RedParams> {
        match self {
            QueueDiscipline::DropTail => None,
            QueueDiscipline::Red(p) | QueueDiscipline::RedEcn(p) => Some(p),
        }
    }

    /// True when the bottleneck CE-marks instead of dropping.
    pub fn ecn_marking(&self) -> bool {
        matches!(self, QueueDiscipline::RedEcn(_))
    }

    /// The [`rss_net::RedConfig`] to install on a bottleneck port of `cap`
    /// packets whose small-packet transmission time is `mean_pkt_time`;
    /// `None` for drop-tail.
    pub fn to_red_config(&self, cap: u32, mean_pkt_time: SimDuration) -> Option<RedConfig> {
        self.red_params().map(|p| RedConfig {
            min_th: p.min_th,
            max_th: p.max_th,
            max_p: p.max_p,
            wq: p.wq,
            capacity: QueueConfig::packets(cap),
            mean_pkt_time,
            gentle: p.gentle,
            ecn: self.ecn_marking(),
        })
    }
}

/// The network path under test.
#[derive(Debug, Clone, Copy)]
pub struct PathSpec {
    /// Bottleneck/backbone line rate, bits per second.
    pub rate_bps: u64,
    /// Path round-trip propagation time.
    pub rtt: SimDuration,
    /// Router egress queue capacity, packets.
    pub router_queue_pkts: u32,
    /// Independent per-packet loss probability on the long-haul link.
    pub loss_prob: f64,
    /// Access-link rate for all hosts; `None` = same as `rate_bps`, which
    /// makes the sender's own NIC the bottleneck (the paper's regime).
    pub access_rate_bps: Option<u64>,
    /// One-way propagation delay of each access link. The long-haul delay is
    /// derived as `rtt/2 − 2·access_delay`, so this also bounds the windowed
    /// driver's lookahead (`min(access_delay, haul_delay)`).
    pub access_delay: SimDuration,
}

impl Default for PathSpec {
    fn default() -> Self {
        PathSpec {
            rate_bps: 100_000_000,
            rtt: SimDuration::from_millis(60),
            router_queue_pkts: 200,
            loss_prob: 0.0,
            access_rate_bps: None,
            access_delay: SimDuration::from_micros(10),
        }
    }
}

impl PathSpec {
    /// Effective access-link rate.
    pub fn access_rate(&self) -> u64 {
        self.access_rate_bps.unwrap_or(self.rate_bps)
    }

    /// Path bandwidth-delay product in bytes.
    pub fn bdp_bytes(&self) -> u64 {
        (self.rate_bps as u128 * self.rtt.as_nanos() as u128 / 8 / 1_000_000_000) as u64
    }
}

/// One TCP flow in the experiment.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Congestion-control algorithm.
    pub algo: CcAlgorithm,
    /// Application driving the connection.
    pub app: AppModel,
    /// When the flow starts.
    pub start: SimTime,
}

impl FlowSpec {
    /// An unbounded bulk flow starting at t = 0.
    pub fn bulk(algo: CcAlgorithm) -> Self {
        FlowSpec {
            algo,
            app: AppModel::Bulk { bytes: None },
            start: SimTime::ZERO,
        }
    }
}

/// One open-loop cross-traffic stream sharing the bottleneck.
#[derive(Debug, Clone, Copy)]
pub struct CrossSpec {
    /// Arrival process.
    pub pattern: TrafficPattern,
    /// Start time.
    pub start: SimTime,
    /// Stop time (`None` = until the run ends).
    pub stop: Option<SimTime>,
}

/// A complete, reproducible experiment description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Network path.
    pub path: PathSpec,
    /// Sending/receiving host transmit-path configuration.
    pub host: HostConfig,
    /// Transport configuration shared by all flows.
    pub tcp: TcpConfig,
    /// The TCP flows.
    pub flows: Vec<FlowSpec>,
    /// Cross traffic.
    pub cross: Vec<CrossSpec>,
    /// Simulated run length.
    pub duration: SimDuration,
    /// RNG seed (loss, cross traffic).
    pub seed: u64,
    /// Put every flow on one sending host (parallel-stream experiments);
    /// otherwise each flow gets its own host pair.
    pub shared_sender_host: bool,
    /// Periodic sampling interval of the two queue-depth series: flow 0's
    /// sender IFQ and the forward bottleneck queue.
    pub sample_interval: SimDuration,
    /// Thinning stride for the per-connection cwnd series (1 = keep all).
    pub web100_stride: u32,
    /// Stop as soon as every bounded flow completes.
    pub stop_when_complete: bool,
    /// Queue discipline on the bottleneck router ports.
    pub queue: QueueDiscipline,
    /// How many domains the units of the dumbbell — one per host pair plus
    /// one per bottleneck direction, in every run — are grouped into, and
    /// with that the driver (see [`crate::shard`]). `None`: one domain, run
    /// to the horizon by one engine. `Some(n)`: `n` domains on a thread
    /// each, advanced in lockstep lookahead windows. Results are identical
    /// either way and for every `n`.
    pub shards: Option<u32>,
    /// Deterministic impairment on the long-haul link (both directions;
    /// independent random streams per direction, one shared outage
    /// schedule so a flap downs the physical link as a whole).
    pub haul_impairment: Option<ImpairmentConfig>,
    /// Deterministic impairment on every host-pair's access links (each
    /// direction of each leg gets an independent random stream; the two
    /// legs of one pair share an outage schedule).
    pub access_impairment: Option<ImpairmentConfig>,
    /// Watchdog: end the run once this much simulated time has elapsed even
    /// if `duration` is larger (e.g. `stop_when_complete` runs that can no
    /// longer complete because an outage never lifts). A run ended by the
    /// watchdog reports `truncated` in its [`crate::RunReport`]. It clamps
    /// the horizon, so it holds with and without `shards` and is
    /// shard-count-invariant.
    pub max_sim_time: Option<SimDuration>,
    /// Watchdog: end the run gracefully after this many simulation events
    /// (the engine's `event_budget`); exhaustion is reported as a truncated
    /// run, not a crash. `shards: None` only: the windowed
    /// driver has no budget (the spec layer rejects the combination), so
    /// bound those runs with `max_sim_time`.
    pub max_events: Option<u64>,
}

impl Scenario {
    /// The paper's §4 testbed with a single bulk flow of the given
    /// algorithm: 100 Mbit/s, 60 ms RTT, `txqueuelen` 100, MSS 1448,
    /// 25-second horizon, per-segment ACKs (Linux 2.4 quickack).
    pub fn paper_testbed(algo: CcAlgorithm) -> Scenario {
        Scenario {
            path: PathSpec::default(),
            host: HostConfig {
                nic_rate_bps: 100_000_000,
                txqueuelen: 100,
                mtu: 1500,
            },
            tcp: TcpConfig::default(),
            flows: vec![FlowSpec::bulk(algo)],
            cross: vec![],
            duration: SimDuration::from_secs(25),
            seed: 1,
            shared_sender_host: false,
            sample_interval: SimDuration::from_millis(10),
            web100_stride: 1,
            stop_when_complete: false,
            queue: QueueDiscipline::DropTail,
            shards: None,
            haul_impairment: None,
            access_impairment: None,
            max_sim_time: None,
            max_events: None,
        }
    }

    /// The paper's scheme with default tuned gains on the §4 testbed.
    pub fn paper_testbed_restricted() -> Scenario {
        Self::paper_testbed(CcAlgorithm::Restricted(RssConfig::tuned()))
    }

    /// The standard-TCP baseline on the §4 testbed.
    pub fn paper_testbed_standard() -> Scenario {
        Self::paper_testbed(CcAlgorithm::Reno)
    }

    /// Builder: replace the RTT.
    pub fn with_rtt(mut self, rtt: SimDuration) -> Self {
        self.path.rtt = rtt;
        self
    }

    /// Builder: replace the line rate (path and NICs).
    pub fn with_rate(mut self, bps: u64) -> Self {
        self.path.rate_bps = bps;
        self.host.nic_rate_bps = bps;
        self
    }

    /// Builder: replace `txqueuelen`.
    pub fn with_txqueuelen(mut self, pkts: u32) -> Self {
        self.host.txqueuelen = pkts;
        self
    }

    /// Builder: replace the bottleneck queue discipline. A RED-with-ECN
    /// discipline also switches every flow to ECN ([`TcpConfig::ecn`])
    /// unless the transport config is adjusted afterwards.
    pub fn with_queue(mut self, queue: QueueDiscipline) -> Self {
        self.queue = queue;
        self.tcp.ecn = queue.ecn_marking();
        self
    }

    /// Builder: replace the run length.
    pub fn with_duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Builder: replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: replace the access-link propagation delay.
    pub fn with_access_delay(mut self, d: SimDuration) -> Self {
        self.path.access_delay = d;
        self
    }

    /// Builder: run in `n` domains.
    pub fn with_shards(mut self, n: u32) -> Self {
        self.shards = Some(n);
        self
    }

    /// Builder: size the receive window to the path (4×BDP, floor 2 MB).
    ///
    /// The paper's hosts used a hand-tuned static window adequate for their
    /// 750 kB-BDP path; sweeps that push the BDP beyond that need the same
    /// tuning or the receive window silently becomes the bottleneck.
    pub fn with_auto_rwnd(mut self) -> Self {
        self.tcp.rwnd = (4 * self.path.bdp_bytes()).max(2 * 1024 * 1024);
        self
    }

    /// Number of sender/receiver host pairs the topology needs.
    pub fn host_pairs(&self) -> usize {
        let flow_pairs = if self.shared_sender_host {
            1
        } else {
            self.flows.len().max(1)
        };
        flow_pairs + self.cross.len()
    }

    /// The sender host-pair index used by flow `i`.
    pub fn flow_pair(&self, i: usize) -> usize {
        if self.shared_sender_host {
            0
        } else {
            i
        }
    }

    /// The host-pair index used by cross stream `j`.
    pub fn cross_pair(&self, j: usize) -> usize {
        let flow_pairs = if self.shared_sender_host {
            1
        } else {
            self.flows.len().max(1)
        };
        flow_pairs + j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_matches_section4() {
        let s = Scenario::paper_testbed_standard();
        assert_eq!(s.path.rate_bps, 100_000_000);
        assert_eq!(s.path.rtt, SimDuration::from_millis(60));
        assert_eq!(s.host.txqueuelen, 100);
        assert_eq!(s.duration, SimDuration::from_secs(25));
        assert_eq!(s.flows.len(), 1);
        // BDP: 100 Mbit/s * 60 ms = 750 kB ≈ 518 segments.
        assert_eq!(s.path.bdp_bytes(), 750_000);
    }

    #[test]
    fn builders_apply() {
        let s = Scenario::paper_testbed_standard()
            .with_rtt(SimDuration::from_millis(120))
            .with_rate(1_000_000_000)
            .with_txqueuelen(500)
            .with_duration(SimDuration::from_secs(5))
            .with_seed(9);
        assert_eq!(s.path.rtt, SimDuration::from_millis(120));
        assert_eq!(s.path.rate_bps, 1_000_000_000);
        assert_eq!(s.host.nic_rate_bps, 1_000_000_000);
        assert_eq!(s.host.txqueuelen, 500);
        assert_eq!(s.seed, 9);
    }

    #[test]
    fn host_pair_layout() {
        let mut s = Scenario::paper_testbed_standard();
        s.flows = vec![
            FlowSpec::bulk(CcAlgorithm::Reno),
            FlowSpec::bulk(CcAlgorithm::Reno),
        ];
        s.cross = vec![CrossSpec {
            pattern: TrafficPattern::Cbr {
                rate_bps: 1_000_000,
                pkt_size: 1500,
            },
            start: SimTime::ZERO,
            stop: None,
        }];
        assert_eq!(s.host_pairs(), 3);
        assert_eq!(s.flow_pair(1), 1);
        assert_eq!(s.cross_pair(0), 2);
        s.shared_sender_host = true;
        assert_eq!(s.host_pairs(), 2);
        assert_eq!(s.flow_pair(1), 0);
        assert_eq!(s.cross_pair(0), 1);
    }
}
