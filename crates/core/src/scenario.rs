//! Experiment scenarios: everything needed to reproduce one run.
//!
//! [`Scenario::paper_testbed`] encodes §4 of the paper: a 100 Mbit/s path
//! with 60 ms RTT, a Linux-2.4-style sending host (`txqueuelen` 100), one
//! bulk flow, a 25-second horizon.

use rss_host::HostConfig;
use rss_net::{ImpairmentConfig, QueueConfig, RedConfig, TrafficPattern};
use rss_sim::{SimDuration, SimTime, MAX_UNITS};
use rss_tcp::{CcAlgorithm, RssConfig, TcpConfig};
use std::fmt::Display;

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
    /// dropping them. The flows are ECN-capable exactly under this
    /// discipline: their data segments carry ECT.
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

    /// True when the bottleneck CE-marks instead of dropping, and with that
    /// when the flows are ECN-capable.
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
    /// Bytes the application writes, all at the start (`None` = unbounded,
    /// until the run ends).
    pub bytes: Option<u64>,
    /// When the flow starts.
    pub start: SimTime,
}

impl FlowSpec {
    /// An unbounded bulk flow starting at t = 0.
    pub fn bulk(algo: CcAlgorithm) -> Self {
        FlowSpec {
            algo,
            bytes: None,
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
    /// driver has no budget ([`Scenario::check`] rejects the combination),
    /// so bound those runs with `max_sim_time`.
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

    /// Builder: replace the bottleneck queue discipline.
    pub fn with_queue(mut self, queue: QueueDiscipline) -> Self {
        self.queue = queue;
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
        self.cross_pair(self.cross.len())
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

    /// Judge every value of the scenario, or name the field at fault by its
    /// path in this type (`tcp.rwnd`, `haul_impairment.flap.mean_up`) and
    /// say why. The only judge of a scenario's values: [`crate::try_run`]
    /// and [`crate::World::build`] call it before anything is built, and a
    /// scenario file's runs once their numbers are converted. A scenario
    /// that passes cannot panic, livelock or idle because of a value it
    /// holds. Congestion control is judged where it is built
    /// ([`rss_cc::registry::validate`]), not here.
    pub fn check(&self) -> Result<(), String> {
        let (p, h, t) = (&self.path, &self.host, &self.tcp);
        for (n, path) in [
            (p.rate_bps, "path.rate_bps"),
            (p.access_rate_bps.unwrap_or(1), "path.access_rate_bps"),
            (p.router_queue_pkts.into(), "path.router_queue_pkts"),
            (h.nic_rate_bps, "host.nic_rate_bps"),
            (h.txqueuelen.into(), "host.txqueuelen"),
            (h.mtu.into(), "host.mtu"),
            (t.mss.into(), "tcp.mss"),
            (t.initial_cwnd_mss.into(), "tcp.initial_cwnd_mss"),
            (self.web100_stride.into(), "web100_stride"),
            (self.max_events.unwrap_or(1), "max_events"),
        ] {
            Positive.count(n, path)?;
        }
        // The count is raised before it is compared, so 0 never fires.
        AtLeastOne.count(t.dupack_threshold, "tcp.dupack_threshold")?;
        let clamp = self.max_sim_time.unwrap_or(self.duration);
        for (d, positive, path) in [
            (p.rtt, false, "path.rtt"),
            (p.access_delay, true, "path.access_delay"),
            (t.max_rto, false, "tcp.max_rto"),
            (t.stall_retry, true, "tcp.stall_retry"),
            (self.duration, true, "duration"),
            (self.sample_interval, true, "sample_interval"),
            (clamp, true, "max_sim_time"),
        ] {
            time(d.as_nanos(), positive, path)?;
        }
        Prob.check(p.loss_prob, "path.loss_prob")?;
        if let Some(red) = self.queue.red_params() {
            let at = ["queue.Red", "queue.RedEcn"][usize::from(self.queue.ecn_marking())];
            NonNegative.check(red.min_th, &format!("{at}.min_th"))?;
            if !red.max_th.is_finite() || red.min_th >= red.max_th {
                return Err(format!(
                    "{at}.min_th must be below {at}.max_th, got {} >= {}",
                    red.min_th, red.max_th
                ));
            }
            UpToOne.check(red.wq, &format!("{at}.wq"))?;
            UpToOne.check(red.max_p, &format!("{at}.max_p"))?;
        }
        if t.mss.checked_add(t.header_bytes).is_none() {
            return Err(format!(
                "tcp.header_bytes: tcp.mss + tcp.header_bytes must fit the u32 wire size, \
                 got {} + {}",
                t.mss, t.header_bytes
            ));
        }
        // The silly-window rule never sends into a window below one MSS.
        if t.rwnd < u64::from(t.mss) {
            return Err(format!(
                "tcp.rwnd: the receive window ({} bytes) must hold one tcp.mss ({} bytes)",
                t.rwnd, t.mss
            ));
        }
        // A zero RTO floor re-arms the retransmission check at the instant
        // it fires, forever.
        if t.min_rto < SimDuration::from_millis(1) {
            let got = ms(t.min_rto);
            return Err(format!("tcp.min_rto must be at least 1 ms, got {got}"));
        }
        if t.max_rto < t.min_rto {
            let (min, max) = (ms(t.min_rto), ms(t.max_rto));
            return Err(format!(
                "tcp.max_rto must be at least tcp.min_rto ({min}), got {max}"
            ));
        }

        let max = max_flows(self.cross.len());
        if self.flows.len() > max as usize {
            return Err(too_many_flows("flows", max));
        }
        for (i, f) in self.flows.iter().enumerate() {
            time(f.start.as_nanos(), false, format_args!("flows[{i}].start"))?;
        }
        for (j, c) in self.cross.iter().enumerate() {
            check_pattern(&c.pattern, j)?;
            time(c.start.as_nanos(), false, format_args!("cross[{j}].start"))?;
            if let Some(stop) = c.stop {
                time(stop.as_nanos(), false, format_args!("cross[{j}].stop"))?;
            }
        }

        for (at, imp) in [
            ("haul_impairment", &self.haul_impairment),
            ("access_impairment", &self.access_impairment),
        ] {
            if let Some(imp) = imp {
                check_impairment(imp, at)?;
            }
        }
        let horizon = clamp.min(self.duration);
        let interval = self.sample_interval.as_nanos();
        if u128::from(horizon.as_nanos()) > u128::from(interval) * u128::from(MAX_SAMPLES) {
            return Err(format!(
                "sample_interval: a {} s horizon over {} is {} samples per series, \
                 past the {MAX_SAMPLES} (2^20) a run may take",
                horizon.as_secs_f64(),
                ms(self.sample_interval),
                horizon.as_nanos() as f64 / interval as f64,
            ));
        }

        // The windowed driver has no event budget (`max_sim_time` bounds a
        // sharded run), and it needs a positive lookahead.
        if self.shards.is_some() {
            if self.max_events.is_some() {
                return Err("max_events: not supported with shards; use max_sim_time".into());
            }
            if crate::shard::lookahead(self) == SimDuration::ZERO {
                return Err(format!(
                    "path.access_delay: sharded runs need 0 < 4 x access_delay < rtt \
                     (access_delay {:?}, rtt {:?})",
                    p.access_delay, p.rtt
                ));
            }
        }
        Ok(())
    }
}

/// The most samples one sampled series may take: the run's horizon
/// (`duration`, clamped by `max_sim_time`) over `sample_interval`. The
/// paper testbed takes 2 500.
const MAX_SAMPLES: u64 = 1 << 20;

/// Every time and duration lies below this many nanoseconds (2^62, about
/// 146 years), so a time inside the horizon plus any one of them —
/// `now + stall_retry`, or `now + rto` with the RTO clamped to `max_rto` —
/// stays under 2^63 and never overflows the clock's `u64`.
const KNOB_NS_LIMIT: u64 = 1 << 62;

/// A time shown in milliseconds, as `<x> ms`.
fn ms(d: SimDuration) -> String {
    format!("{} ms", d.as_nanos() as f64 / 1e6)
}

/// A time of `ns` nanoseconds: under [`KNOB_NS_LIMIT`], and not 0 when
/// `positive`.
fn time(ns: u64, positive: bool, path: impl Display) -> Result<(), String> {
    if positive && ns == 0 {
        return Err(not_whole_ns(path, 0));
    }
    if ns >= KNOB_NS_LIMIT {
        return Err(too_long(path, ms(SimDuration::from_nanos(ns))));
    }
    Ok(())
}

/// The message of a time under 1 ns that must be positive; `x` as written.
pub(crate) fn not_whole_ns(path: impl Display, x: impl Display) -> String {
    format!("{path} must be positive (at least 1 ns), got {x}")
}

/// The message of a time at or past [`KNOB_NS_LIMIT`]; `x` as written.
pub(crate) fn too_long(path: impl Display, x: impl Display) -> String {
    format!("{path} must be under 2^62 ns (about 146 years), got {x}")
}

/// The range a numeric value must lie in. Each range has one message, so a
/// rule reads the same for every value it applies to.
#[derive(Clone, Copy)]
pub(crate) enum Range {
    Positive,
    NonNegative,
    Prob,
    UpToOne,
    Open,
    AtLeastOne,
}

pub(crate) use Range::{AtLeastOne, NonNegative, Open, Positive, Prob, UpToOne};

impl Range {
    /// `Ok` when `x` lies in the range (NaN lies in none), else the one
    /// message of a value out of range: "`<path> must be <range>, got <x>`".
    pub(crate) fn check(self, x: f64, path: &str) -> Result<(), String> {
        self.holds(x)
            .map_err(|name| format!("{path} must be {name}, got {x}"))
    }

    /// An integer count, kept off 0 by the range (`Positive` or
    /// `AtLeastOne`). The message shows no value: 0 is its only bad one.
    pub(crate) fn count<T: Copy + Into<u64>>(self, n: T, path: &str) -> Result<T, String> {
        let holds = self.holds(n.into() as f64);
        holds
            .map(|()| n)
            .map_err(|name| format!("{path} must be {name}"))
    }

    fn holds(self, x: f64) -> Result<(), &'static str> {
        let (holds, name) = match self {
            Positive => (x.is_finite() && x > 0.0, "positive"),
            NonNegative => (x.is_finite() && x >= 0.0, "non-negative"),
            Prob => ((0.0..=1.0).contains(&x), "in [0, 1]"),
            UpToOne => (x > 0.0 && x <= 1.0, "in (0, 1]"),
            Open => (x > 0.0 && x < 1.0, "in (0, 1)"),
            AtLeastOne => (x >= 1.0, "at least 1"),
        };
        holds.then_some(()).ok_or(name)
    }
}

/// One link family's impairment, its fields named under `at`.
fn check_impairment(imp: &ImpairmentConfig, at: &str) -> Result<(), String> {
    let prob = |x, knob: &str| Prob.check(x, &format!("{at}.{knob}"));
    let time = |ns, positive, knob: &str| time(ns, positive, format_args!("{at}.{knob}"));
    if let Some(b) = imp.burst_loss {
        prob(b.p_good_to_bad, "burst_loss.p_good_to_bad")?;
        prob(b.p_bad_to_good, "burst_loss.p_bad_to_good")?;
        prob(b.loss_good, "burst_loss.loss_good")?;
        prob(b.loss_bad, "burst_loss.loss_bad")?;
    }
    for (k, o) in imp.outages.iter().enumerate() {
        time(o.start.as_nanos(), false, &format!("outages[{k}].start"))?;
        time(
            o.duration.as_nanos(),
            true,
            &format!("outages[{k}].duration"),
        )?;
    }
    if let Some(f) = imp.flap {
        time(f.mean_up.as_nanos(), true, "flap.mean_up")?;
        time(f.mean_down.as_nanos(), true, "flap.mean_down")?;
    }
    if let Some(j) = imp.jitter {
        prob(j.prob, "jitter.prob")?;
        time(j.max.as_nanos(), false, "jitter.max")?;
    }
    prob(imp.duplicate_prob, "duplicate_prob")?;
    Ok(())
}

/// Check cross stream `j`'s `pattern` against what
/// [`rss_net::TrafficSource`] can run, naming the field at fault as
/// `cross[j].pattern.<Variant>.<field>`: a rate and a packet size of at
/// least 1, a mean gap `pkt_size·8/rate_bps` of at least 1 ns (below that
/// the source emits about once a nanosecond or faster, for the whole run),
/// and OnOff means that are positive and under 2^62 ns (a draw from a
/// larger mean can overflow to infinity), with an on-period mean of at
/// least a thousandth of the packet gap (the source draws on-periods until
/// one packet's gap of on-time has accrued, about gap / `on_mean_s` draws
/// per packet).
fn check_pattern(pattern: &TrafficPattern, j: usize) -> Result<(), String> {
    let (variant, rate_bps, pkt_size, means) = match *pattern {
        TrafficPattern::Cbr { rate_bps, pkt_size } => ("Cbr", rate_bps, pkt_size, None),
        TrafficPattern::Poisson { rate_bps, pkt_size } => ("Poisson", rate_bps, pkt_size, None),
        TrafficPattern::OnOff {
            rate_bps,
            pkt_size,
            on_mean_s,
            off_mean_s,
        } => ("OnOff", rate_bps, pkt_size, Some((on_mean_s, off_mean_s))),
    };
    let field = |name: &str| format!("cross[{j}].pattern.{variant}.{name}");
    let (rate, gap) = (field("rate_bps"), format!("{pkt_size}·8/{rate_bps} s"));
    if rate_bps == 0 {
        return Err(format!("{rate} must be at least 1 bit/s, got 0"));
    }
    if pkt_size == 0 {
        return Err(format!(
            "{} must be at least 1 byte, got 0",
            field("pkt_size")
        ));
    }
    if u128::from(pkt_size) * 8 * 1_000_000_000 < u128::from(rate_bps) {
        return Err(format!(
            "{rate}: the mean gap pkt_size·8/rate_bps must be at least 1 ns, got {gap}"
        ));
    }
    let Some((on_mean_s, off_mean_s)) = means else {
        return Ok(());
    };
    for (name, mean) in [("on_mean_s", on_mean_s), ("off_mean_s", off_mean_s)] {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(format!(
                "{} must be positive and finite, got {mean}",
                field(name)
            ));
        }
        if mean * 1e9 >= KNOB_NS_LIMIT as f64 {
            return Err(too_long(field(name), mean));
        }
    }
    if on_mean_s < pkt_size as f64 * 8.0 / rate_bps as f64 / 1000.0 {
        return Err(format!(
            "{} must be at least a thousandth of the packet gap pkt_size·8/rate_bps = {gap}, \
             got {on_mean_s}",
            field("on_mean_s")
        ));
    }
    Ok(())
}

/// The most flows a run with `n_cross` cross streams may hold. Every flow
/// and cross stream may get its own host pair, and the pairs plus the two
/// hub units must fit the engine's [`MAX_UNITS`] scheduling units.
pub(crate) fn max_flows(n_cross: usize) -> u32 {
    (MAX_UNITS - 2).saturating_sub(n_cross) as u32
}

/// The message of a run past [`max_flows`]; `what` names the field.
pub(crate) fn too_many_flows(what: &str, max: u32) -> String {
    format!(
        "{what}: this run holds at most {max} flows (a host pair per flow and \
         cross stream, plus 2 hub units, in the engine's {MAX_UNITS} scheduling units)"
    )
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
