//! # rss-cc — congestion control: one window engine and a variant registry
//!
//! The congestion-control layer of the *Restricted Slow-Start for TCP*
//! reproduction. The transport (`rss-tcp`) owns loss detection and
//! retransmission; this crate owns the window. Keeping the layer in its own
//! crate keeps the dependency DAG honest — `rss-cc` sits directly on
//! `rss-sim` (time) and `rss-control` (the PID machinery Restricted
//! Slow-Start needs), so `rss-tcp` does not drag the control library in.
//!
//! The paper changes only the slow-start phase, and most of its comparison
//! set does the same, or changes only congestion avoidance. So every
//! variant but one is the same engine: Reno's window state
//! ([`reno`](mod@reno)) with a *slow-start policy* (standard RFC 5681;
//! [`limited`] RFC 3742; [`hybrid`] HyStart; [`restricted`], the paper's
//! PID-paced growth; [`ssthreshless`], a delay probe) and an *avoidance
//! policy* (Reno's AIMD; [`highspeed`] RFC 3649; [`scalable`] Kelly's MIMD;
//! [`relentless`], decrease by the segments lost). The slow-start policy
//! owns growth below ssthresh and the exit from that phase; the avoidance
//! policy owns growth above it, the cut on each [`CongestionEvent`] and
//! the [`RecoveryEvent`] responses. [`bbr`], a rate-based probe, is the
//! engine's other arm. [`CcEngine::new`] maps each [`CcAlgorithm`] to one
//! (slow-start, avoidance) pair or to BBR; the nine rows of the
//! [`registry`] are the paper's comparison set plus extensions.
//!
//! ## Adding a congestion-control variant
//!
//! A new scheme is a policy arm and a registry row:
//!
//! 1. **Policy arm** — add an arm to `SlowStart` or `Avoidance` in
//!    `reno.rs` and put its rules in `src/<variant>.rs`: functions over the
//!    window state, plus a `Copy + Serialize + Deserialize` config struct if
//!    it has parameters. State of a few words rides inline in the arm;
//!    anything larger is one concrete `Box` (the engine stays within 64
//!    bytes). The compiler then asks the exhaustive per-ACK `match` in
//!    `reno.rs` for the arm's growth; its reactions to congestion and
//!    recovery events go beside the other arms' there. Nothing about
//!    send-stalls: a [`CongestionEvent::LocalStall`] is the
//!    scheme's CWR reduction and a [`CongestionEvent::Timeout`] its restart;
//!    the sender's `stall_response` setting (in `rss-tcp`) picks which of
//!    the two a stall becomes, or keeps it from the engine. Give it
//!    phase-transition unit tests in the same file; `rss-tcp`'s stall
//!    conformance test walks every registry row through all three
//!    responses.
//! 2. **Registry row** — add the [`CcAlgorithm`] arm carrying the config.
//!    The compiler refuses to build until three exhaustive `match`es handle
//!    it: [`CcAlgorithm::info`] (point it at a new [`VariantInfo`] row in
//!    `registry.rs`'s table, which labels, `rss list --variants` and the
//!    gallery read), [`registry::validate`] (every parameter rule) and
//!    [`CcEngine::new`] (its slow-start × avoidance pair). Then mirror the
//!    config in `rss_core::spec::CcDef` so scenario files can name the
//!    variant, and add a `scenarios/<variant>_*.json` file exercising the
//!    regime the scheme targets with a byte-golden under
//!    `scenarios/golden/`, so CI gates its behaviour from day one.

#![warn(missing_docs)]

pub mod bbr;
pub mod filter;
pub mod highspeed;
pub mod hybrid;
pub mod limited;
pub mod registry;
pub mod relentless;
pub mod reno;
pub mod restricted;
pub mod scalable;
pub mod ssthreshless;

pub use bbr::BbrProbe;
pub use filter::{BandwidthEstimator, WindowedFilter};
pub use registry::{CcError, ParamInfo, VariantInfo};
pub use reno::Window;
pub use restricted::RssConfig;
pub use scalable::ScalableConfig;
pub use ssthreshless::SslConfig;

use reno::{Avoidance, SlowStart};

use rss_sim::{SimDuration, SimTime};

/// Sender state exposed to the congestion controller at decision points:
/// only what some controller reads. A controller's segment size is its
/// own, from [`CcParams::mss`].
#[derive(Debug, Clone, Copy)]
pub struct CcView {
    /// Current simulation time.
    pub now: SimTime,
    /// Bytes currently in flight (`snd_nxt − snd_una`).
    pub flight: u64,
    /// Current depth of the host's interface queue, packets.
    pub ifq_depth: u32,
    /// Capacity of the host's interface queue, packets.
    pub ifq_max: u32,
    /// Most recent Karn-valid RTT sample, if any (delay-based variants'
    /// process variable; loss/queue-based variants ignore it).
    pub last_rtt: Option<SimDuration>,
    /// Smallest RTT sample seen on the connection, if any (the propagation
    /// estimate delay-based variants difference against).
    pub min_rtt: Option<SimDuration>,
    /// Most recent delivery-rate sample in payload **bytes per second**: the
    /// bytes cumulatively ACKed since the sampled segment departed, over the
    /// time since. `None` until the first Karn-valid cumulative ACK
    /// (retransmitted segments never produce a sample, mirroring the RTT
    /// estimator).
    pub delivery_rate: Option<u64>,
    /// True when the current delivery-rate sample was taken while the sender
    /// was application-limited (window room left, but no data to fill it).
    /// Such samples understate path capacity; bandwidth estimators must not
    /// let them *lower* the estimate (see [`BandwidthEstimator`]).
    pub app_limited: bool,
}

/// Congestion signals delivered by the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongestionEvent {
    /// Third duplicate ACK — fast retransmit (network congestion).
    FastRetransmit,
    /// Retransmission timeout (severe network congestion).
    Timeout,
    /// Local send-stall (the IFQ rejected a segment), answered the CWR way
    /// of Linux 2.4's `tcp_enter_cwr`: reduce the window as for congestion,
    /// without retransmitting and without restarting slow-start. The sender
    /// alone decides whether a stall reaches the controller, and as which
    /// event.
    LocalStall,
}

/// What happened inside fast recovery — the argument of
/// [`CcEngine::on_recovery`] — plus the ECN echo, which shares the
/// delivery path so every variant reacts without per-variant sender code.
///
/// One enum instead of a hook per event keeps the engine from growing a
/// method per future recovery event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A duplicate ACK arrived while in fast recovery (Reno window
    /// inflation).
    DupAck,
    /// A partial ACK advanced `snd_una` but left retransmission holes
    /// (NewReno deflation).
    PartialAck {
        /// Bytes the partial ACK newly acknowledged.
        newly_acked: u64,
    },
    /// Fast recovery completed: the full outstanding window was ACKed.
    Exit {
        /// Bytes the recovery-closing ACK newly acknowledged. For a
        /// single-loss episode this is most of a window — controllers that
        /// keep growing through recovery (Relentless) must not lose it.
        newly_acked: u64,
    },
    /// An ACK carried an ECN echo (ECE): the network CE-marked a packet
    /// instead of dropping it (RFC 3168). Unlike the other recovery events
    /// this one can arrive *outside* fast recovery — nothing was lost, so
    /// there is no retransmission episode. The sender throttles it to once
    /// per RTT (CWR semantics); the baseline response is a Reno halving
    /// without retransmission, exactly like a CWR local stall.
    EcnEcho,
}

/// The segment-departure schedule a congestion controller asks of the sender.
///
/// Every window variant stays [`PacingDecision::Unpaced`]: the sender bursts
/// as much of the window as an arriving ACK opens. A rate-based variant
/// returns [`PacingDecision::Rate`] and the sender spreads departures so
/// payload leaves at that rate instead of in window bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacingDecision {
    /// No pacing — the sender may burst the full window per ACK.
    Unpaced,
    /// Space consecutive data segments `payload_len / bytes_per_sec` apart.
    Rate {
        /// Pacing rate in payload **bytes per second**; must be positive.
        /// `u64::MAX` is an effectively infinite rate (gaps round to zero,
        /// reproducing unpaced behavior byte-for-byte).
        bytes_per_sec: u64,
    },
}

/// Which congestion-control algorithm a flow runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcAlgorithm {
    /// Standard TCP (the paper's baseline).
    Reno,
    /// The paper's Restricted Slow-Start.
    Restricted(RssConfig),
    /// RFC 3742 Limited Slow-Start with optional `max_ssthresh` (bytes).
    Limited {
        /// `max_ssthresh` in bytes; `None` = RFC default of 100 segments.
        max_ssthresh: Option<u64>,
    },
    /// SSthreshless Start (arXiv:1401.7146): delay-probed slow-start with no
    /// ssthresh estimation.
    Ssthreshless(SslConfig),
    /// HighSpeed TCP (RFC 3649): the a(w)/b(w) response-table bend for large
    /// windows. No parameters — the RFC's constants.
    HighSpeed,
    /// Scalable TCP (Kelly 2003): MIMD growth with a fixed 1/8 backoff.
    Scalable(ScalableConfig),
    /// BBR-style rate probe: max-bandwidth/min-RTT filters, paced startup /
    /// drain / probe-bandwidth gain cycling. No parameters — the classic
    /// gain constants.
    Bbr,
    /// Relentless congestion control (arXiv:1102.3270): decrease the window
    /// by exactly the segments lost. No parameters.
    Relentless,
    /// Hybrid Start (HyStart): standard Reno whose slow-start exits early on
    /// ACK-train or delay-increase evidence. No parameters — the reference
    /// thresholds.
    Hybrid,
}

impl CcAlgorithm {
    /// The variant's row in the [`registry`] table.
    pub fn info(&self) -> &'static VariantInfo {
        let row = match self {
            CcAlgorithm::Reno => 0,
            CcAlgorithm::Restricted(_) => 1,
            CcAlgorithm::Limited { .. } => 2,
            CcAlgorithm::Ssthreshless(_) => 3,
            CcAlgorithm::HighSpeed => 4,
            CcAlgorithm::Scalable(_) => 5,
            CcAlgorithm::Bbr => 6,
            CcAlgorithm::Relentless => 7,
            CcAlgorithm::Hybrid => 8,
        };
        &registry::VARIANTS[row]
    }

    /// Short label for reports — the variant's registry name.
    pub fn label(&self) -> &'static str {
        self.info().name
    }
}

/// Per-connection inputs every variant constructor receives (the transport
/// derives these from its `TcpConfig`).
#[derive(Debug, Clone, Copy)]
pub struct CcParams {
    /// Initial congestion window, bytes.
    pub initial_cwnd: u64,
    /// Initial slow-start threshold, bytes (ssthresh-free variants ignore
    /// it — that is their point).
    pub initial_ssthresh: u64,
    /// Maximum segment size, bytes.
    pub mss: u32,
}

/// The congestion controller a sender holds: the window engine every
/// variant but BBR runs, or BBR.
///
/// All quantities are in bytes. The sender calls exactly one of the `on_*`
/// hooks per event. They are the hottest calls in the simulator after the
/// event queue itself, so nothing here is a trait object: the `#[inline]`
/// match arms below let the optimizer inline the whole per-ACK sequence of
/// the standard slow-start and Reno avoidance policies, and the other
/// policies' rules are direct calls.
#[derive(Debug)]
pub enum CcEngine {
    /// Reno's window state with a slow-start and an avoidance policy.
    Window(Window),
    /// The rate-based probe.
    Bbr(Box<BbrProbe>),
}

impl CcEngine {
    /// Validate `algo` against the connection inputs ([`registry::validate`])
    /// and build its engine: the variant's (slow-start, avoidance) pair, or
    /// BBR. Returns the [`CcError`] validation raised; the declarative
    /// pipeline path-qualifies it per flow, hand-built callers surface it on
    /// their own error channel.
    pub fn new(algo: &CcAlgorithm, p: &CcParams) -> Result<CcEngine, CcError> {
        registry::validate(algo, p)?;
        let (start, avoid) = match *algo {
            CcAlgorithm::Reno => (SlowStart::Standard, Avoidance::Reno),
            CcAlgorithm::Restricted(cfg) => (
                SlowStart::Restricted(Box::new(restricted::PidStart::new(cfg))),
                Avoidance::Reno,
            ),
            CcAlgorithm::Limited { max_ssthresh } => (
                SlowStart::Limited {
                    max_ssthresh: max_ssthresh.unwrap_or(100 * p.mss as u64),
                },
                Avoidance::Reno,
            ),
            CcAlgorithm::Ssthreshless(cfg) => (
                SlowStart::Ssthreshless(Box::new(ssthreshless::DelayProbe::new(cfg))),
                Avoidance::Reno,
            ),
            CcAlgorithm::HighSpeed => (SlowStart::Standard, Avoidance::HighSpeed { accum: 0 }),
            CcAlgorithm::Scalable(cfg) => (
                SlowStart::Standard,
                Avoidance::Scalable {
                    ai_cnt: cfg.ai_cnt,
                    accum: 0,
                },
            ),
            CcAlgorithm::Bbr => {
                let bbr = BbrProbe::new(p.initial_cwnd, p.mss);
                return Ok(CcEngine::Bbr(Box::new(bbr)));
            }
            CcAlgorithm::Relentless => (SlowStart::Standard, Avoidance::Relentless(Box::default())),
            CcAlgorithm::Hybrid => (SlowStart::Hybrid(Box::default()), Avoidance::Reno),
        };
        Ok(CcEngine::Window(Window::new(p, start, avoid)))
    }

    /// Bytes of controller state held on the heap: the boxed policy state
    /// or BBR.
    pub fn heap_bytes(&self) -> usize {
        match self {
            CcEngine::Window(w) => w.heap_bytes(),
            CcEngine::Bbr(_) => size_of::<BbrProbe>(),
        }
    }

    /// Current congestion window, bytes.
    #[inline]
    pub fn cwnd(&self) -> u64 {
        match self {
            CcEngine::Window(w) => w.reno.cwnd,
            CcEngine::Bbr(b) => b.cwnd(),
        }
    }

    /// Current slow-start threshold, bytes.
    #[inline]
    pub fn ssthresh(&self) -> u64 {
        match self {
            CcEngine::Window(w) => w.reno.ssthresh,
            CcEngine::Bbr(_) => bbr::SSTHRESH,
        }
    }

    /// True in the slow-start phase: while `cwnd < ssthresh`, except for
    /// the delay probe (slow-start while it probes) and BBR (in startup).
    #[inline]
    pub fn in_slow_start(&self) -> bool {
        match self {
            CcEngine::Window(w) => w.in_slow_start(),
            CcEngine::Bbr(b) => b.in_slow_start(),
        }
    }

    /// A cumulative ACK advanced `snd_una` by `newly_acked` bytes. The
    /// sender does not call it while in fast recovery, which has
    /// [`Self::on_recovery`].
    #[inline]
    pub fn on_ack(&mut self, view: &CcView, newly_acked: u64) {
        match self {
            CcEngine::Window(w) => w.on_ack(view, newly_acked),
            CcEngine::Bbr(b) => b.on_ack(view, newly_acked),
        }
    }

    /// A congestion signal fired (at most once per window per kind; the
    /// sender throttles).
    #[inline]
    pub fn on_congestion(&mut self, view: &CcView, ev: CongestionEvent) {
        match self {
            CcEngine::Window(w) => w.on_congestion(view, ev),
            CcEngine::Bbr(b) => b.on_congestion(ev),
        }
    }

    /// A fast-recovery event occurred (see [`RecoveryEvent`] for the cases).
    /// Called instead of [`Self::on_ack`] while the sender is in fast
    /// recovery. [`RecoveryEvent::EcnEcho`] is the exception: it is
    /// delivered whenever an ECE-bearing ACK passes the sender's once-per-RTT
    /// gate, in or out of recovery.
    #[inline]
    pub fn on_recovery(&mut self, view: &CcView, ev: RecoveryEvent) {
        match self {
            CcEngine::Window(w) => w.on_recovery(view, ev),
            CcEngine::Bbr(_) => {}
        }
    }

    /// The departure schedule this controller currently wants (queried by the
    /// sender on every transmit opportunity, outside any ACK context — hence
    /// no [`CcView`] argument). Every window variant is
    /// [`PacingDecision::Unpaced`].
    #[inline]
    pub fn pacing(&self) -> PacingDecision {
        match self {
            CcEngine::Window(_) => PacingDecision::Unpaced,
            CcEngine::Bbr(b) => b.pacing(),
        }
    }
}

#[cfg(test)]
pub(crate) fn test_view(now_ms: u64, flight: u64) -> CcView {
    CcView {
        now: SimTime::from_millis(now_ms),
        flight,
        ifq_depth: 0,
        ifq_max: 100,
        last_rtt: None,
        min_rtt: None,
        delivery_rate: None,
        app_limited: false,
    }
}

/// An engine for `algo` with explicit window inputs.
#[cfg(test)]
pub(crate) fn test_engine(algo: CcAlgorithm, cwnd: u64, ssthresh: u64, mss: u32) -> CcEngine {
    let p = CcParams {
        initial_cwnd: cwnd,
        initial_ssthresh: ssthresh,
        mss,
    };
    CcEngine::new(&algo, &p).expect("valid test parameters")
}

#[cfg(test)]
impl CcEngine {
    /// The window engine, for tests that look at policy state.
    pub(crate) fn window(&self) -> &Window {
        match self {
            CcEngine::Window(w) => w,
            CcEngine::Bbr(_) => panic!("BBR runs no window engine"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CcParams {
        CcParams {
            initial_cwnd: 2 * 1448,
            initial_ssthresh: u64::MAX / 2,
            mss: 1448,
        }
    }

    fn built(algo: CcAlgorithm) -> CcEngine {
        CcEngine::new(&algo, &params()).expect("valid defaults rejected")
    }

    #[test]
    fn factory_uses_params_initial_window() {
        let p = params();
        assert_eq!(built(CcAlgorithm::Reno).cwnd(), p.initial_cwnd);
    }

    #[test]
    fn factory_reports_rejection_instead_of_panicking() {
        let mut p = params();
        p.initial_cwnd = 0;
        let err = CcEngine::new(&CcAlgorithm::Reno, &p).expect_err("zero cwnd accepted");
        assert!(err.msg.contains("initial_cwnd"), "unhelpful error: {err}");
    }

    #[test]
    fn labels_come_from_the_registry() {
        assert_eq!(CcAlgorithm::Reno.label(), "standard");
        assert_eq!(
            CcAlgorithm::Restricted(RssConfig::tuned()).label(),
            "restricted"
        );
        assert_eq!(
            CcAlgorithm::Limited { max_ssthresh: None }.label(),
            "limited"
        );
        assert_eq!(
            CcAlgorithm::Ssthreshless(SslConfig::default()).label(),
            "ssthreshless"
        );
        assert_eq!(CcAlgorithm::HighSpeed.label(), "highspeed");
        assert_eq!(
            CcAlgorithm::Scalable(ScalableConfig::default()).label(),
            "scalable"
        );
        assert_eq!(CcAlgorithm::Bbr.label(), "bbr");
        assert_eq!(CcAlgorithm::Relentless.label(), "relentless");
        assert_eq!(CcAlgorithm::Hybrid.label(), "hybrid");
    }
}
