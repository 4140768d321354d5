//! # rss-tcp — a TCP data-transfer engine with pluggable congestion control
//!
//! The transport substrate of the *Restricted Slow-Start for TCP*
//! reproduction. It implements the sender/receiver machinery a congestion
//! control study needs — a cumulative ACK for every segment, RFC 6298 RTT
//! estimation and retransmission timeouts, NewReno fast retransmit/recovery
//! ([`recovery`]), go-back-N timeout recovery — plus the paper's local-
//! congestion pathway: when the host interface queue rejects a segment, the
//! sender receives a **send-stall** signal and (configurably, like Linux
//! 2.4) treats it as congestion: [`StallResponse`] is the sender's, and the
//! controller hears only the event the sender picks.
//!
//! Congestion control is the separate [`rss_cc`] layer (re-exported here as
//! [`cc`]): the sender drives its [`CcEngine`] through the engine's
//! per-ACK/per-congestion hooks and surfaces
//! everything a variant can pace on — IFQ occupancy for the paper's
//! restricted slow-start, RTT extremes for delay-based schemes like the
//! ssthreshless probe — in the [`CcView`] it hands to each hook. Each
//! variant is an arm of [`CcAlgorithm`] that [`make_cc`] builds into a
//! slow-start × avoidance pair of one window engine, or into BBR; adding
//! one is a policy arm and a registry row (see the `rss-cc` crate docs).
//!
//! The sender and receiver are sans-IO state machines: an embedding world
//! model (see `rss-core`) moves segments between them through the simulated
//! host NIC and network fabric. Modules: [`sender`], [`recovery`]
//! (NewReno), [`receiver`], [`rtt`] (RFC 6298) and [`types`].
//!
//! The sender keeps one 16-byte record per segment in flight, for its RTT
//! and delivery-rate samples: the send time in the low 62 bits of a word
//! whose top two bits mark a retransmission and an application-limited
//! departure, then the segment's end and `snd_una` at departure as 32-bit
//! sequence numbers, unwrapped against `snd_una` as TCP compares them
//! (RFC 793 §3.3). That holds because the usable window is capped at
//! RFC 7323's 2^30 bytes, whatever cwnd and the peer's window say, so every
//! in-flight byte lies within 2^31 of `snd_una`. The records sit in a ring
//! with room for the flight it holds now, not for the largest flight the
//! connection ever had.

#![warn(missing_docs)]

pub use rss_cc as cc;

pub mod receiver;
pub mod recovery;
pub mod rtt;
pub mod sender;
mod sent;
pub mod types;

pub use cc::{
    CcAlgorithm, CcEngine, CcError, CcParams, CcView, CongestionEvent, PacingDecision,
    RecoveryEvent, RssConfig, ScalableConfig, SslConfig,
};
pub use receiver::{AckToSend, ReceiverStats, TcpReceiver};
pub use rss_net::Ecn;
pub use rtt::RttEstimator;
pub use sender::{IfqSnapshot, TcpSender, TxPlan};
pub use types::{ConnId, SegKind, StallResponse, TcpConfig, TcpSegment};

/// Construct a congestion controller for a connection configured by `cfg`:
/// [`CcEngine::new`] with the [`CcParams`] the transport config derives.
/// Returns its [`CcError`] when validation rejects the algorithm selection
/// or the derived parameters; callers surface it on their own error channel
/// (the declarative pipeline path-qualifies it per flow).
pub fn make_cc(algo: CcAlgorithm, cfg: &TcpConfig) -> Result<CcEngine, CcError> {
    CcEngine::new(&algo, &cfg.cc_params())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn built(algo: CcAlgorithm, cfg: &TcpConfig) -> CcEngine {
        make_cc(algo, cfg).expect("default config builds every variant")
    }

    #[test]
    fn factory_propagates_registry_rejection() {
        let cfg = TcpConfig {
            mss: 0,
            ..Default::default()
        };
        assert!(make_cc(CcAlgorithm::Reno, &cfg).is_err());
    }

    #[test]
    fn factory_uses_config_initial_window() {
        let cfg = TcpConfig::default();
        let cc = built(CcAlgorithm::Reno, &cfg);
        assert_eq!(cc.cwnd(), cfg.initial_cwnd());
    }

    #[test]
    fn cc_params_mirror_the_config() {
        let cfg = TcpConfig::default();
        let p = cfg.cc_params();
        assert_eq!(p.initial_cwnd, cfg.initial_cwnd());
        assert_eq!(p.initial_ssthresh, cfg.effective_initial_ssthresh());
        assert_eq!(p.mss, cfg.mss);
    }
}
