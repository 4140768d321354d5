//! Wire types and configuration for the simulated TCP.
//!
//! Sequence numbers are 64-bit absolute byte offsets rather than wrapping
//! 32-bit values: the simulation never transfers 2^64 bytes, and absolute
//! offsets make the delivery invariants ("every byte delivered exactly once")
//! directly checkable. Window scaling and SACK are not modelled — the
//! baseline is Linux 2.4.19 Reno/NewReno, and receive windows are configured
//! statically as on the paper's hand-tuned grid hosts.

use rss_net::{Body, Ecn, FlowId};
use rss_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Identifies one TCP connection within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ConnId(pub u32);

impl From<ConnId> for FlowId {
    fn from(c: ConnId) -> FlowId {
        FlowId(c.0)
    }
}

/// A TCP segment riding inside a network packet.
#[derive(Debug, Clone, Copy)]
pub struct TcpSegment {
    /// Connection the segment belongs to.
    pub conn: ConnId,
    /// Payload-bearing or pure-ACK.
    pub kind: SegKind,
    /// Header overhead on the wire (IP + TCP + options), bytes.
    pub header_bytes: u32,
    /// ECN codepoint: data segments of an ECN-negotiated flow carry
    /// [`Ecn::Ect`] (an AQM may rewrite it to [`Ecn::Ce`]); everything else,
    /// pure ACKs included, is [`Ecn::NotEct`] (RFC 3168 §6.1.4).
    pub ecn: Ecn,
}

/// The two segment shapes the simulation uses (data flows one way; pure ACKs
/// flow back).
#[derive(Debug, Clone, Copy)]
pub enum SegKind {
    /// A data segment.
    Data {
        /// First byte offset carried.
        seq: u64,
        /// Payload length in bytes.
        len: u32,
        /// True if this is a retransmission (Karn's rule needs it).
        retransmit: bool,
    },
    /// A pure acknowledgment.
    Ack {
        /// Cumulative ACK: next byte expected by the receiver.
        ack: u64,
        /// Receiver's advertised window in bytes.
        rwnd: u64,
        /// ECN echo: the receiver saw a CE mark since the last echo it sent
        /// (RFC 3168 ECE flag, simplified to echo-once per observed CE).
        ece: bool,
    },
}

impl Body for TcpSegment {
    fn wire_size(&self) -> u32 {
        match self.kind {
            SegKind::Data { len, .. } => len + self.header_bytes,
            SegKind::Ack { .. } => self.header_bytes,
        }
    }

    fn ecn(&self) -> Ecn {
        self.ecn
    }

    fn set_ecn(&mut self, codepoint: Ecn) {
        self.ecn = codepoint;
    }
}

/// How the sender answers a local send-stall.
///
/// [`TcpSender::on_local_stall`](crate::TcpSender::on_local_stall) is the
/// one place that tells the three apart; a congestion controller never sees
/// this setting, only the event the sender hands it. Whatever the response,
/// Web100 counts the stall as a send-stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StallResponse {
    /// CWR-style, Linux 2.4's `tcp_enter_cwr` and the default: at most once
    /// per window of data, the controller applies its
    /// [`CongestionEvent::LocalStall`](crate::CongestionEvent::LocalStall)
    /// reduction (Reno: `ssthresh = max(flight/2, 2·MSS)`, `cwnd =
    /// ssthresh`, leave slow-start), without retransmitting.
    Cwr,
    /// Timeout-style (Tahoe-like; the worst case): at most once per window
    /// of data, the controller applies its own
    /// [`CongestionEvent::Timeout`](crate::CongestionEvent::Timeout)
    /// response — cwnd collapses to 1 MSS and slow-start begins again —
    /// without retransmitting.
    RestartFromOne,
    /// Pretend it did not happen: the controller is never told (an upper
    /// bound on what ignoring local congestion could buy; loses the IFQ
    /// signal entirely).
    Ignore,
}

/// Static TCP configuration shared by sender and receiver.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes). 1448 = Ethernet MTU minus
    /// IP/TCP headers and timestamp option, as on the paper's hosts.
    pub mss: u32,
    /// Per-segment header overhead on the wire.
    pub header_bytes: u32,
    /// Initial congestion window in segments (RFC 2581-era: 2).
    pub initial_cwnd_mss: u32,
    /// Initial slow-start threshold in bytes (`None` = effectively infinite).
    pub initial_ssthresh: Option<u64>,
    /// Receiver's advertised window (bytes), fixed for the whole run.
    pub rwnd: u64,
    /// Lower bound on the retransmission timeout (Linux: 200 ms).
    pub min_rto: SimDuration,
    /// Upper bound on the retransmission timeout.
    pub max_rto: SimDuration,
    /// Congestion response to send-stalls.
    pub stall_response: StallResponse,
    /// How long the sender waits after a stall before re-probing the IFQ
    /// (models the qdisc-requeue/driver-wakeup latency).
    pub stall_retry: SimDuration,
    /// Number of duplicate ACKs that trigger fast retransmit.
    pub dupack_threshold: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1448,
            header_bytes: 52,
            initial_cwnd_mss: 2,
            initial_ssthresh: None,
            rwnd: 2 * 1024 * 1024,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
            stall_response: StallResponse::Cwr,
            stall_retry: SimDuration::from_millis(1),
            dupack_threshold: 3,
        }
    }
}

impl TcpConfig {
    /// Initial congestion window in bytes.
    pub fn initial_cwnd(&self) -> u64 {
        self.initial_cwnd_mss as u64 * self.mss as u64
    }

    /// The effective "infinite" ssthresh used when none is configured.
    pub fn effective_initial_ssthresh(&self) -> u64 {
        self.initial_ssthresh.unwrap_or(u64::MAX / 2)
    }

    /// The congestion-control constructor inputs this configuration implies.
    pub fn cc_params(&self) -> rss_cc::CcParams {
        rss_cc::CcParams {
            initial_cwnd: self.initial_cwnd(),
            initial_ssthresh: self.effective_initial_ssthresh(),
            mss: self.mss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        let data = TcpSegment {
            conn: ConnId(0),
            kind: SegKind::Data {
                seq: 0,
                len: 1448,
                retransmit: false,
            },
            header_bytes: 52,
            ecn: Ecn::Ect,
        };
        assert_eq!(data.wire_size(), 1500);
        let ack = TcpSegment {
            conn: ConnId(0),
            kind: SegKind::Ack {
                ack: 0,
                rwnd: 1000,
                ece: false,
            },
            header_bytes: 52,
            ecn: Ecn::NotEct,
        };
        assert_eq!(ack.wire_size(), 52);
    }

    #[test]
    fn default_config_matches_testbed() {
        let c = TcpConfig::default();
        assert_eq!(c.mss, 1448);
        assert_eq!(c.initial_cwnd(), 2896);
        assert!(c.effective_initial_ssthresh() > 1 << 40);
        assert_eq!(c.stall_response, StallResponse::Cwr);
    }

    #[test]
    fn conn_to_flow() {
        assert_eq!(FlowId::from(ConnId(7)), FlowId(7));
    }
}
