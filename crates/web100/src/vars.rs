//! The per-connection instrument variables.
//!
//! Naming follows the Web100 TCP Kernel Instrument Set (TCP-KIS) the paper
//! read its results from ("We use web100 to get detailed statistics of the
//! TCP state information", §4). Only sender-side variables relevant to the
//! evaluation are modelled; the semantics match the TCP-KIS draft:
//! counters are monotone, gauges track the current value, and the
//! `SndLimTime*` accumulators partition wall time by what limited the sender.

use serde::{Deserialize, Serialize};

/// What currently limits the sender (TCP-KIS "SndLim" states).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SndLimState {
    /// Limited by the receiver's advertised window.
    Rwin,
    /// Limited by the congestion window.
    Cwnd,
    /// Limited by the sending application / local resources.
    Sender,
}

/// Classification of congestion signals (TCP-KIS `CongestionSignals` plus a
/// breakdown of the local variety the paper is about).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CongestionKind {
    /// Triple-duplicate-ACK fast retransmit (network congestion).
    FastRetransmit,
    /// Retransmission timeout (network congestion, severe).
    Timeout,
    /// Local send-stall: the IFQ rejected a segment (host congestion).
    SendStall,
    /// ECN echo accepted by the sender's once-per-RTT gate: the network
    /// CE-marked a packet instead of dropping it (RFC 3168).
    EcnEcho,
}

/// The instrument block's monotone counters and gauges.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Web100Vars {
    // --- traffic counters -------------------------------------------------
    /// Data segments transmitted (including retransmissions).
    pub pkts_out: u64,
    /// Data bytes transmitted (including retransmissions).
    pub data_bytes_out: u64,
    /// Segments retransmitted.
    pub pkts_retrans: u64,
    /// Bytes retransmitted.
    pub bytes_retrans: u64,
    /// Pure ACK segments received.
    pub ack_pkts_in: u64,
    /// Bytes newly acknowledged (`ThruBytesAcked` in TCP-KIS).
    pub thru_bytes_acked: u64,

    // --- congestion counters ---------------------------------------------
    /// All congestion signals (fast retransmits + timeouts + send-stalls).
    pub congestion_signals: u64,
    /// Fast-retransmit episodes.
    pub fast_retran: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Send-stall events (the variable Figure 1 plots).
    pub send_stall: u64,
    /// ECN echoes the sender reacted to (one CWR-style reduction each).
    pub ecn_echoes: u64,
    /// Duplicate ACKs received.
    pub dup_acks_in: u64,

    // --- window gauges -----------------------------------------------------
    /// Current congestion window, bytes.
    pub cur_cwnd: u64,
    /// Largest congestion window seen, bytes.
    pub max_cwnd: u64,
    /// Current slow-start threshold, bytes.
    pub cur_ssthresh: u64,
    /// Current receiver-advertised window, bytes.
    pub cur_rwin_rcvd: u64,

    // --- path gauges --------------------------------------------------------
    /// Smoothed RTT estimate, microseconds.
    pub smoothed_rtt_us: u64,
    /// Minimum RTT sample, microseconds.
    pub min_rtt_us: u64,
    /// Maximum RTT sample, microseconds.
    pub max_rtt_us: u64,
    /// Current retransmission timeout, microseconds.
    pub cur_rto_us: u64,

    // --- slow-start bookkeeping ---------------------------------------------
    /// Times the connection (re-)entered slow-start.
    pub slow_start_episodes: u64,
    /// Times the connection entered congestion avoidance.
    pub cong_avoid_episodes: u64,

    // --- sender-limitation accumulators (nanoseconds) ----------------------
    /// Time limited by the receiver window.
    pub snd_lim_time_rwin_ns: u64,
    /// Time limited by the congestion window.
    pub snd_lim_time_cwnd_ns: u64,
    /// Time limited by the sender itself (app or local queues).
    pub snd_lim_time_sender_ns: u64,
}
