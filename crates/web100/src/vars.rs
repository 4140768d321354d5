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

impl Web100Vars {
    /// Counter difference `self − earlier`, the Web100 "snapshot delta" idiom
    /// (read a snapshot, run a phase, read again, subtract). Monotone
    /// counters subtract (saturating); gauges keep the newer value.
    pub fn delta(&self, earlier: &Web100Vars) -> Web100Vars {
        Web100Vars {
            // counters
            pkts_out: self.pkts_out.saturating_sub(earlier.pkts_out),
            data_bytes_out: self.data_bytes_out.saturating_sub(earlier.data_bytes_out),
            pkts_retrans: self.pkts_retrans.saturating_sub(earlier.pkts_retrans),
            bytes_retrans: self.bytes_retrans.saturating_sub(earlier.bytes_retrans),
            ack_pkts_in: self.ack_pkts_in.saturating_sub(earlier.ack_pkts_in),
            thru_bytes_acked: self
                .thru_bytes_acked
                .saturating_sub(earlier.thru_bytes_acked),
            congestion_signals: self
                .congestion_signals
                .saturating_sub(earlier.congestion_signals),
            fast_retran: self.fast_retran.saturating_sub(earlier.fast_retran),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            send_stall: self.send_stall.saturating_sub(earlier.send_stall),
            ecn_echoes: self.ecn_echoes.saturating_sub(earlier.ecn_echoes),
            dup_acks_in: self.dup_acks_in.saturating_sub(earlier.dup_acks_in),
            slow_start_episodes: self
                .slow_start_episodes
                .saturating_sub(earlier.slow_start_episodes),
            cong_avoid_episodes: self
                .cong_avoid_episodes
                .saturating_sub(earlier.cong_avoid_episodes),
            snd_lim_time_rwin_ns: self
                .snd_lim_time_rwin_ns
                .saturating_sub(earlier.snd_lim_time_rwin_ns),
            snd_lim_time_cwnd_ns: self
                .snd_lim_time_cwnd_ns
                .saturating_sub(earlier.snd_lim_time_cwnd_ns),
            snd_lim_time_sender_ns: self
                .snd_lim_time_sender_ns
                .saturating_sub(earlier.snd_lim_time_sender_ns),
            // gauges: keep the current reading
            cur_cwnd: self.cur_cwnd,
            max_cwnd: self.max_cwnd,
            cur_ssthresh: self.cur_ssthresh,
            cur_rwin_rcvd: self.cur_rwin_rcvd,
            smoothed_rtt_us: self.smoothed_rtt_us,
            min_rtt_us: self.min_rtt_us,
            max_rtt_us: self.max_rtt_us,
            cur_rto_us: self.cur_rto_us,
        }
    }

    /// Mean goodput in bits/s implied by `thru_bytes_acked` over a window.
    pub fn goodput_over(&self, window_secs: f64) -> f64 {
        if window_secs <= 0.0 {
            return 0.0;
        }
        self.thru_bytes_acked as f64 * 8.0 / window_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_counters_keeps_gauges() {
        let early = Web100Vars {
            pkts_out: 100,
            data_bytes_out: 100_000,
            send_stall: 1,
            cur_cwnd: 5_000,
            max_cwnd: 9_000,
            min_rtt_us: 50_000,
            ..Default::default()
        };
        let late = Web100Vars {
            pkts_out: 250,
            data_bytes_out: 260_000,
            send_stall: 3,
            cur_cwnd: 2_000,
            max_cwnd: 12_000,
            min_rtt_us: 48_000,
            ..Default::default()
        };
        let d = late.delta(&early);
        assert_eq!(d.pkts_out, 150);
        assert_eq!(d.data_bytes_out, 160_000);
        assert_eq!(d.send_stall, 2);
        assert_eq!(d.cur_cwnd, 2_000, "gauge keeps newest");
        assert_eq!(d.max_cwnd, 12_000);
        assert_eq!(d.min_rtt_us, 48_000);
    }

    #[test]
    fn derived_rates() {
        let v = Web100Vars {
            thru_bytes_acked: 1_250_000,
            ..Default::default()
        };
        assert!((v.goodput_over(1.0) - 10_000_000.0).abs() < 1.0);
        assert_eq!(v.goodput_over(0.0), 0.0);
    }
}
