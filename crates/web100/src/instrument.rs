//! The live instrument block: the hooks the TCP stack calls, the counters
//! they update, and the timelines a flow report carries.

use crate::series::{record, Series};
use crate::vars::{CongestionKind, SndLimState, Web100Vars};
use rss_sim::SimTime;

/// What a connection records over time, already in the shape a flow report
/// holds, each list append-only in time order: event times in seconds since
/// the start of the run (`SimTime::as_secs_f64`), samples as packed
/// [`Series`].
#[derive(Debug, Clone, Default)]
pub struct Timelines {
    /// When each send-stall signal fired (Figure 1's series).
    pub stall_times_s: Vec<f64>,
    /// When each congestion signal of any kind fired.
    pub congestion_times_s: Vec<f64>,
    /// Congestion-window samples `(t, cwnd_bytes)`, every
    /// `sample_stride`-th change.
    pub cwnd_series: Series,
    /// Cumulative acked bytes `(t, bytes)`, one sample per ACK that
    /// acknowledged new data.
    pub acked_series: Series,
}

/// Per-connection instrumentation, updated synchronously by the TCP stack.
#[derive(Debug, Clone)]
pub struct InstrumentBlock {
    vars: Web100Vars,
    timelines: Timelines,
    lim_state: SndLimState,
    lim_since_ns: u64,
    /// Sampling stride for the cwnd series (every Nth change is recorded);
    /// 1 records everything.
    pub sample_stride: u32,
    cwnd_updates: u32,
}

impl Default for InstrumentBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl InstrumentBlock {
    /// Fresh block at t = 0.
    pub fn new() -> Self {
        InstrumentBlock {
            vars: Web100Vars::default(),
            timelines: Timelines::default(),
            lim_state: SndLimState::Sender,
            lim_since_ns: 0,
            sample_stride: 1,
            cwnd_updates: 0,
        }
    }

    /// Read-only access to the counters.
    pub fn vars(&self) -> &Web100Vars {
        &self.vars
    }

    /// A copy of the counters (a Web100 "snapshot").
    pub fn snapshot(&self) -> Web100Vars {
        self.vars
    }

    /// The timelines recorded so far.
    pub fn timelines(&self) -> &Timelines {
        &self.timelines
    }

    /// Move the timelines out (a finished flow's report takes them),
    /// leaving them empty.
    pub fn take_timelines(&mut self) -> Timelines {
        std::mem::take(&mut self.timelines)
    }

    // --- hooks called by the TCP stack -------------------------------------

    /// A data segment left the stack.
    pub fn on_data_sent(&mut self, bytes: u32, is_retransmit: bool) {
        self.vars.pkts_out += 1;
        self.vars.data_bytes_out += bytes as u64;
        if is_retransmit {
            self.vars.pkts_retrans += 1;
            self.vars.bytes_retrans += bytes as u64;
        }
    }

    /// An ACK arrived acknowledging `newly_acked` fresh bytes.
    // This hook and `on_cwnd` run on every ACK and record a sample each:
    // inlined into the sender they cost less than the calls did.
    #[inline]
    pub fn on_ack_in(&mut self, now: SimTime, newly_acked: u64, is_dup: bool) {
        self.vars.ack_pkts_in += 1;
        if is_dup {
            self.vars.dup_acks_in += 1;
        }
        if newly_acked > 0 {
            self.vars.thru_bytes_acked += newly_acked;
            let acked = self.vars.thru_bytes_acked;
            self.timelines.acked_series.push(now, acked);
        }
    }

    /// A congestion signal fired.
    pub fn on_congestion(&mut self, now: SimTime, kind: CongestionKind) {
        self.vars.congestion_signals += 1;
        record(&mut self.timelines.congestion_times_s, now);
        match kind {
            CongestionKind::FastRetransmit => self.vars.fast_retran += 1,
            CongestionKind::Timeout => self.vars.timeouts += 1,
            CongestionKind::SendStall => {
                self.vars.send_stall += 1;
                record(&mut self.timelines.stall_times_s, now);
            }
            CongestionKind::EcnEcho => self.vars.ecn_echoes += 1,
        }
    }

    /// The congestion window changed.
    #[inline]
    pub fn on_cwnd(&mut self, now: SimTime, cwnd_bytes: u64) {
        self.vars.cur_cwnd = cwnd_bytes;
        self.vars.max_cwnd = self.vars.max_cwnd.max(cwnd_bytes);
        self.cwnd_updates += 1;
        if self.cwnd_updates.is_multiple_of(self.sample_stride.max(1)) {
            self.timelines.cwnd_series.push(now, cwnd_bytes);
        }
    }

    /// ssthresh changed.
    pub fn on_ssthresh(&mut self, ssthresh_bytes: u64) {
        self.vars.cur_ssthresh = ssthresh_bytes;
    }

    /// The receiver advertised a window.
    pub fn on_rwin(&mut self, rwin_bytes: u64) {
        self.vars.cur_rwin_rcvd = rwin_bytes;
    }

    /// A fresh RTT sample and derived estimates.
    pub fn on_rtt(&mut self, sample_us: u64, srtt_us: u64, rto_us: u64) {
        if self.vars.min_rtt_us == 0 {
            self.vars.min_rtt_us = sample_us;
        } else {
            self.vars.min_rtt_us = self.vars.min_rtt_us.min(sample_us);
        }
        self.vars.max_rtt_us = self.vars.max_rtt_us.max(sample_us);
        self.vars.smoothed_rtt_us = srtt_us;
        self.vars.cur_rto_us = rto_us;
    }

    /// The connection entered slow-start.
    pub fn on_enter_slow_start(&mut self) {
        self.vars.slow_start_episodes += 1;
    }

    /// The connection entered congestion avoidance.
    pub fn on_enter_cong_avoid(&mut self) {
        self.vars.cong_avoid_episodes += 1;
    }

    /// The sender-limitation state machine moved to `state` at `now`.
    pub fn on_snd_lim(&mut self, now: SimTime, state: SndLimState) {
        let elapsed = now.as_nanos().saturating_sub(self.lim_since_ns);
        match self.lim_state {
            SndLimState::Rwin => self.vars.snd_lim_time_rwin_ns += elapsed,
            SndLimState::Cwnd => self.vars.snd_lim_time_cwnd_ns += elapsed,
            SndLimState::Sender => self.vars.snd_lim_time_sender_ns += elapsed,
        }
        self.lim_state = state;
        self.lim_since_ns = now.as_nanos();
    }

    /// Close out time accounting at the end of a run.
    pub fn finish(&mut self, now: SimTime) {
        let state = self.lim_state;
        self.on_snd_lim(now, state);
    }

    /// Mean goodput in bits/s over `[0, now]` from acked bytes.
    pub fn goodput_bps(&self, now: SimTime) -> f64 {
        let secs = now.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.vars.thru_bytes_acked as f64 * 8.0 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn data_and_retrans_counters() {
        let mut b = InstrumentBlock::new();
        b.on_data_sent(1448, false);
        b.on_data_sent(1448, false);
        b.on_data_sent(1448, true);
        let v = b.vars();
        assert_eq!(v.pkts_out, 3);
        assert_eq!(v.data_bytes_out, 3 * 1448);
        assert_eq!(v.pkts_retrans, 1);
        assert_eq!(v.bytes_retrans, 1448);
    }

    #[test]
    fn send_stall_feeds_figure1_series() {
        let mut b = InstrumentBlock::new();
        b.on_congestion(ms(500), CongestionKind::SendStall);
        b.on_congestion(ms(800), CongestionKind::FastRetransmit);
        b.on_congestion(ms(1200), CongestionKind::SendStall);
        let v = b.vars();
        assert_eq!(v.send_stall, 2);
        assert_eq!(v.congestion_signals, 3);
        assert_eq!(v.fast_retran, 1);
        let t = b.timelines();
        assert_eq!(t.stall_times_s, [0.5, 1.2]);
        assert_eq!(t.congestion_times_s, [0.5, 0.8, 1.2]);
    }

    #[test]
    fn cwnd_tracking_and_max() {
        let mut b = InstrumentBlock::new();
        b.on_cwnd(ms(0), 2896);
        b.on_cwnd(ms(10), 5792);
        b.on_cwnd(ms(20), 2896);
        assert_eq!(b.vars().cur_cwnd, 2896);
        assert_eq!(b.vars().max_cwnd, 5792);
        assert_eq!(
            b.timelines().cwnd_series.iter().collect::<Vec<_>>(),
            [(0.0, 2896.0), (0.01, 5792.0), (0.02, 2896.0)]
        );
        // The report takes the series; the block keeps counting.
        assert_eq!(b.take_timelines().cwnd_series.len(), 3);
        assert!(b.timelines().cwnd_series.is_empty());
        assert_eq!(b.vars().max_cwnd, 5792);
    }

    #[test]
    fn rtt_min_max_tracking() {
        let mut b = InstrumentBlock::new();
        b.on_rtt(60_000, 60_000, 240_000);
        b.on_rtt(75_000, 62_000, 250_000);
        b.on_rtt(58_000, 61_000, 245_000);
        let v = b.vars();
        assert_eq!(v.min_rtt_us, 58_000);
        assert_eq!(v.max_rtt_us, 75_000);
        assert_eq!(v.smoothed_rtt_us, 61_000);
        assert_eq!(v.cur_rto_us, 245_000);
    }

    #[test]
    fn snd_lim_partitions_time() {
        let mut b = InstrumentBlock::new();
        // Starts in Sender at t=0.
        b.on_snd_lim(ms(10), SndLimState::Cwnd);
        b.on_snd_lim(ms(40), SndLimState::Rwin);
        b.finish(ms(100));
        let v = b.vars();
        assert_eq!(v.snd_lim_time_sender_ns, 10_000_000);
        assert_eq!(v.snd_lim_time_cwnd_ns, 30_000_000);
        assert_eq!(v.snd_lim_time_rwin_ns, 60_000_000);
    }

    #[test]
    fn goodput_from_acks() {
        let mut b = InstrumentBlock::new();
        b.on_ack_in(ms(500), 125_000, false);
        b.on_ack_in(ms(1000), 125_000, false);
        // 250 kB in 1 s = 2 Mbit/s.
        assert!((b.goodput_bps(SimTime::from_secs(1)) - 2_000_000.0).abs() < 1.0);
        assert_eq!(
            b.timelines().acked_series.iter().collect::<Vec<_>>(),
            [(0.5, 125_000.0), (1.0, 250_000.0)]
        );
        assert_eq!(b.vars().thru_bytes_acked, 250_000);
    }

    #[test]
    fn dup_acks_counted_separately() {
        let mut b = InstrumentBlock::new();
        b.on_ack_in(ms(1), 0, true);
        b.on_ack_in(ms(2), 0, true);
        b.on_ack_in(ms(3), 1448, false);
        let v = b.vars();
        assert_eq!(v.ack_pkts_in, 3);
        assert_eq!(v.dup_acks_in, 2);
        assert_eq!(v.thru_bytes_acked, 1448);
    }

    #[test]
    fn sample_stride_thins_series() {
        let mut b = InstrumentBlock::new();
        b.sample_stride = 10;
        for i in 0..100 {
            b.on_cwnd(ms(i), 1000 + i);
        }
        assert_eq!(b.timelines().cwnd_series.len(), 10);
        // Counters are unaffected by sampling.
        assert_eq!(b.vars().cur_cwnd, 1099);
    }

    #[test]
    fn episode_counters() {
        let mut b = InstrumentBlock::new();
        b.on_enter_slow_start();
        b.on_enter_cong_avoid();
        b.on_enter_slow_start();
        assert_eq!(b.vars().slow_start_episodes, 2);
        assert_eq!(b.vars().cong_avoid_episodes, 1);
    }
}
