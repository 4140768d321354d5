//! The live instrument block: the hooks the TCP stack calls, the counters
//! they update, and the timelines a flow report is built from.
//!
//! A connection's timelines sit in one block behind one pointer, allocated
//! by the first thing recorded: the cwnd and acked-bytes samples as packed
//! steps, whose buffers move into the report's [`Series`], and the
//! congestion-signal times as nanosecond steps each marked whether it was
//! a send-stall (see the `series` module), which the report reads as
//! [`SimTime`]s and widens to seconds itself.

use crate::series::{Packed, Samples, Series, Signals};
use crate::vars::{CongestionKind, SndLimState, Web100Vars};
use rss_sim::SimTime;

/// What a connection records over time, each list append-only in time
/// order: when each congestion signal fired and whether it was a
/// send-stall, and the cwnd and acked-bytes samples. One pointer inline; a
/// connection that has recorded nothing holds no heap.
#[derive(Debug, Clone, Default)]
pub struct Timelines(Option<Box<Recorded>>);

#[derive(Debug, Clone, Default)]
struct Recorded {
    signals: Signals,
    cwnd: Packed,
    acked: Packed,
}

impl Timelines {
    #[inline]
    fn recorded(&mut self) -> &mut Recorded {
        self.0.get_or_insert_with(Box::default)
    }

    fn signals(&self) -> impl Iterator<Item = (SimTime, bool)> + Clone + '_ {
        self.0.iter().flat_map(|r| r.signals.iter())
    }

    /// When each send-stall signal fired (Figure 1's series).
    pub fn stall_times(&self) -> impl Iterator<Item = SimTime> + Clone + '_ {
        self.signals().filter(|&(_, stall)| stall).map(|(t, _)| t)
    }

    /// When each congestion signal of any kind fired.
    pub fn congestion_times(&self) -> impl Iterator<Item = SimTime> + Clone + '_ {
        self.signals().map(|(t, _)| t)
    }

    /// Congestion-window samples `(t, cwnd_bytes)`: the first change and
    /// every `sample_stride`-th.
    pub fn cwnd_samples(&self) -> Samples<'_> {
        self.0.as_ref().map_or(Samples::EMPTY, |r| r.cwnd.samples())
    }

    /// Cumulative acked bytes `(t, bytes)`, one sample per ACK that
    /// acknowledged new data.
    pub fn acked_samples(&self) -> Samples<'_> {
        self.0
            .as_ref()
            .map_or(Samples::EMPTY, |r| r.acked.samples())
    }

    /// Move the two sample series out, `(cwnd, acked)`, for the report.
    pub fn into_series(self) -> (Series, Series) {
        match self.0 {
            Some(r) => (r.cwnd.into(), r.acked.into()),
            None => (Series::new(), Series::new()),
        }
    }

    /// Bytes held on the heap: the recorded block and its step buffers.
    pub fn heap_bytes(&self) -> usize {
        self.0.as_ref().map_or(0, |r| {
            size_of::<Recorded>()
                + r.signals.heap_bytes()
                + r.cwnd.heap_bytes()
                + r.acked.heap_bytes()
        })
    }
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
            self.timelines.recorded().acked.push(now, acked);
        }
    }

    /// A congestion signal fired.
    pub fn on_congestion(&mut self, now: SimTime, kind: CongestionKind) {
        self.vars.congestion_signals += 1;
        let stall = kind == CongestionKind::SendStall;
        self.timelines.recorded().signals.push(now, stall);
        match kind {
            CongestionKind::FastRetransmit => self.vars.fast_retran += 1,
            CongestionKind::Timeout => self.vars.timeouts += 1,
            CongestionKind::SendStall => self.vars.send_stall += 1,
            CongestionKind::EcnEcho => self.vars.ecn_echoes += 1,
        }
    }

    /// The congestion window changed. The first update is always sampled,
    /// then every `sample_stride`-th, counting the first as the 1st, so the
    /// samples do not depend on when the stride was set.
    #[inline]
    pub fn on_cwnd(&mut self, now: SimTime, cwnd_bytes: u64) {
        self.vars.cur_cwnd = cwnd_bytes;
        self.vars.max_cwnd = self.vars.max_cwnd.max(cwnd_bytes);
        self.cwnd_updates += 1;
        if self.cwnd_updates == 1 || self.cwnd_updates.is_multiple_of(self.sample_stride.max(1)) {
            self.timelines.recorded().cwnd.push(now, cwnd_bytes);
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
        assert_eq!(t.stall_times().collect::<Vec<_>>(), [ms(500), ms(1200)]);
        assert_eq!(
            t.congestion_times().collect::<Vec<_>>(),
            [ms(500), ms(800), ms(1200)]
        );
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
            b.timelines().cwnd_samples().collect::<Vec<_>>(),
            [(ms(0), 2896), (ms(10), 5792), (ms(20), 2896)]
        );
        // The report takes the series; the block keeps counting.
        let (cwnd, acked) = b.take_timelines().into_series();
        assert_eq!(
            cwnd.iter().collect::<Vec<_>>(),
            [(0.0, 2896.0), (0.01, 5792.0), (0.02, 2896.0)]
        );
        assert!(acked.is_empty());
        assert_eq!(b.timelines().cwnd_samples().len(), 0);
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
            b.timelines().acked_samples().collect::<Vec<_>>(),
            [(ms(500), 125_000), (ms(1000), 250_000)]
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
        // The first update, then the 10th, 20th, …, 100th.
        assert_eq!(b.timelines().cwnd_samples().len(), 11);
        // Counters are unaffected by sampling.
        assert_eq!(b.vars().cur_cwnd, 1099);
    }

    #[test]
    fn the_first_cwnd_update_is_sampled_whenever_the_stride_is_set() {
        // Set before the first update, as a builder that knows the stride
        // at construction would, and after it, as `World::build` does: the
        // same samples, the first at t = 0 and the next the 1024th update.
        let mut before = InstrumentBlock::new();
        before.sample_stride = 1024;
        before.on_cwnd(ms(0), 1000);
        let mut after = InstrumentBlock::new();
        after.on_cwnd(ms(0), 1000);
        after.sample_stride = 1024;
        for i in 2..=3000 {
            before.on_cwnd(ms(i), i);
            after.on_cwnd(ms(i), i);
        }
        let samples: Vec<_> = before.timelines().cwnd_samples().collect();
        assert_eq!(samples, [(ms(0), 1000), (ms(1024), 1024), (ms(2048), 2048)]);
        assert_eq!(
            after.timelines().cwnd_samples().collect::<Vec<_>>(),
            samples
        );
    }

    #[test]
    fn timelines_are_one_pointer_and_the_block_is_pinned() {
        // 64 B inline while the stall and congestion times were two
        // `Vec<f64>` beside two series, and the block 288 B with them.
        assert_eq!(size_of::<Timelines>(), 8);
        // The series header: the sample count and the latest plain step's
        // offset are two `u32`s in the 8 bytes a `usize` count took, so the
        // runs cost a connection no header bytes.
        assert_eq!(size_of::<Packed>(), 48);
        let block = size_of::<InstrumentBlock>();
        assert!(block <= 232, "InstrumentBlock is {block} bytes");
        let mut b = InstrumentBlock::new();
        assert_eq!(
            b.timelines().heap_bytes(),
            0,
            "nothing recorded, nothing held"
        );
        b.on_congestion(ms(1), CongestionKind::Timeout);
        assert!(b.timelines().heap_bytes() >= size_of::<Recorded>());
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
