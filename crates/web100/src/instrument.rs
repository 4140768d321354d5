//! The live instrument block: the calls the TCP sender makes, one per
//! sender event, the counters they update, and the timelines a flow report
//! is built from.
//!
//! A connection's timelines sit in one block behind one pointer, allocated
//! by the first thing recorded: the cwnd and acked-bytes samples as packed
//! steps, whose buffers move into the report's [`Series`], the
//! congestion-signal times as nanosecond steps each marked whether it was
//! a send-stall (see the `series` module), which the report reads as
//! [`SimTime`]s and widens to seconds itself.

use crate::series::{Packed, Samples, Series, Signals};
use crate::vars::{CongestionKind, SndLimState, Web100Vars};
use rss_sim::{OptNanos, SimDuration, SimTime};

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

/// Runs of consecutive retransmission timeouts, boxed by the first: most
/// connections never time out.
#[derive(Debug, Clone, Default)]
struct RtoEpisodes {
    /// When the open episode's first timeout fired; none between episodes.
    since: OptNanos<SimTime>,
    count: u64,
    /// Longest span from an episode's first timeout to the ACK that ended it.
    max_recovery: OptNanos<SimDuration>,
    /// Deepest backoff shift any timeout reached.
    max_backoff: u32,
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

/// Per-connection instrumentation: everything the report reads of a flow's
/// sender, fed by one call per sender event. It keeps its own copies of
/// the gauges it reports (cwnd, ssthresh, the receive window, the
/// controller's phase), so the sender holds only control state.
#[derive(Debug, Clone)]
pub struct InstrumentBlock {
    vars: Web100Vars,
    timelines: Timelines,
    rto: Option<Box<RtoEpisodes>>,
    /// What limits the sender since the latest change. When that change
    /// happened is not held: the `snd_lim_time_*` accumulators partition
    /// the time up to it, so it is their sum.
    lim_state: SndLimState,
    /// The controller's slow-start flag after the latest signal.
    slow_start: bool,
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
            rto: None,
            lim_state: SndLimState::Sender,
            slow_start: false,
            sample_stride: 1,
            cwnd_updates: 0,
        }
    }

    /// Read-only access to the counters.
    pub fn vars(&self) -> &Web100Vars {
        &self.vars
    }

    /// The timelines recorded so far.
    pub fn timelines(&self) -> &Timelines {
        &self.timelines
    }

    /// Number of RTO episodes: runs of consecutive retransmission timeouts
    /// with no forward progress between them count once, however deep the
    /// backoff climbed (an outage spanning five RTOs is one episode;
    /// `Web100Vars::timeouts` counts all five).
    pub fn rto_episodes(&self) -> u64 {
        self.rto.as_ref().map_or(0, |e| e.count)
    }

    /// Deepest backoff shift a timeout reached — how far the exponential
    /// backoff climbed during the worst outage.
    pub fn rto_max_backoff(&self) -> u32 {
        self.rto.as_ref().map_or(0, |e| e.max_backoff)
    }

    /// Longest time from an episode's first timeout to the ACK of new data
    /// that ended it — the worst post-outage time-to-recover. `None` if no
    /// episode has completed (including an episode still open at run end).
    pub fn rto_max_recovery(&self) -> Option<SimDuration> {
        self.rto.as_ref().and_then(|e| e.max_recovery.get())
    }

    /// Bytes held on the heap: the timelines and, once a timeout fired,
    /// the RTO episodes.
    pub fn heap_bytes(&self) -> usize {
        self.timelines.heap_bytes() + self.rto.as_ref().map_or(0, |_| size_of::<RtoEpisodes>())
    }

    /// Move the timelines out (a finished flow's report takes them),
    /// leaving them empty.
    pub fn take_timelines(&mut self) -> Timelines {
        std::mem::take(&mut self.timelines)
    }

    // --- one call per sender event -----------------------------------------

    /// A data segment left the stack.
    pub fn on_data_sent(&mut self, bytes: u32, is_retransmit: bool) {
        self.vars.pkts_out += 1;
        self.vars.data_bytes_out += bytes as u64;
        if is_retransmit {
            self.vars.pkts_retrans += 1;
            self.vars.bytes_retrans += bytes as u64;
        }
    }

    /// An ACK arrived advertising `rwin_bytes` and acknowledging
    /// `newly_acked` fresh bytes; one that acknowledges none is a
    /// duplicate. An ACK of new data ends an open RTO episode.
    // This call and `on_signal` run on every ACK and record a sample each:
    // inlined into the sender they cost less than the calls did.
    #[inline]
    pub fn on_ack_in(&mut self, now: SimTime, newly_acked: u64, rwin_bytes: u64) {
        self.vars.ack_pkts_in += 1;
        self.vars.cur_rwin_rcvd = rwin_bytes;
        if newly_acked == 0 {
            self.vars.dup_acks_in += 1;
            return;
        }
        self.vars.thru_bytes_acked += newly_acked;
        let acked = self.vars.thru_bytes_acked;
        self.timelines.recorded().acked.push(now, acked);
        let Some(e) = self.rto.as_deref_mut() else {
            return;
        };
        if let Some(since) = e.since.take() {
            let span = now.saturating_since(since);
            e.max_recovery
                .set(e.max_recovery.get().map_or(span, |m| m.max(span)));
        }
    }

    /// The sender called its controller: `kind` is the congestion signal
    /// that call carried, if any, and `cwnd`, `ssthresh` and `slow_start`
    /// what the controller reports after it.
    ///
    /// The first call, the connection's opening window, starts its first
    /// slow-start episode. After that a call that clears the slow-start
    /// flag enters congestion avoidance, and a timeout outside slow start
    /// re-enters slow start whatever the controller reports. The cwnd
    /// series samples the first call and then every `sample_stride`-th,
    /// counting the first as the 1st, so the samples do not depend on when
    /// the stride was set.
    #[inline]
    pub fn on_signal(
        &mut self,
        now: SimTime,
        kind: Option<CongestionKind>,
        cwnd: u64,
        ssthresh: u64,
        slow_start: bool,
    ) {
        if let Some(kind) = kind {
            self.on_congestion(now, kind);
        }
        if self.cwnd_updates == 0 || (!self.slow_start && kind == Some(CongestionKind::Timeout)) {
            self.vars.slow_start_episodes += 1;
        } else if self.slow_start && !slow_start {
            self.vars.cong_avoid_episodes += 1;
        }
        self.slow_start = slow_start;
        self.vars.cur_ssthresh = ssthresh;
        self.vars.cur_cwnd = cwnd;
        self.vars.max_cwnd = self.vars.max_cwnd.max(cwnd);
        self.cwnd_updates += 1;
        if self.cwnd_updates == 1 || self.cwnd_updates.is_multiple_of(self.sample_stride.max(1)) {
            self.timelines.recorded().cwnd.push(now, cwnd);
        }
    }

    fn on_congestion(&mut self, now: SimTime, kind: CongestionKind) {
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

    /// A retransmission timeout fired and backed the RTO off to
    /// `backoff_shift` doublings. The first timeout after forward progress
    /// opens an episode; the next ACK of new data ends it.
    pub fn on_rto(&mut self, now: SimTime, backoff_shift: u32) {
        let rto = self.rto.get_or_insert_with(Box::default);
        rto.max_backoff = rto.max_backoff.max(backoff_shift);
        if rto.since.is_none() {
            rto.since.set(now);
            rto.count += 1;
        }
    }

    /// A fresh RTT sample and the estimator's smoothed RTT and RTO after
    /// it, recorded in whole microseconds as TCP-KIS reports them.
    pub fn on_rtt(&mut self, sample: SimDuration, srtt: SimDuration, rto: SimDuration) {
        let us = |d: SimDuration| d.as_nanos() / 1_000;
        let sample_us = us(sample);
        if self.vars.min_rtt_us == 0 {
            self.vars.min_rtt_us = sample_us;
        } else {
            self.vars.min_rtt_us = self.vars.min_rtt_us.min(sample_us);
        }
        self.vars.max_rtt_us = self.vars.max_rtt_us.max(sample_us);
        self.vars.smoothed_rtt_us = us(srtt);
        self.vars.cur_rto_us = us(rto);
    }

    /// What limits the sender at `now` (the sender asks after each pump);
    /// time since the latest change is charged to the state it ends.
    #[inline]
    pub fn on_snd_lim(&mut self, now: SimTime, state: SndLimState) {
        if state != self.lim_state {
            self.charge_lim_time(now);
            self.lim_state = state;
        }
    }

    fn charge_lim_time(&mut self, now: SimTime) {
        let v = &mut self.vars;
        let since = v.snd_lim_time_rwin_ns + v.snd_lim_time_cwnd_ns + v.snd_lim_time_sender_ns;
        let elapsed = now.as_nanos().saturating_sub(since);
        match self.lim_state {
            SndLimState::Rwin => v.snd_lim_time_rwin_ns += elapsed,
            SndLimState::Cwnd => v.snd_lim_time_cwnd_ns += elapsed,
            SndLimState::Sender => v.snd_lim_time_sender_ns += elapsed,
        }
    }

    /// Close out time accounting at `end` for a flow that opened at
    /// `start`, so the `snd_lim_time_*` accumulators sum to `end − start`.
    /// Before its start a flow sends nothing, so the sender reports it
    /// `Sender`-limited, the state a block opens in, and the time before
    /// the start sits in that accumulator; it is taken out here.
    pub fn finish(&mut self, start: SimTime, end: SimTime) {
        self.charge_lim_time(end);
        let v = &mut self.vars;
        v.snd_lim_time_sender_ns = v.snd_lim_time_sender_ns.saturating_sub(start.as_nanos());
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

    /// A signal that changes only the window (an ACK in slow start).
    fn grow(b: &mut InstrumentBlock, now: SimTime, cwnd: u64) {
        b.on_signal(now, None, cwnd, u64::MAX, true);
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
        let signal =
            |b: &mut InstrumentBlock, t, kind| b.on_signal(ms(t), Some(kind), 2896, 2896, false);
        signal(&mut b, 500, CongestionKind::SendStall);
        signal(&mut b, 800, CongestionKind::FastRetransmit);
        signal(&mut b, 1200, CongestionKind::SendStall);
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
        grow(&mut b, ms(0), 2896);
        grow(&mut b, ms(10), 5792);
        b.on_signal(ms(20), None, 2896, 2896, false);
        assert_eq!(b.vars().cur_cwnd, 2896);
        assert_eq!(b.vars().max_cwnd, 5792);
        assert_eq!(b.vars().cur_ssthresh, 2896);
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
        let us = SimDuration::from_micros;
        b.on_rtt(us(60_000), us(60_000), us(240_000));
        b.on_rtt(us(75_000), us(62_000), us(250_000));
        // Nanoseconds below a whole microsecond are cut.
        let sub_us = SimDuration::from_nanos(999);
        b.on_rtt(
            us(58_000) + sub_us,
            us(61_000) + sub_us,
            us(245_000) + sub_us,
        );
        let v = b.vars();
        assert_eq!(v.min_rtt_us, 58_000);
        assert_eq!(v.max_rtt_us, 75_000);
        assert_eq!(v.smoothed_rtt_us, 61_000);
        assert_eq!(v.cur_rto_us, 245_000);
    }

    #[test]
    fn snd_lim_partitions_time() {
        let mut b = InstrumentBlock::new();
        // Starts in Sender at t=0; asking again in the same state changes
        // nothing.
        b.on_snd_lim(ms(5), SndLimState::Sender);
        b.on_snd_lim(ms(10), SndLimState::Cwnd);
        b.on_snd_lim(ms(40), SndLimState::Rwin);
        b.on_snd_lim(ms(70), SndLimState::Rwin);
        b.finish(SimTime::ZERO, ms(100));
        let v = b.vars();
        assert_eq!(v.snd_lim_time_sender_ns, 10_000_000);
        assert_eq!(v.snd_lim_time_cwnd_ns, 30_000_000);
        assert_eq!(v.snd_lim_time_rwin_ns, 60_000_000);
    }

    #[test]
    fn snd_lim_time_starts_at_the_flows_start() {
        // A flow opening at 30 ms: idle (Sender) until then, cwnd-limited
        // from its first pump, then waiting on its application.
        let mut b = InstrumentBlock::new();
        b.on_snd_lim(ms(20), SndLimState::Sender);
        b.on_snd_lim(ms(30), SndLimState::Cwnd);
        b.on_snd_lim(ms(90), SndLimState::Sender);
        b.finish(ms(30), ms(100));
        let v = b.vars();
        assert_eq!(v.snd_lim_time_cwnd_ns, 60_000_000);
        assert_eq!(v.snd_lim_time_sender_ns, 10_000_000);
        assert_eq!(v.snd_lim_time_rwin_ns, 0);
        // A flow that would have opened after the run charges nothing.
        let mut b = InstrumentBlock::new();
        b.finish(ms(200), ms(100));
        assert_eq!(b.vars().snd_lim_time_sender_ns, 0);
    }

    #[test]
    fn goodput_from_acks() {
        let mut b = InstrumentBlock::new();
        b.on_ack_in(ms(500), 125_000, 65_535);
        b.on_ack_in(ms(1000), 125_000, 65_535);
        // 250 kB in 1 s = 2 Mbit/s.
        assert!((b.goodput_bps(SimTime::from_secs(1)) - 2_000_000.0).abs() < 1.0);
        assert_eq!(
            b.timelines().acked_samples().collect::<Vec<_>>(),
            [(ms(500), 125_000), (ms(1000), 250_000)]
        );
        assert_eq!(b.vars().thru_bytes_acked, 250_000);
        assert_eq!(b.vars().cur_rwin_rcvd, 65_535);
    }

    #[test]
    fn dup_acks_counted_separately() {
        let mut b = InstrumentBlock::new();
        b.on_ack_in(ms(1), 0, 1 << 20);
        b.on_ack_in(ms(2), 0, 1 << 20);
        b.on_ack_in(ms(3), 1448, 1 << 19);
        let v = b.vars();
        assert_eq!(v.ack_pkts_in, 3);
        assert_eq!(v.dup_acks_in, 2);
        assert_eq!(v.thru_bytes_acked, 1448);
        assert_eq!(v.cur_rwin_rcvd, 1 << 19);
    }

    #[test]
    fn sample_stride_thins_series() {
        let mut b = InstrumentBlock::new();
        b.sample_stride = 10;
        for i in 0..100 {
            grow(&mut b, ms(i), 1000 + i);
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
        grow(&mut before, ms(0), 1000);
        let mut after = InstrumentBlock::new();
        grow(&mut after, ms(0), 1000);
        after.sample_stride = 1024;
        for i in 2..=3000 {
            grow(&mut before, ms(i), i);
            grow(&mut after, ms(i), i);
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
        // The controller's phase sits in the padding after the limit
        // state, and the pointer to the RTO episodes where the time of the
        // latest limit change was, now the accumulators' sum.
        let block = size_of::<InstrumentBlock>();
        assert!(block <= 232, "InstrumentBlock is {block} bytes");
        let mut b = InstrumentBlock::new();
        assert_eq!(
            b.timelines().heap_bytes(),
            0,
            "nothing recorded, nothing held"
        );
        b.on_signal(ms(1), Some(CongestionKind::Timeout), 1448, 2896, true);
        assert!(b.timelines().heap_bytes() >= size_of::<Recorded>());
    }

    #[test]
    fn episode_counters() {
        let mut b = InstrumentBlock::new();
        // The opening window starts the first slow-start episode.
        b.on_signal(ms(0), None, 2000, u64::MAX, true);
        // The controller leaves slow start: congestion avoidance.
        b.on_signal(
            ms(1),
            Some(CongestionKind::FastRetransmit),
            3000,
            3000,
            false,
        );
        // A timeout outside slow start re-enters it.
        b.on_signal(ms(2), Some(CongestionKind::Timeout), 1000, 1500, true);
        assert_eq!(b.vars().slow_start_episodes, 2);
        assert_eq!(b.vars().cong_avoid_episodes, 1);
    }
}
