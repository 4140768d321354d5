//! The send side: window accounting, retransmission timers, send-stall
//! handling, and the calls that feed its Web100 recorder, one per sender
//! event. Loss recovery is [`NewReno`]'s; every call into the congestion
//! controller goes through one function, which then tells the recorder
//! what the controller heard and reports.
//!
//! The sender is sans-IO: the embedding world model asks it what to transmit
//! ([`TcpSender::can_transmit`]), attempts to place the segment on the host
//! NIC, and reports the outcome ([`TcpSender::commit_transmit`] on success,
//! [`TcpSender::on_local_stall`] when the IFQ rejects the segment — the
//! paper's send-stall). Timers follow the "deadline + stale-check" pattern:
//! the driver schedules a check event for each deadline it observes and the
//! sender ignores checks that no longer apply.

use crate::cc::{CcEngine, CcView, CongestionEvent, PacingDecision, RecoveryEvent};
use crate::recovery::{CcSignal, NewReno};
use crate::rtt::RttEstimator;
use crate::sent::{SentInfo, SentRing};
use crate::types::{ConnId, StallResponse, TcpConfig};
use rss_sim::{OptNanos, SimDuration, SimTime};
use rss_web100::{CongestionKind, InstrumentBlock, SndLimState};

/// A transmission the sender wants to make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxPlan {
    /// First byte offset.
    pub seq: u64,
    /// Payload length.
    pub len: u32,
    /// True if any part of the range was transmitted before.
    pub retransmit: bool,
}

/// Host-queue state the sender samples at event time (the controller's
/// process variable rides in here).
#[derive(Debug, Clone, Copy)]
pub struct IfqSnapshot {
    /// Current depth, packets.
    pub depth: u32,
    /// Capacity, packets.
    pub max: u32,
}

/// One connection's send state.
#[derive(Debug)]
pub struct TcpSender {
    conn: ConnId,
    /// What the sender reads of its [`TcpConfig`] after construction.
    mss: u32,
    dupack_threshold: u32,
    stall_retry: SimDuration,
    stall_response: StallResponse,
    cc: CcEngine,
    rtt: RttEstimator,
    web100: InstrumentBlock,

    snd_una: u64,
    snd_nxt: u64,
    /// Highest byte ever sent (for Karn's rule: anything below is a
    /// retransmission when sent again).
    max_sent: u64,
    /// Total bytes the application will write, [`UNBOUNDED`] for an
    /// unbounded source.
    app_total: u64,
    peer_rwnd: u64,

    /// Fast retransmit and recovery: the duplicate-ACK count, the recovery
    /// point and the hole to retransmit.
    recovery: NewReno,
    /// A 16-byte record per segment in flight, ordered by segment end,
    /// with room for the flight it holds now.
    sent_times: SentRing,

    /// Latest Karn-valid RTT sample and the connection minimum, surfaced to
    /// the congestion controller through [`CcView`] (delay-based variants
    /// pace on them; the RFC 6298 estimator keeps its own smoothing).
    last_rtt: OptNanos<SimDuration>,
    min_rtt: OptNanos<SimDuration>,

    /// Latest delivery-rate sample (payload bytes/second) and whether it
    /// was taken application-limited — the rate sample surfaced through
    /// [`CcView`]. Samples ride the same Karn filter as RTT: retransmitted
    /// segments never produce one. [`NO_RATE`] before the first.
    delivery_rate: u64,
    rate_app_limited: bool,

    /// Earliest time the pacer permits the next departure. Only consulted
    /// while the controller actually requests pacing; window variants
    /// (`PacingDecision::Unpaced`) never touch this path.
    pacing_next: SimTime,
    /// Release instant a pacing retry is already armed for (dedup so each
    /// pump schedules at most one wakeup per release time).
    pacing_armed: OptNanos<SimTime>,

    rto_deadline: OptNanos<SimTime>,
    /// No transmission before this time after a stall (driver-retry model).
    stall_until: OptNanos<SimTime>,
    /// Only signal the congestion layer about stalls again once snd_una
    /// passes this point (once-per-window, like Linux CWR).
    stall_signal_gate: u64,
    /// Only react to an ECN echo again once snd_una passes this point: the
    /// RFC 3168 CWR rule of at most one cwnd reduction per window of data.
    ecn_cwr_gate: u64,
}

/// The time `len` payload bytes take at `bytes_per_sec`. Floor division: an
/// effectively-infinite rate (`u64::MAX`) yields a zero gap, so the pacer
/// never holds a departure and the schedule is the unpaced one.
fn pacing_gap(len: u32, bytes_per_sec: u64) -> SimDuration {
    let gap_ns = len as u128 * 1_000_000_000 / bytes_per_sec as u128;
    SimDuration::from_nanos(gap_ns as u64)
}

/// `TcpSender::app_total` of an unbounded source, and `delivery_rate`
/// before its first sample: 8 bytes each where an `Option<u64>` takes 16.
const UNBOUNDED: u64 = u64::MAX;
const NO_RATE: u64 = u64::MAX;

/// The largest window TCP can use (RFC 7323 §2.2: a window scale of at most
/// 14 over a 16-bit window field), in bytes.
const MAX_WINDOW: u64 = 1 << 30;

impl TcpSender {
    /// Create a sender with the given congestion controller and an
    /// application that will write `app_total` bytes (`None` = unlimited, as
    /// is a total of `u64::MAX` bytes).
    pub fn new(conn: ConnId, cfg: TcpConfig, cc: CcEngine, app_total: Option<u64>) -> Self {
        let mut web100 = InstrumentBlock::new();
        web100.on_signal(
            SimTime::ZERO,
            None,
            cc.cwnd(),
            cc.ssthresh(),
            cc.in_slow_start(),
        );
        TcpSender {
            conn,
            mss: cfg.mss,
            dupack_threshold: cfg.dupack_threshold,
            stall_retry: cfg.stall_retry,
            stall_response: cfg.stall_response,
            peer_rwnd: cfg.rwnd,
            cc,
            rtt: RttEstimator::new(cfg.min_rto, cfg.max_rto),
            web100,
            snd_una: 0,
            snd_nxt: 0,
            max_sent: 0,
            app_total: app_total.unwrap_or(UNBOUNDED),
            recovery: NewReno::default(),
            sent_times: SentRing::default(),
            last_rtt: OptNanos::NONE,
            min_rtt: OptNanos::NONE,
            delivery_rate: NO_RATE,
            rate_app_limited: false,
            pacing_next: SimTime::ZERO,
            pacing_armed: OptNanos::NONE,
            rto_deadline: OptNanos::NONE,
            stall_until: OptNanos::NONE,
            stall_signal_gate: 0,
            ecn_cwr_gate: 0,
        }
    }

    // --- accessors ---------------------------------------------------------

    /// The connection id.
    pub fn conn(&self) -> ConnId {
        self.conn
    }

    /// First unacknowledged byte.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Next byte to transmit.
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// Bytes in flight.
    #[inline]
    pub fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// The congestion controller.
    pub fn cc(&self) -> &CcEngine {
        &self.cc
    }

    /// The RTT estimator.
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// The Web100 instrument block.
    pub fn web100(&self) -> &InstrumentBlock {
        &self.web100
    }

    /// Mutable instrument access: the driver sets the cwnd sampling stride,
    /// and a finished flow's report closes the block and takes its
    /// timelines.
    pub fn web100_mut(&mut self) -> &mut InstrumentBlock {
        &mut self.web100
    }

    /// Bytes the sender holds on the heap beside its recorder
    /// ([`rss_web100::InstrumentBlock::heap_bytes`]): its send-timestamp ring and
    /// its controller's boxed state ([`CcEngine::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.sent_times.heap_bytes() + self.cc.heap_bytes()
    }

    /// True while a fast-recovery episode is in progress.
    pub fn in_recovery(&self) -> bool {
        self.recovery.in_recovery()
    }

    /// True when a finite transfer is fully acknowledged.
    pub fn is_complete(&self) -> bool {
        self.app_total != UNBOUNDED && self.snd_una >= self.app_total
    }

    /// Deadline the driver must schedule an RTO check for, if any.
    pub fn rto_deadline(&self) -> Option<SimTime> {
        self.rto_deadline.get()
    }

    /// Time the driver must re-attempt transmission after a stall, if any.
    pub fn stall_retry_at(&self) -> Option<SimTime> {
        self.stall_until.get()
    }

    #[inline]
    fn view(&self, now: SimTime, ifq: IfqSnapshot) -> CcView {
        CcView {
            now,
            flight: self.flight(),
            ifq_depth: ifq.depth,
            ifq_max: ifq.max,
            last_rtt: self.last_rtt.get(),
            min_rtt: self.min_rtt.get(),
            delivery_rate: (self.delivery_rate != NO_RATE).then_some(self.delivery_rate),
            app_limited: self.rate_app_limited,
        }
    }

    fn app_bytes_remaining(&self) -> u64 {
        match self.app_total {
            UNBOUNDED => u64::MAX,
            total => total.saturating_sub(self.snd_nxt),
        }
    }

    /// The usable window: cwnd, the peer's window, and RFC 7323's 2^30
    /// bytes, which keeps every in-flight sequence number within 2^31 of
    /// `snd_una` (see [`SentRing`]).
    #[inline]
    fn effective_window(&self) -> u64 {
        self.cc.cwnd().min(self.peer_rwnd).min(MAX_WINDOW)
    }

    // --- transmission ------------------------------------------------------

    /// What the sender would transmit right now, if anything. Pure; call
    /// [`TcpSender::commit_transmit`] once the segment is safely on the IFQ.
    /// Honors the congestion controller's pacing rate: a departure the
    /// window would allow is still held until [`pacing_retry_at`] releases
    /// it.
    ///
    /// [`pacing_retry_at`]: TcpSender::pacing_retry_at
    #[inline]
    pub fn can_transmit(&self, now: SimTime) -> Option<TxPlan> {
        self.transmit_plan(now, false)
    }

    /// `can_transmit`, optionally ignoring the pacing gate (the pacer itself
    /// needs to know whether a departure is pending behind it).
    #[inline]
    fn transmit_plan(&self, now: SimTime, ignore_pacing: bool) -> Option<TxPlan> {
        if let Some(until) = self.stall_until.get() {
            if now < until {
                return None;
            }
        }
        if !ignore_pacing
            && now < self.pacing_next
            && matches!(self.cc.pacing(), PacingDecision::Rate { .. })
        {
            return None;
        }
        if let Some(plan) = self.recovery.retransmit(self.snd_una) {
            return Some(plan);
        }
        let window = self.effective_window();
        if self.flight() >= window {
            return None;
        }
        let room = window - self.flight();
        let remaining = self.app_bytes_remaining();
        if remaining == 0 {
            return None;
        }
        let len = (self.mss as u64).min(remaining).min(room) as u32;
        if len == 0 {
            return None;
        }
        // Avoid silly-window segments: send sub-MSS only at the very end of
        // a finite transfer.
        if (len as u64) < self.mss as u64 && remaining > len as u64 {
            return None;
        }
        Some(TxPlan {
            seq: self.snd_nxt,
            len,
            retransmit: self.snd_nxt < self.max_sent,
        })
    }

    /// The segment from `can_transmit` was accepted by the IFQ.
    #[inline]
    pub fn commit_transmit(&mut self, now: SimTime, plan: TxPlan) {
        let end = plan.seq + plan.len as u64;
        self.recovery.on_transmit(plan, self.snd_una);
        if plan.seq == self.snd_nxt {
            self.snd_nxt = end;
        }
        let was_sent_before = end <= self.max_sent;
        self.max_sent = self.max_sent.max(end);
        // Application-limited when the send window still has room but the
        // app has nothing further to write — a rate sample over this
        // departure measures the app, not the path.
        let app_limited =
            self.app_bytes_remaining() == 0 && self.flight() < self.effective_window();
        let info = SentInfo {
            sent_at: now,
            retransmitted: plan.retransmit || was_sent_before,
            delivered_at_send: self.snd_una,
            app_limited,
        };
        self.sent_times.record(end, info);
        self.web100
            .on_data_sent(plan.len, plan.retransmit || was_sent_before);
        // Stall window passed: clear the retry gate on successful enqueue.
        self.stall_until = OptNanos::NONE;
        // Advance the pacer by this segment's serialization time at the
        // controller's rate. Unpaced controllers never reach this arm, so
        // the window-variant path is byte-identical to the pre-pacing code.
        if let PacingDecision::Rate { bytes_per_sec } = self.cc.pacing() {
            self.pacing_next = self.pacing_next.max(now) + pacing_gap(plan.len, bytes_per_sec);
            self.pacing_armed = OptNanos::NONE;
        }
        if self.rto_deadline.is_none() {
            self.rto_deadline.set(now + self.rtt.rto());
        }
    }

    /// When the pacer is the only thing holding a transmission back, the
    /// release instant the driver must schedule a retry for. Arms at most
    /// once per release time; committing a transmit re-arms.
    pub fn pacing_retry_at(&mut self, now: SimTime) -> Option<SimTime> {
        if now >= self.pacing_next
            || !matches!(self.cc.pacing(), PacingDecision::Rate { .. })
            || self.pacing_armed.get() == Some(self.pacing_next)
            || self.transmit_plan(now, true).is_none()
        {
            return None;
        }
        self.pacing_armed.set(self.pacing_next);
        Some(self.pacing_next)
    }

    /// The IFQ rejected the segment: a send-stall. Mirrors Linux 2.4: the
    /// segment is not considered sent, the congestion layer is told what
    /// the [`StallResponse`] says (at most once per outstanding window), and
    /// transmission pauses briefly.
    pub fn on_local_stall(&mut self, now: SimTime, ifq: IfqSnapshot) {
        self.stall_until.set(now + self.stall_retry);
        //= Allcock, Hegde, Kettimuthu: Restricted Slow-Start for TCP, §2
        //# treats these events in the same way as it would treat the network
        //# congestion
        // `Cwr` is Linux 2.4's answer (`tcp_enter_cwr`). `RestartFromOne`
        // departs from it by restarting slow-start from one segment;
        // `Ignore` by telling the controller nothing, which leaves no
        // reduction to wait out, so every stall is counted.
        let heard = match self.stall_response {
            StallResponse::Ignore => None,
            _ if self.snd_una < self.stall_signal_gate => return,
            StallResponse::Cwr => Some(CongestionEvent::LocalStall),
            StallResponse::RestartFromOne => Some(CongestionEvent::Timeout),
        };
        self.signal(now, ifq, CcSignal::Stall(heard));
        self.stall_signal_gate = self.snd_nxt;
    }

    /// An arriving ACK carried the ECN echo (ECE): the network CE-marked a
    /// data segment. Per RFC 3168 the sender reduces at most once per window
    /// of data (CWR semantics) and not at all while loss recovery is already
    /// reducing for the same window. The reduction itself is delivered
    /// through [`rss_cc::RecoveryEvent::EcnEcho`], so every registry variant
    /// reacts through its existing `on_recovery` hook.
    pub fn on_ecn_echo(&mut self, now: SimTime, ifq: IfqSnapshot) {
        if self.recovery.in_recovery() {
            // Loss recovery already cut the window for this flight; reacting
            // again would double-punish one congestion episode.
            return;
        }
        if self.snd_una >= self.ecn_cwr_gate {
            self.signal(now, ifq, CcSignal::Recovery(RecoveryEvent::EcnEcho));
            self.ecn_cwr_gate = self.snd_nxt;
        }
    }

    // --- ACK processing ------------------------------------------------------

    /// Process a cumulative ACK; one at or below `snd_una` is a duplicate.
    #[inline]
    pub fn on_ack(&mut self, now: SimTime, ack: u64, rwnd: u64, ifq: IfqSnapshot) {
        self.peer_rwnd = rwnd;
        let newly = ack.saturating_sub(self.snd_una);
        self.web100.on_ack_in(now, newly, rwnd);
        if newly > 0 {
            self.snd_una = ack;
            // A late ACK can outrun a go-back-N rollback: segments sent
            // before the timeout are still in flight and may be acked after
            // snd_nxt was pulled back. Never let snd_una pass snd_nxt.
            self.snd_nxt = self.snd_nxt.max(ack);
            // Forward progress clears RTO backoff even if Karn's rule
            // forbids a sample (all-retransmitted window under heavy loss).
            self.rtt.clear_backoff();
            self.take_rtt_sample(now, ack);
            // Re-arm or clear the RTO.
            self.rto_deadline = (self.flight() > 0).then(|| now + self.rtt.rto()).into();
        }
        let flight = self.snd_una..self.snd_nxt;
        let (threshold, mss) = (self.dupack_threshold, self.mss);
        if let Some(sig) = self.recovery.on_ack(newly, flight, threshold, mss) {
            self.signal(now, ifq, sig);
        }
    }

    #[inline]
    fn take_rtt_sample(&mut self, now: SimTime, ack: u64) {
        // Newest fully-acked, never-retransmitted segment gives the sample
        // (Karn's rule). Acked records sit at the front of the ring. The
        // same segment also anchors the delivery-rate sample: bytes
        // delivered since it departed, over the time since it departed.
        let Some(info) = self.sent_times.ack(ack) else {
            return;
        };
        let rtt = now.saturating_since(info.sent_at);
        if rtt > SimDuration::ZERO {
            let bytes = self.snd_una - info.delivered_at_send;
            let rate = bytes as u128 * 1_000_000_000 / rtt.as_nanos() as u128;
            // Held below `NO_RATE`: no path comes near 2^64 B/s.
            self.delivery_rate = rate.min(u128::from(NO_RATE - 1)) as u64;
            self.rate_app_limited = info.app_limited;
        }
        self.last_rtt.set(rtt);
        self.min_rtt
            .set(self.min_rtt.get().map_or(rtt, |m| m.min(rtt)));
        self.rtt.on_sample(rtt);
        let srtt = self.rtt.srtt().unwrap_or(rtt);
        self.web100.on_rtt(rtt, srtt, self.rtt.rto());
    }

    // --- timers -------------------------------------------------------------

    /// The driver's RTO check fired. Returns true if a timeout actually
    /// happened (stale checks return false).
    pub fn on_rto_check(&mut self, now: SimTime, ifq: IfqSnapshot) -> bool {
        let Some(deadline) = self.rto_deadline.get() else {
            return false;
        };
        if now < deadline || self.flight() == 0 {
            return false;
        }
        // Retransmission timeout: go-back-N from snd_una, collapse window,
        // re-enter slow-start (RFC 5681 §3.1).
        self.signal(now, ifq, CcSignal::Congestion(CongestionEvent::Timeout));
        self.rtt.backoff();
        self.web100.on_rto(now, self.rtt.backoff_shift());
        self.recovery = NewReno::default();
        // Roll back: everything past snd_una is presumed lost and will be
        // resent under the collapsed window (receiver dedups any survivors).
        self.snd_nxt = self.snd_una;
        self.sent_times.clear();
        self.stall_until = OptNanos::NONE;
        self.rto_deadline.set(now + self.rtt.rto());
        true
    }

    // --- bookkeeping ---------------------------------------------------------

    /// The one call into the congestion controller: hand it `sig` with a
    /// fresh view, then tell the recorder the congestion signal it carried
    /// and the new cwnd, ssthresh and phase.
    #[inline]
    fn signal(&mut self, now: SimTime, ifq: IfqSnapshot, sig: CcSignal) {
        let view = self.view(now, ifq);
        let kind = match sig {
            CcSignal::Ack(newly) => {
                self.cc.on_ack(&view, newly);
                None
            }
            CcSignal::Congestion(ev) => {
                self.cc.on_congestion(&view, ev);
                Some(match ev {
                    CongestionEvent::FastRetransmit => CongestionKind::FastRetransmit,
                    CongestionEvent::Timeout => CongestionKind::Timeout,
                    CongestionEvent::LocalStall => CongestionKind::SendStall,
                })
            }
            CcSignal::Stall(heard) => {
                if let Some(ev) = heard {
                    self.cc.on_congestion(&view, ev);
                }
                Some(CongestionKind::SendStall)
            }
            CcSignal::Recovery(ev) => {
                self.cc.on_recovery(&view, ev);
                (ev == RecoveryEvent::EcnEcho).then_some(CongestionKind::EcnEcho)
            }
        };
        let cc = &self.cc;
        self.web100
            .on_signal(now, kind, cc.cwnd(), cc.ssthresh(), cc.in_slow_start());
    }

    /// Tell the recorder what limits the sender right now. The driver calls
    /// this after each pump so the Web100 `SndLimTime*` accumulators
    /// partition wall time.
    ///
    /// The window limits the flow when the segment `transmit_plan` would
    /// send next (a full MSS, or a finite transfer's tail) does not
    /// fit in it: then the smaller of the two bounds, the peer's window or
    /// cwnd, is named. A room under one segment is the window's doing too,
    /// since the silly-window rule sends nothing into it.
    pub fn update_lim_state(&mut self, now: SimTime) {
        let remaining = self.app_bytes_remaining();
        let segment = (self.mss as u64).min(remaining);
        let rwin = self.peer_rwnd.min(MAX_WINDOW);
        let state = if remaining == 0 || self.flight() + segment <= self.effective_window() {
            // Nothing to send, or the window open but nothing sent: app or
            // local queue limited.
            SndLimState::Sender
        } else if rwin <= self.cc.cwnd() {
            SndLimState::Rwin
        } else {
            SndLimState::Cwnd
        };
        self.web100.on_snd_lim(now, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CcAlgorithm;
    use crate::make_cc;

    const MSS: u32 = 1000;

    fn cfg() -> TcpConfig {
        TcpConfig {
            mss: MSS,
            header_bytes: 40,
            initial_cwnd_mss: 2,
            rwnd: 1_000_000,
            ..TcpConfig::default()
        }
    }

    fn sender(app_total: Option<u64>) -> TcpSender {
        let c = cfg();
        let cc = make_cc(CcAlgorithm::Reno, &c).unwrap();
        TcpSender::new(ConnId(0), c, cc, app_total)
    }

    fn ifq() -> IfqSnapshot {
        IfqSnapshot { depth: 0, max: 100 }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Transmit everything currently permitted; returns the plans.
    fn drain(s: &mut TcpSender, now: SimTime) -> Vec<TxPlan> {
        let mut out = vec![];
        while let Some(p) = s.can_transmit(now) {
            s.commit_transmit(now, p);
            out.push(p);
        }
        out
    }

    #[test]
    fn initial_window_limits_transmission() {
        let mut s = sender(None);
        let plans = drain(&mut s, t(0));
        assert_eq!(plans.len(), 2, "IW = 2 segments");
        assert_eq!(plans[0].seq, 0);
        assert_eq!(plans[1].seq, 1000);
        assert!(!plans[0].retransmit);
        assert_eq!(s.flight(), 2000);
        assert!(s.can_transmit(t(0)).is_none(), "window exhausted");
        assert!(s.rto_deadline().is_some());
    }

    #[test]
    fn ack_opens_window_and_slow_start_grows() {
        let mut s = sender(None);
        drain(&mut s, t(0));
        s.on_ack(t(60), 1000, 1_000_000, ifq());
        // cwnd 2->3 MSS, flight 1 MSS: can send 2 more.
        let plans = drain(&mut s, t(60));
        assert_eq!(plans.len(), 2);
        assert_eq!(s.cc().cwnd(), 3000);
        assert_eq!(s.snd_una(), 1000);
    }

    #[test]
    fn finite_transfer_completes_with_tail_segment() {
        let mut s = sender(Some(2500));
        let plans = drain(&mut s, t(0));
        // 1000 + 1000 + (500 pending; window is 2 MSS so only 2 now)
        assert_eq!(plans.len(), 2);
        s.on_ack(t(60), 2000, 1_000_000, ifq());
        let plans = drain(&mut s, t(60));
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].len, 500, "tail sub-MSS segment allowed");
        s.on_ack(t(120), 2500, 1_000_000, ifq());
        assert!(s.is_complete());
        assert!(s.rto_deadline().is_none(), "no data outstanding");
    }

    #[test]
    fn ecn_echo_halves_once_per_window() {
        let mut s = sender(None);
        // Grow past the 2-MSS floor so a halving is visible.
        drain(&mut s, t(0));
        s.on_ack(t(60), 2000, 1_000_000, ifq());
        drain(&mut s, t(60)); // flight = cwnd = 3 MSS
        let cwnd0 = s.cc().cwnd();
        s.on_ecn_echo(t(70), ifq());
        let cwnd1 = s.cc().cwnd();
        assert!(cwnd1 < cwnd0, "first echo reduces cwnd");
        assert_eq!(s.web100().vars().ecn_echoes, 1);
        // Second echo in the same window of data: gated off.
        s.on_ecn_echo(t(71), ifq());
        assert_eq!(s.cc().cwnd(), cwnd1, "same-window echo ignored");
        assert_eq!(s.web100().vars().ecn_echoes, 1);
        // Once snd_una passes the gate (snd_nxt at echo time), echoes count
        // again.
        s.on_ack(t(120), s.snd_nxt(), 1_000_000, ifq());
        s.on_ecn_echo(t(130), ifq());
        assert_eq!(s.web100().vars().ecn_echoes, 2);
    }

    #[test]
    fn ecn_echo_ignored_during_loss_recovery() {
        let mut s = sender(None);
        // Grow a window, then force fast recovery with three dup ACKs.
        drain(&mut s, t(0));
        s.on_ack(t(60), 2000, 1_000_000, ifq());
        drain(&mut s, t(60));
        for i in 0..3 {
            s.on_ack(t(70 + i), 2000, 1_000_000, ifq());
        }
        assert!(s.in_recovery());
        let cwnd = s.cc().cwnd();
        s.on_ecn_echo(t(80), ifq());
        assert_eq!(s.cc().cwnd(), cwnd, "no extra cut while recovering");
        assert_eq!(s.web100().vars().ecn_echoes, 0);
    }

    #[test]
    fn no_silly_window_mid_transfer() {
        let mut s = sender(None);
        // Shrink the window so room is sub-MSS: flight 2000 of cwnd 2000.
        drain(&mut s, t(0));
        // rwnd forces a 500-byte room: must NOT send a partial segment.
        s.on_ack(t(60), 1000, 1500, ifq()); // peer_rwnd = 1500, flight = 1000
        assert!(s.can_transmit(t(60)).is_none());
    }

    #[test]
    fn rtt_sample_updates_estimator() {
        let mut s = sender(None);
        drain(&mut s, t(0));
        s.on_ack(t(60), 1000, 1_000_000, ifq());
        assert_eq!(s.rtt().srtt(), Some(SimDuration::from_millis(60)));
        assert_eq!(s.web100().vars().smoothed_rtt_us, 60_000);
    }

    #[test]
    fn triple_dupack_enters_fast_recovery_and_retransmits() {
        let mut s = sender(None);
        drain(&mut s, t(0)); // 2 segments out
        s.on_ack(t(60), 1000, 1_000_000, ifq());
        s.on_ack(t(60), 2000, 1_000_000, ifq());
        drain(&mut s, t(60)); // more segments out under cwnd 4
        assert!(s.flight() >= 3000);
        // Three dup ACKs at 2000.
        for i in 0..3 {
            s.on_ack(t(70 + i), 2000, 1_000_000, ifq());
        }
        assert!(s.in_recovery());
        assert_eq!(s.web100().vars().fast_retran, 1);
        assert_eq!(s.web100().vars().dup_acks_in, 3);
        // Head of line is the retransmission of snd_una.
        let p = s.can_transmit(t(75)).unwrap();
        assert_eq!(p.seq, 2000);
        assert!(p.retransmit);
        s.commit_transmit(t(75), p);
        assert_eq!(s.web100().vars().pkts_retrans, 1);
        // Full ACK exits recovery.
        let recover_point = s.snd_nxt();
        s.on_ack(t(130), recover_point, 1_000_000, ifq());
        assert!(!s.in_recovery());
    }

    #[test]
    fn fewer_than_threshold_dupacks_do_nothing() {
        let mut s = sender(None);
        drain(&mut s, t(0));
        s.on_ack(t(60), 1000, 1_000_000, ifq());
        drain(&mut s, t(60));
        s.on_ack(t(61), 1000, 1_000_000, ifq());
        s.on_ack(t(62), 1000, 1_000_000, ifq());
        assert!(!s.in_recovery());
        assert_eq!(s.web100().vars().fast_retran, 0);
    }

    #[test]
    fn rto_rolls_back_and_collapses_window() {
        let mut s = sender(None);
        drain(&mut s, t(0));
        let nxt_before = s.snd_nxt();
        assert!(nxt_before > 0);
        // No ACKs: fire the RTO (initial RTO is 1 s).
        let deadline = s.rto_deadline().unwrap();
        assert!(s.on_rto_check(deadline, ifq()));
        assert_eq!(s.web100().vars().timeouts, 1);
        assert_eq!(s.cc().cwnd(), MSS as u64);
        assert_eq!(s.snd_nxt(), s.snd_una(), "go-back-N rollback");
        // Retransmission is flagged for Karn.
        let p = s.can_transmit(deadline).unwrap();
        assert!(p.retransmit);
        assert_eq!(p.seq, 0);
    }

    #[test]
    fn stale_rto_check_is_ignored() {
        let mut s = sender(None);
        drain(&mut s, t(0));
        let early = t(1);
        assert!(!s.on_rto_check(early, ifq()));
        assert_eq!(s.web100().vars().timeouts, 0);
    }

    #[test]
    fn rto_backoff_doubles_after_consecutive_timeouts() {
        let mut s = sender(None);
        drain(&mut s, t(0));
        let d1 = s.rto_deadline().unwrap();
        s.on_rto_check(d1, ifq());
        let d2 = s.rto_deadline().unwrap();
        // Next deadline is 2x the (1 s) initial RTO away.
        assert_eq!(d2 - d1, SimDuration::from_secs(2));
    }

    #[test]
    fn rto_episode_spans_consecutive_timeouts_until_forward_progress() {
        let mut s = sender(None);
        drain(&mut s, t(0));
        // A simulated outage: three back-to-back RTOs with no ACKs. The
        // backoff doubles each time (1 s, 2 s, 4 s deadlines), but it is
        // one episode.
        let mut now = s.rto_deadline().unwrap();
        for _ in 0..3 {
            assert!(s.on_rto_check(now, ifq()));
            let p = s.can_transmit(now).unwrap();
            s.commit_transmit(now, p);
            now = s.rto_deadline().unwrap();
        }
        assert_eq!(s.web100().vars().timeouts, 3);
        assert_eq!(s.web100().rto_episodes(), 1);
        assert_eq!(s.web100().rto_max_backoff(), 3);
        assert_eq!(
            s.web100().rto_max_recovery(),
            None,
            "still inside the episode"
        );
        // The link heals: an ACK of new data ends the episode. The first
        // timeout fired at t=1 s.
        let heal = now;
        s.on_ack(heal, 1000, 1_000_000, ifq());
        let span = s.web100().rto_max_recovery().expect("episode closed");
        assert_eq!(span, heal.saturating_since(t(1000)));
        // A later, shallower episode bumps the count but not the max shift.
        drain(&mut s, heal);
        let d = s.rto_deadline().unwrap();
        assert!(s.on_rto_check(d, ifq()));
        assert_eq!(s.web100().rto_episodes(), 2);
        assert_eq!(s.web100().rto_max_backoff(), 3);
    }

    #[test]
    fn karn_no_sample_from_retransmitted_segment() {
        let mut s = sender(None);
        drain(&mut s, t(0));
        let d = s.rto_deadline().unwrap();
        s.on_rto_check(d, ifq());
        let p = s.can_transmit(d).unwrap();
        s.commit_transmit(d, p);
        // ACK the retransmitted segment: no RTT sample may be taken.
        s.on_ack(d + SimDuration::from_millis(60), 1000, 1_000_000, ifq());
        assert!(s.rtt().srtt().is_none());
    }

    #[test]
    fn local_stall_signals_cc_once_per_window() {
        let mut s = sender(None);
        drain(&mut s, t(0));
        let cwnd_before = s.cc().cwnd();
        s.on_local_stall(
            t(5),
            IfqSnapshot {
                depth: 100,
                max: 100,
            },
        );
        assert_eq!(s.web100().vars().send_stall, 1);
        assert!(s.cc().cwnd() <= cwnd_before);
        assert!(s.can_transmit(t(5)).is_none(), "stall gates transmission");
        // A second stall in the same window is throttled.
        s.on_local_stall(
            t(6),
            IfqSnapshot {
                depth: 100,
                max: 100,
            },
        );
        assert_eq!(s.web100().vars().send_stall, 1);
        // Retry gate lifts after stall_retry.
        let retry = s.stall_retry_at().unwrap();
        assert!(retry > t(6));
    }

    #[test]
    fn stall_signal_reopens_after_window_turnover() {
        let mut s = sender(None);
        drain(&mut s, t(0));
        s.on_local_stall(
            t(5),
            IfqSnapshot {
                depth: 100,
                max: 100,
            },
        );
        let gate = s.snd_nxt();
        // ACK everything outstanding: snd_una reaches the gate.
        s.on_ack(t(60), gate, 1_000_000, ifq());
        drain(&mut s, t(60));
        s.on_local_stall(
            t(61),
            IfqSnapshot {
                depth: 100,
                max: 100,
            },
        );
        assert_eq!(s.web100().vars().send_stall, 2);
    }

    #[test]
    fn lim_state_transitions_accumulate() {
        let mut s = sender(None);
        s.update_lim_state(t(0)); // Sender (nothing sent yet)
        drain(&mut s, t(0));
        s.update_lim_state(t(10)); // now cwnd-limited
        s.web100_mut().finish(t(0), t(20));
        let v = *s.web100().vars();
        assert!(v.snd_lim_time_cwnd_ns > 0);
    }

    /// A bulk flow in congestion avoidance whose window has room for half a
    /// segment sends nothing into it (the silly-window rule), so the time
    /// is the window's, not the sender's.
    #[test]
    fn a_room_under_one_segment_is_cwnd_limited() {
        let mut s = sender(None);
        drain(&mut s, t(0));
        // Slow start to a flight of 5 MSS, one ACK a round.
        for (round, acked) in [(1, 1000), (2, 3000), (3, 6000)] {
            s.on_ack(t(60 * round), acked, 1_000_000, ifq());
            drain(&mut s, t(60 * round));
        }
        assert_eq!((s.cc().cwnd(), s.flight()), (5000, 5000));
        // An echo halves the window to 2.5 MSS, in congestion avoidance;
        // 4 MSS acked then grow it by one, and the sender fills it to
        // half a segment short.
        s.on_ecn_echo(t(190), ifq());
        s.on_ack(t(240), s.snd_una() + 2000, 1_000_000, ifq());
        s.on_ack(t(241), s.snd_una() + 2000, 1_000_000, ifq());
        drain(&mut s, t(241));
        assert!(!s.cc().in_slow_start());
        assert_eq!(s.cc().cwnd() - s.flight(), u64::from(MSS / 2));
        s.update_lim_state(t(241));
        s.update_lim_state(t(251));
        s.web100_mut().finish(t(241), t(251));
        let v = *s.web100().vars();
        assert_eq!(
            (v.snd_lim_time_cwnd_ns, v.snd_lim_time_sender_ns),
            (10_000_000, 0)
        );
    }

    #[test]
    fn late_ack_after_rto_rollback_does_not_underflow_flight() {
        let mut s = sender(None);
        drain(&mut s, t(0)); // 2 segments out (0..2000)
                             // RTO fires: rollback to snd_una = 0, snd_nxt = 0.
        let d = s.rto_deadline().unwrap();
        assert!(s.on_rto_check(d, ifq()));
        assert_eq!(s.snd_nxt(), 0);
        // The original transmissions were not actually lost: a late ACK for
        // both arrives after the rollback.
        s.on_ack(d + SimDuration::from_millis(1), 2000, 1_000_000, ifq());
        assert_eq!(s.snd_una(), 2000);
        assert_eq!(s.snd_nxt(), 2000, "snd_nxt clamped forward");
        assert_eq!(s.flight(), 0);
        // The go-back-N resend must not repeat acked bytes.
        if let Some(p) = s.can_transmit(d + SimDuration::from_millis(2)) {
            assert!(p.seq >= 2000, "stale retransmission {p:?}");
        }
    }

    #[test]
    fn partially_acked_retx_entry_is_trimmed() {
        let mut s = sender(None);
        drain(&mut s, t(0));
        let d = s.rto_deadline().unwrap();
        // The timeout rolls snd_nxt back to 0. An ACK covering part of the
        // rolled-back range: retransmission resumes exactly at the ACK
        // point, never below it.
        s.on_rto_check(d, ifq());
        s.on_ack(d + SimDuration::from_millis(1), 500, 1_000_000, ifq());
        let p = s.can_transmit(d + SimDuration::from_millis(2)).unwrap();
        assert_eq!(p.seq, 500, "must resume at the ACK point: {p:?}");
        assert!(p.retransmit, "bytes below max_sent are retransmissions");
    }

    /// A BBR sender that sent its 8-segment initial window unpaced (no
    /// bandwidth sample yet) and had all of it acknowledged 50 ms later:
    /// a 160 kB/s sample, so it now paces. Returns the sender and the rate
    /// its controller reports.
    fn paced_sender() -> (TcpSender, u64) {
        let c = TcpConfig {
            initial_cwnd_mss: 8,
            ..cfg()
        };
        let cc = make_cc(CcAlgorithm::Bbr, &c).unwrap();
        let mut s = TcpSender::new(ConnId(0), c, cc, None);
        assert_eq!(s.cc().pacing(), PacingDecision::Unpaced, "no sample yet");
        assert_eq!(drain(&mut s, t(0)).len(), 8, "unpaced: the whole window");
        s.on_ack(t(50), 8000, 1_000_000, ifq());
        let PacingDecision::Rate { bytes_per_sec } = s.cc().pacing() else {
            panic!("a bandwidth sample sets a rate");
        };
        (s, bytes_per_sec)
    }

    #[test]
    fn pacing_spreads_departures_at_the_configured_rate() {
        let (mut s, rate) = paced_sender();
        assert!(
            s.cc().cwnd() >= 8 * MSS as u64,
            "the window is not the limit"
        );
        let gap = SimDuration::from_nanos(MSS as u64 * 1_000_000_000 / rate);
        let plans = drain(&mut s, t(50));
        assert_eq!(plans.len(), 1, "pacer releases one segment per gap");
        // The pacer, not the window, is the limiter — and it says when.
        let retry = s.pacing_retry_at(t(50)).expect("held by the pacer");
        assert_eq!(retry, t(50) + gap);
        assert!(s.pacing_retry_at(t(50)).is_none(), "armed once per release");
        // At the release instant the next segment goes out, and the one
        // after it waits one more gap.
        let plans = drain(&mut s, retry);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].seq, 9000);
        assert_eq!(s.pacing_retry_at(retry), Some(retry + gap));
    }

    #[test]
    fn paced_departures_never_exceed_the_window() {
        // A generous pacing gap budget over a long stretch of time must
        // still respect cwnd: jump far past many release instants and check
        // the window clamps the burst.
        let (mut s, _) = paced_sender();
        let mut sent = 0;
        let mut now = t(50);
        for _ in 0..20 {
            now += SimDuration::from_millis(100);
            sent += drain(&mut s, now).len();
        }
        assert_eq!(sent as u64 * 1000, s.flight());
        assert_eq!(s.flight(), s.cc().cwnd(), "pacing never overrides cwnd");
        assert!(
            s.pacing_retry_at(now).is_none(),
            "window-limited, not pacer-limited: no retry to arm"
        );
    }

    #[test]
    fn effectively_infinite_rate_matches_the_unpaced_schedule() {
        // A `u64::MAX` rate gives every segment size a zero gap: the pacer's
        // next release never passes `now`, so it never holds a departure.
        for len in [1, MSS, 65_535, u32::MAX] {
            assert_eq!(pacing_gap(len, u64::MAX), SimDuration::ZERO, "{len}");
        }
        // Finite rates floor to whole nanoseconds.
        assert_eq!(pacing_gap(MSS, 1_000_000), SimDuration::from_millis(1));
        assert_eq!(pacing_gap(1, 3), SimDuration::from_nanos(333_333_333));
    }

    #[test]
    fn delivery_rate_sample_rides_the_karn_path() {
        let mut s = sender(None);
        drain(&mut s, t(0)); // two segments depart at t=0
                             // Both acked 50 ms later: 2000 bytes over 50 ms = 40 kB/s.
        s.on_ack(t(50), 2000, 1_000_000, ifq());
        let v = s.view(t(50), ifq());
        assert_eq!(s.snd_una(), 2000);
        assert_eq!(v.delivery_rate, Some(40_000));
        assert!(!v.app_limited);
    }

    #[test]
    fn retransmitted_segments_produce_no_rate_sample() {
        let mut s = sender(None);
        drain(&mut s, t(0));
        let d = s.rto_deadline().unwrap();
        s.on_rto_check(d, ifq());
        let p = s.can_transmit(d).unwrap();
        s.commit_transmit(d, p);
        s.on_ack(d + SimDuration::from_millis(60), 1000, 1_000_000, ifq());
        let v = s.view(d + SimDuration::from_millis(60), ifq());
        assert_eq!(v.delivery_rate, None, "Karn: retransmission, no sample");
        assert_eq!(s.snd_una(), 1000, "delivery count still advances");
    }

    #[test]
    fn app_limited_departures_are_stamped() {
        // A 2500-byte transfer under a 4-segment window: the tail segment
        // departs with window room left and the app dry.
        let c = TcpConfig {
            initial_cwnd_mss: 4,
            ..cfg()
        };
        let cc = make_cc(CcAlgorithm::Reno, &c).unwrap();
        let mut s = TcpSender::new(ConnId(0), c, cc, Some(2500));
        drain(&mut s, t(0));
        s.on_ack(t(50), 2500, 1_000_000, ifq());
        let v = s.view(t(50), ifq());
        assert!(v.app_limited, "tail sample must carry the app-limited mark");
    }

    #[test]
    fn recovery_partial_ack_retransmits_next_hole() {
        let mut s = sender(None);
        // Build up a larger window first.
        drain(&mut s, t(0));
        for i in 0..6 {
            let ack = s.snd_una() + 1000;
            s.on_ack(t(10 + i), ack, 1_000_000, ifq());
            drain(&mut s, t(10 + i));
        }
        let una = s.snd_una();
        assert!(s.flight() >= 4000);
        for i in 0..3 {
            s.on_ack(t(50 + i), una, 1_000_000, ifq());
        }
        assert!(s.in_recovery());
        let p = s.can_transmit(t(55)).unwrap();
        s.commit_transmit(t(55), p);
        // Partial ACK: one segment past una, still below the recovery point.
        s.on_ack(t(60), una + 1000, 1_000_000, ifq());
        assert!(s.in_recovery());
        let p2 = s.can_transmit(t(60)).unwrap();
        assert_eq!(p2.seq, una + 1000, "next hole retransmitted");
        assert!(p2.retransmit);
    }

    #[test]
    fn the_window_is_capped_at_2_30_bytes_whatever_rwnd_says() {
        // 1 MiB segments and an initial window of 2 048 of them: cwnd
        // 2^31 bytes under a 2^33-byte rwnd. RFC 7323's cap holds the flight
        // at 1 024 segments, and the sender says the window was the limit.
        let c = TcpConfig {
            mss: 1 << 20,
            initial_cwnd_mss: 2048,
            rwnd: 1 << 33,
            ..cfg()
        };
        let cc = make_cc(CcAlgorithm::Reno, &c).unwrap();
        let mut s = TcpSender::new(ConnId(0), c, cc, None);
        let mut now = t(0);
        for _ in 0..4 {
            drain(&mut s, now);
            assert_eq!(s.flight(), MAX_WINDOW);
            s.update_lim_state(now);
            now += SimDuration::from_millis(60);
            s.on_ack(now, s.snd_una() + MAX_WINDOW / 2, 1 << 33, ifq());
            assert!(s.cc().cwnd() > MAX_WINDOW && s.flight() < MAX_WINDOW);
        }
        s.web100_mut().finish(t(0), now);
        let v = *s.web100().vars();
        assert_eq!(v.snd_lim_time_rwin_ns, now.as_nanos());
    }

    #[test]
    fn a_sent_record_is_sixteen_bytes() {
        // The send time and both marks in one word, then the end and
        // `snd_una` at departure as 32-bit sequence numbers. 32 B as a `u64`
        // end beside the unpacked `SentInfo`.
        assert_eq!(size_of::<crate::sent::SentRecord>(), 16);
    }

    #[test]
    fn dispatch_shell_and_sender_sizes_are_pinned() {
        use std::mem::size_of;
        // Reno's window state beside a slow-start and an avoidance policy,
        // each inline or one pointer to its boxed state; BBR's pointer
        // rides in the policy tags' niche. 40 B as inline Reno beside a
        // boxed trait object.
        assert_eq!(size_of::<CcEngine>(), 64);
        // The four `TcpConfig` fields it reads after construction, not the
        // whole config: 792 B with it. 720 B with each optional time an
        // `Option` (16 B), the instrument's timelines inline (64 B) and the
        // estimator's sample count; 584 B with the application total and
        // the delivery rate each an `Option<u64>`; 568 B with the RTO
        // episode record and the limit state the recorder now owns, and the
        // delivered count and rate interval no controller read; 528 B with
        // the 40-byte engine.
        let sender = size_of::<TcpSender>();
        assert!(sender <= 552, "TcpSender is {sender} bytes");
    }
}
