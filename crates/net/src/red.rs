//! Random Early Detection (RED) queue.
//!
//! The paper's testbed used drop-tail queues, but §1 argues slow-start bursts
//! are "hard on the rest of the traffic sharing the congested link" — the
//! friendliness experiments (`scenarios/aqm/red_vs_droptail.json`,
//! `scenarios/network_bottleneck_boundary.json`) compare behaviour under both
//! drop-tail and RED bottlenecks, so an AQM variant is part of the substrate.
//!
//! Implementation follows Floyd & Jacobson 1993: EWMA average queue length,
//! linear drop probability between `min_th` and `max_th`, count-based spacing
//! of drops, and idle-time compensation. Two optional extensions:
//!
//! * **Gentle mode** (Floyd 2000): instead of dropping everything at
//!   `max_th`, the drop probability ramps linearly from `max_p` to 1 over
//!   `(max_th, 2·max_th)`, removing the sharp cliff.
//! * **ECN marking** (RFC 3168): in the probabilistic band, ECT packets are
//!   CE-marked and enqueued instead of dropped. Above `max_th` (or
//!   `2·max_th` in gentle mode) packets are dropped regardless of ECT, per
//!   RFC 3168 §7 — once the average exceeds the band, marking no longer
//!   protects the queue.

use crate::packet::{Ecn, Packet};
use crate::queue::{DropTail, EnqueueError, QueueConfig, Queued};
use rss_sim::{OptNanos, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// RED parameters (thresholds in packets).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RedConfig {
    /// Average-queue threshold below which no packet is dropped.
    pub min_th: f64,
    /// Average-queue threshold above which every packet is dropped
    /// (in gentle mode, the start of the `max_p`→1 ramp instead).
    pub max_th: f64,
    /// Drop probability at `max_th`.
    pub max_p: f64,
    /// EWMA weight for the average queue size.
    pub wq: f64,
    /// Hard capacity backing the RED logic.
    pub capacity: QueueConfig,
    /// Assumed transmission time of a small packet, for idle compensation.
    pub mean_pkt_time: SimDuration,
    /// Gentle mode: ramp the drop probability from `max_p` to 1 over
    /// `(max_th, 2·max_th)` instead of force-dropping at `max_th`.
    pub gentle: bool,
    /// CE-mark ECT packets in the probabilistic band instead of dropping.
    pub ecn: bool,
}

impl RedConfig {
    /// The ns-2 style defaults for a queue of `cap` packets.
    pub fn for_capacity(cap: u32, mean_pkt_time: SimDuration) -> Self {
        RedConfig {
            min_th: cap as f64 * 0.25,
            max_th: cap as f64 * 0.75,
            max_p: 0.1,
            wq: 0.002,
            capacity: QueueConfig::packets(cap),
            mean_pkt_time,
            gentle: false,
            ecn: false,
        }
    }

    /// Instantaneous drop/mark probability `p_b` at average queue `avg`
    /// (before the count-since-last-drop correction): 0 below `min_th`,
    /// linear up to `max_p` at `max_th`, then either 1 (standard) or a
    /// linear `max_p`→1 ramp over `(max_th, 2·max_th)` (gentle).
    #[inline]
    pub fn mark_prob(&self, avg: f64) -> f64 {
        if avg <= self.min_th {
            0.0
        } else if avg < self.max_th {
            self.max_p * (avg - self.min_th) / (self.max_th - self.min_th)
        } else if self.gentle && avg < 2.0 * self.max_th {
            self.max_p + (1.0 - self.max_p) * (avg - self.max_th) / self.max_th
        } else {
            1.0
        }
    }
}

/// Counters exported by a RED queue, for run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RedStats {
    /// EWMA average queue length at sample time (packets).
    pub avg: f64,
    /// Packets dropped by the early-detection mechanism.
    pub early_drops: u64,
    /// Packets dropped because the hard capacity was exhausted.
    pub forced_drops: u64,
    /// ECT packets CE-marked instead of dropped.
    pub ecn_marks: u64,
}

/// A RED-managed queue over any [`Queued`] element; wraps a [`DropTail`] for
/// storage.
#[derive(Debug, Clone)]
pub struct Red<T> {
    cfg: RedConfig,
    inner: DropTail<T>,
    avg: f64,
    count_since_drop: i64,
    /// When the queue last went empty; none while it holds packets.
    idle_since: OptNanos<SimTime>,
    early_drops: u64,
    forced_drops: u64,
    ecn_marks: u64,
}

/// A RED queue of [`Packet`]s with body `B`.
pub type RedQueue<B> = Red<Packet<B>>;

impl<T: Queued> Red<T> {
    /// Create an empty RED queue.
    pub fn new(cfg: RedConfig) -> Self {
        assert!(cfg.min_th < cfg.max_th, "min_th must be below max_th");
        assert!(cfg.max_p > 0.0 && cfg.max_p <= 1.0);
        assert!(cfg.wq > 0.0 && cfg.wq <= 1.0);
        Red {
            inner: DropTail::new(cfg.capacity),
            cfg,
            avg: 0.0,
            count_since_drop: -1,
            idle_since: Some(SimTime::ZERO).into(),
            early_drops: 0,
            forced_drops: 0,
            ecn_marks: 0,
        }
    }

    /// Current EWMA average queue length (packets).
    pub fn avg(&self) -> f64 {
        self.avg
    }

    /// Packets dropped by the early-detection mechanism.
    pub fn early_drops(&self) -> u64 {
        self.early_drops
    }

    /// Packets dropped because the hard capacity was exhausted.
    pub fn forced_drops(&self) -> u64 {
        self.forced_drops
    }

    /// ECT packets CE-marked instead of dropped.
    pub fn ecn_marks(&self) -> u64 {
        self.ecn_marks
    }

    /// Snapshot of the RED counters plus the current average.
    pub fn red_stats(&self) -> RedStats {
        RedStats {
            avg: self.avg,
            early_drops: self.early_drops,
            forced_drops: self.forced_drops,
            ecn_marks: self.ecn_marks,
        }
    }

    /// Current instantaneous length.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Bytes the queue's buffer holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }

    /// True when no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn update_avg(&mut self, now: SimTime) {
        if let Some(idle_start) = self.idle_since.take() {
            // Idle compensation: pretend `m` small packets drained while idle.
            let idle = now.saturating_since(idle_start);
            let m = idle.as_nanos() as f64 / self.cfg.mean_pkt_time.as_nanos().max(1) as f64;
            self.avg *= (1.0 - self.cfg.wq).powf(m);
        }
        self.avg = (1.0 - self.cfg.wq) * self.avg + self.cfg.wq * self.inner.len() as f64;
    }

    /// Offer a packet at time `now`. Returns the packet back if RED (or the
    /// hard limit) drops it. With `cfg.ecn`, a probabilistic "drop" decision
    /// on an ECT packet CE-marks and enqueues it instead.
    ///
    /// With `gentle` and `ecn` both off this is the original Floyd &
    /// Jacobson sequence, drawing from `rng` at exactly the same points, so
    /// legacy RED runs stay byte-identical.
    ///
    /// `#[inline]`: the per-packet enqueue of a RED port, instantiated in
    /// the crate that names the body type. Without the hint a size change
    /// elsewhere in that crate has left it as a call out of the fabric's hop
    /// handler — the failure `scripts/check-hot-inlines.sh` guards against
    /// for the engine's generics.
    #[inline]
    pub fn try_enqueue(
        &mut self,
        now: SimTime,
        mut pkt: T,
        rng: &mut SimRng,
    ) -> Result<(), (EnqueueError, T)> {
        self.update_avg(now);
        let force_th = if self.cfg.gentle {
            2.0 * self.cfg.max_th
        } else {
            self.cfg.max_th
        };
        if self.avg >= force_th {
            self.early_drops += 1;
            self.count_since_drop = 0;
            return Err((EnqueueError::PacketLimit, pkt));
        }
        // Below the forced-drop threshold: `p_b` from the config's curve,
        // spread out by the count since the last drop.
        if self.avg > self.cfg.min_th {
            self.count_since_drop += 1;
            let pb = self.cfg.mark_prob(self.avg);
            let pa = pb / (1.0 - (self.count_since_drop as f64 * pb).min(0.999));
            if rng.chance(pa) {
                // Only below max_th may an ECT packet be marked instead: in
                // the gentle band the queue is in danger and marking no
                // longer protects it (RFC 3168 §7).
                if self.cfg.ecn && self.avg < self.cfg.max_th && pkt.ecn() == Ecn::Ect {
                    pkt.set_ecn(Ecn::Ce);
                    self.ecn_marks += 1;
                    self.count_since_drop = 0;
                    // Falls through to the enqueue below.
                } else {
                    self.early_drops += 1;
                    self.count_since_drop = 0;
                    return Err((EnqueueError::PacketLimit, pkt));
                }
            }
        } else {
            self.count_since_drop = -1;
        }
        match self.inner.try_enqueue(pkt) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.forced_drops += 1;
                self.count_since_drop = 0;
                Err(e)
            }
        }
    }

    /// Pop the head-of-line packet at `now`. Per packet on a RED port, so
    /// inlined where it is called.
    #[inline]
    pub fn dequeue(&mut self, now: SimTime) -> Option<T> {
        let pkt = self.inner.dequeue();
        if self.inner.is_empty() {
            self.idle_since.set(now);
        }
        pkt
    }

    /// The empty queue's link went idle at `t`: the next enqueue decays the
    /// average over the time since. This is what a [`Red::dequeue`] at `t`
    /// finding the queue empty does, for a transmitter that has no event at
    /// the end of a transmission and says so at the next arrival instead.
    pub fn idle_from(&mut self, t: SimTime) {
        debug_assert!(self.inner.is_empty(), "idle with packets queued");
        self.idle_since.set(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Body, FlowId, NodeId, RawBody};

    fn pkt(id: u64) -> Packet<RawBody> {
        Packet {
            id,
            src: NodeId(0),
            dst: NodeId(1),
            flow: FlowId(0),
            created: SimTime::ZERO,
            body: RawBody { size: 1000 },
        }
    }

    fn cfg(cap: u32) -> RedConfig {
        RedConfig::for_capacity(cap, SimDuration::from_micros(100))
    }

    #[test]
    fn below_min_th_never_drops() {
        let mut q = RedQueue::new(cfg(100));
        let mut rng = SimRng::seed_from_u64(1);
        // Keep instantaneous length at ~10 (min_th = 25): no early drops.
        for i in 0..1000u64 {
            let now = SimTime::from_micros(i * 100);
            q.try_enqueue(now, pkt(i), &mut rng).unwrap();
            if q.len() > 10 {
                q.dequeue(now);
            }
        }
        assert_eq!(q.early_drops(), 0);
    }

    #[test]
    fn sustained_overload_triggers_early_drops() {
        let mut q = RedQueue::new(cfg(100));
        let mut rng = SimRng::seed_from_u64(2);
        let mut accepted = 0u32;
        // Fill without draining: avg climbs through min_th toward max_th.
        for i in 0..5000u64 {
            let now = SimTime::from_micros(i);
            if q.try_enqueue(now, pkt(i), &mut rng).is_ok() {
                accepted += 1;
            }
        }
        assert!(q.early_drops() > 0, "no early drops under overload");
        assert!(accepted <= 100, "hard capacity respected");
    }

    #[test]
    fn average_tracks_instantaneous_slowly() {
        let mut q = RedQueue::new(cfg(100));
        let mut rng = SimRng::seed_from_u64(3);
        for i in 0..20u64 {
            q.try_enqueue(SimTime::from_micros(i), pkt(i), &mut rng)
                .unwrap();
        }
        // 20 packets queued but wq = 0.002: average far below instantaneous.
        assert!(q.avg() < 2.0, "avg {}", q.avg());
        assert_eq!(q.len(), 20);
    }

    #[test]
    fn idle_period_decays_average() {
        let mut q = RedQueue::new(cfg(100));
        let mut rng = SimRng::seed_from_u64(4);
        for i in 0..2000u64 {
            let _ = q.try_enqueue(SimTime::from_micros(i), pkt(i), &mut rng);
        }
        while q.dequeue(SimTime::from_millis(2)).is_some() {}
        let avg_before = q.avg();
        assert!(avg_before > 0.5);
        // Long idle: offering a packet much later sees a decayed average.
        q.try_enqueue(SimTime::from_secs(10), pkt(99_999), &mut rng)
            .unwrap();
        assert!(q.avg() < 0.1, "avg after idle {}", q.avg());
    }

    #[test]
    fn idle_decay_matches_the_closed_form() {
        // Floyd & Jacobson's idle compensation: an enqueue after the queue
        // sat empty for `idle` first decays the average as if
        // m = idle / mean_pkt_time small packets had drained, avg ← (1 − w_q)^m
        // · avg, then folds in the (empty) instantaneous length as usual.
        let c = cfg(100);
        let mut q = RedQueue::new(c);
        let mut rng = SimRng::seed_from_u64(7);
        for i in 0..200u64 {
            let _ = q.try_enqueue(SimTime::from_micros(i), pkt(i), &mut rng);
        }
        let emptied = SimTime::from_millis(1);
        while q.dequeue(emptied).is_some() {}
        let before = q.avg();
        assert!(before > 1.0, "avg {before}");
        let idle = SimDuration::from_nanos(50_012_345);
        q.try_enqueue(emptied + idle, pkt(1_000), &mut rng).unwrap();
        let m = idle.as_nanos() as f64 / c.mean_pkt_time.as_nanos() as f64;
        let decayed = (1.0 - c.wq).powf(m) * before;
        let expected = (1.0 - c.wq) * decayed + c.wq * 0.0;
        assert!(
            (q.avg() - expected).abs() < 1e-12,
            "avg {} after {m} idle packet times, closed form {expected}",
            q.avg()
        );
    }

    /// Minimal ECN-capable body for marking tests.
    #[derive(Debug, Clone)]
    struct EctBody {
        size: u32,
        ecn: Ecn,
    }

    impl Body for EctBody {
        fn wire_size(&self) -> u32 {
            self.size
        }
        fn ecn(&self) -> Ecn {
            self.ecn
        }
        fn set_ecn(&mut self, codepoint: Ecn) {
            self.ecn = codepoint;
        }
    }

    fn ect(id: u64) -> Packet<EctBody> {
        Packet {
            id,
            src: NodeId(0),
            dst: NodeId(1),
            flow: FlowId(0),
            created: SimTime::ZERO,
            body: EctBody {
                size: 1000,
                ecn: Ecn::Ect,
            },
        }
    }

    #[test]
    fn mark_prob_monotone_and_gentle_slope() {
        let mut c = cfg(100); // min_th 25, max_th 75, max_p 0.1
        let mut last = -1.0;
        for i in 0..=200 {
            let p = c.mark_prob(i as f64);
            assert!(p >= last, "mark_prob not monotone at avg {i}");
            last = p;
        }
        assert_eq!(c.mark_prob(10.0), 0.0);
        assert!((c.mark_prob(50.0) - 0.05).abs() < 1e-12);
        assert_eq!(c.mark_prob(80.0), 1.0);
        // Gentle: continuous at max_th, linear max_p -> 1 over (max_th, 2max_th).
        c.gentle = true;
        let mut last = -1.0;
        for i in 0..=400 {
            let p = c.mark_prob(i as f64 / 2.0);
            assert!(p >= last, "gentle mark_prob not monotone at avg {}", i / 2);
            last = p;
        }
        assert!((c.mark_prob(75.0) - 0.1).abs() < 1e-12);
        assert!((c.mark_prob(112.5) - 0.55).abs() < 1e-12);
        assert_eq!(c.mark_prob(150.0), 1.0);
    }

    #[test]
    fn count_correction_bounds_inter_drop_gaps() {
        // Hold avg pinned at 50 via wq = 1 (avg == instantaneous length) and
        // a steady-state queue of 50 packets: pb = 0.1 * (50-10)/(90-10) =
        // 0.05, so Floyd's count correction makes inter-drop gaps uniform on
        // {1..1/pb} — bounded by 20 attempts, mean (1+20)/2 = 10.5 — instead
        // of the long geometric tail plain Bernoulli drops would have.
        let c = RedConfig {
            min_th: 10.0,
            max_th: 90.0,
            max_p: 0.1,
            wq: 1.0,
            capacity: QueueConfig::packets(200),
            mean_pkt_time: SimDuration::from_micros(100),
            gentle: false,
            ecn: false,
        };
        let mut q = RedQueue::new(c);
        let mut rng = SimRng::seed_from_u64(11);
        // Fill to 50; in-band drops during the fill are fine, just retry.
        let mut i = 0u64;
        while q.len() < 50 {
            let _ = q.try_enqueue(SimTime::from_micros(i), pkt(i), &mut rng);
            i += 1;
        }
        let mut gaps = Vec::new();
        let mut since = 0u64;
        for j in 0..200_000u64 {
            since += 1;
            let now = SimTime::from_micros(i + j);
            if q.try_enqueue(now, pkt(i + j), &mut rng).is_ok() {
                q.dequeue(now); // keep the queue at exactly 50
            } else {
                gaps.push(since);
                since = 0;
            }
        }
        assert!(gaps.len() > 500, "too few drops: {}", gaps.len());
        let max = *gaps.iter().max().unwrap();
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!(max <= 21, "gap {max} exceeds 1/pb + 1");
        assert!((8.5..=12.5).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn ecn_marks_ect_instead_of_dropping() {
        let mut c = cfg(100);
        c.ecn = true;
        let mut q = RedQueue::new(c);
        let mut rng = SimRng::seed_from_u64(5);
        let mut delivered_ce = 0u64;
        // Fill to 60 (inside the 25..75 band, below the hard cap), then hold
        // the length there: with ECT traffic and ecn on, every in-band
        // decision marks instead of drops, so the length stays put while the
        // EWMA converges into the band.
        for i in 0..60u64 {
            q.try_enqueue(SimTime::from_micros(i), ect(i), &mut rng)
                .unwrap();
        }
        for i in 60..20_000u64 {
            let now = SimTime::from_micros(i);
            let _ = q.try_enqueue(now, ect(i), &mut rng);
            if let Some(p) = q.dequeue(now) {
                if p.body.ecn() == Ecn::Ce {
                    delivered_ce += 1;
                }
            }
        }
        let now = SimTime::from_micros(20_000);
        while let Some(p) = q.dequeue(now) {
            if p.body.ecn() == Ecn::Ce {
                delivered_ce += 1;
            }
        }
        assert!(q.ecn_marks() > 0, "no CE marks under band occupancy");
        assert_eq!(q.ecn_marks(), delivered_ce, "marked != delivered CE");
        let st = q.red_stats();
        assert_eq!(st.ecn_marks, q.ecn_marks());
        assert_eq!(st.early_drops, q.early_drops());
    }

    #[test]
    fn non_ect_traffic_still_drops_with_ecn_enabled() {
        let mut c = cfg(100);
        c.ecn = true;
        let mut q = RedQueue::new(c);
        let mut rng = SimRng::seed_from_u64(6);
        for i in 0..5000u64 {
            let now = SimTime::from_micros(i);
            let _ = q.try_enqueue(now, pkt(i), &mut rng); // RawBody: NotEct
            if i % 2 == 0 {
                q.dequeue(now);
            }
        }
        assert_eq!(q.ecn_marks(), 0);
        assert!(q.early_drops() > 0, "non-ECT must still be dropped");
    }

    #[test]
    fn gentle_mode_survives_band_overflow_probabilistically() {
        // Sustained overload pushes avg past max_th; gentle mode keeps
        // admitting a (shrinking) fraction instead of force-dropping all.
        let mut gentle_cfg = cfg(400);
        gentle_cfg.gentle = true;
        let run = |c: RedConfig, seed: u64| {
            let mut q = RedQueue::new(c);
            let mut rng = SimRng::seed_from_u64(seed);
            let mut admitted_above_max_th = 0u64;
            for i in 0..30_000u64 {
                let now = SimTime::from_micros(i);
                let ok = q.try_enqueue(now, pkt(i), &mut rng).is_ok();
                // try_enqueue refreshed the EWMA on entry, so q.avg() is
                // exactly the average the admit decision used.
                if ok && q.avg() >= c.max_th {
                    admitted_above_max_th += 1;
                }
                if i % 2 == 0 {
                    q.dequeue(now);
                }
            }
            admitted_above_max_th
        };
        assert_eq!(run(cfg(400), 9), 0, "standard RED admits nothing >= max_th");
        assert!(run(gentle_cfg, 9) > 0, "gentle RED should admit some");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed: u64| {
            let mut q = RedQueue::new(cfg(50));
            let mut rng = SimRng::seed_from_u64(seed);
            let mut drops = 0;
            for i in 0..3000u64 {
                let now = SimTime::from_micros(i * 3);
                if q.try_enqueue(now, pkt(i), &mut rng).is_err() {
                    drops += 1;
                }
                if i % 4 == 0 {
                    q.dequeue(now);
                }
            }
            drops
        };
        assert_eq!(run(7), run(7));
    }
}
