//! Deterministic per-link fault injection.
//!
//! The paper's headline claim is stall-avoidance: restricted slow-start keeps
//! transfers moving when the network misbehaves. Independent per-packet
//! Bernoulli loss (`LinkParams::loss_prob`) cannot produce the *correlated*
//! misbehaviour real paths exhibit, so this module adds a composable
//! impairment layer that a world model attaches to individual link directions:
//!
//! * **Bursty loss** — a Gilbert–Elliott two-state Markov chain
//!   ([`GilbertElliott`]): the link alternates between a Good and a Bad state
//!   with per-packet transition probabilities, and each state has its own loss
//!   probability. Burst lengths are geometric with mean `1 / p_bad_to_good`.
//! * **Outages** — intervals during which *every* packet offered to the link
//!   is dropped. Outages are either scheduled explicitly
//!   ([`OutageWindow`], e.g. "down from t=5s for 2s") or generated by a
//!   Markov-modulated up/down process ([`Flap`]) with exponential sojourn
//!   times. Both forms are expanded into a static, sorted
//!   [`OutageSchedule`] *before* the run starts, so querying link state at
//!   time `t` consumes no randomness at simulation time.
//! * **Delay jitter / reordering** — with probability `prob`, a delivered
//!   packet picks up an extra uniform delay in `[0, max]` ([`Jitter`]).
//!   Jitter is strictly non-negative: it adds to the base propagation delay
//!   and therefore never violates the lookahead bound of the sharded
//!   executor. Packets that draw different jitter arrive out of order —
//!   reordering is emergent, not a separate mechanism.
//! * **Duplication** — with probability `duplicate_prob`, a delivered packet
//!   arrives twice (the copy travels with the same base delay but draws its
//!   own jitter).
//!
//! # Determinism
//!
//! Every [`Impairment`] instance owns a private [`SimRng`] stream and is
//! attached to exactly one link *direction*. Because packets traverse a given
//! link direction in a deterministic order (FIFO serialization), the sequence
//! of random draws — and therefore every fault decision — is a pure function
//! of the scenario seed, independent of how the simulation is partitioned
//! into shards. Outage schedules are precomputed from their own derived
//! stream at construction time for the same reason: `is_down(t)` is a lookup,
//! not a draw.
//!
//! The deciding entry point is [`Impairment::decide`]; the embedding world
//! calls it once per packet offered to the link direction and acts on the
//! returned [`Verdict`].

use rss_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Gilbert–Elliott two-state bursty-loss parameters.
///
/// The chain starts in the Good state and is stepped once per packet:
/// first the state transition is sampled, then the per-state loss draw.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GilbertElliott {
    /// Per-packet probability of moving Good → Bad.
    pub p_good_to_bad: f64,
    /// Per-packet probability of moving Bad → Good (mean burst length is
    /// `1 / p_bad_to_good` packets).
    pub p_bad_to_good: f64,
    /// Loss probability while in the Good state (usually 0 or tiny).
    pub loss_good: f64,
    /// Loss probability while in the Bad state (usually large).
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// The long-run expected loss rate: the loss probabilities weighted by
    /// the stationary distribution of the two-state chain.
    pub fn stationary_loss(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom <= 0.0 {
            // Degenerate chain that never transitions: it stays Good forever.
            return self.loss_good;
        }
        let pi_bad = self.p_good_to_bad / denom;
        (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad
    }
}

/// One scheduled outage: the link is down during `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutageWindow {
    /// When the link goes down.
    pub start: SimTime,
    /// How long it stays down.
    pub duration: SimDuration,
}

/// Markov-modulated link flapping: the link alternates between up and down
/// states with exponentially-distributed sojourn times. The link starts up.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Flap {
    /// Mean time the link stays up between outages.
    pub mean_up: SimDuration,
    /// Mean length of each outage.
    pub mean_down: SimDuration,
}

/// Extra per-packet delay: with probability `prob` a delivered packet picks
/// up a uniform extra delay in `[0, max]` on top of the link's propagation
/// delay. Non-negative by construction (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Jitter {
    /// Probability that a packet is jittered at all.
    pub prob: f64,
    /// Maximum extra delay.
    pub max: SimDuration,
}

/// Full impairment description for one link (applied per direction).
///
/// The default config is a no-op: no burst loss, no outages, no jitter, no
/// duplication.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ImpairmentConfig {
    /// Gilbert–Elliott bursty loss, if any.
    pub burst_loss: Option<GilbertElliott>,
    /// Explicitly scheduled outage windows.
    pub outages: Vec<OutageWindow>,
    /// Markov-modulated up/down flapping, if any.
    pub flap: Option<Flap>,
    /// Delay jitter, if any.
    pub jitter: Option<Jitter>,
    /// Per-packet duplication probability (0 disables).
    pub duplicate_prob: f64,
}

impl ImpairmentConfig {
    /// True when the config impairs nothing (every mechanism disabled).
    pub fn is_noop(&self) -> bool {
        self.burst_loss.is_none()
            && self.outages.is_empty()
            && self.flap.is_none()
            && self.jitter.is_none()
            && self.duplicate_prob <= 0.0
    }
}

/// A precomputed, sorted, non-overlapping set of down intervals.
///
/// Built once before the run from the scheduled windows plus (if configured)
/// a sampled realization of the flap process out to `horizon`; thereafter
/// [`OutageSchedule::is_down`] is a pure binary-search lookup. A schedule is
/// cheap to clone, so the legs of one physical link share a single
/// realization (a flap downs both directions together).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OutageSchedule {
    /// Sorted, merged `[down_start, down_end)` intervals.
    windows: Vec<(SimTime, SimTime)>,
}

impl OutageSchedule {
    /// A schedule with no outages.
    pub fn none() -> Self {
        OutageSchedule::default()
    }

    /// Build the schedule for `cfg`: scheduled windows verbatim, plus one
    /// realization of the flap process sampled from `rng` out to `horizon`.
    pub fn build(cfg: &ImpairmentConfig, rng: &mut SimRng, horizon: SimTime) -> Self {
        let mut windows: Vec<(SimTime, SimTime)> = cfg
            .outages
            .iter()
            .map(|w| {
                (
                    w.start,
                    w.start.checked_add(w.duration).unwrap_or(SimTime::MAX),
                )
            })
            .collect();
        if let Some(f) = cfg.flap {
            let mut t = SimTime::ZERO;
            // Alternate up / down sojourns until the horizon. Sub-nanosecond
            // sojourns are rounded up to 1 ns so the process always advances.
            while t < horizon {
                let up = exp_duration(rng, f.mean_up);
                let down_start = match t.checked_add(up) {
                    Some(s) if s < horizon => s,
                    _ => break,
                };
                let down = exp_duration(rng, f.mean_down);
                let down_end = down_start.checked_add(down).unwrap_or(SimTime::MAX);
                windows.push((down_start, down_end));
                t = down_end;
            }
        }
        windows.sort_unstable();
        // Merge overlapping / adjacent intervals so lookup is a single probe.
        let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(windows.len());
        for (s, e) in windows {
            if e <= s {
                continue; // zero-length window
            }
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        OutageSchedule { windows: merged }
    }

    /// Whether the link is down at `t`.
    #[inline]
    pub fn is_down(&self, t: SimTime) -> bool {
        // Index of the first window starting after t; the only candidate
        // containing t is the one before it.
        let idx = self.windows.partition_point(|&(s, _)| s <= t);
        idx > 0 && t < self.windows[idx - 1].1
    }

    /// The merged down intervals (for reporting / tests).
    pub fn windows(&self) -> &[(SimTime, SimTime)] {
        &self.windows
    }

    /// Total down time within `[SimTime::ZERO, horizon)`.
    pub fn down_time(&self, horizon: SimTime) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for &(s, e) in &self.windows {
            if s >= horizon {
                break;
            }
            total += e.min(horizon) - s;
        }
        total
    }
}

/// Exponential sojourn with mean `mean`, rounded up to at least 1 ns.
fn exp_duration(rng: &mut SimRng, mean: SimDuration) -> SimDuration {
    let secs = rng.exp_with_mean(mean.as_secs_f64().max(1e-9));
    SimDuration::from_nanos(((secs * 1e9).round() as u64).max(1))
}

/// Why a packet was dropped by the impairment layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// Lost to the Gilbert–Elliott chain (bursty or residual random loss).
    Burst,
    /// The link was down (scheduled outage or flap).
    Outage,
}

/// The impairment layer's decision for one offered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Drop the packet.
    Drop(DropCause),
    /// Deliver the packet `extra_delay` later than the base propagation
    /// delay; when `duplicate` is set, deliver a second copy as well (the
    /// caller schedules it with its own jitter via a second `decide`-free
    /// draw — see [`Impairment::dup_jitter`]).
    Deliver {
        /// Non-negative extra delay on top of the base propagation delay.
        extra_delay: SimDuration,
        /// Whether to deliver a duplicate copy.
        duplicate: bool,
    },
}

/// Counters kept by one impairment instance (one link direction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImpairStats {
    /// Packets dropped by the Gilbert–Elliott chain.
    pub burst_drops: u64,
    /// Packets dropped because the link was down.
    pub outage_drops: u64,
    /// Packets that picked up non-zero jitter.
    pub jittered: u64,
    /// Duplicate copies generated.
    pub duplicates: u64,
    /// Packets delivered unharmed (no drop; jitter may still apply).
    pub delivered: u64,
}

/// Runtime fault-injection state for one link direction.
///
/// Construction fixes the random stream; [`Impairment::decide`] is then
/// called once per packet offered to the link, in link order.
#[derive(Debug, Clone)]
pub struct Impairment {
    ge: Option<GeState>,
    schedule: OutageSchedule,
    jitter: Option<Jitter>,
    duplicate_prob: f64,
    rng: SimRng,
    /// Decision counters.
    pub stats: ImpairStats,
}

#[derive(Debug, Clone)]
struct GeState {
    cfg: GilbertElliott,
    in_bad: bool,
}

impl Impairment {
    /// Bytes the outage schedule holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        self.schedule.windows.capacity() * size_of::<(SimTime, SimTime)>()
    }

    /// Build from a config, a (possibly shared) outage schedule and a
    /// dedicated per-packet random stream.
    pub fn new(cfg: &ImpairmentConfig, schedule: OutageSchedule, rng: SimRng) -> Self {
        Impairment {
            ge: cfg.burst_loss.map(|g| GeState {
                cfg: g,
                in_bad: false,
            }),
            schedule,
            jitter: cfg.jitter,
            duplicate_prob: cfg.duplicate_prob,
            rng,
            stats: ImpairStats::default(),
        }
    }

    /// Convenience constructor: derive the outage-schedule stream (`derive(1)`)
    /// and the per-packet stream (`derive(2)`) from `base`, build the
    /// schedule out to `horizon`, and assemble the instance.
    pub fn from_config(cfg: &ImpairmentConfig, base: &SimRng, horizon: SimTime) -> Self {
        let mut sched_rng = base.derive(1);
        let schedule = OutageSchedule::build(cfg, &mut sched_rng, horizon);
        Impairment::new(cfg, schedule, base.derive(2))
    }

    /// The outage schedule this instance consults.
    pub fn schedule(&self) -> &OutageSchedule {
        &self.schedule
    }

    /// Decide the fate of one packet offered to the link at `now`.
    pub fn decide(&mut self, now: SimTime) -> Verdict {
        // 1. Outage lookup — no randomness consumed.
        if self.schedule.is_down(now) {
            self.stats.outage_drops += 1;
            return Verdict::Drop(DropCause::Outage);
        }
        // 2. Gilbert–Elliott: step the chain, then the per-state loss draw.
        if let Some(ge) = &mut self.ge {
            let p_leave = if ge.in_bad {
                ge.cfg.p_bad_to_good
            } else {
                ge.cfg.p_good_to_bad
            };
            if self.rng.chance(p_leave) {
                ge.in_bad = !ge.in_bad;
            }
            let p_loss = if ge.in_bad {
                ge.cfg.loss_bad
            } else {
                ge.cfg.loss_good
            };
            if p_loss > 0.0 && self.rng.chance(p_loss) {
                self.stats.burst_drops += 1;
                return Verdict::Drop(DropCause::Burst);
            }
        }
        // 3. Jitter.
        let extra_delay = self.draw_jitter();
        // 4. Duplication.
        let duplicate = self.duplicate_prob > 0.0 && self.rng.chance(self.duplicate_prob);
        if duplicate {
            self.stats.duplicates += 1;
        }
        self.stats.delivered += 1;
        Verdict::Deliver {
            extra_delay,
            duplicate,
        }
    }

    /// Jitter for the duplicate copy of a packet (own independent draw so the
    /// copy can reorder against the original).
    pub fn dup_jitter(&mut self) -> SimDuration {
        self.draw_jitter()
    }

    fn draw_jitter(&mut self) -> SimDuration {
        let Some(j) = self.jitter else {
            return SimDuration::ZERO;
        };
        if j.prob <= 0.0 || j.max == SimDuration::ZERO || !self.rng.chance(j.prob) {
            return SimDuration::ZERO;
        }
        let d = SimDuration::from_nanos(self.rng.range_inclusive(0, j.max.as_nanos()));
        if d > SimDuration::ZERO {
            self.stats.jittered += 1;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ge(p_gb: f64, p_bg: f64, lg: f64, lb: f64) -> GilbertElliott {
        GilbertElliott {
            p_good_to_bad: p_gb,
            p_bad_to_good: p_bg,
            loss_good: lg,
            loss_bad: lb,
        }
    }

    #[test]
    fn noop_config_is_noop() {
        assert!(ImpairmentConfig::default().is_noop());
        let c = ImpairmentConfig {
            duplicate_prob: 0.1,
            ..Default::default()
        };
        assert!(!c.is_noop());
    }

    #[test]
    fn stationary_loss_matches_hand_calc() {
        // pi_bad = 0.01 / (0.01 + 0.09) = 0.1; loss = 0.9*0 + 0.1*0.5 = 0.05.
        let g = ge(0.01, 0.09, 0.0, 0.5);
        assert!((g.stationary_loss() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn scheduled_outage_windows_merge_and_lookup() {
        let cfg = ImpairmentConfig {
            outages: vec![
                OutageWindow {
                    start: SimTime::from_secs(5),
                    duration: SimDuration::from_secs(2),
                },
                OutageWindow {
                    start: SimTime::from_secs(6),
                    duration: SimDuration::from_secs(3),
                },
                OutageWindow {
                    start: SimTime::from_secs(20),
                    duration: SimDuration::from_secs(1),
                },
            ],
            ..Default::default()
        };
        let mut rng = SimRng::seed_from_u64(1);
        let s = OutageSchedule::build(&cfg, &mut rng, SimTime::from_secs(60));
        assert_eq!(s.windows().len(), 2, "overlapping windows must merge");
        assert!(!s.is_down(SimTime::from_secs(4)));
        assert!(s.is_down(SimTime::from_secs(5)));
        assert!(s.is_down(SimTime::from_secs(8)));
        assert!(!s.is_down(SimTime::from_secs(9)));
        assert!(s.is_down(SimTime::from_millis(20_500)));
        assert!(!s.is_down(SimTime::from_secs(21)));
        assert_eq!(
            s.down_time(SimTime::from_secs(60)),
            SimDuration::from_secs(5)
        );
    }

    #[test]
    fn flap_schedule_is_deterministic_and_bounded() {
        let cfg = ImpairmentConfig {
            flap: Some(Flap {
                mean_up: SimDuration::from_secs(2),
                mean_down: SimDuration::from_millis(500),
            }),
            ..Default::default()
        };
        let horizon = SimTime::from_secs(100);
        let build = || {
            let mut rng = SimRng::seed_from_u64(7);
            OutageSchedule::build(&cfg, &mut rng, horizon)
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same seed must give the same flap realization");
        assert!(!a.windows().is_empty(), "100 s of 2 s-mean flaps must flap");
        for &(s, _) in a.windows() {
            assert!(s < horizon, "no window may start past the horizon");
        }
        // Down fraction should be near mean_down / (mean_up + mean_down) = 0.2.
        let frac = a.down_time(horizon).as_secs_f64() / horizon.as_secs_f64();
        assert!((0.05..0.5).contains(&frac), "down fraction {frac}");
    }

    #[test]
    fn ge_empirical_loss_near_stationary() {
        let g = ge(0.02, 0.18, 0.0, 0.4);
        let cfg = ImpairmentConfig {
            burst_loss: Some(g),
            ..Default::default()
        };
        let mut imp = Impairment::from_config(&cfg, &SimRng::seed_from_u64(11), SimTime::MAX);
        let n = 200_000u64;
        let mut drops = 0u64;
        for _ in 0..n {
            if matches!(imp.decide(SimTime::ZERO), Verdict::Drop(_)) {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        let expect = g.stationary_loss();
        assert!(
            (rate - expect).abs() < 0.01,
            "empirical {rate} vs stationary {expect}"
        );
    }

    #[test]
    fn ge_losses_are_bursty() {
        // Compare run-length distribution against independent loss of equal
        // rate: the GE chain must produce longer loss runs.
        let g = ge(0.005, 0.10, 0.0, 0.6);
        let cfg = ImpairmentConfig {
            burst_loss: Some(g),
            ..Default::default()
        };
        let mut imp = Impairment::from_config(&cfg, &SimRng::seed_from_u64(13), SimTime::MAX);
        let mut run = 0u64;
        let mut runs = Vec::new();
        for _ in 0..100_000 {
            if matches!(imp.decide(SimTime::ZERO), Verdict::Drop(_)) {
                run += 1;
            } else if run > 0 {
                runs.push(run);
                run = 0;
            }
        }
        let mean_run = runs.iter().sum::<u64>() as f64 / runs.len() as f64;
        // Independent loss at the same stationary rate would give mean run
        // length 1 / (1 - p) ≈ 1.05; the bursty chain is far above that.
        assert!(mean_run > 1.5, "mean loss-run length {mean_run}");
    }

    #[test]
    fn jitter_bounded_and_duplicates_flagged() {
        let cfg = ImpairmentConfig {
            jitter: Some(Jitter {
                prob: 0.5,
                max: SimDuration::from_micros(100),
            }),
            duplicate_prob: 0.25,
            ..Default::default()
        };
        let mut imp = Impairment::from_config(&cfg, &SimRng::seed_from_u64(17), SimTime::MAX);
        let mut dup = 0u64;
        let mut jittered = 0u64;
        for _ in 0..10_000 {
            match imp.decide(SimTime::ZERO) {
                Verdict::Deliver {
                    extra_delay,
                    duplicate,
                } => {
                    assert!(extra_delay <= SimDuration::from_micros(100));
                    if duplicate {
                        dup += 1;
                    }
                    if extra_delay > SimDuration::ZERO {
                        jittered += 1;
                    }
                }
                Verdict::Drop(_) => panic!("no loss configured"),
            }
        }
        assert!((2000..3000).contains(&dup), "duplicates {dup}");
        assert!((4000..6000).contains(&jittered), "jittered {jittered}");
    }

    #[test]
    fn decide_stream_is_deterministic() {
        let cfg = ImpairmentConfig {
            burst_loss: Some(ge(0.01, 0.2, 0.001, 0.5)),
            jitter: Some(Jitter {
                prob: 0.3,
                max: SimDuration::from_micros(50),
            }),
            duplicate_prob: 0.05,
            ..Default::default()
        };
        let base = SimRng::seed_from_u64(23);
        let mut a = Impairment::from_config(&cfg, &base, SimTime::MAX);
        let mut b = Impairment::from_config(&cfg, &base, SimTime::MAX);
        for i in 0..5_000u64 {
            let t = SimTime::from_micros(i);
            assert_eq!(a.decide(t), b.decide(t));
        }
        assert_eq!(a.stats, b.stats);
    }
}
