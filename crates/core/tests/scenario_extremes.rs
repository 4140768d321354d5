//! No panic is reachable from a `Scenario`. Each case draws a seed and,
//! for every numeric field in turn, takes a tiny code-built scenario (0.2 s
//! at 10 Mbit/s, an event budget of 10^6) with that seed, sets the one field
//! to 0, 1, its type's MAX, NaN or infinity (an integer or a time takes 0
//! for NaN and MAX for infinity), and runs it: `try_run` must end in `Ok` or
//! in an `Err`, never in a panic. The event budget bounds every run that
//! passes `Scenario::check`, so a value that livelocks the engine shows as a
//! budget-truncated `Ok`, not as a hang.
//!
//! `FIELDS` names every numeric field of `Scenario`, `PathSpec`,
//! `HostConfig`, `TcpConfig`, `RedParams`, `ImpairmentConfig` (on either
//! link family), `CrossSpec` and `FlowSpec` (about 2 s at the default case
//! count). CI runs it by name at a raised one:
//! `PROPTEST_CASES=300 cargo test -q -p rss-core --test scenario_extremes`.

use proptest::prelude::*;
use rss_core::{try_run, CcAlgorithm, CrossSpec, QueueDiscipline, RedParams, Scenario};
use rss_net::{Flap, GilbertElliott, ImpairmentConfig, Jitter, OutageWindow, TrafficPattern};
use rss_sim::{SimDuration, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The value one case writes into one field.
#[derive(Debug, Clone, Copy)]
enum Extreme {
    Zero,
    One,
    Max,
    NaN,
    Inf,
}

const EXTREMES: [Extreme; 5] = [
    Extreme::Zero,
    Extreme::One,
    Extreme::Max,
    Extreme::NaN,
    Extreme::Inf,
];

impl Extreme {
    fn f64(self) -> f64 {
        match self {
            Extreme::Zero => 0.0,
            Extreme::One => 1.0,
            Extreme::Max => f64::MAX,
            Extreme::NaN => f64::NAN,
            Extreme::Inf => f64::INFINITY,
        }
    }

    fn u64(self) -> u64 {
        match self {
            Extreme::Zero | Extreme::NaN => 0,
            Extreme::One => 1,
            Extreme::Max | Extreme::Inf => u64::MAX,
        }
    }

    fn u32(self) -> u32 {
        self.u64().min(u64::from(u32::MAX)) as u32
    }

    fn dur(self) -> SimDuration {
        SimDuration::from_nanos(self.u64())
    }

    fn at(self) -> SimTime {
        SimTime::from_nanos(self.u64())
    }
}

type Set = fn(&mut Scenario, Extreme);

/// An impairment with every mechanism on, at values that run.
fn impairment() -> ImpairmentConfig {
    ImpairmentConfig {
        burst_loss: Some(GilbertElliott {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.5,
            loss_good: 0.0,
            loss_bad: 0.5,
        }),
        outages: vec![OutageWindow {
            start: SimTime::from_millis(50),
            duration: SimDuration::from_millis(10),
        }],
        flap: Some(Flap {
            mean_up: SimDuration::from_millis(100),
            mean_down: SimDuration::from_millis(5),
        }),
        jitter: Some(Jitter {
            prob: 0.1,
            max: SimDuration::from_millis(1),
        }),
        duplicate_prob: 0.01,
    }
}

fn haul(sc: &mut Scenario) -> &mut ImpairmentConfig {
    sc.haul_impairment.get_or_insert_with(impairment)
}

fn access(sc: &mut Scenario) -> &mut ImpairmentConfig {
    sc.access_impairment.get_or_insert_with(impairment)
}

fn red(sc: &mut Scenario) -> &mut RedParams {
    if !matches!(sc.queue, QueueDiscipline::Red(_)) {
        sc.queue = QueueDiscipline::Red(RedParams::for_capacity(sc.path.router_queue_pkts));
    }
    match &mut sc.queue {
        QueueDiscipline::Red(p) => p,
        _ => unreachable!(),
    }
}

/// An OnOff cross source, whose pattern has every numeric field.
fn cross(sc: &mut Scenario) -> &mut CrossSpec {
    if sc.cross.is_empty() {
        sc.cross.push(CrossSpec {
            pattern: TrafficPattern::OnOff {
                rate_bps: 1_000_000,
                pkt_size: 1000,
                on_mean_s: 0.01,
                off_mean_s: 0.01,
            },
            start: SimTime::ZERO,
            stop: Some(SimTime::from_millis(150)),
        });
    }
    &mut sc.cross[0]
}

fn pattern(sc: &mut Scenario) -> (&mut u64, &mut u32, &mut f64, &mut f64) {
    match &mut cross(sc).pattern {
        TrafficPattern::OnOff {
            rate_bps,
            pkt_size,
            on_mean_s,
            off_mean_s,
        } => (rate_bps, pkt_size, on_mean_s, off_mean_s),
        _ => unreachable!(),
    }
}

/// Every numeric field, by its path in `Scenario`.
const FIELDS: &[(&str, Set)] = &[
    ("duration", |sc, x| sc.duration = x.dur()),
    ("seed", |sc, x| sc.seed = x.u64()),
    ("sample_interval", |sc, x| sc.sample_interval = x.dur()),
    ("web100_stride", |sc, x| sc.web100_stride = x.u32()),
    ("shards", |sc, x| sc.shards = Some(x.u32())),
    ("max_sim_time", |sc, x| sc.max_sim_time = Some(x.dur())),
    ("max_events", |sc, x| sc.max_events = Some(x.u64())),
    ("path.rate_bps", |sc, x| sc.path.rate_bps = x.u64()),
    ("path.rtt", |sc, x| sc.path.rtt = x.dur()),
    ("path.router_queue_pkts", |sc, x| {
        sc.path.router_queue_pkts = x.u32()
    }),
    ("path.loss_prob", |sc, x| sc.path.loss_prob = x.f64()),
    ("path.access_rate_bps", |sc, x| {
        sc.path.access_rate_bps = Some(x.u64())
    }),
    ("path.access_delay", |sc, x| sc.path.access_delay = x.dur()),
    ("host.nic_rate_bps", |sc, x| sc.host.nic_rate_bps = x.u64()),
    ("host.txqueuelen", |sc, x| sc.host.txqueuelen = x.u32()),
    ("host.mtu", |sc, x| sc.host.mtu = x.u32()),
    ("tcp.mss", |sc, x| sc.tcp.mss = x.u32()),
    ("tcp.header_bytes", |sc, x| sc.tcp.header_bytes = x.u32()),
    ("tcp.initial_cwnd_mss", |sc, x| {
        sc.tcp.initial_cwnd_mss = x.u32()
    }),
    ("tcp.initial_ssthresh", |sc, x| {
        sc.tcp.initial_ssthresh = Some(x.u64())
    }),
    ("tcp.rwnd", |sc, x| sc.tcp.rwnd = x.u64()),
    ("tcp.min_rto", |sc, x| sc.tcp.min_rto = x.dur()),
    ("tcp.max_rto", |sc, x| sc.tcp.max_rto = x.dur()),
    ("tcp.stall_retry", |sc, x| sc.tcp.stall_retry = x.dur()),
    ("tcp.dupack_threshold", |sc, x| {
        sc.tcp.dupack_threshold = x.u32()
    }),
    ("queue.Red.min_th", |sc, x| red(sc).min_th = x.f64()),
    ("queue.Red.max_th", |sc, x| red(sc).max_th = x.f64()),
    ("queue.Red.wq", |sc, x| red(sc).wq = x.f64()),
    ("queue.Red.max_p", |sc, x| red(sc).max_p = x.f64()),
    ("haul_impairment.burst_loss.p_good_to_bad", |sc, x| {
        haul(sc).burst_loss.as_mut().unwrap().p_good_to_bad = x.f64()
    }),
    ("haul_impairment.burst_loss.p_bad_to_good", |sc, x| {
        haul(sc).burst_loss.as_mut().unwrap().p_bad_to_good = x.f64()
    }),
    ("haul_impairment.burst_loss.loss_good", |sc, x| {
        haul(sc).burst_loss.as_mut().unwrap().loss_good = x.f64()
    }),
    ("haul_impairment.burst_loss.loss_bad", |sc, x| {
        haul(sc).burst_loss.as_mut().unwrap().loss_bad = x.f64()
    }),
    ("haul_impairment.outages[0].start", |sc, x| {
        haul(sc).outages[0].start = x.at()
    }),
    ("haul_impairment.outages[0].duration", |sc, x| {
        haul(sc).outages[0].duration = x.dur()
    }),
    ("haul_impairment.flap.mean_up", |sc, x| {
        haul(sc).flap.as_mut().unwrap().mean_up = x.dur()
    }),
    ("haul_impairment.flap.mean_down", |sc, x| {
        haul(sc).flap.as_mut().unwrap().mean_down = x.dur()
    }),
    ("haul_impairment.jitter.prob", |sc, x| {
        haul(sc).jitter.as_mut().unwrap().prob = x.f64()
    }),
    ("haul_impairment.jitter.max", |sc, x| {
        haul(sc).jitter.as_mut().unwrap().max = x.dur()
    }),
    ("haul_impairment.duplicate_prob", |sc, x| {
        haul(sc).duplicate_prob = x.f64()
    }),
    ("access_impairment.burst_loss.p_good_to_bad", |sc, x| {
        access(sc).burst_loss.as_mut().unwrap().p_good_to_bad = x.f64()
    }),
    ("access_impairment.burst_loss.p_bad_to_good", |sc, x| {
        access(sc).burst_loss.as_mut().unwrap().p_bad_to_good = x.f64()
    }),
    ("access_impairment.burst_loss.loss_good", |sc, x| {
        access(sc).burst_loss.as_mut().unwrap().loss_good = x.f64()
    }),
    ("access_impairment.burst_loss.loss_bad", |sc, x| {
        access(sc).burst_loss.as_mut().unwrap().loss_bad = x.f64()
    }),
    ("access_impairment.outages[0].start", |sc, x| {
        access(sc).outages[0].start = x.at()
    }),
    ("access_impairment.outages[0].duration", |sc, x| {
        access(sc).outages[0].duration = x.dur()
    }),
    ("access_impairment.flap.mean_up", |sc, x| {
        access(sc).flap.as_mut().unwrap().mean_up = x.dur()
    }),
    ("access_impairment.flap.mean_down", |sc, x| {
        access(sc).flap.as_mut().unwrap().mean_down = x.dur()
    }),
    ("access_impairment.jitter.prob", |sc, x| {
        access(sc).jitter.as_mut().unwrap().prob = x.f64()
    }),
    ("access_impairment.jitter.max", |sc, x| {
        access(sc).jitter.as_mut().unwrap().max = x.dur()
    }),
    ("access_impairment.duplicate_prob", |sc, x| {
        access(sc).duplicate_prob = x.f64()
    }),
    ("cross[0].pattern.OnOff.rate_bps", |sc, x| {
        *pattern(sc).0 = x.u64()
    }),
    ("cross[0].pattern.OnOff.pkt_size", |sc, x| {
        *pattern(sc).1 = x.u32()
    }),
    ("cross[0].pattern.OnOff.on_mean_s", |sc, x| {
        *pattern(sc).2 = x.f64()
    }),
    ("cross[0].pattern.OnOff.off_mean_s", |sc, x| {
        *pattern(sc).3 = x.f64()
    }),
    // A source at 1 bit/s, started after t = 0: a packet of u32::MAX
    // bytes puts its next one past the clock's end.
    ("cross[0].pattern.Cbr.pkt_size", |sc, x| {
        let c = cross(sc);
        c.start = SimTime::from_millis(1);
        c.pattern = TrafficPattern::Cbr {
            rate_bps: 1,
            pkt_size: x.u32(),
        };
    }),
    ("cross[0].start", |sc, x| cross(sc).start = x.at()),
    ("cross[0].stop", |sc, x| cross(sc).stop = Some(x.at())),
    ("flows[0].start", |sc, x| sc.flows[0].start = x.at()),
    ("flows[0].bytes", |sc, x| sc.flows[0].bytes = Some(x.u64())),
];

/// The scenario every case starts from.
fn tiny(seed: u64) -> Scenario {
    let mut sc = Scenario::paper_testbed(CcAlgorithm::Reno)
        .with_rate(10_000_000)
        .with_rtt(SimDuration::from_millis(10))
        .with_duration(SimDuration::from_millis(200))
        .with_seed(seed);
    sc.max_events = Some(1_000_000);
    sc
}

proptest! {
    #[test]
    fn no_extreme_field_panics(seed in any::<u64>()) {
        for &(name, set) in FIELDS {
            for x in EXTREMES {
                let mut sc = tiny(seed);
                set(&mut sc, x);
                let outcome = catch_unwind(AssertUnwindSafe(|| try_run(&sc).map(|_| ())));
                prop_assert!(outcome.is_ok(), "`{name}` = {x:?} (seed {seed}) panicked");
            }
        }
    }
}
