//! The unit map of the dumbbell and the windowed driver for it.
//!
//! There is one model of the dumbbell, [`crate::World`], and one way it is
//! cut into *units*. This module holds that map and drives a world spread
//! over several domains through [`rss_sim::run_sharded`]'s
//! conservative-lookahead windows.
//!
//! # The unit map
//!
//! A `UnitPlan` names the unit that owns every egress direction of the
//! topology, and the domain (thread, engine, [`World`]) that simulates each
//! unit. There is one unit per host pair, plus two hubs: pair `p` owns its
//! sending and receiving host and the two router egress ports feeding their
//! access links (the left router's toward the sender, which returns ACKs,
//! and the right router's toward the receiver, which delivers data); the hub
//! units own the left and the right router's bottleneck egress port — the
//! shared queue all data crosses, and the one carrying the ACK stream back.
//! Pair → hub flights ride an access link (latency `access_delay`), hub →
//! pair flights the haul link (`haul_delay = rtt/2 − 2·access_delay`); the
//! lookahead is the smaller of the two.
//!
//! `Scenario::shards` only says how the `host_pairs + 2` units are grouped:
//! `None` puts them all in one domain, which [`crate::run`] drives with a
//! single `Engine::run_until` — no window loop, because with every unit in
//! one queue there is nobody to wait for; `Some(n)` groups them into `n`
//! domains by estimated event weight and advances those in lockstep
//! lookahead windows. A flight between two units of one domain is an
//! ordinary event either way; only a flight into another domain is an
//! envelope.
//!
//! # The bit-exactness ledger
//!
//! The `RunReport` is byte-identical with or without `shards`, at every
//! domain count (see the [`rss_sim::shard`] module docs for the argument:
//! events fire in `(time, unit, per-unit seq)` order, and a cross-unit
//! flight keeps its sender's `(unit, seq)` whichever way it travels). That
//! holds because everything whose order could depend on the grouping is per
//! unit:
//!
//! | state                         | kept where                               |
//! |-------------------------------|------------------------------------------|
//! | event sequence numbers        | per scheduling unit, in the engine       |
//! | envelope sequence numbers     | per source unit, in the fabric           |
//! | packet ids                    | per unit, base `unit << 40`              |
//! | bottleneck RED + loss streams | per port: `seed → 0xFAB0` / `0xFAB1`     |
//! | impairment streams            | per link direction (`0x1FA`, `0xACC·p`)  |
//! | cross-traffic streams         | per source (`0x0C05 + j`)                |
//! | sampling                      | two chains, in their queues' units       |
//! | drop / delivery counters      | per fabric, summed at report time        |
//! | completions                   | counted per world, summed by the driver  |
//!
//! The two sampling chains (flow 0's sender IFQ, the forward bottleneck) are
//! ordinary events of the units that own those queues, so
//! `events_processed` is a function of the scenario alone — and so are the
//! window walk's own counts (`RunReport::shard`: windows run, windows
//! skipped, cross-unit flights), because which grid windows hold an event
//! depends only on the union of the units' event times. A run ends where the
//! walk would end it: at the horizon, or — under `stop_when_complete` — at
//! the end of the lookahead-grid window that holds the last completion,
//! which the one-domain driver computes instead of walking to
//! (`stop_boundary`). Engine queue counters are *not* grouping invariant
//! (where an event lands in the calendar wheel depends on what else the
//! domain holds); they and the window counts are executor diagnostics,
//! reported for the one-engine and the windowed driver respectively and
//! outside the invariance contract.

use crate::body::WireBody;
use crate::runner::RunError;
use crate::scenario::Scenario;
use crate::world::{BuildError, World};
use rss_net::Handoff;
use rss_sim::{
    event_tag, partition_units, run_sharded, Domain, Engine, Envelope, ShardStats, SimDuration,
    SimTime,
};

/// The unit map of a scenario's dumbbell (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct UnitPlan {
    /// Unit owning host pair `p`.
    pub(crate) pair_unit: Vec<u32>,
    /// Units owning the left and the right router's bottleneck egress port
    /// (the forward/data and the reverse/ACK direction).
    pub(crate) hub_units: [u32; 2],
    /// Domain simulating each unit.
    pub(crate) unit_domain: Vec<u32>,
}

impl UnitPlan {
    /// One unit per host pair plus one per bottleneck direction, grouped
    /// into at most `domains` domains by estimated event weight.
    pub(crate) fn per_pair(sc: &Scenario, domains: u32) -> Self {
        let pairs = sc.host_pairs();
        // Connections dominate (closed-loop, ~4 events per segment round
        // trip), cross sources are open-loop, and each hub sees roughly a
        // quarter of the total edge traffic as queue/serialize events.
        //
        // The hubs are units 0 and 1, the pairs follow: events of one instant
        // fire in unit order, so a bottleneck port finishes the packet it is
        // sending before it takes that instant's arrivals (a departure frees
        // its slot for them), and a host takes a delivery before it acts.
        let mut weights = vec![0u64; 2 + pairs];
        for i in 0..sc.flows.len() {
            weights[2 + sc.flow_pair(i)] += 4;
        }
        for j in 0..sc.cross.len() {
            weights[2 + sc.cross_pair(j)] += 2;
        }
        weights[2..].iter_mut().for_each(|w| *w = (*w).max(1));
        let edge_sum: u64 = weights.iter().sum();
        weights[..2].fill((edge_sum / 4).max(1));
        let domains = (domains.max(1) as usize).min(weights.len());
        UnitPlan {
            pair_unit: (2..2 + pairs as u32).collect(),
            hub_units: [0, 1],
            unit_domain: partition_units(&weights, domains),
        }
    }
}

/// One domain of a windowed run: a private engine over the world of the
/// units the plan assigns to it. The domains sit side by side in one slice,
/// each driven by its own thread; the alignment keeps the tail of one and
/// the head of the next off a shared pair of cache lines that both threads
/// would write. Without it, a change in `World`'s size alone moved the
/// 10k-flow dumbbell's two-domain wall time by 10–20 %.
#[repr(align(128))]
struct DomainEngine(Engine<World>);

impl Domain for DomainEngine {
    type Msg = Handoff<WireBody>;

    fn inject(&mut self, env: Envelope<Self::Msg>) {
        let ev = self.0.model_mut().accept(env.dst_unit, env.msg);
        self.0
            .schedule_tagged(env.time, event_tag(env.src_unit, env.seq), ev);
    }

    fn on_boundary(&mut self, _now: SimTime) {}

    fn idle_until(&self) -> SimTime {
        self.0.next_event_time().unwrap_or(SimTime::MAX)
    }

    fn run_window(&mut self, end: SimTime) -> u64 {
        self.0.run_window(end)
    }

    fn finish(&mut self, horizon: SimTime) -> u64 {
        self.0.run_until(horizon).events_processed
    }

    fn drain_outgoing(&mut self, into: &mut Vec<Envelope<Self::Msg>>) {
        self.0.model_mut().drain_outgoing(into);
    }

    fn take_completions(&mut self) -> u64 {
        self.0.model_mut().take_completions()
    }
}

/// The smallest latency of a cross-unit flight: the window of the lookahead
/// grid. Zero when the haul link has no delay left (`4 × access_delay ≥
/// rtt`) — such a scenario cannot be spread over domains
/// ([`Scenario::check`] rejects it with `shards`).
pub(crate) fn lookahead(sc: &Scenario) -> SimDuration {
    let access_delay = sc.path.access_delay;
    let haul_delay = (sc.path.rtt / 2).saturating_sub(access_delay * 2);
    access_delay.min(haul_delay)
}

/// Where a `stop_when_complete` run whose last flow completed at
/// `completed_at` ends: the windowed driver notices at the end of the
/// lookahead-grid window holding that instant (the horizon, if that comes
/// first), having run every event before it. Without a lookahead there is
/// no grid, and the run ends at the completion itself.
pub(crate) fn stop_boundary(sc: &Scenario, completed_at: SimTime, horizon: SimTime) -> SimTime {
    let grid = lookahead(sc).as_nanos();
    if grid == 0 {
        return completed_at;
    }
    let window = completed_at.as_nanos() / grid;
    SimTime::from_nanos((window + 1).saturating_mul(grid)).min(horizon)
}

/// Run `sc`, which has passed [`Scenario::check`], in at most `shards`
/// domains, up to `horizon`. Returns the domains' worlds for report
/// assembly. The worlds are built in parallel, as they are run.
pub(crate) fn run_windowed(
    sc: &Scenario,
    shards: u32,
    horizon: SimTime,
) -> Result<(Vec<World>, ShardStats), RunError> {
    let lookahead = lookahead(sc);
    let plan = UnitPlan::per_pair(sc, shards);
    let domains = plan.unit_domain.iter().max().map_or(0, |&d| d + 1);
    // Domains are independent (every stream derives from `sc.seed`), so
    // their worlds are built and seeded side by side: domain 0 here, the
    // rest on threads of their own. Results are read in domain order, so
    // the error returned is the lowest failing domain's whichever thread
    // finished first, and a build panic resumes here.
    let build = |d: u32| -> Result<DomainEngine, BuildError> {
        Ok(DomainEngine(
            World::build_domain(sc, &plan, d)?.into_engine(),
        ))
    };
    let mut engines = std::thread::scope(|scope| {
        let rest: Vec<_> = (1..domains)
            .map(|d| scope.spawn(move || build(d)))
            .collect();
        std::iter::once(build(0))
            .chain(
                rest.into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
            )
            .collect::<Result<Vec<_>, BuildError>>()
    })?;
    // The driver stops at the first window boundary by which every domain
    // has reported all its completions ([`stop_boundary`]).
    let target = (sc.stop_when_complete && !sc.flows.is_empty()).then_some(sc.flows.len() as u64);
    let stats = run_sharded(&mut engines, &plan.unit_domain, lookahead, horizon, target)?;
    let worlds = engines.into_iter().map(|e| e.0.into_model()).collect();
    Ok((worlds, stats))
}

#[cfg(test)]
mod tests {
    use crate::{run, RunReport, Scenario};
    use rss_net::TrafficPattern;
    use rss_sim::{SimDuration, SimTime};
    use rss_tcp::CcAlgorithm;

    /// A fast multi-flow scenario with cross traffic, loss and staggered
    /// starts — every mechanism the sharded world models.
    fn busy(flows: usize) -> Scenario {
        let mut sc = Scenario::paper_testbed(CcAlgorithm::Reno)
            .with_rate(20_000_000)
            .with_rtt(SimDuration::from_millis(10))
            .with_duration(SimDuration::from_millis(400))
            .with_access_delay(SimDuration::from_micros(500));
        sc.flows = (0..flows)
            .map(|i| crate::scenario::FlowSpec {
                algo: if i % 2 == 0 {
                    CcAlgorithm::Reno
                } else {
                    CcAlgorithm::Restricted(rss_tcp::RssConfig::tuned())
                },
                bytes: None,
                start: SimTime::from_millis(5 * i as u64),
            })
            .collect();
        sc.cross = vec![crate::scenario::CrossSpec {
            pattern: TrafficPattern::Cbr {
                rate_bps: 2_000_000,
                pkt_size: 1500,
            },
            start: SimTime::ZERO,
            stop: None,
        }];
        sc.path.loss_prob = 0.001;
        sc.web100_stride = 8;
        sc
    }

    fn run_at(sc: &Scenario, shards: u32) -> RunReport {
        run(&sc.clone().with_shards(shards))
    }

    fn report_json(sc: &Scenario, shards: u32) -> String {
        run_at(sc, shards).to_json()
    }

    #[test]
    fn shard_counts_are_bit_exact() {
        let sc = busy(4);
        let serial = run_at(&sc, 1);
        let walk = serial.shard.expect("windowed runs report their walk");
        // 4 flows + CBR cross traffic over 800 half-millisecond windows:
        // every packet crosses units three times, whoever simulates them.
        assert_eq!(walk.windows_run + walk.windows_skipped, 800);
        assert!(walk.envelopes > 1000, "{walk:?}");
        for shards in [2, 3, 6] {
            let parallel = run_at(&sc, shards);
            assert_eq!(
                parallel.shard,
                Some(walk),
                "{shards} shards walked differently"
            );
            assert_eq!(
                serial.to_json(),
                parallel.to_json(),
                "{shards} shards diverged from serial"
            );
        }
    }

    #[test]
    fn a_burst_of_starts_inside_one_granule_is_shard_count_invariant() {
        // 500 flows starting at 500 instants of one calendar granule, in no
        // order: each domain seeds its share in its own thread, and the
        // queue — not the seeding order — puts them in sequence.
        let mut sc = busy(500);
        sc.duration = SimDuration::from_millis(150);
        for (i, f) in sc.flows.iter_mut().enumerate() {
            f.start = SimTime::from_nanos(i as u64 * 7_919 % 16_000);
        }
        let serial = report_json(&sc, 1);
        for shards in [2, 4] {
            assert_eq!(serial, report_json(&sc, shards), "{shards} shards diverged");
        }
    }

    #[test]
    fn a_build_error_in_a_later_domain_keeps_its_flow_path() {
        use super::UnitPlan;
        use crate::{try_run, ScalableConfig};
        let sc = busy(6).with_shards(2);
        let plan = UnitPlan::per_pair(&sc, 2);
        let owns =
            |d: u32, i: usize| plan.unit_domain[plan.pair_unit[sc.flow_pair(i)] as usize] == d;
        let flows = 0..sc.flows.len();
        let i0 = flows.clone().rev().find(|&i| owns(0, i)).expect("flow");
        let i1 = flows.clone().find(|&i| owns(1, i)).expect("flow");
        assert!(i1 < i0, "domain order and flow order must differ");
        let reject = |sc: &mut crate::Scenario, i: usize| {
            sc.flows[i].algo = CcAlgorithm::Scalable(ScalableConfig { ai_cnt: 0 });
        };
        // Raised on the spawned builder of domain 1 only.
        let mut bad = sc.clone();
        reject(&mut bad, i1);
        let err = try_run(&bad).expect_err("ai_cnt 0").to_string();
        assert_eq!(
            err,
            format!("flows[{i1}]: ai_cnt must be at least 1, got 0")
        );
        // Both domains fail: the lower domain's error wins, as when they
        // were built one after the other.
        reject(&mut bad, i0);
        let err = try_run(&bad).expect_err("ai_cnt 0").to_string();
        assert_eq!(
            err,
            format!("flows[{i0}]: ai_cnt must be at least 1, got 0")
        );
    }

    #[test]
    fn sharded_run_moves_data_and_reports_all_flows() {
        let sc = busy(3);
        let r = run_at(&sc, 2);
        assert_eq!(r.flows.len(), 3);
        for f in &r.flows {
            assert!(f.vars.thru_bytes_acked > 0, "flow {} moved no data", f.conn);
        }
        assert!(r.cross_offered_bytes > 0);
        assert!(r.cross_delivered_bytes > 0);
        assert!(r.events_processed > 1000);
    }

    #[test]
    fn sharded_stop_when_complete_stops_early() {
        let mut sc = busy(2);
        sc.cross.clear();
        sc.path.loss_prob = 0.0;
        for f in &mut sc.flows {
            f.bytes = Some(100_000);
            f.start = SimTime::ZERO;
        }
        sc.stop_when_complete = true;
        sc.duration = SimDuration::from_secs(20);
        let r = run_at(&sc, 2);
        for f in &r.flows {
            assert_eq!(f.vars.thru_bytes_acked, 100_000);
            assert!(f.completed_at_s.is_some());
        }
        assert!(r.duration_s < 19.0, "did not stop early: {}", r.duration_s);
        // Early stop is also shard-count invariant.
        let a = report_json(&sc, 1);
        let b = report_json(&sc, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn shared_sender_host_pumps_in_global_order() {
        let mut sc = busy(3);
        sc.shared_sender_host = true;
        let a = report_json(&sc, 1);
        let b = report_json(&sc, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn red_bottleneck_is_grouping_invariant() {
        use crate::scenario::{QueueDiscipline, RedParams};
        let mut sc = busy(4);
        sc.path.router_queue_pkts = 40;
        sc = sc.with_queue(QueueDiscipline::Red(RedParams::for_capacity(40)));
        let a = report_json(&sc, 1);
        let b = report_json(&sc, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn ecn_bottleneck_is_grouping_invariant_and_marks() {
        use crate::scenario::{QueueDiscipline, RedParams};
        let mut sc = busy(4);
        sc.path.router_queue_pkts = 40;
        sc = sc.with_queue(QueueDiscipline::RedEcn(RedParams::for_capacity(40)));
        let r = run_at(&sc, 2);
        assert!(
            r.router_ecn_marks > 0,
            "a congested ECN bottleneck never marked"
        );
        for f in &r.flows {
            assert!(f.vars.thru_bytes_acked > 0, "flow {} starved", f.conn);
        }
        let a = report_json(&sc, 1);
        for shards in [2, 4] {
            let b = report_json(&sc, shards);
            assert_eq!(a, b, "{shards} shards diverged under ECN");
        }
    }

    /// Every impairment mechanism at once, on both the haul and the access
    /// links — the realization must be identical at every shard count.
    fn faulty() -> Scenario {
        use rss_net::{Flap, GilbertElliott, ImpairmentConfig, Jitter, OutageWindow};
        let mut sc = busy(4);
        sc.haul_impairment = Some(ImpairmentConfig {
            burst_loss: Some(GilbertElliott {
                p_good_to_bad: 0.01,
                p_bad_to_good: 0.3,
                loss_good: 0.0,
                loss_bad: 0.5,
            }),
            outages: vec![OutageWindow {
                start: SimTime::from_millis(100),
                duration: SimDuration::from_millis(30),
            }],
            flap: None,
            jitter: Some(Jitter {
                prob: 0.2,
                max: SimDuration::from_micros(400),
            }),
            duplicate_prob: 0.01,
        });
        sc.access_impairment = Some(ImpairmentConfig {
            flap: Some(Flap {
                mean_up: SimDuration::from_millis(150),
                mean_down: SimDuration::from_millis(10),
            }),
            jitter: Some(Jitter {
                prob: 0.1,
                max: SimDuration::from_micros(200),
            }),
            ..Default::default()
        });
        sc
    }

    #[test]
    fn impaired_runs_are_shard_count_invariant() {
        let sc = faulty();
        let serial = report_json(&sc, 1);
        for shards in [2, 3, 6] {
            let parallel = report_json(&sc, shards);
            assert_eq!(serial, parallel, "{shards} shards diverged under faults");
        }
    }

    #[test]
    fn impaired_run_still_moves_data() {
        let r = run_at(&faulty(), 2);
        for f in &r.flows {
            assert!(f.vars.thru_bytes_acked > 0, "flow {} starved", f.conn);
        }
        assert!(r.truncated.is_none());
    }

    /// Livelock regression: `stop_when_complete` plus a permanent outage can
    /// never satisfy its stop condition — the watchdog must end the run at
    /// `max_sim_time` with an explicit truncation, identically at every
    /// shard count, instead of spinning toward a huge horizon.
    #[test]
    fn watchdog_truncates_uncompletable_run() {
        use rss_net::{ImpairmentConfig, OutageWindow};
        let mut sc = busy(1);
        sc.cross.clear();
        sc.flows[0].bytes = Some(5_000_000);
        sc.flows[0].start = SimTime::ZERO;
        sc.stop_when_complete = true;
        sc.duration = SimDuration::from_secs(3600);
        sc.max_sim_time = Some(SimDuration::from_secs(8));
        // The haul goes down at 50 ms and never comes back.
        sc.haul_impairment = Some(ImpairmentConfig {
            outages: vec![OutageWindow {
                start: SimTime::from_millis(50),
                duration: SimDuration::from_secs(7200),
            }],
            ..Default::default()
        });
        let r = run_at(&sc, 2);
        assert!(r.duration_s <= 8.1, "ran past the clamp: {}", r.duration_s);
        let reason = r.truncated.as_deref().expect("truncation reported");
        assert!(reason.contains("max_sim_time"), "unexpected: {reason}");
        assert!(r.flows[0].completed_at_s.is_none());
        assert!(r.flows[0].rto_episodes >= 1, "no RTO episodes recorded");
        assert!(r.flows[0].rto_max_backoff >= 2, "backoff never deepened");
        // Truncated runs are shard-count invariant too.
        assert_eq!(report_json(&sc, 1), report_json(&sc, 2));
    }
}
