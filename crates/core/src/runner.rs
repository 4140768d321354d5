//! Run scenarios to completion and extract reports; parallel sweep support.

use crate::report::{FlowReport, RunReport, ShardCounters};
use crate::scenario::Scenario;
use crate::shard::{run_windowed, stop_boundary};
use crate::world::{BuildError, World};
use rss_net::RedStats;
use rss_sim::{QueueCounters, ShardError, SimTime};
use rss_tcp::TcpReceiver;
use rss_web100::InstrumentBlock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Finalize one connection's recorder and build its report from the
/// record, moving its timelines in.
fn flow_report(
    i: usize,
    sc: &Scenario,
    web100: &mut InstrumentBlock,
    receiver: &TcpReceiver,
    completed_at: Option<SimTime>,
    end: SimTime,
) -> FlowReport {
    web100.finish(sc.flows[i].start, end);
    let rstats = receiver.stats();
    let vars = *web100.vars();
    let goodput = web100.goodput_bps(end);
    let t = web100.take_timelines();
    let stall_times_s = secs(t.stall_times());
    let congestion_times_s = secs(t.congestion_times());
    let (cwnd_series, acked_series) = t.into_series();
    FlowReport {
        conn: i as u32,
        algo: sc.flows[i].algo.label().into(),
        vars,
        goodput_bps: goodput,
        utilization: goodput / sc.path.rate_bps as f64,
        completed_at_s: completed_at.map(|t| t.as_secs_f64()),
        stall_times_s,
        congestion_times_s,
        cwnd_series,
        acked_series,
        receiver_delivered_bytes: receiver.rcv_nxt(),
        receiver_dup_segments: rstats.duplicate_segments,
        receiver_ooo_segments: rstats.out_of_order_segments,
        rto_episodes: web100.rto_episodes(),
        rto_max_backoff: web100.rto_max_backoff(),
        rto_max_recovery_s: web100.rto_max_recovery().map(|d| d.as_secs_f64()),
    }
}

/// Signal times as the report holds them: seconds (`SimTime::as_secs_f64`,
/// the bits recording them as they fired gave), in a vector of their length.
fn secs(times: impl Iterator<Item = SimTime> + Clone) -> Vec<f64> {
    let mut secs = Vec::with_capacity(times.clone().count());
    secs.extend(times.map(SimTime::as_secs_f64));
    secs
}

/// How a driver left its worlds: what the report needs beyond their state.
struct Outcome {
    end: SimTime,
    events_processed: u64,
    /// Engine queue counters; one-engine runs only.
    engine: Option<QueueCounters>,
    /// The window walk's counts; windowed runs only.
    shard: Option<ShardCounters>,
    budget_exhausted: bool,
    /// The run ended before its horizon of its own accord (every flow
    /// completed).
    ended_early: bool,
}

/// The watchdog verdict for a finished run: why it was cut short, or `None`
/// when it ran its course.
fn truncation(sc: &Scenario, out: &Outcome) -> Option<String> {
    if out.budget_exhausted {
        return Some(format!(
            "event budget {} exhausted at t={:.6}s",
            sc.max_events.expect("budget fired only when armed"),
            out.end.as_secs_f64()
        ));
    }
    let clamp = sc.max_sim_time?;
    if clamp < sc.duration && !out.ended_early {
        return Some(format!(
            "max_sim_time {:.6}s reached before the {:.6}s horizon",
            clamp.as_secs_f64(),
            sc.duration.as_secs_f64()
        ));
    }
    None
}

/// Why [`try_run`] produced no report.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The scenario cannot be turned into a runnable world.
    Build(BuildError),
    /// A domain thread of a windowed run panicked — a simulator bug,
    /// attributed to its shard; the sibling threads were released and joined.
    Shard(ShardError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Build(e) => e.fmt(f),
            RunError::Shard(e) => write!(f, "sharded run failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<BuildError> for RunError {
    fn from(e: BuildError) -> Self {
        RunError::Build(e)
    }
}

impl From<ShardError> for RunError {
    fn from(e: ShardError) -> Self {
        RunError::Shard(e)
    }
}

/// [`try_run`], panicking with the [`RunError`] text instead of returning
/// it.
///
/// A shim kept for one caller, the benchmark's pipeline drive
/// (`benchmark/src/api.rs`), and deleted once that call moves to
/// [`try_run`]. Everything else runs through [`try_run`] or [`run_many`].
pub fn run(sc: &Scenario) -> RunReport {
    try_run(sc).unwrap_or_else(|e| panic!("{e}"))
}

/// Execute one scenario and collect its report, or return why there is
/// none: a value [`Scenario::check`] rejects, a flow's congestion control
/// the registry rejects, or a shard thread's panic.
///
/// The model, the unit map and the event order are the same either way;
/// [`Scenario::shards`] only picks how many domains the units are grouped
/// into, and with that the driver. `None` is one domain under one engine,
/// run to the horizon with no window loop; `Some(n)` is `n` domains advanced
/// in lockstep lookahead windows (see [`crate::shard`]). The report differs
/// in its executor diagnostics (`engine`, `shard`) and in nothing else.
pub fn try_run(sc: &Scenario) -> Result<RunReport, RunError> {
    sc.check().map_err(BuildError::Invalid)?;
    // The watchdog clamps the horizon; a cut there is invariant across
    // domain counts, so truncated runs stay bit-exact too.
    let horizon = SimTime::ZERO + sc.max_sim_time.map_or(sc.duration, |t| t.min(sc.duration));
    let (worlds, out) = match sc.shards {
        None => {
            let mut engine = World::build_checked(sc)?.into_engine();
            engine.event_budget = sc.max_events;
            let mut stats = engine.run_until(horizon);
            let mut events_processed = stats.events_processed;
            let ended_early = stats.stopped_by_model && stats.end_time < horizon;
            if ended_early {
                // Every flow has completed: end where the window walk would.
                stats.end_time = stop_boundary(sc, stats.end_time, horizon);
                events_processed += engine.run_window(stats.end_time);
            } else if stats.stopped_by_model {
                // ... at the horizon itself, whose events all still fire.
                stats = engine.run_until(horizon);
                events_processed += stats.events_processed;
            }
            let out = Outcome {
                end: stats.end_time,
                events_processed,
                engine: Some(engine.queue_counters()),
                shard: None,
                budget_exhausted: stats.budget_exhausted,
                ended_early,
            };
            (vec![engine.into_model()], out)
        }
        Some(n) => {
            let (worlds, stats) = run_windowed(sc, n, horizon)?;
            let out = Outcome {
                end: stats.end_time,
                events_processed: stats.events_processed,
                engine: None,
                shard: Some(ShardCounters {
                    windows_run: stats.windows_run,
                    windows_skipped: stats.windows_skipped,
                    // Not the executor's count of what went through its
                    // rings: that depends on which units share a domain.
                    envelopes: worlds.iter().map(|w| w.fabric().cross_unit_flights()).sum(),
                }),
                budget_exhausted: false,
                ended_early: stats.stopped_early,
            };
            (worlds, out)
        }
    };
    Ok(report(sc, worlds, &out))
}

/// Apply `f` to each domain's item side by side — the first here, the others
/// on threads of their own — and return the results in domain order.
/// Releasing a domain's memory is per-domain work like building it
/// (`run_windowed`).
fn per_domain<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|scope| {
        let mut items = items.into_iter();
        let first = items.next();
        let rest: Vec<_> = items.map(|item| scope.spawn(move || f(item))).collect();
        let rest = rest
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        first.map(f).into_iter().chain(rest).collect()
    })
}

/// Assemble the report from the worlds of all domains and release them.
///
/// Network first, flows last: the network-level fields are read off the
/// complete worlds, then every world gives up all but its connections, and
/// only then are the per-flow reports — the bulk of a many-flow report —
/// allocated. The peak is connections + flow reports instead of worlds +
/// flow reports. Every series is moved into the report, none copied.
fn report(sc: &Scenario, mut worlds: Vec<World>, out: &Outcome) -> RunReport {
    let end = out.end;
    // The report's host-level fields describe flow 0's sending host.
    let sender_nic = worlds
        .iter()
        .find_map(World::sender_host)
        .expect("flow 0 belongs to a world");
    let sender_nic_utilization = sender_nic.utilization(end);
    let sender_nic = sender_nic.stats();
    let sender_ifq_series = worlds
        .iter_mut()
        .find_map(World::take_sender_ifq_series)
        .expect("flow 0 belongs to a world");
    let red: Vec<RedStats> = worlds.iter().map(World::red_stats).collect();
    let router_queue_drops = worlds.iter().map(|w| w.fabric().queue_drops).sum();
    let bottleneck_queue_series = worlds
        .iter_mut()
        .find_map(World::take_bottleneck_series)
        .expect("one world owns the forward bottleneck");
    let cross_offered_bytes = worlds.iter().map(World::cross_offered_bytes).sum();
    let cross_delivered_bytes = worlds.iter().map(World::cross_delivered_bytes).sum();

    let mut conns = per_domain(worlds, World::into_connections);
    let flows = (0..sc.flows.len())
        .map(|i| {
            let (web100, receiver, completed_at) = conns
                .iter_mut()
                .find_map(|c| c.flow(i))
                .expect("every flow belongs to a world");
            flow_report(i, sc, web100, receiver, completed_at, end)
        })
        .collect();
    per_domain(conns, drop);

    RunReport {
        duration_s: end.as_secs_f64(),
        seed: sc.seed,
        path_rate_bps: sc.path.rate_bps,
        flows,
        sender_ifq_series,
        sender_nic,
        sender_nic_utilization,
        router_queue_drops,
        router_red_early_drops: red.iter().map(|s| s.early_drops).sum(),
        router_red_forced_drops: red.iter().map(|s| s.forced_drops).sum(),
        router_ecn_marks: red.iter().map(|s| s.ecn_marks).sum(),
        bottleneck_queue_series,
        cross_offered_bytes,
        cross_delivered_bytes,
        events_processed: out.events_processed,
        engine: out.engine,
        shard: out.shard,
        truncated: truncation(sc, out),
    }
}

/// One cell of a [`run_many`] batch: its report, or why there is none, and
/// the wall time of the simulation that produced it, in milliseconds.
pub type BatchCell = (Result<RunReport, RunError>, f64);

/// Run a batch of scenarios across worker threads, executing each *distinct*
/// configuration once. Returns one [`BatchCell`] per scenario, in input order,
/// plus the number of distinct configurations.
///
/// Sweep grids routinely contain cells whose scenario is identical (the
/// anchor point of two sweeps, or a baseline column repeated per row).
/// Scenario aggregates plain config (no floats with NaN, no interior
/// mutability), so its Debug rendering is a faithful identity key; runs are
/// deterministic, so a shared outcome — report or error — is
/// indistinguishable from a fresh one. A duplicate cell carries the wall time
/// of the one simulation it shares.
pub fn run_many(scenarios: &[Scenario]) -> (Vec<BatchCell>, usize) {
    // `slot[i]`: which distinct simulation cell `i` reads.
    let mut first_seen: BTreeMap<String, usize> = BTreeMap::new();
    let mut distinct: Vec<&Scenario> = Vec::new();
    let slot: Vec<usize> = scenarios
        .iter()
        .map(|sc| {
            *first_seen.entry(format!("{sc:?}")).or_insert_with(|| {
                distinct.push(sc);
                distinct.len() - 1
            })
        })
        .collect();

    // Simulations are independent, so a shared atomic cursor hands them to
    // the workers (the calling thread is one). Each result is written once,
    // by the worker that claimed its index: OnceLock gives lock-free
    // single-writer slots. The scope joins every worker before returning
    // and re-raises a worker's panic.
    let results: Vec<OnceLock<BatchCell>> = distinct.iter().map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    let work = || loop {
        let d = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(sc) = distinct.get(d) else { break };
        let t0 = Instant::now();
        let report = try_run(sc);
        let cell = (report, t0.elapsed().as_secs_f64() * 1e3);
        results[d].set(cell).expect("slot claimed twice");
    };
    let workers = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(distinct.len());
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });

    let mut readers = vec![0usize; distinct.len()];
    for &d in &slot {
        readers[d] += 1;
    }
    // The last reader of a simulation takes its outcome; only earlier
    // duplicates pay for a copy.
    let mut ran: Vec<_> = results.into_iter().map(OnceLock::into_inner).collect();
    let cells = slot
        .iter()
        .map(|&d| {
            readers[d] -= 1;
            match readers[d] {
                0 => ran[d].take(),
                _ => ran[d].clone(),
            }
            .expect("taken only by the last reader")
        })
        .collect();
    (cells, distinct.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rss_sim::SimDuration;
    use rss_tcp::CcAlgorithm;

    /// A fast scenario for unit tests: short run, small path.
    fn tiny(algo: CcAlgorithm) -> Scenario {
        let mut sc = Scenario::paper_testbed(algo)
            .with_rate(10_000_000)
            .with_rtt(SimDuration::from_millis(10))
            .with_duration(SimDuration::from_millis(1500));
        sc.web100_stride = 4;
        sc
    }

    #[test]
    fn bulk_flow_moves_data() {
        let r = run(&tiny(CcAlgorithm::Reno));
        assert_eq!(r.flows.len(), 1);
        let f = &r.flows[0];
        assert!(f.vars.data_bytes_out > 0, "nothing sent");
        assert!(f.vars.thru_bytes_acked > 0, "nothing acked");
        assert!(f.goodput_bps > 1_000_000.0, "goodput {}", f.goodput_bps);
        assert!(f.utilization <= 1.01);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(&tiny(CcAlgorithm::Reno));
        let b = run(&tiny(CcAlgorithm::Reno));
        assert_eq!(
            a.flows[0].vars.data_bytes_out,
            b.flows[0].vars.data_bytes_out
        );
        assert_eq!(a.flows[0].vars.send_stall, b.flows[0].vars.send_stall);
        assert_eq!(a.flows[0].cwnd_series, b.flows[0].cwnd_series);
    }

    #[test]
    fn bounded_transfer_completes() {
        let mut sc = tiny(CcAlgorithm::Reno);
        sc.flows[0].bytes = Some(200_000);
        sc.stop_when_complete = true;
        let r = run(&sc);
        let f = &r.flows[0];
        assert_eq!(f.vars.thru_bytes_acked, 200_000);
        assert!(f.completed_at_s.is_some());
    }

    #[test]
    fn serial_outage_truncates_with_recovery_telemetry() {
        use rss_net::{ImpairmentConfig, OutageWindow};
        use rss_sim::SimTime;
        // A permanent outage under `stop_when_complete`: without the
        // watchdog this would grind through the full (huge) horizon.
        let mut sc = tiny(CcAlgorithm::Reno);
        sc.flows[0].bytes = Some(5_000_000);
        sc.stop_when_complete = true;
        sc.duration = SimDuration::from_secs(3600);
        sc.max_sim_time = Some(SimDuration::from_secs(8));
        sc.haul_impairment = Some(ImpairmentConfig {
            outages: vec![OutageWindow {
                start: SimTime::from_millis(50),
                duration: SimDuration::from_secs(7200),
            }],
            ..Default::default()
        });
        let r = run(&sc);
        assert!(r.duration_s <= 8.1, "ran past the clamp: {}", r.duration_s);
        let reason = r.truncated.as_deref().expect("truncation reported");
        assert!(reason.contains("max_sim_time"), "unexpected: {reason}");
        assert!(r.flows[0].completed_at_s.is_none());
        assert!(r.flows[0].rto_episodes >= 1, "no RTO episodes recorded");
        assert!(r.flows[0].rto_max_backoff >= 2, "backoff never deepened");
        // Determinism holds under faults on the serial path too.
        let again = run(&sc);
        assert_eq!(
            r.flows[0].vars.data_bytes_out,
            again.flows[0].vars.data_bytes_out
        );
        assert_eq!(r.flows[0].rto_episodes, again.flows[0].rto_episodes);
    }

    #[test]
    fn unbuildable_scenarios_are_errors_under_either_driver() {
        // rtt = 3 x access_delay leaves the haul link no delay, hence the
        // windowed driver no lookahead.
        let mut sc = tiny(CcAlgorithm::Reno)
            .with_access_delay(SimDuration::from_millis(1))
            .with_rtt(SimDuration::from_millis(3))
            .with_shards(2);
        let err = try_run(&sc).expect_err("no lookahead");
        assert!(
            err.to_string()
                .starts_with("path.access_delay: sharded runs need 0 < 4 x access_delay < rtt"),
            "{err}"
        );
        // One engine waits for nobody: the same geometry runs.
        sc.shards = None;
        try_run(&sc).expect("one-engine run");

        // A registry rejection reads the same whichever driver builds the
        // flow's world.
        let mut sc = tiny(CcAlgorithm::Reno);
        sc.flows.push(crate::FlowSpec::bulk(CcAlgorithm::Scalable(
            crate::ScalableConfig { ai_cnt: 0 },
        )));
        let plain = try_run(&sc).expect_err("ai_cnt 0").to_string();
        assert_eq!(plain, "flows[1]: ai_cnt must be at least 1, got 0");
        let windowed = try_run(&sc.with_shards(2)).expect_err("ai_cnt 0");
        assert_eq!(windowed.to_string(), plain);
    }

    #[test]
    fn a_shard_panic_is_a_run_error_that_names_the_shard() {
        // What `run_windowed`'s `?` makes of the executor's verdict.
        let err = RunError::from(ShardError {
            shard: 1,
            message: "boom".into(),
        });
        assert_eq!(
            err.to_string(),
            "sharded run failed: shard 1 panicked: boom"
        );
        // A rejected value keeps its bare, path-qualified text.
        let mut sc = tiny(CcAlgorithm::Reno);
        sc.sample_interval = SimDuration::ZERO;
        let err = try_run(&sc).expect_err("zero sample interval");
        assert_eq!(
            err.to_string(),
            "sample_interval must be positive (at least 1 ns), got 0"
        );
    }

    #[test]
    fn serial_event_budget_reports_truncation() {
        let mut sc = tiny(CcAlgorithm::Reno);
        sc.max_events = Some(2_000);
        let r = run(&sc);
        let reason = r.truncated.as_deref().expect("budget truncation reported");
        assert!(reason.contains("event budget 2000 exhausted"), "{reason}");
        assert_eq!(r.events_processed, 2_000);
    }

    /// The reports of a batch every run of which succeeds.
    fn reports(cells: Vec<BatchCell>) -> Vec<RunReport> {
        cells
            .into_iter()
            .map(|(r, _)| r.expect("scenario runs"))
            .collect()
    }

    #[test]
    fn memoized_runner_executes_distinct_configs_once() {
        let base = tiny(CcAlgorithm::Reno).with_duration(SimDuration::from_millis(400));
        let other = base.clone().with_seed(7);
        // Three cells, two distinct configs: the duplicate shares one run.
        let cells = vec![base.clone(), other.clone(), base.clone()];
        let (timed, unique) = run_many(&cells);
        let reports = reports(timed);
        assert_eq!(unique, 2, "duplicate cell must not re-run");
        assert_eq!(reports.len(), 3);
        assert_eq!(
            reports[0].flows[0].vars.data_bytes_out,
            reports[2].flows[0].vars.data_bytes_out
        );
        assert_eq!(reports[0].seed, base.seed);
        assert_eq!(reports[1].seed, 7);
        // And the memoized batch matches the plain runner bit-for-bit.
        for (a, sc) in reports.iter().zip(&cells) {
            let b = run(sc);
            assert_eq!(
                a.flows[0].vars.data_bytes_out,
                b.flows[0].vars.data_bytes_out
            );
            assert_eq!(a.events_processed, b.events_processed);
        }
    }

    #[test]
    fn run_many_matches_run() {
        let scs = vec![
            tiny(CcAlgorithm::Reno),
            tiny(CcAlgorithm::Reno).with_seed(2),
        ];
        let batch = reports(run_many(&scs).0);
        let solo: Vec<_> = scs.iter().map(run).collect();
        for (b, s) in batch.iter().zip(&solo) {
            assert_eq!(
                b.flows[0].vars.data_bytes_out,
                s.flows[0].vars.data_bytes_out
            );
        }
    }

    #[test]
    fn run_many_returns_each_cell_outcome_in_order() {
        let good = tiny(CcAlgorithm::Reno).with_duration(SimDuration::from_millis(300));
        let mut bad = good.clone();
        bad.path.rate_bps = 0;
        let (cells, unique) = run_many(&[good.clone(), bad.clone(), good.with_seed(2), bad]);
        let verdicts: Vec<bool> = cells.iter().map(|(r, _)| r.is_ok()).collect();
        assert_eq!(verdicts, [true, false, true, false]);
        // The two bad cells are one configuration, and share one error.
        assert_eq!(unique, 3);
        let err = cells[1].0.as_ref().expect_err("zero rate");
        assert_eq!(err.to_string(), "path.rate_bps must be positive");
        assert_eq!(cells[3].0.as_ref().expect_err("zero rate"), err);
        assert_eq!(cells[2].0.as_ref().expect("runs").seed, 2);
    }

    #[test]
    fn shards_with_an_event_budget_are_rejected_not_ignored() {
        // The windowed driver has no event budget: run anyway, the watchdog
        // would be silently off.
        let mut sc = tiny(CcAlgorithm::Reno).with_shards(2);
        sc.max_events = Some(2_000);
        let err = try_run(&sc).expect_err("budget under shards");
        assert_eq!(
            err.to_string(),
            "max_events: not supported with shards; use max_sim_time"
        );
        // Without `shards` the budget cuts the run.
        sc.shards = None;
        let r = try_run(&sc).expect("one-engine run");
        assert_eq!(r.events_processed, 2_000);
        assert!(r.truncated.is_some());
    }

    #[test]
    fn zero_link_rates_are_build_errors_under_either_driver() {
        for knob in ["path.rate_bps", "path.access_rate_bps", "host.nic_rate_bps"] {
            for shards in [None, Some(2)] {
                let mut sc = tiny(CcAlgorithm::Reno);
                sc.shards = shards;
                match knob {
                    "path.rate_bps" => sc.path.rate_bps = 0,
                    "path.access_rate_bps" => sc.path.access_rate_bps = Some(0),
                    _ => sc.host.nic_rate_bps = 0,
                }
                let err = try_run(&sc).expect_err(knob);
                assert_eq!(err.to_string(), format!("{knob} must be positive"));
            }
        }
    }

    #[test]
    fn unrunnable_knobs_are_build_errors_under_either_driver() {
        use crate::{CrossSpec, QueueDiscipline, RedParams};
        use rss_net::{GilbertElliott, ImpairmentConfig, TrafficPattern};
        fn cbr(rate_bps: u64, pkt_size: u32) -> CrossSpec {
            CrossSpec {
                pattern: TrafficPattern::Cbr { rate_bps, pkt_size },
                start: SimTime::ZERO,
                stop: None,
            }
        }
        fn red(min_th: f64, max_th: f64, wq: f64) -> QueueDiscipline {
            QueueDiscipline::Red(RedParams {
                min_th,
                max_th,
                wq,
                ..RedParams::for_capacity(100)
            })
        }
        type Set = fn(&mut Scenario);
        let cases: [(Set, &str); 22] = [
            (
                |sc| sc.path.loss_prob = f64::NAN,
                "path.loss_prob must be in [0, 1], got NaN",
            ),
            (
                |sc| sc.path.loss_prob = 1.5,
                "path.loss_prob must be in [0, 1], got 1.5",
            ),
            (
                |sc| sc.host.txqueuelen = 0,
                "host.txqueuelen must be positive",
            ),
            (
                |sc| sc.tcp.rwnd = 0,
                "tcp.rwnd: the receive window (0 bytes) must hold one tcp.mss (1448 bytes)",
            ),
            // Each of these panicked in `try_run`...
            (
                |sc| sc.tcp.header_bytes = u32::MAX,
                "tcp.header_bytes: tcp.mss + tcp.header_bytes must fit the u32 wire size, \
                 got 1448 + 4294967295",
            ),
            (
                |sc| sc.queue = red(50.0, 10.0, 0.002),
                "queue.Red.min_th must be below queue.Red.max_th, got 50 >= 10",
            ),
            (
                |sc| sc.queue = red(5.0, 10.0, f64::NAN),
                "queue.Red.wq must be in (0, 1], got NaN",
            ),
            (
                |sc| sc.cross = vec![cbr(0, 1000)],
                "cross[0].pattern.Cbr.rate_bps must be at least 1 bit/s, got 0",
            ),
            // ...each of these ran until an event budget stopped it...
            (
                |sc| sc.tcp.max_rto = SimDuration::from_millis(100),
                "tcp.max_rto must be at least tcp.min_rto (200 ms), got 100 ms",
            ),
            (
                |sc| sc.cross = vec![cbr(1_000_000, 0)],
                "cross[0].pattern.Cbr.pkt_size must be at least 1 byte, got 0",
            ),
            (
                |sc| sc.flows[0].start = SimTime::MAX,
                "flows[0].start must be under 2^62 ns (about 146 years), \
                 got 18446744073709.55 ms",
            ),
            (
                |sc| sc.sample_interval = SimDuration::from_nanos(1),
                "sample_interval: a 1.5 s horizon over 0.000001 ms is 1500000000 samples per \
                 series, past the 1048576 (2^20) a run may take",
            ),
            // ...this one acked nothing...
            (
                |sc| {
                    sc.haul_impairment = Some(ImpairmentConfig {
                        burst_loss: Some(GilbertElliott {
                            p_good_to_bad: 2.0,
                            p_bad_to_good: 0.5,
                            loss_good: 0.0,
                            loss_bad: 0.5,
                        }),
                        ..Default::default()
                    })
                },
                "haul_impairment.burst_loss.p_good_to_bad must be in [0, 1], got 2",
            ),
            (
                |sc| sc.path.router_queue_pkts = 0,
                "path.router_queue_pkts must be positive",
            ),
            // ...and these are the rules a scenario file has always had.
            (
                |sc| sc.tcp.min_rto = SimDuration::ZERO,
                "tcp.min_rto must be at least 1 ms, got 0 ms",
            ),
            (
                |sc| sc.tcp.dupack_threshold = 0,
                "tcp.dupack_threshold must be at least 1",
            ),
            (
                |sc| sc.tcp.stall_retry = SimDuration::ZERO,
                "tcp.stall_retry must be positive (at least 1 ns), got 0",
            ),
            (|sc| sc.host.mtu = 0, "host.mtu must be positive"),
            (|sc| sc.web100_stride = 0, "web100_stride must be positive"),
            (
                |sc| {
                    sc.access_impairment = Some(ImpairmentConfig {
                        duplicate_prob: f64::NAN,
                        ..Default::default()
                    })
                },
                "access_impairment.duplicate_prob must be in [0, 1], got NaN",
            ),
            (|sc| sc.max_events = Some(0), "max_events must be positive"),
            (
                |sc| sc.tcp.max_rto = SimDuration::MAX,
                "tcp.max_rto must be under 2^62 ns (about 146 years), \
                 got 18446744073709.55 ms",
            ),
        ];
        for (set, want) in cases {
            for shards in [None, Some(2)] {
                let mut sc = tiny(CcAlgorithm::Reno);
                sc.shards = shards;
                set(&mut sc);
                let err = try_run(&sc).expect_err(want);
                assert_eq!(err.to_string(), want, "shards {shards:?}");
            }
        }
    }
}
