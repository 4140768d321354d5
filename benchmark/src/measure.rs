//! One workload, measured in this process: set-up, the closed measuring
//! loop, the output checks, and the metric values.
//!
//! Closed loop, one client: the next pipeline iteration starts when the
//! previous one returned. An untraced run yields the end-to-end metrics; a
//! traced run interleaves traced and untraced iterations (their difference
//! is the tracing overhead), runs every micro-drive, and yields the
//! per-layer metrics. Every time is scaled to the reference host speed
//! (see [`crate::speed`]): the reference kernel runs between iterations.

use crate::api::{self, Counts, Iteration};
use crate::gen::{Executor, Family, Workload};
use crate::report::{self, ack_pump_metric, Metric, END_TO_END};
use crate::speed::{HostSpeed, Sampler};
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Measured iterations a run makes however short `--seconds` is.
const MIN_ITERATIONS: usize = 6;
/// `--quick`: one set-up, this many iterations, no time target.
const QUICK_ITERATIONS: usize = 3;
/// Timed samples per micro-drive; the median is reported.
const MICRO_SAMPLES: usize = 5;
/// Share of each traced `pipeline` span its child spans must cover.
const MIN_SPAN_COVERAGE: f64 = 0.95;

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of the spec generator.
    pub seed: u64,
    /// Length of the measuring loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// Smoke mode: every check and every name, numbers not for comparison.
    pub quick: bool,
}

/// What a run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Runs attempted, set-up included.
    pub attempted: u64,
    /// Runs that failed.
    pub failed: u64,
    /// The metrics of this mode, in table order.
    pub metrics: Vec<Metric>,
    /// Facts recorded beside the numbers: iterations, events, digest, ...
    pub facts: Vec<(&'static str, String)>,
    /// What went wrong, if anything.
    pub problems: Vec<String>,
    /// The recorded spans (traced runs).
    pub tracer: Tracer,
}

/// Counts attempted and failed runs and holds every iteration of a workload
/// to the first one's events, digest and goodput.
struct Checker {
    paper_shape: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    reference: Option<Iteration>,
    /// `VmHWM` right after the process's first pipeline pass.
    first_pass_rss_mb: Option<f64>,
}

impl Checker {
    fn problem(&mut self, text: String) {
        self.problems.push(text);
    }

    fn fail(&mut self, runs: u64, why: String) {
        self.failed = (self.failed + runs).min(self.attempted);
        self.problem(why);
    }

    /// Account for one iteration and check it. `None` when it produced no
    /// outputs.
    fn admit(&mut self, phase: &str, result: Result<Iteration, String>) -> Option<Iteration> {
        let it = match result {
            Ok(it) => it,
            Err(why) => {
                let runs = self.reference.as_ref().map_or(1, |r| r.runs.len() as u64);
                self.attempted += runs;
                self.fail(runs, format!("{phase}: {why}"));
                return None;
            }
        };
        self.attempted += it.runs.len() as u64;
        for run in &it.runs {
            if let Some(why) = &run.failure {
                self.fail(1, format!("{phase}: run `{}`: {why}", run.label));
            }
        }
        if self.paper_shape {
            let by_label = |label: &str| it.runs.iter().find(|r| r.label == label);
            match (by_label("standard"), by_label("restricted")) {
                (Some(std), Some(rss)) => {
                    if rss.send_stalls != 0 || rss.goodput_mbps() <= std.goodput_mbps() {
                        self.fail(
                            1,
                            format!(
                                "{phase}: Figure 1 shape lost: restricted {} stalls, {:.3} vs standard {:.3} Mbit/s",
                                rss.send_stalls,
                                rss.goodput_mbps(),
                                std.goodput_mbps()
                            ),
                        );
                    }
                }
                _ => self.fail(1, format!("{phase}: standard/restricted runs missing")),
            }
        }
        match &self.reference {
            None => self.reference = Some(it.clone()),
            Some(first) => {
                if (first.counts.events, first.digest) != (it.counts.events, it.digest) {
                    self.fail(
                        1,
                        format!(
                            "{phase}: not deterministic: events {} digest {:016x}, first iteration {} {:016x}",
                            it.counts.events, it.digest, first.counts.events, first.digest
                        ),
                    );
                }
            }
        }
        Some(it)
    }
}

/// One set-up: generate the inputs, take them through the whole pipeline
/// once with every check (the warm-up), and — for a workload on more than
/// one domain — confirm the digest equals the one-domain digest.
fn set_up(w: &Workload, seed: u64, checker: &mut Checker) -> String {
    let text = w.spec_text(seed);
    let warm = checker.admit("set-up", api::pipeline(&text, &mut Tracer::new(false)));
    // The process has now made exactly one pipeline pass: its high-water
    // mark is what one `rss run` of this spec costs in memory.
    checker
        .first_pass_rss_mb
        .get_or_insert_with(report::peak_rss_mb);
    if let (Executor::Domains(n), Some(warm)) = (w.executor, warm) {
        if n > 1 {
            let one = w.spec_text_on(seed, Executor::Domains(1));
            match api::pipeline(&one, &mut Tracer::new(false)) {
                Ok(it) if it.digest == warm.digest => {}
                Ok(it) => checker.fail(
                    1,
                    format!(
                        "set-up: digest at {n} domains {:016x} differs from 1 domain {:016x}",
                        warm.digest, it.digest
                    ),
                ),
                Err(why) => checker.fail(1, format!("set-up at 1 domain: {why}")),
            }
        }
    }
    text
}

/// A measured iteration with the factor that scales its host times to the
/// reference host speed.
struct Timed {
    it: Iteration,
    factor: f64,
}

impl Timed {
    fn wall_s(&self) -> f64 {
        self.it.wall_s * self.factor
    }
}

fn goodput_mbps(it: &Iteration) -> f64 {
    let bytes: u64 = it.runs.iter().map(|r| r.delivered_bytes).sum();
    let seconds: f64 = it.runs.iter().map(|r| r.sim_seconds).sum();
    bytes as f64 * 8.0 / seconds / 1e6
}

/// `median (n samples; pNN value)` for a timing metric.
fn timing_note(samples: &[f64]) -> String {
    match tail_percentile(samples) {
        Some((pct, value)) => format!("median of {}; p{pct} {value:.6}", samples.len()),
        None => format!("median of {}; too few for a tail percentile", samples.len()),
    }
}

/// Run `w` and return its metrics. `started` is when the process began.
pub fn run(w: &Workload, opt: Options, started: Instant) -> Outcome {
    let mut checker = Checker {
        paper_shape: w.family == Family::Paper,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        reference: None,
        first_pass_rss_mb: None,
    };

    // The reference kernel's 16 MiB table is allocated after the first
    // set-up, so that the first pass's high-water mark is the program's
    // alone; that set-up is scaled by the kernel times after it only.
    let mut speed = None;
    let mut setups = Vec::new();
    let mut text = String::new();
    for _ in 0..if opt.quick { 1 } else { SETUP_REPS } {
        let t0 = Instant::now();
        text = set_up(w, opt.seed, &mut checker);
        let elapsed = t0.elapsed().as_secs_f64();
        setups.push(elapsed * speed.get_or_insert_with(HostSpeed::start).factor());
    }
    let mut speed = speed.expect("at least one set-up");
    let startup_s = started.elapsed().as_secs_f64();

    // The measuring loop. A traced run alternates untraced and traced
    // iterations so both see the same machine state.
    let mut tracer = Tracer::new(false);
    let mut untraced: Vec<Timed> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(opt.seconds);
    let floor = if opt.quick {
        QUICK_ITERATIONS
    } else {
        MIN_ITERATIONS
    };
    let mut n = 0;
    while n < floor || (!opt.quick && Instant::now() < deadline) {
        let trace_this = opt.traced && n % 2 == 1;
        tracer.set_enabled(trace_this);
        tracer.next_iteration();
        let result = api::pipeline(&text, &mut tracer);
        if let Some(it) = checker.admit("measure", result) {
            if trace_this {
                if let Err(why) = api::world_build(&text, &mut tracer) {
                    checker.fail(1, format!("world build: {why}"));
                }
            }
            let timed = Timed {
                factor: speed.factor(),
                it,
            };
            if trace_this {
                &mut traced
            } else {
                &mut untraced
            }
            .push(timed);
        }
        n += 1;
    }

    let mut facts = vec![
        ("seed", opt.seed.to_string()),
        ("iterations", n.to_string()),
        ("startup_s", format!("{startup_s:.3}")),
        ("spec_bytes", text.len().to_string()),
    ];
    if opt.quick {
        facts.push(("quick", "not for comparison".into()));
    }
    if let Some(first) = &checker.reference {
        facts.push(("sim.events", first.counts.events.to_string()));
        facts.push(("core.results_digest", format!("{:016x}", first.digest)));
        facts.push(("goodput_mbps", format!("{}", goodput_mbps(first))));
        facts.push(("output_bytes", first.output_bytes.to_string()));
    }

    let metrics = match (checker.reference.clone(), untraced.is_empty()) {
        (Some(first), false) if !opt.traced => {
            let rss_mb = checker.first_pass_rss_mb.unwrap_or(f64::NAN);
            end_to_end(&first, &untraced, &setups, rss_mb)
        }
        (Some(first), false) if !traced.is_empty() => {
            let micro_samples = if opt.quick { 1 } else { MICRO_SAMPLES };
            let (values, layer_facts) = per_layer(
                w,
                &first,
                &tracer,
                &untraced,
                &traced,
                micro_samples,
                &mut checker,
            );
            facts.extend(layer_facts);
            report::fill(&report::per_layer(), values)
        }
        _ => {
            checker.problem("no iteration completed; no metrics".into());
            Vec::new()
        }
    };
    for m in &metrics {
        if !m.value.is_finite() {
            checker.problem(format!("metric `{}` is not a finite number", m.name));
        }
    }
    Outcome {
        correct: checker.failed == 0 && checker.problems.is_empty(),
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        facts,
        problems: checker.problems,
        tracer,
    }
}

fn end_to_end(
    first: &Iteration,
    iterations: &[Timed],
    setups: &[f64],
    first_pass_rss_mb: f64,
) -> Vec<Metric> {
    let walls: Vec<f64> = iterations.iter().map(Timed::wall_s).collect();
    let rates: Vec<f64> = iterations
        .iter()
        .map(|t| t.it.counts.events as f64 / (t.it.run_s * t.factor))
        .collect();
    let mut values = BTreeMap::new();
    values.insert("wall_s".to_string(), (median(&walls), timing_note(&walls)));
    values.insert(
        "events_per_s".to_string(),
        (
            median(&rates),
            format!("median of {}; events ÷ time inside run()", rates.len()),
        ),
    );
    values.insert(
        "setup_s".to_string(),
        (
            median(setups),
            format!(
                "median of {} set-ups: generate, parse, expand, warm-up, checks",
                setups.len()
            ),
        ),
    );
    values.insert(
        "peak_rss_mb".to_string(),
        (
            first_pass_rss_mb,
            "VmHWM after the process's first pipeline pass".to_string(),
        ),
    );
    values.insert(
        "goodput_mbps".to_string(),
        (
            goodput_mbps(first),
            "simulated; exact for a seed".to_string(),
        ),
    );
    report::fill(&END_TO_END, values)
}

/// Every micro-drive, by metric name, each the median of `samples` samples.
fn micro_drives(samples: usize) -> BTreeMap<String, f64> {
    let s = &mut Sampler::new(samples);
    let mut m = BTreeMap::new();
    let mut put = |name: &str, ns: f64| {
        m.insert(name.to_string(), ns);
    };
    put(
        "sim.queue.hold_sparse_ns",
        api::micro_queue_hold(s, 64, 2, 0.0),
    );
    put(
        "sim.queue.hold_dense_ns",
        api::micro_queue_hold(s, 32_768, 30, 0.05),
    );
    put("sim.queue.cancel_ns", api::micro_queue_cancel(s));
    put("sim.engine.dispatch_ns", api::micro_engine_dispatch(s));
    put("sim.shard.window_1d_ns", api::micro_shard_window_1d(s));
    let (window_2d, envelope) = api::micro_shard_window_2d(s);
    put("sim.shard.window_2d_ns", window_2d);
    put("sim.shard.envelope_ns", envelope);
    put("net.fabric.hop_ns", api::micro_fabric_hop(s));
    put("net.arena.insert_take_ns", api::micro_arena(s));
    put("net.droptail.enq_deq_ns", api::micro_droptail(s));
    put("net.red.enq_deq_ns", api::micro_red(s));
    put("net.impair.decide_ns", api::micro_impair(s));
    put("host.nic.tx_cycle_ns", api::micro_nic(s));
    for (name, algo) in api::cc_variants() {
        put(&ack_pump_metric(name), api::micro_ack_pump(s, algo));
    }
    put("tcp.recovery_ns", api::micro_recovery(s));
    put("tcp.receiver.segment_ns", api::micro_receiver(s, false));
    put("tcp.receiver.ooo_segment_ns", api::micro_receiver(s, true));
    put("control.pid.update_ns", api::micro_pid(s));
    m
}

/// Host seconds per iteration that the micro-costs account for, by layer:
/// count × median cost of the crate's hot operation.
struct Attribution {
    sim_s: f64,
    shard_s: f64,
    net_s: f64,
    host_s: f64,
    tcp_cc_s: f64,
}

fn attribute(w: &Workload, c: &Counts, ns: &BTreeMap<String, f64>) -> Attribution {
    let cost = |name: &str| ns[name] * 1e-9;
    let sparse = w.family == Family::Paper;
    let hold = cost(if sparse {
        "sim.queue.hold_sparse_ns"
    } else {
        "sim.queue.hold_dense_ns"
    });
    // The dispatch drive holds one pending event, so what it costs beyond a
    // sparse hold is the engine loop's own share of an event.
    let engine = (cost("sim.engine.dispatch_ns") - cost("sim.queue.hold_sparse_ns")).max(0.0);
    let sim_s =
        c.events as f64 * (hold + engine) + c.cancelled as f64 * cost("sim.queue.cancel_ns");
    let packets = (c.segs_out + c.acks_in) as f64;
    let (shard_s, net_s) = match w.executor {
        Executor::Serial => {
            // Three link hops per packet across the dumbbell; RED and the
            // impairment layer sit on the bottleneck hop where configured.
            let mut net = packets * 3.0 * cost("net.fabric.hop_ns");
            if c.ecn_marks + c.red_early_drops + c.red_forced_drops > 0 {
                net += packets
                    * (cost("net.red.enq_deq_ns") - cost("net.droptail.enq_deq_ns")).max(0.0)
                    + packets * cost("net.impair.decide_ns");
            }
            (0.0, net)
        }
        // The sharded world forwards through its own ports, not the fabric.
        Executor::Domains(1) => (c.shard_windows as f64 * cost("sim.shard.window_1d_ns"), 0.0),
        Executor::Domains(_) => (c.shard_windows as f64 * cost("sim.shard.window_2d_ns"), 0.0),
    };
    let host_s = packets * cost("host.nic.tx_cycle_ns");
    let mut tcp_cc_s = c.segs_out as f64 * cost("tcp.receiver.segment_ns")
        + c.ooo_segments as f64
            * (cost("tcp.receiver.ooo_segment_ns") - cost("tcp.receiver.segment_ns")).max(0.0)
        + c.fast_retrans as f64 * cost("tcp.recovery_ns");
    for (variant, segs) in &c.segs_by_variant {
        tcp_cc_s += *segs as f64 * cost(&ack_pump_metric(variant));
    }
    Attribution {
        sim_s,
        shard_s,
        net_s,
        host_s,
        tcp_cc_s,
    }
}

type Values = BTreeMap<String, (f64, String)>;

fn per_layer(
    w: &Workload,
    first: &Iteration,
    tracer: &Tracer,
    untraced: &[Timed],
    traced: &[Timed],
    micro_samples: usize,
    checker: &mut Checker,
) -> (Values, Vec<(&'static str, String)>) {
    let c = &first.counts;
    let mut values: Values = BTreeMap::new();
    let mut facts = Vec::new();

    let ns = micro_drives(micro_samples);
    for (name, &cost) in &ns {
        values.insert(
            name.clone(),
            (
                cost,
                format!("median of {micro_samples} micro-drive samples"),
            ),
        );
    }

    let runs = c.runs.max(1) as f64;
    let pct = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            100.0 * part as f64 / whole as f64
        }
    };
    let restricted_gain = {
        let by_label = |label: &str| {
            first
                .runs
                .iter()
                .find(|r| r.label == label)
                .map(|r| r.goodput_mbps())
        };
        match (by_label("standard"), by_label("restricted")) {
            (Some(std), Some(rss)) if std > 0.0 => 100.0 * (rss - std) / std,
            _ => 0.0,
        }
    };
    let serial_only = if w.executor == Executor::Serial {
        "RunReport.engine, summed over the iteration's runs"
    } else {
        "0: RunReport.engine is serial-only"
    };
    let exact = "RunReport, summed over the iteration's runs";
    let counts: [(&str, f64, &str); 22] = [
        ("sim.events", c.events as f64, exact),
        ("sim.queue.scheduled", c.scheduled as f64, serial_only),
        ("sim.queue.cancelled", c.cancelled as f64, serial_only),
        (
            "sim.queue.wheel_hit_pct",
            pct(c.placed_wheel, c.scheduled),
            serial_only,
        ),
        (
            "sim.queue.far_migrations",
            c.far_migrations as f64,
            serial_only,
        ),
        (
            "sim.shard.windows",
            c.shard_windows as f64,
            "computed: horizon ÷ min(access delay, haul delay); 0 on the serial world",
        ),
        ("net.router_drops", c.router_drops as f64, exact),
        ("net.red_early_drops", c.red_early_drops as f64, exact),
        ("net.red_forced_drops", c.red_forced_drops as f64, exact),
        ("net.ecn_marks", c.ecn_marks as f64, exact),
        (
            "net.bottleneck_queue_mean_pkts",
            c.bottleneck_queue_mean_sum / runs,
            "mean of the sampled forward queue depth, averaged over runs",
        ),
        ("host.send_stalls", c.send_stalls as f64, exact),
        (
            "host.nic_utilization_pct",
            100.0 * c.nic_utilization_sum / runs,
            "first sender's NIC, averaged over runs",
        ),
        ("tcp.segs_out", c.segs_out as f64, exact),
        ("tcp.acks_in", c.acks_in as f64, exact),
        ("tcp.dup_acks_in", c.dup_acks_in as f64, exact),
        ("tcp.retrans_segs", c.retrans_segs as f64, exact),
        ("tcp.fast_retrans", c.fast_retrans as f64, exact),
        ("tcp.timeouts", c.timeouts as f64, exact),
        ("tcp.ecn_echoes", c.ecn_echoes as f64, exact),
        (
            "tcp.useful_seg_pct",
            pct(c.segs_out - c.retrans_segs.min(c.segs_out), c.segs_out),
            "segments sent that were not retransmissions",
        ),
        (
            "cc.restricted_gain_pct",
            restricted_gain,
            "restricted over standard goodput; 0 where the workload has no such pair",
        ),
    ];
    for (name, value, note) in counts {
        values.insert(name.to_string(), (value, note.to_string()));
    }

    // Span self times, median over the traced iterations.
    let spans: [(&str, &str); 8] = [
        ("core.spec.parse_s", "core.spec.parse"),
        ("core.spec.expand_s", "core.spec.expand"),
        ("core.run_s", "core.run"),
        ("core.report.results_csv_s", "core.report.results_csv"),
        ("core.report.fairness_s", "core.report.fairness"),
        ("core.report.to_json_s", "core.report.to_json"),
        ("core.pipeline_self_s", "pipeline"),
        ("core.world_build_s", "core.world_build"),
    ];
    // One sample per traced iteration, in order: scale each by the factor
    // of its iteration.
    let scaled = |seconds: Vec<f64>| -> Vec<f64> {
        seconds
            .iter()
            .zip(traced)
            .map(|(s, t)| s * t.factor)
            .collect()
    };
    for (metric, span) in spans {
        let samples = scaled(tracer.self_seconds(span));
        let note = format!("span self time; {}", timing_note(&samples));
        values.insert(metric.to_string(), (median(&samples), note));
    }
    let totals = tracer.total_seconds("pipeline");
    let selfs = tracer.self_seconds("pipeline");
    let coverage = totals
        .iter()
        .zip(&selfs)
        .map(|(total, own)| 1.0 - own / total)
        .fold(f64::INFINITY, f64::min);
    facts.push(("span_coverage_pct", format!("{:.3}", coverage * 100.0)));
    if coverage < MIN_SPAN_COVERAGE {
        checker.problem(format!(
            "child spans cover {:.1} % of a pipeline span, below {:.0} %",
            coverage * 100.0,
            MIN_SPAN_COVERAGE * 100.0
        ));
    }

    let run_s = values["core.run_s"].0;
    let a = attribute(w, c, &ns);
    let share = |seconds: f64| 100.0 * seconds / run_s;
    let note = "count × micro-cost ÷ core.run_s";
    let parts = [
        ("attr.sim_pct", a.sim_s),
        ("attr.shard_pct", a.shard_s),
        ("attr.net_pct", a.net_s),
        ("attr.host_pct", a.host_s),
        ("attr.tcp_cc_pct", a.tcp_cc_s),
    ];
    for (name, seconds) in parts {
        values.insert(name.to_string(), (share(seconds), note.to_string()));
    }
    let explained: f64 = parts.iter().map(|&(_, s)| s).sum();
    values.insert(
        "attr.glue_pct".to_string(),
        (
            100.0 - share(explained),
            "the remainder: World/shard event handlers, not isolable from outside".to_string(),
        ),
    );
    if c.shard_windows > 0 {
        facts.push((
            "windows_x_window_ns_vs_run_s",
            format!("{:.4} s of {:.4} s", a.shard_s, run_s),
        ));
    }

    let wall = |its: &[Timed]| median(&its.iter().map(Timed::wall_s).collect::<Vec<_>>());
    let (plain, with_spans) = (wall(untraced), wall(traced));
    values.insert(
        "bench.trace_overhead_pct".to_string(),
        (
            100.0 * (with_spans - plain) / plain,
            format!(
                "traced {with_spans:.6} s vs untraced {plain:.6} s wall, {} + {} interleaved iterations",
                traced.len(),
                untraced.len()
            ),
        ),
    );
    (values, facts)
}
