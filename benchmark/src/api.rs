//! The adapter: every reference to an item of the repo's crates lives here,
//! so a later signature change is a one-file benchmark fix.
//!
//! Two halves. [`pipeline`] drives the public scenario→report path exactly
//! as the `rss` CLI does, but sequentially and from spec *text*. The
//! `micro_*` functions drive one crate's public hot operation each, sized
//! like the workload their metric is meant to explain.

use crate::gen::fnv1a64;
use crate::speed::Sampler;
use crate::trace::Tracer;
use rss_cc::{RssConfig, ScalableConfig, SslConfig};
use rss_control::{PidConfig, PidController};
use rss_core::world::World;
use rss_core::{
    fairness_csv, fairness_reports, results_csv, run, ExpandedRun, RunReport, ScenarioSpec,
    WireBody,
};
use rss_host::{HostConfig, HostNic};
use rss_net::{
    dumbbell, DropTailQueue, Ecn, Fabric, FlowId, GilbertElliott, Impairment, ImpairmentConfig,
    Jitter, LinkParams, NetEvent, NodeId, Packet, PacketArena, PacketRef, QueueConfig, RawBody,
    RedConfig, RedQueue,
};
use rss_sim::{
    run_sharded, Domain, Engine, Envelope, EventQueue, Model, Scheduler, SimDuration, SimRng,
    SimTime,
};
use rss_tcp::{
    make_cc, CcAlgorithm, ConnId, IfqSnapshot, SegKind, TcpConfig, TcpReceiver, TcpSegment,
    TcpSender,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

// ---------------------------------------------------------------------------
// The scenario→report pipeline
// ---------------------------------------------------------------------------

/// Exact counts of one pipeline iteration, summed over its runs and read
/// from the `RunReport`s. Identical on every iteration of a seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Events dispatched (`sim.events`).
    pub events: u64,
    /// Events scheduled; serial runs only (`sim.queue.scheduled`).
    pub scheduled: u64,
    /// Events cancelled before firing; serial runs only.
    pub cancelled: u64,
    /// Events placed straight into the calendar wheel; serial runs only.
    pub placed_wheel: u64,
    /// Far-heap → wheel migrations; serial runs only.
    pub far_migrations: u64,
    /// Lookahead windows of the sharded runs, computed from
    /// horizon ÷ min(access delay, haul delay).
    pub shard_windows: u64,
    /// Router queue drops.
    pub router_drops: u64,
    /// RED early drops.
    pub red_early_drops: u64,
    /// RED forced drops.
    pub red_forced_drops: u64,
    /// CE marks.
    pub ecn_marks: u64,
    /// Sum over runs of the mean sampled bottleneck queue depth, packets.
    pub bottleneck_queue_mean_sum: f64,
    /// Send-stalls over all flows.
    pub send_stalls: u64,
    /// Sum over runs of the first sender's NIC utilization.
    pub nic_utilization_sum: f64,
    /// Data segments sent.
    pub segs_out: u64,
    /// ACKs received.
    pub acks_in: u64,
    /// Duplicate ACKs received.
    pub dup_acks_in: u64,
    /// Segments retransmitted.
    pub retrans_segs: u64,
    /// Fast retransmits.
    pub fast_retrans: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// ECN echoes acted on.
    pub ecn_echoes: u64,
    /// Segments the receivers buffered out of order.
    pub ooo_segments: u64,
    /// Data segments sent by flows of each registry variant, by label.
    pub segs_by_variant: Vec<(String, u64)>,
    /// Runs in the iteration.
    pub runs: u64,
}

/// What one expanded run produced, reduced to the facts the checks need.
#[derive(Debug, Clone)]
pub struct RunFacts {
    /// The run's label.
    pub label: String,
    /// Simulated seconds the run covered.
    pub sim_seconds: f64,
    /// Bytes delivered in order to the receiving applications.
    pub delivered_bytes: u64,
    /// Send-stalls over the run's flows.
    pub send_stalls: u64,
    /// Why the run fails, if it does: truncated, or a conservation check.
    pub failure: Option<String>,
}

impl RunFacts {
    /// Receiver-delivered goodput, Mbit/s of simulated time.
    pub fn goodput_mbps(&self) -> f64 {
        self.delivered_bytes as f64 * 8.0 / self.sim_seconds / 1e6
    }
}

/// One pipeline iteration: spec text in, CSV/JSON strings out.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Whole iteration, seconds of host time.
    pub wall_s: f64,
    /// Time inside the `run` calls, seconds of host time.
    pub run_s: f64,
    /// Per-run facts, in expansion order.
    pub runs: Vec<RunFacts>,
    /// Exact counts summed over the runs.
    pub counts: Counts,
    /// FNV-1a 64 of the results CSV followed by the fairness CSV.
    pub digest: u64,
    /// Bytes of CSV and JSON the iteration rendered.
    pub output_bytes: usize,
}

fn run_facts(er: &ExpandedRun, report: &RunReport) -> RunFacts {
    let mut facts = RunFacts {
        label: er.label.clone(),
        sim_seconds: report.duration_s,
        delivered_bytes: report
            .flows
            .iter()
            .map(|f| f.receiver_delivered_bytes)
            .sum(),
        send_stalls: report.total_stalls(),
        failure: None,
    };
    // The first failing check names the run's failure.
    let overdrawn = report.flows.iter().find(|f| {
        let sent = f.vars.data_bytes_out;
        f.receiver_delivered_bytes > sent || f.vars.thru_bytes_acked > sent
    });
    facts.failure = if let Some(why) = &report.truncated {
        Some(format!("truncated: {why}"))
    } else if let Some(f) = overdrawn {
        Some(format!(
            "flow {}: delivered {} / acked {} exceed the {} bytes sent",
            f.conn, f.receiver_delivered_bytes, f.vars.thru_bytes_acked, f.vars.data_bytes_out
        ))
    } else if facts.goodput_mbps() * 1e6 > report.path_rate_bps as f64 {
        Some(format!(
            "aggregate goodput {:.3} Mbit/s exceeds the line rate",
            facts.goodput_mbps()
        ))
    } else {
        None
    };
    facts
}

fn add_counts(c: &mut Counts, er: &ExpandedRun, report: &RunReport) {
    c.runs += 1;
    c.events += report.events_processed;
    if let Some(q) = &report.engine {
        c.scheduled += q.scheduled;
        c.cancelled += q.cancelled;
        c.placed_wheel += q.placed_wheel;
        c.far_migrations += q.far_migrations;
    }
    let sc = &er.scenario;
    if sc.shards.is_some() {
        let access = sc.path.access_delay;
        let haul = (sc.path.rtt / 2).saturating_sub(access * 2);
        let lookahead_ns = access.min(haul).as_nanos().max(1);
        c.shard_windows += sc.duration.as_nanos().div_ceil(lookahead_ns);
    }
    c.router_drops += report.router_queue_drops;
    c.red_early_drops += report.router_red_early_drops;
    c.red_forced_drops += report.router_red_forced_drops;
    c.ecn_marks += report.router_ecn_marks;
    let depth = &report.bottleneck_queue_series;
    if !depth.is_empty() {
        c.bottleneck_queue_mean_sum +=
            depth.iter().map(|&(_, pkts)| pkts).sum::<f64>() / depth.len() as f64;
    }
    c.send_stalls += report.total_stalls();
    c.nic_utilization_sum += report.sender_nic_utilization;
    for f in &report.flows {
        let v = &f.vars;
        c.segs_out += v.pkts_out;
        c.acks_in += v.ack_pkts_in;
        c.dup_acks_in += v.dup_acks_in;
        c.retrans_segs += v.pkts_retrans;
        c.fast_retrans += v.fast_retran;
        c.timeouts += v.timeouts;
        c.ecn_echoes += v.ecn_echoes;
        c.ooo_segments += f.receiver_ooo_segments;
        match c
            .segs_by_variant
            .iter_mut()
            .find(|(name, _)| *name == f.algo)
        {
            Some((_, segs)) => *segs += v.pkts_out,
            None => c.segs_by_variant.push((f.algo.clone(), v.pkts_out)),
        }
    }
}

/// Drive `from_json → validate → expand → run` for every expanded run
/// sequentially `→ results_csv → fairness → to_json`, timing the whole and
/// the `run` calls, with one child span per call under a `pipeline` span.
///
/// `Err` means the iteration produced no outputs at all: a spec the program
/// rejects, or a panic inside a run.
pub fn pipeline(text: &str, tracer: &mut Tracer) -> Result<Iteration, String> {
    let t0 = Instant::now();
    let root = tracer.begin("pipeline");
    let outputs = pipeline_calls(text, tracer);
    tracer.end(root);
    let wall_s = t0.elapsed().as_secs_f64();
    let (runs, reports, run_s, csv, fairness, json_bytes) = outputs?;

    let mut counts = Counts::default();
    let mut facts = Vec::with_capacity(runs.len());
    for (er, report) in runs.iter().zip(&reports) {
        add_counts(&mut counts, er, report);
        facts.push(run_facts(er, report));
    }
    Ok(Iteration {
        wall_s,
        run_s,
        runs: facts,
        counts,
        digest: fnv1a64(csv.bytes().chain(fairness.bytes())),
        output_bytes: csv.len() + fairness.len() + json_bytes,
    })
}

/// What the calls of one iteration returned: expanded runs, their reports,
/// seconds inside `run`, results CSV, fairness CSV, bytes of JSON.
type Outputs = (Vec<ExpandedRun>, Vec<RunReport>, f64, String, String, usize);

/// The calls themselves, one span each.
fn pipeline_calls(text: &str, tracer: &mut Tracer) -> Result<Outputs, String> {
    let spec = tracer
        .span("core.spec.parse", || ScenarioSpec::from_json(text))
        .map_err(|e| format!("parse: {e}"))?;
    let runs = tracer
        .span("core.spec.expand", || {
            spec.validate().and_then(|()| spec.expand())
        })
        .map_err(|e| format!("expand: {e}"))?;

    let mut run_s = 0.0;
    let mut reports = Vec::with_capacity(runs.len());
    for er in &runs {
        let t_run = Instant::now();
        let outcome = tracer.span("core.run", || {
            catch_unwind(AssertUnwindSafe(|| run(&er.scenario)))
        });
        run_s += t_run.elapsed().as_secs_f64();
        reports.push(outcome.map_err(|_| format!("run `{}` panicked", er.label))?);
    }

    let csv = tracer.span("core.report.results_csv", || {
        results_csv(&spec, &runs, &reports)
    });
    let fairness = tracer.span("core.report.fairness", || {
        if spec.fairness.is_some() {
            fairness_csv(&spec, &runs, &fairness_reports(&spec, &reports))
        } else {
            String::new()
        }
    });
    let json_bytes = tracer.span("core.report.to_json", || {
        reports.iter().map(|r| black_box(r.to_json()).len()).sum()
    });
    Ok((runs, reports, run_s, csv, fairness, json_bytes))
}

/// An extra `World::build` + drop per expanded scenario (serial world),
/// under one `core.world_build` span — what set-up of 10k connections costs
/// apart from running them. Traced runs only.
pub fn world_build(text: &str, tracer: &mut Tracer) -> Result<(), String> {
    let spec = ScenarioSpec::from_json(text).map_err(|e| format!("parse: {e}"))?;
    let runs = spec.expand().map_err(|e| format!("expand: {e}"))?;
    tracer
        .span("core.world_build", || {
            runs.iter()
                .try_for_each(|er| World::build(&er.scenario).map(|world| drop(black_box(world))))
        })
        .map_err(|e| format!("build: {e}"))
}

// ---------------------------------------------------------------------------
// Micro-drives: one crate's public hot operation each, median ns/operation
// ---------------------------------------------------------------------------

const MSS: u32 = 1448;
const WIRE_BYTES: u32 = 1500;

/// Event-to-next-event gaps of a TCP run. A simulated network has a handful
/// of fixed delays, so successors land in time order within each class (the
/// calendar wheel appends, as in a run) instead of scattering: half are a
/// packet's serialization (120 µs), a quarter an access hop (500 µs), a
/// quarter a flight of `flight`; `far_share` of all are 200 ms timers that
/// overflow the wheel's ~134 ms horizon.
fn hold_gaps(rng: &mut SimRng, flight: SimDuration, far_share: f64) -> Vec<SimDuration> {
    (0..4096)
        .map(|_| {
            if rng.chance(far_share) {
                SimDuration::from_millis(200)
            } else {
                match rng.next_below(4) {
                    0 | 1 => SimDuration::from_micros(120),
                    2 => SimDuration::from_micros(500),
                    _ => flight,
                }
            }
        })
        .collect()
}

/// `sim.queue.hold_*_ns`: the classic hold model on [`EventQueue`] — pop the
/// earliest event, schedule its successor — at a steady `pending` events
/// whose gaps are [`hold_gaps`]. Pending count and flight together set the
/// event density: 64 pending at 2 ms is about one event per ~16 µs wheel
/// granule, as on the paper testbed; 32 768 at 30 ms is tens per granule,
/// as with 10k flows.
pub fn micro_queue_hold(
    sampler: &mut Sampler,
    pending: usize,
    flight_ms: u64,
    far_share: f64,
) -> f64 {
    let flight = SimDuration::from_millis(flight_ms);
    const OPS: u64 = 400_000;
    sampler.median_ns_per_op(|| {
        let mut rng = SimRng::seed_from_u64(pending as u64);
        let gaps = hold_gaps(&mut rng, flight, far_share);
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..pending {
            q.schedule_at(SimTime::ZERO + gaps[i % gaps.len()], i as u64);
        }
        let hold = |q: &mut EventQueue<u64>, i: u64| {
            let (t, ev) = q.pop().expect("hold model keeps the queue non-empty");
            q.schedule_at(t + gaps[i as usize % gaps.len()], ev);
        };
        // Two generations untimed, so buckets and slab reach steady state.
        for i in 0..pending as u64 * 2 {
            hold(&mut q, i);
        }
        let t0 = Instant::now();
        for i in 0..OPS {
            hold(&mut q, i);
        }
        black_box(q.len());
        (t0.elapsed(), OPS)
    })
}

/// `sim.queue.cancel_ns`: schedule a timer and cancel it, tombstone sweep
/// included — batches of in-wheel timers are cancelled and then swept past
/// by popping a sentinel scheduled behind them.
pub fn micro_queue_cancel(sampler: &mut Sampler) -> f64 {
    const BATCH: u64 = 2048;
    const ROUNDS: u64 = 100;
    sampler.median_ns_per_op(|| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut now = SimTime::ZERO;
        let mut ids = Vec::with_capacity(BATCH as usize);
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            for i in 0..BATCH {
                ids.push(q.schedule_at(now + SimDuration::from_nanos(20_000 + i * 15_000), i));
            }
            for id in ids.drain(..) {
                black_box(q.cancel(id));
            }
            q.schedule_at(now + SimDuration::from_millis(40), 0);
            now = q.pop().expect("sentinel").0;
        }
        (t0.elapsed(), BATCH * ROUNDS)
    })
}

struct NullModel {
    gap: SimDuration,
}

impl Model for NullModel {
    type Event = ();
    fn handle(&mut self, _: (), sched: &mut Scheduler<'_, ()>) {
        sched.after(self.gap, ());
    }
}

/// `sim.engine.dispatch_ns`: [`Engine::run_until`] over a self-rescheduling
/// null model — the dispatch loop with one pending event.
pub fn micro_engine_dispatch(sampler: &mut Sampler) -> f64 {
    const OPS: u64 = 1_000_000;
    sampler.median_ns_per_op(|| {
        let gap = SimDuration::from_micros(16);
        let mut engine = Engine::new(NullModel { gap });
        engine.schedule_at(SimTime::ZERO, ());
        let t0 = Instant::now();
        let stats = engine.run_until(SimTime::ZERO + gap * (OPS - 1));
        (t0.elapsed(), stats.events_processed)
    })
}

/// A domain with no events of its own that sends `per_window` envelopes to
/// unit `peer` each window, due at the next boundary.
struct NullDomain {
    unit: u32,
    peer: u32,
    per_window: u64,
    seq: u64,
    out: Vec<Envelope<u64>>,
    received: u64,
}

impl Domain for NullDomain {
    type Msg = u64;
    fn inject(&mut self, env: Envelope<u64>) {
        self.received += env.msg;
    }
    fn on_boundary(&mut self, _now: SimTime) {}
    fn run_window(&mut self, end: SimTime) -> u64 {
        for _ in 0..self.per_window {
            self.out.push(Envelope {
                time: end,
                src_unit: self.unit,
                seq: self.seq,
                dst_unit: self.peer,
                msg: 1,
            });
            self.seq += 1;
        }
        0
    }
    fn finish(&mut self, _horizon: SimTime) -> u64 {
        0
    }
    fn drain_outgoing(&mut self, into: &mut Vec<Envelope<u64>>) {
        into.append(&mut self.out);
    }
    fn take_completions(&mut self) -> u64 {
        0
    }
}

/// Host nanoseconds per lookahead window of [`run_sharded`] over `domains`
/// null domains exchanging `per_window` envelopes each.
fn shard_window_ns(sampler: &mut Sampler, domains: u32, per_window: u64, windows: u64) -> f64 {
    sampler.median_ns_per_op(|| {
        let mut ds: Vec<NullDomain> = (0..domains)
            .map(|d| NullDomain {
                unit: d,
                peer: (d + 1) % domains,
                per_window,
                seq: 0,
                out: Vec::new(),
                received: 0,
            })
            .collect();
        let unit_domain: Vec<u32> = (0..domains).collect();
        let lookahead = SimDuration::from_micros(10);
        let t0 = Instant::now();
        run_sharded(
            &mut ds,
            &unit_domain,
            lookahead,
            SimTime::ZERO + lookahead * windows,
            None,
        )
        .expect("null domains do not panic");
        let elapsed = t0.elapsed();
        black_box(ds.iter().map(|d| d.received).sum::<u64>());
        (elapsed, windows)
    })
}

/// `sim.shard.window_1d_ns`: one null domain, empty windows.
pub fn micro_shard_window_1d(sampler: &mut Sampler) -> f64 {
    shard_window_ns(sampler, 1, 0, 500_000)
}

/// `sim.shard.window_2d_ns` and `sim.shard.envelope_ns`: two null domains,
/// without and with `K` envelopes per domain per window; the envelope cost
/// is the difference per envelope. Two threads meet at two barriers per
/// window, so both numbers depend on the host's scheduler.
pub fn micro_shard_window_2d(sampler: &mut Sampler) -> (f64, f64) {
    const K: u64 = 16;
    let empty = shard_window_ns(sampler, 2, 0, 20_000);
    let loaded = shard_window_ns(sampler, 2, K, 20_000);
    (empty, (loaded - empty) / (2 * K) as f64)
}

fn raw_packet(id: u64, src: NodeId, dst: NodeId) -> Packet<RawBody> {
    Packet {
        id,
        src,
        dst,
        flow: FlowId(src.0),
        created: SimTime::ZERO,
        body: RawBody { size: WIRE_BYTES },
    }
}

/// `net.fabric.hop_ns`: carry packets one at a time across a 1024-pair
/// dumbbell ([`Fabric::start_flight`] at the sender edge, [`Fabric::handle`]
/// until the receiving host gets it, pooled arena), per link hop. The
/// follow-up events go to a two-slot local list, not an event queue, so the
/// number is the fabric's own.
pub fn micro_fabric_hop(sampler: &mut Sampler) -> f64 {
    const PAIRS: usize = 1024;
    const PACKETS: u64 = 100_000;
    const HOPS: u64 = 3;
    sampler.median_ns_per_op(|| {
        let access = LinkParams::new(1_000_000_000, SimDuration::from_millis(1));
        let haul = LinkParams::new(1_000_000_000, SimDuration::from_millis(28));
        let (topo, d) = dumbbell(PAIRS, access, haul);
        let mut fabric: Fabric<RawBody> =
            Fabric::new(topo, QueueConfig::packets(1000), SimRng::seed_from_u64(1));
        let mut pending: Vec<(SimTime, NetEvent)> = Vec::with_capacity(4);
        let mut now = SimTime::ZERO;
        let mut delivered = 0u64;
        let t0 = Instant::now();
        for id in 0..PACKETS {
            let p = id as usize % PAIRS;
            let pkt = raw_packet(id, d.senders[p], d.receivers[p]);
            fabric.start_flight(
                now,
                d.senders[p],
                d.sender_access[p],
                pkt,
                &mut |after, ev| pending.push((now + after, ev)),
            );
            while !pending.is_empty() {
                let next = (0..pending.len())
                    .min_by_key(|&i| pending[i].0)
                    .expect("non-empty");
                let (at, ev) = pending.swap_remove(next);
                now = at;
                let out = fabric.handle(ev, now, &mut |after, ev| pending.push((now + after, ev)));
                delivered += u64::from(out.is_some());
            }
        }
        let elapsed = t0.elapsed();
        assert_eq!(
            delivered, PACKETS,
            "fabric lost packets on a clean dumbbell"
        );
        (elapsed, PACKETS * HOPS)
    })
}

/// `net.arena.insert_take_ns`: park a packet, redeem the oldest, with 4096
/// packets in flight.
pub fn micro_arena(sampler: &mut Sampler) -> f64 {
    const LIVE: usize = 4096;
    const OPS: u64 = 1_000_000;
    sampler.median_ns_per_op(|| {
        let mut arena: PacketArena<RawBody> = PacketArena::new();
        let mut refs: Vec<PacketRef> = (0..LIVE as u64)
            .map(|id| arena.insert(raw_packet(id, NodeId(0), NodeId(1))))
            .collect();
        let t0 = Instant::now();
        for i in 0..OPS {
            let slot = i as usize % LIVE;
            let old = arena.take(refs[slot]);
            refs[slot] = arena.insert(raw_packet(old.id + 1, NodeId(0), NodeId(1)));
        }
        black_box(arena.live());
        (t0.elapsed(), OPS)
    })
}

/// `net.droptail.enq_deq_ns`: enqueue + dequeue on a half-full 1000-packet
/// drop-tail queue.
pub fn micro_droptail(sampler: &mut Sampler) -> f64 {
    const OPS: u64 = 1_000_000;
    sampler.median_ns_per_op(|| {
        let mut q: DropTailQueue<RawBody> = DropTailQueue::new(QueueConfig::packets(1000));
        for id in 0..500 {
            q.try_enqueue(raw_packet(id, NodeId(0), NodeId(1)))
                .expect("room");
        }
        let t0 = Instant::now();
        for id in 0..OPS {
            q.try_enqueue(raw_packet(id, NodeId(0), NodeId(1)))
                .expect("room");
            black_box(q.dequeue());
        }
        (t0.elapsed(), OPS)
    })
}

/// `net.red.enq_deq_ns`: ECT data segments through the `lossy_aqm` RED/ECN
/// queue held inside its marking band (average ≈ 125 of (50, 200)).
pub fn micro_red(sampler: &mut Sampler) -> f64 {
    const OPS: u64 = 1_000_000;
    let segment = |id: u64| Packet {
        id,
        src: NodeId(0),
        dst: NodeId(1),
        flow: FlowId(0),
        created: SimTime::ZERO,
        body: WireBody::Tcp(TcpSegment {
            conn: ConnId(0),
            kind: SegKind::Data {
                seq: id * MSS as u64,
                len: MSS,
                retransmit: false,
            },
            header_bytes: WIRE_BYTES - MSS,
            ecn: Ecn::Ect,
        }),
    };
    sampler.median_ns_per_op(|| {
        let pkt_time = SimDuration::for_bytes_at_rate(WIRE_BYTES as u64, 200_000_000);
        let mut q: RedQueue<WireBody> = RedQueue::new(RedConfig {
            min_th: 50.0,
            max_th: 200.0,
            max_p: 0.1,
            wq: 0.002,
            capacity: QueueConfig::packets(250),
            mean_pkt_time: pkt_time,
            gentle: false,
            ecn: true,
        });
        let mut rng = SimRng::seed_from_u64(7);
        let mut now = SimTime::ZERO;
        // Fill to the band and let the EWMA catch up, untimed.
        for id in 0..20_000 {
            now += pkt_time;
            let _ = q.try_enqueue(now, segment(id), &mut rng);
            if q.len() > 125 {
                q.dequeue(now);
            }
        }
        let t0 = Instant::now();
        for id in 0..OPS {
            now += pkt_time;
            let _ = black_box(q.try_enqueue(now, segment(id), &mut rng));
            if q.len() > 125 {
                black_box(q.dequeue(now));
            }
        }
        let elapsed = t0.elapsed();
        assert!(
            q.ecn_marks() > 0,
            "RED micro-drive never reached the marking band"
        );
        (elapsed, OPS)
    })
}

/// `net.impair.decide_ns`: one [`Impairment::decide`] with the `lossy_aqm`
/// Gilbert–Elliott chain and jitter.
pub fn micro_impair(sampler: &mut Sampler) -> f64 {
    const OPS: u64 = 2_000_000;
    sampler.median_ns_per_op(|| {
        let cfg = ImpairmentConfig {
            burst_loss: Some(GilbertElliott {
                p_good_to_bad: 1e-4,
                p_bad_to_good: 0.25,
                loss_good: 0.0,
                loss_bad: 0.75,
            }),
            jitter: Some(Jitter {
                prob: 2e-4,
                max: SimDuration::from_micros(800),
            }),
            ..ImpairmentConfig::default()
        };
        let mut imp = Impairment::from_config(
            &cfg,
            &SimRng::seed_from_u64(3),
            SimTime::ZERO + SimDuration::from_secs(6),
        );
        let mut now = SimTime::ZERO;
        let t0 = Instant::now();
        for _ in 0..OPS {
            now += SimDuration::from_micros(60);
            black_box(imp.decide(now));
        }
        (t0.elapsed(), OPS)
    })
}

/// `host.nic.tx_cycle_ns`: `enqueue → on_tx_done → start_tx_if_idle` on a
/// NIC whose IFQ holds 50 of `txqueuelen` 100.
pub fn micro_nic(sampler: &mut Sampler) -> f64 {
    const OPS: u64 = 1_000_000;
    sampler.median_ns_per_op(|| {
        let mut nic: HostNic<RawBody> = HostNic::new(HostConfig::default());
        let mut now = SimTime::ZERO;
        for id in 0..50 {
            nic.enqueue(raw_packet(id, NodeId(0), NodeId(1)))
                .expect("room");
        }
        let mut ser = nic.start_tx_if_idle(now).expect("idle NIC with work");
        let t0 = Instant::now();
        for id in 0..OPS {
            nic.enqueue(raw_packet(id, NodeId(0), NodeId(1)))
                .expect("room");
            now += ser;
            black_box(nic.on_tx_done(now));
            ser = nic.start_tx_if_idle(now).expect("IFQ is never empty");
        }
        (t0.elapsed(), OPS)
    })
}

/// The nine registry variants with their default parameters, keyed by the
/// registry name the reports use.
pub fn cc_variants() -> Vec<(&'static str, CcAlgorithm)> {
    [
        CcAlgorithm::Reno,
        CcAlgorithm::Restricted(RssConfig::tuned()),
        CcAlgorithm::Limited { max_ssthresh: None },
        CcAlgorithm::Ssthreshless(SslConfig::default()),
        CcAlgorithm::HighSpeed,
        CcAlgorithm::Scalable(ScalableConfig::default()),
        CcAlgorithm::Bbr,
        CcAlgorithm::Relentless,
        CcAlgorithm::Hybrid,
    ]
    .into_iter()
    .map(|algo| (algo.label(), algo))
    .collect()
}

fn new_sender(algo: CcAlgorithm) -> TcpSender {
    let cfg = TcpConfig::default();
    let cc = make_cc(algo, &cfg).expect("default parameters build every variant");
    TcpSender::new(ConnId(0), cfg, cc, None)
}

const IFQ: IfqSnapshot = IfqSnapshot {
    depth: 50,
    max: 100,
};

/// `tcp.ack_pump_ns.<variant>`: a sans-IO closed loop at a fixed 60 ms RTT
/// behind a 100 Mbit/s bottleneck — `can_transmit`/`commit_transmit` until
/// the window or the pacer closes, then the next `on_ack`. No loss, so the
/// window opens to the 2 MiB receive window. One operation = one ACK
/// processed plus the segments it released; web100 instrumentation
/// included. A fresh sender per sample, as in a run.
pub fn micro_ack_pump(sampler: &mut Sampler, algo: CcAlgorithm) -> f64 {
    const ACKS: u64 = 30_000;
    let rtt = SimDuration::from_millis(60);
    let ser = SimDuration::for_bytes_at_rate(WIRE_BYTES as u64, 100_000_000);
    let rwnd = TcpConfig::default().rwnd;
    sampler.median_ns_per_op(|| {
        let mut s = new_sender(algo);
        let mut acks: VecDeque<(SimTime, u64)> = VecDeque::new();
        let mut now = SimTime::ZERO;
        let mut last_arrival = SimTime::ZERO;
        let mut done = 0u64;
        let t0 = Instant::now();
        while done < ACKS {
            while let Some(plan) = s.can_transmit(now) {
                s.commit_transmit(now, plan);
                last_arrival = (now + rtt).max(last_arrival + ser);
                acks.push_back((last_arrival, plan.seq + plan.len as u64));
            }
            let pace = s.pacing_retry_at(now);
            match (acks.front().copied(), pace) {
                (Some((at, _)), Some(release)) if release < at => now = release,
                (Some((at, ack)), _) => {
                    acks.pop_front();
                    now = now.max(at);
                    s.on_ack(now, ack, rwnd, IFQ);
                    done += 1;
                }
                (None, Some(release)) => now = release,
                (None, None) => panic!("{}: sender idle with nothing in flight", algo.label()),
            }
        }
        black_box(s.snd_una());
        (t0.elapsed(), ACKS)
    })
}

/// `tcp.recovery_ns`: one NewReno episode — three duplicate ACKs, the fast
/// retransmit, a partial ACK and its retransmit, the ACK that exits
/// recovery, and the new segments that refill the window. Episodes repeat
/// back to back, so the window sits at its post-loss floor.
pub fn micro_recovery(sampler: &mut Sampler) -> f64 {
    const EPISODES: u64 = 20_000;
    let rwnd = TcpConfig::default().rwnd;
    sampler.median_ns_per_op(|| {
        let mut s = new_sender(CcAlgorithm::Reno);
        let mut now = SimTime::ZERO;
        let step = SimDuration::from_millis(1);
        let pump = |s: &mut TcpSender, now: SimTime| {
            while let Some(plan) = s.can_transmit(now) {
                s.commit_transmit(now, plan);
            }
        };
        pump(&mut s, now);
        let mut exits = 0u64;
        let t0 = Instant::now();
        for _ in 0..EPISODES {
            let una = s.snd_una();
            let recover = s.snd_nxt();
            assert!(
                recover >= una + 2 * MSS as u64,
                "need two segments in flight"
            );
            for _ in 0..3 {
                now += step;
                s.on_ack(now, una, rwnd, IFQ);
            }
            exits += u64::from(s.in_recovery());
            pump(&mut s, now);
            now += step;
            s.on_ack(now, una + MSS as u64, rwnd, IFQ);
            pump(&mut s, now);
            now += step;
            s.on_ack(now, recover, rwnd, IFQ);
            pump(&mut s, now);
        }
        let elapsed = t0.elapsed();
        assert_eq!(exits, EPISODES, "three duplicate ACKs must enter recovery");
        assert!(!s.in_recovery());
        (elapsed, EPISODES)
    })
}

/// `tcp.receiver.segment_ns` (`reordered = false`): in-order segments.
/// `tcp.receiver.ooo_segment_ns` (`reordered = true`): every fourth segment
/// arrives after the three behind it, so three are buffered out of order
/// and the fourth fills the hole. Per segment.
pub fn micro_receiver(sampler: &mut Sampler, reordered: bool) -> f64 {
    const SEGMENTS: u64 = 1_000_000;
    sampler.median_ns_per_op(|| {
        let mut r = TcpReceiver::new(ConnId(0), TcpConfig::default());
        let mut now = SimTime::ZERO;
        let t0 = Instant::now();
        for group in 0..SEGMENTS / 4 {
            let order: [u64; 4] = if reordered {
                [1, 2, 3, 0]
            } else {
                [0, 1, 2, 3]
            };
            for k in order {
                now += SimDuration::from_micros(120);
                black_box(r.on_segment(now, (group * 4 + k) * MSS as u64, MSS));
            }
        }
        let elapsed = t0.elapsed();
        assert_eq!(r.rcv_nxt(), SEGMENTS * MSS as u64);
        (elapsed, SEGMENTS)
    })
}

/// `control.pid.update_ns`: one [`PidController::update`] with the paper's
/// Ziegler–Nichols gains and the IFQ set point, fed a moving queue depth.
pub fn micro_pid(sampler: &mut Sampler) -> f64 {
    const OPS: u64 = 2_000_000;
    sampler.median_ns_per_op(|| {
        let mut pid = PidController::new(
            PidConfig::new(RssConfig::tuned().gains, 90.0).with_output_limits(-1.0, 1.0),
        );
        let mut now = SimTime::ZERO;
        let t0 = Instant::now();
        for i in 0..OPS {
            now += SimDuration::from_micros(120);
            black_box(pid.update(now, (60 + i % 40) as f64));
        }
        (t0.elapsed(), OPS)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A half-second paper testbed: small enough for an unoptimized test.
    fn tiny_spec(rtt_ms: u32) -> String {
        format!(
            "{{\"name\":\"tiny\",\"runs\":[\
             {{\"label\":\"standard\",\"path\":{{\"rtt_ms\":{rtt_ms}}},\"flows\":[{{}}],\"duration_s\":0.5}},\
             {{\"label\":\"restricted\",\"path\":{{\"rtt_ms\":{rtt_ms}}},\
             \"flows\":[{{\"cc\":{{\"Restricted\":{{}}}}}}],\"duration_s\":0.5}}],\
             \"fairness\":{{\"window_s\":0.25}}}}"
        )
    }

    #[test]
    fn digest_is_stable_for_one_text_and_moves_with_the_outputs() {
        let mut off = Tracer::new(false);
        let a = pipeline(&tiny_spec(20), &mut off).unwrap();
        let b = pipeline(&tiny_spec(20), &mut off).unwrap();
        assert_eq!((a.digest, &a.counts), (b.digest, &b.counts));
        let c = pipeline(&tiny_spec(21), &mut off).unwrap();
        assert_ne!(a.digest, c.digest);
        assert_eq!(a.runs.len(), 2);
        assert_eq!(a.counts.runs, 2);
        assert!(a.counts.events > 0 && a.counts.segs_out > 0);
        assert!(a.runs.iter().all(|r| r.failure.is_none()), "{:?}", a.runs);
        assert!(a.run_s <= a.wall_s);
        assert_eq!(a.counts.shard_windows, 0);
    }

    #[test]
    fn traced_pipeline_records_one_child_span_per_call() {
        let mut tracer = Tracer::new(true);
        tracer.next_iteration();
        pipeline(&tiny_spec(20), &mut tracer).unwrap();
        world_build(&tiny_spec(20), &mut tracer).unwrap();
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "pipeline",
                "core.spec.parse",
                "core.spec.expand",
                "core.run",
                "core.run",
                "core.report.results_csv",
                "core.report.fairness",
                "core.report.to_json",
                "core.world_build",
            ]
        );
        assert!(tracer.spans()[1..8].iter().all(|s| s.parent == Some(0)));
        assert_eq!(tracer.spans()[8].parent, None);
    }

    #[test]
    fn a_spec_the_program_rejects_is_an_error_not_a_panic() {
        let mut tracer = Tracer::new(true);
        assert!(pipeline("{\"name\":\"x\"", &mut tracer)
            .unwrap_err()
            .starts_with("parse"));
        let no_runs = pipeline("{\"name\":\"x\",\"runs\":[]}", &mut tracer).unwrap_err();
        assert!(no_runs.starts_with("expand"), "{no_runs}");
        // Every span was closed on the error paths.
        tracer.set_enabled(false);
    }

    #[test]
    fn sharded_runs_count_their_lookahead_windows() {
        let text = tiny_spec(20).replacen("{\"name\"", "{\"shards\":1,\"name\"", 1);
        let it = pipeline(&text, &mut Tracer::new(false)).unwrap();
        // 0.5 s at the default 10 µs access delay: 50 000 windows per run.
        assert_eq!(it.counts.shard_windows, 100_000);
        assert_eq!(it.counts.scheduled, 0, "engine counters are serial-only");
    }
}
