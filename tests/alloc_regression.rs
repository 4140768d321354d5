//! Steady-state allocation regression test for the many-flow hot path.
//!
//! The packet arena, the calendar wheel's reusable slot slab, and the batched
//! shard envelopes exist so that the per-event simulation loop allocates
//! *nothing* once a run is warmed up: every per-packet and per-timer buffer
//! is pooled. This test pins that property with a counting global allocator:
//! it runs the same many-flow dumbbell at two horizons and asserts that the
//! *extra* events of the longer run cost ~0 allocations each. Setup
//! (world construction, Vec growth to high-water marks, shard threads) and
//! report finalization allocate freely in both runs and cancel out in the
//! difference; only per-event churn would scale with the horizon. Both
//! drivers are measured: every unit under one engine, and the units spread
//! over two domains, where a packet that crosses domains is parked in the
//! destination's arena and rides recycled envelope buffers.
//!
//! The same allocator tracks live bytes: a second test holds the same
//! dumbbell's peak live heap per flow under a ceiling, over the whole run and
//! over building its world alone, a third holds the paper testbed's peak
//! live heap per recorded telemetry sample under one, and a fourth prints
//! where the dumbbell's live heap is at its horizon, by owner, and requires
//! the owners to explain it.

use restricted_slow_start::world::World;
use restricted_slow_start::{run, CcAlgorithm, FlowSpec, Scenario, SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Counts heap allocations while enabled, and tracks live bytes (requested
/// sizes, so reserved capacity counts) and their high-water mark always;
/// forwards everything to the system allocator.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// The counters are process-global: the tests of this file take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        }
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        }
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grew(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The `manyflow_dumbbell` geometry at test scale: enough flows that any
/// per-packet or per-timer allocation would dominate the count, short
/// enough to run twice in a test.
fn manyflow(duration: SimDuration) -> Scenario {
    let mut sc = Scenario::paper_testbed(CcAlgorithm::Reno)
        .with_rate(1_000_000_000)
        .with_rtt(SimDuration::from_millis(60))
        .with_duration(duration)
        .with_access_delay(SimDuration::from_millis(1));
    sc.path.router_queue_pkts = 1000;
    sc.flows = (0..2_000)
        .map(|_| FlowSpec {
            algo: CcAlgorithm::Reno,
            bytes: None,
            start: SimTime::ZERO,
        })
        .collect();
    sc.web100_stride = 1024;
    sc.sample_interval = SimDuration::from_millis(500);
    sc
}

/// Run a scenario, returning `(allocations, events)`.
fn counted_run(sc: &Scenario) -> (u64, u64) {
    ALLOC_COUNT.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let report = run(sc);
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOC_COUNT.load(Ordering::SeqCst), report.events_processed)
}

#[test]
fn steady_state_allocates_nothing_per_event() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for shards in [None, Some(2)] {
        let manyflow = |d: SimDuration| {
            let mut sc = manyflow(d);
            sc.shards = shards;
            sc
        };
        // Warm-up run so one-time lazy initialization (thread locals, the
        // run cache, …) does not pollute the counted runs.
        let _ = run(&manyflow(SimDuration::from_millis(100)));

        let (allocs_short, events_short) = counted_run(&manyflow(SimDuration::from_millis(500)));
        let (allocs_long, events_long) = counted_run(&manyflow(SimDuration::from_millis(1500)));
        assert!(
            events_long > events_short,
            "horizons must differ in event count: {events_short} vs {events_long}"
        );

        let extra_events = events_long - events_short;
        let extra_allocs = allocs_long.saturating_sub(allocs_short);
        let per_event = extra_allocs as f64 / extra_events as f64;
        // Pooled buffers mean the extra simulated second costs ~0
        // allocations per extra event: measured ~0.04, all of it amortized
        // doubling growth of the per-flow telemetry series (cwnd/acked/
        // stall/congestion timelines across 2000 flows), which scales with
        // log of run length, not with events. A hot-path regression — any
        // per-packet, per-hop, per-envelope or per-timer allocation — costs
        // >= 1 per event and fails by an order of magnitude.
        assert!(
            per_event < 0.08,
            "shards {shards:?}: steady state allocates {per_event:.4} allocs/event \
             ({extra_allocs} allocations over {extra_events} extra events); \
             the hot path must not allocate per event"
        );
    }
}

/// Peak live heap over `phase`, in bytes above what was live going in.
fn peak_heap_over<T>(phase: impl FnOnce() -> T) -> u64 {
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(before, Ordering::SeqCst);
    drop(phase());
    PEAK_BYTES.load(Ordering::SeqCst) - before
}

/// Peak live heap over `run(sc)`, in bytes above what was live going in.
fn peak_heap_over_run(sc: &Scenario) -> u64 {
    peak_heap_over(|| run(sc))
}

/// Memory proportional to what is live, as a number that does not depend on
/// the host: the many-flow dumbbell's peak live heap per flow — world,
/// event queue, telemetry and the report on top — under a ceiling a tenth
/// above what it measures under one engine (2 916 B) and in two domains
/// (3 835 B: each domain's fabric compiles its own 16-byte hop record per
/// direction of the whole topology), and the same for [`World::build`] alone
/// (1 429 B), so a per-flow struct that grows names its phase.
///
/// With an application driver and the receiver's delayed-ACK state in
/// every connection (64 B), the same runs measured 2 980 and 3 899 B and
/// the build 1 493 B (ceilings 3 280 / 4 290 / 1 620). With a 32-byte
/// in-flight record per segment in a ring that kept the largest flight's
/// room, and report series that kept their doubling slack, the same runs measured 3 155 and 4 074 B (ceilings 3 450 /
/// 4 460). With the RTO episodes, the limit state, a delivered count and a rate
/// interval in every sender and both hosts' node ids in every connection,
/// the same runs measured 3 147 and 4 066 B and the build 1 517 B; with
/// each repeated per-ACK step written again as well, 3 294 and 4 212 B and
/// the build 1 533 B (ceilings 3 620 / 4 630 / 1 690). With each optional time of a connection, a host NIC and the RTO timer
/// table an `Option` (16 bytes where 8 hold it), a connection's timelines
/// 64 bytes inline beside a `Vec<f64>` for its congestion times, per-link
/// transfer counters nobody read and the RTT estimator's sample count, the
/// same runs measured 3 476 and 4 443 B (ceilings 3 830 / 4 890) and the
/// build 1 677 B (ceiling 1 850). Before each host NIC dropped its
/// device-packet slot and its IFQ's
/// counters, each router port its queue's counters, each connection its two
/// copies of the scenario's `TcpConfig`, each sending host its vector of
/// connections and the fabric its impairment index on a clean network, the
/// same runs measured 4 061 and 5 044 B (ceilings 4 470 / 5 550) and the
/// build 2 261 B. With each flow's cwnd and acked samples held as
/// `(f64, f64)` pairs instead of packed steps, the runs measured 4 604 and
/// 5 736 B (ceilings 5 060 / 6 310); with an IFQ series and a sampling
/// chain for every sending host, a per-ACK IFQ series in every sender and
/// the series copied into the report as well, 5 164 and 6 284 B; with
/// per-bucket vectors in the calendar wheel, RED state in every port,
/// four-packet first queue buffers and flow reports rendered beside the
/// complete world as well, 9 400 and 10 990 B.
#[test]
fn manyflow_peak_heap_stays_under_the_per_flow_ceiling() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let run_in = |shards: Option<u32>| {
        let mut sc = manyflow(SimDuration::from_millis(1500));
        sc.shards = shards;
        move || run(&sc)
    };
    let sc = manyflow(SimDuration::from_millis(1500));
    let build = || World::build(&sc).expect("the dumbbell builds");
    for (phase, peak, ceiling) in [
        ("run(), one engine", peak_heap_over(run_in(None)), 3_210),
        ("run(), two domains", peak_heap_over(run_in(Some(2))), 4_220),
        ("World::build", peak_heap_over(build), 1_580),
    ] {
        let per_flow = peak / sc.flows.len() as u64;
        assert!(
            per_flow <= ceiling,
            "{phase}: peak live heap is {per_flow} B per flow, ceiling {ceiling}"
        );
    }
}

/// Where the 2 000-flow dumbbell's live heap is at its horizon, by owner:
/// [`World::footprint`] and the engine's event queue. The rows must explain
/// at least 90 % of what the counting allocator holds live then, and no
/// more than all of it, so memory that no owner counts (or an owner that
/// miscounts) fails here with the table beside it.
///
/// The send-timestamp rings row is 129 B a flow: a 16-byte record per
/// segment in flight, with room for at most four times the flight each
/// flow holds at the horizon. With 32-byte records and the room of the
/// largest flight each flow ever had, it read 324 B, and the live heap
/// 3 155 B a flow where it now reads 2 960 B.
#[test]
fn manyflow_heap_by_owner() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let sc = manyflow(SimDuration::from_millis(1500));
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    let mut engine = World::build(&sc)
        .expect("the dumbbell builds")
        .into_engine();
    engine.run_until(SimTime::ZERO + sc.duration);
    let live = LIVE_BYTES.load(Ordering::SeqCst) - before;
    let mut footprint = engine.model().footprint();
    footprint.rows.push(("event queue", engine.heap_bytes()));

    let flows = sc.flows.len();
    let mut table = format!("{:<26} {:>10} {:>7}\n", "owner", "bytes", "B/flow");
    for (owner, bytes) in footprint
        .rows
        .iter()
        .chain([&("explained", footprint.total())])
    {
        table += &format!("{owner:<26} {bytes:>10} {:>7}\n", bytes / flows);
    }
    table += &format!(
        "{:<26} {live:>10} {:>7}",
        "live (counting allocator)",
        live as usize / flows
    );
    println!("{table}");
    let explained = footprint.total() as f64 / live as f64;
    assert!(
        (0.9..=1.0).contains(&explained),
        "the owners explain {:.1} % of the live heap:\n{table}",
        explained * 100.0
    );
}

/// Telemetry recorded once, where the report reads it: the paper testbed's
/// restricted run (one flow, 25 s, 407 947 cwnd + acked samples, one per
/// ACK) peaks at 0.63 B of live heap per reported sample, under a ceiling a
/// tenth above. A sample is a step of a packed `Series`, and on this
/// testbed's regular ACK clock nearly every step (a ~120 µs time step and
/// a 1448-byte value step) repeats the one before, so it joins a run whose
/// count is rewritten in place; what is left is the world and the steps
/// that do change. With the step buffers' doubling slack kept into the
/// report it measured 0.67 B (ceiling 0.74). Written as plain varint
/// steps, about five bytes a sample, the same run measured 5.82 B (ceiling
/// 6.4); held as 16-byte `(t_s, value)` pairs, 21.2 B (ceiling 23.4). A
/// series nothing reads (the per-ACK IFQ series the sender once kept beside
/// them) or a copy made at report time shows here: with both, on top of
/// the pairs, it measured 47.1 B.
#[test]
fn paper_testbed_peak_heap_stays_under_the_per_sample_ceiling() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let sc = Scenario::paper_testbed_restricted();
    let samples: usize = run(&sc)
        .flows
        .iter()
        .map(|f| f.cwnd_series.len() + f.acked_series.len())
        .sum();
    let per_sample = peak_heap_over_run(&sc) as f64 / samples as f64;
    assert!(
        per_sample <= 0.70,
        "peak live heap over run() is {per_sample:.2} B per reported cwnd + acked \
         sample ({samples} samples), ceiling 0.70"
    );
}
