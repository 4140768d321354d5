//! The sharded executor's window loop allocates nothing once it is warm.
//!
//! Every buffer a window touches — the rings, the inbound batch and its
//! sort, the outgoing batches — is recycled, so a run of `2W` windows must
//! cost exactly as many allocations as a run of `W`: set-up (threads, rings,
//! growth to the high-water marks) is the same in both and cancels. The
//! domains here exchange more envelopes per window than a stable sort can
//! order without a scratch buffer, so one `malloc` per window per domain in
//! the loop shows up as `2W` extra allocations, not as a share of some
//! per-event tolerance.

use rss_sim::{run_sharded, Domain, Envelope, SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts heap allocations while enabled; forwards everything to the system
/// allocator.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Envelopes each domain sends per window.
const TOKENS: usize = 96;
const HOP: SimDuration = SimDuration::from_millis(1);

/// The size of the dumbbell's real payload, so the inbound batch is as many
/// bytes to sort as a many-flow window's.
type Payload = [u64; 12];

/// One unit of a ring: every token it holds hops to the next unit, one
/// window later. Both buffers keep their capacity across windows.
struct Relay {
    unit: u32,
    next_unit: u32,
    seq: u64,
    held: Vec<(SimTime, Payload)>,
    outgoing: Vec<Envelope<Payload>>,
}

impl Relay {
    fn fire(&mut self, end: SimTime, inclusive: bool) -> u64 {
        let before = self.held.len();
        let (unit, next_unit) = (self.unit, self.next_unit);
        let (seq, outgoing) = (&mut self.seq, &mut self.outgoing);
        self.held.retain(|&(due, payload)| {
            if due > end || (due == end && !inclusive) {
                return true;
            }
            *seq += 1;
            outgoing.push(Envelope {
                time: due + HOP,
                src_unit: unit,
                seq: *seq,
                dst_unit: next_unit,
                msg: payload,
            });
            false
        });
        (before - self.held.len()) as u64
    }
}

impl Domain for Relay {
    type Msg = Payload;
    fn inject(&mut self, env: Envelope<Payload>) {
        self.held.push((env.time, env.msg));
    }
    fn on_boundary(&mut self, _now: SimTime) {}
    fn idle_until(&self) -> SimTime {
        self.held
            .iter()
            .map(|&(due, _)| due)
            .min()
            .unwrap_or(SimTime::MAX)
    }
    fn run_window(&mut self, end: SimTime) -> u64 {
        self.fire(end, false)
    }
    fn finish(&mut self, horizon: SimTime) -> u64 {
        self.fire(horizon, true)
    }
    fn drain_outgoing(&mut self, into: &mut Vec<Envelope<Payload>>) {
        into.append(&mut self.outgoing);
    }
    fn take_completions(&mut self) -> u64 {
        0
    }
}

/// Run a three-domain ring for `windows` windows; returns the allocations
/// it made and the envelopes it exchanged.
fn counted_run(windows: u64) -> (u64, u64) {
    const DOMAINS: u32 = 3;
    let mut ring: Vec<Relay> = (0..DOMAINS)
        .map(|u| Relay {
            unit: u,
            next_unit: (u + 1) % DOMAINS,
            seq: 0,
            // Same instant, so the sort key is decided by `seq` alone.
            held: vec![(SimTime::ZERO, [u as u64; 12]); TOKENS],
            outgoing: Vec::new(),
        })
        .collect();
    ALLOC_COUNT.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let stats = run_sharded(
        &mut ring,
        &[0, 1, 2],
        HOP,
        SimTime::ZERO + HOP * windows,
        None,
    )
    .expect("ring run");
    COUNTING.store(false, Ordering::SeqCst);
    assert_eq!(stats.windows_run, windows);
    (ALLOC_COUNT.load(Ordering::SeqCst), stats.envelopes)
}

#[test]
fn extra_windows_cost_no_allocations() {
    const W: u64 = 300;
    // Warm-up: thread-local and lazy runtime state.
    let _ = counted_run(10);
    let (allocs_short, envelopes_short) = counted_run(W);
    let (allocs_long, envelopes_long) = counted_run(2 * W);
    assert_eq!(envelopes_short, 3 * TOKENS as u64 * W);
    assert_eq!(envelopes_long, 3 * TOKENS as u64 * 2 * W);
    assert_eq!(
        allocs_long,
        allocs_short,
        "{W} extra windows of {TOKENS} envelopes per domain made {} extra allocations",
        allocs_long as i64 - allocs_short as i64
    );
}
