//! Conservative-lookahead parallel execution of one simulation run.
//!
//! A run is partitioned into *units* — closed islands of model state (a host
//! pair and its access ports, or one direction of the shared bottleneck) that
//! interact only by exchanging timestamped messages with a minimum delivery
//! latency. Units are grouped into *domains*; each domain owns a private
//! calendar-wheel [`Engine`](crate::Engine) and runs on its own thread.
//!
//! # The lookahead bound
//!
//! Let `L` be the minimum latency of any cross-unit message leg (for the
//! dumbbell worlds built on top of this module: the smaller of the access-link
//! and haul-link propagation delays). Time advances on the fixed grid of
//! windows `[kL, (k+1)L)`, over the windows that hold an event. A message
//! sent at time `t ∈ [w, w+L)` arrives at `t + leg ≥ w + L`, i.e. **no
//! message sent during a window can be due inside that same window** — so
//! every domain may simulate the window to completion without hearing from
//! its peers. That is the classic conservative (CMB-style) argument
//! specialized to a fixed window equal to the static lookahead.
//!
//! Two barriers bound each window that runs. Before the first, each domain
//! drains its inbound rings, injects the arrivals and publishes
//! [`Domain::idle_until`] — the time of its next event — in a per-domain
//! slot. After it, every thread reads all slots, takes the same minimum `m`
//! and moves `w` forward to the grid boundary `⌊m / L⌋·L` (clamped to the
//! horizon): the windows in between are empty in every domain and are not
//! run. Then every domain runs `[w, w+L)` and publishes its outgoing
//! messages into per-`(src, dst)` domain rings, and the second barrier
//! closes the window. The rings are locked once per pair per window (a
//! buffer swap), never per event.
//!
//! The barrier is a generation counter. The last thread to arrive resets
//! the arrival count, bumps the generation with one store and makes a wake
//! call only if a waiter has registered as asleep — with one domain a
//! barrier is three uncontended atomics and no system call. A waiter polls
//! the generation between a bounded number of `yield_now` calls, then
//! sleeps on a condition variable. The yields cover domains that finish a
//! window within tens of microseconds of each other without a sleep/wake
//! round trip, and — unlike a busy spin — hand the core to a thread that
//! can make progress when domain threads outnumber cores; the sleep bounds
//! what a long window of one domain costs the others. There is no
//! `spin_loop` phase: measured on two cores, any number of busy polls
//! before the first yield made two null domains *slower* per window
//! (1.1 µs with none, 1.9 µs with 32, 6.0 µs with 200) and a two-domain
//! one-flow run with four threads on two cores up to 3× slower.
//!
//! # Why results are bit-exact for any domain count
//!
//! Grouping units into domains must not change any observable state. The
//! argument:
//!
//! 1. **Units share no mutable state.** All interaction is via messages
//!    with a latency of at least `L`. A message to a unit of another domain
//!    goes through the ring; one to a unit of the sender's own domain may
//!    take the ring too, or be scheduled straight into the engine the two
//!    share. Either way it carries its sender's `(unit, seq)`. The union of
//!    per-unit state is therefore a product of independent machines driven
//!    by (local events ∪ arrivals).
//! 2. **Injection order is canonical.** Each domain sorts the arrivals it
//!    drains by `(arrival_time, source_unit, per-source sequence)` before
//!    injecting. The key is unique — a source unit's sequence counter never
//!    repeats — so the injected order is a pure function of the message set,
//!    not of ring layout or thread interleaving, and the sort may be an
//!    unstable one: no two keys are equal, so there is no tie for stability
//!    to settle, and sorting in place needs no scratch buffer per window.
//!    (The engine would put them in the same order by itself — see 3 — so
//!    the sort is a courtesy to its calendar wheel, not a correctness step.)
//! 3. **A unit's event order does not depend on who shares its engine.**
//!    The engine fires events in `(time, unit, per-unit seq)` order
//!    ([`crate::engine`]): an event a unit schedules for itself is keyed by
//!    that unit and its own counter, an arrival by the sending unit and the
//!    sender's counter, whether it was injected from the ring at a window
//!    boundary or scheduled directly when it was sent. Insertion order — the
//!    one thing a grouping does change — is not part of the key. An arrival
//!    is in the queue before its time comes either way (it was sent at least
//!    `L` earlier, i.e. in an earlier window), so whenever a unit's next
//!    event is popped, the candidates and their keys are the same under any
//!    grouping. Two same-timestamp events belonging to *different* units
//!    may be dispatched in a different relative order by different engines,
//!    but by (1) they touch disjoint state, and every grouping-visible side
//!    effect (sequence numbers, RNG draws, packet ids, counters) is kept
//!    per unit — so per-unit event streams, and hence all results, are
//!    identical for any grouping.
//! 4. **Skipping a window changes nothing.** When the executor jumps from
//!    boundary `w` to `w' = ⌊m / L⌋·L`, every message published so far has
//!    been injected (the rings were drained at `w`), and `m` is the earliest
//!    pending event of any domain, injections included — so the windows in
//!    `[w, w')` hold no event, hence fire no handler, schedule nothing and
//!    send nothing: running them would leave every model, ring and reported
//!    counter as it found them (only a calendar wheel's cursor would move,
//!    which no pop order depends on). `w'` is on the grid, so the windows
//!    that do run are the same `[kL, (k+1)L)` the fixed-grid walk would have
//!    run. `m` is the minimum over *all* domains, i.e. over the union of the
//!    units' event times, which by (1)–(3) does not depend on the grouping. The completion-target verdict is taken at `w`, before the
//!    jump: completions are only reported by windows that run, so `w` is
//!    the boundary at which the fixed-grid walk would have stopped too.
//!
//! By induction over windows, every unit sees the same arrivals and produces
//! the same messages under any partition, including the single-domain one.
//! And a single domain needs no windows at all: with every unit in one
//! engine there is no peer to wait for, so running that engine straight to
//! the horizon dispatches the same per-unit streams (3) — which is why a
//! run without `shards` is byte-comparable with the windowed runs.

use crate::{SimDuration, SimTime};
use core::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// A cross-unit message in flight, carrying its canonical ordering key.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Simulation time the message is due at its destination.
    pub time: SimTime,
    /// Unit that sent it (global unit id).
    pub src_unit: u32,
    /// Per-source-unit sequence number; `(time, src_unit, seq)` is unique.
    pub seq: u64,
    /// Unit it is addressed to (global unit id).
    pub dst_unit: u32,
    /// Payload.
    pub msg: M,
}

/// One domain of a sharded run: a group of units with a private scheduler.
pub trait Domain: Send {
    /// Message payload exchanged between units.
    type Msg: Send;
    /// Schedule an inbound arrival. Called in canonical order at a window
    /// boundary; `env.time` is never before the boundary.
    fn inject(&mut self, env: Envelope<Self::Msg>);
    /// Window-boundary hook (sampling, bookkeeping), called at the start
    /// boundary of every window that runs. The domain's state is quiescent
    /// at `now`.
    fn on_boundary(&mut self, now: SimTime);
    /// A time before which this domain has nothing to run: the time of its
    /// earliest pending event ([`SimTime::MAX`] when it has none). Asked
    /// once per boundary, after that boundary's injections; the executor
    /// does not run the lookahead windows that end at or before the minimum
    /// over all domains. The default, [`SimTime::ZERO`], promises nothing,
    /// so every window runs.
    fn idle_until(&self) -> SimTime {
        SimTime::ZERO
    }
    /// Run every event strictly before `end`; return events processed.
    fn run_window(&mut self, end: SimTime) -> u64;
    /// Final inclusive pass: run events up to and at `horizon`.
    fn finish(&mut self, horizon: SimTime) -> u64;
    /// Append messages produced since the last call to `into`, leaving the
    /// domain's internal buffer empty *with its capacity intact* — the
    /// executor calls this once per window per domain, and the contract
    /// exists so the steady state recycles both buffers instead of
    /// allocating a fresh `Vec` every window.
    fn drain_outgoing(&mut self, into: &mut Vec<Envelope<Self::Msg>>);
    /// Drain the count of flows newly completed since the last call.
    fn take_completions(&mut self) -> u64;
}

/// Merged result of a sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Total events processed across all domains.
    pub events_processed: u64,
    /// Time the run ended: the horizon, or the window boundary at which the
    /// completion target was reached.
    pub end_time: SimTime,
    /// Whether the run stopped at the completion target before the horizon.
    pub stopped_early: bool,
    /// Lookahead windows the domains ran (in lockstep: each is one
    /// `run_window` call per domain and two barriers).
    pub windows_run: u64,
    /// Grid windows before `end_time` that were not run because no domain
    /// had an event in them; `windows_run + windows_skipped` is the length
    /// of the fixed-grid walk.
    pub windows_skipped: u64,
    /// Messages the domains handed to the rings. A domain may deliver a
    /// message between two of its own units itself, so — unlike the two
    /// window counts — this can depend on the grouping.
    pub envelopes: u64,
}

/// A shard thread panicked during a sharded run.
///
/// [`run_sharded`] catches the panic, releases the lockstep barriers so the
/// sibling shards can observe the failure and exit cleanly at the next
/// window boundary, and returns this structured error instead of
/// deadlocking (or poisoning the join).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// Index of the domain whose thread panicked first.
    pub shard: usize,
    /// The panic payload, stringified when possible.
    pub message: String,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {} panicked: {}", self.shard, self.message)
    }
}

impl std::error::Error for ShardError {}

/// Best-effort stringification of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-`(src, dst)` domain message rings, swapped once per window.
struct Rings<M> {
    domains: usize,
    slots: Vec<Mutex<Vec<Envelope<M>>>>,
}

impl<M> Rings<M> {
    /// Ring capacity preallocated per pair; rings grow past this only under
    /// bursts, and the buffers are recycled so steady state never allocates.
    const CAPACITY: usize = 256;

    fn new(domains: usize) -> Self {
        Rings {
            domains,
            slots: (0..domains * domains)
                .map(|_| Mutex::new(Vec::with_capacity(Self::CAPACITY)))
                .collect(),
        }
    }

    /// Publish `src`'s messages for `dst`: one lock, one append.
    ///
    /// A poisoned slot (its lock holder panicked) is recovered with
    /// `into_inner`: the run is already doomed to a [`ShardError`], but the
    /// sibling shards must keep moving through the barrier protocol instead
    /// of amplifying the panic here.
    fn publish(&self, src: usize, dst: usize, buf: &mut Vec<Envelope<M>>) {
        let mut slot = self.slots[src * self.domains + dst]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        slot.append(buf);
    }

    /// Drain everything addressed to `dst` into `into` (one lock per source).
    /// Poison-tolerant for the same reason as [`Rings::publish`].
    fn drain_into(&self, dst: usize, into: &mut Vec<Envelope<M>>) {
        for src in 0..self.domains {
            let mut slot = self.slots[src * self.domains + dst]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            into.append(&mut slot);
        }
    }
}

/// The meeting point of the domain threads: a reusable generation barrier
/// (wait policy in the module docs).
struct WindowBarrier {
    threads: usize,
    /// Threads that have arrived in the current generation.
    arrived: AtomicUsize,
    /// Bumped by the last arriver; what waiters watch.
    generation: AtomicUsize,
    /// Waiters that gave up polling and are (about to be) asleep on `wake`.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl WindowBarrier {
    /// `yield_now` calls, one poll each, before sleeping. On an idle core a
    /// yield returns at once, so this is tens of microseconds; on a shared
    /// one each yield hands the core to a thread that can make progress.
    const YIELDS: u32 = 100;

    fn new(threads: usize) -> Self {
        WindowBarrier {
            threads,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Block until all `threads` have called `wait` in this generation.
    ///
    /// Everything a thread wrote before `wait` is visible to every thread
    /// after it: each arrival is an `AcqRel` read-modify-write of `arrived`
    /// (so the last arriver has acquired all earlier arrivals), and the
    /// generation bump that releases the waiters is a store they load with
    /// `Acquire` or stronger.
    fn wait(&self) {
        // The generation cannot move before this thread has arrived.
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.threads {
            // Reset first: a released waiter may re-arrive immediately.
            self.arrived.store(0, Ordering::Relaxed);
            // SeqCst pairs with the sleeper's registration below: either
            // this load sees the sleeper, or the sleeper's re-check sees the
            // new generation and it never sleeps.
            self.generation
                .store(generation.wrapping_add(1), Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                // A registered sleeper holds the lock until it is inside
                // `Condvar::wait`, so passing through the lock orders the
                // notification after that.
                drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
                self.wake.notify_all();
            }
            return;
        }
        let released = || self.generation.load(Ordering::Acquire) != generation;
        for _ in 0..Self::YIELDS {
            if released() {
                return;
            }
            std::thread::yield_now();
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == generation {
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// How one domain thread left the window loop; identical on every thread of
/// a run that did not fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Verdict {
    end_time: SimTime,
    stopped_early: bool,
    windows_run: u64,
    windows_skipped: u64,
}

/// Deterministically assign weighted units to `domains` groups.
///
/// Longest-processing-time greedy: heaviest unit first onto the least-loaded
/// domain, every tie broken by the lower index. The output depends only on
/// `(weights, domains)`, so a partition is reproducible across runs and
/// machines; every unit is assigned to exactly one domain.
pub fn partition_units(weights: &[u64], domains: usize) -> Vec<u32> {
    assert!(domains > 0, "need at least one domain");
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
    let mut load = vec![0u64; domains];
    let mut assign = vec![0u32; weights.len()];
    for i in order {
        let mut best = 0usize;
        for d in 1..domains {
            if load[d] < load[best] {
                best = d;
            }
        }
        load[best] += weights[i].max(1);
        assign[i] = best as u32;
    }
    assign
}

/// Run `domains` under the conservative-lookahead window protocol.
///
/// * `unit_domain[u]` maps each global unit id to the domain that owns it.
/// * `lookahead` is the window size `L`; it must not exceed the minimum
///   cross-unit message latency (see the module docs) and must be positive.
/// * `stop_after_completions`: when `Some(n)`, the run ends at the first
///   window boundary at which `n` flow completions have been reported.
///
/// Windows in which no domain has an event are skipped, not run (see
/// [`Domain::idle_until`] and the module docs); the result is the same
/// either way.
///
/// Returns the merged [`ShardStats`]; per-domain results stay in `domains`.
///
/// # Panic safety
///
/// Model code runs inside `catch_unwind`. When a domain panics, its thread
/// records the payload, raises a shared poison flag, and *keeps
/// participating in the barrier protocol*; every sibling observes the flag
/// at its next window boundary and exits, so the panic surfaces as a
/// [`ShardError`] within one lockstep window instead of deadlocking the
/// remaining shards at a barrier.
pub fn run_sharded<D: Domain>(
    domains: &mut [D],
    unit_domain: &[u32],
    lookahead: SimDuration,
    horizon: SimTime,
    stop_after_completions: Option<u64>,
) -> Result<ShardStats, ShardError> {
    assert!(!domains.is_empty(), "need at least one domain");
    assert!(lookahead > SimDuration::ZERO, "lookahead must be positive");
    let n = domains.len();
    let rings: Rings<D::Msg> = Rings::new(n);
    let barrier = WindowBarrier::new(n);
    // Each domain's `idle_until` (nanos), stored before barrier 1 and read
    // by every thread after it; the next store is past barrier 2.
    let idle: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let completions = AtomicU64::new(0);
    let total_events = AtomicU64::new(0);
    let total_envelopes = AtomicU64::new(0);
    // Two poison flags, split by the phase of the window protocol that may
    // set them. A single flag would race: a thread panicking in the run
    // phase sets it *between* the two barriers, so a slow sibling could
    // observe it at the post-barrier-1 checkpoint while a fast sibling
    // (which checked before the write landed) is already committed to
    // waiting at barrier 2 — and the barriers deadlock. With the split,
    // each flag is only read at a checkpoint that is barrier-separated from
    // every write site of that flag, so the value is frozen there and all
    // threads take the same branch.
    //
    // * `poison_inject` — set during the inject/boundary phase (between
    //   barrier 2 of the previous window and barrier 1); read only at the
    //   post-barrier-1 checkpoint.
    // * `poison_run` — set during the run/publish phase (between barrier 1
    //   and barrier 2); read only at the top-of-window checkpoint (after
    //   barrier 2).
    let poison_inject = AtomicBool::new(false);
    let poison_run = AtomicBool::new(false);
    let first_panic: Mutex<Option<ShardError>> = Mutex::new(None);

    let record_panic = |flag: &AtomicBool, shard: usize, payload: Box<dyn std::any::Any + Send>| {
        flag.store(true, Ordering::Release);
        let mut slot = first_panic.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(ShardError {
                shard,
                message: panic_message(payload.as_ref()),
            });
        }
    };

    let mut results: Vec<Option<Verdict>> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (d, domain) in domains.iter_mut().enumerate() {
            let rings = &rings;
            let barrier = &barrier;
            let idle = &idle;
            let completions = &completions;
            let total_events = &total_events;
            let total_envelopes = &total_envelopes;
            let poison_inject = &poison_inject;
            let poison_run = &poison_run;
            let record_panic = &record_panic;
            handles.push(scope.spawn(move || {
                let grid = lookahead.as_nanos();
                let mut w = SimTime::ZERO;
                let mut events = 0u64;
                let mut envelopes = 0u64;
                let mut windows_run = 0u64;
                let mut windows_skipped = 0u64;
                let mut inbound: Vec<Envelope<D::Msg>> = Vec::new();
                // Per-thread scratch, all capacity-recycled across windows:
                // the domain drains into `outgoing`, which is routed into
                // the per-destination `outgoing_bufs`, which the rings
                // consume with an append. Steady state allocates nothing.
                let mut outgoing: Vec<Envelope<D::Msg>> = Vec::new();
                let mut outgoing_bufs: Vec<Vec<Envelope<D::Msg>>> =
                    (0..n).map(|_| Vec::new()).collect();
                let outcome = loop {
                    // Top-of-window checkpoint: barrier 2 of the previous
                    // window separates this read from every `poison_run`
                    // write site, so all threads read the same value here.
                    if poison_run.load(Ordering::Acquire) {
                        break None;
                    }
                    let stop = match catch_unwind(AssertUnwindSafe(|| {
                        rings.drain_into(d, &mut inbound);
                        inbound.sort_unstable_by_key(|e| (e.time, e.src_unit, e.seq));
                        for env in inbound.drain(..) {
                            domain.inject(env);
                        }
                        domain.on_boundary(w);
                        idle[d].store(domain.idle_until().as_nanos(), Ordering::Release);
                        stop_after_completions
                            .is_some_and(|target| completions.load(Ordering::Acquire) >= target)
                    })) {
                        Ok(stop) => stop,
                        Err(payload) => {
                            record_panic(poison_inject, d, payload);
                            false
                        }
                    };
                    barrier.wait();
                    // Post-barrier-1 checkpoint: the barrier separates this
                    // read from every `poison_inject` write site. A
                    // panicking thread reported `stop = false` and left its
                    // `idle` slot stale, so the poison check must come
                    // first to keep the verdict uniform.
                    if poison_inject.load(Ordering::Acquire) {
                        break None;
                    }
                    if stop {
                        break Some((w, true));
                    }
                    // No domain has an event before `quiet`, and nothing is
                    // in flight (the rings were drained above): move to the
                    // grid window that holds it. Every thread reads the same
                    // slots, so every thread makes the same jump.
                    let quiet = idle
                        .iter()
                        .map(|slot| slot.load(Ordering::Acquire))
                        .min()
                        .expect("at least one domain");
                    let next = SimTime::from_nanos(quiet / grid * grid).min(horizon);
                    if next > w {
                        // `w` is on the grid here (only the horizon may be
                        // off it, and `next > w` rules that out).
                        windows_skipped += (next - w).as_nanos().div_ceil(grid);
                        w = next;
                    }
                    if w >= horizon {
                        // Arrivals due exactly at the horizon were injected
                        // above; messages produced now would be due after it.
                        match catch_unwind(AssertUnwindSafe(|| {
                            let e = domain.finish(horizon);
                            // Messages produced at the horizon would be due
                            // after it; drain and discard them.
                            outgoing.clear();
                            domain.drain_outgoing(&mut outgoing);
                            outgoing.clear();
                            e
                        })) {
                            Ok(e) => events += e,
                            Err(payload) => {
                                // Every thread breaks out of the loop on
                                // this branch regardless of the flag, so no
                                // checkpoint reads it — only the final
                                // error check after the join does.
                                record_panic(poison_run, d, payload);
                                break None;
                            }
                        }
                        break Some((horizon, false));
                    }
                    let end = (w + lookahead).min(horizon);
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                        events += domain.run_window(end);
                        let done = domain.take_completions();
                        if done > 0 {
                            completions.fetch_add(done, Ordering::AcqRel);
                        }
                        domain.drain_outgoing(&mut outgoing);
                        envelopes += outgoing.len() as u64;
                        for env in outgoing.drain(..) {
                            outgoing_bufs[unit_domain[env.dst_unit as usize] as usize].push(env);
                        }
                        for (dst, buf) in outgoing_bufs.iter_mut().enumerate() {
                            if !buf.is_empty() {
                                rings.publish(d, dst, buf);
                            }
                        }
                    })) {
                        record_panic(poison_run, d, payload);
                    }
                    windows_run += 1;
                    barrier.wait();
                    w = end;
                };
                total_events.fetch_add(events, Ordering::AcqRel);
                total_envelopes.fetch_add(envelopes, Ordering::AcqRel);
                outcome.map(|(end_time, stopped_early)| Verdict {
                    end_time,
                    stopped_early,
                    windows_run,
                    windows_skipped,
                })
            }));
        }
        for (d, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(outcome) => results.push(outcome),
                // A panic outside the catch_unwind regions (barrier/atomic
                // code) still surfaces as a structured error.
                Err(payload) => {
                    record_panic(&poison_run, d, payload);
                    results.push(None);
                }
            }
        }
    });

    if poison_inject.load(Ordering::Acquire) || poison_run.load(Ordering::Acquire) {
        let err = first_panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .unwrap_or(ShardError {
                shard: 0,
                message: "unknown shard failure".to_string(),
            });
        return Err(err);
    }
    let verdict = results[0].expect("non-poisoned run must have an outcome");
    debug_assert!(results.iter().all(|&r| r == Some(verdict)));
    Ok(ShardStats {
        events_processed: total_events.load(Ordering::Acquire),
        end_time: verdict.end_time,
        stopped_early: verdict.stopped_early,
        windows_run: verdict.windows_run,
        windows_skipped: verdict.windows_skipped,
        envelopes: total_envelopes.load(Ordering::Acquire),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn partitioner_is_deterministic_and_total() {
        let weights: Vec<u64> = (0..37).map(|i| (i * 7919) % 101).collect();
        for domains in 1..=5 {
            let a = partition_units(&weights, domains);
            let b = partition_units(&weights, domains);
            assert_eq!(a, b, "partition must be reproducible");
            assert_eq!(a.len(), weights.len(), "every unit assigned");
            assert!(a.iter().all(|&d| (d as usize) < domains));
            // Every domain gets work when there are enough units.
            if weights.len() >= domains {
                for d in 0..domains as u32 {
                    assert!(a.contains(&d), "domain {d} of {domains} left empty");
                }
            }
        }
    }

    #[test]
    fn partitioner_balances_equal_weights() {
        let weights = vec![1u64; 12];
        let assign = partition_units(&weights, 4);
        for d in 0..4u32 {
            assert_eq!(assign.iter().filter(|&&x| x == d).count(), 3);
        }
    }

    /// The barrier's one promise, over enough generations to release waiters
    /// from a poll, from a yield and from sleep: nobody leaves generation
    /// `g` before everybody has arrived in it.
    #[test]
    fn barrier_separates_generations() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 3_000;
        let barrier = WindowBarrier::new(THREADS);
        let arrivals = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (barrier, arrivals) = (&barrier, &arrivals);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        // One straggler per round, late enough now and then
                        // that its peers have gone to sleep.
                        if round % THREADS == t && round % 64 < 4 {
                            std::thread::sleep(std::time::Duration::from_micros(300));
                        }
                        arrivals.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        let seen = arrivals.load(Ordering::Relaxed);
                        assert!(
                            seen >= (round + 1) * THREADS,
                            "left round {round} after {seen} arrivals"
                        );
                        // Nobody may start round + 2 before this check.
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(arrivals.load(Ordering::Relaxed), ROUNDS * THREADS);
    }

    /// A unit that forwards tokens around a ring of units with a fixed
    /// per-hop latency, counting hops.
    struct Token {
        unit: u32,
        next_unit: u32,
        hop: SimDuration,
        hops_seen: u64,
        seq: u64,
    }

    /// A group of ring units and the tokens waiting at them. A token's
    /// payload is the number of hops it has made.
    #[derive(Default)]
    struct RingDomain {
        units: Vec<Token>,
        queued: Vec<(SimTime, usize, u64)>, // (due, local unit, token)
        outgoing: Vec<Envelope<u64>>,
        /// A token's hop of this number is a completion (0: none ever is).
        complete_at: u64,
        completions: u64,
    }

    impl RingDomain {
        /// Forward every queued token due before `end` (or at it, when
        /// `inclusive`); returns how many.
        fn fire(&mut self, end: SimTime, inclusive: bool) -> u64 {
            self.queued.sort_by_key(|&(t, u, m)| (t, u, m));
            let mut events = 0;
            while let Some(&(t, local, msg)) = self.queued.first() {
                if t > end || (t == end && !inclusive) {
                    break;
                }
                self.queued.remove(0);
                let token = &mut self.units[local];
                token.hops_seen += 1;
                token.seq += 1;
                self.outgoing.push(Envelope {
                    time: t + token.hop,
                    src_unit: token.unit,
                    seq: token.seq,
                    dst_unit: token.next_unit,
                    msg: msg + 1,
                });
                if msg + 1 == self.complete_at {
                    self.completions += 1;
                }
                events += 1;
            }
            events
        }
    }

    impl Domain for RingDomain {
        type Msg = u64;
        fn inject(&mut self, env: Envelope<u64>) {
            let local = self
                .units
                .iter()
                .position(|t| t.unit == env.dst_unit)
                .expect("misrouted");
            self.queued.push((env.time, local, env.msg));
        }
        fn on_boundary(&mut self, _now: SimTime) {}
        fn idle_until(&self) -> SimTime {
            self.queued
                .iter()
                .map(|&(t, _, _)| t)
                .min()
                .unwrap_or(SimTime::MAX)
        }
        fn run_window(&mut self, end: SimTime) -> u64 {
            self.fire(end, false)
        }
        fn finish(&mut self, horizon: SimTime) -> u64 {
            // Inclusive: tokens due exactly at the horizon still count.
            self.fire(horizon, true)
        }
        fn drain_outgoing(&mut self, into: &mut Vec<Envelope<u64>>) {
            into.append(&mut self.outgoing);
        }
        fn take_completions(&mut self) -> u64 {
            std::mem::take(&mut self.completions)
        }
    }

    /// `D` with one of its answers replaced, forwarding the rest.
    struct Wrapped<D> {
        inner: D,
        quirk: Quirk,
        /// xorshift state for [`Quirk::Jitter`].
        rng: u64,
    }

    #[derive(Clone, Copy)]
    enum Quirk {
        None,
        /// Keep the trait's default `idle_until`: promise nothing.
        Blind,
        /// Yield or sleep for a random while inside every `run_window`.
        Jitter,
        /// Panic in `run_window` once the window ends past this time.
        PanicInRun(SimTime),
        /// Panic in `inject` on an arrival due past this time.
        PanicInInject(SimTime),
        /// Panic in `idle_until` once the next event is past this time.
        PanicInIdle(SimTime),
    }

    impl<D: Domain> Domain for Wrapped<D> {
        type Msg = D::Msg;
        fn inject(&mut self, env: Envelope<D::Msg>) {
            if matches!(self.quirk, Quirk::PanicInInject(at) if env.time > at) {
                panic!("injected fault at {:?}", env.time);
            }
            self.inner.inject(env);
        }
        fn on_boundary(&mut self, now: SimTime) {
            self.inner.on_boundary(now);
        }
        fn idle_until(&self) -> SimTime {
            let idle = self.inner.idle_until();
            match self.quirk {
                Quirk::Blind => SimTime::ZERO,
                // `MAX` is "no event": only a real one trips the fault.
                Quirk::PanicInIdle(at) if idle > at && idle < SimTime::MAX => {
                    panic!("injected fault at {idle:?}")
                }
                _ => idle,
            }
        }
        fn run_window(&mut self, end: SimTime) -> u64 {
            match self.quirk {
                Quirk::PanicInRun(at) if end > at => panic!("injected fault at {end:?}"),
                Quirk::Jitter => {
                    self.rng ^= self.rng << 13;
                    self.rng ^= self.rng >> 7;
                    self.rng ^= self.rng << 17;
                    match self.rng % 8 {
                        0 => std::thread::sleep(std::time::Duration::from_micros(
                            20 + self.rng / 8 % 200,
                        )),
                        1..=3 => (0..self.rng / 8 % 6).for_each(|_| std::thread::yield_now()),
                        _ => {}
                    }
                }
                _ => {}
            }
            self.inner.run_window(end)
        }
        fn finish(&mut self, horizon: SimTime) -> u64 {
            self.inner.finish(horizon)
        }
        fn drain_outgoing(&mut self, into: &mut Vec<Envelope<D::Msg>>) {
            self.inner.drain_outgoing(into);
        }
        fn take_completions(&mut self) -> u64 {
            self.inner.take_completions()
        }
    }

    /// A ring to run: unit `u` forwards to `u + 1` after `hops[u]`; each
    /// token starts at a unit at a time.
    #[derive(Clone)]
    struct Ring {
        hops: Vec<SimDuration>,
        tokens: Vec<(usize, SimTime)>,
        lookahead: SimDuration,
        horizon: SimTime,
        /// `(hop number that completes a token, completions to stop at)`.
        stop: Option<(u64, u64)>,
    }

    impl Ring {
        /// `units` units, 1 ms per hop and per window, one token at unit 0.
        fn uniform(units: usize, horizon_ms: u64) -> Self {
            let hop = SimDuration::from_millis(1);
            Ring {
                hops: vec![hop; units],
                tokens: vec![(0, SimTime::ZERO)],
                lookahead: hop,
                horizon: SimTime::from_millis(horizon_ms),
                stop: None,
            }
        }

        /// Run over `unit_domain`, every domain wrapped with the quirk
        /// `quirk_of` gives it. Returns per-unit hop counts and the stats.
        fn run(
            &self,
            unit_domain: &[u32],
            quirk_of: impl Fn(usize) -> Quirk,
        ) -> Result<(Vec<u64>, ShardStats), ShardError> {
            let units = self.hops.len();
            let domains = unit_domain.iter().max().map_or(0, |&d| d as usize + 1);
            let mut doms: Vec<Wrapped<RingDomain>> = (0..domains)
                .map(|d| Wrapped {
                    inner: RingDomain {
                        complete_at: self.stop.map_or(0, |(hop, _)| hop),
                        ..Default::default()
                    },
                    quirk: quirk_of(d),
                    rng: 0x9E37_79B9_7F4A_7C15 ^ (d as u64 + 1),
                })
                .collect();
            for (u, &hop) in self.hops.iter().enumerate() {
                doms[unit_domain[u] as usize].inner.units.push(Token {
                    unit: u as u32,
                    next_unit: ((u + 1) % units) as u32,
                    hop,
                    hops_seen: 0,
                    seq: 0,
                });
            }
            for &(u, at) in &self.tokens {
                let dom = &mut doms[unit_domain[u] as usize].inner;
                let local = dom.units.iter().position(|t| t.unit == u as u32).unwrap();
                dom.queued.push((at, local, 0));
            }
            let stats = run_sharded(
                &mut doms,
                unit_domain,
                self.lookahead,
                self.horizon,
                self.stop.map(|(_, target)| target),
            )?;
            let mut hops = vec![0u64; units];
            for d in doms {
                for t in d.inner.units {
                    hops[t.unit as usize] = t.hops_seen;
                }
            }
            Ok((hops, stats))
        }

        fn run_plain(&self, domains: usize) -> (Vec<u64>, ShardStats) {
            let unit_domain = partition_units(&vec![1; self.hops.len()], domains);
            self.run(&unit_domain, |_| Quirk::None)
                .expect("ring run must not fail")
        }
    }

    #[test]
    fn ring_token_is_grouping_invariant() {
        let ring = Ring::uniform(6, 50);
        let serial = ring.run_plain(1);
        for domains in 2..=4 {
            let parallel = ring.run_plain(domains);
            assert_eq!(serial.0, parallel.0, "{domains} domains diverged");
            assert_eq!(serial.1, parallel.1, "stats diverged at {domains} domains");
        }
        // 6 units, 1 ms per hop, horizon 50 ms inclusive: 51 hops total, the
        // last one in `finish`; every window holds a hop, so none is skipped.
        assert_eq!(serial.0.iter().sum::<u64>(), 51);
        assert_eq!(
            (serial.1.windows_run, serial.1.windows_skipped),
            (50, 0),
            "{:?}",
            serial.1
        );
        assert_eq!(serial.1.envelopes, 50);
    }

    #[test]
    fn barrier_survives_schedule_perturbation() {
        // Four domain threads (more than a CI runner has cores), each
        // dawdling at random inside its windows, so waiters are released
        // from a poll, from a yield and from sleep in every mix.
        let mut ring = Ring::uniform(8, 400);
        ring.tokens = (0..8)
            .map(|u| (u, SimTime::from_micros(u as u64)))
            .collect();
        let calm = ring.run_plain(4);
        let unit_domain = partition_units(&[1; 8], 4);
        let shaken = ring
            .run(&unit_domain, |_| Quirk::Jitter)
            .expect("jitter is not a failure");
        assert_eq!(calm, shaken);
    }

    #[test]
    fn shard_panic_surfaces_as_error_without_deadlock() {
        // 4 units over 3 domains; the domain owning unit 1 blows up a few
        // windows in — in the run phase, and in either half of the inject
        // phase. Without panic capture the sibling threads would wait
        // forever at the lockstep barrier and this test would hang.
        let mut ring = Ring::uniform(4, 1000);
        ring.tokens.push((2, SimTime::from_micros(300)));
        let at = SimTime::from_millis(5);
        for fault in [
            Quirk::PanicInRun(at),
            Quirk::PanicInInject(at),
            Quirk::PanicInIdle(at),
        ] {
            let err = ring
                .run(&[0, 1, 2, 0], |d| if d == 1 { fault } else { Quirk::None })
                .expect_err("panicking domain must produce an error");
            assert_eq!(err.shard, 1);
            assert!(
                err.message.contains("injected fault"),
                "payload lost: {}",
                err.message
            );
            // The error must also format usefully.
            let text = err.to_string();
            assert!(text.contains("shard 1"), "{text}");
        }
    }

    #[test]
    fn single_domain_panic_is_an_error_too() {
        let at = SimTime::from_millis(2);
        let err = Ring::uniform(1, 1000)
            .run(&[0], |_| Quirk::PanicInRun(at))
            .expect_err("must error");
        assert_eq!(err.shard, 0);
    }

    proptest! {
        /// Skipping is invisible: on sparse rings — hops of five to fifty
        /// windows, off the grid — a run that skips empty windows and one
        /// whose domains hide `idle_until` (so every grid window runs) end
        /// in the same state, and the skipped windows are exactly the ones
        /// the second run found empty.
        #[test]
        fn skipping_empty_windows_is_invisible(
            hops in prop::collection::vec(50_000u64..500_000, 2..7),
            tokens in prop::collection::vec((0usize..6, 0u64..1_000_000), 1..5),
            domains in 1usize..5,
            horizon_ns in 1_000_000u64..4_000_000,
            stop in (any::<bool>(), 2u64..6, 1u64..4),
        ) {
            let units = hops.len();
            let ring = Ring {
                hops: hops.into_iter().map(SimDuration::from_nanos).collect(),
                tokens: tokens
                    .into_iter()
                    .map(|(u, at)| (u % units, SimTime::from_nanos(at)))
                    .collect(),
                lookahead: SimDuration::from_micros(10),
                horizon: SimTime::from_nanos(horizon_ns),
                stop: stop.0.then_some((stop.1, stop.2)),
            };
            let unit_domain = partition_units(&vec![1; units], domains.min(units));
            let (hops_skip, skip) = ring.run(&unit_domain, |_| Quirk::None).expect("ring run");
            let (hops_grid, grid) = ring
                .run(&unit_domain, |_| Quirk::Blind)
                .expect("ring run");
            prop_assert_eq!(hops_skip, hops_grid);
            prop_assert_eq!(grid.windows_skipped, 0);
            let walk = if grid.stopped_early {
                grid.end_time.as_nanos() / 10_000
            } else {
                horizon_ns.div_ceil(10_000)
            };
            prop_assert_eq!(grid.windows_run, walk);
            // At most four tokens, each in at most one window of any five.
            prop_assert!(skip.stopped_early || skip.windows_skipped > 0, "{skip:?}");
            prop_assert_eq!(
                ShardStats {
                    windows_run: skip.windows_run + skip.windows_skipped,
                    windows_skipped: 0,
                    ..skip
                },
                grid
            );
            // The counts do not depend on the grouping either.
            let (_, serial) = ring.run(&vec![0; units], |_| Quirk::None).expect("ring run");
            prop_assert_eq!(serial, skip);
        }
    }
}
