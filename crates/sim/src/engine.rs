//! The discrete-event engine: a model, a clock and the pending-event queue.
//!
//! The engine follows the classic ns-2 style: the model owns *all* simulation
//! state, and handling an event may schedule further events through the
//! [`Scheduler`] handle. The engine never inspects event payloads; it only
//! guarantees causal, deterministic ordering.
//!
//! # Event order
//!
//! Events fire in `(time, scheduling unit, per-unit sequence)` order. A
//! *unit* is an island of model state whose handlers only ever schedule
//! events for itself (a model that declares none is one unit, unit 0, and its
//! ties fire in insertion order). Every event the engine schedules is tagged
//! [`event_tag`]`(unit, seq)` with the unit that scheduled it and that unit's
//! own counter; a handler's schedules are stamped with the unit of the event
//! being dispatched, read back from its tag. The one event that changes
//! hands — a message from one unit to another — keeps its sender's tag and
//! names the receiver itself ([`Scheduler::enter`]). The order of a unit's
//! events is therefore a function of the model alone, whichever other units
//! share the engine.

use crate::queue::{event_tag, tag_unit, EventQueue, QueueCounters, MAX_UNITS};
use crate::time::{SimDuration, SimTime};

/// Scheduling interface handed to the model while it processes an event.
pub struct Scheduler<'a, E> {
    now: SimTime,
    /// Unit whose counter stamps this handler's schedules.
    unit: u32,
    queue: &'a mut EventQueue<E>,
    unit_seq: &'a mut [u64],
    stop_requested: &'a mut bool,
}

/// Take `unit`'s next tag.
#[inline]
fn stamp(unit_seq: &mut [u64], unit: u32) -> u64 {
    let seq = &mut unit_seq[unit as usize];
    let tag = event_tag(unit, *seq);
    *seq += 1;
    tag
}

impl<'a, E> Scheduler<'a, E> {
    /// The current simulation time (the timestamp of the event being handled).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The event being handled was a message to `unit` (it carries its
    /// sender's tag): stamp this handler's schedules as `unit`'s.
    #[inline]
    pub fn enter(&mut self, unit: u32) {
        self.unit = unit;
    }

    /// Schedule an event at an absolute time. Must not be in the past.
    ///
    /// `#[inline]` (and on [`Scheduler::after`]): a handler builds its
    /// follow-up event in registers, and every call the event crosses on its
    /// way to the queue slot spills it field by field to reload it whole — a
    /// store-forwarding stall per schedule. The hint lets these two wrappers
    /// fold into the handler; `inline(always)` was measured and loses to its
    /// own code size (every cold call site pays too).
    #[inline]
    pub fn at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: now={:?} requested={:?}",
            self.now,
            time
        );
        self.schedule(time, event)
    }

    /// Schedule an event `delay` after the current time.
    #[inline]
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.schedule(self.now + delay, event)
    }

    #[inline]
    fn schedule(&mut self, time: SimTime, event: E) {
        let tag = stamp(self.unit_seq, self.unit);
        self.queue.schedule_tagged(time, tag, event);
    }

    /// Ask the engine to stop after the current event completes.
    pub fn request_stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// A simulation model: the closed world of state that events act upon.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle one event at its scheduled time.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);
}

/// Statistics about an engine run, for sanity checks and perf reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of events dispatched to the model.
    pub events_processed: u64,
    /// Simulated time at which the run stopped.
    pub end_time: SimTime,
    /// True if the run ended because the event queue drained.
    pub drained: bool,
    /// True if the model requested an early stop.
    pub stopped_by_model: bool,
    /// True if the run ended because the lifetime [`Engine::event_budget`]
    /// was exhausted (the watchdog fired).
    pub budget_exhausted: bool,
}

/// The discrete-event simulation engine.
pub struct Engine<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    /// Next sequence number of each scheduling unit.
    unit_seq: Vec<u64>,
    now: SimTime,
    events_processed: u64,
    /// The watchdog: when set, [`Engine::run_until`] stops once the
    /// engine's *lifetime* event count reaches the budget and reports it via
    /// [`RunStats::budget_exhausted`], so an un-completable run ends
    /// gracefully and its partial results can still be reported.
    pub event_budget: Option<u64>,
}

impl<M: Model> Engine<M> {
    /// Create an engine at t = 0 around `model`, a single scheduling unit.
    pub fn new(model: M) -> Self {
        Engine::with_units(model, 1)
    }

    /// [`Engine::new`] for a model of `units` scheduling units (module
    /// docs); unit ids are `0..units`, whether or not this engine will ever
    /// dispatch an event of each.
    pub fn with_units(model: M, units: usize) -> Self {
        assert!(units <= MAX_UNITS, "{units} units do not fit an event tag");
        Engine {
            model,
            queue: EventQueue::new(),
            unit_seq: vec![0; units.max(1)],
            now: SimTime::ZERO,
            events_processed: 0,
            event_budget: None,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (for pre-run configuration and post-run
    /// inspection; mutating mid-run between runs is allowed and is how
    /// external drivers inject work).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consume the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Schedule an initial event before (or between) runs, as unit 0's.
    pub fn schedule_at(&mut self, time: SimTime, event: M::Event) {
        self.schedule_for(0, time, event);
    }

    /// [`Engine::schedule_at`] as `unit`'s event.
    pub fn schedule_for(&mut self, unit: u32, time: SimTime, event: M::Event) {
        let tag = stamp(&mut self.unit_seq, unit);
        self.schedule_tagged(time, tag, event);
    }

    /// Schedule a message that arrived from a unit this engine does not
    /// run, under the tag its sender gave it; the handler names the
    /// receiving unit ([`Scheduler::enter`]).
    pub fn schedule_tagged(&mut self, time: SimTime, tag: u64, event: M::Event) {
        assert!(time >= self.now, "cannot schedule into the past");
        self.queue.schedule_tagged(time, tag, event);
    }

    /// Time of the earliest pending event, if any. Read-only: the queue is
    /// left exactly as it was (this is what a windowed driver asks at every
    /// boundary to find the next window worth running).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// The event queue's activity counters (schedules, pops, wheel-vs-heap
    /// placement, migrations, cancels). Always maintained; reading them
    /// costs nothing beyond this copy.
    pub fn queue_counters(&self) -> QueueCounters {
        self.queue.counters()
    }

    /// Bytes the engine holds on the heap beside its model: the event
    /// queue ([`EventQueue::heap_bytes`]) and the per-unit sequence numbers.
    pub fn heap_bytes(&self) -> usize {
        self.queue.heap_bytes() + self.unit_seq.capacity() * size_of::<u64>()
    }

    /// Dispatch one already-popped event. Returns false if the model
    /// requested a stop.
    #[inline]
    fn dispatch(&mut self, time: SimTime, tag: u64, event: M::Event) -> bool {
        debug_assert!(time >= self.now, "event queue violated causality");
        self.now = time;
        self.events_processed += 1;
        let mut stop = false;
        let mut sched = Scheduler {
            now: self.now,
            unit: tag_unit(tag),
            queue: &mut self.queue,
            unit_seq: &mut self.unit_seq,
            stop_requested: &mut stop,
        };
        self.model.handle(event, &mut sched);
        !stop
    }

    /// Run until the queue drains, the model requests a stop, or the horizon
    /// is passed. Events scheduled exactly at `horizon` still fire.
    pub fn run_until(&mut self, horizon: SimTime) -> RunStats {
        let start_events = self.events_processed;
        let mut drained = false;
        let mut stopped_by_model = false;
        let mut budget_exhausted = false;
        loop {
            if self
                .event_budget
                .is_some_and(|b| self.events_processed >= b)
            {
                // Only report exhaustion while in-horizon work remains (the
                // cold path, so the extra peek costs nothing in steady state).
                match self.queue.peek_time() {
                    None => drained = true,
                    Some(t) if t > horizon => {}
                    Some(_) => budget_exhausted = true,
                }
                break;
            }
            // The bounded pop fuses the peek-then-pop pair into one bucket
            // scan — the hot loop touches the cursor bucket exactly once per
            // event.
            let Some((time, tag, event)) = self.queue.pop_at_or_before(horizon) else {
                drained = self.queue.is_empty();
                break;
            };
            if !self.dispatch(time, tag, event) {
                stopped_by_model = true;
                break;
            }
        }
        // Advance the clock to the horizon so rate computations over the whole
        // window are well-defined even if the last event fired earlier. A
        // budget-truncated run keeps its clock at the last dispatched event:
        // the simulated span really did end there.
        if !stopped_by_model && !budget_exhausted && self.now < horizon && horizon != SimTime::MAX {
            self.now = horizon;
        }
        RunStats {
            events_processed: self.events_processed - start_events,
            end_time: self.now,
            drained,
            stopped_by_model,
            budget_exhausted,
        }
    }

    /// Run until the queue drains or the model stops.
    pub fn run_to_completion(&mut self) -> RunStats {
        self.run_until(SimTime::MAX)
    }

    /// Process every event strictly before `end`, leaving the clock at the
    /// last fired event. Returns the number of events processed.
    ///
    /// This is the inner step of the sharded executor's lookahead window
    /// `[start, end)`: unlike [`Engine::run_until`] the bound is exclusive
    /// and the clock is *not* advanced to `end`, so events injected later at
    /// exactly `end` (cross-shard arrivals) still satisfy the monotonicity
    /// assert in [`Engine::schedule_at`].
    pub fn run_window(&mut self, end: SimTime) -> u64 {
        let start_events = self.events_processed;
        while let Some((time, tag, event)) = self.queue.pop_before(end) {
            if !self.dispatch(time, tag, event) {
                break;
            }
        }
        self.events_processed - start_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that re-schedules itself `remaining` times at a fixed period.
    struct Ticker {
        period: SimDuration,
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    impl Model for Ticker {
        type Event = ();
        fn handle(&mut self, _ev: (), sched: &mut Scheduler<'_, ()>) {
            self.fired_at.push(sched.now());
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.after(self.period, ());
            }
        }
    }

    #[test]
    fn periodic_self_scheduling() {
        let mut eng = Engine::new(Ticker {
            period: SimDuration::from_millis(10),
            remaining: 4,
            fired_at: vec![],
        });
        eng.schedule_at(SimTime::ZERO, ());
        let stats = eng.run_to_completion();
        assert!(stats.drained);
        assert_eq!(stats.events_processed, 5);
        let times: Vec<u64> = eng
            .model()
            .fired_at
            .iter()
            .map(|t| t.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(times, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn horizon_cuts_run_and_advances_clock() {
        let mut eng = Engine::new(Ticker {
            period: SimDuration::from_millis(10),
            remaining: 1000,
            fired_at: vec![],
        });
        eng.schedule_at(SimTime::ZERO, ());
        let stats = eng.run_until(SimTime::from_millis(35));
        assert!(!stats.drained);
        // Events at 0, 10, 20, 30 fire; 40 is beyond the horizon.
        assert_eq!(stats.events_processed, 4);
        assert_eq!(eng.now(), SimTime::from_millis(35));
        // Continuing picks up where we left off.
        let stats2 = eng.run_until(SimTime::from_millis(55));
        assert_eq!(stats2.events_processed, 2); // 40, 50
    }

    #[test]
    fn run_window_is_exclusive_and_keeps_clock() {
        let mut eng = Engine::new(Ticker {
            period: SimDuration::from_millis(10),
            remaining: 1000,
            fired_at: vec![],
        });
        eng.schedule_at(SimTime::ZERO, ());
        // Window [0, 30): events at 0, 10, 20 fire; 30 waits.
        assert_eq!(eng.run_window(SimTime::from_millis(30)), 3);
        assert_eq!(eng.now(), SimTime::from_millis(20));
        // An injection at exactly the window boundary is legal; the ticker
        // chain and the injected chain each fire at 30, 40, 50.
        eng.schedule_at(SimTime::from_millis(30), ());
        assert_eq!(eng.run_window(SimTime::from_millis(60)), 6);
        assert_eq!(eng.now(), SimTime::from_millis(50));
    }

    /// Three units. An event is `(unit it belongs to, label)`; handling
    /// label 0 makes the unit schedule two follow-ups for the same instant
    /// and send one message to the next unit, due at that instant too.
    struct Units {
        fired: Vec<(u32, u32)>,
    }

    impl Model for Units {
        type Event = (u32, u32);
        fn handle(&mut self, (unit, label): (u32, u32), sched: &mut Scheduler<'_, (u32, u32)>) {
            // A message carries its sender's tag; the receiver says whose
            // the follow-ups are.
            sched.enter(unit);
            self.fired.push((unit, label));
            if label == 0 {
                let at = SimTime::from_millis(1);
                sched.at(at, (unit, 1));
                sched.at(at, ((unit + 1) % 3, 9));
                sched.at(at, (unit, 2));
            } else if label == 9 {
                sched.after(SimDuration::ZERO, (unit, 10));
            }
        }
    }

    #[test]
    fn ties_fire_by_unit_then_by_that_units_sequence() {
        // Seeded in the order 2, 0, 1 — which must not matter.
        let run = |seed_order: [u32; 3]| {
            let mut eng = Engine::with_units(Units { fired: vec![] }, 3);
            for unit in seed_order {
                eng.schedule_for(unit, SimTime::ZERO, (unit, 0));
            }
            eng.run_to_completion();
            eng.into_model().fired
        };
        let fired = run([2, 0, 1]);
        assert_eq!(fired, run([0, 1, 2]));
        assert_eq!(fired[..3], [(0, 0), (1, 0), (2, 0)]);
        // At 1 ms, by sender tag: unit 0's three schedules in the order it
        // made them (the middle one is unit 1's message), then unit 1's,
        // then unit 2's. A message's own follow-up is stamped as the
        // receiver's: unit 1's (1, 10) sorts behind everything unit 0 sent
        // but ahead of unit 2's schedules, and unit 0's (0, 10) — made last
        // of all — still fires before the events of units 1 and 2 that are
        // pending beside it.
        assert_eq!(
            fired[3..],
            [
                (0, 1),
                (1, 9),
                (0, 2),
                (1, 1),
                (2, 9),
                (1, 2),
                (1, 10),
                (2, 1),
                (0, 9),
                (0, 10),
                (2, 2),
                (2, 10),
            ]
        );
    }

    struct Stopper {
        stop_on: u32,
        count: u32,
    }
    impl Model for Stopper {
        type Event = u32;
        fn handle(&mut self, ev: u32, sched: &mut Scheduler<'_, u32>) {
            self.count += 1;
            if ev == self.stop_on {
                sched.request_stop();
            } else {
                sched.after(SimDuration::from_nanos(1), ev + 1);
            }
        }
    }

    #[test]
    fn model_can_stop_the_run() {
        let mut eng = Engine::new(Stopper {
            stop_on: 5,
            count: 0,
        });
        eng.schedule_at(SimTime::ZERO, 0);
        let stats = eng.run_to_completion();
        assert!(stats.stopped_by_model);
        assert_eq!(eng.model().count, 6);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, _: (), sched: &mut Scheduler<'_, ()>) {
                sched.at(SimTime::ZERO, ());
            }
        }
        let mut eng = Engine::new(Bad);
        eng.schedule_at(SimTime::from_secs(1), ());
        eng.run_to_completion();
    }

    #[test]
    fn event_budget_truncates_gracefully() {
        let mut eng = Engine::new(Ticker {
            period: SimDuration::from_millis(1),
            remaining: u32::MAX,
            fired_at: vec![],
        });
        eng.event_budget = Some(100);
        eng.schedule_at(SimTime::ZERO, ());
        let stats = eng.run_until(SimTime::from_secs(10));
        assert!(stats.budget_exhausted);
        assert!(!stats.drained);
        assert!(!stats.stopped_by_model);
        assert_eq!(stats.events_processed, 100);
        // The clock stays at the last dispatched event, not the horizon.
        assert_eq!(eng.now(), SimTime::from_millis(99));
        // The budget is a lifetime total: a resumed run stops immediately.
        let stats2 = eng.run_until(SimTime::from_secs(10));
        assert!(stats2.budget_exhausted);
        assert_eq!(stats2.events_processed, 0);
    }
}
