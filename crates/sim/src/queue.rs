//! The pending-event queue at the heart of the discrete-event engine.
//!
//! Events are ordered by `(time, sequence)`. The sequence number is a strictly
//! increasing insertion counter, so events scheduled for the same instant fire
//! in insertion order. That tie-break rule is what makes whole-simulation runs
//! bit-exact reproducible, which the experiment harness depends on.
//!
//! # Implementation: calendar wheel over a slot slab
//!
//! A paper-testbed run dispatches ~10^6 events, so the queue is the hottest
//! structure in the simulator. Pending events live in a slab of reusable
//! slots; ordering is kept by a single-revolution calendar wheel — a ring of
//! `WHEEL_BUCKETS` buckets of `GRANULE_NANOS` each, covering a sliding
//! window of roughly 134 ms — with a binary heap as the fallback for events
//! beyond the wheel horizon (retransmission timers and the like). Bucket
//! membership is a plain `Vec` of `(time, seq, slot)` entries; future
//! buckets are append-only and sorted wholesale when the cursor reaches
//! them, so scheduling is O(1) and only the bucket being consumed pays for
//! order.
//!
//! Cancellation is O(1) to *validate* (a slot-index probe plus a sequence
//! check — no hashing) and O(1) to *perform*: the event's slot is freed
//! immediately but its bucket (or far-heap) entry stays behind as a
//! tombstone, swept by a generation check when the pop cursor reaches it.
//! [`EventQueue::len`] is always exact — the live count is decremented at
//! cancel time, not at sweep time.
//!
//! The pop path consumes the cursor bucket through a moving head offset
//! (`cursor_head`) instead of `Vec::remove(0)`, so a bucket of depth *k* is
//! drained with zero memmoves and its allocation is reused for the next
//! revolution. [`EventQueue::pop_at_or_before`] fuses the engine's
//! peek-then-pop pair into one bucket scan.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Number of buckets in the calendar wheel (one revolution).
const WHEEL_BUCKETS: usize = 8192;
/// Width of one bucket in nanoseconds (~16 µs). The paper testbed schedules
/// an event every ~16 µs on average; the 10k-flow dumbbell clusters ~8× as
/// many into the same span, so the finer granule keeps the cursor bucket —
/// the only one inserts must keep sorted — shallow in both regimes.
const GRANULE_NANOS: u64 = 1 << 14;
/// Time span covered by one wheel revolution.
const HORIZON_NANOS: u64 = WHEEL_BUCKETS as u64 * GRANULE_NANOS;
/// Free-list terminator / "no slot" marker.
const NIL: u32 = u32::MAX;

/// Handle to a scheduled event, usable for cancellation.
///
/// Carries the event's globally unique sequence number plus its slab slot, so
/// cancellation validates in O(1) (slot probe + sequence comparison) instead
/// of hashing into a tombstone set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

/// Where a live slot currently resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// Free-list member; the payload is the next free slot (or [`NIL`]).
    Free(u32),
    /// In wheel bucket `idx`.
    Bucket(u32),
    /// In the far-future fallback heap.
    Far,
}

struct Slot<E> {
    /// Sequence number of the occupying event; stale for free slots. Acts as
    /// the generation check: an [`EventId`] is live iff its `seq` matches.
    seq: u64,
    time: SimTime,
    loc: Loc,
    event: Option<E>,
}

/// A bucket entry: the sort key is carried inline so ordering, liveness
/// checks and tombstone sweeps never dereference the slab. Entries outlive
/// their event (lazy cancellation), which is safe exactly because the key is
/// self-contained.
#[derive(Debug, Clone, Copy)]
struct WheelEntry {
    time_ns: u64,
    seq: u64,
    slot: u32,
}

/// Cheap always-on activity counters, one per queue. Plain unconditional
/// `u64` increments on paths that already touch the same cache lines —
/// branch-free whether or not anyone reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueCounters {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Live events removed through the pop path.
    pub pops: u64,
    /// Events placed directly into a wheel bucket at schedule time.
    pub placed_wheel: u64,
    /// Events that overflowed to the far-future heap at schedule time.
    pub placed_far: u64,
    /// Far-heap events migrated into the wheel as the window advanced.
    pub far_migrations: u64,
    /// Live events cancelled before firing.
    pub cancelled: u64,
    /// Dead (cancelled) entries swept past by pops, peeks and heap cleaning.
    pub tombstones_swept: u64,
}

impl QueueCounters {
    /// Fraction of scheduled events that went straight into the wheel
    /// (vs overflowing to the far heap). 1.0 for an idle queue.
    pub fn wheel_hit_rate(&self) -> f64 {
        if self.scheduled == 0 {
            1.0
        } else {
            self.placed_wheel as f64 / self.scheduled as f64
        }
    }

    /// Dead entries swept per successful pop. 0.0 for an idle queue.
    pub fn tombstone_ratio(&self) -> f64 {
        if self.pops == 0 {
            0.0
        } else {
            self.tombstones_swept as f64 / self.pops as f64
        }
    }

    /// Accumulate another queue's counters (used when a sharded run merges
    /// its per-domain engines).
    pub fn merge(&mut self, other: &QueueCounters) {
        self.scheduled += other.scheduled;
        self.pops += other.pops;
        self.placed_wheel += other.placed_wheel;
        self.placed_far += other.placed_far;
        self.far_migrations += other.far_migrations;
        self.cancelled += other.cancelled;
        self.tombstones_swept += other.tombstones_swept;
    }
}

/// Far-heap entry: ordering only, payload stays in the slab.
struct Far {
    time: SimTime,
    seq: u64,
    slot: u32,
}

// Max-heap with reversed comparisons pops the earliest (time, seq) first.
impl PartialEq for Far {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Far {}
impl PartialOrd for Far {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Far {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A time-ordered queue of future events.
///
/// Near-future events (within ~134 ms of the wheel cursor) sit in calendar
/// buckets; far-future events overflow to a heap and migrate into the wheel
/// as the cursor advances. Pop order is exactly ascending `(time, seq)`.
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    free_head: u32,
    /// `buckets[(t / GRANULE) % WHEEL_BUCKETS]`, each sorted ascending by
    /// `(time, seq)`. The cursor bucket additionally absorbs any event at or
    /// before the current granule, so its first live entry is the global
    /// minimum. Entries may be tombstones (cancelled events); liveness is a
    /// slab generation check.
    buckets: Vec<Vec<WheelEntry>>,
    /// Bucket index the wheel window starts at; always equals
    /// `(wheel_start / GRANULE) % WHEEL_BUCKETS`.
    cursor: usize,
    /// Consumed prefix of the cursor bucket: entries below this offset have
    /// been popped or swept. Only the cursor bucket is ever partially
    /// consumed; it is cleared (capacity kept) when the prefix reaches the
    /// end.
    cursor_head: usize,
    /// Lower bound (nanos, granule-aligned) of the cursor bucket.
    wheel_start: u64,
    far: BinaryHeap<Far>,
    /// Live events resident in wheel buckets.
    in_wheel: usize,
    /// All live events (wheel + far).
    live: usize,
    next_seq: u64,
    counters: QueueCounters,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free_head: NIL,
            buckets: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            cursor: 0,
            cursor_head: 0,
            wheel_start: 0,
            far: BinaryHeap::new(),
            in_wheel: 0,
            live: 0,
            next_seq: 0,
            counters: QueueCounters::default(),
        }
    }

    fn alloc_slot(&mut self, seq: u64, time: SimTime, event: E) -> u32 {
        if self.free_head != NIL {
            let slot = self.free_head;
            let s = &mut self.slots[slot as usize];
            let Loc::Free(next) = s.loc else {
                unreachable!("free list head not free");
            };
            self.free_head = next;
            s.seq = seq;
            s.time = time;
            s.event = Some(event);
            slot
        } else {
            let slot = u32::try_from(self.slots.len()).expect("slot index overflow");
            self.slots.push(Slot {
                seq,
                time,
                loc: Loc::Free(NIL),
                event: Some(event),
            });
            slot
        }
    }

    fn free_slot(&mut self, slot: u32) -> E {
        let s = &mut self.slots[slot as usize];
        let event = s.event.take().expect("freeing empty slot");
        s.loc = Loc::Free(self.free_head);
        self.free_head = slot;
        event
    }

    /// True if a bucket entry still refers to a live event. Sequence numbers
    /// are never reused, so a matching `seq` identifies the exact event; the
    /// location check rejects a cancelled-but-not-yet-reused slot (freeing
    /// keeps the stale `seq` behind).
    #[inline]
    fn entry_live(&self, e: &WheelEntry) -> bool {
        let s = &self.slots[e.slot as usize];
        s.seq == e.seq && matches!(s.loc, Loc::Bucket(_))
    }

    /// Insert `slot` into bucket `idx`. Future buckets are append-only
    /// (unsorted) and sorted once, wholesale, when the cursor arrives —
    /// O(1) per insert instead of a memmove per insert. Only the cursor
    /// bucket, which is being consumed in order, takes a sorted insert.
    fn bucket_insert(&mut self, idx: usize, slot: u32) {
        self.slots[slot as usize].loc = Loc::Bucket(idx as u32);
        let entry = WheelEntry {
            time_ns: self.slots[slot as usize].time.as_nanos(),
            seq: self.slots[slot as usize].seq,
            slot,
        };
        let bucket = &mut self.buckets[idx];
        if idx == self.cursor {
            // The consumed prefix stays put; an overdue event must still land
            // after what already fired.
            let key = (entry.time_ns, entry.seq);
            let start = self.cursor_head;
            let pos = start + bucket[start..].partition_point(|e| (e.time_ns, e.seq) < key);
            bucket.insert(pos, entry);
        } else {
            bucket.push(entry);
        }
        self.in_wheel += 1;
    }

    /// Establish the cursor bucket's sort order on arrival. `seq` is unique,
    /// so `(time, seq)` is a total order and the unstable sort is
    /// deterministic. Tombstones from earlier revolutions carry older
    /// timestamps and sort to the front, where the sweep removes them first.
    fn sort_cursor_bucket(&mut self) {
        debug_assert_eq!(self.cursor_head, 0);
        self.buckets[self.cursor].sort_unstable_by_key(|e| (e.time_ns, e.seq));
    }

    /// The bucket an in-window timestamp belongs to: the cursor bucket for
    /// anything at or before the current granule (including overdue times),
    /// the modular granule bucket otherwise. Callers must have checked
    /// `t < wheel_start + HORIZON`.
    fn in_window_bucket(&self, t: u64) -> usize {
        debug_assert!(t < self.wheel_start.saturating_add(HORIZON_NANOS));
        if t < self.wheel_start.saturating_add(GRANULE_NANOS) {
            self.cursor
        } else {
            ((t / GRANULE_NANOS) % WHEEL_BUCKETS as u64) as usize
        }
    }

    /// Route a freshly allocated slot to its wheel bucket or the far heap.
    fn place(&mut self, slot: u32) {
        let t = self.slots[slot as usize].time.as_nanos();
        if t < self.wheel_start.saturating_add(HORIZON_NANOS) {
            let idx = self.in_window_bucket(t);
            self.bucket_insert(idx, slot);
            self.counters.placed_wheel += 1;
        } else {
            let s = &mut self.slots[slot as usize];
            s.loc = Loc::Far;
            self.far.push(Far {
                time: s.time,
                seq: s.seq,
                slot,
            });
            self.counters.placed_far += 1;
        }
    }

    /// Drop cancelled entries off the top of the far heap so `peek` can trust
    /// it with `&self`.
    fn clean_far_top(&mut self) {
        while let Some(top) = self.far.peek() {
            let s = &self.slots[top.slot as usize];
            if s.seq == top.seq && s.loc == Loc::Far {
                break;
            }
            self.far.pop();
            self.counters.tombstones_swept += 1;
        }
    }

    /// True if the far-heap entry still refers to a live event.
    fn far_entry_live(&self, f: &Far) -> bool {
        let s = &self.slots[f.slot as usize];
        s.seq == f.seq && s.loc == Loc::Far
    }

    /// Pull far-heap events that now fall inside the wheel window into their
    /// buckets.
    fn migrate_far(&mut self) {
        let end = self.wheel_start.saturating_add(HORIZON_NANOS);
        while let Some(top) = self.far.peek() {
            if !self.far_entry_live(top) {
                self.far.pop();
                continue;
            }
            if top.time.as_nanos() >= end {
                break;
            }
            let f = self.far.pop().expect("peeked entry vanished");
            let idx = self.in_window_bucket(f.time.as_nanos());
            self.bucket_insert(idx, f.slot);
            self.counters.far_migrations += 1;
        }
    }

    /// Move the wheel window to start at the granule of `nanos` (used when
    /// every bucket is empty and the next event is far away).
    fn jump_to(&mut self, nanos: u64) {
        debug_assert_eq!(self.in_wheel, 0);
        let granule = nanos / GRANULE_NANOS;
        self.wheel_start = granule * GRANULE_NANOS;
        self.cursor = (granule % WHEEL_BUCKETS as u64) as usize;
        self.sort_cursor_bucket();
        self.migrate_far();
    }

    /// Advance the cursor one granule, exposing one new back bucket and
    /// migrating far events that slid into the window.
    fn advance_cursor(&mut self) {
        self.cursor = (self.cursor + 1) % WHEEL_BUCKETS;
        self.wheel_start = self.wheel_start.saturating_add(GRANULE_NANOS);
        self.sort_cursor_bucket();
        self.migrate_far();
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.counters.scheduled += 1;
        self.live += 1;
        let slot = self.alloc_slot(seq, at, event);
        self.place(slot);
        EventId { seq, slot }
    }

    /// Schedule `event` to fire `after` past the given current time.
    pub fn schedule_after(&mut self, now: SimTime, after: SimDuration, event: E) -> EventId {
        self.schedule_at(now + after, event)
    }

    /// Cancel a previously scheduled event. Returns true if the id was still
    /// pending (not yet fired and not already cancelled). Ids this queue
    /// never issued — including forged or foreign ids — are rejected.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.seq >= self.next_seq || (id.slot as usize) >= self.slots.len() {
            return false;
        }
        let s = &self.slots[id.slot as usize];
        if s.seq != id.seq {
            return false; // already fired/cancelled; the slot moved on
        }
        match s.loc {
            Loc::Free(_) => false,
            Loc::Bucket(_) => {
                // Lazy: free the slot now, leave the bucket entry behind as a
                // tombstone for the pop cursor to sweep. The live count stays
                // exact; only the entry lingers.
                self.in_wheel -= 1;
                self.live -= 1;
                self.counters.cancelled += 1;
                self.free_slot(id.slot);
                true
            }
            Loc::Far => {
                // The heap entry stays behind; it fails the generation check
                // when it surfaces. Keep the heap top live for `peek_time`.
                self.live -= 1;
                self.counters.cancelled += 1;
                self.free_slot(id.slot);
                self.clean_far_top();
                true
            }
        }
    }

    /// Remove and return the earliest live event at or before `limit`
    /// (in nanos); `None` lifts the bound. Shared scan behind [`Self::pop`]
    /// and [`Self::pop_at_or_before`] — one pass finds, bounds-checks and
    /// consumes the minimum, sweeping tombstones on the way.
    ///
    /// Forced inline: an engine that is driven both to a horizon and in
    /// windows reaches this through two wrappers, and as a shared
    /// out-of-line copy the popped `(time, event)` goes through memory
    /// into the dispatch loop — measured at +15 % wall time per run on the
    /// paper testbed.
    #[inline(always)]
    fn pop_bounded(&mut self, limit_ns: Option<u64>) -> Option<(SimTime, E)> {
        if self.live == 0 {
            return None;
        }
        loop {
            while self.cursor_head < self.buckets[self.cursor].len() {
                let entry = self.buckets[self.cursor][self.cursor_head];
                if self.entry_live(&entry) {
                    if limit_ns.is_some_and(|l| entry.time_ns > l) {
                        return None;
                    }
                    self.cursor_head += 1;
                    self.in_wheel -= 1;
                    self.live -= 1;
                    self.counters.pops += 1;
                    let event = self.free_slot(entry.slot);
                    return Some((SimTime::from_nanos(entry.time_ns), event));
                }
                self.cursor_head += 1;
                self.counters.tombstones_swept += 1;
            }
            // Cursor bucket exhausted: recycle its allocation for the next
            // revolution and move on.
            self.buckets[self.cursor].clear();
            self.cursor_head = 0;
            if self.in_wheel > 0 {
                // Never walk the cursor past the bound. A windowed driver
                // pops up to a bound it will move later and schedules more
                // events in between; with the cursor parked on some later
                // event's bucket, every one of those would be an overdue
                // sorted insert in front of that bucket's contents.
                let next_granule = self.wheel_start.saturating_add(GRANULE_NANOS);
                if limit_ns.is_some_and(|l| next_granule > l) {
                    return None;
                }
                self.advance_cursor();
                continue;
            }
            // Everything live is beyond the horizon: jump the window.
            self.clean_far_top();
            let t = self
                .far
                .peek()
                .expect("live count out of sync")
                .time
                .as_nanos();
            if limit_ns.is_some_and(|l| t > l) {
                return None;
            }
            self.jump_to(t);
        }
    }

    /// Remove and return the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_bounded(None)
    }

    /// Remove and return the earliest live event, but only if its timestamp
    /// is `<= limit`; otherwise leave the queue untouched and return `None`.
    /// One bucket scan where a `peek_time` + `pop` pair would take two.
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.pop_bounded(Some(limit.as_nanos()))
    }

    /// Remove and return the earliest live event strictly before `end`.
    pub fn pop_before(&mut self, end: SimTime) -> Option<(SimTime, E)> {
        let limit = end.as_nanos().checked_sub(1)?;
        self.pop_bounded(Some(limit))
    }

    /// The timestamp of the next live event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.live == 0 {
            return None;
        }
        if self.in_wheel > 0 {
            // Buckets from the cursor forward partition time, so the first
            // bucket holding a live entry holds the minimum. The cursor
            // bucket is sorted (first live entry wins); later buckets are
            // unsorted until the cursor arrives, so take the min over their
            // live entries. Tombstones are skipped read-only (sweeping needs
            // `&mut`).
            for k in 0..WHEEL_BUCKETS {
                let idx = (self.cursor + k) % WHEEL_BUCKETS;
                let start = if k == 0 { self.cursor_head } else { 0 };
                let mut best: Option<u64> = None;
                for entry in &self.buckets[idx][start..] {
                    if self.entry_live(entry) {
                        if k == 0 {
                            return Some(SimTime::from_nanos(entry.time_ns));
                        }
                        best = Some(best.map_or(entry.time_ns, |b: u64| b.min(entry.time_ns)));
                    }
                }
                if let Some(t) = best {
                    return Some(SimTime::from_nanos(t));
                }
            }
            unreachable!("in_wheel > 0 but no live bucket entry");
        }
        // The far-heap top is kept live by every mutating operation.
        self.far.peek().map(|f| {
            debug_assert!(self.far_entry_live(f));
            f.time
        })
    }

    /// Number of live pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Activity counters since construction.
    pub fn counters(&self) -> QueueCounters {
        self.counters
    }

    /// Total number of events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.counters.scheduled
    }

    /// Total number of events cancelled before firing.
    pub fn cancelled_total(&self) -> u64 {
        self.counters.cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), "c");
        q.schedule_at(SimTime::from_millis(10), "a");
        q.schedule_at(SimTime::from_millis(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let id = q.schedule_at(SimTime::from_secs(1), "x");
        q.schedule_at(SimTime::from_secs(2), "y");
        assert!(q.cancel(id));
        assert!(!q.cancel(id), "double-cancel must report false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "y")));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let id = q.schedule_at(SimTime::from_secs(1), "x");
        q.schedule_at(SimTime::from_secs(3), "y");
        q.cancel(id);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
    }

    #[test]
    fn schedule_after_offsets_from_now() {
        let mut q = EventQueue::new();
        q.schedule_after(SimTime::from_secs(5), SimDuration::from_secs(2), "z");
        assert_eq!(q.pop(), Some((SimTime::from_secs(7), "z")));
    }

    #[test]
    fn counters_track_activity() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::ZERO, 1);
        q.schedule_at(SimTime::ZERO, 2);
        q.cancel(a);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.cancelled_total(), 1);
    }

    #[test]
    fn foreign_or_forged_ids_are_rejected() {
        // Regression: cancelling an id this queue never issued used to poison
        // the tombstone set and underflow `len()`.
        let mut a: EventQueue<&str> = EventQueue::new();
        let mut b = EventQueue::new();
        a.schedule_at(SimTime::from_secs(1), "a0");
        for i in 0..5 {
            b.schedule_at(SimTime::from_secs(i), i);
        }
        let foreign = b.schedule_at(SimTime::from_secs(9), 9);
        assert!(!a.cancel(foreign), "never-issued id must be rejected");
        assert_eq!(a.len(), 1, "len must be unaffected by a rejected cancel");
        assert_eq!(a.cancelled_total(), 0);
        assert_eq!(a.pop(), Some((SimTime::from_secs(1), "a0")));
        assert_eq!(a.pop(), None);
    }

    #[test]
    fn stale_id_after_fire_is_rejected() {
        let mut q = EventQueue::new();
        let id = q.schedule_at(SimTime::from_secs(1), "x");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "x")));
        assert!(!q.cancel(id), "fired event cannot be cancelled");
        assert_eq!(q.len(), 0);
        // The slot is reused by a new event; the stale id must not hit it.
        let id2 = q.schedule_at(SimTime::from_secs(2), "y");
        assert!(!q.cancel(id));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(id2));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_pop_in_order() {
        // Mix events straddling the wheel horizon (~134 ms) and far beyond.
        let mut q = EventQueue::new();
        let times = [
            5u64, 100, 130, 135, 200, 1_000, 5_000, 60_000, 60_000, 3_600_000,
        ];
        for (i, &ms) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_millis(ms), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        let mut expect: Vec<(u64, usize)> = times
            .iter()
            .enumerate()
            .map(|(i, &ms)| (SimTime::from_millis(ms).as_nanos(), i))
            .collect();
        expect.sort();
        assert_eq!(popped, expect);
    }

    #[test]
    fn cancel_far_future_event() {
        let mut q = EventQueue::new();
        let near = q.schedule_at(SimTime::from_millis(1), "near");
        let far = q.schedule_at(SimTime::from_secs(10), "far");
        assert!(q.cancel(far));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "near")));
        assert_eq!(q.pop(), None);
        let _ = near;
    }

    #[test]
    fn peek_does_not_disturb_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(2), "far-ish");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        q.schedule_at(SimTime::from_millis(1), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "near")));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "far-ish")));
    }

    #[test]
    fn interleaves_inserts_below_popped_time() {
        // The queue is a plain priority queue: scheduling below an already
        // popped timestamp must still order correctly (the engine forbids it,
        // the queue does not).
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), "t1");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "t1")));
        q.schedule_at(SimTime::from_millis(1), "past");
        q.schedule_at(SimTime::from_secs(2), "t2");
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "past")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "t2")));
    }

    #[test]
    fn pop_at_or_before_respects_the_bound() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), "a");
        q.schedule_at(SimTime::from_millis(20), "b");
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(5)), None);
        assert_eq!(q.len(), 2, "a bounded miss must not consume anything");
        assert_eq!(
            q.pop_at_or_before(SimTime::from_millis(10)),
            Some((SimTime::from_millis(10), "a")),
            "the bound is inclusive"
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(19)), None);
        assert_eq!(
            q.pop_at_or_before(SimTime::from_millis(25)),
            Some((SimTime::from_millis(20), "b"))
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(1)), None);
    }

    #[test]
    fn pop_before_is_exclusive() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), "a");
        assert_eq!(q.pop_before(SimTime::from_millis(10)), None);
        assert_eq!(q.pop_before(SimTime::ZERO), None, "end = 0 pops nothing");
        assert_eq!(
            q.pop_before(SimTime::from_nanos(SimTime::from_millis(10).as_nanos() + 1)),
            Some((SimTime::from_millis(10), "a"))
        );
    }

    #[test]
    fn bounded_miss_inside_the_wheel_leaves_the_cursor_at_the_bound() {
        // Same rule for an event the wheel already holds: a miss must not
        // park the cursor on that event's bucket, or everything scheduled
        // before it afterwards becomes an overdue sorted insert in front of
        // the bucket's contents (the windowed driver's every injection).
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(100), "later");
        assert_eq!(q.pop_before(SimTime::from_millis(1)), None);
        // Observable through placement: 185 ms is beyond the wheel horizon
        // (~134 ms) of a cursor at 1 ms, but within it of one at 100 ms.
        q.schedule_at(SimTime::from_millis(185), "far");
        assert_eq!(q.counters().placed_far, 1, "the cursor ran ahead");
        q.schedule_at(SimTime::from_millis(2), "sooner");
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), "sooner")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(100), "later")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(185), "far")));
    }

    #[test]
    fn bounded_miss_beyond_horizon_leaves_far_events_poppable() {
        // The bound check must also stop the wheel from jumping to a far
        // event it is not allowed to pop yet.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "far");
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(1)), None);
        assert_eq!(q.len(), 1);
        // An earlier event scheduled after the miss still pops first.
        q.schedule_at(SimTime::from_secs(5), "near");
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), "near")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), "far")));
    }

    #[test]
    fn lazy_cancel_tombstones_are_swept_at_pop() {
        let mut q = EventQueue::new();
        // All in one granule: the cancelled middle entries become tombstones
        // in the same bucket the survivors pop from.
        let t = |us: u64| SimTime::from_micros(us);
        let a = q.schedule_at(t(10), "a");
        let b = q.schedule_at(t(20), "b");
        let c = q.schedule_at(t(30), "c");
        let d = q.schedule_at(t(40), "d");
        assert!(q.cancel(b));
        assert!(q.cancel(c));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(40), "d")));
        assert_eq!(q.pop(), None);
        let counters = q.counters();
        assert_eq!(counters.cancelled, 2);
        assert_eq!(counters.tombstones_swept, 2, "both tombstones swept");
        assert_eq!(counters.pops, 2);
        let _ = (a, d);
    }

    #[test]
    fn counters_track_placement_and_migration() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(1), "wheel");
        q.schedule_at(SimTime::from_secs(10), "far");
        let c = q.counters();
        assert_eq!(c.scheduled, 2);
        assert_eq!(c.placed_wheel, 1);
        assert_eq!(c.placed_far, 1);
        assert_eq!(c.far_migrations, 0);
        assert!((c.wheel_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "wheel")));
        // Popping the far event forces the window jump + migration.
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), "far")));
        let c = q.counters();
        assert_eq!(c.far_migrations, 1);
        assert_eq!(c.pops, 2);
        assert_eq!(c.tombstone_ratio(), 0.0);
    }

    proptest::proptest! {
        /// `peek_time` is asked at every window boundary of a sharded run,
        /// so it must name exactly the event the next pop returns — past
        /// tombstones in the cursor bucket, unsorted later buckets, the far
        /// heap and overdue inserts — and, being a question, must leave the
        /// wheel where bounded pops parked it.
        #[test]
        fn peek_time_names_the_next_pop_and_leaves_the_cursor(
            ops in proptest::collection::vec((0u8..9, 0u64..50, 0usize..64), 1..400)
        ) {
            let mut q = EventQueue::new();
            let mut ids = Vec::new();
            let mut now = 0u64; // time of the last pop
            for (i, &(sel, raw, pick)) in ops.iter().enumerate() {
                match sel {
                    // Schedule: in the cursor's granule, within a revolution,
                    // beyond the wheel horizon, or before what already fired.
                    0..=4 => {
                        let t = match sel {
                            0 | 1 => now + raw * 300,
                            2 => now + raw * 2_000_000,
                            3 => now + HORIZON_NANOS + raw * 40_000_000,
                            _ => now.saturating_sub(raw * 5_000),
                        };
                        ids.push(q.schedule_at(SimTime::from_nanos(t), i));
                    }
                    // Cancel: leaves a tombstone wherever the event was.
                    5 | 6 => {
                        if !ids.is_empty() {
                            q.cancel(ids[pick % ids.len()]);
                        }
                    }
                    // A windowed driver's bounded pop, which parks the
                    // cursor at the bound on a miss.
                    7 => {
                        let peeked = q.peek_time();
                        let end = SimTime::from_nanos(now + raw * 10_000);
                        if let Some((t, _)) = q.pop_before(end) {
                            proptest::prop_assert_eq!(Some(t), peeked);
                            now = now.max(t.as_nanos());
                        } else {
                            proptest::prop_assert!(peeked.is_none_or(|t| t >= end));
                        }
                    }
                    _ => {
                        let peeked = q.peek_time();
                        let popped = q.pop().map(|(t, _)| t);
                        proptest::prop_assert_eq!(peeked, popped);
                        now = now.max(popped.map_or(0, SimTime::as_nanos));
                    }
                }
                let wheel = (q.cursor, q.cursor_head, q.wheel_start, q.counters);
                let peeked = q.peek_time();
                proptest::prop_assert_eq!(peeked.is_some(), !q.is_empty());
                proptest::prop_assert_eq!(
                    (q.cursor, q.cursor_head, q.wheel_start, q.counters),
                    wheel
                );
            }
            while let Some(peeked) = q.peek_time() {
                proptest::prop_assert_eq!(q.pop().map(|(t, _)| t), Some(peeked));
            }
            proptest::prop_assert!(q.pop().is_none());
        }
    }

    #[test]
    fn slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            let id = q.schedule_at(SimTime::from_millis(round), round);
            if round % 2 == 0 {
                assert!(q.cancel(id));
            } else {
                assert!(q.pop().is_some());
            }
        }
        assert!(q.is_empty());
        assert!(
            q.slots.len() <= 2,
            "slab must recycle slots, grew to {}",
            q.slots.len()
        );
    }
}
