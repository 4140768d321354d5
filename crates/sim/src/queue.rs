//! The pending-event queue at the heart of the discrete-event engine.
//!
//! Events are ordered by `(time, tag)`, and the order they were inserted in
//! plays no part. A tag is a `u64` the scheduler supplies, unique per event;
//! the engine packs it as [`event_tag`]`(unit, seq)` — the scheduling unit
//! that made the event and that unit's own sequence number — so events of one
//! instant fire unit by unit and, within a unit, in the order that unit
//! scheduled them. Both halves are functions of the simulated scenario, not of
//! which units share a queue, and that is what makes a run bit-exact
//! reproducible on one engine or on several (see [`crate::shard`]).
//! [`EventQueue::schedule_at`] tags from the queue's own insertion counter:
//! the one-unit case, where ties fire in insertion order.
//!
//! # Implementation: list heads, a slot slab, one sorted cursor bucket
//!
//! A paper-testbed run dispatches ~10^6 events, so the queue is the hottest
//! structure in the simulator. It is three things:
//!
//! * **The slab.** Every pending event lives in one reusable `Slot` — its
//!   time, tag, payload and one `next` link. Freed slots form a list through
//!   that link.
//! * **The wheel: `WHEEL_BUCKETS` list heads.** A single-revolution calendar
//!   of `GRANULE_NANOS` granules covering a sliding window of roughly 134 ms.
//!   A bucket is a `u32`: the slot of its most recently scheduled member, and
//!   each member's `next` names the one linked before it. Scheduling into a
//!   future granule is therefore two stores — the new slot's link and the
//!   head — into lines the allocation just touched, and the wheel itself is
//!   32 KB whatever the run holds. Events beyond the wheel horizon
//!   (retransmission timers and the like) wait in a binary heap and migrate
//!   into the wheel as the window slides.
//! * **The cursor bucket.** When the pop cursor reaches a granule its list is
//!   walked once into `cursor_bucket`, one reusable `Vec` of
//!   `(time, tag, slot)` entries, and sorted (if it holds more than one).
//!   Only the granule being consumed pays for order, and that `Vec` is the
//!   only bucket storage there is: what the queue holds is O(pending events),
//!   not a sum of per-bucket high-water marks.
//!
//! Pop order does not depend on the representation: a granule's members are
//! sorted by the total order `(time, tag)` on arrival, so the order they were
//! linked in (latest first) is immaterial, and everything after the sort runs
//! on a sorted `Vec` of self-contained entries. Nor do the counters: an
//! event is placed, migrated and popped at the same points whichever way its
//! bucket is stored.
//!
//! The pop path consumes the cursor bucket through a moving head offset
//! (`cursor_head`) instead of `Vec::remove(0)`, so a granule of depth *k* is
//! drained with zero memmoves. [`EventQueue::pop_at_or_before`] fuses the
//! engine's peek-then-pop pair into one bucket scan.
//!
//! # Only live events are filed
//!
//! [`EventQueue::cancel`] takes an event out of wherever it is filed and
//! frees its slot at once, so every list member and every bucket or heap
//! entry is a pending event: no pop, peek, collection or migration checks
//! liveness, and [`EventQueue::len`] is exact. Where an event is filed
//! follows from its time and the cursor, so no slot records it:
//!
//! * before the end of the cursor granule: an entry of the sorted cursor
//!   bucket, removed at its binary-searched key, or else of the cursor heap;
//! * inside the wheel window: a member of its granule's list, unlinked;
//! * beyond the window: an entry of the far heap.
//!
//! An id is validated by a slot probe and a tag check: a freed slot holds no
//! event, and a reused one holds another tag. Removal walks a list or
//! rebuilds a heap. The models cancel nothing — a timer is a deadline its
//! handler re-checks — so cancellation is kept exact and simple, not fast at
//! volume.
//!
//! # The cursor granule: a sorted bucket and a heap
//!
//! Events scheduled into the granule being consumed (or before it: overdue
//! inserts) must land in order among what has not fired yet. The granule is
//! kept in two halves. The *bucket* is the sorted `Vec` filled when the
//! cursor arrived; an insert goes into it while the tail it would shift is at
//! most `CURSOR_TAIL_MAX` entries — in the sparse regime (a handful of events
//! per granule) and for in-order arrivals that is every insert, and it is a
//! binary search plus a move of under 200 bytes. Any other insert goes to
//! the *cursor heap*, a min-heap of the same entries beside the bucket, so a
//! burst into one granule — 10 000 flow starts seeded in scenario order, a
//! window boundary's arrivals, a synchronized retransmission-timer wave —
//! costs O(log n) per event instead of a `memmove` of the bucket per event.
//!
//! Pop order is still ascending `(time, tag)`: both halves hold entries under
//! that one total order and every pop and peek takes the smaller of the
//! bucket's head and the heap's top, so the sequence consumed is the sorted
//! merge of the two — what one sorted bucket holding all of them would give.
//! The heap only ever holds entries of the granule under the cursor, and the
//! cursor moves only once both halves are exhausted — so the heap is empty
//! whenever the cursor advances or jumps, and while it is empty the pop loop
//! is the plain bucket scan.

use crate::time::SimTime;
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
/// Longest tail a sorted insert into the cursor bucket may shift; an insert
/// that would move more goes to the cursor heap instead (module docs). Large
/// enough that the sparse regime never leaves the bucket, small enough that
/// the shift stays within three cache lines.
const CURSOR_TAIL_MAX: usize = 8;
/// List terminator / "no slot" marker.
const NIL: u32 = u32::MAX;

/// Handle to a scheduled event, usable for cancellation.
///
/// Carries the event's tag (unique among the events a queue ever holds) plus
/// its slab slot, so cancellation validates in O(1): a slot probe and a tag
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    tag: u64,
    slot: u32,
}

/// Bits of an event tag below the scheduling unit (see [`event_tag`]).
const TAG_SEQ_BITS: u32 = 40;
/// Scheduling units a tag can name.
pub const MAX_UNITS: usize = 1 << (64 - TAG_SEQ_BITS);

/// The tie-break half of an event's sort key `(time, tag)`: scheduling unit
/// above, that unit's sequence number below, so same-instant events fire
/// unit by unit and, within a unit, in the order the unit scheduled them.
/// Packet ids of a unit number from the same base, `event_tag(unit, 0)`.
#[inline]
pub const fn event_tag(unit: u32, seq: u64) -> u64 {
    debug_assert!((unit as usize) < MAX_UNITS && seq < 1 << TAG_SEQ_BITS);
    (unit as u64) << TAG_SEQ_BITS | seq
}

/// The scheduling unit an [`event_tag`] names.
#[inline]
pub(crate) const fn tag_unit(tag: u64) -> u32 {
    (tag >> TAG_SEQ_BITS) as u32
}

struct Slot<E> {
    /// Tag of the occupying event; stale for a free slot. An [`EventId`] is
    /// pending iff its slot holds an event of its tag.
    tag: u64,
    time: SimTime,
    /// The next member of the future bucket's list this slot is linked in,
    /// or of the free list; [`NIL`] ends a list. Unused in the cursor
    /// granule and the far heap.
    next: u32,
    event: Option<E>,
}

/// A cursor-bucket or heap entry: the sort key is carried inline so ordering
/// never dereferences the slab.
#[derive(Debug, Clone, Copy)]
struct WheelEntry {
    time_ns: u64,
    tag: u64,
    slot: u32,
}

impl WheelEntry {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time_ns, self.tag)
    }
}

// Reversed, so std's max-heap pops the earliest `(time, tag)` first (the
// cursor heap and the far heap). The cursor bucket sorts by `key()`.
impl PartialEq for WheelEntry {
    fn eq(&self, other: &Self) -> bool {
        self.tag == other.tag
    }
}
impl Eq for WheelEntry {}
impl PartialOrd for WheelEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WheelEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// Cheap always-on activity counters, one per queue. Plain unconditional
/// `u64` increments on paths that already touch the same cache lines —
/// branch-free whether or not anyone reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueCounters {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events removed through the pop path.
    pub pops: u64,
    /// Events placed directly into a wheel bucket at schedule time.
    pub placed_wheel: u64,
    /// Events that overflowed to the far-future heap at schedule time.
    pub placed_far: u64,
    /// Far-heap events migrated into the wheel as the window advanced.
    pub far_migrations: u64,
    /// Events cancelled before firing.
    pub cancelled: u64,
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
}

/// A time-ordered queue of future events.
///
/// Near-future events (within ~134 ms of the wheel cursor) sit in calendar
/// buckets; far-future events overflow to a heap and migrate into the wheel
/// as the cursor advances. Pop order is exactly ascending `(time, tag)`.
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    free_head: u32,
    /// `buckets[(t / GRANULE) % WHEEL_BUCKETS]`: head of the list of slots
    /// filed under that future granule ([`NIL`] when empty), threaded
    /// through `Slot::next`. The cursor's own head is always [`NIL`]: its
    /// members are in `cursor_bucket`.
    buckets: Vec<u32>,
    /// The granule under the cursor, sorted ascending by `(time, tag)`.
    /// With `cursor_heap` it additionally absorbs any event at or before
    /// the current granule, so the first entry of the two is the global
    /// minimum.
    cursor_bucket: Vec<WheelEntry>,
    /// The cursor granule's other half (module docs): inserts that would
    /// have shifted a long tail of the cursor bucket. Empty in the sparse
    /// regime, and whenever the cursor moves.
    cursor_heap: BinaryHeap<WheelEntry>,
    /// Bucket index the wheel window starts at; always equals
    /// `(wheel_start / GRANULE) % WHEEL_BUCKETS`.
    cursor: usize,
    /// Consumed prefix of the cursor bucket: entries below this offset have
    /// been popped. The bucket is cleared (capacity kept) when the prefix
    /// reaches the end.
    cursor_head: usize,
    /// Lower bound (nanos, granule-aligned) of the cursor bucket.
    wheel_start: u64,
    far: BinaryHeap<WheelEntry>,
    /// Events resident in the wheel (cursor granule + future buckets).
    in_wheel: usize,
    /// All pending events (wheel + far).
    live: usize,
    next_seq: u64,
    counters: QueueCounters,
    /// Most entries any one cursor-bucket insert has shifted.
    #[cfg(test)]
    max_shift: usize,
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
            buckets: vec![NIL; WHEEL_BUCKETS],
            cursor_bucket: Vec::new(),
            cursor_heap: BinaryHeap::new(),
            cursor: 0,
            cursor_head: 0,
            wheel_start: 0,
            far: BinaryHeap::new(),
            in_wheel: 0,
            live: 0,
            next_seq: 0,
            counters: QueueCounters::default(),
            #[cfg(test)]
            max_shift: 0,
        }
    }

    /// `#[inline]`: the event is moved into its slot here. Out of line, the
    /// caller stores it to the stack in the pieces it built it from and this
    /// reloads it whole.
    #[inline]
    fn alloc_slot(&mut self, tag: u64, time: SimTime, event: E) -> u32 {
        if self.free_head != NIL {
            let slot = self.free_head;
            let s = &mut self.slots[slot as usize];
            self.free_head = s.next;
            s.tag = tag;
            s.time = time;
            s.event = Some(event);
            slot
        } else {
            let slot = u32::try_from(self.slots.len()).expect("slot index overflow");
            self.slots.push(Slot {
                tag,
                time,
                next: NIL,
                event: Some(event),
            });
            slot
        }
    }

    fn free_slot(&mut self, slot: u32) -> E {
        let s = &mut self.slots[slot as usize];
        let event = s.event.take().expect("freeing empty slot");
        s.next = self.free_head;
        self.free_head = slot;
        event
    }

    /// File `slot` under bucket `idx`. A future bucket is a list: the slot
    /// is linked in front of the head, two stores, and order is established
    /// once, wholesale, when the cursor arrives. Only the cursor granule,
    /// which is being consumed in order, takes an ordered insert: into the
    /// sorted bucket when that shifts a short tail, into the cursor heap
    /// otherwise.
    fn bucket_insert(&mut self, idx: usize, slot: u32) {
        self.in_wheel += 1;
        let s = &mut self.slots[slot as usize];
        if idx != self.cursor {
            s.next = self.buckets[idx];
            self.buckets[idx] = slot;
            return;
        }
        let entry = WheelEntry {
            time_ns: s.time.as_nanos(),
            tag: s.tag,
            slot,
        };
        // The consumed prefix stays put; an overdue event must still land
        // after what already fired.
        let key = entry.key();
        let bucket = &mut self.cursor_bucket;
        let start = self.cursor_head;
        let pos = start + bucket[start..].partition_point(|e| e.key() < key);
        let tail = bucket.len() - pos;
        if tail <= CURSOR_TAIL_MAX {
            #[cfg(test)]
            {
                self.max_shift = self.max_shift.max(tail);
            }
            bucket.insert(pos, entry);
        } else {
            self.cursor_heap.push(entry);
        }
    }

    /// The cursor arrived at a new granule: move its list into the (empty)
    /// cursor bucket. Most granules of a sparse run are empty, and only that
    /// check is inlined into the pop loop.
    #[inline]
    fn collect_cursor_bucket(&mut self) {
        debug_assert_eq!(self.cursor_head, 0);
        debug_assert!(self.cursor_bucket.is_empty());
        debug_assert!(self.cursor_heap.is_empty());
        let head = std::mem::replace(&mut self.buckets[self.cursor], NIL);
        if head != NIL {
            self.collect_list(head);
        }
    }

    /// [`Self::collect_cursor_bucket`] for a non-empty list: its members
    /// become cursor-bucket entries, and the bucket is put in order. `tag` is
    /// unique, so `(time, tag)` is a total order and the unstable sort is
    /// deterministic.
    #[inline(never)]
    fn collect_list(&mut self, head: u32) {
        let mut slot = head;
        while slot != NIL {
            let s = &self.slots[slot as usize];
            self.cursor_bucket.push(WheelEntry {
                time_ns: s.time.as_nanos(),
                tag: s.tag,
                slot,
            });
            slot = s.next;
        }
        if self.cursor_bucket.len() > 1 {
            self.cursor_bucket.sort_unstable_by_key(WheelEntry::key);
        }
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
    /// Its one caller is the per-event schedule, which takes it inline
    /// however the instantiating crate is split into codegen units.
    #[inline(always)]
    fn place(&mut self, slot: u32) {
        let s = &self.slots[slot as usize];
        let t = s.time.as_nanos();
        if t < self.wheel_start.saturating_add(HORIZON_NANOS) {
            let idx = self.in_window_bucket(t);
            self.bucket_insert(idx, slot);
            self.counters.placed_wheel += 1;
        } else {
            self.far.push(WheelEntry {
                time_ns: t,
                tag: s.tag,
                slot,
            });
            self.counters.placed_far += 1;
        }
    }

    /// Pull far-heap events that now fall inside the wheel window into their
    /// buckets. Runs at every cursor move, and almost always finds nothing
    /// due: one comparison against the far-heap top settles that, and only
    /// it is inlined into the pop loop.
    #[inline]
    fn migrate_far(&mut self) {
        let end = self.wheel_start.saturating_add(HORIZON_NANOS);
        if self.far.peek().is_some_and(|top| top.time_ns < end) {
            self.migrate_far_due(end);
        }
    }

    /// [`Self::migrate_far`] once the far-heap top is due before `end`.
    #[inline(never)]
    fn migrate_far_due(&mut self, end: u64) {
        while self.far.peek().is_some_and(|top| top.time_ns < end) {
            let f = self.far.pop().expect("peeked entry vanished");
            let idx = self.in_window_bucket(f.time_ns);
            self.bucket_insert(idx, f.slot);
            self.counters.far_migrations += 1;
        }
    }

    /// Move the wheel window to start at the granule of `nanos` (used when
    /// the wheel holds nothing and the next event is far away).
    fn jump_to(&mut self, nanos: u64) {
        debug_assert_eq!(self.in_wheel, 0);
        let granule = nanos / GRANULE_NANOS;
        self.wheel_start = granule * GRANULE_NANOS;
        self.cursor = (granule % WHEEL_BUCKETS as u64) as usize;
        self.collect_cursor_bucket();
        self.migrate_far();
    }

    /// Advance the cursor one granule, exposing one new back bucket and
    /// migrating far events that slid into the window. Once per granule the
    /// cursor crosses — about once per event in the sparse regime — so it
    /// stays in the pop loop.
    #[inline]
    fn advance_cursor(&mut self) {
        self.cursor = (self.cursor + 1) % WHEEL_BUCKETS;
        self.wheel_start = self.wheel_start.saturating_add(GRANULE_NANOS);
        self.collect_cursor_bucket();
        self.migrate_far();
    }

    /// Schedule `event` to fire at absolute time `at`, tagged from the
    /// queue's own counter: ties fire in insertion order (one unit, unit 0).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        let tag = self.next_seq;
        self.next_seq += 1;
        self.schedule_tagged(at, tag, event)
    }

    /// Schedule `event` at `at` under a tag of the caller's (see
    /// [`event_tag`]): it fires in `(time, tag)` order whatever order events
    /// were inserted in. A queue must never see a tag twice — a tag is also
    /// the generation an [`EventId`] is validated by.
    #[inline]
    pub fn schedule_tagged(&mut self, at: SimTime, tag: u64, event: E) -> EventId {
        self.counters.scheduled += 1;
        self.live += 1;
        let slot = self.alloc_slot(tag, at, event);
        self.place(slot);
        EventId { tag, slot }
    }

    /// Cancel a previously scheduled event: take it out of where it is filed
    /// and free its slot. Returns true if the id was still pending (not yet
    /// fired and not already cancelled). An id whose slot does not hold an
    /// event of its tag — fired, cancelled, or another queue's — is rejected.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(s) = self.slots.get(id.slot as usize) else {
            return false;
        };
        if s.tag != id.tag || s.event.is_none() {
            return false; // fired or cancelled: the slot is free or moved on
        }
        // Where the event is filed follows from its time (module docs).
        let t = s.time.as_nanos();
        if t >= self.wheel_start.saturating_add(HORIZON_NANOS) {
            self.far.retain(|e| e.tag != id.tag);
        } else {
            self.in_wheel -= 1;
            match self.in_window_bucket(t) {
                idx if idx == self.cursor => self.unfile_cursor((t, id.tag)),
                idx => self.unlink(idx, id.slot),
            }
        }
        drop(self.free_slot(id.slot));
        self.live -= 1;
        self.counters.cancelled += 1;
        true
    }

    /// Remove the cursor-granule entry of `key`: from the unconsumed part of
    /// the sorted bucket if it is there, from the cursor heap otherwise.
    fn unfile_cursor(&mut self, key: (u64, u64)) {
        let start = self.cursor_head;
        match self.cursor_bucket[start..].binary_search_by_key(&key, WheelEntry::key) {
            Ok(pos) => {
                self.cursor_bucket.remove(start + pos);
            }
            Err(_) => self.cursor_heap.retain(|e| e.tag != key.1),
        }
    }

    /// Unlink `slot` from the list of future bucket `idx`.
    fn unlink(&mut self, idx: usize, slot: u32) {
        let next = self.slots[slot as usize].next;
        if self.buckets[idx] == slot {
            self.buckets[idx] = next;
            return;
        }
        let mut prev = self.buckets[idx];
        while self.slots[prev as usize].next != slot {
            prev = self.slots[prev as usize].next;
        }
        self.slots[prev as usize].next = next;
    }

    /// Retire the entry `entry` the pop cursor just passed.
    #[inline]
    fn take(&mut self, entry: WheelEntry) -> (SimTime, u64, E) {
        self.in_wheel -= 1;
        self.live -= 1;
        self.counters.pops += 1;
        let event = self.free_slot(entry.slot);
        (SimTime::from_nanos(entry.time_ns), entry.tag, event)
    }

    /// [`Self::pop_bounded`] while the cursor heap holds entries: the next
    /// event is the smaller of the bucket's head and the heap's top.
    ///
    /// Out of line and cold: the sparse regime never gets here, and its pop
    /// loop must not carry this code.
    #[cold]
    #[inline(never)]
    fn pop_merged(&mut self, limit_ns: Option<u64>) -> Option<(SimTime, u64, E)> {
        let top = *self.cursor_heap.peek().expect("cursor heap is empty");
        let entry = match self.cursor_bucket.get(self.cursor_head) {
            Some(&head) if head.key() < top.key() => head,
            _ => top,
        };
        if limit_ns.is_some_and(|l| entry.time_ns > l) {
            return None;
        }
        if entry.tag == top.tag {
            self.cursor_heap.pop();
        } else {
            self.cursor_head += 1;
        }
        Some(self.take(entry))
    }

    /// Remove and return the earliest event at or before `limit` (in
    /// nanos); `None` lifts the bound. Shared scan behind [`Self::pop`] and
    /// [`Self::pop_at_or_before`] — one pass finds, bounds-checks and
    /// consumes the minimum.
    ///
    /// Forced inline: an engine that is driven both to a horizon and in
    /// windows reaches this through two wrappers, and as a shared
    /// out-of-line copy the popped `(time, event)` goes through memory
    /// into the dispatch loop — measured at +15 % wall time per run on the
    /// paper testbed.
    #[inline(always)]
    fn pop_bounded(&mut self, limit_ns: Option<u64>) -> Option<(SimTime, u64, E)> {
        if self.live == 0 {
            return None;
        }
        loop {
            if !self.cursor_heap.is_empty() {
                return self.pop_merged(limit_ns);
            }
            if let Some(&entry) = self.cursor_bucket.get(self.cursor_head) {
                if limit_ns.is_some_and(|l| entry.time_ns > l) {
                    return None;
                }
                self.cursor_head += 1;
                return Some(self.take(entry));
            }
            // Cursor granule exhausted: empty the bucket for the next one
            // and move on.
            self.cursor_bucket.clear();
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
            // Everything pending is beyond the horizon: jump the window.
            let t = self.far.peek().expect("live count out of sync").time_ns;
            if limit_ns.is_some_and(|l| t > l) {
                return None;
            }
            self.jump_to(t);
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_bounded(None).map(|(time, _, event)| (time, event))
    }

    /// Remove and return the earliest event as `(time, tag, event)`, but
    /// only if its timestamp is `<= limit`; otherwise leave the queue
    /// untouched and return `None`. One bucket scan where a `peek_time` +
    /// `pop` pair would take two.
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, u64, E)> {
        self.pop_bounded(Some(limit.as_nanos()))
    }

    /// Remove and return the earliest event strictly before `end`, as
    /// `(time, tag, event)`.
    ///
    /// `#[inline]`: this is the windowed driver's pop. Left to the codegen
    /// units it has come out as a call from `Engine::run_window` — the
    /// out-of-line copy `pop_bounded` warns about, 15–20 % of wall
    /// time on the windowed paper testbed.
    #[inline]
    pub fn pop_before(&mut self, end: SimTime) -> Option<(SimTime, u64, E)> {
        let limit = end.as_nanos().checked_sub(1)?;
        self.pop_bounded(Some(limit))
    }

    /// The earliest time among the members of the list at `head`.
    fn list_min_time(&self, head: u32) -> Option<u64> {
        let (mut best, mut slot) = (u64::MAX, head);
        while slot != NIL {
            let s = &self.slots[slot as usize];
            best = best.min(s.time.as_nanos());
            slot = s.next;
        }
        (head != NIL).then_some(best)
    }

    /// The timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.live == 0 {
            return None;
        }
        if self.in_wheel > 0 {
            // The cursor granule first: the earlier of its two halves' heads.
            let head = self.cursor_bucket.get(self.cursor_head);
            let in_cursor = head.into_iter().chain(self.cursor_heap.peek());
            // Buckets from the cursor forward partition time, so the first
            // one with a member holds the minimum; a list is unordered until
            // the cursor collects it, so take the min over it.
            let t = in_cursor
                .map(|e| e.time_ns)
                .min()
                .or_else(|| {
                    (1..WHEEL_BUCKETS).find_map(|k| {
                        self.list_min_time(self.buckets[(self.cursor + k) % WHEEL_BUCKETS])
                    })
                })
                .expect("in_wheel > 0 but the wheel is empty");
            return Some(SimTime::from_nanos(t));
        }
        self.far.peek().map(|f| SimTime::from_nanos(f.time_ns))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Activity counters since construction.
    pub fn counters(&self) -> QueueCounters {
        self.counters
    }

    /// Bytes the queue holds on the heap: its slot slab, the wheel's list
    /// heads, the cursor granule's two halves and the far heap.
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<Slot<E>>()
            + self.buckets.capacity() * size_of::<u32>()
            + (self.cursor_bucket.capacity() + self.cursor_heap.capacity() + self.far.capacity())
                * size_of::<WheelEntry>()
    }

    /// Entries of bucket storage held: slab slots plus the capacity of the
    /// cursor granule's two halves.
    #[cfg(test)]
    fn bucket_storage(&self) -> usize {
        self.slots.len() + self.cursor_bucket.capacity() + self.cursor_heap.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

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
    fn counters_track_activity() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::ZERO, 1);
        q.schedule_at(SimTime::ZERO, 2);
        q.cancel(a);
        let c = q.counters();
        assert_eq!((c.scheduled, c.cancelled), (2, 1));
    }

    #[test]
    fn foreign_or_forged_ids_are_rejected() {
        // Regression: cancelling an id this queue never issued used to poison
        // the cancelled-id set and underflow `len()`.
        let mut a: EventQueue<&str> = EventQueue::new();
        let mut b = EventQueue::new();
        a.schedule_at(SimTime::from_secs(1), "a0");
        for i in 0..5 {
            b.schedule_at(SimTime::from_secs(i), i);
        }
        let foreign = b.schedule_at(SimTime::from_secs(9), 9);
        assert!(!a.cancel(foreign), "never-issued id must be rejected");
        assert_eq!(a.len(), 1, "len must be unaffected by a rejected cancel");
        assert_eq!(a.counters().cancelled, 0);
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
            Some((SimTime::from_millis(10), 0, "a")),
            "the bound is inclusive"
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(19)), None);
        assert_eq!(
            q.pop_at_or_before(SimTime::from_millis(25)),
            Some((SimTime::from_millis(20), 1, "b"))
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
            Some((SimTime::from_millis(10), 0, "a"))
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
    fn a_cancel_in_the_cursor_bucket_removes_its_entry() {
        let mut q = EventQueue::new();
        // All in the granule under the cursor: the cancelled middle entries
        // leave the sorted bucket the survivors pop from.
        let t = |us: u64| SimTime::from_micros(us);
        q.schedule_at(t(1), "a");
        let b = q.schedule_at(t(2), "b");
        let c = q.schedule_at(t(3), "c");
        q.schedule_at(t(4), "d");
        assert_eq!(q.cursor_bucket.len(), 4);
        assert!(q.cancel(b));
        assert!(q.cancel(c));
        assert_eq!(q.len(), 2);
        assert_eq!(q.cursor_bucket.len(), 2);
        assert_eq!(q.peek_time(), Some(t(1)));
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(4), "d")));
        assert_eq!(q.pop(), None);
        let counters = q.counters();
        assert_eq!((counters.cancelled, counters.pops), (2, 2));
    }

    #[test]
    fn a_cancel_in_any_of_the_four_places_frees_its_slot_for_the_next_schedule() {
        let mut q = EventQueue::new();
        let us = SimTime::from_micros;
        // Ten entries in the sorted cursor bucket, then one in front of all
        // of them: past the shift limit, so into the cursor heap.
        let bucket: Vec<EventId> = (0..10u64)
            .map(|i| q.schedule_at(us(10 + i / 4), i as usize))
            .collect();
        let heap = q.schedule_at(us(5), 10);
        let list = q.schedule_at(SimTime::from_millis(50), 11);
        let far = q.schedule_at(SimTime::from_secs(10), 12);
        assert_eq!((q.cursor_bucket.len(), q.cursor_heap.len()), (10, 1));
        assert_eq!((q.counters().placed_wheel, q.far.len()), (12, 1));
        let list_bucket = q.in_window_bucket(SimTime::from_millis(50).as_nanos());
        assert_ne!(q.buckets[list_bucket], NIL);
        for (k, (place, id)) in [
            ("cursor bucket", bucket[4]),
            ("cursor heap", heap),
            ("future bucket", list),
            ("far heap", far),
        ]
        .into_iter()
        .enumerate()
        {
            assert!(q.cancel(id), "{place}");
            assert_eq!(q.len(), 12, "{place}");
            let again = q.schedule_at(SimTime::from_secs(20), 100 + k);
            assert_eq!(again.slot, id.slot, "{place}: the slot was not freed");
            assert!(!q.cancel(id), "{place}: the stale id hit the new event");
        }
        // Each event left where it was filed, and nothing else did.
        assert_eq!(q.cursor_bucket.len(), 9);
        assert!(q.cursor_heap.is_empty());
        assert_eq!(q.buckets[list_bucket], NIL);
        assert_eq!(q.far.len(), 4);
        assert_eq!(q.slots.len(), 13);
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(popped, [0, 1, 2, 3, 5, 6, 7, 8, 9, 100, 101, 102, 103]);
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
    }

    proptest::proptest! {
        /// `peek_time` is asked at every window boundary of a sharded run,
        /// so it must name exactly the event the next pop returns — across
        /// cancels in the cursor bucket, unsorted later buckets, the far
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
                    // Cancel: removes the event wherever it is filed.
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
                        if let Some((t, _, _)) = q.pop_before(end) {
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

    /// Granule-local times for the burst tests: `n` draws below the granule
    /// width, many of them tied.
    fn burst_times(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = crate::SimRng::seed_from_u64(seed);
        (0..n).map(|_| rng.next_below(GRANULE_NANOS / 4)).collect()
    }

    /// Schedule `t` on both the queue and the reference model.
    fn schedule_both(
        q: &mut EventQueue<usize>,
        reference: &mut std::collections::BTreeMap<(u64, u64), usize>,
        t: u64,
        payload: usize,
    ) -> EventId {
        let id = q.schedule_at(SimTime::from_nanos(t), payload);
        reference.insert((t, id.tag), payload);
        id
    }

    /// One pop of each, which must agree — and `peek_time` must have named it.
    fn pop_both(
        q: &mut EventQueue<usize>,
        reference: &mut std::collections::BTreeMap<(u64, u64), usize>,
    ) {
        let expect = reference
            .pop_first()
            .map(|((t, _), payload)| (SimTime::from_nanos(t), payload));
        assert_eq!(q.peek_time(), expect.map(|(t, _)| t));
        assert_eq!(q.pop(), expect);
        assert_eq!(q.len(), reference.len());
    }

    #[test]
    fn a_burst_into_one_granule_pops_in_reference_order_and_shifts_nothing() {
        // 20 000 events inside the granule under the cursor, in random
        // order, pops in between (so later inserts are also overdue ones).
        // As sorted inserts into one Vec this shifts ~10^8 entries. The
        // tags are those of seven units' sequences, dealt out in shuffled
        // order: what pops first is a matter of the key alone, never of
        // which event was inserted first.
        let mut q = EventQueue::new();
        let mut reference = std::collections::BTreeMap::new();
        let mut rng = crate::SimRng::seed_from_u64(7);
        let mut tags: Vec<u64> = (0..20_000u64)
            .map(|i| event_tag((i % 7) as u32, i / 7))
            .collect();
        for i in (1..tags.len()).rev() {
            tags.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let mut in_key_order = 0;
        for (i, t) in burst_times(20_000, 1).into_iter().enumerate() {
            q.schedule_tagged(SimTime::from_nanos(t), tags[i], i);
            reference.insert((t, tags[i]), i);
            in_key_order += usize::from(i > 0 && tags[i - 1] < tags[i]);
            if rng.next_below(4) == 0 {
                pop_both(&mut q, &mut reference);
            }
        }
        assert!((5_000..15_000).contains(&in_key_order), "not shuffled");
        assert!(!q.cursor_heap.is_empty(), "the burst never left the bucket");
        while !reference.is_empty() {
            pop_both(&mut q, &mut reference);
        }
        assert_eq!(q.pop(), None);
        assert!(
            q.max_shift <= CURSOR_TAIL_MAX,
            "one insert shifted {} entries",
            q.max_shift
        );
        assert_eq!(q.counters().pops, 20_000);
        // The key is two words and the entry three, as before units.
        assert_eq!(std::mem::size_of::<WheelEntry>(), 24);
    }

    #[test]
    fn cancels_inside_the_cursor_heap_keep_reference_order() {
        let mut q = EventQueue::new();
        let mut reference = std::collections::BTreeMap::new();
        let ids: Vec<(u64, EventId)> = burst_times(20_000, 2)
            .into_iter()
            .enumerate()
            .map(|(i, t)| (t, schedule_both(&mut q, &mut reference, t, i)))
            .collect();
        let in_heap = q.cursor_heap.len();
        assert!(in_heap > 19_000, "only {in_heap} entries reached the heap");
        for &(t, id) in ids.iter().step_by(3) {
            assert!(q.cancel(id));
            assert!(!q.cancel(id));
            reference.remove(&(t, id.tag));
            assert_eq!(q.len(), reference.len());
        }
        // Half way down, then a second burst into the same granule.
        for _ in 0..reference.len() / 2 {
            pop_both(&mut q, &mut reference);
        }
        for (i, t) in burst_times(5_000, 3).into_iter().enumerate() {
            schedule_both(&mut q, &mut reference, t, 20_000 + i);
        }
        while !reference.is_empty() {
            pop_both(&mut q, &mut reference);
        }
        assert!(q.max_shift <= CURSOR_TAIL_MAX);

        // Every cursor-granule event cancelled, the one left beyond the
        // horizon: both halves are empty before the wheel jumps, and the
        // burst's slots serve the next schedules.
        let mut q = EventQueue::new();
        let ids: Vec<EventId> = burst_times(200, 4)
            .into_iter()
            .map(|t| q.schedule_at(SimTime::from_nanos(t), 0))
            .collect();
        assert!(!q.cursor_heap.is_empty());
        q.schedule_at(SimTime::from_secs(10), 1);
        for id in ids {
            assert!(q.cancel(id));
        }
        assert!(q.cursor_heap.is_empty());
        assert_eq!(q.cursor_bucket.len(), q.cursor_head);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), 1)));
        for i in 0..201 {
            q.schedule_at(SimTime::from_secs(11), i);
        }
        assert_eq!(q.slots.len(), 201);
    }

    /// A cursor bucket of ten entries at 10 µs, 11 µs, …, and one event at
    /// `first_us` scheduled after them — past the shift limit, so it sits in
    /// the cursor heap, and it is the next to fire.
    fn heap_top_first(first_us: u64) -> (EventQueue<usize>, EventId) {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule_at(SimTime::from_micros(10 + i / 4), i as usize);
        }
        let first = q.schedule_at(SimTime::from_micros(first_us), 99);
        assert_eq!(q.cursor_heap.len(), 1);
        (q, first)
    }

    #[test]
    fn bounded_pops_stop_at_a_heap_top_past_the_bound() {
        let (mut q, _) = heap_top_first(5);
        let state = |q: &EventQueue<usize>| {
            (
                q.cursor,
                q.cursor_head,
                q.wheel_start,
                q.cursor_heap.len(),
                q.len(),
                q.counters(),
            )
        };
        let before = state(&q);
        assert_eq!(q.pop_at_or_before(SimTime::from_micros(4)), None);
        assert_eq!(q.pop_before(SimTime::from_micros(5)), None);
        assert_eq!(state(&q), before);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
        assert_eq!(
            q.pop_at_or_before(SimTime::from_micros(5)),
            Some((SimTime::from_micros(5), 10, 99))
        );
        // The heap is empty again: the bound now meets the bucket's head.
        assert_eq!(q.pop_before(SimTime::from_micros(10)), None);
        assert_eq!(
            q.pop_before(SimTime::from_micros(11)),
            Some((SimTime::from_micros(10), 0, 0))
        );

        // A cancelled heap top leaves the heap at once: the bound then meets
        // the bucket's head, as the plain bucket scan does.
        let (mut q, first) = heap_top_first(5);
        assert!(q.cancel(first));
        assert!(q.cursor_heap.is_empty());
        assert_eq!(q.pop_at_or_before(SimTime::from_micros(4)), None);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(10)));
    }

    #[test]
    fn overdue_inserts_after_a_bounded_miss_fire_before_the_bucket() {
        // The window driver's pattern: a miss parks the cursor on a granule
        // that already holds events, then arrivals for earlier times come
        // in — latest first here, so each lands in front of all the others.
        let mut q = EventQueue::new();
        let base = SimTime::from_millis(3).as_nanos();
        for i in 0..20u64 {
            q.schedule_at(SimTime::from_nanos(base + 100 * i), 1_000 + i as usize);
        }
        assert_eq!(q.pop_before(SimTime::from_nanos(base)), None);
        for i in (0..50u64).rev() {
            q.schedule_at(SimTime::from_nanos(base - 1_000 + i), i as usize);
        }
        assert!(!q.cursor_heap.is_empty());
        for i in 0..50u64 {
            assert_eq!(
                q.pop_before(SimTime::from_nanos(base)),
                Some((SimTime::from_nanos(base - 1_000 + i), 69 - i, i as usize))
            );
        }
        assert_eq!(q.pop_before(SimTime::from_nanos(base)), None);
        for i in 0..20u64 {
            assert_eq!(
                q.pop(),
                Some((SimTime::from_nanos(base + 100 * i), 1_000 + i as usize))
            );
        }
        assert!(q.max_shift <= CURSOR_TAIL_MAX);
    }

    #[test]
    fn a_cancel_in_a_future_bucket_unlinks_it_and_frees_its_slot() {
        let mut q = EventQueue::new();
        let mut reference = std::collections::BTreeMap::new();
        let at = SimTime::from_millis(50).as_nanos();
        let granule = |t: u64| t / GRANULE_NANOS;
        assert_eq!(granule(at - 1), granule(at + 1));
        schedule_both(&mut q, &mut reference, at - 1, 0);
        let cancelled = schedule_both(&mut q, &mut reference, at, 1);
        schedule_both(&mut q, &mut reference, at + 1, 2);
        // Linked latest first: the cancelled event sits between the two
        // other members of its bucket's list.
        assert!(q.cancel(cancelled));
        reference.remove(&(at, cancelled.tag));
        assert!(!q.cancel(cancelled), "double-cancel must report false");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(at - 1)));
        // The slot left the list with its event: the next schedule takes it,
        // into the same list, and the stale id does not reach the newcomer.
        let reused = schedule_both(&mut q, &mut reference, at, 3);
        assert_eq!(reused.slot, cancelled.slot);
        assert!(!q.cancel(cancelled));
        let mut rng = crate::SimRng::seed_from_u64(11);
        for i in 0..10_000 {
            let t = rng.next_below(2 * HORIZON_NANOS);
            schedule_both(&mut q, &mut reference, t, 4 + i);
        }
        while !reference.is_empty() {
            pop_both(&mut q, &mut reference);
        }
        assert_eq!(q.pop(), None);
        let c = q.counters();
        assert_eq!((c.pops, c.cancelled), (10_003, 1));
    }

    #[test]
    fn cancelling_every_wheel_event_empties_every_list_before_the_jump() {
        let mut q = EventQueue::new();
        let ids: Vec<EventId> = (1..=500u64)
            .map(|i| q.schedule_at(SimTime::from_micros(100 * i), 0))
            .collect();
        q.schedule_at(SimTime::from_secs(10), 1);
        for &id in &ids {
            assert!(q.cancel(id));
        }
        assert_eq!(q.len(), 1);
        assert_eq!(q.in_wheel, 0);
        assert!(q.buckets.iter().all(|&head| head == NIL));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
        // Nothing in the wheel: the window jumps to the far event, over 500
        // buckets that are empty again.
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), 1)));
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        // The cursor comes round: one event most of a revolution ahead walks
        // it through every bucket the jump skipped.
        let later = SimTime::from_nanos(q.wheel_start + HORIZON_NANOS - 1);
        q.schedule_at(later, 2);
        assert_eq!(q.counters().placed_wheel, 501);
        assert_eq!(q.peek_time(), Some(later));
        assert_eq!(q.pop(), Some((later, 2)));
        // Every slot is back on the free list.
        for i in 0..501u64 {
            q.schedule_at(later + SimDuration::from_micros(i), 3);
        }
        assert_eq!(q.slots.len(), 501);
    }

    #[test]
    fn three_revolutions_with_a_third_cancelled_match_the_reference() {
        // Hold model inside the wheel horizon, a third of the successors
        // cancelled at once or later (in the cursor granule or in a future
        // bucket's list), and a heartbeat that keeps the cursor walking a
        // full revolution past the last cancel.
        let mut q = EventQueue::new();
        let mut reference = std::collections::BTreeMap::new();
        let mut rng = crate::SimRng::seed_from_u64(21);
        let mut pending: Vec<(u64, EventId)> = Vec::new();
        for i in 0..2_000 {
            let t = rng.next_below(HORIZON_NANOS);
            pending.push((t, schedule_both(&mut q, &mut reference, t, i)));
        }
        const BEAT: usize = usize::MAX;
        schedule_both(&mut q, &mut reference, 0, BEAT);
        let end = 3 * HORIZON_NANOS;
        let mut n = 2_000;
        while let Some((&(now, _), &payload)) = reference.first_key_value() {
            pop_both(&mut q, &mut reference);
            if payload == BEAT {
                if now < end + HORIZON_NANOS {
                    schedule_both(&mut q, &mut reference, now + HORIZON_NANOS / 3, BEAT);
                }
                continue;
            }
            if now >= end {
                continue;
            }
            // Mostly a granule or more ahead; sometimes in the one being
            // consumed.
            let gap = match rng.next_below(8) {
                0 => rng.next_below(GRANULE_NANOS / 2),
                _ => rng.next_below(HORIZON_NANOS - GRANULE_NANOS),
            };
            n += 1;
            pending.push((
                now + gap,
                schedule_both(&mut q, &mut reference, now + gap, n),
            ));
            if rng.next_below(3) == 0 {
                // Cancel one that is still pending (the reference knows) and
                // schedule another in its place, so the population holds.
                loop {
                    let pick = rng.next_below(pending.len() as u64) as usize;
                    let (t, id) = pending.swap_remove(pick);
                    let was_pending = reference.remove(&(t, id.tag)).is_some();
                    assert_eq!(q.cancel(id), was_pending);
                    assert!(!q.cancel(id));
                    assert_eq!(q.len(), reference.len());
                    if was_pending {
                        break;
                    }
                }
                let t = now + rng.next_below(HORIZON_NANOS - GRANULE_NANOS);
                n += 1;
                pending.push((t, schedule_both(&mut q, &mut reference, t, n)));
            }
        }
        assert_eq!(q.pop(), None);
        let c = q.counters();
        assert!(c.cancelled > 3_000, "only {} cancels", c.cancelled);
        assert_eq!(c.placed_far, 0);
        assert_eq!(c.pops + c.cancelled, c.scheduled);
        assert!(q.slots.iter().all(|s| s.event.is_none()));
        // Every pop and cancel freed its slot before the next schedule.
        assert_eq!(q.slots.len(), 2_001, "the slab outgrew the pending events");
    }

    #[test]
    fn bucket_storage_tracks_pending_events_not_visited_buckets() {
        // A 20 000-event burst into one granule, drained, then 10^6 sparse
        // holds that take the cursor through every bucket of the wheel a
        // hundred times over. Per-bucket vectors would each keep their first
        // allocation (8192 x 4 entries) on top of the burst's.
        let mut q = EventQueue::new();
        for (i, t) in burst_times(20_000, 5).into_iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let peak_pending = q.len();
        while q.pop().is_some() {}
        let mut rng = crate::SimRng::seed_from_u64(9);
        for i in 0..64u64 {
            q.schedule_at(SimTime::from_micros(20 * i), 0);
        }
        for _ in 0..1_000_000 {
            let (now, _) = q.pop().expect("hold model keeps 64 pending");
            let gap = SimDuration::from_nanos(rng.next_below(2_000_000));
            q.schedule_at(now + gap, 0);
        }
        assert_eq!(q.len(), 64);
        let largest_granule = 20_000;
        assert!(
            q.bucket_storage() <= 2 * peak_pending + largest_granule,
            "bucket storage is {} entries for a peak of {peak_pending} pending",
            q.bucket_storage()
        );
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
