//! Property-based tests for the simulation engine primitives.

use proptest::prelude::*;
use rss_sim::{convergence_time, jain_fairness, EventQueue, SimTime};

/// Reference model for the calendar-wheel scheduler: a plain max-heap of
/// `Reverse(time, seq)` with a cancelled-id set, i.e. the data structure the
/// production queue replaced. Any divergence in pop order or length between
/// the two is a bug in the optimized queue.
#[derive(Default)]
struct ReferenceQueue {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    cancelled: std::collections::HashSet<u64>,
    payload: std::collections::HashMap<u64, usize>,
    next_seq: u64,
}

impl ReferenceQueue {
    fn schedule(&mut self, t: u64, payload: usize) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(std::cmp::Reverse((t, seq)));
        self.payload.insert(seq, payload);
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        if self.payload.contains_key(&seq) {
            self.payload.remove(&seq);
            self.cancelled.insert(seq);
            true
        } else {
            false
        }
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        self.pop_if(|_| true)
    }

    /// Pop the minimum only if its time passes `due`.
    fn pop_if(&mut self, due: impl Fn(u64) -> bool) -> Option<(u64, usize)> {
        while let Some(&std::cmp::Reverse((t, seq))) = self.heap.peek() {
            if self.cancelled.remove(&seq) {
                self.heap.pop();
                continue;
            }
            if !due(t) {
                return None;
            }
            self.heap.pop();
            let p = self.payload.remove(&seq).expect("payload missing");
            return Some((t, p));
        }
        None
    }

    fn len(&self) -> usize {
        self.payload.len()
    }
}

proptest! {
    /// The event queue pops events in non-decreasing time order, and equal
    /// timestamps preserve insertion order.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, id)) = q.pop() {
            popped.push((t.as_nanos(), id));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "insertion order violated at equal time");
            }
        }
    }

    /// The calendar-wheel queue is a drop-in replacement for the reference
    /// heap model: identical pop order, lengths and cancel outcomes across
    /// random schedule/cancel/pop interleavings. Times mix four scales —
    /// nanosecond-dense (heavy same-instant ties), inside the granule under
    /// the cursor (runs of them overflow the sorted cursor bucket into the
    /// cursor heap), sub-horizon and far beyond the wheel horizon
    /// (heap-fallback + migration paths) — so a cancel reaches every place
    /// an event can be filed. Pops are unbounded, inclusive-bounded and
    /// exclusive-bounded, each checked against the reference minimum.
    #[test]
    fn scheduler_is_drop_in_for_reference_heap(
        ops in prop::collection::vec((0u8..10, 0u64..40, 0usize..64), 1..300)
    ) {
        let mut q = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        let mut ids = Vec::new(); // (production id, model seq), issue order
        let mut now = 0u64; // latest time popped
        for (i, &(sel, t_raw, pick)) in ops.iter().enumerate() {
            match sel {
                // Schedule at one of three time scales; payload = op index.
                0 | 2 | 3 => {
                    let t = match sel {
                        0 => t_raw,                     // dense: plenty of ties
                        2 => t_raw * 10_000_000,        // within one revolution
                        _ => t_raw * 40_000_000_000,    // far beyond the horizon
                    };
                    let id = q.schedule_at(SimTime::from_nanos(t), i);
                    let seq = reference.schedule(t, i);
                    ids.push((id, seq));
                }
                // A run of up to 16 into the granule of the last pop (the
                // wheel's is 2^14 ns), latest first: each lands in front of
                // the one before it, so a long run leaves the sorted cursor
                // bucket for the cursor heap.
                1 => {
                    let granule = now - now % 16_384;
                    for j in 0..=pick as u64 % 16 {
                        let t = granule + (t_raw + 16 - j) * 300;
                        let id = q.schedule_at(SimTime::from_nanos(t), i);
                        let seq = reference.schedule(t, i);
                        ids.push((id, seq));
                    }
                }
                // Cancel a previously issued id (may already be dead): any
                // of them, or one of the last eight, which is likelier still
                // to sit where it was first filed.
                4..=5 => {
                    if !ids.is_empty() {
                        let k = match sel {
                            4 => pick % ids.len(),
                            _ => ids.len() - 1 - pick % ids.len().min(8),
                        };
                        let (id, seq) = ids[k];
                        prop_assert_eq!(q.cancel(id), reference.cancel(seq));
                    }
                }
                // Pop at or before a bound a few granules or a fraction of a
                // revolution ahead.
                6 => {
                    let limit = now + t_raw * if pick % 2 == 0 { 3_000 } else { 1_000_000 };
                    let got = q.pop_at_or_before(SimTime::from_nanos(limit));
                    let got = got.map(|(t, _, p)| (t.as_nanos(), p));
                    prop_assert_eq!(got, reference.pop_if(|t| t <= limit));
                    now = now.max(got.map_or(0, |(t, _)| t));
                }
                // Pop strictly before a bound (a lookahead window's end).
                7 => {
                    let end = now + t_raw * if pick % 2 == 0 { 3_000 } else { 1_000_000 };
                    let got = q.pop_before(SimTime::from_nanos(end));
                    let got = got.map(|(t, _, p)| (t.as_nanos(), p));
                    prop_assert_eq!(got, reference.pop_if(|t| t < end));
                    now = now.max(got.map_or(0, |(t, _)| t));
                }
                // Pop.
                _ => {
                    let got = q.pop().map(|(t, p)| (t.as_nanos(), p));
                    prop_assert_eq!(got, reference.pop());
                    now = now.max(got.map_or(0, |(t, _)| t));
                }
            }
            prop_assert_eq!(q.len(), reference.len());
            prop_assert_eq!(
                q.peek_time().map(|t| t.as_nanos()),
                reference.heap.iter().map(|r| r.0).filter(|&(_, s)| !reference.cancelled.contains(&s)).min().map(|(t, _)| t)
            );
        }
        // Drain both: the tails must match exactly.
        loop {
            let got = q.pop().map(|(t, p)| (t.as_nanos(), p));
            let want = reference.pop();
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }

    /// Cancelling a subset removes exactly that subset.
    #[test]
    fn event_queue_cancellation(times in prop::collection::vec(0u64..1_000, 1..100),
                                cancel_mask in prop::collection::vec(any::<bool>(), 1..100)) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.schedule_at(SimTime::from_nanos(t), i)))
            .collect();
        let mut cancelled = std::collections::HashSet::new();
        for (i, id) in &ids {
            if *cancel_mask.get(*i).unwrap_or(&false) {
                prop_assert!(q.cancel(*id));
                cancelled.insert(*i);
            }
        }
        let mut seen = std::collections::HashSet::new();
        while let Some((_, id)) = q.pop() {
            seen.insert(id);
        }
        prop_assert_eq!(seen.len() + cancelled.len(), times.len());
        for c in &cancelled {
            prop_assert!(!seen.contains(c), "cancelled event fired");
        }
    }

    /// Jain's fairness index stays in (0, 1] for any non-degenerate
    /// allocation vector, hits 1 exactly on equal shares, and is bounded
    /// below by 1/n (one hog).
    #[test]
    fn jain_fairness_stays_in_unit_interval(
        allocs in prop::collection::vec(0.0f64..1e9, 1..32),
        equal in 1e3f64..1e9,
        n in 1usize..32,
    ) {
        let j = jain_fairness(&allocs);
        prop_assert!(j > 0.0 && j <= 1.0 + 1e-12, "index {j} outside (0, 1]");
        if allocs.iter().any(|&x| x > 0.0) {
            prop_assert!(
                j >= 1.0 / allocs.len() as f64 - 1e-12,
                "index {j} below the 1/n floor for {} flows",
                allocs.len()
            );
        }
        // Equal allocations are exactly fair at any scale and count.
        let same = vec![equal; n];
        prop_assert!((jain_fairness(&same) - 1.0).abs() < 1e-12);
    }

    /// Convergence time, when reported, names a sample at or above the
    /// target whose suffix never dips below it.
    #[test]
    fn convergence_time_is_a_stable_suffix(
        values in prop::collection::vec(0.0f64..1.0, 1..100),
        target in 0.1f64..0.99,
    ) {
        let series: Vec<(f64, f64)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64, v))
            .collect();
        match convergence_time(&series, target) {
            Some(t) => {
                let idx = t as usize;
                prop_assert!(series[idx..].iter().all(|&(_, v)| v >= target));
                prop_assert!(idx == 0 || series[idx - 1].1 < target, "not the earliest");
            }
            None => prop_assert!(series.last().unwrap().1 < target),
        }
    }
}
