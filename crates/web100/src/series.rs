//! Time-ordered recording, packed as steps: [`Series`], the per-ACK
//! sample series a flow report holds, and the congestion-signal times a
//! connection records while it runs.
//!
//! A [`Series`] keeps each `(SimTime, u64)` sample as its step from the one
//! before (from `(0, 0)` for the first): the nanosecond step, then the value
//! step zigzagged to an unsigned integer. A step is written plainly as two
//! LEB128 varints, `dt + 1` and `zigzag(dv)`, unless it repeats the step
//! before it: then it joins a run, written once as `0` and the repeat count
//! `k`, a count rewritten in place while repeats keep coming. A repeat
//! joins only if its value step, read as a signed 64-bit integer, does not
//! carry the value past 0 or `u64::MAX`, so a plain step and its run are an
//! arithmetic progression of integers. The writer is greedy, so each series
//! has one encoding. On the paper testbed the ACK clock is regular, and
//! 99.5 % of the per-ACK samples (a ~120 µs step and a 1448-byte one, five
//! bytes plain) repeat the step before: a run of up to 2^21 repeats costs
//! at most four bytes. Reads decode the steps in order and give the pair
//! `(ns as f64 / 1e9, v as f64)`.
//!
//! JSON writes the runs legibly: a series is an array with one element per
//! plain step and its run, each either
//!
//! * one sample `[t_s, v]`, or
//! * an arithmetic run `[t_s, v, n, dt_s, dv]`: `n ≥ 2` samples from
//!   `(t_s, v)`, each `dt_s` seconds and the signed integer `dv` after the
//!   one before.
//!
//! So the rule that picks the elements is the encoder's: walking the
//! samples in order, each starts a new element unless it takes the step the
//! sample before it took (the same nanoseconds, and the same value step
//! without carrying past 0 or `u64::MAX`). Samples at 1, 1.5, 2 and 2.5 s
//! holding 10, 20, 30 and 40, then one at 3 s holding 7, are
//!
//! ```text
//! [[1,10],[1.5,20,3,0.5,10],[3,7]]
//! ```
//!
//! (the first sample's step, from `(0, 0)`, is not the run's).
//!
//! Times are whole nanoseconds written as seconds
//! ([`serde::write_nanos_as_secs`] below 10^15 ns, where it is exact; whole
//! seconds and up to nine fraction digits past it), and values, counts and
//! value steps are integers, so a series reads back exactly. Both directions
//! walk the steps, not the samples: the paper testbed's 25 s runs hold
//! 257 k and 408 k per-ACK samples (standard, restricted) in 2 402 and 200
//! elements.
//!
//! The signal times ([`Signals`]) are held as plain steps: per signal, its
//! nanosecond step from the one before and one byte saying whether it was a
//! send-stall, so a stall, which is also a congestion signal, is recorded
//! once. They are read back as [`SimTime`]s, which the report widens to
//! seconds (`SimTime::as_secs_f64`) when it is built.
//!
//! Every append checks that time does not run backwards.

use rss_sim::SimTime;
use serde::{de, Deserialize, Serialize};
use std::fmt;

/// A time-ordered series of `(SimTime, u64)` samples, packed as varint
/// steps (see the module docs). Its header lives behind one pointer, so an
/// empty series is a null pointer and what holds two of them carries 16
/// bytes inline; a finished connection's series move into its report.
#[derive(Clone, Default)]
pub struct Series(Option<Box<Packed>>);

/// A [`Series`]' samples and the latest of them, held inline where a
/// connection records them. 48 bytes, pinned beside `Timelines`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Packed {
    /// Plain steps, each maybe followed by a run of its repeats (see the
    /// module docs).
    steps: Vec<u8>,
    len: u32,
    /// Where the latest plain step starts in `steps`: a push of the same
    /// step joins the run after it.
    plain_at: u32,
    /// The latest sample, which the next step starts from.
    last_ns: u64,
    last_v: u64,
}

impl Packed {
    /// Append the sample `(now, v)`.
    ///
    /// # Panics
    /// If `now` precedes the latest sample, if it is `SimTime::MAX` with the
    /// latest sample at 0 ns (a step of `u64::MAX` ns has no `dt + 1`), or
    /// past `u32::MAX` samples or 4 GiB of steps.
    #[inline]
    pub(crate) fn push(&mut self, now: SimTime, v: u64) {
        let ns = now.as_nanos();
        assert!(
            ns >= self.last_ns,
            "samples must be time-ordered ({ns} ns < {} ns)",
            self.last_ns
        );
        let dv = v.wrapping_sub(self.last_v);
        // A step whose sign as an i64 is not the way the value moved
        // carried past 0 or `u64::MAX`: it starts a plain step.
        let carried = (v < self.last_v) != ((dv as i64) < 0);
        self.push_steps(ns - self.last_ns, dv, 1, carried);
        self.last_ns = ns;
        self.last_v = v;
    }

    /// Append the arithmetic run of `n` samples from `(ns, v)`, each `dt`
    /// ns and `dv` after the one before, in O(1): what `n` pushes of its
    /// samples append.
    ///
    /// # Panics
    /// As [`Self::push`] on its first sample, if `n` is 0, or if the run's
    /// last time or value passes `u64::MAX` or its step is `u64::MAX` ns.
    pub(crate) fn push_run(&mut self, ns: u64, v: u64, n: u32, dt: u64, dv: i64) {
        self.push(SimTime::from_nanos(ns), v);
        let repeats = u64::from(n.checked_sub(1).expect("a run holds a sample"));
        if repeats > 0 {
            let last_ns = u128::from(dt) * u128::from(repeats) + u128::from(ns);
            let last_v = i128::from(dv) * i128::from(repeats) + i128::from(v);
            self.last_ns = u64::try_from(last_ns).expect("a run ends before 2^64 ns");
            self.last_v = u64::try_from(last_v).expect("a run's values lie in a u64");
            self.push_steps(dt, dv as u64, repeats, false);
        }
    }

    /// Append `count` samples that each take the step `(dt, dv)`; with
    /// `carried`, the first starts a plain step even if it repeats the one
    /// before (see the module docs).
    #[inline]
    fn push_steps(&mut self, dt: u64, dv: u64, count: u64, carried: bool) {
        self.len = u32::try_from(u64::from(self.len) + count)
            .expect("a series holds at most u32::MAX samples");
        // The step as it is written: `dt + 1` (0 starts a run) and the
        // zigzagged value step.
        let dt1 = dt.checked_add(1).expect("a time step of u64::MAX ns");
        let dz = zigzag(dv);
        // The latest plain step and its run, if any. The step is decoded
        // only when its first byte is the one `dt1` is written with.
        let mut latest = &self.steps[self.plain_at as usize..];
        let first = dt1 as u8 | u8::from(dt1 >= 0x80) << 7;
        let joins = !carried
            && latest.first() == Some(&first)
            && take_varint(&mut latest) == dt1
            && take_varint(&mut latest) == dz;
        // Where the latest plain step's run starts: its escape, then the
        // count that ends the steps.
        let run_at = self.steps.len() - latest.len();
        if !joins {
            self.plain_at = u32::try_from(self.steps.len()).expect("a series' steps fit in 4 GiB");
            put_varint(&mut self.steps, dt1);
            put_varint(&mut self.steps, dz);
            if count > 1 {
                self.steps.push(0);
                put_varint(&mut self.steps, count - 1);
            }
        } else if run_at == self.steps.len() {
            self.steps.push(0);
            put_varint(&mut self.steps, count);
        } else if count == 1 {
            increment_varint(&mut self.steps, run_at + 1);
        } else {
            let k = take_varint(&mut &self.steps[run_at + 1..]);
            self.steps.truncate(run_at + 1);
            put_varint(&mut self.steps, k + count);
        }
    }

    /// The samples in time order, as recorded.
    pub(crate) fn samples(&self) -> Samples<'_> {
        Samples {
            steps: &self.steps,
            left: self.len as usize,
            ..Samples::EMPTY
        }
    }

    /// Bytes the steps hold on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.steps.capacity()
    }
}

/// The recorded samples as a series: the header boxed, the steps moved and
/// trimmed to their length, so a report holds no doubling slack.
impl From<Packed> for Series {
    fn from(mut p: Packed) -> Self {
        p.steps.shrink_to_fit();
        Series((p.len > 0).then(|| Box::new(p)))
    }
}

/// The times of a connection's congestion signals, each marked whether it
/// was a send-stall (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct Signals {
    /// Per signal: the time step in ns as a varint, then 1 for a send-stall
    /// and 0 for any other signal.
    steps: Vec<u8>,
    /// The latest signal's time, which the next step starts from.
    last_ns: u64,
}

impl Signals {
    /// Record a signal at `now`; `stall` if it was a send-stall.
    ///
    /// # Panics
    /// If `now` precedes the latest signal.
    pub(crate) fn push(&mut self, now: SimTime, stall: bool) {
        let ns = now.as_nanos();
        assert!(
            ns >= self.last_ns,
            "signals must be time-ordered ({ns} ns < {} ns)",
            self.last_ns
        );
        put_varint(&mut self.steps, ns - self.last_ns);
        self.steps.push(u8::from(stall));
        self.last_ns = ns;
    }

    /// Every signal in time order: its time and whether it was a send-stall.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SimTime, bool)> + Clone + '_ {
        let mut steps = self.steps.as_slice();
        let mut ns = 0;
        std::iter::from_fn(move || {
            if steps.is_empty() {
                return None;
            }
            ns += take_varint(&mut steps);
            let (&stall, rest) = steps.split_first().expect("a signal is a step and a mark");
            steps = rest;
            Some((SimTime::from_nanos(ns), stall == 1))
        })
    }

    /// Bytes held on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.steps.capacity()
    }
}

impl Series {
    /// An empty series.
    pub fn new() -> Self {
        Series(None)
    }

    /// Append the sample `(now, v)`.
    ///
    /// # Panics
    /// If `now` precedes the latest sample.
    #[inline]
    pub fn push(&mut self, now: SimTime, v: u64) {
        self.0.get_or_insert_with(Box::default).push(now, v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |p| p.len as usize)
    }

    /// Whether the series holds no sample.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn steps(&self) -> &[u8] {
        self.0.as_ref().map_or(&[], |p| &p.steps)
    }

    /// Bytes of the packed steps. The JSON is about five times as long: a
    /// plain step of ~5 bytes renders as a ~22-byte sample, and one with
    /// its run, ~9 bytes, as a ~40-byte element.
    pub fn packed_bytes(&self) -> usize {
        self.steps().len()
    }

    /// The samples in time order, as recorded.
    pub fn samples(&self) -> Samples<'_> {
        self.0.as_ref().map_or(Samples::EMPTY, |p| p.samples())
    }

    /// The samples in time order as the report reads them: `(t_s, value)`
    /// with `t_s = ns as f64 / 1e9` (`SimTime::as_secs_f64`) and
    /// `value = v as f64`.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.samples().map(as_pair)
    }

    /// The first sample, as [`Self::iter`] gives it.
    pub fn first(&self) -> Option<(f64, f64)> {
        self.iter().next()
    }

    /// The latest sample, as [`Self::iter`] gives it.
    pub fn last(&self) -> Option<(f64, f64)> {
        let p = self.0.as_ref().filter(|p| p.len > 0)?;
        Some(as_pair((SimTime::from_nanos(p.last_ns), p.last_v)))
    }
}

fn as_pair((t, v): (SimTime, u64)) -> (f64, f64) {
    (t.as_secs_f64(), v as f64)
}

/// Append `x` as a LEB128 varint: seven bits per byte, low first, the top
/// bit set on all but the last.
#[inline]
fn put_varint(steps: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        steps.push(x as u8 | 0x80);
        x >>= 7;
    }
    steps.push(x as u8);
}

/// Add one to the varint that ends `steps` and starts at `at`, in place:
/// carry through the low seven bits of each byte, and past the last one
/// into a new byte.
#[inline]
fn increment_varint(steps: &mut Vec<u8>, at: usize) {
    for b in &mut steps[at..] {
        if *b & 0x7f != 0x7f {
            *b += 1;
            return;
        }
        *b &= 0x80;
    }
    *steps.last_mut().expect("a run has a count") |= 0x80;
    steps.push(1);
}

/// Read one LEB128 varint off the front of `steps`.
#[inline]
fn take_varint(steps: &mut &[u8]) -> u64 {
    let mut x = 0u64;
    let mut shift = 0;
    loop {
        let (&b, rest) = steps.split_first().expect("a step is whole varints");
        *steps = rest;
        x |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return x;
        }
        shift += 7;
    }
}

/// A step of any sign as an unsigned varint payload: 0, −1, 1, −2, … →
/// 0, 1, 2, 3, …, so a small cut costs as few bytes as a small rise.
fn zigzag(step: u64) -> u64 {
    let s = step as i64;
    ((s << 1) ^ (s >> 63)) as u64
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// The samples of a [`Series`], decoded in time order.
#[derive(Clone)]
pub struct Samples<'a> {
    steps: &'a [u8],
    ns: u64,
    v: u64,
    left: usize,
    /// The step being repeated, and how many repeats of it are still to
    /// come.
    dt: u64,
    dv: u64,
    repeats: u64,
}

impl Samples<'_> {
    /// The samples of an empty series.
    pub(crate) const EMPTY: Samples<'static> = Samples {
        steps: &[],
        ns: 0,
        v: 0,
        left: 0,
        dt: 0,
        dv: 0,
        repeats: 0,
    };
}

impl Iterator for Samples<'_> {
    type Item = (SimTime, u64);

    #[inline]
    fn next(&mut self) -> Option<(SimTime, u64)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        if self.repeats > 0 {
            self.repeats -= 1;
        } else {
            match take_varint(&mut self.steps) {
                // A run of `k` more of the step before, this the first.
                0 => self.repeats = take_varint(&mut self.steps) - 1,
                t => {
                    self.dt = t - 1;
                    self.dv = unzigzag(take_varint(&mut self.steps));
                }
            }
        }
        self.ns += self.dt;
        self.v = self.v.wrapping_add(self.dv);
        Some((SimTime::from_nanos(self.ns), self.v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Samples<'_> {}

impl FromIterator<(SimTime, u64)> for Series {
    fn from_iter<I: IntoIterator<Item = (SimTime, u64)>>(samples: I) -> Self {
        let mut s = Series::new();
        for (t, v) in samples {
            s.push(t, v);
        }
        s
    }
}

/// Two series are equal when they hold the same samples; the step encoding
/// is canonical, so that is when their steps are equal.
impl PartialEq for Series {
    fn eq(&self, other: &Self) -> bool {
        self.steps() == other.steps()
    }
}

impl Eq for Series {}

impl fmt::Debug for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The elements of the module docs, one per plain step and its run, read
/// off the steps: a run becomes one element without its repeats being
/// decoded.
impl Serialize for Series {
    fn serialize_json(&self, out: &mut String) {
        out.push('[');
        let mut steps = self.steps();
        let (mut ns, mut v) = (0u64, 0u64);
        let mut open = "[";
        while !steps.is_empty() {
            let dt = take_varint(&mut steps) - 1;
            let dv = unzigzag(take_varint(&mut steps));
            ns += dt;
            v = v.wrapping_add(dv);
            out.push_str(open);
            open = ",[";
            write_secs(ns, out);
            out.push(',');
            v.serialize_json(out);
            if let Some((0, rest)) = steps.split_first() {
                steps = rest;
                let repeats = take_varint(&mut steps);
                out.push(',');
                (repeats + 1).serialize_json(out);
                out.push(',');
                write_secs(dt, out);
                out.push(',');
                (dv as i64).serialize_json(out);
                ns += dt * repeats;
                v = v.wrapping_add(dv.wrapping_mul(repeats));
            }
            out.push(']');
        }
        out.push(']');
    }
}

/// Reads what [`Serialize`] writes, a run in O(1) (`Packed::push_run`).
/// An element that is neither form is an error at its path, as is a time
/// that is not a whole number of nanoseconds under 2^64, a value, count or
/// value step that is not an integer of its type, a run of fewer than two
/// samples or one whose last time or value passes 2^64 (or whose value
/// falls below 0), a sample before the one before it, and a series past
/// `u32::MAX` samples.
impl<'de> Deserialize<'de> for Series {
    fn deserialize_json(v: &de::Value, path: &mut de::Path) -> Result<Self, de::Error> {
        let mut packed = Packed::default();
        for (i, item) in v.expect_array(path)?.iter().enumerate() {
            path.push_index(i);
            let pushed = push_element(&mut packed, item, path);
            path.pop();
            pushed?;
        }
        Ok(packed.into())
    }
}

/// Check one element against the samples `p` holds, then append it.
fn push_element(p: &mut Packed, item: &de::Value, path: &de::Path) -> Result<(), de::Error> {
    let err = |msg: String| Err(de::Error::new(item.line(), path, msg));
    let fields = item.expect_array(path)?;
    if !matches!(fields.len(), 2 | 5) {
        return err(format!(
            "expected [t_s, v] or [t_s, v, n, dt_s, dv], found {} elements",
            fields.len()
        ));
    }
    let mut raw = [""; 5];
    for (r, f) in raw.iter_mut().zip(fields) {
        *r = f.expect_number("a number", path)?;
    }
    let [t, v, n, dt, dv] = raw;
    let Some(ns) = nanos_of(t) else {
        return err(format!("time {t} s is not whole nanoseconds under 2^64"));
    };
    let Ok(v) = v.parse::<u64>() else {
        return err(format!("value {v} is not an integer under 2^64"));
    };
    if ns < p.last_ns {
        return err(format!(
            "time {t} s precedes the sample before it ({} s)",
            secs(p.last_ns)
        ));
    }
    if ns - p.last_ns == u64::MAX {
        return err("a time step of u64::MAX ns cannot be held".into());
    }
    let (n, dt, dv) = match fields.len() {
        2 => (1, 0, 0),
        _ => {
            let Some(n) = n.parse::<u32>().ok().filter(|&n| n >= 2) else {
                return err(format!("a run holds from 2 to u32::MAX samples, not {n}"));
            };
            let Some(dt) = nanos_of(dt).filter(|&d| d < u64::MAX) else {
                return err(format!(
                    "time step {dt} s is not whole nanoseconds under 2^64 − 1"
                ));
            };
            let Ok(dv) = dv.parse::<i64>() else {
                return err(format!("value step {dv} is not a signed 64-bit integer"));
            };
            (n, dt, dv)
        }
    };
    let len = u64::from(p.len) + u64::from(n);
    if len > u64::from(u32::MAX) {
        return err(format!(
            "a series holds at most u32::MAX samples, and this element makes {len}"
        ));
    }
    let repeats = n - 1;
    let last_ns = u128::from(ns) + u128::from(dt) * u128::from(repeats);
    if last_ns > u128::from(u64::MAX) {
        return err(format!("the run's last time, {last_ns} ns, passes 2^64"));
    }
    let last_v = i128::from(v) + i128::from(dv) * i128::from(repeats);
    if u64::try_from(last_v).is_err() {
        return err(format!("the run's last value, {last_v}, is not in 0..2^64"));
    }
    p.push_run(ns, v, n, dt, dv);
    Ok(())
}

/// Append `ns` as seconds, exactly: [`serde::write_nanos_as_secs`] below
/// 10^15 ns, where it is exact, and past it (where that writes the nearest
/// double) whole seconds and up to nine fraction digits.
fn write_secs(ns: u64, out: &mut String) {
    if ns < 1_000_000_000_000_000 {
        return serde::write_nanos_as_secs(ns, out);
    }
    (ns / 1_000_000_000).serialize_json(out);
    let frac = format!(".{:09}", ns % 1_000_000_000);
    out.push_str(frac.trim_end_matches(['0', '.']));
}

/// `ns` as [`write_secs`] writes it.
fn secs(ns: u64) -> String {
    let mut out = String::new();
    write_secs(ns, &mut out);
    out
}

/// The nanoseconds a JSON number of seconds names, if it is whole ones
/// under 2^64: digits, then maybe a point and digits of which at most nine
/// are not trailing zeros.
fn nanos_of(t: &str) -> Option<u64> {
    let (whole, frac) = t.split_once('.').unwrap_or((t, ""));
    let frac = frac.trim_end_matches('0');
    if frac.len() > 9 || !frac.bytes().all(|d| d.is_ascii_digit()) {
        return None;
    }
    let frac_ns = frac
        .bytes()
        .chain(std::iter::repeat(b'0'))
        .take(9)
        .fold(0, |n, d| n * 10 + u64::from(d - b'0'));
    whole
        .parse::<u64>()
        .ok()?
        .checked_mul(1_000_000_000)?
        .checked_add(frac_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn push_and_query() {
        let mut s = Series::new();
        assert!(s.is_empty() && s.first().is_none() && s.last().is_none());
        s.push(ms(0), 2);
        s.push(ms(10), 4);
        s.push(ms(20), 8);
        s.push(ms(20), 1);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            [(0.0, 2.0), (0.01, 4.0), (0.02, 8.0), (0.02, 1.0)]
        );
        assert_eq!(
            (s.len(), s.first(), s.last()),
            (4, Some((0.0, 2.0)), Some((0.02, 1.0)))
        );
        assert_eq!(
            serde::to_json_string(&s),
            "[[0,2],[0.01,4],[0.02,8],[0.02,1]]"
        );
        // Signals at the same instant are in order, each with its mark.
        let mut t = Signals::default();
        t.push(ms(500), true);
        t.push(ms(1500), false);
        t.push(ms(1500), true);
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            [(ms(500), true), (ms(1500), false), (ms(1500), true)]
        );
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn signals_reject_out_of_order() {
        let mut t = Signals::default();
        t.push(ms(10), false);
        t.push(ms(5), true);
    }

    #[test]
    #[should_panic(expected = "a time step of u64::MAX ns")]
    fn a_step_of_all_of_time_is_refused() {
        let mut s = Series::new();
        s.push(SimTime::ZERO, 1);
        s.push(SimTime::MAX, 2);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_out_of_order() {
        let mut s = Series::new();
        s.push(ms(10), 1);
        s.push(ms(5), 2);
    }

    #[test]
    fn steps_of_either_sign_pack_small() {
        for step in [0, 1, u64::MAX, 63, 64, 1 << 63, (1 << 63) - 1] {
            assert_eq!(unzigzag(zigzag(step)), step);
        }
        assert_eq!(
            [
                zigzag(0),
                zigzag(u64::MAX),
                zigzag(1),
                zigzag(2u64.wrapping_neg())
            ],
            [0, 1, 2, 3]
        );
        let mut steps = Vec::new();
        for x in [0, 0x7f, 0x80, 0x3fff, 0x4000, u64::MAX] {
            put_varint(&mut steps, x);
        }
        let mut rest = steps.as_slice();
        for (len, x) in [
            (1, 0),
            (1, 0x7f),
            (2, 0x80),
            (2, 0x3fff),
            (3, 0x4000),
            (10, u64::MAX),
        ] {
            let before = rest.len();
            assert_eq!(take_varint(&mut rest), x);
            assert_eq!(before - rest.len(), len, "{x:#x}");
        }
        // A 120 µs step and a 1448-byte one: three bytes and two.
        let mut s = Series::new();
        s.push(SimTime::from_micros(120), 1448);
        assert_eq!(s.0.as_ref().unwrap().steps.len(), 5);
    }

    #[test]
    fn a_constant_step_is_one_plain_step_and_one_run() {
        let mut s = Series::new();
        for k in 1..=1_000_000 {
            s.push(SimTime::from_micros(120 * k), 1448 * k);
        }
        let steps = &s.0.as_ref().unwrap().steps;
        // Five bytes plain, then the run's escape and its 3-byte count: at
        // most 16 bytes for a million samples.
        assert_eq!(steps.len(), 9);
        assert_eq!(s.len(), 1_000_000);
        assert_eq!(s.last(), Some((120.0, 1_448_000_000.0)));
        assert_eq!(
            serde::to_json_string(&s),
            "[[0.00012,1448,1000000,0.00012,1448]]"
        );
        assert_eq!(
            s.samples().nth(499_999),
            Some((SimTime::from_secs(60), 724_000_000))
        );
        // Another step ends the run (1 s and a cut: five bytes and five);
        // the next is plain too (1 s and 7 B), and its repeat starts a run.
        s.push(SimTime::from_secs(121), 7);
        s.push(SimTime::from_secs(122), 14);
        s.push(SimTime::from_secs(123), 21);
        assert_eq!(s.0.as_ref().unwrap().steps.len(), 9 + 10 + 6 + 2);
        assert_eq!(
            s.samples().skip(999_999).collect::<Vec<_>>(),
            [
                (SimTime::from_secs(120), 1_448_000_000),
                (SimTime::from_secs(121), 7),
                (SimTime::from_secs(122), 14),
                (SimTime::from_secs(123), 21),
            ]
        );
        // Zero time steps, zero value steps and cuts run the same way.
        for (dt, dv) in [(0, 0), (0, 1), (1, 0), (7, u64::MAX)] {
            let mut s = Series::new();
            let (mut ns, mut v) = (5, 1 << 40);
            for _ in 0..1_000_000 {
                s.push(SimTime::from_nanos(ns), v);
                ns += dt;
                v = v.wrapping_add(dv);
            }
            let held = s.0.as_ref().unwrap().steps.len();
            assert!(held <= 16, "({dt}, {dv}): {held} bytes");
            assert_eq!(
                s.samples().last(),
                Some((SimTime::from_nanos(ns - dt), v.wrapping_sub(dv)))
            );
        }
    }

    #[test]
    fn runs_render_as_one_element_and_read_back_in_one_append() {
        // The module docs' example.
        let mut s = Series::new();
        for (t, v) in [(1000, 10), (1500, 20), (2000, 30), (2500, 40), (3000, 7)] {
            s.push(ms(t), v);
        }
        let json = serde::to_json_string(&s);
        assert_eq!(json, "[[1,10],[1.5,20,3,0.5,10],[3,7]]");
        let back: Series = serde::from_json_str(&json).unwrap();
        assert_eq!(back, s);
        // A run appended whole holds what its samples pushed one at a time
        // hold: here it joins the step before it, and a later push joins
        // the run.
        let mut whole = Packed::default();
        whole.push(ms(0), 100);
        whole.push_run(1_000_000, 90, 5, 1_000_000, -10);
        whole.push(ms(6), 40);
        let one_by_one: Series = (0..7).map(|k| (ms(k), 100 - 10 * k)).collect();
        assert_eq!(Series::from(whole), one_by_one);
        assert_eq!(
            serde::to_json_string(&one_by_one),
            "[[0,100],[0.001,90,6,0.001,-10]]"
        );
    }

    #[test]
    fn a_step_that_carries_past_the_value_range_starts_an_element() {
        // Each step is 2^63 (mod 2^64), which as an i64 is -2^63: the fall
        // from 2^63 to 0 takes it, the rises carry past `u64::MAX` and
        // start elements of their own.
        let top = 1u64 << 63;
        let s: Series = (0..4)
            .map(|k| (ms(k), if k % 2 == 0 { 0 } else { top }))
            .collect();
        let json = serde::to_json_string(&s);
        assert_eq!(
            json,
            format!("[[0,0],[0.001,{top},2,0.001,-{top}],[0.003,{top}]]")
        );
        assert_eq!(serde::from_json_str::<Series>(&json).unwrap(), s);
        // Times past 10^15 ns are still whole nanoseconds.
        let far: Series = [(1, 1), (1_000_000_000_000_001, 2)]
            .map(|(ns, v)| (SimTime::from_nanos(ns), v))
            .into_iter()
            .collect();
        let json = serde::to_json_string(&far);
        assert_eq!(json, "[[0.000000001,1],[1000000.000000001,2]]");
        assert_eq!(serde::from_json_str::<Series>(&json).unwrap(), far);
    }
}
