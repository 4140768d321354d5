//! `Series` against the samples it was given and the `Vec<(f64, f64)>` it
//! replaced in flow reports.
//!
//! A flow report used to record each sample as `(now.as_secs_f64(), v as
//! f64)` in a plain vector. The packed series must read back those pairs
//! bit for bit. Its JSON must decode to exactly the samples pushed,
//! re-render byte for byte, and hold as many elements as the greedy rule of
//! the module docs, computed here from the samples alone. The series are
//! drawn to reach every path of the writer: zero and 2^40 ns steps, whole
//! seconds, times on both sides of 10^15 ns (where seconds stop being what
//! `serde::write_nanos_as_secs` writes exactly), values that rise, are
//! cut, and cross 2^53. A second drawer repeats steps, so the writer's runs
//! are checked the same way: runs as long as 20 000 (their counts cross the
//! one-, two- and three-byte varint lengths), of zero and 2^32 ns steps,
//! zero and negative value steps, and a run that one other step breaks and
//! the next resumes.

use rss_sim::{SimRng, SimTime};
use rss_web100::Series;

/// Series per run; each holds up to 300 samples.
const SERIES: usize = 3_000;

/// One random time step, in ns; `wide` reaches 2^40.
fn time_step(rng: &mut SimRng, wide: bool) -> u64 {
    match rng.next_below(if wide { 6 } else { 4 }) {
        0 => 0,
        1 => rng.next_below(1_000),
        2 => rng.next_below(1 << 20),
        3 => rng.range_inclusive(1, 3) * 1_000_000_000,
        4 => rng.next_below(1 << 40),
        _ => 1 << 40,
    }
}

/// The next value after `v`: a rise or a cut, or with `wide` also a step
/// around 2^53, a jump anywhere, or a step of 2^63 either way (two in a row
/// are one step modulo 2^64, and one of them carries).
fn next_value(rng: &mut SimRng, v: u64, wide: bool) -> u64 {
    match rng.next_below(if wide { 7 } else { 4 }) {
        0 | 1 => v.saturating_add(rng.next_below(1 << 16)),
        2 => v / 2,
        3 => v.saturating_sub(rng.next_below(3_000)),
        4 => (1u64 << 53) - 4 + rng.next_below(8),
        5 => v ^ 1 << 63,
        _ => rng.next_u64() >> rng.next_below(64),
    }
}

/// A random series and the samples pushed into it. Half stay where a
/// recording lives (before 10^15 ns, values under 2^53).
fn draw(rng: &mut SimRng) -> (Series, Vec<(SimTime, u64)>) {
    let wide = rng.chance(0.5);
    let mut ns = match rng.next_below(if wide { 4 } else { 2 }) {
        0 => 0,
        1 => 1_000_000_000_000_000 - rng.next_below(1 << 30),
        2 => 1_000_000_000_000_000 + rng.next_below(1 << 30),
        _ => rng.next_below(1 << 60),
    };
    let mut v = rng.next_below(1 << 20);
    let mut samples = Vec::new();
    for _ in 0..rng.next_below(301) {
        ns += time_step(rng, wide);
        v = next_value(rng, v, wide);
        samples.push((SimTime::from_nanos(ns), v));
    }
    (samples.iter().copied().collect(), samples)
}

fn bits(pairs: impl Iterator<Item = (f64, f64)>) -> Vec<(u64, u64)> {
    pairs.map(|(t, v)| (t.to_bits(), v.to_bits())).collect()
}

/// The number of elements the module docs' rule picks, from the samples:
/// each starts one unless it takes the step the sample before it took, in
/// nanoseconds and in value, that step read as an i64 adding up exactly.
fn greedy_elements(samples: &[(SimTime, u64)]) -> usize {
    let (mut prev, mut prev_step) = ((0, 0), None);
    let mut elements = 0;
    for &(t, v) in samples {
        let ns = t.as_nanos();
        let step = (ns - prev.0, v.wrapping_sub(prev.1));
        let exact = prev.1.checked_add_signed(step.1 as i64) == Some(v);
        if prev_step != Some(step) || !exact {
            elements += 1;
        }
        (prev, prev_step) = ((ns, v), Some(step));
    }
    elements
}

/// What the writer paths a case reached: a time at or past 10^15 ns, a
/// value at or past 2^53, and a run element.
#[derive(Default)]
struct Reached {
    far_times: usize,
    wide_values: usize,
    runs: usize,
}

/// Check `series` against the `samples` pushed into it: reads, length,
/// ends, and the JSON's decode, re-render and element count.
fn check(case: usize, series: &Series, samples: &[(SimTime, u64)], reached: &mut Reached) {
    let pairs: Vec<(f64, f64)> = samples
        .iter()
        .map(|&(t, v)| (t.as_secs_f64(), v as f64))
        .collect();
    assert_eq!(
        bits(series.iter()),
        bits(pairs.iter().copied()),
        "case {case}: iter()"
    );
    assert_eq!(series.len(), samples.len(), "case {case}");
    assert!(series.samples().eq(samples.iter().copied()), "case {case}");
    assert_eq!(series.first(), pairs.first().copied(), "case {case}");
    assert_eq!(series.last(), pairs.last().copied(), "case {case}");

    let json = serde::to_json_string(series);
    let back: Series = serde::from_json_str(&json).unwrap_or_else(|e| panic!("case {case}: {e}"));
    assert!(
        back.samples().eq(samples.iter().copied()),
        "case {case}: decoded"
    );
    assert_eq!(&back, series, "case {case}: parsed");
    assert_eq!(
        serde::to_json_string(&back),
        json,
        "case {case}: re-rendered"
    );
    // Elements nest one deep and hold only numbers.
    let elements = json.matches('[').count() - 1;
    assert_eq!(elements, greedy_elements(samples), "case {case}: {json}");

    reached.far_times += usize::from(
        samples
            .iter()
            .any(|(t, _)| t.as_nanos() >= 1_000_000_000_000_000),
    );
    reached.wide_values += usize::from(samples.iter().any(|&(_, v)| v >= 1 << 53));
    reached.runs += usize::from(elements < samples.len());
}

#[test]
fn drawn_series_read_as_pairs_and_round_trip_through_runs() {
    let mut rng = SimRng::seed_from_u64(35);
    let mut reached = Reached::default();
    for case in 0..SERIES {
        let (series, samples) = draw(&mut rng);
        check(case, &series, &samples, &mut reached);
    }
    for (path, n) in [
        ("times past 10^15 ns", reached.far_times),
        ("values past 2^53", reached.wide_values),
    ] {
        assert!(n > SERIES / 20, "only {n} cases with {path}");
    }
}

/// Series of repeated steps per run.
const RUN_SERIES: usize = 80;

/// How many times a step repeats: often a few, sometimes a length whose
/// count is at a varint length's edge, up to 20 000.
fn run_length(rng: &mut SimRng) -> u64 {
    const EDGES: [u64; 9] = [2, 127, 128, 129, 16_383, 16_384, 16_385, 16_386, 20_000];
    match rng.next_below(8) {
        0..=4 => rng.range_inclusive(1, 300),
        5 | 6 => EDGES[rng.next_below(EDGES.len() as u64) as usize],
        _ => rng.range_inclusive(1, 20_000),
    }
}

/// A series built from runs of equal `(time step, value step)` pairs, and
/// the samples pushed into it.
fn draw_runs(rng: &mut SimRng) -> (Series, Vec<(SimTime, u64)>) {
    let mut ns = rng.next_below(1 << 30);
    let mut v = rng.next_below(1 << 50);
    let mut samples = Vec::new();
    for _ in 0..rng.range_inclusive(1, 4) {
        let len = run_length(rng);
        let dt = match rng.next_below(4) {
            0 => 0,
            1 => rng.next_below(200_000),
            2 => 120_000,
            // At least 2^32 ns, repeated.
            _ => (1 << 32) + rng.next_below(1 << 33),
        };
        // A rise, none, or a cut that `len` repeats cannot take below 0.
        let dv = match rng.next_below(3) {
            0 => rng.next_below(3_000),
            1 => 0,
            _ => rng.next_below(v / len + 1).wrapping_neg(),
        };
        // Now and then one other step breaks the run, which then resumes.
        let broken_at = rng.chance(0.25).then(|| rng.next_below(len));
        for i in 0..len {
            if Some(i) == broken_at {
                ns += 1;
                v += 1;
                samples.push((SimTime::from_nanos(ns), v));
            }
            ns += dt;
            v = v.wrapping_add(dv);
            samples.push((SimTime::from_nanos(ns), v));
        }
    }
    (samples.iter().copied().collect(), samples)
}

#[test]
fn repeated_steps_read_as_pairs_and_round_trip_through_runs() {
    let mut rng = SimRng::seed_from_u64(42);
    let mut reached = Reached::default();
    for case in 0..RUN_SERIES {
        let (series, samples) = draw_runs(&mut rng);
        check(case, &series, &samples, &mut reached);
    }
    assert_eq!(reached.runs, RUN_SERIES);
}

#[test]
fn series_parsing_rejects_what_a_recording_cannot_hold() {
    // A run element's first sample takes the run's step from the sample
    // before it, or it would be an element of its own.
    let ok = "[[0,1],[0.5,3],[0.5,2],[1.000000001,5,3,0.500000001,3]]";
    let s: Series = serde::from_json_str(ok).unwrap();
    assert_eq!(serde::to_json_string(&s), ok);
    assert_eq!(s.last(), Some((2.000000003, 11.0)));
    // A run of u32::MAX samples is one append, not four billion.
    let s: Series = serde::from_json_str("[[0,0,4294967295,0.000000001,1]]").unwrap();
    assert_eq!(s.len(), u32::MAX as usize);
    assert_eq!(s.last(), Some((4.294967294, 4_294_967_294.0)));
    for (json, want) in [
        (
            "[[0,1],[1.0000000005,2]]",
            "at $[1][1] (line 1): time 1.0000000005 s is not whole nanoseconds under 2^64",
        ),
        (
            "[[0,1],[0.5,1.5]]",
            "at $[1][1] (line 1): value 1.5 is not an integer under 2^64",
        ),
        (
            "[[0,1],[-1,2]]",
            "at $[1][1] (line 1): time -1 s is not whole nanoseconds under 2^64",
        ),
        (
            "[[0,1],[1,-2]]",
            "at $[1][1] (line 1): value -2 is not an integer under 2^64",
        ),
        (
            "[[0,1],[2,2],[1.5,3]]",
            "at $[1][2] (line 1): time 1.5 s precedes the sample before it (2 s)",
        ),
        (
            "[[0,1],[0,1e20]]",
            "at $[1][1] (line 1): value 1e20 is not an integer under 2^64",
        ),
        (
            "[[18446744073.709551616,1]]",
            "at $[1][0] (line 1): time 18446744073.709551616 s is not whole nanoseconds under 2^64",
        ),
        (
            "[[18446744073.709551615,1]]",
            "at $[1][0] (line 1): a time step of u64::MAX ns cannot be held",
        ),
        (
            "[[0,1],[0,1,2]]",
            "at $[1][1] (line 1): expected [t_s, v] or [t_s, v, n, dt_s, dv], found 3 elements",
        ),
        (
            "[[0,1,2,0.5]]",
            "at $[1][0] (line 1): expected [t_s, v] or [t_s, v, n, dt_s, dv], found 4 elements",
        ),
        (
            "[[0,1,0,1,1]]",
            "at $[1][0] (line 1): a run holds from 2 to u32::MAX samples, not 0",
        ),
        (
            "[[0,1,1,1,1]]",
            "at $[1][0] (line 1): a run holds from 2 to u32::MAX samples, not 1",
        ),
        (
            "[[0,1,4294967296,1,1]]",
            "at $[1][0] (line 1): a run holds from 2 to u32::MAX samples, not 4294967296",
        ),
        (
            "[[0,1,3000000000,0,0],[1,1,1294967296,0,0]]",
            "at $[1][1] (line 1): a series holds at most u32::MAX samples, and this element makes 4294967296",
        ),
        (
            "[[0,1,3000000000,0,0],[1,1],[1,1,1294967295,0,0]]",
            "at $[1][2] (line 1): a series holds at most u32::MAX samples, and this element makes 4294967296",
        ),
        (
            "[[0,1,4294967295,0,0],[0,1]]",
            "at $[1][1] (line 1): a series holds at most u32::MAX samples, and this element makes 4294967296",
        ),
        (
            "[[1,1,3,10000000000,1]]",
            "at $[1][0] (line 1): the run's last time, 20000000001000000000 ns, passes 2^64",
        ),
        (
            "[[0,18446744073709551614,3,1,1]]",
            "at $[1][0] (line 1): the run's last value, 18446744073709551616, is not in 0..2^64",
        ),
        (
            "[[0,1,3,1,-1]]",
            "at $[1][0] (line 1): the run's last value, -1, is not in 0..2^64",
        ),
        (
            "[[0,1,2,18446744073.709551615,0]]",
            "at $[1][0] (line 1): time step 18446744073.709551615 s is not whole nanoseconds under 2^64 − 1",
        ),
        (
            "[[0,0,2,1,9223372036854775808]]",
            "at $[1][0] (line 1): value step 9223372036854775808 is not a signed 64-bit integer",
        ),
        (
            "[[0,1,3,1,1],[1.5,2]]",
            "at $[1][1] (line 1): time 1.5 s precedes the sample before it (2 s)",
        ),
        (
            "[[0,1],[1,2,2,\"a\",1]]",
            "at $[1][1] (line 1): expected a number, found string",
        ),
    ] {
        // One series deep in a list, so the path names which one.
        let err = serde::from_json_str::<Vec<Series>>(&format!("[[],{json}]")).unwrap_err();
        assert_eq!(err.to_string(), want, "{json}");
    }
}
