//! `Series` against the `Vec<(f64, f64)>` it replaced in flow reports.
//!
//! A flow report used to record each sample as `(now.as_secs_f64(), v as
//! f64)` in a plain vector. The packed series must read back those pairs
//! bit for bit and render the JSON that vector rendered byte for byte, on
//! series drawn to reach every path of the writer: zero and 2^40 ns steps,
//! whole seconds, times on both sides of 10^15 ns (where rendering falls
//! back to `write_f64`), values that rise, are cut, and cross 2^53. A
//! second drawer repeats steps, so the writer's runs are checked the same
//! way: runs as long as 20 000 (their counts cross the one-, two- and
//! three-byte varint lengths), of zero and 2^32 ns steps, zero and negative
//! value steps, and a run that one other step breaks and the next resumes.

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
/// around 2^53 or a jump anywhere.
fn next_value(rng: &mut SimRng, v: u64, wide: bool) -> u64 {
    match rng.next_below(if wide { 6 } else { 4 }) {
        0 | 1 => v.saturating_add(rng.next_below(1 << 16)),
        2 => v / 2,
        3 => v.saturating_sub(rng.next_below(3_000)),
        4 => (1u64 << 53) - 4 + rng.next_below(8),
        _ => rng.next_u64() >> rng.next_below(64),
    }
}

/// A random series and the pairs the report's vector would have held. Half
/// stay where a recording lives (before 10^15 ns, values under 2^53).
fn draw(rng: &mut SimRng) -> (Series, Vec<(f64, f64)>) {
    let wide = rng.chance(0.5);
    let mut ns = match rng.next_below(if wide { 4 } else { 2 }) {
        0 => 0,
        1 => 1_000_000_000_000_000 - rng.next_below(1 << 30),
        2 => 1_000_000_000_000_000 + rng.next_below(1 << 30),
        _ => rng.next_below(1 << 60),
    };
    let mut v = rng.next_below(1 << 20);
    let (mut series, mut pairs) = (Series::new(), Vec::new());
    for _ in 0..rng.next_below(301) {
        ns += time_step(rng, wide);
        v = next_value(rng, v, wide);
        let now = SimTime::from_nanos(ns);
        series.push(now, v);
        pairs.push((now.as_secs_f64(), v as f64));
    }
    (series, pairs)
}

fn bits(pairs: &[(f64, f64)]) -> Vec<(u64, u64)> {
    pairs
        .iter()
        .map(|(t, v)| (t.to_bits(), v.to_bits()))
        .collect()
}

/// Check `series` against the `pairs` the report's vector would have held:
/// reads, length, ends, JSON and its re-parse. Returns whether the JSON
/// names every sample exactly, so the parse must equal `series`.
fn check(case: usize, series: &Series, pairs: &[(f64, f64)]) -> bool {
    let read: Vec<(f64, f64)> = series.iter().collect();
    assert_eq!(bits(&read), bits(pairs), "case {case}: iter()");
    assert_eq!(series.len(), pairs.len(), "case {case}");
    assert_eq!(series.samples().len(), pairs.len(), "case {case}");
    assert_eq!(series.first(), pairs.first().copied(), "case {case}");
    assert_eq!(series.last(), pairs.last().copied(), "case {case}");

    let json = serde::to_json_string(series);
    assert_eq!(json, serde::to_json_string(&pairs), "case {case}: JSON");
    let back: Series = serde::from_json_str(&json).unwrap_or_else(|e| panic!("case {case}: {e}"));
    assert_eq!(
        serde::to_json_string(&back),
        json,
        "case {case}: re-rendered"
    );
    // Below 10^15 ns and 2^53 the JSON names each sample exactly.
    let (last_ns, max_v) = series
        .samples()
        .fold((0, 0), |(_, m), (t, v)| (t.as_nanos(), m.max(v)));
    let exact = last_ns < 1_000_000_000_000_000 && max_v < 1 << 53;
    if exact {
        assert_eq!(&back, series, "case {case}: parsed");
    }
    exact
}

#[test]
fn series_reads_and_renders_as_the_pairs_it_replaced() {
    let mut rng = SimRng::seed_from_u64(35);
    let mut exact = 0;
    for case in 0..SERIES {
        let (series, pairs) = draw(&mut rng);
        exact += usize::from(check(case, &series, &pairs));
    }
    assert!(exact > SERIES / 5, "only {exact} exact cases");
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
/// the pairs the report's vector would have held.
fn draw_runs(rng: &mut SimRng) -> (Series, Vec<(f64, f64)>) {
    let mut ns = rng.next_below(1 << 30);
    let mut v = rng.next_below(1 << 50);
    let (mut series, mut pairs) = (Series::new(), Vec::new());
    let mut push = |ns: u64, v: u64| {
        let now = SimTime::from_nanos(ns);
        series.push(now, v);
        pairs.push((now.as_secs_f64(), v as f64));
    };
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
                push(ns, v);
            }
            ns += dt;
            v = v.wrapping_add(dv);
            push(ns, v);
        }
    }
    (series, pairs)
}

#[test]
fn repeated_steps_read_and_render_as_the_pairs_they_replaced() {
    let mut rng = SimRng::seed_from_u64(42);
    let mut exact = 0;
    for case in 0..RUN_SERIES {
        let (series, pairs) = draw_runs(&mut rng);
        exact += usize::from(check(case, &series, &pairs));
    }
    assert!(exact > RUN_SERIES / 5, "only {exact} exact cases");
}

#[test]
fn series_parsing_rejects_what_a_recording_cannot_hold() {
    let ok = "[[0,1],[0.5,3],[0.5,2],[1.000000001,4]]";
    let s: Series = serde::from_json_str(ok).unwrap();
    assert_eq!(serde::to_json_string(&s), ok);
    for (json, want) in [
        (
            "[[0,1],[1.0000000005,2]]",
            "at $[1][1] (line 1): time 1.0000000005 s is not a whole number of nanoseconds",
        ),
        (
            "[[0,1],[0.5,1.5]]",
            "at $[1][1] (line 1): value 1.5 is not a whole number under 2^64",
        ),
        (
            "[[0,1],[-1,2]]",
            "at $[1][1] (line 1): sample [-1, 2] is negative",
        ),
        (
            "[[0,1],[1,-2]]",
            "at $[1][1] (line 1): sample [1, -2] is negative",
        ),
        (
            "[[0,1],[2,2],[1.5,3]]",
            "at $[1][2] (line 1): time 1.5 s precedes the sample before it (2 s)",
        ),
        (
            "[[0,1],[0,1e20]]",
            "at $[1][1] (line 1): value 100000000000000000000 is not a whole number under 2^64",
        ),
        (
            "[[0,1],[0,1,2]]",
            "at $[1][1] (line 1): expected an array of 2 elements, found 3",
        ),
    ] {
        // One series deep in a list, so the path names which one.
        let err = serde::from_json_str::<Vec<Series>>(&format!("[[],{json}]")).unwrap_err();
        assert_eq!(err.to_string(), want, "{json}");
    }
}
