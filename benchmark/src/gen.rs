//! Workload table and spec generator: seed in, scenario-spec JSON text out.
//!
//! The program under test receives only the generated text. The generator
//! owns its random stream (splitmix64), so the same seed gives byte-identical
//! text on every host and a different seed changes the text, the realization
//! and therefore the digests.

use std::fmt::Write;

/// Which executor the generated spec selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// The classic serial world (`shards` absent).
    Serial,
    /// The sharded executor with this many domains (`"shards": n`).
    Domains(u32),
}

/// Which generator makes a workload's spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The §4 testbed, three variants.
    Paper,
    /// 10 000 standard flows on a dumbbell.
    Manyflow,
    /// Nine variants through RED/ECN with haul impairments.
    LossyAqm,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Generator family: workloads of one family draw the same stream, so
    /// `manyflow` and `manyflow_sharded` differ in the `shards` line only.
    pub family: Family,
    /// Executor the spec text selects.
    pub executor: Executor,
    /// One-line reason the workload exists, as in `BENCHMARK.json`.
    pub why: &'static str,
}

impl Workload {
    /// The spec text for `seed`.
    pub fn spec_text(&self, seed: u64) -> String {
        self.spec_text_on(seed, self.executor)
    }

    /// The same inputs routed to another executor — the shard-invariance
    /// check runs the sharded workload's text at one domain.
    pub fn spec_text_on(&self, seed: u64, executor: Executor) -> String {
        let (stream, generate): (u64, fn(&mut SplitMix64, Executor) -> String) = match self.family {
            Family::Paper => (1, paper),
            Family::Manyflow => (2, manyflow),
            Family::LossyAqm => (3, lossy_aqm),
        };
        generate(&mut SplitMix64::new(seed ^ (stream << 56)), executor)
    }
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper_testbed",
        family: Family::Paper,
        executor: Executor::Serial,
        why: "The paper's own experiment (standard, restricted, limited on the 100 Mbit/s testbed): one flow, sparse event queue, all time in tcp/cc/host/control.",
    },
    Workload {
        name: "paper_windowed",
        family: Family::Paper,
        executor: Executor::Domains(1),
        why: "Same testbed through the 1-domain sharded executor: ~500k lookahead windows for ~0.3M events per run, so the per-window loop does most of the work.",
    },
    Workload {
        name: "manyflow",
        family: Family::Manyflow,
        executor: Executor::Serial,
        why: "10k bulk flows on a 1 Gbit/s dumbbell: dense calendar wheel, fabric hop and packet arena, RTO coalescing, World::build, 10k-row CSV and fairness rendering, peak memory.",
    },
    Workload {
        name: "manyflow_sharded",
        family: Family::Manyflow,
        executor: Executor::Domains(2),
        why: "The same spec text with shards 2: ~2000 busy windows, barrier, envelope exchange and hub share; window-skipping tricks must show nothing here.",
    },
    Workload {
        name: "lossy_aqm",
        family: Family::LossyAqm,
        executor: Executor::Serial,
        why: "180 flows of all nine cc variants through a marking RED bottleneck with burst loss and jitter: RED, impairments, recovery/RTO, out-of-order receive and non-Reno cc dispatch carry the run.",
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// splitmix64 (Steele, Lea & Flood 2014): the generator's private stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seed the stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A simulation seed: positive and small enough to read in a CSV.
    fn sim_seed(&mut self) -> u64 {
        1 + self.next_u64() % 1_000_000
    }
}

/// FNV-1a 64 — the digest of the CSV strings.
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn shards_line(executor: Executor) -> String {
    match executor {
        Executor::Serial => String::new(),
        Executor::Domains(n) => format!("  \"shards\": {n},\n"),
    }
}

// How far the seed moves the inputs. A benchmark run on ten seeds must agree
// with itself to within a third of each metric's bound, so the seed changes
// the realization (and every digest) while the amount of work stays put:
// wider jitter on the chaotic many-flow start makes the event count swing
// by ±5 % and goodput by ±4 % from seed to seed.

/// RTT spread of the paper workloads around the testbed's 60 ms, as a share.
const PAPER_RTT_SPREAD: f64 = 0.01;
/// Largest start-time jitter of a `manyflow` cohort, seconds: below the
/// 12 µs a packet takes on the 1 Gbit/s access link.
const MANYFLOW_START_JITTER_S: f64 = 10e-6;
/// Realizations per `lossy_aqm` iteration (the `sweep.seed` axis): goodput
/// of one realization spreads ~2 % across seeds, of three ~1.2 %.
const LOSSY_REALIZATIONS: usize = 3;

/// §4 testbed: 100 Mbit/s, `txqueuelen` 100; RTT 60 ms ± 1 % and the run
/// seed come from the stream. The windowed variant runs 5 s instead of 25 s
/// (its cost is per lookahead window, not per event).
fn paper(rng: &mut SplitMix64, executor: Executor) -> String {
    let rtt_ms = 60.0 * (1.0 + PAPER_RTT_SPREAD * (2.0 * rng.unit() - 1.0));
    let seed = rng.sim_seed();
    let duration_s = if executor == Executor::Serial { 25 } else { 5 };
    let mut out = format!(
        "{{\n  \"name\": \"bench_paper\",\n{}  \"runs\": [\n",
        shards_line(executor)
    );
    let variants = [
        ("standard", "\"Standard\""),
        ("restricted", "{ \"Restricted\": {} }"),
        ("limited", "{ \"Limited\": {} }"),
    ];
    for (i, (label, cc)) in variants.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"label\": \"{label}\", \"path\": {{ \"rate_mbps\": 100, \"rtt_ms\": {rtt_ms:.3} }}, \
             \"host\": {{ \"txqueuelen\": 100 }}, \"flows\": [{{ \"cc\": {cc} }}], \
             \"duration_s\": {duration_s}, \"seed\": {seed} }}{}",
            if i + 1 < variants.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `scenarios/manyflow_dumbbell.json` geometry: 10 000 standard bulk
/// flows in 100 cohorts whose start times are jittered ≤ 10 µs.
fn manyflow(rng: &mut SplitMix64, executor: Executor) -> String {
    let seed = rng.sim_seed();
    let mut out = format!(
        "{{\n  \"name\": \"bench_manyflow\",\n{}  \"runs\": [\n    {{\n      \"label\": \"manyflow\",\n      \
         \"path\": {{ \"rate_mbps\": 1000, \"rtt_ms\": 60, \"router_queue_pkts\": 1000, \"access_delay_us\": 1000 }},\n      \
         \"flows\": [\n",
        shards_line(executor)
    );
    for i in 0..100 {
        let start_s = rng.unit() * MANYFLOW_START_JITTER_S;
        let _ = writeln!(
            out,
            "        {{ \"count\": 100, \"start_s\": {start_s:.9} }}{}",
            if i < 99 { "," } else { "" }
        );
    }
    let _ = write!(
        out,
        "      ],\n      \"duration_s\": 2,\n      \"seed\": {seed},\n      \"sample_interval_ms\": 500,\n      \
         \"web100_stride\": 1024\n    }}\n  ],\n  \"fairness\": {{ \"window_s\": 0.5, \"eps\": 0.05 }}\n}}\n"
    );
    out
}

/// The nine registry variants as scenario-file `cc` values.
const CC_DEFS: [&str; 9] = [
    "\"Standard\"",
    "{ \"Restricted\": {} }",
    "{ \"Limited\": {} }",
    "{ \"Ssthreshless\": {} }",
    "\"HighSpeed\"",
    "{ \"Scalable\": {} }",
    "\"Bbr\"",
    "\"Relentless\"",
    "\"Hybrid\"",
];

/// The mean-field geometry of `scenarios/aqm/ecn_meanfield.json` with all
/// nine variants and haul impairments: 9 × 20 flows in four start cohorts
/// (0, 0.1, 0.2, 0.3 s, each jittered ≤ 10 ms), swept over three run seeds
/// drawn from the stream.
fn lossy_aqm(rng: &mut SplitMix64, _executor: Executor) -> String {
    let seeds: Vec<String> = (0..LOSSY_REALIZATIONS)
        .map(|_| rng.sim_seed().to_string())
        .collect();
    let cohorts: Vec<f64> = (0..4).map(|k| 0.1 * k as f64 + rng.unit() * 0.01).collect();
    let mut out = String::from(
        "{\n  \"name\": \"bench_lossy_aqm\",\n  \"runs\": [\n    {\n      \"label\": \"ensemble\",\n      \
         \"path\": {\n        \"rate_mbps\": 200, \"rtt_ms\": 60, \"access_rate_mbps\": 800,\n        \
         \"router_queue_pkts\": 250, \"access_delay_us\": 500,\n        \
         \"impairments\": { \"haul\": {\n          \
         \"burst_loss\": { \"p_good_to_bad\": 0.0001, \"p_bad_to_good\": 0.25, \"loss_bad\": 0.75 },\n          \
         \"jitter\": { \"prob\": 0.0002, \"max_ms\": 0.8 }\n        } }\n      },\n      \
         \"host\": { \"nic_rate_mbps\": 800 },\n      \"flows\": [\n",
    );
    for (v, cc) in CC_DEFS.iter().enumerate() {
        for (k, start_s) in cohorts.iter().enumerate() {
            let last = v + 1 == CC_DEFS.len() && k + 1 == cohorts.len();
            let _ = writeln!(
                out,
                "        {{ \"cc\": {cc}, \"count\": 5, \"start_s\": {start_s:.6} }}{}",
                if last { "" } else { "," }
            );
        }
    }
    let _ = write!(
        out,
        "      ],\n      \
         \"queue\": {{ \"RedEcn\": {{ \"min_th\": 50, \"max_th\": 200, \"w_q\": 0.002, \"max_p\": 0.1 }} }},\n      \
         \"duration_s\": 6,\n      \"sample_interval_ms\": 50,\n      \
         \"web100_stride\": 256\n    }}\n  ],\n  \"sweep\": {{ \"seed\": [{}] }},\n  \
         \"fairness\": {{ \"window_s\": 1.0, \"eps\": 0.1 }}\n}}\n",
        seeds.join(", ")
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_text_other_seed_other_text() {
        for w in &WORKLOADS {
            assert_eq!(w.spec_text(7), w.spec_text(7), "{}", w.name);
            assert_ne!(w.spec_text(7), w.spec_text(8), "{}", w.name);
        }
    }

    #[test]
    fn sharded_twin_differs_in_the_shards_line_only() {
        let strip = |text: String| -> String {
            text.lines()
                .filter(|l| !l.contains("\"shards\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let serial = find("manyflow").unwrap().spec_text(3);
        let sharded = find("manyflow_sharded").unwrap().spec_text(3);
        assert!(sharded.contains("\"shards\": 2"));
        assert!(!serial.contains("\"shards\""));
        assert_eq!(strip(serial), strip(sharded));
    }

    #[test]
    fn digest_is_the_published_fnv1a64() {
        // Reference vectors from the FNV specification.
        assert_eq!(fnv1a64(*b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(*b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(*b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn workload_names_are_unique_and_well_formed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::report::is_metric_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
        }
    }
}
