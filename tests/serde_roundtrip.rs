//! Round-trip properties for the vendored serde pair: for every value the
//! workspace serializes, `Deserialize(Serialize(x)) == x`.
//!
//! `ScenarioSpec` round-trips are checked structurally (`PartialEq`);
//! `RunReport` (which holds floats and nested instrument blocks but no
//! `PartialEq`) is checked by re-serialization: `to_json` emits
//! shortest-round-trip floats and full-width integers, so
//! `to_json(from_json(to_json(r)))` must be byte-identical. Malformed-input
//! paths (unknown field, wrong type, truncated document) get unit tests at
//! the `RunReport` level; the `ScenarioSpec`-level equivalents live in
//! `rss_core::spec`'s unit tests.

use proptest::prelude::*;
use restricted_slow_start::{
    run, BurstLossDef, CcDef, FairnessDef, FlowDef, ImpairmentDef, ImpairmentsDef, JitterDef,
    OutageDef, PathDef, QueueDef, RedDef, RunReport, RunSpec, Scenario, ScenarioSpec, ShardsDef,
    SimDuration, SweepSpec, TuningDef,
};

fn arb_cc() -> impl Strategy<Value = CcDef> {
    prop_oneof![
        Just(CcDef::Standard),
        Just(CcDef::Restricted {
            tuning: None,
            setpoint_frac: None,
        }),
        (any::<bool>(), 1u32..100).prop_map(|(per_stream, w)| CcDef::Restricted {
            tuning: Some(if per_stream {
                TuningDef::PerStream
            } else {
                TuningDef::ForPath
            }),
            setpoint_frac: Some(0.5 + (w as f64) / 250.0),
        }),
        (0.01f64..10.0, 0.0001f64..0.1, 0.0001f64..0.1).prop_map(|(kp, ti, td)| {
            CcDef::Restricted {
                tuning: Some(TuningDef::Gains { kp, ti, td }),
                setpoint_frac: None,
            }
        }),
        prop_oneof![Just(None), (1u64..10_000_000).prop_map(Some)]
            .prop_map(|max_ssthresh| CcDef::Limited { max_ssthresh }),
        prop_oneof![Just(None), (1u32..64).prop_map(|g| Some(g as f64 / 2.0))]
            .prop_map(|gamma_segments| CcDef::Ssthreshless { gamma_segments }),
        Just(CcDef::HighSpeed),
        prop_oneof![Just(None), (1u32..5000).prop_map(Some)]
            .prop_map(|ai_cnt| CcDef::Scalable { ai_cnt }),
        Just(CcDef::Bbr),
        Just(CcDef::Relentless),
        Just(CcDef::Hybrid),
    ]
}

fn arb_fairness() -> impl Strategy<Value = Option<FairnessDef>> {
    prop_oneof![
        Just(None),
        Just(Some(FairnessDef {
            window_s: None,
            eps: None,
            csv: None,
        })),
        (1u32..50, 1u32..99, 0u32..2).prop_map(|(w, e, named)| {
            Some(FairnessDef {
                window_s: Some(w as f64 / 10.0),
                eps: Some(e as f64 / 100.0),
                csv: (named == 1).then(|| format!("fair_{w}.csv")),
            })
        }),
    ]
}

fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        (1u64..5000, 1u64..500, 1u32..2000),
        prop::collection::vec(arb_cc(), 1..4),
        (0u64..100, 1u32..64),
        prop_oneof![
            Just(None),
            prop::collection::vec(1u64..300, 1..4).prop_map(|rtts| Some(SweepSpec {
                rate_mbps: None,
                rtt_ms: Some(rtts.into_iter().map(|x| x as f64).collect()),
                txqueuelen: None,
                seed: None,
                streams: None,
            })),
        ],
        arb_fairness(),
    )
        .prop_map(|((rate, rtt, txq), ccs, (seed, stride), sweep, fairness)| {
            let runs = ccs
                .into_iter()
                .enumerate()
                .map(|(i, cc)| RunSpec {
                    label: format!("run{i}"),
                    path: Some(PathDef {
                        rate_mbps: Some(rate as f64),
                        rtt_ms: Some(rtt as f64),
                        router_queue_pkts: Some(txq),
                        loss_prob: None,
                        access_rate_mbps: None,
                        access_delay_us: (txq % 2 == 0).then_some(500.0),
                        impairments: (txq % 3 == 0).then(|| ImpairmentsDef {
                            haul: Some(ImpairmentDef {
                                burst_loss: Some(BurstLossDef {
                                    p_good_to_bad: 0.01,
                                    p_bad_to_good: 0.25,
                                    loss_good: None,
                                    loss_bad: 0.5,
                                }),
                                outages: Some(vec![OutageDef {
                                    start_s: 0.5,
                                    duration_s: 0.1,
                                }]),
                                flap: None,
                                jitter: Some(JitterDef {
                                    prob: 0.1,
                                    max_ms: 2.0,
                                }),
                                duplicate_prob: Some(0.01),
                            }),
                            access: None,
                        }),
                    }),
                    host: None,
                    tcp: None,
                    flows: Some(vec![FlowDef {
                        cc: Some(cc),
                        bytes: (stride % 3 == 0).then_some(1_000_000),
                        start_s: Some(seed as f64 / 64.0),
                        count: (stride % 2 == 0).then_some(stride),
                    }]),
                    gridftp: None,
                    cross: None,
                    duration_s: Some(1.5),
                    seed: Some(seed),
                    shared_sender_host: None,
                    stop_when_complete: Some(true),
                    queue: match (seed + i as u64) % 4 {
                        0 => None,
                        1 => Some(QueueDef::DropTail),
                        2 => Some(QueueDef::Red(RedDef {
                            min_th: Some(10.0),
                            max_th: None,
                            w_q: Some(0.005),
                            max_p: None,
                            gentle: Some(true),
                        })),
                        _ => Some(QueueDef::RedEcn(RedDef {
                            min_th: None,
                            max_th: Some(60.0),
                            w_q: None,
                            max_p: Some(0.2),
                            gentle: None,
                        })),
                    },
                    sample_interval_ms: None,
                    web100_stride: Some(stride),
                    auto_rwnd: Some(true),
                    max_sim_time_s: (seed % 2 == 0).then_some(1.25),
                    max_events: (seed % 5 == 0).then_some(5_000_000),
                })
                .collect();
            ScenarioSpec {
                name: "roundtrip".into(),
                comment: Some("generated by the round-trip property".into()),
                runs,
                sweep,
                fairness,
                shards: match seed % 3 {
                    0 => None,
                    1 => Some(ShardsDef::Auto),
                    _ => Some(ShardsDef::Count(seed as u32 % 7 + 1)),
                },
                output: None,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// `ScenarioSpec` survives a JSON round trip structurally intact.
    #[test]
    fn scenario_spec_roundtrips(spec in arb_spec()) {
        let json = serde::to_json_string(&spec);
        let back = ScenarioSpec::from_json(&json)
            .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n{json}"));
        prop_assert_eq!(&spec, &back);
        // And the re-serialization is byte-stable.
        prop_assert_eq!(json, serde::to_json_string(&back));
    }

    /// Every `CcDef` variant — the whole open enum, SSthreshless included —
    /// survives a bare JSON round trip: `Deserialize(Serialize(x)) == x`.
    #[test]
    fn cc_def_roundtrips(cc in arb_cc()) {
        let json = serde::to_json_string(&cc);
        let back: CcDef = serde::from_json_str(&json)
            .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n{json}"));
        prop_assert_eq!(cc, back);
        prop_assert_eq!(json, serde::to_json_string(&back));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// A real simulation report — floats, series, nested Web100 block —
    /// survives `to_json → from_json → to_json` byte-identically.
    #[test]
    fn run_report_roundtrips(
        rate_mbps in 5u64..40,
        seed in 1u64..500,
    ) {
        let sc = Scenario::paper_testbed_standard()
            .with_rate(rate_mbps * 1_000_000)
            .with_rtt(SimDuration::from_millis(10))
            .with_duration(SimDuration::from_millis(900))
            .with_seed(seed);
        let report = run(&sc);
        let json = report.to_json();
        let back = RunReport::from_json(&json)
            .unwrap_or_else(|e| panic!("report parse failed: {e}"));
        prop_assert_eq!(json, back.to_json());
    }
}

#[test]
fn run_report_rejects_unknown_field() {
    let sc = Scenario::paper_testbed_standard()
        .with_rate(10_000_000)
        .with_rtt(SimDuration::from_millis(10))
        .with_duration(SimDuration::from_millis(200));
    let json = run(&sc).to_json();
    let tampered = json.replacen("\"seed\":", "\"sede\":", 1);
    let err = RunReport::from_json(&tampered).unwrap_err();
    assert!(err.to_string().contains("unknown field `sede`"), "{err}");
}

#[test]
fn run_report_rejects_wrong_type() {
    let sc = Scenario::paper_testbed_standard()
        .with_rate(10_000_000)
        .with_rtt(SimDuration::from_millis(10))
        .with_duration(SimDuration::from_millis(200));
    let json = run(&sc).to_json();
    let tampered = json.replacen("\"seed\":1", "\"seed\":\"one\"", 1);
    let err = RunReport::from_json(&tampered).unwrap_err();
    assert!(err.to_string().contains("$.seed"), "{err}");
    assert!(
        err.to_string().contains("expected u64, found string"),
        "{err}"
    );
}

#[test]
fn run_report_rejects_truncated_input() {
    let sc = Scenario::paper_testbed_standard()
        .with_rate(10_000_000)
        .with_rtt(SimDuration::from_millis(10))
        .with_duration(SimDuration::from_millis(200));
    let json = run(&sc).to_json();
    let err = RunReport::from_json(&json[..json.len() / 2]).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("truncated") || msg.contains("end of input") || msg.contains("unterminated"),
        "{msg}"
    );
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The JSON byte contract: timestamps, window samples, counters and
/// strings. Both digests are pinned from the realization of the commit that
/// made the per-pair unit map the only one (the physics of these two runs
/// did not move; `events_processed` and the engine counters did, by the
/// sampling chains of two more units), and re-pinned once when a router
/// port stopped scheduling an event per departure: against the digests
/// before, the JSON differed in `events_processed` and `engine.{pops,
/// scheduled, placed_wheel}` alone (standard 1 552 293 → 1 036 618 events,
/// restricted 2 455 930 → 1 639 037). Re-pinned once more when the event
/// queue stopped keeping cancelled entries: the JSON lost
/// `,"tombstones_swept":0` from `engine` (21 bytes) and nothing else. They
/// therefore hold the serializer to itself; that it renders what
/// `format!("{x}")` rendered is what `cargo test -p serde` sweeps. The
/// restricted digest was re-pinned when a window with room for less than
/// one segment began to count as the window's limit, not the sender's: its
/// JSON differs from the one before in flow 0's `snd_lim_time_cwnd_ns` and
/// `snd_lim_time_sender_ns` alone (0.43 → 25 s and 24.57 → 0 s); the
/// standard run never sat in such a window and did not move.
///
/// Both were re-pinned when a flow's per-ACK series began to render as the
/// runs it holds (`[t_s, v]` and `[t_s, v, n, dt_s, dv]` elements) instead
/// of a `[t_s, value]` pair per sample: 5.6 → 0.117 MB standard and 9.0 →
/// 0.056 MB restricted. Each report read back by the reader of its own
/// format was checked equal to the one before field for field, and its
/// cwnd and acked series sample for sample (257 338 and 407 947 samples).
/// The byte ceilings, a tenth above those sizes, keep the series from
/// falling back to a sample per element unnoticed.
#[test]
fn paper_testbed_json_matches_pinned_digests() {
    for (sc, want, ceiling) in [
        (
            Scenario::paper_testbed_standard(),
            0x081b_7594_0bc7_d6c6u64,
            129_010,
        ),
        (
            Scenario::paper_testbed_restricted(),
            0xa39a_7035_9998_72dd,
            61_295,
        ),
    ] {
        let json = run(&sc).to_json();
        assert_eq!(
            fnv1a64(json.as_bytes()),
            want,
            "{} bytes of JSON diverged from the pinned rendering (got {:#018x})",
            json.len(),
            fnv1a64(json.as_bytes()),
        );
        assert!(
            json.len() <= ceiling,
            "{} bytes of JSON, over the {ceiling}-byte ceiling",
            json.len()
        );
        let back = RunReport::from_json(&json).unwrap_or_else(|e| panic!("report parse: {e}"));
        assert!(
            back.to_json() == json,
            "re-serialization is not byte-stable"
        );
    }
}
