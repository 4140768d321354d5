//! Reproduce **Figure 1** of the paper: cumulative send-stall signals over
//! time, standard Linux TCP vs the proposed (restricted) scheme.
//!
//! The testbeds are data — `scenarios/figure1.json` — and this example is a
//! thin wrapper that loads the two headline runs from it (the file's third
//! run, the Tahoe-style stall response, is for `rss run` and the CI scenario
//! matrix).
//!
//! ```text
//! cargo run --release --example figure1_send_stalls
//! ```
//!
//! The standard stack climbs a staircase of stall signals in the first
//! seconds of the transfer and pays for each with a window collapse; the
//! restricted stack holds the interface queue at 90 % of `txqueuelen` and
//! never stalls.

use rss_core::plot::{ascii_chart, Series};
use rss_core::{run, ScenarioSpec};
use std::path::Path;

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = ScenarioSpec::load(&root.join("scenarios/figure1.json")).expect("load scenario");
    let runs = spec.expand().expect("expand scenario");
    let scenario = |label: &str| {
        &runs
            .iter()
            .find(|r| r.label == label)
            .expect("run label")
            .scenario
    };
    let standard = run(scenario("standard_cwr"));
    let restricted = run(scenario("restricted"));

    let stair = |r: &rss_core::RunReport| -> Vec<(f64, f64)> {
        r.flows[0]
            .stall_staircase(25.0, 0.25)
            .into_iter()
            .map(|(t, c)| (t, c as f64))
            .collect()
    };
    let s_pts = stair(&standard);
    let r_pts = stair(&restricted);

    println!(
        "{}",
        ascii_chart(
            "Figure 1: cumulative send-stall signals (paper testbed, 25 s)",
            &[
                Series {
                    label: "standard TCP",
                    points: &s_pts,
                    glyph: '#',
                },
                Series {
                    label: "restricted slow-start",
                    points: &r_pts,
                    glyph: 'o',
                },
            ],
            72,
            10,
        )
    );

    println!(
        "stall events (standard): {:?}",
        standard.flows[0].stall_times_s
    );
    println!(
        "stall events (restricted): {:?}",
        restricted.flows[0].stall_times_s
    );

    // The IFQ view of the same story: what the controller regulates.
    let ifq_std: Vec<(f64, f64)> = standard
        .sender_ifq_series
        .iter()
        .copied()
        .filter(|&(t, _)| t < 3.0)
        .collect();
    let ifq_rss: Vec<(f64, f64)> = restricted
        .sender_ifq_series
        .iter()
        .copied()
        .filter(|&(t, _)| t < 3.0)
        .collect();
    println!(
        "{}",
        ascii_chart(
            "IFQ depth (packets) during the first 3 s",
            &[
                Series {
                    label: "standard TCP",
                    points: &ifq_std,
                    glyph: '#',
                },
                Series {
                    label: "restricted slow-start (set point = 90)",
                    points: &ifq_rss,
                    glyph: 'o',
                },
            ],
            72,
            12,
        )
    );
}
