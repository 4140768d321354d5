//! Where does Restricted Slow-Start help? A small WAN grid: RTT × line rate,
//! reporting the throughput improvement over standard TCP in each cell.
//!
//! The grid is data — `scenarios/wan_sweep.json` holds the two runs
//! (standard, per-rate-retuned restricted) and the `sweep` block; this
//! example is a thin wrapper that expands the file and renders the table.
//! `rss run scenarios/wan_sweep.json` executes the identical 24 simulations.
//!
//! ```text
//! cargo run --release --example wan_sweep
//! ```
//!
//! Expectation from §1 of the paper: the win grows with the bandwidth-delay
//! product — short/slow paths barely stall, long/fast paths lose most of
//! their capacity to a single early send-stall.

use rss_core::plot::ascii_table;
use rss_core::{run_many, ScenarioSpec};
use std::path::Path;

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = ScenarioSpec::load(&root.join("scenarios/wan_sweep.json")).expect("load scenario");
    let expanded = spec.expand().expect("expand scenario");

    let scenarios: Vec<_> = expanded.iter().map(|r| r.scenario.clone()).collect();
    let reports: Vec<_> = run_many(&scenarios)
        .0
        .into_iter()
        .map(|(r, _)| r.expect("scenario runs"))
        .collect();

    // Pair the runs per sweep cell by label (robust to extra runs being
    // added to the file); the cell's path parameters come from the resolved
    // scenario itself.
    let cells = expanded.last().map_or(0, |r| r.cell + 1);
    let mut rows = Vec::new();
    for cell in 0..cells {
        let index_of = |label: &str| {
            expanded
                .iter()
                .position(|r| r.cell == cell && r.label == label)
                .unwrap_or_else(|| panic!("cell {cell} is missing run `{label}`"))
        };
        let (si, ri) = (index_of("standard"), index_of("restricted"));
        let sc = &expanded[si].scenario;
        let std = &reports[si].flows[0];
        let rss = &reports[ri].flows[0];
        rows.push(vec![
            format!("{}", sc.path.rate_bps as f64 / 1e6),
            format!("{}", sc.path.rtt.as_nanos() as f64 / 1e6),
            format!("{:.2}", std.goodput_bps / 1e6),
            std.vars.send_stall.to_string(),
            format!("{:.2}", rss.goodput_bps / 1e6),
            format!("{:+.1}%", (rss.goodput_bps / std.goodput_bps - 1.0) * 100.0),
        ]);
    }
    println!("WAN grid: 25 s bulk transfer, txqueuelen 100, per-cell retuned RSS\n");
    println!(
        "{}",
        ascii_table(
            &[
                "rate Mbit/s",
                "RTT ms",
                "std Mbit/s",
                "std stalls",
                "rss Mbit/s",
                "improvement"
            ],
            &rows
        )
    );
    println!("reading: the improvement tracks the bandwidth-delay product, §1's claim.");
}
