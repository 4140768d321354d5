//! GridFTP-style parallel streams: stripe one 100 MB transfer over N TCP
//! connections from a single host — the workload that motivated the authors
//! (they built GridFTP, and the send-stall pathology surfaced in their
//! IGrid2002 demo).
//!
//! The workload is data — `scenarios/gridftp_parallel.json` holds the two
//! runs (standard, per-stream-retuned restricted) and the stream-count
//! sweep; this example is a thin wrapper that expands the file and renders
//! the completion table. `rss run scenarios/gridftp_parallel.json` executes
//! the identical simulations.
//!
//! ```text
//! cargo run --release --example gridftp_parallel
//! ```

use rss_core::plot::ascii_table;
use rss_core::{run_many, RunReport, Scenario, ScenarioSpec};
use std::path::Path;

/// Bytes the run's flows transfer (the striped transfer size).
fn committed_bytes(sc: &Scenario) -> u64 {
    sc.flows.iter().filter_map(|f| f.bytes).sum()
}

/// Worst completion time across the stripes, total stalls, Jain fairness.
fn summarize(r: &RunReport) -> (Option<f64>, u64, f64) {
    let completion = r
        .flows
        .iter()
        .map(|f| f.completed_at_s)
        .collect::<Option<Vec<f64>>>()
        .map(|ts| ts.into_iter().fold(0.0f64, f64::max));
    (completion, r.total_stalls(), r.fairness())
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec =
        ScenarioSpec::load(&root.join("scenarios/gridftp_parallel.json")).expect("load scenario");
    let expanded = spec.expand().expect("expand scenario");

    let scenarios: Vec<_> = expanded.iter().map(|r| r.scenario.clone()).collect();
    let reports: Vec<_> = run_many(&scenarios)
        .0
        .into_iter()
        .map(|(r, _)| r.expect("scenario runs"))
        .collect();

    // The transfer size comes from the scenario file, not a constant here.
    let total = committed_bytes(&expanded[0].scenario);
    println!(
        "striping a {} MB transfer over N parallel streams, one sending host\n",
        total / (1024 * 1024)
    );
    let mut rows = Vec::new();
    for (er, report) in expanded.iter().zip(&reports) {
        let total = committed_bytes(&er.scenario);
        let (done, stalls, jain) = summarize(report);
        rows.push(vec![
            er.scenario.flows.len().to_string(),
            er.label.clone(),
            done.map(|t| format!("{t:.2} s"))
                .unwrap_or_else(|| "unfinished".into()),
            done.map(|t| format!("{:.2}", total as f64 * 8.0 / t / 1e6))
                .unwrap_or_else(|| "-".into()),
            stalls.to_string(),
            format!("{jain:.3}"),
        ]);
    }
    println!(
        "{}",
        ascii_table(
            &[
                "streams",
                "algorithm",
                "completion",
                "eff. Mbit/s",
                "stalls",
                "Jain"
            ],
            &rows
        )
    );
    println!("note: every stream runs its own PID against the shared interface queue.");
}
