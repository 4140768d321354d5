//! # rss-bench — the experiment catalogue
//!
//! One module per experiment in DESIGN.md §5 (E1–E10). Each experiment has a
//! `run_*()` function returning a structured result with `print()` (ASCII
//! tables/charts) and `to_csv()`; the `experiments` binary dispatches on an
//! experiment id and writes CSVs under `results/`. Timing lives elsewhere:
//! `bash benchmark/run.sh` is the repo's one timing instrument.

#![warn(missing_docs)]

pub mod experiments;

pub use experiments::*;

use std::path::{Path, PathBuf};

/// The workspace root (where `results/` lives).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

/// Directory experiment CSVs are written to.
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a CSV artifact and report where it went.
pub fn write_csv(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).expect("write csv");
    path
}
