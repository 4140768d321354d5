//! `rss` — the scenario-file runner.
//!
//! Scenarios are data (`scenarios/*.json`, schema in `rss_core::spec`); this
//! CLI expands them (sweep grids included), executes them deterministically
//! in parallel with duplicate cells deduped, and writes the per-flow summary
//! CSV the golden-gated CI matrix diffs.
//!
//! ```text
//! rss run scenarios/quickstart.json [--out results]
//! rss list [scenarios]
//! rss list --variants
//! rss validate scenarios            # a directory validates every *.json inside
//! rss validate --recursive scenarios  # ... descending into faults/, stress/, ...
//! rss validate scenarios/*.json
//! ```

use restricted_slow_start::plot::ascii_table;
use restricted_slow_start::{
    cc_registry, fairness_csv, fairness_reports, results_csv, run_many, BatchCell, ExpandedRun,
    FairnessReport, ScenarioSpec, ShardsDef,
};
use serde::Serialize as _;
use std::path::{Component, Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  rss run <scenario.json> [--out <dir>] [--shards <n|auto>] [--stats]\n                                          execute and write artifacts (--shards overrides\n                                          the file's executor choice; results are identical;\n                                          --stats prints engine queue counters, or with\n                                          shards the window and envelope counts, per run)\n  rss list [<dir>]                        summarize scenario files (default: scenarios/)\n  rss list --variants [--markdown]        list the registered congestion-control variants\n                                          (--markdown emits docs/VARIANTS.md)\n  rss validate [--recursive] <path>...    parse + semantic-check, no execution\n                                          (a directory validates every *.json inside it;\n                                          --recursive descends into subdirectories)"
    );
    ExitCode::from(2)
}

/// Normalize an artifact path for display. A scenario's configured artifact
/// name may be absolute (`PathBuf::join` then discards the output
/// directory) or drag `./`/`..` segments through the join; show the
/// lexically-cleaned result instead of the raw concatenation, so the
/// printed path is exactly what the user can pass to other tools from the
/// CWD (or anywhere, when absolute).
fn display_artifact_path(path: &Path) -> String {
    let mut out = PathBuf::new();
    for comp in path.components() {
        match comp {
            Component::CurDir => {}
            Component::ParentDir => match out.components().next_back() {
                // `a/b/.. -> a`; a leading run of `..` (or one past the
                // root, which is the root itself) cannot be cancelled.
                Some(Component::Normal(_)) => {
                    out.pop();
                }
                Some(Component::RootDir) | Some(Component::Prefix(_)) => {}
                _ => out.push(".."),
            },
            other => out.push(other.as_os_str()),
        }
    }
    if out.as_os_str().is_empty() {
        ".".to_string()
    } else {
        out.display().to_string()
    }
}

/// Friendly pre-flight for a scenario-file argument: a missing path or a
/// non-`.json` file gets a message naming the path and pointing at
/// `rss list`, instead of a raw parser/IO error.
fn check_scenario_path(path: &Path) -> Result<(), String> {
    if !path.exists() {
        return Err(format!(
            "scenario file `{}` does not exist — `rss list` shows the available scenario files",
            path.display()
        ));
    }
    if path.extension().is_none_or(|x| x != "json") {
        return Err(format!(
            "`{}` is not a .json scenario file — `rss list` shows the available scenario files",
            path.display()
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        _ => usage(),
    }
}

/// Parse a `--shards` argument: a positive integer or `auto`.
fn parse_shards(arg: &str) -> Result<ShardsDef, String> {
    if arg == "auto" {
        return Ok(ShardsDef::Auto);
    }
    match arg.parse::<u32>() {
        Ok(n) if n >= 1 => Ok(ShardsDef::Count(n)),
        _ => Err(format!(
            "--shards expects a positive integer or `auto`, got `{arg}`"
        )),
    }
}

/// One `error:` line per run of the batch that produced no report.
fn failures(file: &Path, runs: &[ExpandedRun], cells: &[BatchCell]) -> Vec<String> {
    let file = file.display();
    runs.iter()
        .zip(cells)
        .filter_map(|(er, (outcome, _))| {
            let e = outcome.as_ref().err()?;
            Some(format!(
                "error: {file}: run `{}` (cell {}): {e}",
                er.label, er.cell
            ))
        })
        .collect()
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut file = None;
    let mut out_dir = PathBuf::from("results");
    let mut shards_override = None;
    let mut stats = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stats" => stats = true,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => out_dir = PathBuf::from(dir),
                    None => return usage(),
                }
            }
            "--shards" => {
                i += 1;
                match args.get(i).map(|a| parse_shards(a)) {
                    Some(Ok(sh)) => shards_override = Some(sh),
                    Some(Err(msg)) => {
                        eprintln!("error: {msg}");
                        return ExitCode::from(2);
                    }
                    None => return usage(),
                }
            }
            a if file.is_none() => file = Some(PathBuf::from(a)),
            _ => return usage(),
        }
        i += 1;
    }
    let Some(file) = file else { return usage() };
    if let Err(msg) = check_scenario_path(&file) {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }

    let mut spec = match ScenarioSpec::load(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(sh) = shards_override {
        // Override the file's executor choice for every expanded run.
        // Results are shard-count-invariant, so this never changes the
        // artifacts — only the wall clock.
        spec.shards = Some(sh);
    }
    let runs = match spec.expand() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
    };

    let scenarios: Vec<_> = runs.iter().map(|r| r.scenario.clone()).collect();
    let (cells, unique) = run_many(&scenarios);
    let failures = failures(&file, &runs, &cells);
    if !failures.is_empty() {
        failures.iter().for_each(|line| eprintln!("{line}"));
        return ExitCode::FAILURE;
    }
    let (reports, walls): (Vec<_>, Vec<f64>) = cells
        .into_iter()
        .map(|(report, wall_ms)| (report.expect("no run failed"), wall_ms))
        .unzip();
    println!(
        "{}: {} run(s) across {} cell(s), {} unique simulation(s)",
        spec.name,
        runs.len(),
        spec.cells(),
        unique
    );
    if let Some(comment) = &spec.comment {
        println!("{comment}");
    }

    let rows: Vec<Vec<String>> = runs
        .iter()
        .zip(reports.iter().zip(&walls))
        .map(|(er, (rep, wall_ms))| {
            let sc = &er.scenario;
            vec![
                er.cell.to_string(),
                er.label.clone(),
                format!("{}", sc.path.rate_bps as f64 / 1e6),
                format!("{}", sc.path.rtt.as_nanos() as f64 / 1e6),
                sc.host.txqueuelen.to_string(),
                sc.flows.len().to_string(),
                format!("{:.2}", rep.total_goodput_bps() / 1e6),
                rep.total_stalls().to_string(),
                rep.events_processed.to_string(),
                format!("{wall_ms:.1}"),
                format!(
                    "{:.2}",
                    rep.events_processed as f64 / (wall_ms / 1e3).max(1e-9) / 1e6
                ),
            ]
        })
        .collect();
    println!(
        "{}",
        ascii_table(
            &[
                "cell",
                "run",
                "rate Mbit/s",
                "RTT ms",
                "txq",
                "flows",
                "goodput Mbit/s",
                "stalls",
                "events",
                "wall ms",
                "Mev/s"
            ],
            &rows
        )
    );

    // Executor diagnostics on request. Runs without `shards` expose their one
    // engine's calendar-wheel placement/cancellation telemetry (it depends on
    // how units are grouped into domains, so runs with `shards` omit it);
    // runs with `shards` expose the window walk and the cross-unit flight
    // count, which do not.
    if stats {
        let labelled = |row: Vec<String>, er: &ExpandedRun| {
            [vec![er.cell.to_string(), er.label.clone()], row].concat()
        };
        let engine_rows: Vec<Vec<String>> = runs
            .iter()
            .zip(&reports)
            .filter_map(|(er, rep)| {
                let q = rep.engine.as_ref()?;
                let row = vec![
                    q.scheduled.to_string(),
                    q.pops.to_string(),
                    format!("{:.1}", q.wheel_hit_rate() * 100.0),
                    q.cancelled.to_string(),
                    q.far_migrations.to_string(),
                ];
                Some(labelled(row, er))
            })
            .collect();
        if !engine_rows.is_empty() {
            println!("engine queue counters:");
            println!(
                "{}",
                ascii_table(
                    &[
                        "cell",
                        "run",
                        "scheduled",
                        "pops",
                        "wheel hit %",
                        "cancelled",
                        "far migrations"
                    ],
                    &engine_rows
                )
            );
        }
        let shard_rows: Vec<Vec<String>> = runs
            .iter()
            .zip(&reports)
            .filter_map(|(er, rep)| {
                let s = rep.shard.as_ref()?;
                let grid = (s.windows_run + s.windows_skipped).max(1);
                let row = vec![
                    s.windows_run.to_string(),
                    s.windows_skipped.to_string(),
                    format!("{:.1}", s.windows_skipped as f64 * 100.0 / grid as f64),
                    s.envelopes.to_string(),
                    format!(
                        "{:.1}",
                        rep.events_processed as f64 / s.windows_run.max(1) as f64
                    ),
                ];
                Some(labelled(row, er))
            })
            .collect();
        if !shard_rows.is_empty() {
            println!("shard executor counters (the same at every shard count):");
            println!(
                "{}",
                ascii_table(
                    &[
                        "cell",
                        "run",
                        "windows run",
                        "windows skipped",
                        "skipped %",
                        "envelopes",
                        "events/window"
                    ],
                    &shard_rows
                )
            );
        }
    }

    // Recovery & watchdog summary: only printed when fault injection left a
    // trace (an RTO episode, or a truncated run) so ordinary scenarios keep
    // their familiar output.
    let eventful = reports
        .iter()
        .any(|r| r.truncated.is_some() || r.flows.iter().any(|f| f.rto_episodes > 0));
    if eventful {
        let rows: Vec<Vec<String>> = runs
            .iter()
            .zip(&reports)
            .map(|(er, rep)| {
                let episodes: u64 = rep.flows.iter().map(|f| f.rto_episodes).sum();
                let max_backoff = rep
                    .flows
                    .iter()
                    .map(|f| f.rto_max_backoff)
                    .max()
                    .unwrap_or(0);
                let max_recovery = rep
                    .flows
                    .iter()
                    .filter_map(|f| f.rto_max_recovery_s)
                    .fold(None::<f64>, |m, v| Some(m.map_or(v, |m| m.max(v))));
                vec![
                    er.cell.to_string(),
                    er.label.clone(),
                    episodes.to_string(),
                    format!("\u{d7}{}", 1u64 << max_backoff),
                    max_recovery
                        .map(|t| format!("{t:.3}"))
                        .unwrap_or_else(|| "-".into()),
                    rep.truncated.clone().unwrap_or_else(|| "-".into()),
                ]
            })
            .collect();
        println!("recovery under faults (RTO episodes, deepest backoff, slowest recovery):");
        println!(
            "{}",
            ascii_table(
                &[
                    "cell",
                    "run",
                    "RTO episodes",
                    "max backoff",
                    "max recovery s",
                    "truncated"
                ],
                &rows
            )
        );
    }

    // Fairness & convergence metrics, when the scenario opts in — computed
    // once, shared by the printed table and the CSV artifact.
    let frs: Option<Vec<FairnessReport>> = spec
        .fairness
        .as_ref()
        .map(|_| fairness_reports(&spec, &reports));
    if let (Some(def), Some(frs)) = (&spec.fairness, &frs) {
        let (window_s, eps) = (def.window_s(), def.eps());
        let rows: Vec<Vec<String>> = runs
            .iter()
            .zip(frs)
            .map(|(er, fr)| {
                let variants = fr
                    .variants
                    .iter()
                    .map(|v| {
                        format!(
                            "{}\u{d7}{} {:.2} Mbit/s, {} stalls",
                            v.algo,
                            v.flows,
                            v.goodput_bps / 1e6,
                            v.stalls
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("; ");
                vec![
                    er.cell.to_string(),
                    er.label.clone(),
                    format!("{:.4}", fr.jain),
                    fr.convergence_s
                        .map(|t| format!("{t:.2}"))
                        .unwrap_or_else(|| "never".into()),
                    variants,
                ]
            })
            .collect();
        println!(
            "fairness over {window_s} s goodput windows (converged when Jain \u{2265} {}):",
            1.0 - eps
        );
        println!(
            "{}",
            ascii_table(
                &[
                    "cell",
                    "run",
                    "Jain index",
                    "converged s",
                    "per-variant goodput"
                ],
                &rows
            )
        );
    }

    // Artifacts: the summary CSV always, the fairness CSV when the spec
    // opts in, full JSON reports on request. The output directory may not
    // exist on a fresh clone — create it first.
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let csv_path = out_dir.join(spec.csv_name());
    let csv = results_csv(&spec, &runs, &reports);
    if let Err(e) = std::fs::write(&csv_path, csv) {
        eprintln!("error: write {}: {e}", csv_path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", display_artifact_path(&csv_path));

    if let (Some(name), Some(frs)) = (spec.fairness_csv_name(), &frs) {
        let fcsv_path = out_dir.join(name);
        if let Err(e) = std::fs::write(&fcsv_path, fairness_csv(&spec, &runs, frs)) {
            eprintln!("error: write {}: {e}", fcsv_path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", display_artifact_path(&fcsv_path));
    }

    if let Some(json_name) = spec.output.as_ref().and_then(|o| o.json.clone()) {
        // Labels/names are user-controlled: escape them properly instead of
        // interpolating raw (a quote in a label must not break the artifact).
        let mut doc = String::from("{\"scenario\":");
        serde::write_json_escaped(&spec.name, &mut doc);
        doc.push_str(",\"runs\":[");
        for (i, (er, rep)) in runs.iter().zip(&reports).enumerate() {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str("{\"label\":");
            serde::write_json_escaped(&er.label, &mut doc);
            doc.push_str(",\"cell\":");
            er.cell.serialize_json(&mut doc);
            doc.push_str(",\"report\":");
            rep.serialize_json(&mut doc);
            doc.push('}');
        }
        doc.push_str("]}\n");
        let json_path = out_dir.join(json_name);
        if let Err(e) = std::fs::write(&json_path, doc) {
            eprintln!("error: write {}: {e}", json_path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", display_artifact_path(&json_path));
    }
    ExitCode::SUCCESS
}

fn scenario_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// `rss list --variants`: the congestion-control registry as a table — the
/// full menu a scenario file's `cc` field accepts. `--markdown` emits the
/// registry-generated variant gallery instead (`docs/VARIANTS.md` is
/// exactly this output; CI regenerates and diffs it, so the gallery cannot
/// drift from the registry).
fn cmd_list_variants(markdown: bool) -> ExitCode {
    if markdown {
        print!("{}", cc_registry::markdown_gallery());
        return ExitCode::SUCCESS;
    }
    let rows: Vec<Vec<String>> = cc_registry::variants()
        .iter()
        .map(|v| {
            vec![
                v.name.to_string(),
                v.algo.to_string(),
                v.summary.to_string(),
                v.params.to_string(),
                v.reference.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        ascii_table(
            &["variant", "algorithm", "summary", "params", "reference"],
            &rows
        )
    );
    ExitCode::SUCCESS
}

fn cmd_list(args: &[String]) -> ExitCode {
    if args.first().map(String::as_str) == Some("--variants") {
        return match args.get(1).map(String::as_str) {
            None => cmd_list_variants(false),
            Some("--markdown") if args.len() == 2 => cmd_list_variants(true),
            _ => usage(),
        };
    }
    let dir = PathBuf::from(args.first().map(String::as_str).unwrap_or("scenarios"));
    let files = scenario_files(&dir);
    if files.is_empty() {
        eprintln!("no scenario files in {}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut rows = Vec::new();
    for f in &files {
        match ScenarioSpec::load(f) {
            Ok(spec) => rows.push(vec![
                spec.name.clone(),
                spec.runs.len().to_string(),
                spec.cells().to_string(),
                f.display().to_string(),
                spec.comment.clone().unwrap_or_default(),
            ]),
            Err(e) => rows.push(vec![
                "<invalid>".into(),
                "-".into(),
                "-".into(),
                f.display().to_string(),
                e.to_string(),
            ]),
        }
    }
    println!(
        "{}",
        ascii_table(&["name", "runs", "cells", "file", "comment"], &rows)
    );
    ExitCode::SUCCESS
}

fn validate_one(path: &Path, failed: &mut bool) {
    if let Err(msg) = check_scenario_path(path) {
        eprintln!("invalid: {msg}");
        *failed = true;
        return;
    }
    // `load` errors already carry the file name; prefix it onto the
    // semantic (expand-time) errors only.
    let checked = ScenarioSpec::load(path).and_then(|spec| {
        spec.validate()
            .map(|()| spec)
            .map_err(|e| restricted_slow_start::SpecError {
                msg: format!("{}: {e}", path.display()),
            })
    });
    match checked {
        Ok(spec) => println!(
            "ok: {} ({} run(s) × {} cell(s))",
            path.display(),
            spec.runs.len(),
            spec.cells()
        ),
        Err(e) => {
            eprintln!("invalid: {e}");
            *failed = true;
        }
    }
}

/// Every scenario file under `dir`, recursively, in a deterministic
/// (sorted, depth-first) order.
fn scenario_files_recursive(dir: &Path) -> Vec<PathBuf> {
    let mut files = scenario_files(dir);
    let mut subdirs: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect()
        })
        .unwrap_or_default();
    subdirs.sort();
    for sub in subdirs {
        files.extend(scenario_files_recursive(&sub));
    }
    files
}

fn cmd_validate(args: &[String]) -> ExitCode {
    let mut recursive = false;
    let paths: Vec<&String> = args
        .iter()
        .filter(|a| {
            if a.as_str() == "--recursive" {
                recursive = true;
                false
            } else {
                true
            }
        })
        .collect();
    if paths.is_empty() {
        return usage();
    }
    let mut failed = false;
    for arg in paths {
        let path = Path::new(arg);
        if path.is_dir() {
            // A directory argument validates every scenario file inside it
            // (the CI matrix passes `scenarios` as one argument);
            // `--recursive` descends into subdirectories (e.g. the
            // `scenarios/faults/` family) too.
            let files = if recursive {
                scenario_files_recursive(path)
            } else {
                scenario_files(path)
            };
            if files.is_empty() {
                eprintln!("invalid: no *.json scenario files in `{}`", path.display());
                failed = true;
                continue;
            }
            for f in &files {
                validate_one(f, &mut failed);
            }
        } else {
            validate_one(path, &mut failed);
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_path_error_names_the_path_and_suggests_list() {
        let err = check_scenario_path(Path::new("scenarios/no_such_file.json")).unwrap_err();
        assert!(
            err.contains("`scenarios/no_such_file.json` does not exist"),
            "{err}"
        );
        assert!(err.contains("rss list"), "{err}");
    }

    #[test]
    fn non_json_path_error_names_the_path_and_suggests_list() {
        // Any checked-in non-JSON file works as the probe.
        let err = check_scenario_path(Path::new("README.md")).unwrap_err();
        assert!(
            err.contains("`README.md` is not a .json scenario file"),
            "{err}"
        );
        assert!(err.contains("rss list"), "{err}");
        // Extensionless paths get the same treatment.
        let err = check_scenario_path(Path::new("Cargo.lock")).unwrap_err();
        assert!(err.contains("not a .json scenario file"), "{err}");
    }

    #[test]
    fn a_failed_run_is_one_error_line() {
        let spec = ScenarioSpec::from_json(
            r#"{"name":"t","runs":[{"label":"a","flows":[{}],"duration_s":0.05},
                {"label":"b","flows":[{}],"duration_s":0.05}],"sweep":{"seed":[1,2]}}"#,
        )
        .unwrap();
        let runs = spec.expand().unwrap();
        let mut scenarios: Vec<_> = runs.iter().map(|r| r.scenario.clone()).collect();
        let file = Path::new("t.json");
        assert!(failures(file, &runs, &run_many(&scenarios).0).is_empty());
        // Run `b` of cell 1 cannot be built: only its line is printed.
        scenarios[3].path.rate_bps = 0;
        assert_eq!(
            failures(file, &runs, &run_many(&scenarios).0),
            ["error: t.json: run `b` (cell 1): path.rate_bps: must be positive"]
        );
    }

    #[test]
    fn existing_scenario_passes_the_preflight() {
        assert!(check_scenario_path(Path::new("scenarios/quickstart.json")).is_ok());
    }

    #[test]
    fn shards_flag_parses_counts_and_auto_only() {
        assert_eq!(parse_shards("1").unwrap(), ShardsDef::Count(1));
        assert_eq!(parse_shards("8").unwrap(), ShardsDef::Count(8));
        assert_eq!(parse_shards("auto").unwrap(), ShardsDef::Auto);
        for bad in ["0", "-2", "2.5", "many", "Auto", ""] {
            let err = parse_shards(bad).unwrap_err();
            assert!(err.contains("positive integer or `auto`"), "{bad}: {err}");
        }
    }

    #[test]
    fn displayed_artifact_paths_are_normalized() {
        // Relative joins print relative to the CWD, cleaned of `./`.
        assert_eq!(
            display_artifact_path(Path::new("results/./scenario_x.csv")),
            "results/scenario_x.csv"
        );
        // `..` segments are resolved lexically.
        assert_eq!(
            display_artifact_path(Path::new("results/../fair.csv")),
            "fair.csv"
        );
        assert_eq!(
            display_artifact_path(Path::new("a/b/../../c/x.csv")),
            "c/x.csv"
        );
        // An absolute configured artifact name bypassed the output
        // directory in the join; it must print absolute, untouched.
        assert_eq!(
            display_artifact_path(Path::new("/tmp/out/./fair.csv")),
            "/tmp/out/fair.csv"
        );
        assert_eq!(display_artifact_path(Path::new("/../x.csv")), "/x.csv");
        // Uncancellable leading `..` survives; an empty result is the CWD.
        assert_eq!(display_artifact_path(Path::new("../x.csv")), "../x.csv");
        assert_eq!(display_artifact_path(Path::new("a/..")), ".");
    }
}
