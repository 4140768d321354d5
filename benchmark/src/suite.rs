//! The whole set: every workload as a child process of this binary (so each
//! workload's peak memory is its own), gathered into `out/latest.json`; and
//! the A/A mode that runs the set several times on one build.

use crate::gen::WORKLOADS;
use crate::report::{Declaration, Environment, ResultLine, END_TO_END};
use crate::stats::quartile_spread;
use crate::Args;
use serde::Serialize;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// One gathered result: workload, traced or not, the facts the listing
/// printed (`key = value`), and the result line.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Traced (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// Facts recorded beside the numbers.
    pub facts: Vec<(String, String)>,
    /// The result line.
    pub result: ResultLine,
}

#[derive(Debug, Serialize)]
struct Latest {
    seed: u64,
    seconds: f64,
    quick: bool,
    environment: Environment,
    results: Vec<Row>,
}

/// Write `out/latest.json`: the numbers with the seed, git commit, `nproc`,
/// CPU model and `rustc -V` beside them.
pub fn write_latest(out: &Path, args: &Args, rows: &[Row]) -> Result<(), String> {
    let latest = Latest {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        environment: Environment::probe(),
        results: rows.to_vec(),
    };
    let path = out.join("latest.json");
    let mut json = serde::to_json_string(&latest);
    json.push('\n');
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run one workload in a child of this binary, echo its listing, and return
/// its facts and result line.
fn child(workload: &str, traced: bool, args: &Args) -> Result<Row, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (listing, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{workload}: no result line (exit {})", output.status))?;
    println!("{listing}");
    let result =
        ResultLine::from_json(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let facts = listing
        .lines()
        .filter_map(|l| l.strip_prefix("   ")?.split_once(" = "))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok(Row {
        workload: workload.to_string(),
        traced,
        facts,
        result,
    })
}

/// One pass over every workload in the given modes.
fn one_set(args: &Args, modes: &[bool]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for &traced in modes {
            rows.push(child(w.name, traced, args)?);
        }
    }
    Ok(rows)
}

/// The whole set, or `--aa N` sets.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    let out = crate::report::out_dir().map_err(|e| format!("benchmark/out: {e}"))?;
    if let Some(sets) = args.aa {
        return a_a(args, sets, &out);
    }
    let modes: &[bool] = match args.trace {
        Some(traced) => &[traced],
        None => &[false, true],
    };
    let rows = one_set(args, modes)?;
    write_latest(&out, args, &rows)?;
    let failed: Vec<&str> = rows
        .iter()
        .filter(|r| !r.result.correct)
        .map(|r| r.workload.as_str())
        .collect();
    println!(
        "== {} workloads, seed {}, results in {}",
        WORKLOADS.len(),
        args.seed,
        out.join("latest.json").display()
    );
    if failed.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        println!("== FAILED checks on: {}", failed.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

/// Facts that must agree exactly between sets of one seed.
const EXACT_FACTS: [&str; 3] = ["sim.events", "core.results_digest", "goodput_mbps"];

/// Run the untraced set `sets` times on this build and print, per
/// end-to-end metric and workload, the spread against the metric's bound —
/// the driver's rule: the distance between the first and third quartile as
/// a share of the median (at two sets that is 1.5 × their difference).
/// Non-zero exit when a spread exceeds its bound, an exact fact differs, or
/// a check fails.
fn a_a(args: &Args, sets: u32, out: &Path) -> Result<ExitCode, String> {
    let decl = Declaration::load()?;
    let mut all: Vec<Vec<Row>> = Vec::new();
    for i in 0..sets {
        println!("== A/A set {} of {sets}", i + 1);
        all.push(one_set(args, &[false])?);
    }
    write_latest(out, args, all.last().expect("at least two sets"))?;

    let mut ok = all.iter().flatten().all(|r| r.result.correct);
    println!(
        "== A/A over {sets} sets, seed {}: spread = (Q3 - Q1) / median",
        args.seed
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (name, _) in END_TO_END {
            let bound = decl
                .end_to_end
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.bound)
                .ok_or_else(|| format!("BENCHMARK.json has no `{name}`"))?;
            let values: Vec<f64> = all
                .iter()
                .filter_map(|set| set[w].result.metrics.get(name).map(|m| m.value))
                .collect();
            if values.len() != all.len() {
                return Err(format!(
                    "{}: `{name}` missing from a result line",
                    workload.name
                ));
            }
            let spread = quartile_spread(&values);
            let verdict = if spread <= bound { "ok" } else { "EXCEEDED" };
            ok &= spread <= bound;
            println!(
                "   {:<18} {:<14} spread {:>7.3} %  bound {:>5.1} %  {verdict}",
                workload.name,
                name,
                spread * 100.0,
                bound * 100.0
            );
        }
        for key in EXACT_FACTS {
            let fact = |set: &Vec<Row>| {
                set[w]
                    .facts
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
            };
            let first = fact(&all[0]);
            let same = first.is_some() && all.iter().all(|set| fact(set) == first);
            ok &= same;
            println!(
                "   {:<18} {:<14} {} {}",
                workload.name,
                key,
                first.as_deref().unwrap_or("missing"),
                if same { "identical" } else { "DIFFERS" }
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
