//! The repo's benchmark: one command measures the scenario→report pipeline
//! end to end and attributes it layer by layer. See `README.md`.
//!
//! ```text
//! benchmark/run.sh                       # every workload, untraced then traced
//! benchmark/run.sh --quick               # smoke: every check and name, < 30 s
//! benchmark/run.sh --aa 2                # two sets on one build, spreads vs bounds
//! benchmark/run.sh --workload manyflow --seed 7 --seconds 15 --trace 0
//! ```
//!
//! With `--workload` the process measures that workload itself (one process
//! per workload, so peak memory belongs to it) and prints, as the last line
//! of standard output, one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Without it, the process runs every workload as a child of
//! itself and gathers their result lines.

mod api;
mod gen;
mod measure;
mod report;
mod speed;
mod stats;
mod suite;
mod trace;

use measure::{Options, Outcome};
use report::{MetricValue, ResultLine};
use std::process::ExitCode;
use std::time::Instant;

/// Default `--seed`; recorded in every output.
const DEFAULT_SEED: u64 = 20_050_927;
/// Default `--seconds`, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str =
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--aa [N]]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Measure this workload in this process; `None` runs the whole set.
    pub workload: Option<String>,
    /// Seed of the spec generator.
    pub seed: u64,
    /// Length of each measuring loop.
    pub seconds: f64,
    /// Traced or untraced; `None` (whole set only) runs both.
    pub trace: Option<bool>,
    /// Smoke mode.
    pub quick: bool,
    /// A/A mode: how many sets to run on this build.
    pub aa: Option<u32>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
        aa: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value("a name")?.clone()),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                out.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--quick" => out.quick = true,
            "--aa" => {
                let n = match it.peek().and_then(|next| next.parse::<u32>().ok()) {
                    Some(n) => {
                        it.next();
                        n
                    }
                    None => 2,
                };
                if n < 2 {
                    return Err("--aa needs at least 2 sets".into());
                }
                out.aa = Some(n);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.aa.is_some() && (out.workload.is_some() || out.quick) {
        return Err("--aa runs the whole set at full length".into());
    }
    Ok(out)
}

fn print_outcome(w: &gen::Workload, opt: Options, outcome: &Outcome) {
    let mode = if opt.traced {
        "traced, per-layer"
    } else {
        "untraced, end-to-end"
    };
    let quick = if opt.quick {
        " — QUICK, not for comparison"
    } else {
        ""
    };
    println!("== {} ({mode}){quick}", w.name);
    println!("   # {}", w.why);
    for (key, value) in &outcome.facts {
        println!("   {key} = {value}");
    }
    for m in &outcome.metrics {
        println!(
            "   {:<32} {:>18.6} {:<9} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "   runs: {} attempted, {} failed (run_fail_share {:.6})",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for problem in &outcome.problems {
        println!("   PROBLEM: {problem}");
    }
}

fn single(name: &str, args: &Args, started: Instant) -> Result<ExitCode, String> {
    let w = gen::find(name).ok_or_else(|| {
        let known: Vec<&str> = gen::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let opt = Options {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace.unwrap_or(false),
        quick: args.quick,
    };
    let outcome = measure::run(w, opt, started);
    print_outcome(w, opt, &outcome);

    let line = ResultLine {
        correct: outcome.correct,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics: outcome
            .metrics
            .iter()
            .map(|m| {
                let value = MetricValue {
                    value: m.value,
                    unit: m.unit.to_string(),
                };
                (m.name.clone(), value)
            })
            .collect(),
    };
    let out = report::out_dir().map_err(|e| format!("benchmark/out: {e}"))?;
    if opt.traced {
        let path = out.join(format!("trace_{}.json", w.name));
        std::fs::write(&path, outcome.tracer.chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let row = suite::Row {
        workload: w.name.to_string(),
        traced: opt.traced,
        facts: outcome
            .facts
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
        result: line.clone(),
    };
    suite::write_latest(&out, args, &[row])?;
    println!("{}", line.to_json());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(name) => single(name, &args, started),
        None => suite::run(&args),
    };
    result.unwrap_or_else(|why| {
        eprintln!("benchmark: {why}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse(&[
            "--workload",
            "manyflow",
            "--seed",
            "42",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("manyflow"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (42, 15.0, Some(true))
        );
    }

    #[test]
    fn defaults_and_modes() {
        let args = parse(&[]).unwrap();
        assert_eq!((args.seed, args.seconds), (DEFAULT_SEED, DEFAULT_SECONDS));
        assert_eq!(parse(&["--aa"]).unwrap().aa, Some(2));
        assert_eq!(parse(&["--aa", "3", "--seed", "9"]).unwrap().aa, Some(3));
        assert!(parse(&["--aa", "1"]).is_err());
        assert!(parse(&["--aa", "--quick"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
