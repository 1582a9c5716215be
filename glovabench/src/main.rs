//! Campaign-level benchmark of the GLOVA workspace.
//!
//! ```text
//! glovabench --workload direct_campaigns|serve_mixed
//!            --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run derives its inputs from `--seed`, measures for about
//! `--seconds`, checks the outputs, and prints as its last line one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. See `README.md` next to this crate.

mod direct;
mod layers;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;

use report::{Checks, EndToEnd};
use std::path::PathBuf;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == name).ok_or(format!("missing {name}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{name} needs a value"))
    };
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

impl Args {
    /// Splits `--seconds` between the untraced half (end-to-end numbers)
    /// and the traced half of a `--trace 1` run.
    pub fn halves(&self) -> (f64, Option<f64>) {
        if self.trace {
            (self.seconds / 2.0, Some(self.seconds / 2.0))
        } else {
            (self.seconds, None)
        }
    }
}

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 51;

/// The median set-up time over [`SETUP_REPS`] builds, and the last build.
/// Dropping the previous build is not timed.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = std::time::Instant::now();
        let b = std::hint::black_box(build());
        times.push(t.elapsed().as_secs_f64());
        built = Some(b);
    }
    (stats::median(&times).expect("set-up ran"), built.expect("set-up ran"))
}

/// Writes a traced run's spans to `glovabench/out/`.
pub fn write_spans(log: &trace::SpanLog, args: &Args) {
    let path = PathBuf::from("glovabench/out")
        .join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
    match log.write_csv(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
}

/// The outcome of one benchmark run.
pub struct RunReport {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: report::Metrics,
}

impl RunReport {
    /// Assembles the report: end-to-end metrics untraced, the per-layer
    /// table when traced.
    pub fn finish(
        args: &Args,
        checks: Checks,
        e2e: EndToEnd,
        layers: Option<layers::Layers>,
    ) -> Self {
        let n = e2e.outcomes.len();
        let inputs: std::collections::BTreeSet<usize> =
            e2e.outcomes.iter().map(|o| o.key).collect();
        println!(
            "{}: {n} untraced runs of {} inputs, {} repetitions compared, trajectory digest {:016x}",
            args.workload,
            inputs.len(),
            checks.repeats_compared(),
            checks.digest()
        );
        let p90_note = if stats::supports_percentile(inputs.len(), 0.9) {
            ""
        } else {
            ", fewer than ten beyond p90"
        };
        println!("latency percentiles over {} per-input medians{p90_note}", inputs.len());
        let metrics = match layers {
            Some(l) => l.metrics(),
            None => e2e.metrics(),
        };
        metrics.print();
        Self {
            correct: checks.passed(),
            attempted: e2e.attempted().max(1),
            failed: e2e.failed(),
            metrics,
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("glovabench: {why}");
            eprintln!("usage: glovabench --workload direct_campaigns|serve_mixed --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "direct_campaigns" => direct::direct_campaigns(&args),
        "serve_mixed" => serve::serve_mixed(&args),
        other => {
            eprintln!("glovabench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!("{}", report.metrics.result_json(report.correct, report.attempted, report.failed));
}
