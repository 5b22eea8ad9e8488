//! Benchmark entry point.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload crowd|city|edge --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! Prints a human-readable table, then, as the last line of standard
//! output, one JSON object: `{"correct", "attempted", "failed",
//! "metrics": {name: {"value", "unit"}}}` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits non-zero
//! when an output check fails.

use catdet_perfbench::bench::{run, Outcome, RunSpec};
use catdet_perfbench::workload::Kind;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload crowd|city|edge --seed <n> --seconds <s> --trace 0|1";

/// Fewest latency samples a full-size workload must yield, so that at
/// least ten lie beyond its p99.
const MIN_LATENCY_SAMPLES: usize = 1000;

fn parse(args: &[String]) -> Result<RunSpec, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::from_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(RunSpec {
        kind,
        shape: kind.full(),
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        min_latency_samples: MIN_LATENCY_SAMPLES,
    })
}

fn result_json(correct: bool, outcome: Option<&Outcome>) -> String {
    let (attempted, failed) = outcome.map_or((1, 1), |o| (o.attempted, o.failed));
    let metrics: Vec<String> = outcome
        .map(|o| {
            o.metrics
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name, m.value, m.unit
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&spec) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            for m in &outcome.metrics {
                println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
            }
            let correct = outcome.failed == 0;
            println!("{}", result_json(correct, Some(&outcome)));
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "error: {} serving calls diverged from the reference",
                    outcome.failed
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: output check failed: {e}");
            println!("{}", result_json(false, None));
            ExitCode::FAILURE
        }
    }
}
