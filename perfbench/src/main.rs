//! The repository benchmark. `perfbench/run.py` builds this binary and
//! drives it; see `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! adapt-perfbench train --out <fixture.json>
//! adapt-perfbench run --fixture <fixture.json> --workload <name> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run` prints a human-readable report, then one JSON line with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`), and exits non-zero when a correctness check failed.

mod epochs;
mod fixture;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

struct RunArgs {
    fixture: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let workload = flag(args, "--workload")?.to_string();
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' ({})",
            workloads::WORKLOADS.join("|")
        ));
    }
    let seconds: f64 = flag(args, "--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    Ok(RunArgs {
        fixture: PathBuf::from(flag(args, "--fixture")?),
        workload,
        seed: flag(args, "--seed")?
            .parse()
            .map_err(|_| "--seed takes an unsigned integer".to_string())?,
        seconds,
        trace,
    })
}

/// A JSON number with every digit the measurement has.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn run(args: RunArgs) -> Result<bool, String> {
    let (_, checksum) = fixture::load(&args.fixture)?;
    println!("env: {}", fixture::env_stamp(&checksum));
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = match args.workload.as_str() {
        "storm" => workloads::storm(&args.fixture, args.seed, args.seconds, args.trace)?,
        "flight-hostile" => {
            workloads::flight_hostile(&args.fixture, args.seed, args.seconds, args.trace)?
        }
        _ => workloads::epoch_deck(&args.fixture, args.seed, args.seconds, args.trace)?,
    };
    for line in &report.lines {
        println!("{line}");
    }
    for (what, n) in [
        ("alerts per latency group", report.alert_samples),
        ("full-ml epochs", report.rung_ms[0].len()),
    ] {
        let tail = stats::tail_percentile(n).map_or("none".into(), |q| format!("p{}", q * 100.0));
        println!("  {what}: {n} samples, highest percentile with >= 10 beyond: {tail}");
    }
    let end_to_end = report.end_to_end();
    for (name, value, unit) in &end_to_end {
        println!("  {name:<18} {value:>14.4} {unit}");
    }
    for e in &report.errors {
        println!("CHECK FAILED: {e}");
    }
    let metrics: Vec<String> = if args.trace {
        report
            .layers
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect()
    } else {
        end_to_end
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect()
    };
    let correct = report.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train") => flag(&args, "--out").and_then(|out| {
            let checksum = fixture::train(&PathBuf::from(out))?;
            println!("trained model fixture {out} (weights {checksum})");
            Ok(true)
        }),
        Some("run") => parse_run(&args).and_then(run),
        _ => Err(
            "usage: adapt-perfbench train --out <path> | run --fixture <path> \
                  --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                .into(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
