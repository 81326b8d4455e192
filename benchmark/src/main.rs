//! One gated benchmark for the RoundTripRank serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
//! ```
//!
//! builds one workload in a fresh process, runs it, verifies the answers,
//! prints every metric by name with its unit, and ends with one JSON line
//! (`correct`, `attempted`, `failed`, `metrics`). See `README.md`.

mod harness;
mod inputs;
mod probes;
mod run;
mod spec;
mod stats;
mod trace;
mod verify;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: rtr-benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]] | --list";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2013,
        seconds: 15.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--list" => return Ok(None),
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                // `--trace` alone turns tracing on; `--trace 0|1` sets it.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", spec::listing());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = spec::workload(&args.workload) else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let report = if args.trace {
        run::traced(workload, args.seed, args.seconds)
    } else {
        run::gated(workload, args.seed, args.seconds)
    };
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
