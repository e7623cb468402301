//! `benchmark`: the one benchmark of the served lattice simulator.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//! benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out DIR]
//! benchmark compare <parent_dir> <change_dir> [--bench BENCHMARK.json]
//! ```
//!
//! With `--workload` it measures one workload in this process and prints
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`); the last line of standard output is the result object.
//! Without it, it runs each of the five workloads in a child process of its
//! own. `compare` applies `BENCHMARK.json`'s bounds to two directories of
//! run records. See `README.md` next to this crate.

mod compare;
mod layers;
mod loadgen;
mod mc;
mod record;
mod rng;
mod serve;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{by_name, WORKLOADS};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--out DIR] [--smoke]\n       benchmark compare PARENT_DIR CHANGE_DIR [--bench BENCHMARK.json]";

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    /// A short run for tests: one set-up, small samples, no minimum
    /// sample count.
    pub smoke: bool,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            workload: None,
            seed: 1,
            seconds: 36.0,
            trace: false,
            out: PathBuf::from("target/benchmark"),
            smoke: false,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                by_name(name).ok_or(format!("unknown workload {name:?}"))?;
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Runs every workload, each in a child process of its own, so memory,
/// caches and realizations never carry from one workload to the next.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot re-execute: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in &WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .args(args.smoke.then_some("--smoke"))
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => failed.push(format!("{} ({s})", w.name)),
            Err(e) => failed.push(format!("{} ({e})", w.name)),
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = &args.workload else {
        return run_all(&args);
    };
    let w = by_name(name).expect("validated by parse_args");
    match record::run(w, &args) {
        Ok(result) => {
            if let Err(e) = result.write(&args.out) {
                eprintln!(
                    "benchmark: writing records under {}: {e}",
                    args.out.display()
                );
                return ExitCode::FAILURE;
            }
            result.print();
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark: {}: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}
