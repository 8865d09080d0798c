//! Command line of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick] \
//!     [--selfcheck [N]]
//! ```
//!
//! Without `--workload` every workload runs, each in a process of its
//! own. With it, the last line of standard output is the result object.
//! `--seconds` and the value of `--trace` are how the driver calls the
//! benchmark (README, "The driver's contract").

use std::process::{Command, ExitCode};

use ace_benchmark::report::{json_line, table};
use ace_benchmark::run::{run, Options};
use ace_benchmark::selfcheck;
use ace_benchmark::spec::{Workload, DEFAULT_SECONDS, WORKLOADS};

const USAGE: &str = "usage: ace-benchmark [--workload W] [--seed S] [--seconds N] \
                     [--trace 0|1] [--quick] [--selfcheck [N]]";

/// Runs of a `--selfcheck` without a count.
const DEFAULT_SELFCHECK: usize = 5;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    selfcheck: Option<usize>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        let number = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: `{s}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.clone()),
            "--seed" => args.seed = Some(number(value("a seed")?)?),
            "--seconds" => args.seconds = Some(number(value("a number of seconds")?)?),
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "1" => true,
                    "0" => false,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--selfcheck" => {
                // The count is optional: the next argument, unless it is a flag.
                let n = it.next_if(|a| !a.starts_with("--"));
                let n = n.map(|n| number(n)).transpose()?;
                args.selfcheck = Some(n.map_or(DEFAULT_SELFCHECK, |n| n as usize).max(1));
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process and prints it.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let w = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; there are {}", names.join(", "))
    })?;
    let w = w.for_seconds(args.seconds.unwrap_or(DEFAULT_SECONDS));
    let w = if args.quick { w.quick() } else { w };
    let opts = Options {
        seed: args.seed.unwrap_or(w.default_seed),
        trace: args.trace,
    };
    let report = run(&w, &opts)?;
    print!("{}", table(&report));
    println!("{}", json_line(&report));
    Ok(report.correct)
}

/// Runs every workload, each in a child process that inherits standard
/// output, and waits for each before starting the next.
fn run_all(argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for w in &WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(argv)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&argv).and_then(|args| {
        if let Some(n) = args.selfcheck {
            let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
            selfcheck::run(n, seconds, args.quick)
        } else if let Some(name) = &args.workload {
            run_one(name, &args)
        } else {
            run_all(&argv)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
