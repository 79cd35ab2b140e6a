//! `perfbench`: one benchmark command for the conditional cuckoo filter stack.
//!
//! ```text
//! perfbench --workload <joblight|chained_churn|daemon_loopback> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed, times its phases (insert, query,
//! contains, delete) in repeated passes for the given number of seconds, checks every
//! answer against an oracle computed apart from the filters, and prints one JSON
//! object as the last line of standard output: `correct`, `attempted`, `failed` and
//! the metrics. With `--trace 0` those are the end-to-end metrics; with `--trace 1`
//! the run records spans around each call into a layer and reports per-layer metrics
//! instead, and writes the spans to `perfbench-trace/<workload>-<seed>.tsv`.

#![deny(unsafe_code)]

mod alloc;
mod churn;
mod common;
mod daemon;
mod joblight;
mod threads;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use common::Outcome;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The workloads, by the name `--workload` takes.
const WORKLOADS: [&str; 3] = ["joblight", "chained_churn", "daemon_loopback"];

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Outcome {
    let budget = Duration::from_secs(args.seconds);
    let mut tracer = trace::Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "joblight" => joblight::run(args.seed, budget, &mut tracer),
        "chained_churn" => churn::run(args.seed, budget, &mut tracer),
        _ => daemon::run(args.seed, budget, &mut tracer),
    };
    if tracer.on() {
        let dir = std::path::Path::new("perfbench-trace");
        let path = dir.join(format!("{}-{}.tsv", args.workload, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                tracer.write_tsv(&mut w)?;
                std::io::Write::flush(&mut w)
            });
        if let Err(e) = written {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    outcome
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    for line in &outcome.notes {
        eprintln!("perfbench: {line}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a =
            parse_args(&argv("--workload joblight --seed 7 --seconds 3 --trace 1")).expect("valid");
        assert_eq!(a.workload, "joblight");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload joblight --seed x --seconds 1 --trace 0",
            "--workload joblight --seed 1 --seconds 0 --trace 0",
            "--workload joblight --seed 1 --seconds 1 --trace 2",
            "--workload joblight --seed 1 --seconds 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
