//! `bosphorus-yardstick --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints the run's host facts and per-instance verdicts, then every metric
//! by name with its unit, and as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a verdict
//! was wrong and 2 on a bad command line.

use std::process::{Command, ExitCode};

use bosphorus_yardstick::run::{run, Options};
use bosphorus_yardstick::workloads::Workload;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The first line of a command's standard output, or `"unknown"`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    let mut command = Command::new(program);
    command.args(args);
    // Keep git from searching above the benchmark's own directory tree.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_owned()))
    {
        command.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| {
            String::from_utf8_lossy(&output.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(problem) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "{problem}\nusage: bosphorus-yardstick --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "host_cpus {} engine_threads {} rustc {:?} git_commit {}",
        std::thread::available_parallelism().map_or(0, usize::from),
        options.workload.config().threads,
        first_line_of("rustc", &["--version"]),
        first_line_of("git", &["rev-parse", "HEAD"]),
    );
    let outcome = run(&options);
    for note in &outcome.notes {
        println!("{note}");
    }
    for metric in &outcome.metrics {
        println!("{} {} {}", metric.name, metric.value, metric.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not a finite number", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
