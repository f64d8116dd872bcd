//! The repository's benchmark: five workloads, one command.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat K] [--smoke]
//! ```
//!
//! Prints every metric by name with its unit, then — as the last line of
//! standard output — one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. Exits non-zero when any operation failed. See
//! `README.md` beside this crate for what is measured and why.

mod audit;
mod fixtures;
mod gen;
mod harness;
mod layers;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use harness::{Outcome, Plan};
use workloads::ingest_paged::IngestPaged;
use workloads::learn_steady::LearnSteady;
use workloads::scan_raw::ScanRaw;
use workloads::serve_mixed::ServeMixed;
use workloads::target_error::TargetError;

/// Window length when `--seconds` is not given (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 8.0;

type Runner = fn(&Plan) -> Outcome;

/// Every workload, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[(&str, Runner)] = &[
    ("scan_raw", harness::run::<ScanRaw>),
    ("learn_steady", harness::run::<LearnSteady>),
    ("target_error", harness::run::<TargetError>),
    ("serve_mixed", harness::run::<ServeMixed>),
    ("ingest_paged", harness::run::<IngestPaged>),
];

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        traced: false,
        repeat: 1,
        smoke: false,
    };
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        v.ok_or(format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("{flag}: not a valid value"))
    }
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => out.workload = Some(value(&flag, args.next())?),
            "--seed" => out.seed = value(&flag, args.next())?,
            "--seconds" => out.seconds = value(&flag, args.next())?,
            "--trace" => out.traced = value::<u8>(&flag, args.next())? != 0,
            "--repeat" => out.repeat = value(&flag, args.next())?,
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if !(out.seconds > 0.0 && out.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_owned());
    }
    if out.repeat == 0 {
        return Err("--repeat must be at least 1".to_owned());
    }
    if let Some(name) = &out.workload {
        if !WORKLOADS.iter().any(|(n, _)| n == name) {
            let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown workload {name}; known: {}",
                known.join(", ")
            ));
        }
    }
    Ok(out)
}

/// Stores and trace files live beside the executable, inside the build
/// output directory: within the checkout and ignored by git.
fn scratch_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("benchmark-scratch")))
        .unwrap_or_else(|| PathBuf::from("benchmark-scratch"))
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The values a run reports, in registry order: every end-to-end metric
/// on an untraced run, every per-layer metric on a traced one (0 for a
/// layer the workload does not exercise).
fn reported(outcome: &Outcome, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
    let (defs, values) = if traced {
        (metrics::PER_LAYER, &outcome.layers)
    } else {
        (metrics::END_TO_END, &outcome.end_to_end)
    };
    defs.iter()
        .map(|(name, unit)| (*name, *unit, values.get(name).copied().unwrap_or(0.0)))
        .collect()
}

fn print_run(outcome: &Outcome, traced: bool) {
    println!(
        "== {} ({}): attempted {} failed {} failed_share {}",
        outcome.workload,
        if traced { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    for why in &outcome.failures {
        println!("   FAILED: {why}");
    }
    for (name, unit, value) in reported(outcome, traced) {
        println!("   {name:<36} {value:>18.6} {unit}");
    }
    // An untraced run still computes its workload's own numbers.
    if !traced {
        for (name, value) in &outcome.layers {
            println!("   {name:<36} {value:>18.6} (ungated)");
        }
    }
    for (name, value) in &outcome.notes {
        println!("   {name:<36} {value:>18.6} (note)");
    }
}

/// The last line of standard output for one run.
fn result_line(outcome: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = reported(outcome, traced)
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The last line for several runs: per `workload/metric`, the median and
/// quartiles over the repeats.
fn summary_line(runs: &[Outcome], traced: bool) -> String {
    let mut series: BTreeMap<String, (&'static str, Vec<f64>)> = BTreeMap::new();
    for outcome in runs {
        for (name, unit, value) in reported(outcome, traced) {
            series
                .entry(format!("{}/{name}", outcome.workload))
                .or_insert((unit, Vec::new()))
                .1
                .push(value);
        }
    }
    let metrics: Vec<String> = series
        .iter()
        .map(|(name, (unit, values))| {
            let (q1, q2, q3) = stats::quartiles(values);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"q1\": {}, \"q3\": {}, \"runs\": {}}}",
                json_number(q2),
                json_number(q1),
                json_number(q3),
                values.len()
            )
        })
        .collect();
    let attempted: u64 = runs.iter().map(|o| o.attempted).sum();
    let failed: u64 = runs.iter().map(|o| o.failed).sum();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

fn print_repeats(runs: &[Outcome], traced: bool) {
    let mut by_workload: BTreeMap<&str, Vec<&Outcome>> = BTreeMap::new();
    for o in runs {
        by_workload.entry(o.workload).or_default().push(o);
    }
    for (workload, outcomes) in by_workload {
        println!(
            "== {workload}: median [q1, q3] over {} runs",
            outcomes.len()
        );
        let per_run: Vec<Vec<(&str, &str, f64)>> =
            outcomes.iter().map(|o| reported(o, traced)).collect();
        for (i, (name, unit, _)) in per_run[0].iter().enumerate() {
            let values: Vec<f64> = per_run.iter().map(|r| r[i].2).collect();
            let (q1, q2, q3) = stats::quartiles(&values);
            println!("   {name:<36} {q2:>18.6} [{q1:.6}, {q3:.6}] {unit}");
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let host = stats::host();
    println!(
        "host: cores {} | cpu {} | {} | commit {}",
        host.cores,
        host.cpu_model,
        first_line_of("rustc", &["--version"]),
        first_line_of("git", &["rev-parse", "--short", "HEAD"]),
    );
    let plan = Plan {
        seed: args.seed,
        smoke: args.smoke,
        seconds: args.seconds,
        traced: args.traced,
        scratch: scratch_dir(),
    };
    let mut runs = Vec::new();
    for (name, run) in WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != *name) {
            continue;
        }
        for _ in 0..args.repeat {
            let outcome = run(&plan);
            print_run(&outcome, plan.traced);
            runs.push(outcome);
        }
    }
    if args.repeat > 1 {
        print_repeats(&runs, plan.traced);
    }
    let line = match runs.as_slice() {
        [single] => result_line(single, plan.traced),
        many => summary_line(many, plan.traced),
    };
    println!("{line}");
    if runs.iter().any(|o| o.failed > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_plan(seed: u64, traced: bool) -> Plan {
        Plan {
            seed,
            smoke: true,
            seconds: DEFAULT_SECONDS,
            traced,
            scratch: std::env::temp_dir().join(format!(
                "verdict-benchmark-test-{}-{seed}-{traced}",
                std::process::id()
            )),
        }
    }

    /// `--smoke`: every workload, untraced and traced, reports every
    /// metric of its kind and fails nothing.
    #[test]
    fn smoke_runs_every_workload_both_ways() {
        for traced in [false, true] {
            let plan = smoke_plan(0, traced);
            for (name, run) in WORKLOADS {
                let outcome = run(&plan);
                assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.failures);
                assert!(outcome.attempted > 0, "{name} attempted nothing");
                let values = reported(&outcome, traced);
                assert!(values.iter().all(|(_, _, v)| v.is_finite()), "{name}");
                if !traced {
                    assert!(
                        values.iter().all(|(_, _, v)| *v > 0.0),
                        "{name}: {values:?}"
                    );
                }
                let line = result_line(&outcome, traced);
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            }
            let _ = std::fs::remove_dir_all(&plan.scratch);
        }
    }

    /// One seed, run twice: identical counts on the single-threaded
    /// workloads (the inputs, and so the work, are a function of the seed).
    #[test]
    fn one_seed_repeats_counts_exactly() {
        let plan = smoke_plan(5, false);
        for (name, run) in WORKLOADS {
            if *name == "serve_mixed" {
                continue;
            }
            let (a, b) = (run(&plan), run(&plan));
            assert_eq!((a.attempted, a.failed), (b.attempted, b.failed), "{name}");
            for key in ["workload.tuples_ratio_vs_nolearn", "workload.audited_cells"] {
                assert_eq!(
                    a.layers.get(key).map(|v| v.to_bits()),
                    b.layers.get(key).map(|v| v.to_bits()),
                    "{name}: {key}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&plan.scratch);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload scan_raw --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("scan_raw"));
        assert_eq!((a.seed, a.seconds, a.traced, a.repeat), (9, 3.0, true, 1));
        assert!(!parse("--trace 0 --smoke --repeat 3").unwrap().traced);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
