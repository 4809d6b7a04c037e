//! Interleaved A/B comparison of two slambench builds.
//!
//! ```text
//! cargo run --release --offline -p eslam-bench --bin slambench_ab -- \
//!     --parent <parent slambench> --change <change slambench> \
//!     --workload paper_640x480 --seeds 41-50
//! ```
//!
//! Runs one parent/change pair per seed of the inclusive range, the
//! parent first at even offsets and the change first at odd ones, each
//! as `<binary> --workload W --seed S --seconds N --trace 0`, where `N`
//! is the `run_seconds` of the repository's `BENCHMARK.json` (compiled
//! in). Every run's final JSON line is parsed; for each end-to-end
//! metric of that file it prints both sides' median and quartiles, the
//! change's wins and ties, and the verdict of `eslam_bench::ab` (a gain
//! needs at least 9 of 10 pairs won and a median gap wider than the
//! parent's interquartile range). A second table prints each side's
//! interquartile range next to the allowance the benchmark holds it to
//! (the metric's bound times the parent's median) and marks a side past
//! it with `SPREAD`; the mark does not change the exit status. Exits
//! with status 1 when any run
//! prints `"correct": false`, lacks a declared metric, or the change
//! fails more operations than the parent, and 2 on a usage error or a
//! run whose output has no result line.

use eslam_bench::ab::{judge, parse_run, read_benchmark, Quartiles, RunResult, Verdict};
use std::process::{Command, ExitCode};

/// The benchmark declaration whose run length and end-to-end metrics
/// every A/B uses.
const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

struct Args {
    parent: String,
    change: String,
    workload: String,
    seeds: std::ops::RangeInclusive<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut parent, mut change, mut workload, mut seeds) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--parent" => parent = Some(value),
            "--change" => change = Some(value),
            "--workload" => workload = Some(value),
            "--seeds" => {
                let (lo, hi) = value
                    .split_once('-')
                    .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
                    .filter(|(a, b)| a <= b)
                    .ok_or_else(|| format!("--seeds takes FIRST-LAST, not {value}"))?;
                seeds = Some(lo..=hi);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        parent: parent.ok_or("--parent is required")?,
        change: change.ok_or("--change is required")?,
        workload: workload.ok_or("--workload is required")?,
        seeds: seeds.ok_or("--seeds is required")?,
    })
}

/// Runs one slambench binary at one seed for `seconds`; `Err` when it
/// printed no result line.
fn run(binary: &str, workload: &str, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let output = Command::new(binary)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot run {binary}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    parse_run(&stdout).ok_or_else(|| {
        format!(
            "{binary} at seed {seed} printed no result line ({}):\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("slambench_ab: {e}");
            return ExitCode::from(2);
        }
    };
    let benchmark =
        read_benchmark(BENCHMARK_JSON).expect("BENCHMARK.json declares run_seconds and end_to_end");
    let defs = &benchmark.end_to_end;

    let (mut parents, mut changes) = (Vec::new(), Vec::new());
    for (i, seed) in args.seeds.clone().enumerate() {
        let order = if i % 2 == 0 {
            [(&args.parent, false), (&args.change, true)]
        } else {
            [(&args.change, true), (&args.parent, false)]
        };
        for (binary, is_change) in order {
            let result = match run(binary, &args.workload, seed, benchmark.run_seconds) {
                Ok(result) => result,
                Err(e) => {
                    eprintln!("slambench_ab: {e}");
                    return ExitCode::from(2);
                }
            };
            let side = if is_change { "change" } else { "parent" };
            let values: Vec<String> = defs
                .iter()
                .map(|d| format!("{}={}", d.name, result.metric(&d.name).unwrap_or(f64::NAN)))
                .collect();
            eprintln!(
                "seed {seed} {side}: correct={} {}",
                result.correct,
                values.join(" ")
            );
            if is_change {
                changes.push(result);
            } else {
                parents.push(result);
            }
        }
    }

    println!(
        "{}: {} pairs at seeds {}-{}, --seconds {}, parent first at even offsets",
        args.workload,
        parents.len(),
        args.seeds.start(),
        args.seeds.end(),
        benchmark.run_seconds
    );
    println!(
        "{:<14} {:<27} {:<27} {:>8} {:>6} {:>5}  verdict",
        "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "ties"
    );
    let column = |runs: &[RunResult], name: &str| -> Vec<f64> {
        runs.iter()
            .map(|r| r.metric(name).unwrap_or(f64::NAN))
            .collect()
    };
    let mut incomplete = false;
    let mut judged = Vec::new();
    for def in defs {
        let (p, c) = (column(&parents, &def.name), column(&changes, &def.name));
        if p.iter().chain(&c).any(|v| v.is_nan()) {
            println!("{:<14} missing from some run", def.name);
            incomplete = true;
            continue;
        }
        let s = judge(def, &p, &c);
        let quart = |q: Quartiles| format!("{:.4} [{:.4}, {:.4}]", q.median, q.q1, q.q3);
        let delta = if s.parent.median != 0.0 {
            format!("{:+.1}%", 100.0 * (s.change.median / s.parent.median - 1.0))
        } else {
            "-".to_string()
        };
        let verdict = match s.verdict {
            Verdict::Gain => format!("gain (parent IQR {:.4})", s.parent.iqr()),
            Verdict::Holds => format!("holds (bound {})", def.bound),
            Verdict::Unresolved => "unresolved (parent spread past the bound)".to_string(),
            Verdict::Worse => format!("WORSE (bound {})", def.bound),
        };
        println!(
            "{:<14} {:<27} {:<27} {:>8} {:>3}/{:<2} {:>5}  {verdict}",
            def.name,
            quart(s.parent),
            quart(s.change),
            delta,
            s.pairs.wins,
            p.len(),
            s.pairs.ties
        );
        judged.push((def, s));
    }

    println!("spread: each side's IQR against the bound x the parent's median");
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "metric", "parent IQR", "change IQR", "allowance"
    );
    for (def, s) in &judged {
        let flag = match s.past_allowance() {
            (true, true) => "  SPREAD parent, change",
            (true, false) => "  SPREAD parent",
            (false, true) => "  SPREAD change",
            (false, false) => "",
        };
        println!(
            "{:<14} {:>12.4} {:>12.4} {:>12.4}{flag}",
            def.name,
            s.parent.iqr(),
            s.change.iqr(),
            s.allowance
        );
    }

    let incorrect = parents
        .iter()
        .chain(&changes)
        .filter(|r| !r.correct)
        .count();
    let failed = |runs: &[RunResult]| runs.iter().map(|r| r.failed).sum::<u64>();
    let (parent_failed, change_failed) = (failed(&parents), failed(&changes));
    println!(
        "incorrect runs: {incorrect}; failed operations: parent {parent_failed}, change {change_failed}"
    );
    if incorrect > 0 || change_failed > parent_failed || incomplete {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
