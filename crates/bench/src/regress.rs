//! Bench-regression bookkeeping for the CI bench-smoke job.
//!
//! The vendored criterion harness prints one line per benchmark:
//!
//! ```text
//! group/bench          time:   [1.234 ms 1.456 ms 1.789 ms]   (10 samples x 4 iters)
//! ```
//!
//! and the kernel-pinned benches print `group/bench: skipped (...)` for
//! dispatch rungs the host CPU cannot run. [`parse_harness_output`]
//! lifts the timing lines into [`BenchRecord`]s and the skip markers
//! into a skip list; [`to_json`]/[`parse_json`] round-trip records
//! through the dependency-free JSON dialect used for the
//! `BENCH_ci.json` artifact and the checked-in baseline; [`compare`]
//! flags regressions. The `bench_regress` binary wires these together.
//!
//! # Gating statistic
//!
//! A benchmark fails only when **both** its median and its minimum
//! sample regressed beyond the tolerance. Wall-clock medians on shared
//! CI runners spike well past 25% with no code change (one noisy
//! sample out of 10–20 moves the median); the minimum is far more
//! stable, and any genuine slowdown raises the minimum and the median
//! together, so requiring both keeps the gate sensitive to real
//! regressions while ignoring one-sided noise.

use crate::json::Json;
use std::fmt::Write as _;

/// One benchmark's measured times, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark id (`group/bench`).
    pub name: String,
    /// Minimum sample time in nanoseconds.
    pub min_ns: f64,
    /// Median sample time in nanoseconds.
    pub median_ns: f64,
}

/// Everything parsed from one harness run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HarnessRun {
    /// Measured benchmarks.
    pub records: Vec<BenchRecord>,
    /// Benchmark ids reported as skipped (e.g. kernel rungs the host
    /// CPU cannot execute).
    pub skipped: Vec<String>,
}

/// Outcome of comparing one benchmark against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within tolerance of the baseline (ratios: min, median).
    Ok(f64, f64),
    /// Both min and median regressed beyond tolerance.
    Regressed(f64, f64),
    /// The current run declared this baseline entry skipped (kernel
    /// unsupported on this CPU) — informational, not a failure.
    Skipped,
    /// Present in the baseline but absent from the current run with no
    /// skip marker — treated as a failure so silently dropped benches
    /// are caught.
    Missing,
    /// New bench with no baseline entry (informational).
    New,
}

/// Parses a time value + unit as printed by the harness into ns.
fn time_to_ns(value: f64, unit: &str) -> Option<f64> {
    let scale = match unit {
        "ns" => 1.0,
        "µs" | "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        _ => return None,
    };
    Some(value * scale)
}

/// Extracts records and skip markers from the harness's stdout.
/// Unparseable lines are ignored (the harness also prints narrative
/// output).
pub fn parse_harness_output(text: &str) -> HarnessRun {
    let mut run = HarnessRun::default();
    for line in text.lines() {
        if let Some((name, _)) = line.split_once(": skipped") {
            let name = name.trim();
            if !name.is_empty() && !name.contains(' ') {
                run.skipped.push(name.to_string());
            }
            continue;
        }
        let Some((name_part, rest)) = line.split_once("time:") else {
            continue;
        };
        let name = name_part.trim();
        if name.is_empty() || name.contains(' ') {
            continue;
        }
        // rest: "   [min-val min-unit median-val median-unit max-val max-unit] ..."
        let Some(open) = rest.find('[') else { continue };
        let Some(close) = rest.find(']') else {
            continue;
        };
        if close <= open {
            continue;
        }
        let fields: Vec<&str> = rest[open + 1..close].split_whitespace().collect();
        if fields.len() != 6 {
            continue;
        }
        let (Ok(min), Ok(median)) = (fields[0].parse::<f64>(), fields[2].parse::<f64>()) else {
            continue;
        };
        let (Some(min_ns), Some(median_ns)) =
            (time_to_ns(min, fields[1]), time_to_ns(median, fields[3]))
        else {
            continue;
        };
        run.records.push(BenchRecord {
            name: name.to_string(),
            min_ns,
            median_ns,
        });
    }
    run
}

/// Serialises records into the artifact/baseline JSON dialect
/// (`"name": [min_ns, median_ns]`).
pub fn to_json(records: &[BenchRecord], note: &str) -> String {
    let mut s = String::from("{\n");
    let note = note.replace('\\', "\\\\").replace('"', "\\\"");
    let _ = writeln!(s, "  \"note\": \"{note}\",");
    s.push_str("  \"benches\": {\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    \"{}\": [{:.1}, {:.1}]{}",
            r.name, r.min_ns, r.median_ns, comma
        );
    }
    s.push_str("  }\n}\n");
    s
}

/// Parses the dialect written by [`to_json`]. Returns `None` on any
/// structural surprise — the caller should fail loudly rather than
/// compare against garbage.
pub fn parse_json(text: &str) -> Option<Vec<BenchRecord>> {
    let Some(Json::Object(benches)) = Json::parse(text)?.get("benches").cloned() else {
        return None;
    };
    benches
        .into_iter()
        .map(|(name, times)| {
            let Json::Array(times) = times else {
                return None;
            };
            let [min, median] = times.as_slice() else {
                return None;
            };
            (!name.is_empty()).then_some(BenchRecord {
                min_ns: min.as_f64()?,
                median_ns: median.as_f64()?,
                name,
            })
        })
        .collect()
}

/// Compares the current run against the baseline. `tolerance` is the
/// allowed fractional slowdown (0.25 → fail past +25%); a bench fails
/// only when min **and** median both exceed it (see module docs).
pub fn compare(
    baseline: &[BenchRecord],
    current: &HarnessRun,
    tolerance: f64,
) -> Vec<(String, Verdict)> {
    let mut out = Vec::new();
    for b in baseline {
        let verdict = match current.records.iter().find(|c| c.name == b.name) {
            None if current.skipped.contains(&b.name) => Verdict::Skipped,
            None => Verdict::Missing,
            Some(c) => {
                let min_ratio = c.min_ns / b.min_ns;
                let median_ratio = c.median_ns / b.median_ns;
                if min_ratio > 1.0 + tolerance && median_ratio > 1.0 + tolerance {
                    Verdict::Regressed(min_ratio, median_ratio)
                } else {
                    Verdict::Ok(min_ratio, median_ratio)
                }
            }
        };
        out.push((b.name.clone(), verdict));
    }
    for c in &current.records {
        if !baseline.iter().any(|b| b.name == c.name) {
            out.push((c.name.clone(), Verdict::New));
        }
    }
    out
}

/// Whether any verdict should fail the CI job.
pub fn has_failures(verdicts: &[(String, Verdict)]) -> bool {
    verdicts
        .iter()
        .any(|(_, v)| matches!(v, Verdict::Regressed(..) | Verdict::Missing))
}

/// Outcome of a paired-bench ratio gate (e.g. telemetry full vs off).
#[derive(Debug, Clone, PartialEq)]
pub enum RatioVerdict {
    /// Within bound (ratios: min, median).
    Ok(f64, f64),
    /// Both the min ratio and the median ratio exceed the bound.
    Exceeded(f64, f64),
    /// One or both benches missing from the run — a gate that silently
    /// stops measuring must fail, not pass.
    Missing(String),
}

/// Gates the ratio `numerator / denominator` of two benches in the
/// same run against `max` (e.g. `1.05` → the numerator may cost at
/// most 5% more). Applies the same min-AND-median rule as [`compare`]:
/// the gate trips only when both statistics exceed the bound, so a
/// one-sided spike on a shared runner doesn't fail the job.
pub fn ratio_check(
    current: &HarnessRun,
    numerator: &str,
    denominator: &str,
    max: f64,
) -> RatioVerdict {
    let find = |name: &str| current.records.iter().find(|r| r.name == name);
    let (num, den) = match (find(numerator), find(denominator)) {
        (Some(n), Some(d)) => (n, d),
        (n, d) => {
            let mut missing = Vec::new();
            if n.is_none() {
                missing.push(numerator);
            }
            if d.is_none() {
                missing.push(denominator);
            }
            return RatioVerdict::Missing(missing.join(", "));
        }
    };
    let min_ratio = num.min_ns / den.min_ns;
    let median_ratio = num.median_ns / den.median_ns;
    if min_ratio > max && median_ratio > max {
        RatioVerdict::Exceeded(min_ratio, median_ratio)
    } else {
        RatioVerdict::Ok(min_ratio, median_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
matching/map_size/576                            time:   [810.000 µs 812.500 µs 990.000 µs]   (10 samples x 12 iters)
matcher model: 1024x576 -> 1.23 ms @100MHz
matcher_kernel/avx512                            time:   [1.287 ms 1.302 ms 1.341 ms]   (10 samples x 8 iters)
matcher_kernel/neon: skipped (kernel unsupported on this CPU)
bench_tiny                                       time:   [2.000 ns 3.000 ns 4.000 ns]   (20 samples x 1000 iters)
";

    #[test]
    fn parses_harness_lines_units_and_skips() {
        let run = parse_harness_output(SAMPLE);
        assert_eq!(run.records.len(), 3);
        assert_eq!(run.records[0].name, "matching/map_size/576");
        assert!((run.records[0].min_ns - 810_000.0).abs() < 1.0);
        assert!((run.records[0].median_ns - 812_500.0).abs() < 1.0);
        assert!((run.records[1].median_ns - 1_302_000.0).abs() < 1.0);
        assert!((run.records[2].min_ns - 2.0).abs() < 1e-9);
        assert_eq!(run.skipped, vec!["matcher_kernel/neon".to_string()]);
    }

    #[test]
    fn json_round_trips() {
        let run = parse_harness_output(SAMPLE);
        let json = to_json(&run.records, "unit \"test\" in C:\\bench");
        let back = parse_json(&json).expect("round trip");
        assert_eq!(back.len(), run.records.len());
        for (a, b) in run.records.iter().zip(&back) {
            assert_eq!(a.name, b.name);
            assert!((a.min_ns - b.min_ns).abs() < 0.5, "{}", a.name);
            assert!((a.median_ns - b.median_ns).abs() < 0.5, "{}", a.name);
        }
        let baseline = parse_json(include_str!("../BENCH_baseline.json")).expect("baseline");
        assert!(baseline
            .iter()
            .any(|r| r.name.starts_with("feature_extraction/")));
    }

    fn rec(name: &str, min: f64, median: f64) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            min_ns: min,
            median_ns: median,
        }
    }

    #[test]
    fn compare_flags_regressions_missing_skipped_and_new() {
        let baseline = vec![
            rec("a", 100.0, 110.0),
            rec("b", 100.0, 110.0),
            rec("gone", 50.0, 55.0),
            rec("unsupported", 10.0, 11.0),
        ];
        let current = HarnessRun {
            records: vec![
                rec("a", 105.0, 115.0), // within tolerance
                rec("b", 140.0, 150.0), // both stats +27%+ → fail
                rec("fresh", 10.0, 11.0),
            ],
            skipped: vec!["unsupported".into()],
        };
        let verdicts = compare(&baseline, &current, 0.25);
        let get = |n: &str| &verdicts.iter().find(|(name, _)| name == n).unwrap().1;
        assert!(matches!(get("a"), Verdict::Ok(..)));
        assert!(matches!(get("b"), Verdict::Regressed(..)));
        assert!(matches!(get("gone"), Verdict::Missing));
        assert!(matches!(get("unsupported"), Verdict::Skipped));
        assert!(matches!(get("fresh"), Verdict::New));
        assert!(has_failures(&verdicts));
    }

    #[test]
    fn one_sided_noise_does_not_fail() {
        // Median spiked (+60%) but min is flat: noise, not regression.
        let baseline = vec![rec("a", 100.0, 105.0)];
        let current = HarnessRun {
            records: vec![rec("a", 101.0, 168.0)],
            skipped: vec![],
        };
        let verdicts = compare(&baseline, &current, 0.25);
        assert!(!has_failures(&verdicts));
    }

    #[test]
    fn within_tolerance_run_passes() {
        let baseline = vec![rec("a", 100.0, 110.0)];
        let current = HarnessRun {
            records: vec![rec("a", 80.0, 90.0), rec("new", 5.0, 6.0)],
            skipped: vec![],
        };
        let verdicts = compare(&baseline, &current, 0.25);
        assert!(!has_failures(&verdicts));
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(parse_json("not json").is_none());
        assert!(parse_json("{\"benches\": {\"x\": [1.0, oops]}}").is_none());
    }

    #[test]
    fn ratio_check_gates_paired_benches() {
        let run = HarnessRun {
            records: vec![
                rec("p/off", 100.0, 110.0),
                rec("p/full", 103.0, 113.0),  // ~3% — within 1.05
                rec("p/slow", 120.0, 130.0),  // ~20% on both — exceeds
                rec("p/noisy", 103.0, 160.0), // median spiked, min flat
            ],
            skipped: vec![],
        };
        assert!(matches!(
            ratio_check(&run, "p/full", "p/off", 1.05),
            RatioVerdict::Ok(..)
        ));
        assert!(matches!(
            ratio_check(&run, "p/slow", "p/off", 1.05),
            RatioVerdict::Exceeded(..)
        ));
        // One-sided noise passes, exactly like `compare`.
        assert!(matches!(
            ratio_check(&run, "p/noisy", "p/off", 1.05),
            RatioVerdict::Ok(..)
        ));
        // A vanished bench fails the gate instead of skipping it.
        let RatioVerdict::Missing(names) = ratio_check(&run, "p/gone", "p/off", 1.05) else {
            panic!("missing bench must be reported");
        };
        assert_eq!(names, "p/gone");
    }
}
