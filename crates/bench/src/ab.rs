//! Interleaved parent/change A/B statistics for slambench runs.
//!
//! The `slambench_ab` binary runs a parent build and a change build of
//! slambench once per seed, alternating which of the two goes first, and
//! judges every end-to-end metric `BENCHMARK.json` declares. This module
//! holds everything that does not start a process: reading the
//! benchmark's run length and metric table ([`read_benchmark`]), parsing
//! a run's final JSON line ([`parse_run`]) and the per-metric verdict
//! ([`judge`]).
//!
//! # Verdict
//!
//! * [`Verdict::Gain`] — the change wins at least nine tenths of the
//!   pairs (ties count for neither side) and its median is better than
//!   the parent's by more than the parent's interquartile range.
//! * [`Verdict::Worse`] — the change's median is worse than the parent's
//!   by more than the metric's bound (a fraction of the parent median).
//! * [`Verdict::Unresolved`] — neither, and the parent's own
//!   interquartile range is wider than the bound, unless every change run
//!   reads better than every parent run.
//! * [`Verdict::Holds`] — otherwise: no worse than the bound.
//!
//! # Spread
//!
//! The benchmark also holds each side's interquartile range to the
//! metric's bound times the parent's median
//! ([`MetricSummary::allowance`]). For a rate such as `fps`, the
//! reciprocal of mean latency, a build S× faster than its parent gets
//! only `bound / S` of its own median, so a large gain whose runs
//! straddle two phases of a shared host can fail on spread alone.
//! [`MetricSummary::past_allowance`] tells which side exceeds it.

use crate::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latencies, errors).
    Lower,
    /// Larger values are better (rates, fractions).
    Higher,
}

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name, as in slambench's JSON line.
    pub name: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening of the median, as a fraction of the parent's.
    pub bound: f64,
}

/// What an A/B needs of a `BENCHMARK.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Length of every run, in seconds (`run_seconds`).
    pub run_seconds: u64,
    /// The `end_to_end` metric table.
    pub end_to_end: Vec<MetricDef>,
}

/// Reads the run length and end-to-end metrics of a `BENCHMARK.json`
/// document; `None` when either is missing or malformed.
pub fn read_benchmark(text: &str) -> Option<Benchmark> {
    let doc = Json::parse(text)?;
    let run_seconds = doc
        .get("run_seconds")?
        .as_f64()
        .filter(|s| s.fract() == 0.0 && *s >= 1.0)? as u64;
    let Some(Json::Array(entries)) = doc.get("end_to_end") else {
        return None;
    };
    Some(Benchmark {
        run_seconds,
        end_to_end: entries
            .iter()
            .map(|e| {
                Some(MetricDef {
                    name: e.get("name")?.as_str()?.to_string(),
                    better: match e.get("better")?.as_str()? {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        _ => return None,
                    },
                    bound: e.get("bound")?.as_f64()?,
                })
            })
            .collect::<Option<_>>()?,
    })
}

/// What one slambench run reported on its final line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value)` of every reported metric, in line order.
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    /// The value of metric `name`, if the run reported it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }
}

/// Parses the last non-empty line of a slambench run's stdout:
/// `{"correct": …, "attempted": …, "failed": …, "metrics": {"name":
/// {"value": …, "unit": …}, …}}`.
pub fn parse_run(stdout: &str) -> Option<RunResult> {
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty())?;
    let json = Json::parse(line)?;
    let Some(Json::Object(metrics)) = json.get("metrics") else {
        return None;
    };
    Some(RunResult {
        correct: json.get("correct")?.as_bool()?,
        failed: json.get("failed")?.as_f64()? as u64,
        metrics: metrics
            .iter()
            .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect::<Option<_>>()?,
    })
}

/// The first quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
}

impl Quartiles {
    /// The interquartile range `q3 − q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Quartiles by linear interpolation between order statistics (the
/// sample at fraction `p` sits at sorted position `p · (n − 1)`).
///
/// # Panics
/// Panics on an empty sample or a NaN.
fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let at = |p: f64| {
        let pos = p * (sorted.len() - 1) as f64;
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        let hi = (lo + 1).min(sorted.len() - 1);
        sorted[lo] + frac * (sorted[hi] - sorted[lo])
    };
    Quartiles {
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
    }
}

/// Per-seed comparison counts of a change against its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairCount {
    /// Pairs the change read better in.
    pub wins: usize,
    /// Pairs with exactly equal values.
    pub ties: usize,
    /// Pairs the parent read better in.
    pub losses: usize,
}

/// Compares `parent[i]` with `change[i]` for every pair.
///
/// # Panics
/// Panics when the two samples differ in length.
fn count_pairs(parent: &[f64], change: &[f64], better: Better) -> PairCount {
    assert_eq!(parent.len(), change.len(), "unpaired samples");
    let mut count = PairCount {
        wins: 0,
        ties: 0,
        losses: 0,
    };
    for (&p, &c) in parent.iter().zip(change) {
        if p == c {
            count.ties += 1;
        } else if is_better(c, p, better) {
            count.wins += 1;
        } else {
            count.losses += 1;
        }
    }
    count
}

fn is_better(a: f64, b: f64, better: Better) -> bool {
    match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// How one metric moved; see the module docs for the rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Won ≥ 9/10 of the pairs by more than the parent's spread.
    Gain,
    /// No worse than the bound.
    Holds,
    /// The parent's spread is wider than the bound.
    Unresolved,
    /// Worse than the bound.
    Worse,
}

/// One metric's A/B summary.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// The parent's quartiles.
    pub parent: Quartiles,
    /// The change's quartiles.
    pub change: Quartiles,
    /// Per-seed wins, ties and losses of the change.
    pub pairs: PairCount,
    /// The verdict.
    pub verdict: Verdict,
    /// The widest interquartile range the benchmark accepts on either
    /// side, and the widest median worsening: the metric's bound times
    /// the parent's median.
    pub allowance: f64,
}

impl MetricSummary {
    /// Whether the parent's and the change's interquartile ranges, in
    /// that order, exceed [`MetricSummary::allowance`].
    pub fn past_allowance(&self) -> (bool, bool) {
        (
            self.parent.iqr() > self.allowance,
            self.change.iqr() > self.allowance,
        )
    }
}

/// Judges one metric over paired samples (`parent[i]` and `change[i]`
/// ran at the same seed).
///
/// # Panics
/// Panics on empty or unpaired samples.
pub fn judge(def: &MetricDef, parent: &[f64], change: &[f64]) -> MetricSummary {
    let pairs = count_pairs(parent, change, def.better);
    let (pq, cq) = (quartiles(parent), quartiles(change));
    let allowance = def.bound * pq.median.abs();
    let gap = (cq.median - pq.median).abs();
    let verdict = if 10 * pairs.wins >= 9 * parent.len()
        && is_better(cq.median, pq.median, def.better)
        && gap > pq.iqr()
    {
        Verdict::Gain
    } else if is_better(pq.median, cq.median, def.better) && gap > allowance {
        Verdict::Worse
    } else if pq.iqr() > allowance
        && !change
            .iter()
            .all(|&c| parent.iter().all(|&p| is_better(c, p, def.better)))
    {
        Verdict::Unresolved
    } else {
        Verdict::Holds
    };
    MetricSummary {
        parent: pq,
        change: cq,
        pairs,
        verdict,
        allowance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            better,
            bound,
        }
    }

    #[test]
    fn parses_a_slambench_result_line() {
        let stdout = "end-to-end (paper_640x480):\n  frame_ms_p50 9.6 ms\n\
            {\"correct\": true, \"attempted\": 420, \"failed\": 0, \"metrics\": {\
            \"frame_ms_p50\": {\"value\": 9.66, \"unit\": \"ms\"}, \
            \"ate_cm\": {\"value\": 0.55073, \"unit\": \"cm\"}}}\n\n";
        let run = parse_run(stdout).unwrap();
        assert!(run.correct);
        assert_eq!(run.failed, 0);
        assert_eq!(run.metric("frame_ms_p50"), Some(9.66));
        assert_eq!(run.metric("ate_cm"), Some(0.55073));
        assert_eq!(run.metric("fps"), None);
        assert_eq!(parse_run("no json here"), None);
        assert_eq!(parse_run("{\"correct\": true}"), None);
    }

    #[test]
    fn reads_the_run_length_and_end_to_end_table() {
        let text = r#"{"command": ["run", "--"], "paths": ["slambench"],
            "run_seconds": 10,
            "end_to_end": [
              {"name": "frame_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
              {"name": "ok_frac", "unit": "fraction", "better": "higher", "bound": 0.02}
            ], "per_layer": []}"#;
        let bench = read_benchmark(text).unwrap();
        assert_eq!(bench.run_seconds, 10);
        let defs = &bench.end_to_end;
        assert_eq!(defs.len(), 2);
        assert_eq!(defs[0].name, "frame_ms_p50");
        assert_eq!(defs[0].better, Better::Lower);
        assert_eq!((defs[1].better, defs[1].bound), (Better::Higher, 0.02));
        for bad in [
            "{\"run_seconds\": 10, \"end_to_end\": 3}",
            "{\"end_to_end\": []}",
            "{\"run_seconds\": 2.5, \"end_to_end\": []}",
        ] {
            assert_eq!(read_benchmark(bad), None, "{bad}");
        }
        let checked_in = read_benchmark(include_str!("../../../BENCHMARK.json")).unwrap();
        assert!(checked_in
            .end_to_end
            .iter()
            .any(|d| d.name == "frame_ms_p50"));
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.75, 2.5, 3.25));
        assert_eq!(q.iqr(), 1.5);
        let one = quartiles(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn pairs_count_by_direction_and_ties() {
        let parent = [10.0, 10.0, 10.0, 10.0];
        let change = [9.0, 10.0, 11.0, 8.0];
        let lower = count_pairs(&parent, &change, Better::Lower);
        assert_eq!((lower.wins, lower.ties, lower.losses), (2, 1, 1));
        let higher = count_pairs(&parent, &change, Better::Higher);
        assert_eq!((higher.wins, higher.ties, higher.losses), (1, 1, 2));
    }

    #[test]
    fn gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread() {
        let parent: Vec<f64> = (0..10).map(|i| 12.0 + 0.1 * i as f64).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p - 2.0).collect();
        let lower = def(Better::Lower, 0.25);
        assert_eq!(judge(&lower, &parent, &faster).verdict, Verdict::Gain);
        // One loss in ten still wins 9/10; two do not.
        let mut one_loss = faster.clone();
        one_loss[3] = 20.0;
        assert_eq!(judge(&lower, &parent, &one_loss).verdict, Verdict::Gain);
        let mut two_losses = one_loss.clone();
        two_losses[7] = 20.0;
        assert_eq!(judge(&lower, &parent, &two_losses).verdict, Verdict::Holds);
        // Ten wins by less than the parent's IQR (0.45) are no gain.
        let barely: Vec<f64> = parent.iter().map(|p| p - 0.05).collect();
        assert_eq!(judge(&lower, &parent, &barely).verdict, Verdict::Holds);
        // Identical samples: all ties.
        let same = judge(&lower, &parent, &parent);
        assert_eq!((same.pairs.ties, same.verdict), (10, Verdict::Holds));
        // The same runs judged for a higher-is-better metric.
        let higher = def(Better::Higher, 0.25);
        let slower = judge(&higher, &parent, &faster);
        assert_eq!(slower.pairs.losses, 10);
        assert_eq!(slower.verdict, Verdict::Holds);
    }

    #[test]
    fn worse_past_the_bound_and_unresolved_past_the_spread() {
        let parent = [10.0, 10.0, 10.0, 10.0];
        let slower = [13.0, 13.0, 13.0, 13.0];
        let lower = def(Better::Lower, 0.25);
        assert_eq!(judge(&lower, &parent, &slower).verdict, Verdict::Worse);
        let within = [12.0, 12.0, 12.0, 12.0];
        assert_eq!(judge(&lower, &parent, &within).verdict, Verdict::Holds);
        // Parent IQR 5 against a bound of 2.5 at median 10.
        let noisy = [5.0, 8.0, 12.0, 20.0];
        let similar = [6.0, 9.0, 11.0, 19.0];
        assert_eq!(judge(&lower, &noisy, &similar).verdict, Verdict::Unresolved);
        // ... unless every change run beats every parent run, here by
        // less than the parent's IQR (14.925 − 5.075).
        let spread = [5.0, 5.1, 20.0, 20.0];
        let all_better = [4.0, 4.0, 4.5, 4.9];
        let summary = judge(&lower, &spread, &all_better);
        assert_eq!((summary.pairs.wins, summary.verdict), (4, Verdict::Holds));
        // Both noisy sides are past the allowance of 2.5.
        let noisy = judge(&lower, &noisy, &similar);
        assert_eq!(noisy.allowance, 2.5);
        assert_eq!(noisy.past_allowance(), (true, true));
    }

    #[test]
    fn spread_past_the_allowance_is_flagged_per_side() {
        // `fps` of a parent near 550 frames/s, IQR 4.5: the allowance
        // is 25% of its median, 137.375.
        let parent: Vec<f64> = (0..10).map(|i| 545.0 + i as f64).collect();
        let higher = def(Better::Higher, 0.25);
        // A 1.7× faster build whose runs split across two host phases:
        // median 930, IQR 215, past the allowance.
        let split = [
            800.0, 810.0, 820.0, 830.0, 840.0, 1020.0, 1030.0, 1040.0, 1050.0, 1060.0,
        ];
        let summary = judge(&higher, &parent, &split);
        assert_eq!(summary.allowance, 0.25 * 549.5);
        assert_eq!(
            (summary.change.median, summary.change.iqr()),
            (930.0, 215.0)
        );
        assert_eq!(summary.past_allowance(), (false, true));
        // The verdict judges the medians, not the change's spread.
        assert_eq!(summary.verdict, Verdict::Gain);
        // The same speed-up in one phase: IQR 55, inside.
        let steady = [
            880.0, 890.0, 900.0, 910.0, 920.0, 940.0, 950.0, 960.0, 970.0, 980.0,
        ];
        let summary = judge(&higher, &parent, &steady);
        assert_eq!((summary.change.median, summary.change.iqr()), (930.0, 55.0));
        assert_eq!(summary.past_allowance(), (false, false));
    }
}
