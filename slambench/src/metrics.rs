//! The metric tables and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit and direction; `BENCHMARK.json` at the repository root lists the
//! same names (a unit test keeps the two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    def("frame_ms_p50", "ms", Lower),
    def("frame_ms_p95", "ms", Lower),
    def("fps", "frames/s", Higher),
    def("ate_cm", "cm", Lower),
    def("ok_frac", "fraction", Higher),
    def("setup_s", "s", Lower),
];

/// Per-layer numbers of the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    def("features.extract.ms_p50", "ms", Lower),
    def("features.extract.ms_p95", "ms", Lower),
    def("features.extract.fast_hits", "count", Lower),
    def("features.extract.candidates", "count", Lower),
    def("features.extract.kept_per_described", "ratio", Higher),
    def("features.extract.working_bytes", "bytes", Lower),
    def("features.extract.scaling_t2", "x", Higher),
    def("features.match.ms_p50", "ms", Lower),
    def("features.match.pairs", "count", Lower),
    def("geometry.pnp.ms_p50", "ms", Lower),
    def("geometry.pnp.ransac_iters", "count", Lower),
    def("geometry.pnp.inlier_ratio", "ratio", Higher),
    def("geometry.lm.ms_p50", "ms", Lower),
    def("geometry.lm.iters", "count", Lower),
    def("core.self.ms_p50", "ms", Lower),
    def("core.self.share", "ratio", Lower),
    def("core.keyframes_per_frame", "ratio", Lower),
    def("backend.local_ba.solve_ms_p50", "ms", Lower),
    def("backend.local_ba.iters", "count", Lower),
    def("backend.join_wait_ms", "ms", Lower),
    def("backend.loop.candidates", "count", Lower),
    def("backend.loop.closed", "count", Higher),
    def("backend.loop.rejected", "count", Lower),
    def("backend.loop.solve_ms", "ms", Lower),
    def("backend.loop.pose_graph_iters", "count", Lower),
    def("backend.relocalize.ms_p50", "ms", Lower),
    def("backend.relocalize.ms_p95", "ms", Lower),
    def("backend.relocalize.inliers", "count", Higher),
    def("core.persist.load_ms", "ms", Lower),
    def("core.atlas.index_ms", "ms", Lower),
    def("dataset.render.ms_p50", "ms", Lower),
    def("bench.trace_overhead_pct", "%", Lower),
];

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether `name` is a valid metric or workload name: a letter or digit
/// first, then at most 63 more letters, digits, `_`, `.` or `-`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values of one run, keyed by declared name. A metric that does
/// not apply to the workload carries the reason it is absent.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    absent: BTreeMap<&'static str, String>,
}

impl Metrics {
    /// Records `value` for the declared metric `name`.
    ///
    /// # Panics
    /// Panics on an undeclared name: a typo must not print a metric the
    /// benchmark's contract does not know.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Marks a declared metric as not measured on this workload.
    pub fn absent(&mut self, name: &'static str, reason: &str) {
        self.set(name, 0.0);
        self.absent.insert(name, reason.to_string());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Names of `table` with no value, and names with a non-finite one.
    pub fn problems(&self, table: &[MetricDef]) -> Vec<String> {
        table
            .iter()
            .filter_map(|d| match self.values.get(d.name) {
                None => Some(format!("{} missing", d.name)),
                Some(v) if !v.is_finite() => Some(format!("{} is {v}", d.name)),
                Some(_) => None,
            })
            .collect()
    }

    /// Human-readable lines for `table`, one per metric.
    pub fn render(&self, table: &[MetricDef], samples: &BTreeMap<&'static str, usize>) -> String {
        let mut out = String::new();
        for d in table {
            let value = self.values.get(d.name).copied().unwrap_or(f64::NAN);
            let _ = write!(
                out,
                "  {:<40} {:>14.4} {:<9} {:<6}",
                d.name,
                value,
                d.unit,
                d.better.as_str()
            );
            if let Some(reason) = self.absent.get(d.name) {
                let _ = write!(out, " (absent: {reason})");
            } else if let Some(n) = samples.get(d.name) {
                let _ = write!(out, " (n = {n})");
            }
            out.push('\n');
        }
        out
    }

    /// The result line: one JSON object with the metrics of `table`.
    pub fn json_line(
        &self,
        table: &[MetricDef],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut metrics = Vec::with_capacity(table.len());
        for d in table {
            let value = self.values.get(d.name).copied().unwrap_or(f64::NAN);
            // Non-finite values are not JSON; `problems` already made
            // the run incorrect, so print a placeholder.
            let value = if value.is_finite() { value } else { 0.0 };
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(value),
                d.unit
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// A finite `f64` as a JSON number with every significant digit (Rust's
/// shortest round-trip form never uses exponent notation).
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text == "-0" {
        "0".to_string()
    } else {
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_characters() {
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(d.unit.len() <= 16, "{}", d.unit);
            assert!(
                d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
        }
        assert!(valid_name("a"));
        assert!(valid_name("features.extract.ms_p50"));
        assert!(valid_name("9-x_y.z"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name("ünicode"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name,
                d.unit,
                d.better.as_str()
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in crate::WORKLOADS {
            assert!(valid_name(workload.name), "{}", workload.name);
        }
        // Every workload BENCHMARK.json lists must be one this program runs.
        let listed = text
            .split("\"workloads\": [")
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .expect("BENCHMARK.json lists workloads");
        let names: Vec<&str> = listed
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert!(names.len() >= 2, "{names:?}");
        for name in names {
            assert!(
                crate::WORKLOADS.iter().any(|w| w.name == name),
                "BENCHMARK.json lists unknown workload {name}"
            );
        }
    }

    #[test]
    fn json_line_lists_the_table_in_order() {
        let mut m = Metrics::default();
        m.set("frame_ms_p50", 12.5);
        m.set("frame_ms_p95", 20.0);
        m.set("fps", 75.25);
        m.set("ate_cm", 1.0e-3);
        m.set("ok_frac", 1.0);
        m.set("setup_s", 0.25);
        assert!(m.problems(END_TO_END).is_empty());
        let line = m.json_line(END_TO_END, true, 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"frame_ms_p50\": {\"value\": 12.5, \"unit\": \"ms\"}, \
             \"frame_ms_p95\": {\"value\": 20, \"unit\": \"ms\"}, \
             \"fps\": {\"value\": 75.25, \"unit\": \"frames/s\"}, \
             \"ate_cm\": {\"value\": 0.001, \"unit\": \"cm\"}, \
             \"ok_frac\": {\"value\": 1, \"unit\": \"fraction\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn missing_and_non_finite_values_are_problems() {
        let mut m = Metrics::default();
        m.set("fps", f64::INFINITY);
        let problems = m.problems(END_TO_END);
        assert!(problems.iter().any(|p| p == "fps is inf"));
        assert!(problems.iter().any(|p| p == "setup_s missing"));
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_metrics_are_refused() {
        Metrics::default().set("frame_ms_p99", 1.0);
    }
}
