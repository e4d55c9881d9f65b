//! The run's result line: correctness, operation counts and named metrics.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ops/s`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations the measured phases attempted.
    pub attempted: u64,
    /// Of those, operations that failed (checksum mismatch, unexpected
    /// miss, client or store error).
    pub failed: u64,
    /// Run-level checks that did not hold, one line each.
    pub violations: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records the outcome of a run-level check.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(why) = outcome {
            self.violations.push(why);
        }
    }

    /// Whether every run-level check held and the run attempted anything.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.attempted > 0
    }

    /// The single-line JSON object the run ends with.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest exact form and keeps a `.0` on
            // whole numbers, so every value reads back as the same f64.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `values` (0 when empty); sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0 (a ratio of counts with no base reads
/// as zero, never as a perfect score).
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_four_keys_and_every_metric() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.push("ops_per_s", 12.5, "ops/s");
        r.push("setup_s", 2.0, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 12.5, \"unit\": \"ops/s\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        r.check(Err("broken".into()));
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(ratio(0, 0), 0.0);
    }
}
