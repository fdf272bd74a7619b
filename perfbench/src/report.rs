//! Run output: human-readable lines while the run goes, and one JSON
//! object as the last line of standard output.

use crate::stats::Tail;

/// Collects the metrics, the attempt/failure counts and the output checks
/// of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Attempted operations that failed (degraded, non-200, transport).
    pub failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// Records a metric carried in the final JSON object, and prints it.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("metric {name} = {value:.6} {unit}");
        self.metrics.push((name, value, unit));
    }

    /// Records a tail metric (see [`crate::stats::tail`]) and prints it
    /// with its percentile and sample count. A missing tail is a failed
    /// check: every workload is sized to leave enough samples.
    pub fn tail_metric(&mut self, name: &'static str, tail: Option<Tail>, unit: &'static str) {
        match tail {
            Some(t) => {
                println!(
                    "metric {name} = {:.6} {unit} (p{:.2} of {} samples)",
                    t.value, t.percentile, t.samples
                );
                self.metrics.push((name, t.value, unit));
            }
            None => self.check(false, format!("{name}: too few samples for a tail")),
        }
    }

    /// Records an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            let what = what.into();
            println!("CHECK FAILED: {what}");
            self.problems.push(what);
        }
    }

    /// Whether every check passed so far.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Prints the closing summary and the JSON result line.
    pub fn finish(self) {
        let ratio = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "fail_ratio = {ratio:.6} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        println!(
            "checks: {}",
            if self.problems.is_empty() {
                "all passed".to_owned()
            } else {
                format!("{} failed", self.problems.len())
            }
        );
        println!("{}", self.to_json());
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN/inf; a non-finite metric makes the run
                // incorrect, so the 0 written in its place never reads as valid
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct() && self.metrics.iter().all(|m| m.1.is_finite()),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_counts_and_units() {
        let mut r = Report {
            attempted: 40,
            failed: 1,
            ..Report::default()
        };
        r.metric("p50_ms", 1.25, "ms");
        let json = r.to_json();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 40, \"failed\": 1, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn failed_check_or_missing_tail_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.tail_metric("tail_ms", None, "ms");
        assert!(!r.correct());
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }
}
