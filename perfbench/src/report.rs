//! The result of one run: output checks, attempt/failure counts and named
//! metrics, rendered as the final JSON line.

use std::fmt::Write as _;

pub struct Report {
    /// False once any output check failed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Records metric `name`. Non-finite values are a benchmark bug.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} = {value} is not finite");
        assert!(
            !self.metrics.iter().any(|(n, _, _)| *n == name),
            "metric {name} recorded twice"
        );
        self.metrics.push((name, value, unit));
    }

    /// An output check: a failure is printed and marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: &str) {
        if ok {
            println!("check ok: {what}");
        } else {
            println!("CHECK FAILED: {what}");
            self.correct = false;
        }
    }

    /// `1 - failed / attempted` — the end-to-end success share.
    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn print_summary(&self) {
        println!(
            "ops: {} attempted, {} failed (ops_failed_ratio = {:.6}); outputs {}",
            self.attempted,
            self.failed,
            1.0 - self.ok_ratio(),
            if self.correct { "correct" } else { "INCORRECT" }
        );
        for (name, value, unit) in &self.metrics {
            println!("  {name:<36} {value:>14.6} {unit}");
        }
    }

    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // `{:?}` prints the shortest decimal that round-trips, with all
            // its digits, and always a valid JSON number for finite values.
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Nearest-rank quantile of `xs` (the rule `pde_telemetry` uses everywhere).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[pde_telemetry::nearest_rank(v.len() as u64, q) as usize]
}

pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Bitwise equality of two f64 slices.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
