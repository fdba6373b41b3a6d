//! Named metrics and the result line.

use crate::stats::{median, tail};
use std::fmt::Write as _;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a single measurement).
    pub samples: usize,
    /// Highest percentile with at least ten samples beyond it.
    pub tail: Option<(u32, f64)>,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Set `name` to one value (a count, or a single measurement).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put(Metric {
            name: name.to_string(),
            value,
            unit,
            samples: 1,
            tail: None,
        });
    }

    /// Set `name` to the median of `samples`.
    pub fn median_of(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.put(Metric {
            name: name.to_string(),
            value: median(samples),
            unit,
            samples: samples.len(),
            tail: tail(samples),
        });
    }

    fn put(&mut self, m: Metric) {
        match self.0.iter_mut().find(|x| x.name == m.name) {
            Some(slot) => *slot = m,
            None => self.0.push(m),
        }
    }

    /// One human-readable line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let tail = m
                .tail
                .map_or_else(String::new, |(p, v)| format!(", p{p} {}", num(v)));
            let _ = writeln!(
                out,
                "  {:<28} {:>16} {:<6} (n={}{tail})",
                m.name,
                num(m.value),
                m.unit,
                m.samples
            );
        }
        out
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (k, m) in self.0.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if k == 0 { "" } else { ", " },
                m.name,
                num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite number with all its digits (Rust's shortest round-trip
/// form); non-finite values become JSON `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
