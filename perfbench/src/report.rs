//! What one run reports: metrics, output checks and host context.

use crate::stats;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: u64,
}

/// One output check; a failed check makes the run incorrect.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// Observed values.
    pub detail: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (decisions, trials or training runs).
    pub attempted: u64,
    /// Operations that panicked or produced a non-finite result.
    pub failed: u64,
    /// Figures, end-to-end or per-layer depending on the run.
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Free-form context (`key`, JSON value).
    pub context: Vec<(String, String)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Adds a check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        });
    }

    /// Adds a context entry whose value is already JSON.
    pub fn context_json(&mut self, key: &str, json: String) {
        self.context.push((key.to_string(), json));
    }

    /// Adds a context entry holding a string.
    pub fn context_str(&mut self, key: &str, value: &str) {
        self.context_json(key, json_string(value));
    }

    /// Adds a context entry holding a number.
    pub fn context_num(&mut self, key: &str, value: f64) {
        self.context_json(key, json_number(value));
    }

    /// Whether every check passed and every metric is finite.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// `1 − failed / attempted`.
    pub fn ok_ratio(&self) -> f64 {
        stats::ok_ratio(self.failed, self.attempted.max(1))
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (each metric with its value and unit).
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The detailed report: context, every metric with its sample count,
    /// and every check.
    pub fn detail_json(&self) -> String {
        let context: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), v))
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                    json_string(m.name),
                    json_number(m.value),
                    json_string(m.unit),
                    m.samples
                )
            })
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": {}, \"passed\": {}, \"detail\": {}}}",
                    json_string(&c.name),
                    c.passed,
                    json_string(&c.detail)
                )
            })
            .collect();
        format!(
            "{{\"context\": {{{}}}, \"metrics\": {{{}}}, \"checks\": [{}]}}",
            context.join(", "),
            metrics.join(", "),
            checks.join(", ")
        )
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never valid JSON) become `-1`, and
/// [`Report::correct`] reports them as a failure.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 4,
            failed: 1,
            ..Default::default()
        };
        r.metric("op_ms_p50", 12.5, "ms", 4);
        r.check("scores finite", true, "");
        assert_eq!(
            r.result_json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"op_ms_p50\": {\"value\": 12.5, \"unit\": \"ms\"}}}"
        );
        assert_eq!(r.ok_ratio(), 0.75);
    }

    #[test]
    fn failed_check_or_non_finite_metric_is_incorrect() {
        let mut r = Report::default();
        r.check("x", false, "");
        assert!(!r.correct());
        let mut r = Report::default();
        r.metric("m", f64::NAN, "ms", 1);
        assert!(!r.correct());
        assert!(r.result_json().contains("\"value\": -1"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
