//! The one results record of every experiment: each study yields
//! [`Row`]s, [`render`] prints them for the console and [`write_jsonl`]
//! writes them as JSON lines (`repro --results`).

use std::fmt::Write as _;
use std::io::{self, Write};
use thrubarrier_obs::ledger::esc;

/// One measured value of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The `repro` experiment name, e.g. `"fig9"`.
    pub experiment: String,
    /// The condition measured, e.g. `"replay attack"` or `"Room A"`.
    pub condition: String,
    /// The method label, `"before barrier"`/`"after barrier"`, or empty.
    pub method: String,
    /// The metric name, e.g. `auc`, `eer`, `successes@65dB`.
    pub metric: String,
    /// The measured value (fractions stay fractions, not percentages).
    pub value: f64,
    /// Legitimate trials behind the value (0 where none apply).
    pub n_legitimate: usize,
    /// Attack trials behind the value (0 where none apply).
    pub n_attack: usize,
    /// The master seed of the config that produced the row.
    pub seed: u64,
}

impl Row {
    /// A row template for one (condition, method) of `experiment`, with
    /// no metric yet and no trial counts; stamp metrics with
    /// [`Row::metric`].
    pub fn new(experiment: &str, seed: u64, condition: impl Into<String>, method: &str) -> Row {
        Row {
            experiment: experiment.to_string(),
            condition: condition.into(),
            method: method.to_string(),
            metric: String::new(),
            value: 0.0,
            n_legitimate: 0,
            n_attack: 0,
            seed,
        }
    }

    /// The same row with its trial counts.
    pub fn trials(mut self, n_legitimate: usize, n_attack: usize) -> Row {
        self.n_legitimate = n_legitimate;
        self.n_attack = n_attack;
        self
    }

    /// A copy of this row carrying `metric = value`.
    pub fn metric(&self, metric: impl Into<String>, value: impl Into<f64>) -> Row {
        Row {
            metric: metric.into(),
            value: value.into(),
            ..self.clone()
        }
    }
}

/// The value-format rule of every experiment: integers print whole,
/// anything else with four significant digits.
fn fmt_value(v: f64) -> String {
    if !v.is_finite() || (v.fract() == 0.0 && v.abs() < 1e15) {
        format!("{v:.0}")
    } else {
        let decimals = (3 - v.abs().log10().floor() as i32).max(0) as usize;
        format!("{v:.decimals$}")
    }
}

/// Renders rows as text: one line per (condition, method), in order of
/// first appearance, holding every metric of that pair as
/// `metric=value`, then `n=legitimate/attack` when the row has trial
/// counts.
pub fn render(rows: &[Row]) -> String {
    let mut lines: Vec<(&Row, String)> = Vec::new();
    for row in rows {
        let cell = format!(" {}={}", row.metric, fmt_value(row.value));
        let line = lines.iter().position(|(first, _)| {
            first.experiment == row.experiment
                && first.condition == row.condition
                && first.method == row.method
        });
        match line {
            Some(i) => lines[i].1.push_str(&cell),
            None => lines.push((row, cell)),
        }
    }
    let width = |f: fn(&Row) -> &str| {
        lines
            .iter()
            .map(|(r, _)| f(r).chars().count())
            .max()
            .unwrap_or(0)
    };
    let cw = width(|r| &r.condition);
    let mw = width(|r| &r.method);
    let mut out = String::new();
    for (r, cells) in &lines {
        let _ = write!(out, "  {:<cw$} ", r.condition);
        if mw > 0 {
            let _ = write!(out, " {:<mw$} ", r.method);
        }
        out.push_str(cells);
        if r.n_legitimate + r.n_attack > 0 {
            let _ = write!(out, "  n={}/{}", r.n_legitimate, r.n_attack);
        }
        out.push('\n');
    }
    out
}

/// Writes one JSON object per row, each carrying every row field plus
/// the trial-count `scale` of the run. A non-finite value is `null`.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_jsonl<W: Write>(mut w: W, rows: &[Row], scale: f32) -> io::Result<()> {
    for r in rows {
        let value = Some(r.value).filter(|v| v.is_finite());
        let value = value.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            w,
            "{{\"experiment\":\"{}\",\"condition\":\"{}\",\"method\":\"{}\",\"metric\":\"{}\",\
             \"value\":{value},\"n_legitimate\":{},\"n_attack\":{},\"seed\":{},\"scale\":{scale}}}",
            esc(&r.experiment),
            esc(&r.condition),
            esc(&r.method),
            esc(&r.metric),
            r.n_legitimate,
            r.n_attack,
            r.seed,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrubarrier_obs::ledger::Json;

    fn rows() -> Vec<Row> {
        let full = Row::new("fig9", 7, "replay attack", "full").trials(180, 180);
        vec![
            full.metric("auc", 0.98771f32),
            full.metric("eer", 0.0),
            Row::new("fig9", 7, "random \"x\"", "audio").metric("auc", 1.0),
        ]
    }

    #[test]
    fn render_puts_each_condition_method_pair_on_one_line() {
        let text = render(&rows());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains(" auc=0.9877 eer=0  n=180/180"), "{text}");
        assert!(lines[1].ends_with(" auc=1"), "{text}");
    }

    #[test]
    fn one_value_rule_keeps_four_significant_digits() {
        assert_eq!(fmt_value(129.0), "129");
        assert_eq!(fmt_value(0.000473422), "0.0004734");
        assert_eq!(fmt_value(-12.63), "-12.63");
        assert_eq!(fmt_value(5.766), "5.766");
    }

    #[test]
    fn jsonl_lines_parse_back_with_every_field() {
        let mut bytes = Vec::new();
        write_jsonl(&mut bytes, &rows(), 0.05).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let parsed: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(parsed.len(), 3);
        assert_eq!(
            parsed[2].get("condition").unwrap().as_str(),
            Some("random \"x\"")
        );
        let v = parsed[0].get("value").unwrap().as_f64().unwrap();
        assert_eq!(v, f64::from(0.98771f32));
        assert_eq!(parsed[0].get("n_attack").unwrap().as_u64(), Some(180));
        assert_eq!(parsed[0].get("scale").unwrap().as_f64(), Some(0.05));
    }
}
