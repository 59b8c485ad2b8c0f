//! The regression sentinel: compares one bench run against same-host
//! ledger baselines with noise-aware thresholds.
//!
//! The PR 4 incident is the design brief: a 24.9 → 42.0 ms
//! "regression" on `end_to_end_trial` turned out to be a host change,
//! and a fixed percentage gate would have cried wolf on every noisy
//! micro-stage while missing slow drift on stable ones. So the sentinel
//!
//! * **groups baselines by host fingerprint and label** — only runs
//!   from the same machine under the same label count, over a sliding
//!   window of the most recent `window` runs;
//! * **derives the threshold from the baseline's own noise**: a stage
//!   regresses when it exceeds `median + k · MAD̂`, where `MAD̂` is the
//!   median absolute deviation floored by both a relative term
//!   (`rel_floor · median`, protecting stages whose history happens to
//!   be eerily flat) and an absolute term (`abs_floor_ns`, protecting
//!   micro-stages at timer granularity);
//! * **knows which direction is bad**: `_speedup_x1000` ratio stages
//!   regress *downward*, accuracy regresses when AUC falls or EER
//!   rises — improvements are reported but never fail the check;
//! * **refuses to guess without history**: fewer than `min_runs`
//!   same-host baselines yields a passing `NoBaseline` verdict, so the
//!   first runs on a fresh machine can seed the ledger without failing
//!   CI;
//! * **does not pass blind on a label mismatch**: when the host has
//!   history but none of it under the run's label, the check fails and
//!   names the labels it found, since a typo'd or new label would
//!   otherwise pass without comparing anything.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use thrubarrier_obs::ledger::RunRecord;

/// Threshold and windowing knobs for one check.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Number of most-recent same-host baseline runs considered.
    pub window: usize,
    /// MAD multiplier: the gate sits `k` noise units from the median.
    pub k: f64,
    /// Minimum baseline runs before any verdict other than
    /// [`Verdict::NoBaseline`] is issued.
    pub min_runs: usize,
    /// Relative noise floor as a fraction of the baseline median, for
    /// nanosecond perf stages.
    pub rel_floor: f64,
    /// Relative noise floor for `_speedup_x1000` ratio stages. Ratios
    /// divide two medians, so their run-to-run noise is smaller than
    /// either stage's — and a halved speedup must clear the gate with
    /// margin, so this floor is tighter than `rel_floor`.
    pub ratio_rel_floor: f64,
    /// Absolute noise floor in nanoseconds (shields timer-granularity
    /// stages such as `obs_disabled_span_1k`).
    pub abs_floor_ns: f64,
    /// Absolute accuracy floor for AUC/EER drift (a unit-interval
    /// quantity; eval reruns are deterministic, so their MAD is often
    /// exactly zero and the floor carries the gate).
    pub acc_floor: f64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        // rel_floor 0.125 at k = 4 puts the minimum perf gate at
        // median + 50%. Calibrated against the committed fixture
        // ledger: on a shared 1-core cloud host, clean re-runs of
        // sub-millisecond stages swing up to ~1.4× around their
        // median, while the regressions worth failing on (a fusion or
        // cache break) shift stages 2-10×. Ratio stages are quieter
        // (a quotient of two medians), so their floor sits at 8%
        // (gate at −32%), keeping a halved speedup clearly outside.
        CheckConfig {
            window: 8,
            k: 4.0,
            min_runs: 3,
            rel_floor: 0.125,
            ratio_rel_floor: 0.08,
            abs_floor_ns: 10_000.0,
            acc_floor: 0.02,
        }
    }
}

/// Outcome for one stage (or one accuracy metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the noise gate.
    Ok,
    /// Outside the gate in the good direction — informational only.
    Improved,
    /// Outside the gate in the bad direction — fails the check.
    Regressed,
    /// Not enough same-host history to judge.
    NoBaseline,
}

/// One compared quantity.
#[derive(Debug, Clone)]
pub struct StageCheck {
    /// Stage or metric name.
    pub name: String,
    /// The current run's value.
    pub current: f64,
    /// Median of the baseline window (0 when no baseline).
    pub median: f64,
    /// The gate the current value was held against (in the bad
    /// direction).
    pub limit: f64,
    /// Baseline values, oldest first (for trend rendering).
    pub history: Vec<f64>,
    /// Whether smaller values are better (false for `_speedup_x1000`
    /// ratio stages and AUC).
    pub lower_is_better: bool,
    /// The verdict.
    pub verdict: Verdict,
}

/// A full check: per-stage perf verdicts plus accuracy verdicts.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Host the comparison was scoped to.
    pub host: String,
    /// Label the comparison was scoped to.
    pub label: String,
    /// Baseline runs found in the window.
    pub baseline_runs: usize,
    /// Per-stage results (bench stages, ns or ratio units).
    pub stages: Vec<StageCheck>,
    /// Accuracy results (`roc_auc`, `eer`).
    pub accuracy: Vec<StageCheck>,
    /// Stages present in most baselines but absent from the current
    /// run (informational; a renamed stage silently resets history).
    pub missing_stages: Vec<String>,
    /// The labels of the same-host history when none of it carries the
    /// run's label (empty otherwise). Non-empty fails the check.
    pub other_labels: Vec<String>,
}

impl CheckReport {
    /// `true` when nothing regressed and the run's label found its
    /// same-host history.
    pub fn pass(&self) -> bool {
        self.other_labels.is_empty()
            && !self
                .stages
                .iter()
                .chain(&self.accuracy)
                .any(|s| s.verdict == Verdict::Regressed)
    }

    /// The names that regressed.
    pub fn regressions(&self) -> Vec<&str> {
        self.stages
            .iter()
            .chain(&self.accuracy)
            .filter(|s| s.verdict == Verdict::Regressed)
            .map(|s| s.name.as_str())
            .collect()
    }
}

/// Median of a sample (0 when empty). Even-length samples average the
/// middle pair.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation around `center`.
pub fn mad(values: &[f64], center: f64) -> f64 {
    let devs: Vec<f64> = values.iter().map(|v| (v - center).abs()).collect();
    median(&devs)
}

/// Ratio stages carry this suffix in the ledger; for them *larger* is
/// better.
fn is_ratio_stage(name: &str) -> bool {
    name.ends_with("_speedup_x1000")
}

/// The baseline slice for `current`: records with the same host and
/// label, most recent `window` of them, oldest first.
pub fn baselines<'a>(
    current: &RunRecord,
    history: &'a [RunRecord],
    window: usize,
) -> Vec<&'a RunRecord> {
    let mut same: Vec<&RunRecord> = history
        .iter()
        .filter(|r| r.host == current.host && r.label == current.label)
        .collect();
    if same.len() > window {
        same.drain(..same.len() - window);
    }
    same
}

fn judge(
    name: &str,
    current: f64,
    history: Vec<f64>,
    lower_is_better: bool,
    noise_floor: impl Fn(f64) -> f64,
    cfg: &CheckConfig,
) -> StageCheck {
    if history.len() < cfg.min_runs {
        return StageCheck {
            name: name.to_string(),
            current,
            median: median(&history),
            limit: f64::NAN,
            history,
            lower_is_better,
            verdict: Verdict::NoBaseline,
        };
    }
    let med = median(&history);
    let noise = mad(&history, med).max(noise_floor(med));
    let (limit, verdict) = if lower_is_better {
        let limit = med + cfg.k * noise;
        let verdict = if current > limit {
            Verdict::Regressed
        } else if current < med - cfg.k * noise {
            Verdict::Improved
        } else {
            Verdict::Ok
        };
        (limit, verdict)
    } else {
        let limit = med - cfg.k * noise;
        let verdict = if current < limit {
            Verdict::Regressed
        } else if current > med + cfg.k * noise {
            Verdict::Improved
        } else {
            Verdict::Ok
        };
        (limit, verdict)
    };
    StageCheck {
        name: name.to_string(),
        current,
        median: med,
        limit,
        history,
        lower_is_better,
        verdict,
    }
}

/// Checks `current` against `history` (which must not contain
/// `current` itself).
pub fn check_record(current: &RunRecord, history: &[RunRecord], cfg: &CheckConfig) -> CheckReport {
    let base = baselines(current, history, cfg.window);
    let mut stages = Vec::with_capacity(current.stages_ns.len());
    for (name, &ns) in &current.stages_ns {
        let hist: Vec<f64> = base
            .iter()
            .filter_map(|r| r.stages_ns.get(name).map(|&v| v as f64))
            .collect();
        let ratio = is_ratio_stage(name);
        // Ratio stages are unitless thousandths, so the nanosecond
        // absolute floor does not apply to them — only their relative
        // floor (with one count as the granularity floor).
        let floor = move |med: f64| {
            if ratio {
                (cfg.ratio_rel_floor * med).max(1.0)
            } else {
                (cfg.rel_floor * med).max(cfg.abs_floor_ns)
            }
        };
        stages.push(judge(name, ns as f64, hist, !ratio, floor, cfg));
    }
    let acc_floor = |_med: f64| cfg.acc_floor / cfg.k;
    let mut accuracy = Vec::new();
    if let Some(auc) = current.auc {
        let hist: Vec<f64> = base.iter().filter_map(|r| r.auc).collect();
        accuracy.push(judge("roc_auc", auc, hist, false, acc_floor, cfg));
    }
    if let Some(eer) = current.eer {
        let hist: Vec<f64> = base.iter().filter_map(|r| r.eer).collect();
        accuracy.push(judge("eer", eer, hist, true, acc_floor, cfg));
    }
    // Stages most baselines carry but the current run dropped.
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &base {
        for name in r.stages_ns.keys() {
            *seen.entry(name.as_str()).or_default() += 1;
        }
    }
    let missing_stages = seen
        .into_iter()
        .filter(|&(name, n)| 2 * n > base.len() && !current.stages_ns.contains_key(name))
        .map(|(name, _)| name.to_string())
        .collect();
    let other_labels = if base.is_empty() {
        let labels: BTreeSet<&str> = history
            .iter()
            .filter(|r| r.host == current.host)
            .map(|r| r.label.as_str())
            .collect();
        labels.into_iter().map(str::to_string).collect()
    } else {
        Vec::new()
    };
    CheckReport {
        host: current.host.clone(),
        label: current.label.clone(),
        baseline_runs: base.len(),
        stages,
        accuracy,
        missing_stages,
        other_labels,
    }
}

/// A unicode block-element sparkline of `values` scaled to their own
/// min..max (flat series render mid-height).
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = hi - lo;
    values
        .iter()
        .map(|&v| {
            if span <= 0.0 {
                LEVELS[3]
            } else {
                let t = ((v - lo) / span * 7.0).round() as usize;
                LEVELS[t.min(7)]
            }
        })
        .collect()
}

fn fmt_value(name: &str, v: f64) -> String {
    if is_ratio_stage(name) {
        format!("{:.2}x", v / 1_000.0)
    } else if name == "roc_auc" || name == "eer" {
        format!("{v:.4}")
    } else {
        format!("{:.3}ms", v / 1e6)
    }
}

fn verdict_str(v: Verdict) -> &'static str {
    match v {
        Verdict::Ok => "ok",
        Verdict::Improved => "improved",
        Verdict::Regressed => "REGRESSED",
        Verdict::NoBaseline => "no-baseline",
    }
}

/// Renders the report as the sentinel's text table: one row per stage
/// with current/median/gate columns and a sparkline of the baseline
/// window plus the current value.
pub fn render_report(report: &CheckReport) -> String {
    let mut s = String::from("== regression sentinel ==\n");
    let _ = writeln!(
        s,
        "baseline: {} same-host run(s) (host \"{}\", label \"{}\")",
        report.baseline_runs, report.host, report.label
    );
    let _ = writeln!(
        s,
        "  {:<36} {:>12} {:>12} {:>12}  {:<11} trend",
        "stage", "current", "median", "gate", "verdict"
    );
    for sc in report.stages.iter().chain(&report.accuracy) {
        let mut trend: Vec<f64> = sc.history.clone();
        trend.push(sc.current);
        let gate = if sc.limit.is_nan() {
            "-".to_string()
        } else {
            let dir = if sc.lower_is_better { "<" } else { ">" };
            format!("{dir}{}", fmt_value(&sc.name, sc.limit))
        };
        let _ = writeln!(
            s,
            "  {:<36} {:>12} {:>12} {:>12}  {:<11} {}",
            sc.name,
            fmt_value(&sc.name, sc.current),
            if sc.history.is_empty() {
                "-".to_string()
            } else {
                fmt_value(&sc.name, sc.median)
            },
            gate,
            verdict_str(sc.verdict),
            sparkline(&trend),
        );
    }
    for name in &report.missing_stages {
        let _ = writeln!(
            s,
            "  note: stage \"{name}\" present in baselines but not in this run"
        );
    }
    let labels = report.other_labels.join("\", \"");
    if !labels.is_empty() {
        let _ = writeln!(
            s,
            "  note: no same-host run under label \"{}\"; the host's runs carry \"{labels}\"",
            report.label
        );
    }
    let verdict = if report.pass() {
        "PASS".to_string()
    } else if !labels.is_empty() {
        format!("FAIL (no baseline under label \"{}\")", report.label)
    } else {
        format!("FAIL ({})", report.regressions().join(", "))
    };
    let _ = writeln!(s, "verdict: {verdict}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn record(host: &str, stages: &[(&str, u64)], auc: f64, eer: f64) -> RunRecord {
        RunRecord {
            schema: thrubarrier_obs::ledger::SCHEMA,
            ts_unix: 0,
            label: "post".to_string(),
            host: host.to_string(),
            git_rev: "test".to_string(),
            profile: "release".to_string(),
            config: "test".to_string(),
            stages_ns: stages
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect::<BTreeMap<_, _>>(),
            auc: Some(auc),
            eer: Some(eer),
            metrics: None,
        }
    }

    fn history(n: usize) -> Vec<RunRecord> {
        (0..n)
            .map(|i| {
                // ±1% jitter around 10 ms, ratio stage around 2.4×.
                let jit = 1.0 + 0.01 * ((i % 3) as f64 - 1.0);
                record(
                    "hostA",
                    &[
                        ("end_to_end_trial", (10_000_000.0 * jit) as u64),
                        ("xcorr_parity_speedup_x1000", (2_400.0 * jit) as u64),
                    ],
                    0.973,
                    0.042,
                )
            })
            .collect()
    }

    #[test]
    fn clean_rerun_passes() {
        let hist = history(6);
        let current = record(
            "hostA",
            &[
                ("end_to_end_trial", 10_050_000),
                ("xcorr_parity_speedup_x1000", 2_380),
            ],
            0.973,
            0.042,
        );
        let report = check_record(&current, &hist, &CheckConfig::default());
        assert!(report.pass(), "{}", render_report(&report));
        assert_eq!(report.baseline_runs, 6);
    }

    #[test]
    fn doubled_stage_is_flagged() {
        let hist = history(6);
        let current = record(
            "hostA",
            &[
                ("end_to_end_trial", 20_000_000),
                ("xcorr_parity_speedup_x1000", 2_400),
            ],
            0.973,
            0.042,
        );
        let report = check_record(&current, &hist, &CheckConfig::default());
        assert!(!report.pass());
        assert_eq!(report.regressions(), vec!["end_to_end_trial"]);
    }

    #[test]
    fn ratio_stages_regress_downward_only() {
        let hist = history(6);
        let cfg_stage = |speedup: u64| {
            let current = record(
                "hostA",
                &[
                    ("end_to_end_trial", 10_000_000),
                    ("xcorr_parity_speedup_x1000", speedup),
                ],
                0.973,
                0.042,
            );
            check_record(&current, &hist, &CheckConfig::default())
        };
        let halved = cfg_stage(1_200);
        assert_eq!(halved.regressions(), vec!["xcorr_parity_speedup_x1000"]);
        let doubled = cfg_stage(4_800);
        assert!(doubled.pass(), "faster must not fail");
    }

    #[test]
    fn accuracy_drift_is_flagged_both_metrics() {
        let hist = history(6);
        let eer_shift = record("hostA", &[("end_to_end_trial", 10_000_000)], 0.973, 0.092);
        let report = check_record(&eer_shift, &hist, &CheckConfig::default());
        assert!(report.regressions().contains(&"eer"), "eer +0.05 must flag");
        let auc_drop = record("hostA", &[("end_to_end_trial", 10_000_000)], 0.923, 0.042);
        let report = check_record(&auc_drop, &hist, &CheckConfig::default());
        assert!(report.regressions().contains(&"roc_auc"));
    }

    #[test]
    fn other_hosts_are_not_baselines() {
        // Same stages on another host: current run has no baseline and
        // must pass (the PR 4 lesson — never compare across hosts).
        let hist = history(6);
        let current = record("hostB", &[("end_to_end_trial", 42_000_000)], 0.973, 0.042);
        let report = check_record(&current, &hist, &CheckConfig::default());
        assert!(report.pass());
        assert_eq!(report.baseline_runs, 0);
        assert!(report
            .stages
            .iter()
            .all(|s| s.verdict == Verdict::NoBaseline));
    }

    #[test]
    fn short_history_never_judges() {
        let hist = history(2);
        let current = record("hostA", &[("end_to_end_trial", 99_000_000)], 0.973, 0.042);
        let report = check_record(&current, &hist, &CheckConfig::default());
        assert!(report.pass());
    }

    #[test]
    fn window_limits_baselines() {
        let mut hist = history(20);
        // Old slow era beyond the window must not drag the median up.
        for r in hist.iter_mut().take(12) {
            r.stages_ns
                .insert("end_to_end_trial".to_string(), 40_000_000);
        }
        let current = record("hostA", &[("end_to_end_trial", 10_050_000)], 0.973, 0.042);
        let report = check_record(&current, &hist, &CheckConfig::default());
        assert_eq!(report.baseline_runs, 8);
        assert!(report.pass(), "{}", render_report(&report));
    }

    #[test]
    fn missing_stage_is_noted_not_failed() {
        let hist = history(6);
        let current = record("hostA", &[("end_to_end_trial", 10_000_000)], 0.973, 0.042);
        let report = check_record(&current, &hist, &CheckConfig::default());
        assert!(report.pass());
        assert_eq!(
            report.missing_stages,
            vec!["xcorr_parity_speedup_x1000".to_string()]
        );
    }

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 100.0], 2.5), 1.0);
    }

    #[test]
    fn sparkline_spans_levels() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁') && s.ends_with('█'));
        assert_eq!(sparkline(&[5.0, 5.0]), "▄▄");
        assert_eq!(sparkline(&[]), "");
    }
}
