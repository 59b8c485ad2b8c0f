//! The sentinel's acceptance self-test, run against the committed
//! fixture ledger (six real instrumented bench runs from one host).
//!
//! This is the proof the regression gate actually gates: the fixture's
//! own last record must pass cleanly against its history, and the same
//! record with an injected 2× stage slowdown, a +0.05 EER shift, a
//! −0.05 AUC drop, or a label with no same-host history must each be
//! flagged.
//! `bench_json --check --dry-run --ledger <fixture>` performs the
//! first comparison as the CI smoke step; these tests pin all the
//! injected variants as well.

use thrubarrier_bench::sentinel::{check_record, CheckConfig, Verdict};
use thrubarrier_obs::ledger::{Ledger, RunRecord};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/ledger_fixture.jsonl"
);

/// The fixture split as the sentinel sees it in `--dry-run`: the last
/// record is "current", everything before it is history.
fn fixture() -> (RunRecord, Vec<RunRecord>) {
    let read = Ledger::new(FIXTURE).read().expect("read fixture ledger");
    assert_eq!(read.corrupt_lines, 0, "fixture must be pristine");
    assert_eq!(read.newer_schema, 0);
    let mut records = read.records;
    assert!(
        records.len() >= 4,
        "fixture needs enough history for a baseline window"
    );
    let current = records.pop().unwrap();
    (current, records)
}

#[test]
fn clean_fixture_rerun_passes() {
    let (current, history) = fixture();
    let report = check_record(&current, &history, &CheckConfig::default());
    assert!(
        report.pass(),
        "fixture's own last record regressed against its history:\n{}",
        thrubarrier_bench::sentinel::render_report(&report)
    );
    assert!(report.baseline_runs >= 3, "host grouping must match");
}

#[test]
fn injected_2x_slowdown_is_flagged() {
    let (mut current, history) = fixture();
    let ns = current.stages_ns["end_to_end_trial"];
    current
        .stages_ns
        .insert("end_to_end_trial".to_string(), ns * 2);
    let report = check_record(&current, &history, &CheckConfig::default());
    assert!(!report.pass());
    assert!(report.regressions().contains(&"end_to_end_trial"));
}

#[test]
fn injected_eer_shift_is_flagged() {
    let (mut current, history) = fixture();
    current.eer = Some(current.eer.expect("fixture records carry eer") + 0.05);
    let report = check_record(&current, &history, &CheckConfig::default());
    assert!(!report.pass());
    assert!(report.regressions().contains(&"eer"));
}

#[test]
fn injected_auc_drop_is_flagged() {
    let (mut current, history) = fixture();
    current.auc = Some(current.auc.expect("fixture records carry auc") - 0.05);
    let report = check_record(&current, &history, &CheckConfig::default());
    assert!(!report.pass());
    assert!(report.regressions().contains(&"roc_auc"));
}

#[test]
fn foreign_host_gets_no_baseline_not_a_verdict() {
    let (mut current, history) = fixture();
    current.host = "some other machine, 128 logical cores".to_string();
    // Make it absurdly slow too: without same-host baselines even this
    // must pass — the PR 4 lesson that cross-host deltas are not
    // regressions.
    for ns in current.stages_ns.values_mut() {
        *ns *= 10;
    }
    let report = check_record(&current, &history, &CheckConfig::default());
    assert!(report.pass());
    assert_eq!(report.baseline_runs, 0);
    assert!(report
        .stages
        .iter()
        .all(|s| s.verdict == Verdict::NoBaseline));
}

#[test]
fn relabelled_run_fails_and_names_the_labels_found() {
    // Same host, history present, but none of it under the run's
    // label: the check has nothing to compare against and must say so
    // rather than pass.
    let (mut current, history) = fixture();
    current.label = "renamed".to_string();
    let report = check_record(&current, &history, &CheckConfig::default());
    assert_eq!(report.baseline_runs, 0);
    assert!(!report.pass());
    let text = thrubarrier_bench::sentinel::render_report(&report);
    assert!(text.contains("\"post\""), "{text}");
    assert!(text.contains("FAIL"), "{text}");
}

#[test]
fn fixture_records_are_fully_stamped() {
    let (current, history) = fixture();
    for r in history.iter().chain(std::iter::once(&current)) {
        assert!(!r.host.is_empty());
        assert!(!r.git_rev.is_empty());
        assert_eq!(r.profile, "release");
        assert!(r.auc.is_some() && r.eer.is_some());
        assert!(
            r.metrics.is_some(),
            "fixture runs are instrumented (obs feature)"
        );
        assert!(!r.config_fingerprint().is_empty());
    }
}
