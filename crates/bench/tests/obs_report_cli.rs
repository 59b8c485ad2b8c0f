//! Command-line contract of the `obs_report` binary: bad arguments are
//! usage errors (exit 2), and the committed fixture ledger renders the
//! sentinel table and the span-delta section.

use std::process::{Command, Output};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/ledger_fixture.jsonl"
);

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs_report"))
        .args(args)
        .output()
        .expect("spawn obs_report")
}

#[test]
fn missing_ledger_value_is_a_usage_error() {
    let out = run(&["--ledger"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--ledger needs a value"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: obs_report"), "stderr: {stderr}");
}

#[test]
fn check_is_an_unknown_argument() {
    let out = run(&["--ledger", FIXTURE, "--check"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown argument --check"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: obs_report"), "stderr: {stderr}");
}

#[test]
fn fixture_ledger_renders_the_sentinel_table_and_spans() {
    let out = run(&["--ledger", FIXTURE]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("== regression sentinel =="), "{stdout}");
    assert!(stdout.contains("end_to_end_trial"), "{stdout}");
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
    assert!(stdout.contains("spans: p50/p90/p99 deltas"), "{stdout}");
}
