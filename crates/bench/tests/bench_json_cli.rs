//! Command-line contract of the `bench_json` binary: a bad count, a
//! missing value or an unknown flag is a usage error, reported before
//! any stage runs.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_json"))
        .arg("--no-ledger")
        .args(args)
        .output()
        .expect("spawn bench_json");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn zero_iters_is_a_usage_error() {
    let (code, stderr) = run(&["--iters", "0"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--iters must be a positive number, got \"0\""),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: bench_json"), "stderr: {stderr}");
}

#[test]
fn non_numeric_iters_is_a_usage_error() {
    let (code, stderr) = run(&["--iters", "abc"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--iters must be a positive number, got \"abc\""),
        "stderr: {stderr}"
    );
}

#[test]
fn missing_count_is_a_usage_error() {
    for flag in ["--best-of", "--window", "--k"] {
        let (code, stderr) = run(&[flag]);
        assert_eq!(code, Some(2), "{flag}: stderr: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} needs a value")),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn unknown_argument_is_a_usage_error() {
    for flag in ["--out", "--no-such-flag"] {
        let (code, stderr) = run(&[flag, "x"]);
        assert_eq!(code, Some(2), "{flag}: stderr: {stderr}");
        assert!(
            stderr.contains(&format!("unknown argument {flag}")),
            "stderr: {stderr}"
        );
        assert!(stderr.contains("usage: bench_json"), "stderr: {stderr}");
    }
}
