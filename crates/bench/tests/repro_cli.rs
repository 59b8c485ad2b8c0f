//! Command-line contract of the `repro` binary.

use std::process::Command;

#[test]
fn unknown_experiment_exits_nonzero_before_running_any() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "no-such-experiment"])
        .output()
        .expect("spawn repro");
    assert!(!out.status.success(), "exit status {}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no-such-experiment"), "stderr: {stderr}");
    assert!(
        stderr.contains("valid experiments: table1"),
        "stderr: {stderr}"
    );
    // The valid name listed first must not have run either.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("table1"), "stdout: {stdout}");
}

#[test]
fn bad_flag_values_are_usage_errors() {
    // Each case must exit 2 naming its flag, print the usage line and
    // run no experiment.
    let cases: [(&[&str], &str); 12] = [
        (&["--seed", "abc", "table1"], "--seed"),
        (&["--seed", "-3", "table1"], "--seed"),
        (&["--scale", "x", "table1"], "--scale"),
        (&["--scale", "nan", "table1"], "--scale"),
        (&["--scale", "inf", "table1"], "--scale"),
        (&["--scale", "-1", "table1"], "--scale"),
        (&["--scale", "0", "table1"], "--scale"),
        (&["--seed"], "--seed"),
        (&["--scale"], "--scale"),
        (&["--csv"], "--csv"),
        (&["--trace-out"], "--trace-out"),
        (&["table1", "--seed"], "--seed"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: stderr: {stderr}");
        assert!(
            stderr.contains("usage: repro"),
            "{args:?}: stderr: {stderr}"
        );
        assert!(!stdout.contains("===="), "{args:?}: stdout: {stdout}");
    }
}
