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
