//! Longitudinal telemetry report over the run ledger.
//!
//! Where `bench_json --check` gates one fresh run, this binary reads
//! the committed history and renders the trajectory: per-stage trend
//! sparklines with the sentinel's verdict on the most recent record,
//! accuracy (ROC AUC / EER) trends, and — when the instrumented runs
//! embedded metrics snapshots — per-span p50/p90/p99 deltas between the
//! last two instrumented records.
//!
//! Usage: `obs_report [--ledger FILE]`
//!
//! It is a report, not a gate: a readable ledger always exits 0. The
//! gate is `bench_json --check` (`--dry-run` makes the same comparison
//! this report shows).

use std::fmt::Write as _;
use thrubarrier_bench::sentinel;
use thrubarrier_obs::ledger::{Json, Ledger, RunRecord};

/// The `"spans"` section of a metrics snapshot as `(name, p50, p90,
/// p99)` rows (nanoseconds). `None` when the record carries no
/// snapshot or the snapshot has no spans.
fn span_quantiles(record: &RunRecord) -> Option<Vec<(String, f64, f64, f64)>> {
    let snapshot = Json::parse(record.metrics.as_deref()?)?;
    let spans = snapshot.get("spans")?.as_obj()?;
    let rows: Vec<(String, f64, f64, f64)> = spans
        .iter()
        .filter_map(|(name, v)| {
            Some((
                name.clone(),
                v.get("p50")?.as_f64()?,
                v.get("p90")?.as_f64()?,
                v.get("p99")?.as_f64()?,
            ))
        })
        .collect();
    if rows.is_empty() {
        None
    } else {
        Some(rows)
    }
}

/// Renders the span-quantile delta table between the last two records
/// that embed metrics snapshots (instrumented runs), or explains why
/// it cannot.
fn render_span_deltas(records: &[RunRecord]) -> String {
    let mut with_spans = records.iter().rev().filter_map(|r| {
        let spans = span_quantiles(r)?;
        Some((r, spans))
    });
    let Some((cur_rec, cur)) = with_spans.next() else {
        return "spans: no instrumented record in the ledger \
                (metrics snapshots need `--features obs`)\n"
            .to_string();
    };
    let Some((prev_rec, prev)) = with_spans.next() else {
        return "spans: only one instrumented record — no delta to show\n".to_string();
    };
    let mut s = format!(
        "spans: p50/p90/p99 deltas, {} -> {}\n",
        prev_rec.git_rev, cur_rec.git_rev
    );
    let _ = writeln!(
        s,
        "  {:<40} {:>10} {:>8} {:>10} {:>8} {:>10} {:>8}",
        "span", "p50_ms", "d%", "p90_ms", "d%", "p99_ms", "d%"
    );
    let delta = |old: f64, new: f64| {
        if old > 0.0 {
            format!("{:+.1}%", (new - old) / old * 100.0)
        } else {
            "-".to_string()
        }
    };
    for (name, p50, p90, p99) in &cur {
        let old = prev.iter().find(|(n, ..)| n == name);
        let (o50, o90, o99) = old.map_or((0.0, 0.0, 0.0), |&(_, a, b, c)| (a, b, c));
        let _ = writeln!(
            s,
            "  {:<40} {:>10.3} {:>8} {:>10.3} {:>8} {:>10.3} {:>8}",
            name,
            p50 / 1e6,
            delta(o50, *p50),
            p90 / 1e6,
            delta(o90, *p90),
            p99 / 1e6,
            delta(o99, *p99),
        );
    }
    s
}

/// Prints `message` and the usage line, then exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: obs_report [--ledger FILE]");
    std::process::exit(2);
}

fn main() {
    let mut ledger_path = "LEDGER_runs.jsonl".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ledger" => {
                ledger_path = args
                    .next()
                    .unwrap_or_else(|| usage_error("--ledger needs a value"))
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }

    let ledger = Ledger::new(&ledger_path);
    let read = match ledger.read() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot read ledger {ledger_path}: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "== run ledger: {} ({} record(s), {} corrupt line(s) skipped, {} newer-schema) ==",
        ledger_path,
        read.records.len(),
        read.corrupt_lines,
        read.newer_schema
    );
    let mut records = read.records;
    let Some(current) = records.pop() else {
        eprintln!("error: ledger is empty");
        std::process::exit(2);
    };
    println!(
        "latest: label \"{}\", host \"{}\", rev {}, profile {}, ts {}",
        current.label, current.host, current.git_rev, current.profile, current.ts_unix
    );
    let report = sentinel::check_record(&current, &records, &sentinel::CheckConfig::default());
    print!("{}", sentinel::render_report(&report));

    records.push(current);
    print!("{}", render_span_deltas(&records));
}
