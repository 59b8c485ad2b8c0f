//! Outside-in benchmark of the thrubarrier defense pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <decide|eval|train> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The benchmark calls only public functions of the workspace crates.
//! With `--trace 0` it times the program and prints the end-to-end
//! metrics; with `--trace 1` it runs a layer-by-layer replica next to
//! the program, checks that the replica reproduces the program's outputs
//! bitwise, and prints the per-layer metrics. The last line of standard
//! output is the result object; the line before it is the detailed
//! report (context, sample counts and checks). See `README.md` for the
//! design.

mod accuracy;
mod decide;
mod eval;
mod host;
mod replica;
mod report;
mod seeds;
mod setup;
mod speed;
mod stats;
mod trace;
mod train;

use host::{HostSample, HostUsage};
use report::Report;
use setup::{Needs, Setup};
use speed::Speedometer;
use stats::Latency;
use std::time::Instant;
use trace::{Tracer, Waterfall};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Share of the replica's wall time its layer spans must cover.
const MIN_ATTRIBUTED_SHARE: f64 = 0.95;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("op_ms_p50", "ms"),
    ("frame_acc", "ratio"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`
/// (0 where the workload does not exercise the layer).
const PER_LAYER: [(&str, &str); 31] = [
    ("defense.sync_ms", "ms"),
    ("dsp.mfcc_ms", "ms"),
    ("nn.infer_ms", "ms"),
    ("defense.select_ms", "ms"),
    ("vibration.convert_ms", "ms"),
    ("defense.features_ms", "ms"),
    ("defense.correlate_ms", "ms"),
    ("defense.audio_features_ms", "ms"),
    ("phoneme.synth_ms", "ms"),
    ("acoustics.render_ms", "ms"),
    ("attack.build_ms", "ms"),
    ("nn.train_step_ms", "ms"),
    ("nn.frames_per_step", "count"),
    ("unattributed_ms", "ms"),
    ("attributed_share", "ratio"),
    ("defense.selected_s", "s"),
    ("defense.short_evidence_ratio", "ratio"),
    ("defense.sync_failed_ratio", "ratio"),
    ("setup.selection_s", "s"),
    ("setup.corpus_s", "s"),
    ("setup.train_s", "s"),
    ("setup.pool_s", "s"),
    ("trace.op_ms_p50", "ms"),
    ("trace.overhead_pct", "%"),
    ("host.runq_wait_ms", "ms"),
    ("host.oncpu_s", "s"),
    ("quality.auc_full", "ratio"),
    ("quality.auc_full_min_kind", "ratio"),
    ("quality.eer_full", "ratio"),
    ("quality.auc_vibration", "ratio"),
    ("quality.auc_audio", "ratio"),
];

/// The metric reporting a layer span's mean self time.
fn layer_metric(span: &str) -> &'static str {
    match span {
        "defense.sync" => "defense.sync_ms",
        "dsp.mfcc" => "dsp.mfcc_ms",
        "nn.infer" => "nn.infer_ms",
        "defense.select" => "defense.select_ms",
        "vibration.convert" => "vibration.convert_ms",
        "defense.features" => "defense.features_ms",
        "defense.correlate" => "defense.correlate_ms",
        "defense.audio_features" => "defense.audio_features_ms",
        "phoneme.synth" => "phoneme.synth_ms",
        "acoustics.render" => "acoustics.render_ms",
        "attack.build" => "attack.build_ms",
        "nn.train_step" => "nn.train_step_ms",
        other => panic!("span {other} has no metric"),
    }
}

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop verification decisions.
    Decide,
    /// Researcher's evaluation runs.
    Eval,
    /// BRNN training runs.
    Train,
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Minimum measuring time.
    pub seconds: f64,
    /// Run the traced replica.
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <decide|eval|train> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("bad {what}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "decide" => Workload::Decide,
                        "eval" => Workload::Eval,
                        "train" => Workload::Train,
                        _ => return Err(bad("workload")),
                    })
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
                "--seconds" => {
                    let s = value.parse::<u64>().map_err(|_| bad("seconds"))?;
                    if s == 0 {
                        return Err(bad("seconds"));
                    }
                    seconds = Some(s as f64);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Outcomes of the timed operations of one run.
#[derive(Debug)]
pub struct OpLog {
    cycle: usize,
    first: Vec<Option<Vec<f32>>>,
    /// Wall time of each operation, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Work units attempted (decisions, trials or training runs).
    pub attempted: u64,
    /// Work units that panicked or produced a non-finite output.
    pub failed: u64,
    /// Repeated operations whose outputs differ from the first time.
    pub repeat_mismatches: u64,
}

impl OpLog {
    /// A log for operations that repeat with period `cycle`.
    pub fn new(cycle: usize) -> Self {
        OpLog {
            cycle,
            first: vec![None; cycle],
            latency_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            repeat_mismatches: 0,
        }
    }

    /// Records operation `i`: its outputs, wall time and work units.
    /// Repeats of an earlier operation must reproduce its outputs
    /// bitwise.
    pub fn record(&mut self, i: usize, outputs: &[f32], ms: f64, attempted: u64, failed: u64) {
        self.latency_ms.push(ms);
        self.attempted += attempted;
        self.failed += failed;
        let slot = &mut self.first[i % self.cycle];
        match slot {
            None => *slot = Some(outputs.to_vec()),
            Some(first) => {
                let same = first.len() == outputs.len()
                    && first
                        .iter()
                        .zip(outputs)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                self.repeat_mismatches += u64::from(!same);
            }
        }
    }

    /// Operations recorded.
    pub fn ops(&self) -> usize {
        self.latency_ms.len()
    }

    /// Outputs of the first pass, in cycle order.
    ///
    /// # Panics
    ///
    /// Panics if fewer than one whole cycle ran.
    pub fn first_cycle(&self) -> Vec<&[f32]> {
        self.first
            .iter()
            .map(|o| o.as_deref().expect("a whole cycle ran"))
            .collect()
    }

    /// Adds the repeat check to `report`.
    pub fn check_repeats(&self, report: &mut Report) {
        report.check(
            "repeated operations reproduce their outputs bitwise",
            self.repeat_mismatches == 0,
            format!(
                "{} of {} repeats differ",
                self.repeat_mismatches,
                self.ops().saturating_sub(self.cycle)
            ),
        );
    }
}

/// The timed phase of a run: host activity and host speed meanwhile.
#[derive(Debug)]
pub struct Timed {
    /// Host activity.
    pub host: HostUsage,
    /// Host speed, sampled between operations.
    pub speed: Speedometer,
}

/// Runs `op(i)` for `i = 0, 1, …` until at least `min_ops` ran and
/// `seconds` passed, sampling the host's speed between operations.
pub fn run_ops(min_ops: usize, seconds: f64, mut op: impl FnMut(usize)) -> Timed {
    let before = HostSample::now();
    let start = Instant::now();
    let mut speed = Speedometer::default();
    let mut i = 0;
    while i < min_ops || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        op(i);
        speed.after(t.elapsed().as_secs_f64() * 1e3);
        i += 1;
    }
    Timed {
        host: before.until(&HostSample::now()),
        speed,
    }
}

/// Builds the set-up (several times when untraced, reporting the median
/// as `setup_s`) and checks every build is identical. Returns the last
/// build and the factor that turns its raw times into nominal-host
/// times.
pub fn setup_phase(args: &Args, needs: Needs, report: &mut Report) -> (Setup, f64) {
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut totals = Vec::with_capacity(repeats);
    let mut prints = Vec::with_capacity(repeats);
    let mut speed = Speedometer::default();
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let s = Setup::build(args.seed, needs);
        let total = s.phases.total();
        speed.after(total * 1e3);
        totals.push(total);
        prints.push(s.fingerprint());
        last = Some(s);
    }
    let factor = speed.time_factor();
    report.check(
        "repeated set-ups build identical inputs",
        prints.windows(2).all(|w| w[0] == w[1]),
        format!("{prints:x?}"),
    );
    report.context_json(
        "setup_s_each",
        format!(
            "[{}]",
            totals
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    report.context_num("setup.reference_ms", speed.reference_ms());
    report.context_num("setup.raw_s", stats::median(&totals));
    if !args.trace {
        report.metric(
            "setup_s",
            stats::median(&totals) * factor,
            "s",
            repeats as u64,
        );
    }
    (last.expect("at least one set-up"), factor)
}

/// Records the host activity and speed of the timed phase in the
/// context.
fn host_context(report: &mut Report, timed: &Timed) {
    let host = &timed.host;
    report.context_num("reference_ms", timed.speed.reference_ms());
    report.context_num("reference_samples", timed.speed.samples() as f64);
    report.context_num("timed_wall_s", host.wall_s);
    report.context_num("host.runq_wait_ms", host.thread_runq_wait_ms);
    report.context_num("host.oncpu_s", host.thread_oncpu_s);
    report.context_num("host.process_cpu_s", host.process_cpu_s);
}

/// The untraced run's end-to-end metrics. `work_units` counts decisions,
/// trials or utterance-epochs over the timed operations; the throughput
/// they give goes into the detailed report. Times are scaled to the
/// nominal host.
pub fn end_to_end(
    report: &mut Report,
    log: &OpLog,
    timed: &Timed,
    work_units: f64,
    frame_acc: f64,
) {
    let lat = Latency::of(&log.latency_ms);
    let busy_s = log.latency_ms.iter().sum::<f64>() / 1e3;
    let factor = timed.speed.time_factor();
    report.metric("peak_rss_mb", host::peak_rss_mb(), "MB", 1);
    report.metric("ok_ratio", report.ok_ratio(), "ratio", log.attempted);
    report.metric("op_ms_p50", lat.p50 * factor, "ms", lat.n as u64);
    report.metric("frame_acc", frame_acc, "ratio", 1);
    report.context_num("work_per_s", work_units / busy_s / factor);
    report.context_num("raw.work_per_s", work_units / busy_s);
    report.context_num("raw.op_ms_p50", lat.p50);
    report.context_num("raw.op_ms_mean", lat.mean);
    if lat.n <= 64 {
        let each: Vec<String> = log.latency_ms.iter().map(|v| v.to_string()).collect();
        report.context_json("op_ms_each", format!("[{}]", each.join(", ")));
    }
    report.context_json(
        "op_ms_tail",
        match lat.tail {
            Some((q, v)) => format!(
                "{{\"percentile\": {q}, \"raw_ms\": {v}, \"ms\": {}, \"samples\": {}}}",
                v * factor,
                lat.n
            ),
            None => format!("{{\"percentile\": null, \"samples\": {}}}", lat.n),
        },
    );
    host_context(report, timed);
}

/// The traced run's layer metrics.
///
/// `units` is the number of decisions, trials or steps the replica ran;
/// layer times are reported per unit. `real_ms_per_unit` is the
/// program's own (untraced) wall time per unit, measured alongside, and
/// `real_ms` / `replica_ms` are the per-operation wall times of program
/// and replica. Times are scaled to the nominal host.
#[allow(clippy::too_many_arguments)]
pub fn waterfall_metrics(
    report: &mut Report,
    tracer: &Tracer,
    layers: &[&'static str],
    units: f64,
    real_ms_per_unit: f64,
    real_ms: &[f64],
    replica_ms: &[f64],
    timed: &Timed,
) {
    let w = Waterfall::of(tracer.spans());
    let factor = timed.speed.time_factor();
    let per_unit = |ns: u64| ns as f64 / units / 1e6 * factor;
    for &layer in layers {
        report.metric(
            layer_metric(layer),
            per_unit(w.get(layer)),
            "ms",
            units as u64,
        );
    }
    let attributed = w.attributed_ns(layers);
    let share = attributed as f64 / w.root_ns.max(1) as f64;
    report.check(
        format!("layer spans cover at least {MIN_ATTRIBUTED_SHARE} of the replica's wall time"),
        share >= MIN_ATTRIBUTED_SHARE,
        format!("attributed {share:.4} over {} requests", w.requests),
    );
    report.metric("attributed_share", share, "ratio", w.requests);
    // Signed: negative when the layers sum to more than the program's
    // own wall time, i.e. the replica does work the program no longer
    // does.
    report.metric(
        "unattributed_ms",
        real_ms_per_unit * factor - per_unit(attributed),
        "ms",
        units as u64,
    );
    let replica_p50 = stats::median(replica_ms);
    report.metric(
        "trace.op_ms_p50",
        replica_p50 * factor,
        "ms",
        replica_ms.len() as u64,
    );
    report.metric(
        "trace.overhead_pct",
        100.0 * (replica_p50 / stats::median(real_ms) - 1.0),
        "%",
        real_ms.len() as u64,
    );
    report.metric("host.runq_wait_ms", timed.host.thread_runq_wait_ms, "ms", 1);
    report.metric("host.oncpu_s", timed.host.thread_oncpu_s, "s", 1);
    report.context_num("untraced_op_ms_p50", stats::median(real_ms) * factor);
    host_context(report, timed);
}

/// Puts the metrics in `BENCHMARK.json` order, filling layers the
/// workload does not exercise with 0.
fn finalize(report: &mut Report, trace: bool) {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut out = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        match report.metrics.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = report.metrics.swap_remove(i);
                assert_eq!(m.unit, unit, "unit of {name}");
                out.push(m);
            }
            None => {
                assert!(trace, "end-to-end metric {name} not measured");
                out.push(report::Metric {
                    name,
                    value: 0.0,
                    unit,
                    samples: 0,
                });
            }
        }
    }
    let extra: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    assert!(
        extra.is_empty(),
        "metrics missing from the lists: {extra:?}"
    );
    report.metrics = out;
}

/// Writes the traced run's spans inside the working directory.
fn write_spans(args: &Args, tracer: &Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new(".perfbench");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{:?}-seed{}.json", args.workload, args.seed).to_lowercase());
    std::fs::write(&path, tracer.to_json())?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    report.context_str("workload", &format!("{:?}", args.workload).to_lowercase());
    report.context_num("seed", args.seed as f64);
    report.context_num("trace", f64::from(u8::from(args.trace)));
    report.context_num(
        "available_parallelism",
        host::available_parallelism() as f64,
    );
    report.context_str("cpu_model", &host::cpu_model());
    report.context_str("git_rev", &host::git_rev());
    report.context_str("rustc", host::rustc_version());
    let tracer = match args.workload {
        Workload::Decide => decide::run(&args, &mut report),
        Workload::Eval => eval::run(&args, &mut report),
        Workload::Train => train::run(&args, &mut report),
    };
    if args.trace {
        match write_spans(&args, &tracer) {
            Ok(path) => report.context_str("spans", &path),
            Err(e) => report.check("spans written", false, e.to_string()),
        }
    }
    finalize(&mut report, args.trace);
    for c in report.checks.iter().filter(|c| !c.passed) {
        eprintln!("check failed: {} ({})", c.name, c.detail);
    }
    for m in &report.metrics {
        eprintln!(
            "{:>30} {:>14.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", report.detail_json());
    println!("{}", report.result_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload eval --seed 42 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Eval);
        assert_eq!(a.seed, 42);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload decide --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload decide --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload decide --seed 1 --seconds 1").is_err());
        assert!(parse("--workload decide --seed").is_err());
    }

    #[test]
    fn op_log_counts_failures_and_repeat_mismatches() {
        let mut log = OpLog::new(2);
        log.record(0, &[0.5], 1.0, 1, 0);
        log.record(1, &[f32::NAN], 1.0, 1, 1);
        log.record(2, &[0.5], 1.0, 1, 0);
        log.record(3, &[0.25], 1.0, 1, 0);
        assert_eq!(log.ops(), 4);
        assert_eq!((log.attempted, log.failed), (4, 1));
        // NaN repeats as NaN bitwise only if it was NaN before: op 3
        // returned a finite score where op 1 returned NaN.
        assert_eq!(log.repeat_mismatches, 1);
        assert_eq!(log.first_cycle()[0], &[0.5]);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json: String = include_str!("../../BENCHMARK.json")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) missing");
        }
        let workloads = ["decide", "eval", "train"];
        for w in workloads {
            assert!(json.contains(&format!("{{\"name\":\"{w}\",\"why\"")), "{w}");
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            workloads.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn every_layer_span_has_a_listed_metric() {
        let listed: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        for span in replica::DEFENSE_LAYERS
            .iter()
            .chain(eval::SIMULATOR_LAYERS.iter())
            .chain(train::TRAIN_LAYERS.iter())
        {
            assert!(listed.contains(&layer_metric(span)), "{span}");
        }
    }
}
