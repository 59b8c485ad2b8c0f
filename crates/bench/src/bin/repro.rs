//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick|--full] [--scale X] [--seed N] [--results FILE] [--trace-out FILE] <experiment>...
//!
//! experiments:
//!   table1 table2 fig3 fig4 fig6 fig7 fig9 fig10
//!   fig11a fig11b fig11c fig11d phoneme-detection
//!   ablation extensions architectures naive-baseline all
//! ```
//!
//! Every experiment yields rows of one record ([`report::Row`]); `repro`
//! prints them through [`report::render`] and, with `--results`, writes
//! them as JSON lines (one object per row, plus the run's `scale`).
//!
//! Every argument is checked before any experiment runs: an unknown
//! experiment name prints the valid names, and an unknown option or a
//! flag with a missing or bad value (a non-integer seed, a scale that is
//! not a finite positive number) prints the usage line; both exit with
//! status 2.

use std::env;
use std::io::Write as _;
use thrubarrier_attack::AttackKind;
use thrubarrier_bench::ReproPreset;
use thrubarrier_eval::experiments::{
    ablation, architectures, extensions, fig11, fig3, fig4, fig6, fig7, fig9, naive_baseline,
    phoneme_detection, table1, table2,
};
use thrubarrier_eval::report::{self, Row};
use thrubarrier_eval::runner::{Runner, RunnerConfig, SelectorChoice};

/// Every experiment `repro` runs, in the order `all` runs them.
const EXPERIMENTS: &str = "table1 table2 fig3 fig4 fig6 fig7 fig9 fig10 fig11a fig11b fig11c \
                           fig11d phoneme-detection ablation extensions architectures naive-baseline";

const USAGE: &str =
    "usage: repro [--quick|--full] [--scale X] [--seed N] [--results FILE] [--trace-out FILE] <experiment>...";

/// Prints `message` and the usage line, then exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The value after `flag`; a missing one is a usage error.
fn value_arg(flag: &str, value: Option<&String>) -> String {
    value
        .cloned()
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut preset = ReproPreset::default_preset();
    let mut seed: Option<u64> = None;
    let mut results: Option<std::path::PathBuf> = None;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut experiments: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => preset = ReproPreset::quick(),
            "--full" => preset = ReproPreset::full(),
            "--scale" => {
                let v = value_arg("--scale", iter.next());
                preset.scale = match v.parse::<f32>() {
                    Ok(x) if x.is_finite() && x > 0.0 => x,
                    _ => usage_error(&format!(
                        "--scale must be a finite positive number, got {v:?}"
                    )),
                };
            }
            "--seed" => {
                let v = value_arg("--seed", iter.next());
                seed = Some(v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--seed must be an unsigned integer, got {v:?}"))
                }));
            }
            "--results" => results = Some(value_arg("--results", iter.next()).into()),
            "--trace-out" => trace_out = Some(value_arg("--trace-out", iter.next()).into()),
            "--help" | "-h" => {
                print_help();
                return;
            }
            other if other.starts_with('-') => usage_error(&format!("unknown option {other}")),
            other => experiments.push(other.to_string()),
        }
    }
    let unknown: Vec<&str> = experiments
        .iter()
        .map(String::as_str)
        .filter(|e| *e != "all" && !EXPERIMENTS.split(' ').any(|x| x == *e))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment: {}\nvalid experiments: {EXPERIMENTS} all",
            unknown.join(", ")
        );
        std::process::exit(2);
    }
    if experiments.is_empty() {
        print_help();
        return;
    }
    let mut results = results.map(|path| {
        let file = std::fs::File::create(&path).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", path.display());
            std::process::exit(1);
        });
        std::io::BufWriter::new(file)
    });
    if experiments.iter().any(|e| e == "all") {
        experiments = EXPERIMENTS.split(' ').map(String::from).collect();
    }
    if trace_out.is_some() {
        if !thrubarrier_obs::COMPILED {
            eprintln!(
                "warning: --trace-out without the `obs` feature writes an empty trace; \
                 rebuild with `--features obs`"
            );
        }
        thrubarrier_obs::label_thread("repro-main");
        thrubarrier_obs::start_trace();
    }
    for exp in &experiments {
        println!("================ {exp} ================");
        let rows = run_experiment(exp, &preset, seed);
        println!("{}", report::render(&rows));
        if let Some(w) = &mut results {
            report::write_jsonl(&mut *w, &rows, preset.scale)
                .and_then(|()| w.flush())
                .expect("write --results file");
        }
    }
    if let Some(path) = &trace_out {
        // Every experiment's worker scope has joined by now, so the
        // trace holds all spans from all threads of the run.
        let trace = thrubarrier_obs::finish_trace();
        std::fs::write(path, trace).expect("write chrome trace JSON");
        eprintln!("wrote {} (chrome://tracing)", path.display());
    }
}

fn print_help() {
    println!(
        "repro — regenerate the paper's tables and figures\n\n\
         {USAGE}\n\n\
         experiments: {EXPERIMENTS} all\n\n\
         --quick  small trial counts + energy selector (fast sanity pass)\n\
         --full   paper-scale trial counts + 64-unit BRNN (hours)\n\
         --scale  override the trial-count scale (1.0 = paper scale)\n\
         --seed   override the master seed\n\
         --results  write every result row as a JSON line to FILE\n\
         --trace-out  write a chrome://tracing JSON of the whole run\n\
                      (spans only exist when built with --features obs)"
    );
}

/// Runs one experiment and returns its rows. `--seed` overrides each
/// config's own default seed.
fn run_experiment(name: &str, preset: &ReproPreset, seed: Option<u64>) -> Vec<Row> {
    let brnn = match preset.selector {
        SelectorChoice::Brnn {
            corpus_size,
            epochs,
            hidden,
        } => Some((corpus_size, epochs, hidden)),
        SelectorChoice::Energy => None,
    };
    match name {
        "table1" => {
            let mut cfg = table1::AttackStudyConfig::default();
            cfg.seed = seed.unwrap_or(cfg.seed);
            table1::run(&cfg).rows()
        }
        "table2" => {
            let mut cfg = table2::SelectionStudyConfig::default();
            cfg.seed = seed.unwrap_or(cfg.seed);
            // Never below the study's own default (24): fewer segments
            // per phoneme make the Q3 screen reject more phonemes.
            cfg.samples_per_phoneme =
                ((100.0 * preset.scale) as usize).clamp(cfg.samples_per_phoneme, 100);
            table2::run(&cfg).rows()
        }
        "fig3" | "fig4" => {
            let mut cfg = fig3::BarrierEffectConfig::default();
            cfg.seed = seed.unwrap_or(cfg.seed);
            cfg.samples_per_phoneme = ((100.0 * preset.scale.max(0.1)) as usize).clamp(10, 100);
            if name == "fig3" {
                fig3::run(&cfg).rows()
            } else {
                fig4::run(&cfg).rows()
            }
        }
        "fig6" => {
            let mut cfg = fig6::CriteriaDemoConfig::default();
            cfg.seed = seed.unwrap_or(cfg.seed);
            fig6::run(&cfg).rows()
        }
        "fig7" => {
            let mut cfg = fig7::ChirpStudyConfig::default();
            cfg.seed = seed.unwrap_or(cfg.seed);
            fig7::run(&cfg).rows()
        }
        "fig9" | "fig10" => {
            let mut cfg = fig9::DetectionStudyConfig {
                scale: preset.scale,
                selector: preset.selector,
                ..Default::default()
            };
            cfg.seed = seed.unwrap_or(cfg.seed);
            cfg.attacks = if name == "fig9" {
                vec![
                    AttackKind::Random,
                    AttackKind::Replay,
                    AttackKind::VoiceSynthesis,
                ]
            } else {
                vec![AttackKind::HiddenVoice]
            };
            fig9::run(&cfg).rows()
        }
        "fig11a" | "fig11b" | "fig11c" | "fig11d" => {
            let mut cfg = fig11::ImpactStudyConfig {
                scale: preset.scale,
                selector: preset.selector,
                ..Default::default()
            };
            cfg.seed = seed.unwrap_or(cfg.seed);
            // Build the (possibly trained) selector once.
            let runner = Runner::new(RunnerConfig {
                selector: cfg.selector,
                seed: cfg.seed,
                ..Default::default()
            });
            let (selector, _) = runner.build_selector();
            let panel = match name {
                "fig11a" => fig11::run_fig11a(&cfg, selector),
                "fig11b" => fig11::run_fig11b(&cfg, selector),
                "fig11c" => fig11::run_fig11c(&cfg, selector),
                _ => fig11::run_fig11d(&cfg, selector),
            };
            panel.rows()
        }
        "phoneme-detection" => {
            let mut cfg = phoneme_detection::DetectionAccuracyConfig::default();
            cfg.seed = seed.unwrap_or(cfg.seed);
            if let Some((corpus_size, epochs, hidden)) = brnn {
                (cfg.corpus_size, cfg.epochs, cfg.hidden) = (corpus_size, epochs, hidden);
            }
            cfg.samples_per_phoneme = ((100.0 * preset.scale.max(0.08)) as usize).clamp(8, 100);
            phoneme_detection::run(&cfg).rows()
        }
        "ablation" => {
            let mut cfg = ablation::AblationConfig::default();
            cfg.seed = seed.unwrap_or(cfg.seed);
            cfg.trials = ((800.0 * preset.scale) as usize).clamp(16, 800);
            ablation::run(&cfg).rows()
        }
        "architectures" => {
            let mut cfg = architectures::ArchitectureStudyConfig::default();
            cfg.seed = seed.unwrap_or(cfg.seed);
            if let Some((corpus_size, epochs, hidden)) = brnn {
                (cfg.corpus_size, cfg.epochs, cfg.hidden) = (corpus_size, epochs, hidden);
            }
            architectures::run(&cfg).rows()
        }
        "naive-baseline" => {
            let mut cfg = naive_baseline::NaiveBaselineConfig::default();
            cfg.seed = seed.unwrap_or(cfg.seed);
            cfg.trials = ((1_200.0 * preset.scale) as usize).clamp(24, 1_200);
            naive_baseline::run(&cfg).rows()
        }
        "extensions" => {
            let mut cfg = extensions::ExtensionConfig::default();
            cfg.seed = seed.unwrap_or(cfg.seed);
            cfg.trials = ((600.0 * preset.scale) as usize).clamp(12, 600);
            extensions::rows(&cfg)
        }
        other => unreachable!("experiment {other} was validated in main"),
    }
}
