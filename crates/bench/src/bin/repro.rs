//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick|--full] [--scale X] [--seed N] [--csv DIR] [--trace-out FILE] <experiment>...
//!
//! experiments:
//!   table1 table2 fig3 fig4 fig6 fig7 fig9 fig10
//!   fig11a fig11b fig11c fig11d phoneme-detection
//!   ablation extensions architectures naive-baseline all
//! ```
//!
//! Every argument is checked before any experiment runs: an unknown
//! experiment name prints the valid names, and a flag with a missing or
//! bad value (a non-integer seed, a scale that is not a finite positive
//! number) prints the usage line; both exit with status 2.

use std::env;
use thrubarrier_attack::AttackKind;
use thrubarrier_bench::ReproPreset;
use thrubarrier_eval::experiments::{
    ablation, architectures, extensions, fig11, fig3, fig4, fig6, fig7, fig9, naive_baseline,
    phoneme_detection, table1, table2,
};
use thrubarrier_eval::runner::{Runner, RunnerConfig, SelectorChoice};

/// Every experiment `repro` runs, in the order `all` runs them.
const EXPERIMENTS: [&str; 17] = [
    "table1",
    "table2",
    "fig3",
    "fig4",
    "fig6",
    "fig7",
    "fig9",
    "fig10",
    "fig11a",
    "fig11b",
    "fig11c",
    "fig11d",
    "phoneme-detection",
    "ablation",
    "extensions",
    "architectures",
    "naive-baseline",
];

const USAGE: &str =
    "usage: repro [--quick|--full] [--scale X] [--seed N] [--csv DIR] [--trace-out FILE] <experiment>...";

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
    let mut csv_dir: Option<std::path::PathBuf> = None;
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
            "--csv" => csv_dir = Some(value_arg("--csv", iter.next()).into()),
            "--trace-out" => trace_out = Some(value_arg("--trace-out", iter.next()).into()),
            "--help" | "-h" => {
                print_help();
                return;
            }
            other => experiments.push(other.to_string()),
        }
    }
    let unknown: Vec<&str> = experiments
        .iter()
        .map(String::as_str)
        .filter(|e| *e != "all" && !EXPERIMENTS.contains(e))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment: {}\nvalid experiments: {} all",
            unknown.join(", "),
            EXPERIMENTS.join(" ")
        );
        std::process::exit(2);
    }
    if experiments.is_empty() {
        print_help();
        return;
    }
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv output directory");
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
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
        run_experiment(exp, &preset, seed, csv_dir.as_deref());
        println!();
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
         experiments: table1 table2 fig3 fig4 fig6 fig7 fig9 fig10\n\
                      fig11a fig11b fig11c fig11d phoneme-detection\n\
                      ablation extensions architectures naive-baseline all\n\n\
         --quick  small trial counts + energy selector (fast sanity pass)\n\
         --full   paper-scale trial counts + 64-unit BRNN (hours)\n\
         --scale  override the trial-count scale (1.0 = paper scale)\n\
         --seed   override the master seed\n\
         --csv    directory to write ROC CURVES as CSV (fig9/fig10)\n\
         --trace-out  write a chrome://tracing JSON of the whole run\n\
                      (spans only exist when built with --features obs)"
    );
}

fn run_experiment(
    name: &str,
    preset: &ReproPreset,
    seed: Option<u64>,
    csv_dir: Option<&std::path::Path>,
) {
    match name {
        "table1" => {
            let mut cfg = table1::AttackStudyConfig::default();
            if let Some(s) = seed {
                cfg.seed = s;
            }
            println!("{}", table1::run(&cfg).render_text());
        }
        "table2" => {
            let mut cfg = table2::SelectionStudyConfig::default();
            if let Some(s) = seed {
                cfg.seed = s;
            }
            cfg.samples_per_phoneme = ((100.0 * preset.scale.max(0.12)) as usize).clamp(12, 100);
            println!("{}", table2::run(&cfg).render_text());
        }
        "fig3" | "fig4" => {
            let mut cfg = fig3::BarrierEffectConfig::default();
            if let Some(s) = seed {
                cfg.seed = s;
            }
            cfg.samples_per_phoneme = ((100.0 * preset.scale.max(0.1)) as usize).clamp(10, 100);
            if name == "fig3" {
                println!("{}", fig3::run(&cfg).render_text());
            } else {
                println!("{}", fig4::run(&cfg).render_text());
            }
        }
        "fig6" => {
            let mut cfg = fig6::CriteriaDemoConfig::default();
            if let Some(s) = seed {
                cfg.seed = s;
            }
            println!("{}", fig6::run(&cfg).render_text());
        }
        "fig7" => {
            let mut cfg = fig7::ChirpStudyConfig::default();
            if let Some(s) = seed {
                cfg.seed = s;
            }
            println!("{}", fig7::run(&cfg).render_text());
        }
        "fig9" | "fig10" => {
            let mut cfg = fig9::DetectionStudyConfig {
                scale: preset.scale,
                selector: preset.selector,
                ..Default::default()
            };
            if let Some(s) = seed {
                cfg.seed = s;
            }
            cfg.attacks = if name == "fig9" {
                vec![
                    AttackKind::Random,
                    AttackKind::Replay,
                    AttackKind::VoiceSynthesis,
                ]
            } else {
                vec![AttackKind::HiddenVoice]
            };
            let study = fig9::run(&cfg);
            println!("{}", study.render_text());
            if let Some(dir) = csv_dir {
                for row in &study.rows {
                    for (method, metrics) in &row.methods {
                        let slug =
                            format!("{name}_{}_{method:?}", row.attack.name().replace(' ', "_"));
                        let path = dir.join(format!("{slug}_roc.csv"));
                        let file = std::fs::File::create(&path).expect("create roc csv");
                        thrubarrier_eval::report::write_roc_csv(
                            std::io::BufWriter::new(file),
                            &metrics.roc,
                        )
                        .expect("write roc csv");
                        println!("wrote {}", path.display());
                    }
                }
            }
        }
        "fig11a" | "fig11b" | "fig11c" | "fig11d" => {
            let mut cfg = fig11::ImpactStudyConfig {
                scale: preset.scale,
                selector: preset.selector,
                ..Default::default()
            };
            if let Some(s) = seed {
                cfg.seed = s;
            }
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
            println!("{}", panel.render_text());
        }
        "phoneme-detection" => {
            let mut cfg = phoneme_detection::DetectionAccuracyConfig::default();
            if let Some(s) = seed {
                cfg.seed = s;
            }
            if let SelectorChoice::Brnn {
                corpus_size,
                epochs,
                hidden,
            } = preset.selector
            {
                cfg.corpus_size = corpus_size;
                cfg.epochs = epochs;
                cfg.hidden = hidden;
            }
            cfg.samples_per_phoneme = ((100.0 * preset.scale.max(0.08)) as usize).clamp(8, 100);
            println!("{}", phoneme_detection::run(&cfg).render_text());
        }
        "ablation" => {
            let mut cfg = ablation::AblationConfig::default();
            if let Some(s) = seed {
                cfg.seed = s;
            }
            cfg.trials = ((800.0 * preset.scale) as usize).clamp(16, 800);
            println!("{}", ablation::run(&cfg).render_text());
        }
        "architectures" => {
            let mut cfg = architectures::ArchitectureStudyConfig::default();
            if let Some(s) = seed {
                cfg.seed = s;
            }
            if let SelectorChoice::Brnn {
                corpus_size,
                epochs,
                hidden,
            } = preset.selector
            {
                cfg.corpus_size = corpus_size;
                cfg.epochs = epochs;
                cfg.hidden = hidden;
            }
            println!("{}", architectures::run(&cfg).render_text());
        }
        "naive-baseline" => {
            let mut cfg = naive_baseline::NaiveBaselineConfig::default();
            if let Some(s) = seed {
                cfg.seed = s;
            }
            cfg.trials = ((1_200.0 * preset.scale) as usize).clamp(24, 1_200);
            println!("{}", naive_baseline::run(&cfg).render_text());
        }
        "extensions" => {
            let mut cfg = extensions::ExtensionConfig::default();
            if let Some(s) = seed {
                cfg.seed = s;
            }
            cfg.trials = ((600.0 * preset.scale) as usize).clamp(12, 600);
            println!("{}", extensions::render_all(&cfg));
        }
        other => unreachable!("experiment {other} was validated in main"),
    }
}
