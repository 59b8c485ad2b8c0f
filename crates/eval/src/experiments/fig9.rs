//! Figs. 9a–c and Fig. 10: ROC / AUC / EER per attack kind and method.
//!
//! Paper reference values (all settings pooled):
//!
//! | attack | audio AUC | vibration AUC | full AUC | full EER |
//! |---|---|---|---|---|
//! | random (9a) | 0.693 | 0.884 | 0.994 | 3.8 % |
//! | replay (9b) | 0.688 | 0.869 | 0.995 | 3.5 % |
//! | synthesis (9c) | 0.662 | 0.830 | 0.990 | 3.9 % |
//! | hidden (10) | 0.742 | 0.883 | 1.000 | 6 %  |

use crate::experiments::common::{scaled, standard_settings};
use crate::metrics::DetectionMetrics;
use crate::report::Row;
use crate::runner::{Runner, RunnerConfig, SelectorChoice};
use thrubarrier_attack::AttackKind;
use thrubarrier_defense::DefenseMethod;

/// Configuration for the detection-performance experiments.
#[derive(Debug, Clone)]
pub struct DetectionStudyConfig {
    /// Master seed.
    pub seed: u64,
    /// Trial-count scale; 1.0 approximates the paper's counts.
    pub scale: f32,
    /// Attack kinds to evaluate (Fig. 9 = clear attacks, Fig. 10 =
    /// hidden voice).
    pub attacks: Vec<AttackKind>,
    /// Segment selector.
    pub selector: SelectorChoice,
    /// Worker threads.
    pub threads: usize,
}

impl Default for DetectionStudyConfig {
    fn default() -> Self {
        DetectionStudyConfig {
            seed: 0xF19,
            scale: 0.05,
            attacks: vec![
                AttackKind::Random,
                AttackKind::Replay,
                AttackKind::VoiceSynthesis,
                AttackKind::HiddenVoice,
            ],
            selector: SelectorChoice::Brnn {
                corpus_size: 80,
                epochs: 3,
                hidden: 48,
            },
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

/// Result for one attack kind: metrics per method.
#[derive(Debug, Clone)]
pub struct DetectionStudyRow {
    /// Attack evaluated.
    pub attack: AttackKind,
    /// `(method, metrics)` triplets in presentation order.
    pub methods: Vec<(DefenseMethod, DetectionMetrics)>,
}

/// Full result of the detection study.
#[derive(Debug, Clone)]
pub struct DetectionStudy {
    /// One row per attack kind.
    pub rows: Vec<DetectionStudyRow>,
    /// Number of legitimate trials scored.
    pub n_legitimate: usize,
    /// Number of attack trials scored per kind.
    pub n_attacks_per_kind: usize,
    /// Master seed of the run.
    pub seed: u64,
}

/// Runs the Fig. 9 / Fig. 10 experiment.
pub fn run(cfg: &DetectionStudyConfig) -> DetectionStudy {
    // Paper: 3 600 legitimate command recordings and 3 600+ attack
    // samples per kind (random: 26 400). Scaled defaults keep ratios.
    let participants = scaled(20, cfg.scale.sqrt()).clamp(4, 20);
    let commands_per_user = scaled(180, cfg.scale / (participants as f32 / 20.0)).max(2);
    let attacks_per_kind = scaled(3_600, cfg.scale);
    let runner_cfg = RunnerConfig {
        seed: cfg.seed,
        participants,
        commands_per_user,
        attacks_per_kind,
        attack_kinds: cfg.attacks.clone(),
        settings: standard_settings(),
        selector: cfg.selector,
        threads: cfg.threads,
        batch_size: 8,
    };
    let runner = Runner::new(runner_cfg);
    let outcome = runner.run();
    let n_legitimate = outcome.pool(DefenseMethod::Full).legitimate.len();
    let rows = cfg
        .attacks
        .iter()
        .map(|&attack| DetectionStudyRow {
            attack,
            methods: DefenseMethod::all()
                .into_iter()
                .map(|m| (m, outcome.pool(m).metrics_of(attack)))
                .collect(),
        })
        .collect();
    DetectionStudy {
        rows,
        n_legitimate,
        n_attacks_per_kind: attacks_per_kind,
        seed: cfg.seed,
    }
}

impl DetectionStudy {
    /// `auc` and `eer` rows per attack kind and method, plus the full
    /// method's 11-point ROC sketch as `tdr@t`/`fdr@t` at thresholds
    /// 0.0, 0.1, …, 1.0. Hidden-voice rows belong to `fig10`, the other
    /// kinds to `fig9`.
    pub fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for row in &self.rows {
            let experiment = match row.attack {
                AttackKind::HiddenVoice => "fig10",
                _ => "fig9",
            };
            for (method, m) in &row.methods {
                let base = Row::new(experiment, self.seed, row.attack.name(), method.label())
                    .trials(self.n_legitimate, self.n_attacks_per_kind);
                rows.push(base.metric("auc", m.auc));
                rows.push(base.metric("eer", m.eer));
                if *method == DefenseMethod::Full {
                    for p in m.roc.points.iter().step_by(10) {
                        rows.push(base.metric(format!("tdr@{:.2}", p.threshold), p.tdr));
                        rows.push(base.metric(format!("fdr@{:.2}", p.threshold), p.fdr));
                    }
                }
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_all_cells() {
        let cfg = DetectionStudyConfig {
            scale: 0.004,
            attacks: vec![AttackKind::Replay],
            selector: SelectorChoice::Energy,
            ..Default::default()
        };
        let study = run(&cfg);
        assert_eq!(study.rows.len(), 1);
        let (_, m) = study.rows[0]
            .methods
            .iter()
            .find(|(m, _)| *m == DefenseMethod::Full)
            .unwrap();
        assert!(m.auc > 0.5, "auc {}", m.auc);
        let rows = study.rows();
        assert!(rows.iter().all(|r| r.experiment == "fig9"));
        assert!(rows
            .iter()
            .any(|r| r.metric == "auc" && r.method == DefenseMethod::Full.label()));
        assert_eq!(
            rows.iter().filter(|r| r.metric.starts_with("tdr@")).count(),
            11
        );
    }
}
