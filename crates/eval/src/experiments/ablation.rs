//! Ablation study: which pieces of the pipeline carry the detection
//! power?
//!
//! Not a paper figure — this exercises the design decisions DESIGN.md
//! calls out by disabling one mechanism at a time and re-measuring the
//! replay-attack EER:
//!
//! * **no ≤ 5 Hz crop** — the accelerometer's low-frequency artifact
//!   (Fig. 7) and body motion pollute the features;
//! * **no synchronization** — recordings are compared misaligned;
//! * **no replay normalization** — conversion SNR depends on the user's
//!   distance;
//! * **anti-aliased ADC** — "fixing" the accelerometer's aliasing
//!   destroys the fold-down evidence the defense reads;
//! * **no noise injection** — without level-dependent readout noise,
//!   attack conversions stay clean and detection collapses.

use crate::experiments::common::full_score;
use crate::metrics::DetectionMetrics;
use crate::report::Row;
use crate::scenario::{TrialContext, TrialSettings};
use thrubarrier_attack::AttackKind;
use thrubarrier_defense::{DefenseMethod, DefenseSystem};
use thrubarrier_vibration::Wearable;

/// Configuration for the ablation study.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Master seed.
    pub seed: u64,
    /// Legitimate/attack trials per variant.
    pub trials: usize,
    /// Attack evaluated.
    pub attack: AttackKind,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            seed: 0xAB1A,
            trials: 40,
            attack: AttackKind::Replay,
        }
    }
}

/// One ablation variant's outcome.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant name.
    pub name: &'static str,
    /// Detection metrics of the (ablated) full method.
    pub metrics: DetectionMetrics,
}

/// Result of the ablation study.
#[derive(Debug, Clone)]
pub struct AblationStudy {
    /// All variants, reference first.
    pub rows: Vec<AblationRow>,
    /// Legitimate (and attack) trials per variant.
    pub trials: usize,
    /// Master seed of the run.
    pub seed: u64,
}

fn variant_system(name: &str) -> DefenseSystem {
    let mut system = DefenseSystem::paper_default();
    match name {
        "reference" => {}
        "no 5 Hz crop" => system.features.crop_hz = 0.0,
        "no synchronization" => system.synchronize = false,
        "no replay normalization" => system.normalize_replay = false,
        "anti-aliased ADC" => {
            let mut wearable = Wearable::fossil_gen_5();
            wearable.accelerometer.anti_alias = true;
            system.wearable = wearable;
        }
        "no noise injection" => {
            let mut wearable = Wearable::fossil_gen_5();
            wearable.accelerometer.low_freq_noise_coeff = 0.0;
            wearable.accelerometer.noise_floor = 1e-6;
            system.wearable = wearable;
        }
        other => panic!("unknown ablation variant {other}"),
    }
    system
}

/// All variant names, reference first.
pub const VARIANTS: &[&str] = &[
    "reference",
    "no 5 Hz crop",
    "no synchronization",
    "no replay normalization",
    "anti-aliased ADC",
    "no noise injection",
];

/// Runs the ablation study.
pub fn run(cfg: &AblationConfig) -> AblationStudy {
    // One shared trial set so variants differ only in the pipeline.
    let mut ctx = TrialContext::seeded(cfg.seed);
    ctx.settings = TrialSettings::default();
    let mut trials = Vec::with_capacity(cfg.trials * 2);
    for i in 0..cfg.trials {
        // Mix the attack volumes like the pooled evaluation does.
        ctx.settings.attack_spl_db = [65.0, 75.0, 85.0][i % 3];
        ctx.settings.user_spl_db = [65.0, 70.0, 75.0][i % 3];
        ctx.settings.user_to_va_m = [1.0, 2.0, 3.0][i % 3];
        trials.push((ctx.legitimate_trial(), false, i as u64));
        trials.push((ctx.attack_trial(cfg.attack), true, 1_000 + i as u64));
    }
    let rows = VARIANTS
        .iter()
        .map(|&name| {
            let system = variant_system(name);
            let mut legit = Vec::new();
            let mut attack = Vec::new();
            for (trial, is_attack, seed) in &trials {
                let s = full_score(trial, cfg.seed ^ seed, &system);
                if *is_attack {
                    attack.push(s);
                } else {
                    legit.push(s);
                }
            }
            AblationRow {
                name,
                metrics: DetectionMetrics::from_scores(&legit, &attack),
            }
        })
        .collect();
    AblationStudy {
        rows,
        trials: cfg.trials,
        seed: cfg.seed,
    }
}

impl AblationStudy {
    /// `auc` and `eer` rows of the full method per variant.
    pub fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for row in &self.rows {
            let base = Row::new("ablation", self.seed, row.name, DefenseMethod::Full.label())
                .trials(self.trials, self.trials);
            rows.push(base.metric("auc", row.metrics.auc));
            rows.push(base.metric("eer", row.metrics.eer));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full method's AUC under a named variant.
    fn auc(study: &AblationStudy, name: &str) -> f32 {
        let row = study.rows.iter().find(|r| r.name == name);
        row.expect("variant present").metrics.auc
    }

    #[test]
    fn noise_injection_is_the_load_bearing_mechanism() {
        let study = run(&AblationConfig {
            trials: 16,
            ..Default::default()
        });
        let reference = auc(&study, "reference");
        let no_noise = auc(&study, "no noise injection");
        // Mic noise and room ambience still decorrelate some attacks,
        // so the collapse is partial at this scale — but it must be
        // clearly measurable.
        assert!(
            reference > no_noise + 0.03,
            "reference {reference} vs no-noise {no_noise}"
        );
    }

    #[test]
    fn aliasing_is_a_feature_not_a_bug() {
        let study = run(&AblationConfig {
            trials: 16,
            ..Default::default()
        });
        let reference = auc(&study, "reference");
        let anti_aliased = auc(&study, "anti-aliased ADC");
        assert!(
            reference >= anti_aliased,
            "reference {reference} vs anti-aliased {anti_aliased}"
        );
    }

    #[test]
    fn all_variants_have_rows() {
        let study = run(&AblationConfig {
            trials: 8,
            ..Default::default()
        });
        let rows = study.rows();
        for name in VARIANTS {
            assert!(rows.iter().any(|r| r.condition == *name), "{name} missing");
        }
    }
}
