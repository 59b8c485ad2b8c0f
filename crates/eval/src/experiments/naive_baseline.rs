//! The naive detector the paper's introduction evaluates and rejects.
//!
//! Sec. I: "one approach to capture the barrier effect … is to examine
//! the high-frequency spectral energy of the voice sounds captured by
//! the VA device. However, we find that this approach is not reliable as
//! some voice sounds inherently have low spectral energy in
//! high-frequency ranges, leading to false detection."
//!
//! This driver implements that single-recording detector (score = the
//! VA recording's high-band energy ratio) and shows both halves of the
//! claim: it beats chance, and its false detections concentrate on
//! legitimate commands whose phonemes are inherently low-frequency.

use crate::metrics::DetectionMetrics;
use crate::report::Row;
use crate::scenario::TrialContext;
use thrubarrier_attack::AttackKind;
use thrubarrier_dsp::features::high_band_energy_ratio;

/// Configuration for the naive-baseline study.
#[derive(Debug, Clone)]
pub struct NaiveBaselineConfig {
    /// Master seed.
    pub seed: u64,
    /// Trials per class.
    pub trials: usize,
    /// Band split in Hz (the paper's barrier-effect knee: 500 Hz).
    pub split_hz: f32,
}

impl Default for NaiveBaselineConfig {
    fn default() -> Self {
        NaiveBaselineConfig {
            seed: 0x7A1,
            trials: 60,
            split_hz: 500.0,
        }
    }
}

/// Result of the naive-baseline study.
#[derive(Debug, Clone)]
pub struct NaiveBaselineStudy {
    /// Metrics of the naive high-band-ratio detector.
    pub metrics: DetectionMetrics,
    /// Mean high-band ratio of legitimate commands.
    pub legit_mean_ratio: f32,
    /// Mean high-band ratio of attack recordings.
    pub attack_mean_ratio: f32,
    /// The lowest-scoring legitimate trials' ratios (the false-detection
    /// tail the paper warns about).
    pub legit_low_tail: Vec<f32>,
    /// Trials per class.
    pub trials: usize,
    /// Master seed of the run.
    pub seed: u64,
}

/// Runs the naive-detector study on replay attacks.
pub fn run(cfg: &NaiveBaselineConfig) -> NaiveBaselineStudy {
    let mut ctx = TrialContext::seeded(cfg.seed);
    let mut legit = Vec::with_capacity(cfg.trials);
    let mut attack = Vec::with_capacity(cfg.trials);
    for i in 0..cfg.trials {
        ctx.settings.attack_spl_db = [65.0, 75.0, 85.0][i % 3];
        ctx.settings.user_to_va_m = [1.0, 2.0, 3.0][i % 3];
        let l = ctx.legitimate_trial();
        legit.push(high_band_energy_ratio(
            l.va_recording.samples(),
            16_000,
            cfg.split_hz,
        ));
        let a = ctx.attack_trial(AttackKind::Replay);
        attack.push(high_band_energy_ratio(
            a.va_recording.samples(),
            16_000,
            cfg.split_hz,
        ));
    }
    let metrics = DetectionMetrics::from_scores(&legit, &attack);
    let mean = |xs: &[f32]| xs.iter().sum::<f32>() / xs.len().max(1) as f32;
    let mut sorted = legit.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    NaiveBaselineStudy {
        metrics,
        legit_mean_ratio: mean(&legit),
        attack_mean_ratio: mean(&attack),
        legit_low_tail: sorted.into_iter().take(5).collect(),
        trials: cfg.trials,
        seed: cfg.seed,
    }
}

impl NaiveBaselineStudy {
    /// The detector's `auc` and `eer` on replay attacks, then each
    /// class's mean >500 Hz energy share and the legitimate low tail
    /// (`lowest_1` is the lowest ratio).
    pub fn rows(&self) -> Vec<Row> {
        let row = |condition: &str, method: &str| {
            Row::new("naive-baseline", self.seed, condition, method)
        };
        let detector =
            row("replay attack", "high-band energy share").trials(self.trials, self.trials);
        let legitimate = row("legitimate", "");
        let mut rows = vec![
            detector.metric("auc", self.metrics.auc),
            detector.metric("eer", self.metrics.eer),
            legitimate.metric("mean_high_band_share", self.legit_mean_ratio),
        ];
        for (i, v) in self.legit_low_tail.iter().enumerate() {
            rows.push(legitimate.metric(format!("lowest_{}", i + 1), *v));
        }
        rows.push(row("attack", "").metric("mean_high_band_share", self.attack_mean_ratio));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_detector_beats_chance_but_is_unreliable() {
        let study = run(&NaiveBaselineConfig {
            trials: 24,
            ..Default::default()
        });
        // It does capture the barrier effect on average...
        assert!(
            study.legit_mean_ratio > study.attack_mean_ratio,
            "legit {} vs attack {}",
            study.legit_mean_ratio,
            study.attack_mean_ratio
        );
        assert!(study.metrics.auc > 0.6, "auc {}", study.metrics.auc);
        // ...but the paper's point stands: it is not a usable defense
        // (the full system reaches a few percent; this does not).
        assert!(study.metrics.eer > 0.02, "eer {}", study.metrics.eer);
        let rows = study.rows();
        assert!(rows.iter().any(|r| r.metric == "auc" && r.n_attack == 24));
    }
}
