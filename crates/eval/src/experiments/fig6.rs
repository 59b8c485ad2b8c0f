//! Fig. 6: the phoneme-selection criteria illustrated on /er/.
//!
//! The paper plots the third-quartile vibration FFT magnitude of /er/
//! with and without the barrier against the threshold α: the
//! post-barrier curve must stay entirely *below* α (Criterion I) and the
//! no-barrier curve entirely *above* it (Criterion II).

use crate::report::Row;
use rand::rngs::StdRng;
use rand::SeedableRng;
use thrubarrier_defense::selection::{run_selection, PhonemeStats, SelectionConfig};
use thrubarrier_phoneme::corpus::speaker_panel;
use thrubarrier_vibration::Wearable;

/// Configuration for the Fig. 6 demonstration.
#[derive(Debug, Clone)]
pub struct CriteriaDemoConfig {
    /// Master seed.
    pub seed: u64,
    /// The phoneme to demonstrate (paper: /er/).
    pub symbol: &'static str,
    /// Segments per phoneme.
    pub samples_per_phoneme: usize,
}

impl Default for CriteriaDemoConfig {
    fn default() -> Self {
        CriteriaDemoConfig {
            seed: 0xF6,
            symbol: "er",
            samples_per_phoneme: 24,
        }
    }
}

/// Result of the Fig. 6 demonstration.
#[derive(Debug, Clone)]
pub struct CriteriaDemo {
    /// Statistics for the demonstrated phoneme.
    pub stats: PhonemeStats,
    /// Frequency axis in Hz.
    pub frequencies: Vec<f32>,
    /// The threshold α.
    pub alpha: f32,
    /// Master seed of the run.
    pub seed: u64,
}

/// Runs the Fig. 6 demonstration.
pub fn run(cfg: &CriteriaDemoConfig) -> CriteriaDemo {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let panel = speaker_panel(5, 5, &mut rng);
    let sel_cfg = SelectionConfig {
        samples_per_phoneme: cfg.samples_per_phoneme,
        ..Default::default()
    };
    let selection = run_selection(&sel_cfg, &Wearable::fossil_gen_5(), &panel, &mut rng);
    let stats = selection
        .stats_for(cfg.symbol)
        .unwrap_or_else(|| panic!("phoneme {} not in common set", cfg.symbol))
        .clone();
    CriteriaDemo {
        stats,
        frequencies: selection.bin_frequencies,
        alpha: selection.alpha,
        seed: cfg.seed,
    }
}

impl CriteriaDemo {
    /// One row pair of Q3 magnitude per other bin from 6 Hz up (after
    /// barrier = the adversary side, before barrier = the user side),
    /// then α and the two criteria (1 = passed).
    pub fn rows(&self) -> Vec<Row> {
        let symbol = self.stats.symbol;
        let mut rows = Vec::new();
        for (b, f) in self.frequencies.iter().enumerate() {
            if *f < 6.0 || b % 2 == 1 {
                continue; // skip the artifact band and thin the table
            }
            let condition = format!("/{symbol}/ {f} Hz");
            let row = |method| Row::new("fig6", self.seed, condition.clone(), method);
            rows.push(row("after barrier").metric("q3", self.stats.q3_adv[b]));
            rows.push(row("before barrier").metric("q3", self.stats.q3_user[b]));
        }
        let criteria = Row::new("fig6", self.seed, format!("/{symbol}/ criteria"), "");
        rows.push(criteria.metric("alpha", self.alpha));
        rows.push(criteria.metric("criterion_1", u8::from(self.stats.passes_criterion_1)));
        rows.push(criteria.metric("criterion_2", u8::from(self.stats.passes_criterion_2)));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn er_satisfies_both_criteria() {
        let demo = run(&CriteriaDemoConfig {
            samples_per_phoneme: 10,
            ..Default::default()
        });
        assert!(demo.stats.passes_criterion_1, "criterion I");
        assert!(demo.stats.passes_criterion_2, "criterion II");
        assert!((demo.alpha - 0.015).abs() < 1e-6);
        let rows = demo.rows();
        assert!(rows.iter().all(|r| r.condition.starts_with("/er/")));
        assert!(rows
            .iter()
            .any(|r| r.metric == "criterion_1" && r.value == 1.0));
    }
}
