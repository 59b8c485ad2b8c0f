//! Table II: the 37 common phonemes with appearance counts, and which of
//! them the offline screening marks barrier-effect sensitive (31 in the
//! paper; /s/, /z/ and the over-loud /aa/, /ao/ named as rejected).

use crate::report::Row;
use rand::rngs::StdRng;
use rand::SeedableRng;
use thrubarrier_defense::selection::{run_selection, PhonemeSelection, SelectionConfig};
use thrubarrier_phoneme::common::common_phonemes;
use thrubarrier_phoneme::corpus::speaker_panel;
use thrubarrier_vibration::Wearable;

/// Configuration for the Table II reproduction.
#[derive(Debug, Clone)]
pub struct SelectionStudyConfig {
    /// Master seed.
    pub seed: u64,
    /// Segments per phoneme (paper: 100).
    pub samples_per_phoneme: usize,
}

impl Default for SelectionStudyConfig {
    fn default() -> Self {
        SelectionStudyConfig {
            seed: 10,
            samples_per_phoneme: 24,
        }
    }
}

/// Result of the Table II reproduction.
#[derive(Debug, Clone)]
pub struct SelectionStudy {
    /// The full selection result (Q3 curves, criteria).
    pub selection: PhonemeSelection,
    /// Master seed of the run.
    pub seed: u64,
}

/// Runs the selection with the paper's setup (5 male + 5 female
/// speakers, glass window + wooden door, 75/85 dB).
pub fn run(cfg: &SelectionStudyConfig) -> SelectionStudy {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let panel = speaker_panel(5, 5, &mut rng);
    let sel_cfg = SelectionConfig {
        samples_per_phoneme: cfg.samples_per_phoneme,
        ..Default::default()
    };
    let selection = run_selection(&sel_cfg, &Wearable::fossil_gen_5(), &panel, &mut rng);
    SelectionStudy {
        selection,
        seed: cfg.seed,
    }
}

impl SelectionStudy {
    /// One row per common phoneme: `selected` (1 for the bold,
    /// barrier-sensitive ones) and its appearance `count`; then a
    /// `total` row with the number `selected` out of `phonemes`.
    pub fn rows(&self) -> Vec<Row> {
        let commons = common_phonemes();
        let selected = self.selection.selected_symbols();
        let mut rows = Vec::new();
        for c in &commons {
            let base = Row::new("table2", self.seed, format!("/{}/", c.symbol), "");
            rows.push(base.metric("selected", u8::from(selected.contains(&c.symbol))));
            rows.push(base.metric("count", c.count));
        }
        let total = Row::new("table2", self.seed, "total", "");
        rows.push(total.metric("selected", selected.len() as f64));
        rows.push(total.metric("phonemes", commons.len() as f64));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_31_of_37_with_papers_rejections() {
        let study = run(&SelectionStudyConfig::default());
        let selected = study.selection.selected_ids();
        assert_eq!(
            selected.len(),
            31,
            "selected {:?}",
            study.selection.selected_symbols()
        );
        let rejected = study.selection.rejected_symbols();
        // The paper names /s/, /z/ (too weak) and /aa/, /ao/ (too loud).
        for must in ["s", "z", "aa", "ao"] {
            assert!(
                rejected.contains(&must),
                "{must} not rejected: {rejected:?}"
            );
        }
        let rows = study.rows();
        let total = |metric: &str| {
            rows.iter()
                .find(|r| r.condition == "total" && r.metric == metric)
                .map(|r| r.value)
        };
        assert_eq!(total("selected"), Some(31.0));
        assert_eq!(total("phonemes"), Some(37.0));
    }
}
