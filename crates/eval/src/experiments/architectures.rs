//! Detector-architecture comparison: bidirectional LSTM vs. GRU.
//!
//! The paper chooses LSTM units for its BRNN, citing a comparative
//! speech study (its reference \[21\]) that finds LSTM and GRU close.
//! This experiment trains both architectures on the same synthesized
//! corpus and labels through the same classifier training loop
//! ([`BrnnClassifier::train_step`]) and reports frame accuracy —
//! reproducing that design-choice check within the workspace.

use crate::report::Row;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use thrubarrier_dsp::mel::MfccExtractor;
use thrubarrier_nn::gru::BiGru;
use thrubarrier_nn::lstm::BiLstm;
use thrubarrier_nn::model::{BrnnClassifier, RecurrentCell, TrainConfig};
use thrubarrier_nn::param::{AdamConfig, Param};
use thrubarrier_phoneme::common::common_phonemes;
use thrubarrier_phoneme::corpus::{frame_labels, speaker_panel, training_corpus};
use thrubarrier_phoneme::inventory::PhonemeId;
use thrubarrier_phoneme::synth::Synthesizer;

/// Configuration for the architecture comparison.
#[derive(Debug, Clone)]
pub struct ArchitectureStudyConfig {
    /// Master seed.
    pub seed: u64,
    /// Training utterances.
    pub corpus_size: usize,
    /// Held-out test utterances.
    pub test_size: usize,
    /// Hidden units per direction.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
}

impl Default for ArchitectureStudyConfig {
    fn default() -> Self {
        ArchitectureStudyConfig {
            seed: 0xA2C4,
            corpus_size: 60,
            test_size: 20,
            hidden: 32,
            epochs: 3,
        }
    }
}

/// Accuracy of one architecture.
#[derive(Debug, Clone)]
pub struct ArchitectureRow {
    /// Architecture name.
    pub name: &'static str,
    /// Held-out frame accuracy.
    pub accuracy: f32,
    /// Trainable parameter count.
    pub parameters: usize,
}

/// Result of the architecture comparison.
#[derive(Debug, Clone)]
pub struct ArchitectureStudy {
    /// One row per architecture.
    pub rows: Vec<ArchitectureRow>,
    /// Master seed of the run.
    pub seed: u64,
}

type Labelled = Vec<(Vec<Vec<f32>>, Vec<usize>)>;

/// Shared inputs of both rows.
struct Study<'a> {
    train: &'a Labelled,
    test: &'a Labelled,
    epochs: usize,
    train_cfg: TrainConfig,
}

/// One row: a classifier over `rnn` with a fresh two-class head,
/// trained for `epochs` shuffled passes in minibatches of 8 through
/// [`BrnnClassifier::train_step`] and scored on the held-out set.
/// `rng` draws the head weights and the shuffles.
fn study_row<C: RecurrentCell>(
    name: &'static str,
    rnn: C,
    parameters: usize,
    study: &Study,
    rng: &mut StdRng,
) -> ArchitectureRow {
    let mut model = BrnnClassifier::with_cell(rnn, 2, rng);
    let mut order: Vec<usize> = (0..study.train.len()).collect();
    for _ in 0..study.epochs {
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for chunk in order.chunks(8) {
            let batch: Vec<(&[Vec<f32>], &[usize])> = chunk
                .iter()
                .map(|&i| (study.train[i].0.as_slice(), study.train[i].1.as_slice()))
                .collect();
            model.train_step(&batch, &study.train_cfg);
        }
    }
    ArchitectureRow {
        name,
        accuracy: model.accuracy(study.test),
        parameters,
    }
}

/// Total trainable values of a recurrent layer.
fn parameter_count(params: Vec<&mut Param>) -> usize {
    params.iter().map(|p| p.value.data().len()).sum()
}

/// Runs the LSTM-vs-GRU comparison.
pub fn run(cfg: &ArchitectureStudyConfig) -> ArchitectureStudy {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let panel = speaker_panel(3, 3, &mut rng);
    let synth = Synthesizer::new(16_000);
    let mfcc = MfccExtractor::paper_default();
    // Labels: the paper's rejected set (weak fricatives + loud vowels).
    let rejected = ["s", "z", "sh", "th", "aa", "ao"];
    let sensitive: HashSet<PhonemeId> = common_phonemes()
        .iter()
        .filter(|c| !rejected.contains(&c.symbol))
        .map(|c| c.id)
        .collect();
    let featurize = |utts: &[thrubarrier_phoneme::corpus::LabelledUtterance]| {
        utts.iter()
            .map(|u| {
                let feats = mfcc.extract(u.utterance.audio.samples());
                let labels = frame_labels(&u.utterance, mfcc.frame_len(), mfcc.hop(), 0, |p| {
                    usize::from(sensitive.contains(&p))
                });
                (feats, labels)
            })
            .collect::<Vec<_>>()
    };
    let train = featurize(&training_corpus(&synth, cfg.corpus_size, &panel, &mut rng));
    let test = featurize(&training_corpus(&synth, cfg.test_size, &panel, &mut rng));

    let study = Study {
        train: &train,
        test: &test,
        epochs: cfg.epochs,
        train_cfg: TrainConfig {
            adam: AdamConfig {
                lr: 3e-3,
                ..Default::default()
            },
        },
    };
    // Both rows draw their weights and shuffles from the same seed.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA);
    let mut lstm = BiLstm::new(mfcc.n_coeffs(), cfg.hidden, &mut rng);
    let parameters = parameter_count(lstm.params_mut());
    let lstm_row = study_row("BiLSTM", lstm, parameters, &study, &mut rng);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA);
    let mut gru = BiGru::new(mfcc.n_coeffs(), cfg.hidden, &mut rng);
    let parameters = parameter_count(gru.params_mut());
    let gru_row = study_row("BiGRU", gru, parameters, &study, &mut rng);
    ArchitectureStudy {
        rows: vec![lstm_row, gru_row],
        seed: cfg.seed,
    }
}

impl ArchitectureStudy {
    /// Held-out frame `accuracy` and recurrent `parameters` per
    /// architecture.
    pub fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for r in &self.rows {
            let base = Row::new("architectures", self.seed, r.name, "");
            rows.push(base.metric("accuracy", r.accuracy));
            rows.push(base.metric("parameters", r.parameters as f64));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_architectures_learn_the_task() {
        let study = run(&ArchitectureStudyConfig {
            seed: 3,
            corpus_size: 20,
            test_size: 8,
            hidden: 12,
            epochs: 3,
        });
        assert_eq!(study.rows.len(), 2);
        for r in &study.rows {
            assert!(r.accuracy > 0.7, "{} accuracy {}", r.name, r.accuracy);
        }
        // GRU has 3 gates to LSTM's 4.
        let lstm = &study.rows[0];
        let gru = &study.rows[1];
        assert!(gru.parameters < lstm.parameters);
        let rows = study.rows();
        assert!(rows
            .iter()
            .any(|r| r.condition == "BiGRU" && r.metric == "accuracy"));
    }
}
