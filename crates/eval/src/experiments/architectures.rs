//! Detector-architecture comparison: bidirectional LSTM vs. GRU.
//!
//! The paper chooses LSTM units for its BRNN, citing a comparative
//! speech study (its reference \[21\]) that finds LSTM and GRU close.
//! This experiment trains both architectures on the same synthesized
//! corpus and labels and reports frame accuracy — reproducing that
//! design-choice check within the workspace.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use thrubarrier_dsp::mel::MfccExtractor;
use thrubarrier_nn::dense::Dense;
use thrubarrier_nn::gru::BiGru;
use thrubarrier_nn::loss;
use thrubarrier_nn::lstm::BiLstm;
use thrubarrier_nn::param::AdamConfig;
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
}

enum Recurrent {
    Lstm(BiLstm),
    Gru(BiGru),
}

impl Recurrent {
    fn forward_states(&self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        match self {
            Recurrent::Lstm(m) => m.forward(xs).0,
            Recurrent::Gru(m) => m.forward(xs).0,
        }
    }

    fn parameter_count(&self) -> usize {
        let count = |rows: usize, cols: usize| rows * cols;
        match self {
            Recurrent::Lstm(m) => {
                2 * (count(m.fwd.w.value.rows(), m.fwd.w.value.cols())
                    + count(m.fwd.u.value.rows(), m.fwd.u.value.cols())
                    + m.fwd.b.value.rows())
            }
            Recurrent::Gru(m) => {
                2 * (count(m.fwd.w.value.rows(), m.fwd.w.value.cols())
                    + count(m.fwd.u.value.rows(), m.fwd.u.value.cols())
                    + m.fwd.b.value.rows())
            }
        }
    }

    /// One training step over a batch; returns the mean loss.
    fn train_step(
        &mut self,
        head: &mut Dense,
        batch: &[(&[Vec<f32>], &[usize])],
        cfg: &AdamConfig,
        step: u64,
    ) -> f32 {
        match self {
            Recurrent::Lstm(m) => {
                for p in m.params_mut() {
                    p.zero_grad();
                }
            }
            Recurrent::Gru(m) => {
                for p in m.params_mut() {
                    p.zero_grad();
                }
            }
        }
        for p in head.params_mut() {
            p.zero_grad();
        }
        let mut total = 0.0f32;
        let scale = 1.0 / batch.len().max(1) as f32;
        for (xs, ys) in batch {
            if xs.is_empty() {
                continue;
            }
            match self {
                Recurrent::Lstm(m) => {
                    let (hs, cache) = m.forward(xs);
                    let (logits, head_cache) = head.forward(&hs);
                    let (l, mut dl) = loss::sequence_cross_entropy(&logits, ys);
                    total += l;
                    for f in &mut dl {
                        for d in f {
                            *d *= scale;
                        }
                    }
                    let dhs = head.backward(&head_cache, &dl);
                    m.backward(&cache, &dhs);
                }
                Recurrent::Gru(m) => {
                    let (hs, cache) = m.forward(xs);
                    let (logits, head_cache) = head.forward(&hs);
                    let (l, mut dl) = loss::sequence_cross_entropy(&logits, ys);
                    total += l;
                    for f in &mut dl {
                        for d in f {
                            *d *= scale;
                        }
                    }
                    let dhs = head.backward(&head_cache, &dl);
                    m.backward(&cache, &dhs);
                }
            }
        }
        match self {
            Recurrent::Lstm(m) => {
                for p in m.params_mut() {
                    p.adam_step(cfg, step);
                }
            }
            Recurrent::Gru(m) => {
                for p in m.params_mut() {
                    p.adam_step(cfg, step);
                }
            }
        }
        for p in head.params_mut() {
            p.adam_step(cfg, step);
        }
        total * scale
    }
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

    let adam = AdamConfig {
        lr: 3e-3,
        ..Default::default()
    };
    let rows = [("BiLSTM", true), ("BiGRU", false)]
        .into_iter()
        .map(|(name, is_lstm)| {
            let mut arch_rng = StdRng::seed_from_u64(cfg.seed ^ 0xA);
            let mut recurrent = if is_lstm {
                Recurrent::Lstm(BiLstm::new(mfcc.n_coeffs(), cfg.hidden, &mut arch_rng))
            } else {
                Recurrent::Gru(BiGru::new(mfcc.n_coeffs(), cfg.hidden, &mut arch_rng))
            };
            let mut head = Dense::new(cfg.hidden, 2, &mut arch_rng);
            let mut order: Vec<usize> = (0..train.len()).collect();
            let mut step = 0u64;
            for _ in 0..cfg.epochs {
                for i in (1..order.len()).rev() {
                    let j = arch_rng.gen_range(0..=i);
                    order.swap(i, j);
                }
                for chunk in order.chunks(8) {
                    let batch: Vec<(&[Vec<f32>], &[usize])> = chunk
                        .iter()
                        .map(|&i| (train[i].0.as_slice(), train[i].1.as_slice()))
                        .collect();
                    step += 1;
                    recurrent.train_step(&mut head, &batch, &adam, step);
                }
            }
            // Held-out frame accuracy.
            let mut correct = 0usize;
            let mut total = 0usize;
            for (xs, ys) in &test {
                let hs = recurrent.forward_states(xs);
                let (logits, _) = head.forward(&hs);
                for (l, &y) in logits.iter().zip(ys) {
                    let pred = usize::from(l[1] > l[0]);
                    correct += usize::from(pred == y);
                    total += 1;
                }
            }
            ArchitectureRow {
                name,
                accuracy: correct as f32 / total.max(1) as f32,
                parameters: recurrent.parameter_count(),
            }
        })
        .collect();
    ArchitectureStudy { rows }
}

impl ArchitectureStudy {
    /// Renders the comparison.
    pub fn render_text(&self) -> String {
        let mut out = String::from("Detector architecture comparison (held-out frame accuracy)\n");
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<8} accuracy {:.1}%   ({} recurrent parameters)\n",
                r.name,
                r.accuracy * 100.0,
                r.parameters
            ));
        }
        out
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
        assert!(study.render_text().contains("BiGRU"));
    }
}
