//! Online barrier-effect-sensitive phoneme segmentation (paper Sec. V-B).
//!
//! A BRNN (bidirectional LSTM) over MFCC frames marks which 10 ms frames
//! of a recording contain barrier-effect-sensitive phonemes; those frames
//! are concatenated and fed to cross-domain sensing. The MFCC front-end
//! follows the paper: 25 ms frames with 10 ms hop, 40 mel filters over
//! 0–900 Hz (deliberately low — thru-barrier sounds have no high
//! frequencies left), 14 cepstral coefficients.
//!
//! Inference rides the packed BRNN engine in `thrubarrier_nn`: the
//! per-verification `sensitive_frames` call scores its recording as a
//! batch of one, and [`SegmentSelector::sensitive_frames_batch`] packs
//! many recordings into one minibatch so every timestep is a single GEMM
//! over all active recordings. Both give the same mask bits.

use rand::Rng;
use std::collections::HashSet;
use thrubarrier_dsp::mel::MfccExtractor;
use thrubarrier_nn::model::{BrnnClassifier, TrainConfig};
use thrubarrier_nn::param::AdamConfig;
use thrubarrier_nn::{BatchWorkspace, GemmScratch};
use thrubarrier_phoneme::corpus::{frame_labels, LabelledUtterance};
use thrubarrier_phoneme::inventory::PhonemeId;

/// Anything that can mark the sensitive frames of a recording.
///
/// The defense's reference implementation is the BRNN
/// [`PhonemeDetector`]; [`EnergySelector`] is a cheap voice-activity
/// approximation used by examples and ablations.
pub trait SegmentSelector: Send + Sync {
    /// One boolean per 10 ms analysis frame: `true` = the frame belongs
    /// to a barrier-effect-sensitive phoneme and should be used for
    /// attack detection.
    fn sensitive_frames(&self, audio: &[f32], sample_rate: u32) -> Vec<bool>;

    /// Marks the sensitive frames of many recordings at once, one mask
    /// per recording in caller order. The default just loops over
    /// [`SegmentSelector::sensitive_frames`]; selectors with a batched
    /// fast path (the BRNN [`PhonemeDetector`]) override it to score
    /// all recordings through minibatched GEMMs.
    fn sensitive_frames_batch(&self, recordings: &[&[f32]], sample_rate: u32) -> Vec<Vec<bool>> {
        recordings
            .iter()
            .map(|audio| self.sensitive_frames(audio, sample_rate))
            .collect()
    }
}

/// Concatenates the samples of the selected frames (non-overlapping hop
/// regions), producing the signal that is replayed for cross-domain
/// sensing.
pub fn extract_selected_samples(
    audio: &[f32],
    mask: &[bool],
    frame_len: usize,
    hop: usize,
) -> Vec<f32> {
    let mut out = Vec::new();
    for (fi, &keep) in mask.iter().enumerate() {
        if !keep {
            continue;
        }
        let start = fi * hop;
        if start >= audio.len() {
            // The mask may have been computed on a longer recording
            // (e.g. the other device's); trailing frames have no samples
            // here.
            break;
        }
        let end = (start + hop).min(audio.len());
        out.extend_from_slice(&audio[start..end]);
        // The final frame also contributes its tail beyond the hop.
        if fi + 1 == mask.len() {
            let tail_end = (start + frame_len).min(audio.len());
            if tail_end > end {
                out.extend_from_slice(&audio[end..tail_end]);
            }
        }
    }
    out
}

/// A voice-activity-grade selector: marks frames whose RMS exceeds a
/// fraction of the utterance's loudest frame. This drops silence and the
/// intrinsically weak phonemes (approximating Criterion II) but cannot
/// reject the over-loud vowels Criterion I removes — use the BRNN
/// [`PhonemeDetector`] for the paper's full behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergySelector {
    /// Frame length in samples.
    pub frame_len: usize,
    /// Hop in samples.
    pub hop: usize,
    /// Relative RMS threshold (fraction of the loudest frame's RMS).
    pub rel_threshold: f32,
}

impl Default for EnergySelector {
    fn default() -> Self {
        EnergySelector {
            frame_len: 400,
            hop: 160,
            rel_threshold: 0.15,
        }
    }
}

impl SegmentSelector for EnergySelector {
    fn sensitive_frames(&self, audio: &[f32], _sample_rate: u32) -> Vec<bool> {
        if audio.is_empty() {
            return Vec::new();
        }
        let n_frames = if audio.len() < self.frame_len {
            1
        } else {
            (audio.len() - self.frame_len) / self.hop + 1
        };
        let rms: Vec<f32> = (0..n_frames)
            .map(|fi| {
                let start = fi * self.hop;
                let end = (start + self.frame_len).min(audio.len());
                thrubarrier_dsp::stats::rms(&audio[start..end])
            })
            .collect();
        let max = rms.iter().cloned().fold(0.0f32, f32::max);
        rms.iter().map(|&r| r > self.rel_threshold * max).collect()
    }
}

/// The BRNN phoneme detector (binary: sensitive / not sensitive).
#[derive(Debug, Clone)]
pub struct PhonemeDetector {
    model: BrnnClassifier,
    mfcc: MfccExtractor,
    sensitive: HashSet<PhonemeId>,
}

/// Training hyper-parameters for [`PhonemeDetector::train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorTrainConfig {
    /// LSTM units per direction (paper: 64).
    pub hidden_size: usize,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Sequences per optimizer step.
    pub batch_size: usize,
    /// ADAM learning rate.
    pub learning_rate: f32,
}

impl Default for DetectorTrainConfig {
    fn default() -> Self {
        DetectorTrainConfig {
            hidden_size: 64,
            epochs: 4,
            batch_size: 8,
            learning_rate: 3e-3,
        }
    }
}

impl PhonemeDetector {
    /// Trains a detector on a labelled corpus. Frames overlapping a
    /// phoneme in `sensitive` are positives; everything else (including
    /// silence) is negative.
    pub fn train<R: Rng + ?Sized>(
        sensitive: &HashSet<PhonemeId>,
        corpus: &[LabelledUtterance],
        cfg: &DetectorTrainConfig,
        rng: &mut R,
    ) -> Self {
        let mfcc = MfccExtractor::paper_default();
        let mut model = BrnnClassifier::new(mfcc.n_coeffs(), cfg.hidden_size, 2, rng);
        let data: Vec<(Vec<Vec<f32>>, Vec<usize>)> = corpus
            .iter()
            .map(|u| Self::featurize(&mfcc, sensitive, u))
            .collect();
        let train_cfg = TrainConfig {
            adam: AdamConfig {
                lr: cfg.learning_rate,
                ..Default::default()
            },
        };
        // Minibatch membership is frozen once up front and only the
        // *order* of minibatches is shuffled per epoch. The membership
        // fixes which sequences' gradients sum together in each step,
        // so keeping it is what keeps the trained weights bitwise
        // stable; re-drawing it per epoch would train a different
        // model from the same seed.
        let order: Vec<usize> = (0..data.len()).collect();
        let chunks: Vec<&[usize]> = order.chunks(cfg.batch_size.max(1)).collect();
        let mut chunk_order: Vec<usize> = (0..chunks.len()).collect();
        for _ in 0..cfg.epochs {
            for i in (1..chunk_order.len()).rev() {
                let j = rng.gen_range(0..=i);
                chunk_order.swap(i, j);
            }
            for &ci in &chunk_order {
                let batch: Vec<(&[Vec<f32>], &[usize])> = chunks[ci]
                    .iter()
                    .map(|&i| (data[i].0.as_slice(), data[i].1.as_slice()))
                    .collect();
                model.train_step(&batch, &train_cfg);
            }
        }
        // The detector is deployed as a fixed model from here on:
        // inference never reads the training workspace.
        model.release_training_buffers();
        PhonemeDetector {
            model,
            mfcc,
            sensitive: sensitive.clone(),
        }
    }

    fn featurize(
        mfcc: &MfccExtractor,
        sensitive: &HashSet<PhonemeId>,
        utt: &LabelledUtterance,
    ) -> (Vec<Vec<f32>>, Vec<usize>) {
        let feats = mfcc.extract(utt.utterance.audio.samples());
        let labels = frame_labels(&utt.utterance, mfcc.frame_len(), mfcc.hop(), 0, |p| {
            usize::from(sensitive.contains(&p))
        });
        debug_assert_eq!(feats.len(), labels.len());
        (feats, labels)
    }

    /// The sensitive-phoneme set this detector was trained for.
    pub fn sensitive_set(&self) -> &HashSet<PhonemeId> {
        &self.sensitive
    }

    /// Frame-level accuracy on a labelled corpus.
    pub fn frame_accuracy(&self, corpus: &[LabelledUtterance]) -> f32 {
        let data: Vec<(Vec<Vec<f32>>, Vec<usize>)> = corpus
            .iter()
            .map(|u| Self::featurize(&self.mfcc, &self.sensitive, u))
            .collect();
        self.model.accuracy(&data)
    }

    /// The MFCC front-end (exposes frame geometry to callers).
    pub fn mfcc(&self) -> &MfccExtractor {
        &self.mfcc
    }

    /// Serializes the trained detector (sensitive-phoneme set + BRNN
    /// weights). Train once, ship the bytes.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn save<W: std::io::Write>(
        &self,
        mut w: W,
    ) -> Result<(), thrubarrier_nn::serialize::SerializeError> {
        let mut ids: Vec<u32> = self.sensitive.iter().map(|p| p.0 as u32).collect();
        ids.sort_unstable();
        w.write_all(&(ids.len() as u32).to_le_bytes())?;
        for id in ids {
            w.write_all(&id.to_le_bytes())?;
        }
        self.model.save(w)
    }

    /// Restores a detector saved by [`PhonemeDetector::save`]. The MFCC
    /// front-end is the paper configuration (the only one detectors are
    /// trained with).
    ///
    /// # Errors
    ///
    /// Returns format errors for malformed streams.
    pub fn load<R: std::io::Read>(
        mut r: R,
    ) -> Result<Self, thrubarrier_nn::serialize::SerializeError> {
        use thrubarrier_nn::serialize::SerializeError;
        let mut buf = [0u8; 4];
        r.read_exact(&mut buf)?;
        let n = u32::from_le_bytes(buf) as usize;
        if n > thrubarrier_phoneme::inventory::Inventory::len() {
            return Err(SerializeError::Format(format!(
                "{n} sensitive phonemes exceeds the inventory"
            )));
        }
        let mut sensitive = HashSet::with_capacity(n);
        for _ in 0..n {
            r.read_exact(&mut buf)?;
            let id = u32::from_le_bytes(buf) as usize;
            if id >= thrubarrier_phoneme::inventory::Inventory::len() {
                return Err(SerializeError::Format(format!(
                    "phoneme id {id} out of range"
                )));
            }
            sensitive.insert(PhonemeId(id));
        }
        let model = BrnnClassifier::load(r)?;
        Ok(PhonemeDetector {
            model,
            mfcc: MfccExtractor::paper_default(),
            sensitive,
        })
    }

    /// The trained BRNN itself.
    pub fn model(&self) -> &BrnnClassifier {
        &self.model
    }
}

impl SegmentSelector for PhonemeDetector {
    fn sensitive_frames(&self, audio: &[f32], _sample_rate: u32) -> Vec<bool> {
        let feats = self.mfcc.extract(audio);
        let _span = thrubarrier_obs::span!("defense.classify");
        self.model
            .predict(&feats)
            .into_iter()
            .map(|c| c == 1)
            .collect()
    }

    /// Batched override: all recordings are featurized, packed into one
    /// minibatch and classified through the batched BRNN engine
    /// ([`BrnnClassifier::predict_batch`]) — one GEMM per timestep over
    /// every active recording. The fused inference kernels are bitwise
    /// batch-size invariant, so each mask equals the one
    /// [`SegmentSelector::sensitive_frames`] gives.
    fn sensitive_frames_batch(&self, recordings: &[&[f32]], _sample_rate: u32) -> Vec<Vec<bool>> {
        let feats: Vec<Vec<Vec<f32>>> = recordings.iter().map(|a| self.mfcc.extract(a)).collect();
        let _span = thrubarrier_obs::span!("defense.classify");
        let seqs: Vec<&[Vec<f32>]> = feats.iter().map(|f| f.as_slice()).collect();
        self.model
            .predict_batch(&seqs, &mut BatchWorkspace::new(), &mut GemmScratch::new())
            .into_iter()
            .map(|preds| preds.into_iter().map(|c| c == 1).collect())
            .collect()
    }
}

/// An oracle selector that uses ground-truth segment alignments — used by
/// ablations to isolate detector errors from downstream behaviour.
#[derive(Debug, Clone)]
pub struct OracleSelector {
    /// Ground-truth sensitive mask per frame (precomputed by the caller).
    pub mask: Vec<bool>,
}

impl SegmentSelector for OracleSelector {
    fn sensitive_frames(&self, _audio: &[f32], _sample_rate: u32) -> Vec<bool> {
        self.mask.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrubarrier_phoneme::corpus::{speaker_panel, training_corpus};
    use thrubarrier_phoneme::inventory::Inventory;
    use thrubarrier_phoneme::synth::Synthesizer;

    #[test]
    fn extract_selected_samples_concatenates_hops() {
        let audio: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let mask = vec![true, false, true];
        // frame_len 4, hop 2: frame 0 -> [0,1], frame 2 -> [4,5] + tail [6,7].
        let out = extract_selected_samples(&audio, &mask, 4, 2);
        assert_eq!(out, vec![0.0, 1.0, 4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn extract_with_empty_mask_is_empty() {
        assert!(extract_selected_samples(&[1.0, 2.0], &[], 4, 2).is_empty());
    }

    #[test]
    fn energy_selector_drops_silence() {
        let mut audio = vec![0.0f32; 4_000];
        for v in audio[1_600..2_400].iter_mut() {
            *v = 0.5;
        }
        let sel = EnergySelector::default();
        let mask = sel.sensitive_frames(&audio, 16_000);
        assert!(!mask[0], "silent frame selected");
        let active_frame = 1_800 / 160;
        assert!(mask[active_frame], "active frame dropped");
    }

    #[test]
    fn energy_selector_empty_audio() {
        let sel = EnergySelector::default();
        assert!(sel.sensitive_frames(&[], 16_000).is_empty());
    }

    #[test]
    fn detector_learns_to_separate_sensitive_phonemes() {
        let mut rng = StdRng::seed_from_u64(11);
        let panel = speaker_panel(2, 2, &mut rng);
        let synth = Synthesizer::new(16_000);
        let corpus = training_corpus(&synth, 24, &panel, &mut rng);
        // Sensitive = everything except the weak fricatives and loud
        // back vowels (the paper's outcome).
        let rejected = ["s", "z", "sh", "th", "aa", "ao"];
        let sensitive: HashSet<PhonemeId> = thrubarrier_phoneme::common::common_phonemes()
            .iter()
            .filter(|c| !rejected.contains(&c.symbol))
            .map(|c| c.id)
            .collect();
        let cfg = DetectorTrainConfig {
            hidden_size: 16,
            epochs: 3,
            batch_size: 6,
            learning_rate: 5e-3,
        };
        let detector = PhonemeDetector::train(&sensitive, &corpus, &cfg, &mut rng);
        let test = training_corpus(&synth, 8, &panel, &mut rng);
        let acc = detector.frame_accuracy(&test);
        assert!(acc > 0.8, "detector accuracy {acc}");
    }

    #[test]
    fn detector_mask_length_matches_mfcc_frames() {
        let mut rng = StdRng::seed_from_u64(12);
        let panel = speaker_panel(1, 1, &mut rng);
        let synth = Synthesizer::new(16_000);
        let corpus = training_corpus(&synth, 4, &panel, &mut rng);
        let sensitive: HashSet<PhonemeId> =
            [Inventory::by_symbol("ih").unwrap()].into_iter().collect();
        let cfg = DetectorTrainConfig {
            hidden_size: 8,
            epochs: 1,
            batch_size: 4,
            learning_rate: 3e-3,
        };
        let det = PhonemeDetector::train(&sensitive, &corpus, &cfg, &mut rng);
        let audio = corpus[0].utterance.audio.samples();
        let mask = det.sensitive_frames(audio, 16_000);
        assert_eq!(mask.len(), det.mfcc().frame_count(audio.len()));
    }

    #[test]
    fn detector_roundtrips_through_serialization() {
        let mut rng = StdRng::seed_from_u64(21);
        let panel = speaker_panel(1, 1, &mut rng);
        let synth = Synthesizer::new(16_000);
        let corpus = training_corpus(&synth, 6, &panel, &mut rng);
        let sensitive: HashSet<PhonemeId> = [
            Inventory::by_symbol("ih").unwrap(),
            Inventory::by_symbol("t").unwrap(),
        ]
        .into_iter()
        .collect();
        let cfg = DetectorTrainConfig {
            hidden_size: 8,
            epochs: 1,
            batch_size: 4,
            learning_rate: 3e-3,
        };
        let det = PhonemeDetector::train(&sensitive, &corpus, &cfg, &mut rng);
        let mut bytes = Vec::new();
        det.save(&mut bytes).unwrap();
        let back = PhonemeDetector::load(bytes.as_slice()).unwrap();
        assert_eq!(back.sensitive_set(), det.sensitive_set());
        let audio = corpus[0].utterance.audio.samples();
        assert_eq!(
            back.sensitive_frames(audio, 16_000),
            det.sensitive_frames(audio, 16_000)
        );
    }

    #[test]
    fn batch_masks_match_per_call_masks() {
        let mut rng = StdRng::seed_from_u64(31);
        let panel = speaker_panel(1, 1, &mut rng);
        let synth = Synthesizer::new(16_000);
        let corpus = training_corpus(&synth, 4, &panel, &mut rng);
        let sensitive: HashSet<PhonemeId> =
            [Inventory::by_symbol("ih").unwrap()].into_iter().collect();
        let cfg = DetectorTrainConfig {
            hidden_size: 8,
            epochs: 1,
            batch_size: 4,
            learning_rate: 3e-3,
        };
        let det = PhonemeDetector::train(&sensitive, &corpus, &cfg, &mut rng);
        let recordings: Vec<&[f32]> = corpus.iter().map(|u| u.utterance.audio.samples()).collect();
        let batch = det.sensitive_frames_batch(&recordings, 16_000);
        for (audio, mask) in recordings.iter().zip(&batch) {
            assert_eq!(mask, &det.sensitive_frames(audio, 16_000));
        }
        // The default (loop-based) trait implementation agrees with the
        // batched override.
        let energy = EnergySelector::default();
        let default_batch = energy.sensitive_frames_batch(&recordings, 16_000);
        for (audio, mask) in recordings.iter().zip(&default_batch) {
            assert_eq!(mask, &energy.sensitive_frames(audio, 16_000));
        }
    }

    #[test]
    fn detector_load_rejects_garbage() {
        assert!(PhonemeDetector::load(&b"junk"[..]).is_err());
    }

    #[test]
    fn oracle_selector_returns_fixed_mask() {
        let o = OracleSelector {
            mask: vec![true, false],
        };
        assert_eq!(o.sensitive_frames(&[0.0; 100], 16_000), vec![true, false]);
    }
}
