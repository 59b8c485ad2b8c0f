//! The assembled defense system and the paper's two baselines.

use crate::detector::CorrelationDetector;
use crate::features::VibrationFeatureExtractor;
use crate::segmentation::{extract_selected_samples, EnergySelector, SegmentSelector};
use crate::sync;
use rand::Rng;
use std::sync::Arc;
use thrubarrier_dsp::AudioBuffer;
use thrubarrier_vibration::Wearable;

/// The three detection methods the paper evaluates (Figs. 9–11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefenseMethod {
    /// 2-D correlation of the two recordings in the **audio** domain —
    /// the weakest baseline.
    AudioBaseline,
    /// Cross-domain sensing on the **whole** recordings (no phoneme
    /// selection).
    VibrationBaseline,
    /// The full system: sensitive-phoneme segments only.
    Full,
}

impl DefenseMethod {
    /// All three methods in the paper's presentation order.
    pub fn all() -> [DefenseMethod; 3] {
        [
            DefenseMethod::AudioBaseline,
            DefenseMethod::VibrationBaseline,
            DefenseMethod::Full,
        ]
    }

    /// Label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            DefenseMethod::AudioBaseline => "Audio-domain baseline",
            DefenseMethod::VibrationBaseline => "Vibration-domain baseline",
            DefenseMethod::Full => "Our defense system",
        }
    }
}

/// The end-to-end thru-barrier attack defense.
///
/// Holds the wearable (whose speaker + accelerometer perform cross-domain
/// sensing), the segment selector (BRNN phoneme detector in the paper;
/// an energy heuristic by default so construction is cheap), the
/// vibration feature extractor and the correlation detector.
#[derive(Clone)]
pub struct DefenseSystem {
    /// The user's wearable device.
    pub wearable: Wearable,
    /// Vibration feature extraction configuration.
    pub features: VibrationFeatureExtractor,
    /// The thresholded correlation detector.
    pub detector: CorrelationDetector,
    selector: Arc<dyn SegmentSelector>,
    /// Maximum network delay the synchronizer searches over, seconds.
    pub max_sync_delay_s: f32,
    /// Minimum duration (seconds) of selected audio required for a
    /// meaningful vibration comparison; shorter selections score 0.
    pub min_selected_s: f32,
    /// Ablation switch: run cross-correlation synchronization (Eq. 5)
    /// before comparing. Default true.
    pub synchronize: bool,
    /// Ablation switch: replay recordings at the fixed standard volume
    /// before conversion. Default true.
    pub normalize_replay: bool,
}

impl std::fmt::Debug for DefenseSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DefenseSystem")
            .field("wearable", &self.wearable.name)
            .field("detector", &self.detector)
            .field("max_sync_delay_s", &self.max_sync_delay_s)
            .finish_non_exhaustive()
    }
}

impl DefenseSystem {
    /// The paper's configuration with a cheap energy-based segment
    /// selector (adequate for examples and quick starts; swap in a
    /// trained BRNN via [`DefenseSystem::with_selector`] for the paper's
    /// full pipeline).
    pub fn paper_default() -> Self {
        DefenseSystem {
            wearable: Wearable::fossil_gen_5(),
            features: VibrationFeatureExtractor::paper_default(),
            detector: CorrelationDetector::default(),
            selector: Arc::new(EnergySelector::default()),
            max_sync_delay_s: 0.25,
            min_selected_s: 0.15,
            synchronize: true,
            normalize_replay: true,
        }
    }

    /// Builds a system around a specific wearable and segment selector
    /// (e.g. a trained [`crate::segmentation::PhonemeDetector`]).
    pub fn with_selector(wearable: Wearable, selector: Arc<dyn SegmentSelector>) -> Self {
        DefenseSystem {
            wearable,
            selector,
            ..DefenseSystem::paper_default()
        }
    }

    /// Replaces the detector threshold.
    pub fn with_threshold(mut self, threshold: f32) -> Self {
        self.detector = CorrelationDetector::new(threshold);
        self
    }

    /// The segment selector (shared; e.g. for batched mask computation
    /// via [`SegmentSelector::sensitive_frames_batch`]).
    pub fn selector(&self) -> &Arc<dyn SegmentSelector> {
        &self.selector
    }

    /// Scores a recording pair with the **full** pipeline. Higher = more
    /// likely legitimate; `[0, 1]`.
    pub fn score<R: Rng + ?Sized>(
        &self,
        va_recording: &AudioBuffer,
        wearable_recording: &AudioBuffer,
        rng: &mut R,
    ) -> f32 {
        self.score_with_method(DefenseMethod::Full, va_recording, wearable_recording, rng)
    }

    /// Scores a recording pair with any of the three methods.
    pub fn score_with_method<R: Rng + ?Sized>(
        &self,
        method: DefenseMethod,
        va_recording: &AudioBuffer,
        wearable_recording: &AudioBuffer,
        rng: &mut R,
    ) -> f32 {
        if va_recording.is_empty() || wearable_recording.is_empty() {
            return 0.0;
        }
        let _span = thrubarrier_obs::span!("defense.score");
        let aligned_wearable = match self.align(va_recording, wearable_recording) {
            Some(aligned) => aligned,
            None => return 0.0,
        };
        match method {
            DefenseMethod::AudioBaseline => {
                let a = VibrationFeatureExtractor::extract_audio_baseline(va_recording);
                let b = VibrationFeatureExtractor::extract_audio_baseline(&aligned_wearable);
                self.detector.score(&a, &b)
            }
            DefenseMethod::VibrationBaseline => self.vibration_score(
                va_recording.samples(),
                aligned_wearable.samples(),
                va_recording.sample_rate(),
                rng,
            ),
            DefenseMethod::Full => {
                let fs = va_recording.sample_rate();
                let mask = {
                    let _span = thrubarrier_obs::span!("defense.segmentation");
                    self.selector.sensitive_frames(va_recording.samples(), fs)
                };
                self.masked_vibration_score(va_recording, &aligned_wearable, &mask, rng)
            }
        }
    }

    /// Scores a recording pair with the **full** pipeline using a
    /// precomputed sensitive-frame mask — e.g. one of many computed in a
    /// single minibatch via [`SegmentSelector::sensitive_frames_batch`].
    /// Identical to [`DefenseSystem::score`] when `mask` equals what the
    /// system's own selector would produce.
    pub fn score_full_with_mask<R: Rng + ?Sized>(
        &self,
        va_recording: &AudioBuffer,
        wearable_recording: &AudioBuffer,
        mask: &[bool],
        rng: &mut R,
    ) -> f32 {
        if va_recording.is_empty() || wearable_recording.is_empty() {
            return 0.0;
        }
        let _span = thrubarrier_obs::span!("defense.score");
        let aligned_wearable = match self.align(va_recording, wearable_recording) {
            Some(aligned) => aligned,
            None => return 0.0,
        };
        self.masked_vibration_score(va_recording, &aligned_wearable, mask, rng)
    }

    /// Cross-correlation alignment of the wearable recording, honoring
    /// the `synchronize` ablation switch. `None` = alignment failed.
    fn align(
        &self,
        va_recording: &AudioBuffer,
        wearable_recording: &AudioBuffer,
    ) -> Option<AudioBuffer> {
        if self.synchronize {
            let _span = thrubarrier_obs::span!("defense.sync");
            sync::synchronize(va_recording, wearable_recording, self.max_sync_delay_s)
                .ok()
                .map(|(aligned, _delay)| aligned)
        } else {
            Some(wearable_recording.clone())
        }
    }

    /// The Full-method tail: applies the sensitive-frame mask to both
    /// recordings and scores the selections in the vibration domain.
    fn masked_vibration_score<R: Rng + ?Sized>(
        &self,
        va_recording: &AudioBuffer,
        aligned_wearable: &AudioBuffer,
        mask: &[bool],
        rng: &mut R,
    ) -> f32 {
        let fs = va_recording.sample_rate();
        // Frame geometry of the paper's MFCC front-end.
        let (frame_len, hop) = (400, 160);
        let va_sel = extract_selected_samples(va_recording.samples(), mask, frame_len, hop);
        let w_sel = extract_selected_samples(aligned_wearable.samples(), mask, frame_len, hop);
        if (va_sel.len() as f32) < self.min_selected_s * fs as f32 {
            // Too little sensitive-phoneme evidence: treat as an
            // attack (legitimate commands always contain it).
            return 0.0;
        }
        self.vibration_score(&va_sel, &w_sel, fs, rng)
    }

    /// RMS level every recording is replayed at: the wearable's speaker
    /// plays at a fixed standard volume, so recordings are
    /// level-normalized before conversion (this is also what makes the
    /// comparison robust to the user's distance from the VA device).
    pub const REPLAY_RMS: f32 = 0.1;

    /// Converts both signals to the vibration domain on the wearable and
    /// correlates their features. Each signal is replayed at the fixed
    /// standard volume ([`DefenseSystem::REPLAY_RMS`]).
    fn vibration_score<R: Rng + ?Sized>(
        &self,
        va_audio: &[f32],
        wearable_audio: &[f32],
        sample_rate: u32,
        rng: &mut R,
    ) -> f32 {
        let normalize = |sig: &[f32]| -> Vec<f32> {
            let rms = thrubarrier_dsp::stats::rms(sig);
            if rms <= 0.0 || !self.normalize_replay {
                return sig.to_vec();
            }
            let g = Self::REPLAY_RMS / rms;
            sig.iter().map(|&x| x * g).collect()
        };
        let _span = thrubarrier_obs::span!("defense.vibration_score");
        let va_replay = normalize(va_audio);
        let w_replay = normalize(wearable_audio);
        // Pair conversion through one engine borrow: both recordings
        // share warm FFT plans, curve tables and scratch.
        let (vib_va, vib_w) = thrubarrier_vibration::with_engine(|e| {
            e.convert_pair(&self.wearable, &va_replay, &w_replay, sample_rate, rng)
        });
        let fa = self.features.extract(&vib_va);
        let fb = self.features.extract(&vib_w);
        self.detector.score(&fa, &fb)
    }

    /// Whether a score indicates an attack at the configured threshold.
    pub fn is_attack(&self, score: f32) -> bool {
        self.detector.is_attack(score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrubarrier_dsp::gen;

    /// Builds a synthetic recording pair: the same source heard at two
    /// devices with independent mic noise.
    fn recording_pair(source: &[f32], noise: f32, seed: u64) -> (AudioBuffer, AudioBuffer) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = source.to_vec();
        let mut b = source.to_vec();
        for v in &mut a {
            *v += noise * thrubarrier_dsp::gen::standard_normal(&mut rng);
        }
        for v in &mut b {
            *v += noise * thrubarrier_dsp::gen::standard_normal(&mut rng);
        }
        (AudioBuffer::new(a, 16_000), AudioBuffer::new(b, 16_000))
    }

    #[test]
    fn wideband_pair_scores_higher_than_lowband_pair() {
        // The core discrimination: a wideband (user-like) source scores
        // high, a low-frequency-dominated (attack-like) source scores low
        // in the vibration domain.
        let sys = DefenseSystem::paper_default();
        let mut rng = StdRng::seed_from_u64(1);
        let user_src = gen::chirp(150.0, 3_000.0, 0.1, 16_000, 2.0);
        let attack_src = gen::chirp(100.0, 450.0, 0.05, 16_000, 2.0);
        let (ua, ub) = recording_pair(&user_src, 0.001, 2);
        let (aa, ab) = recording_pair(&attack_src, 0.001, 3);
        let s_user = sys.score_with_method(DefenseMethod::VibrationBaseline, &ua, &ub, &mut rng);
        let s_attack = sys.score_with_method(DefenseMethod::VibrationBaseline, &aa, &ab, &mut rng);
        assert!(
            s_user > s_attack + 0.2,
            "user {s_user} vs attack {s_attack}"
        );
    }

    #[test]
    fn empty_recordings_score_zero() {
        let sys = DefenseSystem::paper_default();
        let mut rng = StdRng::seed_from_u64(4);
        let empty = AudioBuffer::empty(16_000);
        let some = AudioBuffer::new(vec![0.1; 1_000], 16_000);
        for m in DefenseMethod::all() {
            assert_eq!(sys.score_with_method(m, &empty, &some, &mut rng), 0.0);
        }
    }

    #[test]
    fn silent_selection_scores_near_zero() {
        // A near-silent recording converts to pure sensor noise, so the
        // two conversions must not correlate: the score sits at the
        // noise level (negative correlations clamp to exactly 0, tiny
        // positive ones survive) and is flagged as an attack.
        let sys = DefenseSystem::paper_default();
        let mut rng = StdRng::seed_from_u64(5);
        let quiet = AudioBuffer::new(vec![1e-6; 16_000], 16_000);
        let s = sys.score(&quiet, &quiet, &mut rng);
        assert!(s < 0.05, "score {s}");
        assert!(sys.is_attack(s));
    }

    #[test]
    fn audio_baseline_scores_identical_recordings_high() {
        let sys = DefenseSystem::paper_default();
        let mut rng = StdRng::seed_from_u64(6);
        let src = gen::chirp(150.0, 3_000.0, 0.1, 16_000, 1.0);
        let (a, b) = recording_pair(&src, 0.0005, 7);
        let s = sys.score_with_method(DefenseMethod::AudioBaseline, &a, &b, &mut rng);
        assert!(s > 0.8, "score {s}");
    }

    #[test]
    fn precomputed_mask_scoring_matches_full_method() {
        let sys = DefenseSystem::paper_default();
        let src = gen::chirp(150.0, 3_000.0, 0.1, 16_000, 1.0);
        let (a, b) = recording_pair(&src, 0.001, 8);
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let inline = sys.score_with_method(DefenseMethod::Full, &a, &b, &mut rng_a);
        let mask = sys
            .selector()
            .sensitive_frames_batch(&[a.samples()], a.sample_rate())
            .pop()
            .unwrap();
        let masked = sys.score_full_with_mask(&a, &b, &mask, &mut rng_b);
        assert_eq!(inline.to_bits(), masked.to_bits());
    }

    #[test]
    fn threshold_builder_applies() {
        let sys = DefenseSystem::paper_default().with_threshold(0.7);
        assert!(sys.is_attack(0.69));
        assert!(!sys.is_attack(0.71));
    }

    #[test]
    fn method_labels_match_figures() {
        assert_eq!(
            DefenseMethod::AudioBaseline.label(),
            "Audio-domain baseline"
        );
        assert_eq!(DefenseMethod::Full.label(), "Our defense system");
        assert_eq!(DefenseMethod::all().len(), 3);
    }
}
