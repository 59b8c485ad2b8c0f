//! The assembled defense system and the paper's two baselines.

use crate::detector::CorrelationDetector;
use crate::features::VibrationFeatureExtractor;
use crate::segmentation::{extract_selected_samples, EnergySelector, SegmentSelector};
use crate::sync;
use rand::Rng;
use std::borrow::Cow;
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

/// Why a method did not score a recording pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reason {
    /// A recording holds no samples.
    EmptyInput,
    /// The two recordings have different sample rates.
    RateMismatch,
    /// Cross-correlation synchronization (Eq. 5) could not align the
    /// recordings.
    SyncFailed,
    /// A recording holds a NaN or infinite sample, or a level or score
    /// computed from finite samples overflowed (replay RMS, 2-D
    /// correlation).
    NonFinite,
    /// The sensitive-phoneme selection is shorter than
    /// [`DefenseSystem::min_selected_s`] (full method only).
    InsufficientEvidence {
        /// Seconds of VA audio the mask selected.
        selected_s: f32,
    },
}

/// The outcome of one [`DefenseSystem::verify`] call: a score or a
/// rejection per requested method, and the evidence behind them.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// One entry per requested method, in request order. A score is
    /// always finite and in `[0, 1]`; higher = more likely legitimate.
    pub outcomes: Vec<(DefenseMethod, Result<f32, Reason>)>,
    /// Estimated lag of the wearable recording in samples (positive =
    /// wearable started late); `None` when synchronization is switched
    /// off or the inputs were rejected before it ran.
    pub sync_lag: Option<isize>,
    /// Seconds of VA audio the full method's mask selected; `None` when
    /// the full method was not requested or did not reach selection.
    pub selected_s: Option<f32>,
}

impl Decision {
    /// The outcome of `method`, or `None` if it was not requested.
    pub fn outcome(&self, method: DefenseMethod) -> Option<Result<f32, Reason>> {
        self.outcomes
            .iter()
            .find(|(m, _)| *m == method)
            .map(|&(_, outcome)| outcome)
    }

    /// The score of `method`, with `0.0` (reads as "attack") for a
    /// rejection or a method that was not requested.
    pub fn score_or_zero(&self, method: DefenseMethod) -> f32 {
        self.outcome(method).and_then(Result::ok).unwrap_or(0.0)
    }

    /// Records `method`'s outcome, turning a non-finite score into a
    /// [`Reason::NonFinite`] rejection and counting every rejection
    /// under `defense.reject.<reason>`.
    fn push(&mut self, method: DefenseMethod, outcome: Result<f32, Reason>) {
        let outcome = outcome.and_then(|s| {
            if s.is_finite() {
                Ok(s)
            } else {
                Err(Reason::NonFinite)
            }
        });
        if let Err(reason) = outcome {
            match reason {
                Reason::EmptyInput => {
                    thrubarrier_obs::counter!("defense.reject.empty_input").incr()
                }
                Reason::RateMismatch => {
                    thrubarrier_obs::counter!("defense.reject.rate_mismatch").incr()
                }
                Reason::SyncFailed => {
                    thrubarrier_obs::counter!("defense.reject.sync_failed").incr()
                }
                Reason::NonFinite => thrubarrier_obs::counter!("defense.reject.non_finite").incr(),
                Reason::InsufficientEvidence { .. } => {
                    thrubarrier_obs::counter!("defense.reject.insufficient_evidence").incr()
                }
            }
        }
        self.outcomes.push((method, outcome));
    }
}

/// Whether every sample is finite, in one branch-free pass: with the
/// sign bit cleared, adding one exponent LSB carries into bit 31
/// exactly when the exponent field is all ones (±Inf or NaN).
fn all_finite(samples: &[f32]) -> bool {
    let carry = samples.iter().fold(0u32, |acc, x| {
        acc | ((x.to_bits() & 0x7fff_ffff) + 0x0080_0000)
    });
    carry & 0x8000_0000 == 0
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
    /// meaningful vibration comparison; shorter selections are rejected
    /// as [`Reason::InsufficientEvidence`].
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
    /// likely legitimate; `[0, 1]`. Any rejection scores `0.0`; use
    /// [`DefenseSystem::verify`] to learn why.
    pub fn score<R: Rng + ?Sized>(
        &self,
        va_recording: &AudioBuffer,
        wearable_recording: &AudioBuffer,
        rng: &mut R,
    ) -> f32 {
        self.score_with_method(DefenseMethod::Full, va_recording, wearable_recording, rng)
    }

    /// Scores a recording pair with any of the three methods. Any
    /// rejection scores `0.0`; use [`DefenseSystem::verify`] to learn
    /// why.
    pub fn score_with_method<R: Rng + ?Sized>(
        &self,
        method: DefenseMethod,
        va_recording: &AudioBuffer,
        wearable_recording: &AudioBuffer,
        rng: &mut R,
    ) -> f32 {
        self.verify(va_recording, wearable_recording, None, &mut [(method, rng)])
            .score_or_zero(method)
    }

    /// Verifies a recording pair: checks the inputs, aligns the wearable
    /// recording once (Eq. 5) and scores every requested method from
    /// that one alignment.
    ///
    /// Each method draws only from the RNG paired with it, so a method's
    /// score does not depend on which other methods are requested.
    /// `mask` is the full method's sensitive-frame mask, e.g. one of
    /// many computed in a single minibatch via
    /// [`SegmentSelector::sensitive_frames_batch`]; `None` runs the
    /// system's own selector on the VA recording.
    pub fn verify<R: Rng + ?Sized>(
        &self,
        va_recording: &AudioBuffer,
        wearable_recording: &AudioBuffer,
        mask: Option<&[bool]>,
        methods: &mut [(DefenseMethod, &mut R)],
    ) -> Decision {
        let _span = thrubarrier_obs::span!("defense.score");
        let mut decision = Decision {
            outcomes: Vec::with_capacity(methods.len()),
            sync_lag: None,
            selected_s: None,
        };
        let aligned_wearable = match self.align(va_recording, wearable_recording) {
            Ok((aligned, lag)) => {
                decision.sync_lag = lag;
                aligned
            }
            Err(reason) => {
                for &mut (method, _) in methods {
                    decision.push(method, Err(reason));
                }
                return decision;
            }
        };
        let fs = va_recording.sample_rate();
        for (method, rng) in methods.iter_mut() {
            let outcome = match method {
                DefenseMethod::AudioBaseline => {
                    let a = VibrationFeatureExtractor::extract_audio_baseline(va_recording);
                    let b = VibrationFeatureExtractor::extract_audio_baseline(&aligned_wearable);
                    self.detector.checked_score(&a, &b).ok_or(Reason::NonFinite)
                }
                DefenseMethod::VibrationBaseline => self.vibration_score(
                    va_recording.samples(),
                    aligned_wearable.samples(),
                    fs,
                    &mut **rng,
                ),
                DefenseMethod::Full => {
                    let own_mask;
                    let mask = match mask {
                        Some(mask) => mask,
                        None => {
                            let _span = thrubarrier_obs::span!("defense.segmentation");
                            own_mask = self.selector.sensitive_frames(va_recording.samples(), fs);
                            &own_mask
                        }
                    };
                    // Frame geometry of the paper's MFCC front-end.
                    let (frame_len, hop) = (400, 160);
                    let va_sel =
                        extract_selected_samples(va_recording.samples(), mask, frame_len, hop);
                    let w_sel =
                        extract_selected_samples(aligned_wearable.samples(), mask, frame_len, hop);
                    let selected_s = va_sel.len() as f32 / fs as f32;
                    decision.selected_s = Some(selected_s);
                    if (va_sel.len() as f32) < self.min_selected_s * fs as f32 {
                        // Too little sensitive-phoneme evidence: legitimate
                        // commands always contain it.
                        Err(Reason::InsufficientEvidence { selected_s })
                    } else {
                        self.vibration_score(&va_sel, &w_sel, fs, &mut **rng)
                    }
                }
            };
            decision.push(*method, outcome);
        }
        decision
    }

    /// Checks the recording pair and aligns the wearable recording by
    /// cross-correlation, honoring the `synchronize` ablation switch.
    /// Returns the aligned recording and the estimated lag in samples
    /// (`None` when synchronization is switched off).
    fn align<'w>(
        &self,
        va_recording: &AudioBuffer,
        wearable_recording: &'w AudioBuffer,
    ) -> Result<(Cow<'w, AudioBuffer>, Option<isize>), Reason> {
        if va_recording.is_empty() || wearable_recording.is_empty() {
            return Err(Reason::EmptyInput);
        }
        if va_recording.sample_rate() != wearable_recording.sample_rate() {
            return Err(Reason::RateMismatch);
        }
        if !all_finite(va_recording.samples()) || !all_finite(wearable_recording.samples()) {
            return Err(Reason::NonFinite);
        }
        if !self.synchronize {
            return Ok((Cow::Borrowed(wearable_recording), None));
        }
        let _span = thrubarrier_obs::span!("defense.sync");
        match sync::synchronize(va_recording, wearable_recording, self.max_sync_delay_s) {
            Ok((aligned, lag)) => Ok((Cow::Owned(aligned), Some(lag))),
            Err(_) => Err(Reason::SyncFailed),
        }
    }

    /// RMS level every recording is replayed at: the wearable's speaker
    /// plays at a fixed standard volume, so recordings are
    /// level-normalized before conversion (this is also what makes the
    /// comparison robust to the user's distance from the VA device).
    pub const REPLAY_RMS: f32 = 0.1;

    /// Converts both signals to the vibration domain on the wearable and
    /// correlates their features. Each signal is replayed at the fixed
    /// standard volume ([`DefenseSystem::REPLAY_RMS`]).
    ///
    /// Rejects as [`Reason::NonFinite`] a signal whose RMS overflows
    /// (finite samples near `f32::MAX`: no replay gain exists) and a
    /// non-finite correlation.
    fn vibration_score<R: Rng + ?Sized>(
        &self,
        va_audio: &[f32],
        wearable_audio: &[f32],
        sample_rate: u32,
        rng: &mut R,
    ) -> Result<f32, Reason> {
        let normalize = |sig: &[f32]| -> Result<Vec<f32>, Reason> {
            let rms = thrubarrier_dsp::stats::rms(sig);
            if !rms.is_finite() {
                return Err(Reason::NonFinite);
            }
            if rms <= 0.0 || !self.normalize_replay {
                return Ok(sig.to_vec());
            }
            let g = Self::REPLAY_RMS / rms;
            Ok(sig.iter().map(|&x| x * g).collect())
        };
        let _span = thrubarrier_obs::span!("defense.vibration_score");
        let va_replay = normalize(va_audio)?;
        let w_replay = normalize(wearable_audio)?;
        // Pair conversion through one engine borrow: both recordings
        // share warm FFT plans, curve tables and scratch.
        let (vib_va, vib_w) = thrubarrier_vibration::with_engine(|e| {
            e.convert_pair(&self.wearable, &va_replay, &w_replay, sample_rate, rng)
        });
        let fa = self.features.extract(&vib_va);
        let fb = self.features.extract(&vib_w);
        self.detector
            .checked_score(&fa, &fb)
            .ok_or(Reason::NonFinite)
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
        gen::add_gaussian_noise(&mut a, noise, &mut rng);
        gen::add_gaussian_noise(&mut b, noise, &mut rng);
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
        let inline =
            sys.score_with_method(DefenseMethod::Full, &a, &b, &mut StdRng::seed_from_u64(9));
        let mask = sys
            .selector()
            .sensitive_frames_batch(&[a.samples()], a.sample_rate())
            .pop()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let decision = sys.verify(&a, &b, Some(&mask), &mut [(DefenseMethod::Full, &mut rng)]);
        let masked = decision.outcome(DefenseMethod::Full).unwrap().unwrap();
        assert_eq!(inline.to_bits(), masked.to_bits());
        assert!(decision.selected_s.unwrap() >= sys.min_selected_s);
        assert!(decision.sync_lag.is_some());
    }

    #[test]
    fn non_finite_scores_become_typed_rejections() {
        let mut decision = Decision {
            outcomes: Vec::new(),
            sync_lag: None,
            selected_s: None,
        };
        decision.push(DefenseMethod::AudioBaseline, Ok(f32::NAN));
        decision.push(DefenseMethod::Full, Ok(0.5));
        assert_eq!(
            decision.outcome(DefenseMethod::AudioBaseline),
            Some(Err(Reason::NonFinite))
        );
        assert_eq!(decision.score_or_zero(DefenseMethod::AudioBaseline), 0.0);
        assert_eq!(decision.score_or_zero(DefenseMethod::Full), 0.5);
        assert_eq!(decision.outcome(DefenseMethod::VibrationBaseline), None);
    }

    #[test]
    fn finiteness_check_flags_exactly_inf_and_nan() {
        assert!(all_finite(&[]));
        assert!(all_finite(&[
            0.0,
            -0.0,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            1e-45
        ]));
        for bad in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(!all_finite(&[0.1, bad, 0.2]), "{bad}");
        }
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
