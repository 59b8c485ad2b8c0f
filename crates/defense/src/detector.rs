//! The 2-D-correlation attack detector (paper Sec. VI-C, Eq. 6).

use thrubarrier_dsp::{correlate, Spectrogram};

/// Threshold-based detector over the 2-D correlation score.
///
/// Scores live in `[0, 1]` (negative correlations clamp to 0 — they
/// carry the same meaning as zero: the two feature maps share no
/// structure). A score **below** the threshold is classified as a
/// thru-barrier attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelationDetector {
    /// Decision threshold in `[0, 1]`.
    pub threshold: f32,
}

impl Default for CorrelationDetector {
    fn default() -> Self {
        // A mid-range operating point; evaluations sweep the threshold.
        CorrelationDetector { threshold: 0.5 }
    }
}

impl CorrelationDetector {
    /// Creates a detector with the given threshold.
    pub fn new(threshold: f32) -> Self {
        CorrelationDetector { threshold }
    }

    /// The similarity score of two feature maps: 2-D Pearson correlation
    /// over the common time support, clamped to `[0, 1]`.
    ///
    /// Returns `0.0` (maximally suspicious) when either map is empty or
    /// they disagree in bin count — an attack cannot be ruled out
    /// without comparable evidence.
    ///
    /// A non-finite correlation (feature maps that overflowed) also
    /// returns `0.0`; [`CorrelationDetector::checked_score`] tells it
    /// apart.
    pub fn score(&self, a: &Spectrogram, b: &Spectrogram) -> f32 {
        self.checked_score(a, b).unwrap_or(0.0)
    }

    /// [`CorrelationDetector::score`], or `None` when the correlation is
    /// infinite or NaN: the maps hold values so large that the moments
    /// overflow, and no score describes them.
    pub fn checked_score(&self, a: &Spectrogram, b: &Spectrogram) -> Option<f32> {
        let _span = thrubarrier_obs::span!("defense.correlate");
        match correlate::spectrogram_correlation(a, b) {
            Ok(r) if !r.is_finite() => None,
            Ok(r) => Some(r.max(0.0)),
            Err(_) => Some(0.0),
        }
    }

    /// Whether a score indicates a thru-barrier attack.
    pub fn is_attack(&self, score: f32) -> bool {
        score < self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrubarrier_dsp::{gen, AudioBuffer, Stft};

    fn spec_of(sig: &[f32]) -> Spectrogram {
        Stft::vibration_default().power_spectrogram(sig, 200)
    }

    #[test]
    fn identical_features_score_one() {
        let s = spec_of(&gen::sine(30.0, 0.4, 200, 2.0));
        let d = CorrelationDetector::default();
        assert!((d.score(&s, &s) - 1.0).abs() < 1e-5);
        assert!(!d.is_attack(d.score(&s, &s)));
    }

    #[test]
    fn unrelated_noise_scores_low() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let a = spec_of(&gen::gaussian_noise(&mut rng, 0.2, 400));
        let b = spec_of(&gen::gaussian_noise(&mut rng, 0.2, 400));
        let d = CorrelationDetector::default();
        let score = d.score(&a, &b);
        assert!(score < 0.5, "score {score}");
        assert!(d.is_attack(score));
    }

    #[test]
    fn negative_correlation_clamps_to_zero() {
        // Construct anti-correlated maps via a raw spectrogram pair is
        // impossible (power is non-negative), so exercise via the
        // mismatch path instead: empty map scores 0.
        let empty = spec_of(&[]);
        let s = spec_of(&gen::sine(30.0, 0.4, 200, 2.0));
        let d = CorrelationDetector::default();
        assert_eq!(d.score(&empty, &s), 0.0);
    }

    #[test]
    fn threshold_boundary_is_exclusive() {
        let d = CorrelationDetector::new(0.5);
        assert!(!d.is_attack(0.5));
        assert!(d.is_attack(0.499));
    }

    #[test]
    fn vibration_audio_buffer_roundtrip() {
        let vib = AudioBuffer::new(gen::sine(25.0, 0.3, 200, 1.0), 200);
        let s = spec_of(vib.samples());
        assert!(s.frames() > 0);
    }
}
