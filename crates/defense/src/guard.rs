//! `VaGuard` — the deployment-facing wrapper: from a wake event and two
//! recordings to an authorization verdict.
//!
//! The threat model (paper Sec. II) adds one rule on top of the
//! detector: if the wearable is absent (no recording arrives), the
//! command is rejected outright.

use crate::system::DefenseSystem;
use rand::Rng;
use thrubarrier_dsp::AudioBuffer;

/// Authorization outcome for one voice command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The command is accepted as the legitimate user's.
    Accept {
        /// The similarity score that cleared the threshold.
        score: f32,
    },
    /// The command is rejected as a thru-barrier attack.
    RejectAttack {
        /// The similarity score below the threshold.
        score: f32,
    },
    /// The command is rejected because no wearable recording arrived
    /// (the threat model rejects commands when the wearable is absent).
    RejectWearableAbsent,
}

impl Verdict {
    /// Whether the command was accepted.
    pub fn accepted(&self) -> bool {
        matches!(self, Verdict::Accept { .. })
    }
}

/// The deployment wrapper around a [`DefenseSystem`].
#[derive(Debug, Clone)]
pub struct VaGuard {
    system: DefenseSystem,
}

impl VaGuard {
    /// Wraps a configured defense system.
    pub fn new(system: DefenseSystem) -> Self {
        VaGuard { system }
    }

    /// The wrapped system.
    pub fn system(&self) -> &DefenseSystem {
        &self.system
    }

    /// Calibrates the decision threshold from a set of *legitimate*
    /// scores only — the training-free deployment procedure: the user
    /// speaks a few commands at setup time, and the threshold is placed
    /// at the `target_fdr` quantile of their scores. No attack data is
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if `scores` is empty, if any score is NaN or infinite, or
    /// if `target_fdr` is outside `(0, 1)`.
    pub fn calibrate_threshold(&mut self, scores: &[f32], target_fdr: f32) {
        assert!(!scores.is_empty(), "calibration needs at least one score");
        assert!(
            scores.iter().all(|s| s.is_finite()),
            "calibration scores must all be finite"
        );
        assert!(
            (0.0..1.0).contains(&target_fdr) && target_fdr > 0.0,
            "target_fdr must be in (0, 1)"
        );
        let threshold = thrubarrier_dsp::stats::percentile(scores, target_fdr * 100.0);
        self.system.detector.threshold = threshold;
    }

    /// Authorizes one command: `wearable_recording` is `None` when the
    /// wearable did not respond to the trigger.
    pub fn authorize<R: Rng + ?Sized>(
        &self,
        va_recording: &AudioBuffer,
        wearable_recording: Option<&AudioBuffer>,
        rng: &mut R,
    ) -> Verdict {
        let Some(wearable) = wearable_recording else {
            return Verdict::RejectWearableAbsent;
        };
        let score = self.system.score(va_recording, wearable, rng);
        if self.system.is_attack(score) {
            Verdict::RejectAttack { score }
        } else {
            Verdict::Accept { score }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrubarrier_dsp::gen;

    fn wideband_pair(seed: u64) -> (AudioBuffer, AudioBuffer) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = gen::chirp(200.0, 3_000.0, 0.1, 16_000, 1.5);
        let mut a = src.clone();
        let mut b = src;
        gen::add_gaussian_noise(&mut a, 0.001, &mut rng);
        gen::add_gaussian_noise(&mut b, 0.001, &mut rng);
        (AudioBuffer::new(a, 16_000), AudioBuffer::new(b, 16_000))
    }

    #[test]
    fn missing_wearable_is_rejected() {
        let guard = VaGuard::new(DefenseSystem::paper_default());
        let (va, _) = wideband_pair(1);
        let mut rng = StdRng::seed_from_u64(2);
        let v = guard.authorize(&va, None, &mut rng);
        assert_eq!(v, Verdict::RejectWearableAbsent);
        assert!(!v.accepted());
    }

    #[test]
    fn consistent_wideband_pair_is_accepted() {
        let guard = VaGuard::new(DefenseSystem::paper_default());
        let (va, wear) = wideband_pair(3);
        let mut rng = StdRng::seed_from_u64(4);
        let v = guard.authorize(&va, Some(&wear), &mut rng);
        assert!(v.accepted(), "{v:?}");
    }

    #[test]
    fn calibration_sets_threshold_at_fdr_quantile() {
        let mut guard = VaGuard::new(DefenseSystem::paper_default());
        let scores = vec![0.8, 0.85, 0.9, 0.95, 0.7, 0.75, 0.88, 0.92, 0.79, 0.83];
        guard.calibrate_threshold(&scores, 0.1);
        // Roughly the 10th percentile of the calibration scores.
        let t = guard.system().detector.threshold;
        assert!((0.7..0.8).contains(&t), "threshold {t}");
    }

    #[test]
    #[should_panic(expected = "calibration needs at least one score")]
    fn calibration_rejects_empty_input() {
        VaGuard::new(DefenseSystem::paper_default()).calibrate_threshold(&[], 0.1);
    }

    #[test]
    #[should_panic(expected = "calibration scores must all be finite")]
    fn calibration_rejects_non_finite_scores() {
        VaGuard::new(DefenseSystem::paper_default())
            .calibrate_threshold(&[0.8, f32::NAN, 0.9], 0.1);
    }
}
