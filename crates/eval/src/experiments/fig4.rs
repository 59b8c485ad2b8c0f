//! Fig. 4: the same phoneme sounds in the **vibration** domain.
//!
//! The point of the figure: after cross-domain conversion, the
//! post-barrier vowel /ae/ and the pre-barrier consonant /v/ — which are
//! confusable in the audio domain (Fig. 3) — become distinguishable,
//! because the accelerometer attenuates the shared low-frequency band
//! and aliases in the high-frequency band only the *user-side* sound
//! still has.

use crate::experiments::fig3::{record_before_after, BarrierEffectConfig, MagnitudeCurves};
use crate::report::Row;
use rand::rngs::StdRng;
use rand::SeedableRng;
use thrubarrier_acoustics::propagation::speech_gain_for_spl;
use thrubarrier_defense::selection::vibration_magnitude_spectrum;
use thrubarrier_phoneme::corpus::{phoneme_samples, speaker_panel};
use thrubarrier_phoneme::inventory::Inventory;
use thrubarrier_phoneme::synth::Synthesizer;
use thrubarrier_vibration::Wearable;

/// Result of the Fig. 4 experiment.
#[derive(Debug, Clone)]
pub struct VibrationEffectStudy {
    /// One curve pair per phoneme (frequency axis: 0–100 Hz).
    pub curves: Vec<MagnitudeCurves>,
    /// Master seed of the run.
    pub seed: u64,
}

/// Runs the Fig. 4 experiment (vibration domain, Fossil Gen 5).
pub fn run(cfg: &BarrierEffectConfig) -> VibrationEffectStudy {
    let fs = 16_000u32;
    let n_fft = 64usize;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF4);
    let panel = speaker_panel(5, 5, &mut rng);
    let synth = Synthesizer::new(fs);
    let wearable = Wearable::fossil_gen_5();
    let gain = speech_gain_for_spl(cfg.spl_db);
    let min_samples = (0.32 * fs as f32) as usize;
    let curves = cfg
        .phonemes
        .iter()
        .map(|sym| {
            let id = Inventory::by_symbol(sym).unwrap_or_else(|| panic!("unknown phoneme {sym}"));
            let raw = phoneme_samples(&synth, id, cfg.samples_per_phoneme, &panel, &mut rng);
            let mut before_acc = vec![0.0f32; n_fft / 2 + 1];
            let mut after_acc = vec![0.0f32; n_fft / 2 + 1];
            for s in &raw {
                let mut seg = s.clone();
                while seg.len() < min_samples {
                    seg.extend_from_slice(s);
                }
                let calibrated: Vec<f32> = seg.iter().map(|&x| x * gain).collect();
                let (before, after) = record_before_after(&calibrated, &mut rng);
                let vib_before = wearable.convert(before.samples(), fs, &mut rng);
                let vib_after = wearable.convert(after.samples(), fs, &mut rng);
                for (a, m) in before_acc
                    .iter_mut()
                    .zip(vibration_magnitude_spectrum(&vib_before, n_fft))
                {
                    *a += m;
                }
                for (a, m) in after_acc
                    .iter_mut()
                    .zip(vibration_magnitude_spectrum(&vib_after, n_fft))
                {
                    *a += m;
                }
            }
            let n = raw.len() as f32;
            for v in before_acc.iter_mut().chain(after_acc.iter_mut()) {
                *v /= n;
            }
            let bin_hz = wearable.accelerometer.sample_rate as f32 / n_fft as f32;
            MagnitudeCurves {
                symbol: sym,
                frequencies: (0..=n_fft / 2).map(|b| b as f32 * bin_hz).collect(),
                before: before_acc,
                after: after_acc,
            }
        })
        .collect();
    VibrationEffectStudy {
        curves,
        seed: cfg.seed,
    }
}

impl VibrationEffectStudy {
    /// One row pair (before/after barrier) of magnitude per phoneme
    /// and every other bin of the 20–80 Hz band the paper plots.
    pub fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for c in &self.curves {
            for (b, f) in c.frequencies.iter().enumerate() {
                if !(20.0..=80.0).contains(f) || b % 2 == 1 {
                    continue;
                }
                let condition = format!("/{}/ {f} Hz", c.symbol);
                let row = |method| Row::new("fig4", self.seed, condition.clone(), method);
                rows.push(row("before barrier").metric("magnitude", c.before[b]));
                rows.push(row("after barrier").metric("magnitude", c.after[b]));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean 20–80 Hz magnitude of a curve (`before = true` selects the
    /// no-barrier condition).
    fn band_mean(study: &VibrationEffectStudy, symbol: &str, before: bool) -> f32 {
        let c = study.curves.iter().find(|c| c.symbol == symbol);
        let c = c.expect("phoneme present");
        if before {
            c.before_band_mean(20.0, 80.0)
        } else {
            c.after_band_mean(20.0, 80.0)
        }
    }

    fn quick() -> VibrationEffectStudy {
        run(&BarrierEffectConfig {
            samples_per_phoneme: 6,
            ..Default::default()
        })
    }

    #[test]
    fn vowel_after_barrier_is_distinguishable_from_consonant_before() {
        // Fig. 4's point: in the vibration domain, /ae/-after-barrier is
        // clearly WEAKER than /v/-before-barrier (they were confusable
        // in the audio domain).
        let study = quick();
        let ae_after = band_mean(&study, "ae", false);
        let v_before = band_mean(&study, "v", true);
        assert!(
            v_before > 1.5 * ae_after,
            "v-before {v_before} vs ae-after {ae_after}"
        );
    }

    #[test]
    fn conversion_suppresses_post_barrier_vowel() {
        let study = quick();
        let ae_before = band_mean(&study, "ae", true);
        let ae_after = band_mean(&study, "ae", false);
        assert!(
            ae_before > 3.0 * ae_after,
            "before {ae_before} after {ae_after}"
        );
    }

    #[test]
    fn rows_name_their_frequency_bins() {
        let rows = quick().rows();
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| r.condition.ends_with(" Hz")));
    }
}
