//! Fig. 3: average audio-domain FFT magnitude of phoneme sounds before
//! and after passing the barrier.
//!
//! The paper plays 100 segments of /ae/ (vowel) and /v/ (consonant) from
//! ten speakers at 75 dB through a glass window and shows that (i) both
//! lose their > 500 Hz components, and (ii) the post-barrier vowel looks
//! like the pre-barrier consonant — which is why the *audio* domain
//! cannot carry the defense.

use crate::report::Row;
use rand::rngs::StdRng;
use rand::SeedableRng;
use thrubarrier_acoustics::loudspeaker::Loudspeaker;
use thrubarrier_acoustics::mic::Microphone;
use thrubarrier_acoustics::propagation::speech_gain_for_spl;
use thrubarrier_acoustics::room::{Room, RoomId};
use thrubarrier_acoustics::scene::AcousticPath;
use thrubarrier_dsp::{fft, AudioBuffer};
use thrubarrier_phoneme::corpus::{phoneme_samples, speaker_panel};
use thrubarrier_phoneme::inventory::Inventory;
use thrubarrier_phoneme::synth::Synthesizer;

/// Configuration of the barrier-effect demonstration.
#[derive(Debug, Clone)]
pub struct BarrierEffectConfig {
    /// Master seed.
    pub seed: u64,
    /// Segments per phoneme (paper: 100).
    pub samples_per_phoneme: usize,
    /// Phonemes to analyze (paper: /ae/ and /v/).
    pub phonemes: Vec<&'static str>,
    /// Playback level in dB SPL.
    pub spl_db: f32,
}

impl Default for BarrierEffectConfig {
    fn default() -> Self {
        BarrierEffectConfig {
            seed: 0xF3,
            samples_per_phoneme: 40,
            phonemes: vec!["ae", "v"],
            spl_db: 75.0,
        }
    }
}

/// Average FFT magnitude curves for one phoneme.
#[derive(Debug, Clone)]
pub struct MagnitudeCurves {
    /// Phoneme symbol.
    pub symbol: &'static str,
    /// Frequency axis in Hz.
    pub frequencies: Vec<f32>,
    /// Mean magnitude before passing the barrier.
    pub before: Vec<f32>,
    /// Mean magnitude after passing the barrier.
    pub after: Vec<f32>,
}

impl MagnitudeCurves {
    /// Mean magnitude in `[lo, hi)` Hz of the `before` curve.
    pub fn before_band_mean(&self, lo: f32, hi: f32) -> f32 {
        band_mean(&self.frequencies, &self.before, lo, hi)
    }

    /// Mean magnitude in `[lo, hi)` Hz of the `after` curve.
    pub fn after_band_mean(&self, lo: f32, hi: f32) -> f32 {
        band_mean(&self.frequencies, &self.after, lo, hi)
    }
}

/// Mean of `mags` over the bins whose frequency lies in `[lo, hi)` Hz
/// (0 for an empty band).
pub(crate) fn band_mean(freqs: &[f32], mags: &[f32], lo: f32, hi: f32) -> f32 {
    let vals: Vec<f32> = freqs
        .iter()
        .zip(mags)
        .filter(|(&f, _)| f >= lo && f < hi)
        .map(|(_, &m)| m)
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f32>() / vals.len() as f32
    }
}

/// Result of the Fig. 3 experiment.
#[derive(Debug, Clone)]
pub struct BarrierEffectStudy {
    /// One curve pair per requested phoneme.
    pub curves: Vec<MagnitudeCurves>,
    /// Master seed of the run.
    pub seed: u64,
}

/// Runs the Fig. 3 experiment (audio domain).
pub fn run(cfg: &BarrierEffectConfig) -> BarrierEffectStudy {
    let fs = 16_000u32;
    let n_fft = 4_096usize;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let panel = speaker_panel(5, 5, &mut rng);
    let synth = Synthesizer::new(fs);
    let gain = speech_gain_for_spl(cfg.spl_db);
    let curves = cfg
        .phonemes
        .iter()
        .map(|sym| {
            let id = Inventory::by_symbol(sym).unwrap_or_else(|| panic!("unknown phoneme {sym}"));
            let sounds = phoneme_samples(&synth, id, cfg.samples_per_phoneme, &panel, &mut rng);
            let mut before_acc = vec![0.0f32; n_fft / 2 + 1];
            let mut after_acc = vec![0.0f32; n_fft / 2 + 1];
            for sound in &sounds {
                let calibrated: Vec<f32> = sound.iter().map(|&x| x * gain).collect();
                let (before, after) = record_before_after(&calibrated, &mut rng);
                accumulate_padded_magnitude(&mut before_acc, before.samples(), n_fft);
                accumulate_padded_magnitude(&mut after_acc, after.samples(), n_fft);
            }
            let n = sounds.len() as f32;
            for v in before_acc.iter_mut().chain(after_acc.iter_mut()) {
                *v /= n;
            }
            MagnitudeCurves {
                symbol: sym,
                frequencies: fft::bin_frequencies(n_fft, fs),
                before: before_acc,
                after: after_acc,
            }
        })
        .collect();
    BarrierEffectStudy {
        curves,
        seed: cfg.seed,
    }
}

/// Records `source` with the wearable's microphone 0.5 m in front of
/// room A's barrier ("before") and 2 m behind it ("after"), both played
/// through the sound bar.
pub(crate) fn record_before_after(source: &[f32], rng: &mut StdRng) -> (AudioBuffer, AudioBuffer) {
    let after =
        AcousticPath::thru_barrier(Room::paper_room(RoomId::A), 2.0, Loudspeaker::sound_bar());
    let before = AcousticPath {
        through_barrier: false,
        distance_m: 0.5,
        ..after.clone()
    };
    let mic = Microphone::wearable();
    let before = before.record(source, 16_000, &mic, rng);
    (before, after.record(source, 16_000, &mic, rng))
}

fn accumulate_padded_magnitude(acc: &mut [f32], signal: &[f32], n_fft: usize) {
    // Welch-average the magnitude over n_fft-sized chunks so segment
    // duration does not scale the curve.
    let stft =
        thrubarrier_dsp::Stft::new(n_fft, n_fft / 2, thrubarrier_dsp::window::WindowKind::Hann)
            .expect("n_fft >= 2");
    let spec = stft.magnitude_spectrogram(signal, 16_000);
    let mean = spec.mean_per_bin();
    for (a, m) in acc.iter_mut().zip(mean) {
        *a += m;
    }
}

impl BarrierEffectStudy {
    /// One row pair (before/after barrier) of mean magnitude per band
    /// and phoneme: the 0.05–0.5 and 0.5–3 kHz summary bands, then
    /// 500 Hz bands from 0 to 3 kHz.
    pub fn rows(&self) -> Vec<Row> {
        let bands = [(50.0, 500.0), (500.0, 3_000.0)].into_iter().chain(
            (0..3_000)
                .step_by(500)
                .map(|f| (f as f32, f as f32 + 500.0)),
        );
        let mut rows = Vec::new();
        for c in &self.curves {
            for (lo, hi) in bands.clone() {
                let condition = format!("/{}/ {}–{} kHz", c.symbol, lo / 1e3, hi / 1e3);
                let row = |method| Row::new("fig3", self.seed, condition.clone(), method);
                rows.push(row("before barrier").metric("magnitude", c.before_band_mean(lo, hi)));
                rows.push(row("after barrier").metric("magnitude", c.after_band_mean(lo, hi)));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BarrierEffectStudy {
        run(&BarrierEffectConfig {
            samples_per_phoneme: 6,
            ..Default::default()
        })
    }

    #[test]
    fn high_frequencies_are_attenuated_for_both_phonemes() {
        let study = quick();
        for c in &study.curves {
            let before_high = c.before_band_mean(1_000.0, 3_000.0);
            let after_high = c.after_band_mean(1_000.0, 3_000.0);
            assert!(
                after_high < before_high * 0.4,
                "/{}/ high band {} -> {}",
                c.symbol,
                before_high,
                after_high
            );
        }
    }

    #[test]
    fn post_barrier_vowel_resembles_pre_barrier_consonant() {
        // The paper's key negative result for the audio domain: /ae/
        // after the barrier has comparable (same order) high-frequency
        // energy as /v/ before it.
        let study = quick();
        let ae = study.curves.iter().find(|c| c.symbol == "ae").unwrap();
        let v = study.curves.iter().find(|c| c.symbol == "v").unwrap();
        let ae_after = ae.after_band_mean(500.0, 2_000.0);
        let v_before = v.before_band_mean(500.0, 2_000.0);
        let ratio = ae_after / v_before.max(1e-9);
        assert!(
            (0.05..=20.0).contains(&ratio),
            "ae-after vs v-before ratio {ratio}"
        );
    }

    #[test]
    fn vowel_keeps_low_frequency_energy() {
        let study = quick();
        let ae = study.curves.iter().find(|c| c.symbol == "ae").unwrap();
        let low_keep = ae.after_band_mean(80.0, 500.0) / ae.before_band_mean(80.0, 500.0);
        let high_keep =
            ae.after_band_mean(1_000.0, 3_000.0) / ae.before_band_mean(1_000.0, 3_000.0).max(1e-9);
        assert!(
            low_keep > 2.0 * high_keep,
            "low {low_keep} vs high {high_keep}"
        );
    }

    #[test]
    fn rows_cover_both_phonemes() {
        let rows = quick().rows();
        assert!(rows.iter().any(|r| r.condition.starts_with("/ae/")));
        assert!(rows.iter().any(|r| r.condition.starts_with("/v/")));
    }
}
