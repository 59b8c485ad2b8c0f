//! Offline barrier-effect-sensitive phoneme selection (paper Sec. V-A).
//!
//! Every common phoneme is replayed through typical barriers (and without
//! them), converted to the vibration domain on the wearable, and screened
//! by two criteria on the third-quartile (Q3) FFT magnitude per frequency
//! bin:
//!
//! * **Criterion I** (Eq. 2): the phoneme must *not* trigger the
//!   accelerometer after passing a barrier —
//!   `max_f Q3_adv(p, f) < α`.
//! * **Criterion II** (Eq. 3): the phoneme must trigger the accelerometer
//!   when not passing a barrier — `min_f Q3_user(p, f) > α`.
//!
//! The selected set is the intersection; the paper finds 31 of the 37
//! common phonemes survive, rejecting intrinsically weak fricatives
//! (/s/, /z/, …) and over-loud back vowels (/aa/, /ao/).
//!
//! Implementation note: the paper evaluates `f ∈ [0, fs/2]`; we evaluate
//! Criterion II's minimum over the 6–94 Hz interior of the band so the
//! statistic is not dominated by the (cropped-anyway) 0–5 Hz artifact
//! bins or the last, half-width Nyquist bin.

use rand::Rng;
use thrubarrier_acoustics::loudspeaker::Loudspeaker;
use thrubarrier_acoustics::mic::Microphone;
use thrubarrier_acoustics::propagation::speech_gain_for_spl;
use thrubarrier_acoustics::room::{Room, RoomId};
use thrubarrier_acoustics::scene::AcousticPath;
use thrubarrier_dsp::{stats, AudioBuffer};
use thrubarrier_phoneme::common::{common_phonemes, CommonPhoneme};
use thrubarrier_phoneme::corpus::phoneme_samples;
use thrubarrier_phoneme::inventory::PhonemeId;
use thrubarrier_phoneme::speaker::SpeakerProfile;
use thrubarrier_phoneme::synth::Synthesizer;
use thrubarrier_vibration::Wearable;

/// Configuration of the offline selection experiment.
#[derive(Debug, Clone)]
pub struct SelectionConfig {
    /// The magnitude threshold α (paper: 0.015, from the ambient-noise
    /// FFT magnitude).
    pub alpha: f32,
    /// Sound segments per phoneme (paper: 100).
    pub samples_per_phoneme: usize,
    /// Attack sound pressure levels in dB SPL (paper: 75 and 85).
    pub spl_levels: Vec<f32>,
    /// Rooms whose barriers are screened (paper: glass window + wooden
    /// door).
    pub rooms: Vec<Room>,
    /// Loudspeaker-to-microphone distance in metres.
    pub distance_m: f32,
    /// FFT size for the vibration magnitude spectra.
    pub n_fft: usize,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            alpha: 0.015,
            samples_per_phoneme: 24,
            spl_levels: vec![75.0, 85.0],
            rooms: vec![Room::paper_room(RoomId::A), Room::paper_room(RoomId::B)],
            distance_m: 2.0,
            n_fft: 64,
        }
    }
}

/// Per-phoneme screening statistics.
#[derive(Debug, Clone)]
pub struct PhonemeStats {
    /// Which phoneme.
    pub id: PhonemeId,
    /// ARPAbet symbol.
    pub symbol: &'static str,
    /// Q3 vibration FFT magnitude per bin, thru-barrier condition.
    pub q3_adv: Vec<f32>,
    /// Q3 vibration FFT magnitude per bin, no-barrier condition.
    pub q3_user: Vec<f32>,
    /// `max_f Q3_adv < α` (Eq. 2).
    pub passes_criterion_1: bool,
    /// `min_f Q3_user > α` (Eq. 3).
    pub passes_criterion_2: bool,
}

impl PhonemeStats {
    /// Whether the phoneme is barrier-effect sensitive (both criteria).
    pub fn selected(&self) -> bool {
        self.passes_criterion_1 && self.passes_criterion_2
    }
}

/// Result of the offline selection.
#[derive(Debug, Clone)]
pub struct PhonemeSelection {
    /// Statistics for every screened phoneme, in Table II order.
    pub stats: Vec<PhonemeStats>,
    /// Center frequency of each evaluated bin, in Hz.
    pub bin_frequencies: Vec<f32>,
    /// The threshold α used.
    pub alpha: f32,
}

impl PhonemeSelection {
    /// Ids of the selected (barrier-effect-sensitive) phonemes.
    pub fn selected_ids(&self) -> Vec<PhonemeId> {
        self.stats
            .iter()
            .filter(|s| s.selected())
            .map(|s| s.id)
            .collect()
    }

    /// Symbols of the selected phonemes.
    pub fn selected_symbols(&self) -> Vec<&'static str> {
        self.stats
            .iter()
            .filter(|s| s.selected())
            .map(|s| s.symbol)
            .collect()
    }

    /// Symbols of the rejected phonemes.
    pub fn rejected_symbols(&self) -> Vec<&'static str> {
        self.stats
            .iter()
            .filter(|s| !s.selected())
            .map(|s| s.symbol)
            .collect()
    }

    /// Statistics for one phoneme by symbol.
    pub fn stats_for(&self, symbol: &str) -> Option<&PhonemeStats> {
        self.stats.iter().find(|s| s.symbol == symbol)
    }
}

/// Calibration from our simulated accelerometer's arbitrary output units
/// to the paper's reported FFT-magnitude units, chosen so that the
/// paper's literal threshold α = 0.015 separates the same populations it
/// separates on the real sensor (the ambient/weak-phoneme floor below,
/// ordinary speech phonemes above).
pub const MAGNITUDE_CALIBRATION: f32 = 0.565;

/// Welch-style magnitude spectrum of a vibration signal: the mean
/// per-bin magnitude of a 64-point Hann STFT, in calibrated units.
/// Averaging frames makes the statistic comparable across segment
/// durations (unlike a single padded FFT, whose magnitudes scale with
/// length).
pub fn vibration_magnitude_spectrum(vib: &AudioBuffer, n_fft: usize) -> Vec<f32> {
    if vib.is_empty() {
        return vec![0.0; n_fft / 2 + 1];
    }
    let stft =
        thrubarrier_dsp::Stft::new(n_fft, n_fft / 2, thrubarrier_dsp::window::WindowKind::Hann)
            .expect("n_fft >= 2");
    let spec = stft.magnitude_spectrogram(vib.samples(), vib.sample_rate());
    spec.mean_per_bin()
        .into_iter()
        .map(|m| m * MAGNITUDE_CALIBRATION)
        .collect()
}

/// Q3 magnitude per bin over a set of vibration signals.
pub fn q3_per_bin(vibs: &[AudioBuffer], n_fft: usize) -> Vec<f32> {
    let n_bins = n_fft / 2 + 1;
    if vibs.is_empty() {
        return vec![0.0; n_bins];
    }
    let spectra: Vec<Vec<f32>> = vibs
        .iter()
        .map(|v| vibration_magnitude_spectrum(v, n_fft))
        .collect();
    (0..n_bins)
        .map(|b| {
            let col: Vec<f32> = spectra.iter().map(|s| s[b]).collect();
            stats::third_quartile(&col)
        })
        .collect()
}

/// Runs the offline phoneme-selection experiment.
///
/// For each of the 37 common phonemes, `samples_per_phoneme` segments are
/// synthesized across the speaker panel and replayed by a loudspeaker at
/// the configured SPLs — once through each room's barrier, once without —
/// recorded at `distance_m`, converted to the vibration domain by
/// `wearable`, and screened by the two criteria.
pub fn run_selection<R: Rng + ?Sized>(
    cfg: &SelectionConfig,
    wearable: &Wearable,
    speakers: &[SpeakerProfile],
    rng: &mut R,
) -> PhonemeSelection {
    let fs = 16_000u32;
    let synth = Synthesizer::new(fs);
    let mic = Microphone::wearable();
    let speaker_device = Loudspeaker::sound_bar();
    let commons: Vec<CommonPhoneme> = common_phonemes();
    let bin_hz = wearable.accelerometer.sample_rate as f32 / cfg.n_fft as f32;
    let n_bins = cfg.n_fft / 2 + 1;
    // Interior evaluation band: above the 5 Hz artifact bins, below the
    // Nyquist edge bin.
    let eval_bins: Vec<usize> = (0..n_bins)
        .filter(|&b| {
            let f = b as f32 * bin_hz;
            f > 5.0 && f < wearable.accelerometer.sample_rate as f32 / 2.0 - bin_hz
        })
        .collect();

    let mut all_stats = Vec::with_capacity(commons.len());
    // Minimum measurement-segment duration: one full vibration STFT
    // window. Short phonemes (stop bursts) are repeated back-to-back to
    // fill it, exactly like a played-back measurement train; repetition
    // preserves the Welch per-bin statistics.
    let min_samples = (0.32 * fs as f32) as usize;
    for common in &commons {
        let raw = phoneme_samples(&synth, common.id, cfg.samples_per_phoneme, speakers, rng);
        let sounds: Vec<Vec<f32>> = raw
            .into_iter()
            .map(|s| {
                let mut seg = s.clone();
                while seg.len() < min_samples {
                    seg.extend_from_slice(&s);
                }
                seg
            })
            .collect();
        let mut adv_vibs = Vec::with_capacity(sounds.len());
        let mut user_vibs = Vec::with_capacity(sounds.len());
        for (i, sound) in sounds.iter().enumerate() {
            let room = &cfg.rooms[i % cfg.rooms.len()];
            let spl = cfg.spl_levels[i % cfg.spl_levels.len()];
            // Speech-level scaling: intrinsic per-phoneme intensity
            // differences must survive (they are what the criteria
            // screen), so the gain is the one that would put a whole
            // passage at `spl`, not this phoneme individually.
            let gain = speech_gain_for_spl(spl);
            let calibrated: Vec<f32> = sound.iter().map(|&x| x * gain).collect();
            // Both paths replay the segment through the same sound bar.
            // `play` draws no RNG, so playing it once and rendering the
            // played signal on loudspeaker-free paths records the same
            // samples as playing it per path.
            let played = speaker_device.play(&calibrated, fs);

            let adv_path = AcousticPath {
                room: room.clone(),
                through_barrier: true,
                distance_m: cfg.distance_m,
                loudspeaker: None,
                render: Default::default(),
            };
            let adv_rec = adv_path.record(&played, fs, &mic, rng);
            adv_vibs.push(wearable.convert(adv_rec.samples(), fs, rng));

            let user_path = AcousticPath {
                through_barrier: false,
                ..adv_path
            };
            let user_rec = user_path.record(&played, fs, &mic, rng);
            user_vibs.push(wearable.convert(user_rec.samples(), fs, rng));
        }
        let q3_adv = q3_per_bin(&adv_vibs, cfg.n_fft);
        let q3_user = q3_per_bin(&user_vibs, cfg.n_fft);
        let max_adv = eval_bins
            .iter()
            .map(|&b| q3_adv[b])
            .fold(f32::NEG_INFINITY, f32::max);
        let min_user = eval_bins
            .iter()
            .map(|&b| q3_user[b])
            .fold(f32::INFINITY, f32::min);
        all_stats.push(PhonemeStats {
            id: common.id,
            symbol: common.symbol,
            q3_adv,
            q3_user,
            passes_criterion_1: max_adv < cfg.alpha,
            passes_criterion_2: min_user > cfg.alpha,
        });
    }
    PhonemeSelection {
        stats: all_stats,
        bin_frequencies: (0..n_bins).map(|b| b as f32 * bin_hz).collect(),
        alpha: cfg.alpha,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrubarrier_phoneme::corpus::speaker_panel;

    fn quick_selection(seed: u64) -> PhonemeSelection {
        let mut rng = StdRng::seed_from_u64(seed);
        let panel = speaker_panel(2, 2, &mut rng);
        let cfg = SelectionConfig {
            samples_per_phoneme: 8,
            ..Default::default()
        };
        run_selection(&cfg, &Wearable::fossil_gen_5(), &panel, &mut rng)
    }

    #[test]
    fn q3_per_bin_shapes() {
        let vibs = vec![
            AudioBuffer::new(vec![0.1; 40], 200),
            AudioBuffer::new(vec![0.2; 40], 200),
        ];
        let q3 = q3_per_bin(&vibs, 64);
        assert_eq!(q3.len(), 33);
        assert!(q3.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn empty_vibration_set_yields_zeros() {
        assert!(q3_per_bin(&[], 64).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn magnitude_spectrum_is_duration_comparable() {
        // The same tone at two durations should give similar magnitudes.
        let short = AudioBuffer::new(thrubarrier_dsp::gen::sine(25.0, 0.1, 200, 0.4), 200);
        let long = AudioBuffer::new(thrubarrier_dsp::gen::sine(25.0, 0.1, 200, 1.2), 200);
        let ms = vibration_magnitude_spectrum(&short, 64);
        let ml = vibration_magnitude_spectrum(&long, 64);
        let peak_s = ms.iter().cloned().fold(0.0f32, f32::max);
        let peak_l = ml.iter().cloned().fold(0.0f32, f32::max);
        assert!(
            (peak_s - peak_l).abs() / peak_l < 0.5,
            "{peak_s} vs {peak_l}"
        );
    }

    // The full-selection behaviour (31 of 37, /s/ /z/ /aa/ /ao/ rejected)
    // is covered by the slower integration tests and the `repro table2`
    // driver; here we only check the experiment runs end to end on a
    // reduced sample count and produces coherent statistics.
    #[test]
    fn selection_runs_and_separates_extremes() {
        let sel = quick_selection(1);
        assert_eq!(sel.stats.len(), 37);
        assert_eq!(sel.bin_frequencies.len(), 33);
        // /s/ is intrinsically weak: it must fail Criterion II.
        let s = sel.stats_for("s").unwrap();
        assert!(!s.passes_criterion_2, "/s/ passed criterion II");
        // /ih/ is a regular vowel: it must be selected.
        let ih = sel.stats_for("ih").unwrap();
        assert!(
            ih.selected(),
            "/ih/ rejected: c1={} c2={}",
            ih.passes_criterion_1,
            ih.passes_criterion_2
        );
        // /aa/ is over-loud: it must fail Criterion I.
        let aa = sel.stats_for("aa").unwrap();
        assert!(!aa.passes_criterion_1, "/aa/ passed criterion I");
    }
}
