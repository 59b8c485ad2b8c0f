//! Fused single-transform conversion engine.
//!
//! The staged conversion chain (speaker play, then accelerometer
//! capture, then body motion, each a separate pass) runs **three**
//! independent frequency-domain filter round-trips per conversion —
//! speaker band-limit, accelerometer coupling, and the
//! brick-wall low-band pass that meters readout-noise drive — each a
//! forward FFT plus an inverse FFT plus a full-size temporary. All
//! three operate on the same spectrum, so the engine collapses them
//! into **one forward transform**:
//!
//! 1. forward real FFT of the recording (`next_pow2` padded, planned);
//! 2. multiply the spectrum by the cached speaker curve, inverse once
//!    for the time-domain `played` signal (needed only because the
//!    rectification leak is a time-domain envelope follower);
//! 3. meter the low-band RMS **directly on the speaker-weighted
//!    spectrum via Parseval** — no third filter pass, no full-size
//!    low-band temporary;
//! 4. multiply further by the cached coupling curve, inverse once for
//!    the `coupled` signal.
//!
//! That is 1 forward + 2 inverse transforms instead of 3 + 3. The leak
//! and body-motion interference are then added in place, and the ADC /
//! noise stages run unchanged. Curve tables come from the same
//! per-thread cache the staged chain uses, so fused and staged
//! conversions multiply bit-identical gains; the results still differ
//! at tolerance level (not bitwise) because the staged chain truncates
//! the intermediate `played` signal back to the input length before
//! re-transforming (re-zeroing the pad region the combined-curve
//! product keeps), and because Parseval metering integrates the whole
//! padded block where the oracle measures only the truncated samples.
//! Parity is therefore gated by tolerance proptests against a
//! test-local copy of the staged chain (`tests/properties.rs`).
//!
//! [`ConversionEngine`] owns the spectrum/signal scratch (the
//! `GemmScratch` pattern), and [`with_engine`] hands out a per-thread
//! instance so steady-state conversions allocate only their output.
//! [`ConversionEngine::convert_pair`] converts a recording pair —
//! `DefenseSystem::vibration_score`'s shape — through one engine
//! borrow and one warm plan/curve set.

use crate::wearable::Wearable;
use rand::Rng;
use std::cell::RefCell;
use thrubarrier_dsp::{fft, gen, resample, AudioBuffer, Complex};

/// Reusable scratch for fused audio→vibration conversions.
///
/// Holds the half-spectrum and time-domain working buffers; FFT plans
/// and sampled response curves come from the dsp crate's per-thread
/// caches. One engine converts any number of signals of any length —
/// buffers grow to the largest conversion seen and are reused. Both
/// inverse transforms run at the padded size `n` but write only the
/// recording's `len` samples, so `played` and `coupled` never hold the
/// padding.
#[derive(Debug, Default)]
pub struct ConversionEngine {
    /// Half-spectrum of the padded recording (`n/2 + 1` bins).
    spec: Vec<Complex>,
    /// Speaker-filtered time-domain signal (drives the leak envelope).
    played: Vec<f32>,
    /// Coupling-filtered signal, later mixed with the leak in place.
    coupled: Vec<f32>,
}

impl ConversionEngine {
    /// Creates an engine with empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cross-domain conversion of one recording: one forward transform,
    /// two curve multiplies, two inverse transforms (each writing the
    /// recording's length, not the padded block), Parseval noise
    /// metering, in-place leak / interference mixing. Semantics match
    /// the staged chain: same output rate and length, same RNG draw
    /// sequence, tolerance-level numeric agreement.
    pub fn convert<R: Rng + ?Sized>(
        &mut self,
        wearable: &Wearable,
        recording: &[f32],
        sample_rate: u32,
        rng: &mut R,
    ) -> AudioBuffer {
        let _span = thrubarrier_obs::span!("vibration.convert");
        let acc = &wearable.accelerometer;
        if recording.is_empty() {
            let mut vib = AudioBuffer::empty(acc.sample_rate);
            if let Some(motion) = &wearable.body_motion {
                // The staged chain draws the three phase values even for
                // an empty capture; match it so RNG streams stay aligned.
                motion.add_into(vib.samples_mut(), acc.sample_rate, rng);
            }
            return vib;
        }
        let len = recording.len();
        let n = fft::next_pow2(len);

        // One forward transform of the padded recording.
        fft::half_spectrum_into(recording, n, &mut self.spec);

        // Speaker band-limit on the spectrum (same cached table
        // `WearableSpeaker::play` filters through).
        wearable
            .speaker
            .response_curve(n, sample_rate)
            .apply_to_spectrum(&mut self.spec);

        // Readout-noise drive, metered on the speaker-weighted spectrum:
        // the staged chain low-pass-filters the played signal a third
        // time just to take an RMS; by Parseval that RMS is a weighted
        // bin-energy sum over the low band.
        let low_rms = low_band_rms_parseval(
            &self.spec,
            n,
            len,
            sample_rate,
            crate::Accelerometer::LOW_BAND_SPLIT_HZ,
        );

        // Time-domain played signal — needed only for the rectification
        // leak's envelope follower.
        self.played.clear();
        fft::real_inverse_into(&self.spec, n, len, &mut self.played);

        // Coupling response stacked on the same spectrum, then the
        // second (and last) inverse transform.
        acc.coupling_curve_table(n, sample_rate)
            .apply_to_spectrum(&mut self.spec);
        self.coupled.clear();
        fft::real_inverse_into(&self.spec, n, len, &mut self.coupled);

        // Rectification leak, mixed into the coupled signal in place.
        acc.add_rectification_leak(&self.played, &mut self.coupled, sample_rate);

        // The ADC (no anti-aliasing by default: the fold-down is the
        // defense's signal), then level-dependent readout noise.
        let factor = (sample_rate / acc.sample_rate).max(1) as usize;
        let mut sampled = if acc.anti_alias {
            resample::decimate(&self.coupled, factor, sample_rate)
                .expect("factor >= 1 by construction")
        } else {
            resample::decimate_aliased(&self.coupled, factor).expect("factor >= 1 by construction")
        };
        let noise_std = acc.noise_std_for(low_rms);
        gen::add_gaussian_noise(&mut sampled, noise_std, rng);

        let mut vib = AudioBuffer::new(sampled, acc.sample_rate);
        if let Some(motion) = &wearable.body_motion {
            motion.add_into(vib.samples_mut(), acc.sample_rate, rng);
        }
        vib
    }

    /// Converts a recording pair — the VA recording and the wearable
    /// recording of `DefenseSystem::vibration_score` — back-to-back
    /// through one engine borrow, sharing warm plans, curve tables and
    /// scratch across both conversions. Equivalent to two sequential
    /// [`ConversionEngine::convert`] calls on the same RNG.
    pub fn convert_pair<R: Rng + ?Sized>(
        &mut self,
        wearable: &Wearable,
        va_audio: &[f32],
        wearable_audio: &[f32],
        sample_rate: u32,
        rng: &mut R,
    ) -> (AudioBuffer, AudioBuffer) {
        let _span = thrubarrier_obs::span!("vibration.convert_pair");
        let a = self.convert(wearable, va_audio, sample_rate, rng);
        let b = self.convert(wearable, wearable_audio, sample_rate, rng);
        (a, b)
    }
}

/// RMS of the `<= split_hz` band of the length-`len` signal whose
/// padded half-spectrum is `spec`, via Parseval's theorem: the energy
/// of the brick-wall-filtered signal equals the masked bin-energy sum
/// divided by the transform length, so no inverse transform (and no
/// full-size temporary) is needed to meter it.
///
/// Bin `k` of an `n`-point real FFT carries weight 2 except DC and
/// Nyquist, which appear once in the full spectrum. The band edge uses
/// the same `k * (sample_rate / n) <= split_hz` comparison the staged
/// chain's sampled brick-wall curve evaluates, so both paths mask the
/// identical bin set. The sum runs in f64: it is one scalar per
/// conversion and the staged oracle accumulates in time domain where
/// energy is spread over thousands of samples, so the cheap extra
/// precision keeps the parity gap down to the genuine
/// truncation-vs-padding difference.
fn low_band_rms_parseval(
    spec: &[Complex],
    n: usize,
    len: usize,
    sample_rate: u32,
    split_hz: f32,
) -> f32 {
    let bin_hz = sample_rate as f32 / n as f32;
    let mut energy = 0.0f64;
    for (k, c) in spec.iter().enumerate() {
        if k as f32 * bin_hz > split_hz {
            break;
        }
        let weight = if k == 0 || k == n / 2 { 1.0 } else { 2.0 };
        energy += weight * f64::from(c.norm_sq());
    }
    ((energy / n as f64 / len as f64).sqrt()) as f32
}

thread_local! {
    static ENGINE: RefCell<ConversionEngine> = RefCell::new(ConversionEngine::new());
}

/// Runs `f` with this thread's [`ConversionEngine`] — the per-thread
/// scratch-reuse entry point ([`Wearable::convert`] goes through it,
/// and pair call sites use it to reach
/// [`ConversionEngine::convert_pair`]).
///
/// # Panics
///
/// Panics if `f` re-enters `with_engine` on the same thread (the
/// engine is a single per-thread instance behind a `RefCell`).
pub fn with_engine<R>(f: impl FnOnce(&mut ConversionEngine) -> R) -> R {
    ENGINE.with(|e| f(&mut e.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motion::BodyMotion;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrubarrier_dsp::stats;

    /// The staged per-effect chain the engine fuses (the parity oracle
    /// of `tests/properties.rs`).
    fn convert_staged(
        w: &Wearable,
        recording: &[f32],
        sample_rate: u32,
        rng: &mut StdRng,
    ) -> AudioBuffer {
        let played = w.speaker.play(recording, sample_rate);
        let mut vib = w.accelerometer.capture(&played, sample_rate, rng);
        if let Some(motion) = &w.body_motion {
            let rate = vib.sample_rate();
            motion.add_into(vib.samples_mut(), rate, rng);
        }
        vib
    }

    #[test]
    fn fused_output_has_staged_rate_and_length() {
        let w = Wearable::fossil_gen_5();
        let mut rng = StdRng::seed_from_u64(1);
        let sig = thrubarrier_dsp::gen::chirp(200.0, 3_000.0, 0.1, 16_000, 1.0);
        let vib = with_engine(|e| e.convert(&w, &sig, 16_000, &mut rng));
        assert_eq!(vib.sample_rate(), 200);
        assert_eq!(vib.len(), 200);
        assert!(vib.rms() > 0.0);
    }

    #[test]
    fn convert_pair_is_two_sequential_converts() {
        let w = Wearable::fossil_gen_5().with_body_motion(BodyMotion::walking());
        let a = thrubarrier_dsp::gen::chirp(150.0, 3_000.0, 0.1, 16_000, 0.7);
        let b = thrubarrier_dsp::gen::chirp(300.0, 2_000.0, 0.1, 16_000, 0.5);
        let mut rng_pair = StdRng::seed_from_u64(9);
        let (pa, pb) = with_engine(|e| e.convert_pair(&w, &a, &b, 16_000, &mut rng_pair));
        let mut rng_seq = StdRng::seed_from_u64(9);
        let sa = w.convert(&a, 16_000, &mut rng_seq);
        let sb = w.convert(&b, 16_000, &mut rng_seq);
        assert_eq!(pa.samples(), sa.samples());
        assert_eq!(pb.samples(), sb.samples());
    }

    #[test]
    fn parseval_metering_matches_oracle_low_band_rms() {
        // Parseval on the speaker-weighted spectrum vs the staged
        // chain's filter-then-rms: same quantity up to the pad-region
        // energy the oracle truncates away.
        let w = Wearable::fossil_gen_5();
        let sig = thrubarrier_dsp::gen::chirp(100.0, 3_000.0, 0.12, 16_000, 1.0);
        let played = w.speaker.play(&sig, 16_000);
        let n = fft::next_pow2(sig.len());
        let mut spec = Vec::new();
        fft::half_spectrum_into(&sig, n, &mut spec);
        w.speaker
            .response_curve(n, 16_000)
            .apply_to_spectrum(&mut spec);
        let fused = low_band_rms_parseval(
            &spec,
            n,
            sig.len(),
            16_000,
            crate::Accelerometer::LOW_BAND_SPLIT_HZ,
        );
        let key = thrubarrier_dsp::response::curve_key(0x4143_435F_4C4F, &[500.0f32]);
        let low = thrubarrier_dsp::response::filter_cached(key, &played, 16_000, |f| {
            if f <= 500.0 {
                1.0
            } else {
                0.0
            }
        });
        let oracle = stats::rms(&low);
        let rel = (fused - oracle).abs() / oracle.max(1e-12);
        assert!(rel < 0.05, "fused {fused} vs oracle {oracle} (rel {rel})");
    }

    #[test]
    fn empty_recording_keeps_rng_stream_aligned_with_staged() {
        let w = Wearable::fossil_gen_5().with_body_motion(BodyMotion::walking());
        let mut rng_fused = StdRng::seed_from_u64(5);
        let mut rng_staged = StdRng::seed_from_u64(5);
        let fused = w.convert(&[], 16_000, &mut rng_fused);
        let staged = convert_staged(&w, &[], 16_000, &mut rng_staged);
        assert!(fused.is_empty() && staged.is_empty());
        // Both paths must have consumed the same number of draws.
        use rand::Rng as _;
        assert_eq!(rng_fused.gen::<u64>(), rng_staged.gen::<u64>());
    }
}
