//! Property-based tests for the cross-domain sensing substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use thrubarrier_dsp::{gen, stats, AudioBuffer};
use thrubarrier_vibration::motion::BodyMotion;
use thrubarrier_vibration::{Accelerometer, Wearable};

/// The staged per-effect conversion chain: speaker band-limit, then the
/// accelerometer's capture (coupling, leak, ADC, noise), then body
/// motion, each a separate pass. The fused engine computes the same
/// thing in one transform; this is its parity oracle.
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

/// RMS of the elementwise difference of two equal-length conversions.
fn diff_rms(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len());
    let mut num = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        num += f64::from(x - y) * f64::from(x - y);
    }
    (num / a.len().max(1) as f64).sqrt()
}

/// Runs the fused engine and the staged oracle on the same seed and
/// gates their difference with a hybrid relative + absolute tolerance.
///
/// The gate is a tolerance, not bitwise equality, for two structural
/// reasons (see `thrubarrier_vibration::engine` docs): the staged chain
/// truncates the played signal to the input length and re-pads with
/// zeros before the coupling filter, while the fused path multiplies
/// both curves on the untruncated spectrum; and Parseval noise metering
/// integrates the whole padded block where the oracle's RMS sees only
/// the truncated samples. The relative term bounds those edge effects
/// (largest when the zero pad approaches half the FFT block — an
/// empirical sweep across devices, lengths, ADC modes and seeds peaks
/// near 17% of signal RMS at ~46% padding); the absolute term covers
/// conversions whose output sits at the sensor noise floor, where a
/// purely relative measure degenerates.
fn assert_paths_agree(w: &Wearable, sig: &[f32], sample_rate: u32, seed: u64) {
    let fused = w.convert(sig, sample_rate, &mut StdRng::seed_from_u64(seed));
    let staged = convert_staged(w, sig, sample_rate, &mut StdRng::seed_from_u64(seed));
    assert_eq!(fused.len(), staged.len());
    assert_eq!(fused.sample_rate(), staged.sample_rate());
    let d = diff_rms(fused.samples(), staged.samples());
    let gate = 0.15 * f64::from(stats::rms(staged.samples()))
        + 2.0 * f64::from(w.accelerometer.noise_floor);
    assert!(
        d <= gate,
        "fused/staged diff rms {d} exceeds gate {gate} for len {} at {sample_rate} Hz",
        sig.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn capture_length_is_decimated_input_length(
        n in 1usize..40_000,
        seed in 0u64..50,
    ) {
        let acc = Accelerometer::smartwatch_200hz();
        let mut rng = StdRng::seed_from_u64(seed);
        let sig = vec![0.01f32; n];
        let vib = acc.capture(&sig, 16_000, &mut rng);
        prop_assert_eq!(vib.len(), n.div_ceil(80));
        prop_assert_eq!(vib.sample_rate(), 200);
    }

    #[test]
    fn capture_output_is_finite(seed in 0u64..50, amp in 0.0f32..0.5) {
        let acc = Accelerometer::smartwatch_200hz();
        let mut rng = StdRng::seed_from_u64(seed);
        let sig = gen::chirp(100.0, 4_000.0, amp, 16_000, 0.5);
        let vib = acc.capture(&sig, 16_000, &mut rng);
        prop_assert!(vib.samples().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn coupling_gain_is_nonnegative_and_bounded(f in 0.0f32..8_000.0) {
        let acc = Accelerometer::smartwatch_200hz();
        let g = acc.coupling_gain(f);
        prop_assert!((0.0..=1.0).contains(&g));
    }

    #[test]
    fn louder_wideband_excitation_gives_stronger_vibration(
        seed in 0u64..40,
        amp in 0.02f32..0.2,
    ) {
        let w = Wearable::fossil_gen_5();
        let quiet = gen::chirp(500.0, 3_000.0, amp, 16_000, 1.0);
        let loud = gen::chirp(500.0, 3_000.0, amp * 3.0, 16_000, 1.0);
        let vq = w.convert(&quiet, 16_000, &mut StdRng::seed_from_u64(seed));
        let vl = w.convert(&loud, 16_000, &mut StdRng::seed_from_u64(seed));
        prop_assert!(vl.rms() > vq.rms());
    }

    #[test]
    fn conversion_snr_favors_high_frequencies(
        lo in 100.0f32..400.0,
        hi in 1_200.0f32..3_000.0,
    ) {
        let acc = Accelerometer::smartwatch_200hz();
        let low_tone = gen::sine(lo, 0.1, 16_000, 0.5);
        let high_tone = gen::sine(hi, 0.1, 16_000, 0.5);
        let snr_low = acc.conversion_snr_db(&low_tone, 16_000);
        let snr_high = acc.conversion_snr_db(&high_tone, 16_000);
        prop_assert!(
            snr_high > snr_low,
            "low {lo} Hz: {snr_low} dB, high {hi} Hz: {snr_high} dB"
        );
    }

    #[test]
    fn body_motion_stays_below_5hz(seed in 0u64..50, amp in 0.005f32..0.1) {
        let mut rng = StdRng::seed_from_u64(seed);
        let motion = BodyMotion { amplitude: amp, dominant_hz: 1.5 };
        let sig = motion.generate(1_000, 200, &mut rng);
        let mags = thrubarrier_dsp::fft::magnitude_spectrum(&sig, 1_024);
        let bin_hz = 200.0 / 1_024.0;
        let above: f32 = mags
            .iter()
            .enumerate()
            .filter(|(k, _)| (*k as f32) * bin_hz >= 6.0)
            .map(|(_, &m)| m * m)
            .sum();
        let total: f32 = mags.iter().map(|&m| m * m).sum();
        prop_assert!(above < total * 0.03, "above-6Hz share {}", above / total); // 3% allows finite-window leakage
    }

    #[test]
    fn fused_matches_staged_across_devices_and_signals(
        device in 0usize..2,
        seed in 0u64..30,
        lo in 80.0f32..600.0,
        span in 400.0f32..3_000.0,
        amp in 0.05f32..1.5,
        dur in 0.02f32..0.25,
    ) {
        let w = if device == 0 { Wearable::fossil_gen_5() } else { Wearable::moto_360() };
        let sig = gen::chirp(lo, lo + span, dur, 16_000, amp);
        assert_paths_agree(&w, &sig, 16_000, seed);
    }

    #[test]
    fn fused_matches_staged_at_48khz(
        seed in 0u64..20,
        hi in 2_000.0f32..8_000.0,
        amp in 0.1f32..1.0,
    ) {
        let w = Wearable::fossil_gen_5();
        let sig = gen::chirp(200.0, hi, 0.05, 48_000, amp);
        assert_paths_agree(&w, &sig, 48_000, seed);
    }

    #[test]
    fn fused_matches_staged_with_anti_alias_adc(
        device in 0usize..2,
        seed in 0u64..20,
        amp in 0.1f32..1.0,
    ) {
        let mut w = if device == 0 { Wearable::fossil_gen_5() } else { Wearable::moto_360() };
        w.accelerometer.anti_alias = true;
        let sig = gen::chirp(150.0, 3_500.0, 0.08, 16_000, amp);
        assert_paths_agree(&w, &sig, 16_000, seed);
    }

    #[test]
    fn fused_matches_staged_under_body_motion(
        seed in 0u64..20,
        amp in 0.1f32..1.0,
    ) {
        // Body motion is orders of magnitude stronger than the converted
        // signal, and both paths mix bit-identical interference — so the
        // relative gap should tighten, not loosen.
        let w = Wearable::fossil_gen_5().with_body_motion(BodyMotion::walking());
        let sig = gen::chirp(300.0, 2_500.0, 0.1, 16_000, amp);
        assert_paths_agree(&w, &sig, 16_000, seed);
    }

    #[test]
    fn fused_matches_staged_on_short_inputs(
        n in 0usize..400,
        seed in 0u64..20,
    ) {
        // Short / empty inputs stress padding edge cases (n < one ADC
        // period, n == 1 → single-bin spectrum).
        let w = Wearable::moto_360();
        let sig: Vec<f32> = (0..n).map(|i| 0.3 * (i as f32 * 0.7).sin()).collect();
        assert_paths_agree(&w, &sig, 16_000, seed);
    }

    #[test]
    fn empty_and_tiny_inputs_are_safe(n in 0usize..5, seed in 0u64..20) {
        let w = Wearable::fossil_gen_5();
        let mut rng = StdRng::seed_from_u64(seed);
        let sig = vec![0.1f32; n];
        let vib = w.convert(&sig, 16_000, &mut rng);
        prop_assert!(vib.len() <= 1);
        prop_assert!(stats::rms(vib.samples()).is_finite());
    }
}
