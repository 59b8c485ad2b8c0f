//! Cross-device synchronization (paper Sec. VI-A).
//!
//! The VA device and the wearable record the same command, but the WiFi
//! trigger reaches the wearable ~100 ms late and propagation paths
//! differ. The residual offset is estimated by maximizing the
//! cross-correlation between the two audio recordings (paper Eq. 5) and
//! the wearable recording is trimmed to start with the VA's.

use rand::Rng;
use thrubarrier_dsp::{correlate, AudioBuffer, DspError};

/// Typical WiFi trigger delay bounds in seconds (paper: "around 100 ms").
pub const NETWORK_DELAY_RANGE_S: (f32, f32) = (0.04, 0.18);

/// Draws a random network trigger delay within
/// [`NETWORK_DELAY_RANGE_S`].
pub fn random_network_delay<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    rng.gen_range(NETWORK_DELAY_RANGE_S.0..NETWORK_DELAY_RANGE_S.1)
}

/// Simulates the wearable starting its recording `delay_s` after the VA:
/// the first `delay_s` of the signal are lost (the wearable simply was
/// not recording yet).
pub fn apply_trigger_delay(signal: &AudioBuffer, delay_s: f32) -> AudioBuffer {
    let skip = (delay_s * signal.sample_rate() as f32).round() as usize;
    signal.slice(skip, signal.len())
}

/// Estimates the wearable recording's offset relative to the VA
/// recording (in samples of the common rate) and aligns the wearable
/// recording to the VA's timeline.
///
/// Returns the aligned wearable recording and the estimated delay in
/// samples (positive = wearable started late).
///
/// # Errors
///
/// Returns an error if either recording is empty or the rates differ.
pub fn synchronize(
    va: &AudioBuffer,
    wearable: &AudioBuffer,
    max_delay_s: f32,
) -> Result<(AudioBuffer, isize), DspError> {
    if va.sample_rate() != wearable.sample_rate() {
        return Err(DspError::DimensionMismatch {
            left: va.sample_rate() as usize,
            right: wearable.sample_rate() as usize,
        });
    }
    let max_lag = (max_delay_s * va.sample_rate() as f32).round() as usize;
    // The wearable misses the beginning, i.e. its content is the VA's
    // shifted *earlier*; estimate the delay of the VA signal relative to
    // the wearable signal. The engine searches only the ±max_lag window
    // (exact bounded-FFT correlation on recordings this long).
    let delay = correlate::estimate_delay(wearable.samples(), va.samples(), max_lag)?;
    // Invariant: the VA recording is authoritative — its timeline is
    // never shifted. The wearable recording is moved onto it (the
    // estimated missing prefix becomes silence when `delay > 0`) and
    // then trimmed to the VA's length, so both outputs share the VA's
    // start instant and a common length.
    let wearable_aligned = correlate::align_by_delay(wearable.samples(), -delay);
    let m = wearable_aligned.len().min(va.len());
    Ok((
        AudioBuffer::new(wearable_aligned[..m].to_vec(), va.sample_rate()),
        delay,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrubarrier_dsp::gen;

    fn speechlike(seed: u64, n: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sig = gen::gaussian_noise(&mut rng, 0.1, n);
        // Add temporal structure so correlation peaks sharply.
        for (i, v) in sig.iter_mut().enumerate() {
            *v *= 0.5 + 0.5 * (i as f32 / 800.0).sin().abs();
        }
        sig
    }

    #[test]
    fn trigger_delay_drops_prefix() {
        let buf = AudioBuffer::new((0..1_600).map(|i| i as f32).collect(), 16_000);
        let delayed = apply_trigger_delay(&buf, 0.05);
        assert_eq!(delayed.len(), 800);
        assert_eq!(delayed.samples()[0], 800.0);
    }

    #[test]
    fn synchronize_recovers_network_delay() {
        let fs = 16_000u32;
        let source = speechlike(1, 2 * fs as usize);
        let va = AudioBuffer::new(source.clone(), fs);
        for delay_s in [0.05f32, 0.1, 0.17] {
            let wearable = apply_trigger_delay(&va, delay_s);
            let (aligned, est) = synchronize(&va, &wearable, 0.25).unwrap();
            let expected = (delay_s * fs as f32).round() as isize;
            assert!(
                (est - expected).abs() <= 2,
                "estimated {est} vs expected {expected}"
            );
            // Aligned signal overlays the VA recording after the gap.
            let offset = est as usize + 100;
            let d: f32 = aligned.samples()[offset..offset + 400]
                .iter()
                .zip(&va.samples()[offset..offset + 400])
                .map(|(a, b)| (a - b).abs())
                .sum();
            assert!(d < 1e-3, "misaligned content, err {d}");
        }
    }

    #[test]
    fn synchronize_with_noise_and_channel_difference() {
        let fs = 16_000u32;
        let source = speechlike(2, 2 * fs as usize);
        let mut rng = StdRng::seed_from_u64(3);
        let va = AudioBuffer::new(source.clone(), fs);
        let mut w = apply_trigger_delay(&va, 0.09).into_samples();
        // Different gain + independent noise on the wearable channel.
        for v in &mut w {
            *v = *v * 0.6 + 0.01 * thrubarrier_dsp::gen::standard_normal(&mut rng);
        }
        let (_, est) = synchronize(&va, &AudioBuffer::new(w, fs), 0.25).unwrap();
        let expected = (0.09 * fs as f32).round() as isize;
        assert!((est - expected).abs() <= 3, "est {est} vs {expected}");
    }

    #[test]
    fn synchronize_rejects_rate_mismatch() {
        let a = AudioBuffer::new(vec![0.0; 100], 16_000);
        let b = AudioBuffer::new(vec![0.0; 100], 8_000);
        assert!(synchronize(&a, &b, 0.1).is_err());
    }

    #[test]
    fn random_delay_is_in_documented_range() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let d = random_network_delay(&mut rng);
            assert!((NETWORK_DELAY_RANGE_S.0..NETWORK_DELAY_RANGE_S.1).contains(&d));
        }
    }

    #[test]
    fn zero_delay_alignment_is_identity_prefix() {
        let fs = 16_000u32;
        let source = speechlike(5, fs as usize);
        let va = AudioBuffer::new(source.clone(), fs);
        let (aligned, est) = synchronize(&va, &va, 0.2).unwrap();
        assert_eq!(est, 0);
        assert_eq!(aligned.samples(), va.samples());
    }
}
