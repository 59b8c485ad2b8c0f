//! Sample-rate conversion — with and without anti-aliasing.
//!
//! The deliberate-aliasing path ([`decimate_aliased`]) is central to this
//! workspace: commercial wearable accelerometers sample at ~200 Hz with no
//! acoustic anti-aliasing front-end, so audio energy above 100 Hz folds
//! into the 0–100 Hz band (paper Sec. IV-B, "Ambiguous Signal Conversion
//! in Cross-domain Sensing"). The defense *relies* on that fold-down to
//! see high-frequency speech energy in the vibration domain.

use crate::error::DspError;
use crate::filter;

/// Decimates by an integer factor **without anti-aliasing**: keeps every
/// `factor`-th sample. High-frequency content aliases into the output
/// band, exactly like an ADC sampling a wideband vibration.
///
/// # Errors
///
/// Returns [`DspError::InvalidFilterParameter`] if `factor` is zero.
///
/// # Example
///
/// ```
/// use thrubarrier_dsp::{gen, resample, stats};
///
/// # fn main() -> Result<(), thrubarrier_dsp::DspError> {
/// // A 1.55 kHz tone sampled at 16 kHz, decimated x80 to 200 Hz, aliases
/// // to |1550 - 8*200| = 50 Hz: energy survives instead of vanishing.
/// let tone = gen::sine(1_550.0, 1.0, 16_000, 1.0);
/// let vib = resample::decimate_aliased(&tone, 80)?;
/// assert!(stats::rms(&vib) > 0.5);
/// # Ok(())
/// # }
/// ```
pub fn decimate_aliased(signal: &[f32], factor: usize) -> Result<Vec<f32>, DspError> {
    if factor == 0 {
        return Err(DspError::InvalidFilterParameter(
            "decimation factor must be >= 1".into(),
        ));
    }
    Ok(signal.iter().step_by(factor).copied().collect())
}

/// Decimates by an integer factor **with anti-aliasing**: low-pass filters
/// at 45% of the output Nyquist frequency before keeping every
/// `factor`-th sample.
///
/// # Errors
///
/// Returns [`DspError::InvalidFilterParameter`] if `factor` is zero.
pub fn decimate(signal: &[f32], factor: usize, sample_rate: u32) -> Result<Vec<f32>, DspError> {
    if factor == 0 {
        return Err(DspError::InvalidFilterParameter(
            "decimation factor must be >= 1".into(),
        ));
    }
    if factor == 1 {
        return Ok(signal.to_vec());
    }
    let out_rate = sample_rate as f32 / factor as f32;
    let cutoff = 0.45 * out_rate / 2.0 * 2.0; // 45% of output Nyquist
    let taps = (8 * factor + 1).min(511);
    let h = filter::fir_lowpass(taps, cutoff, sample_rate as f32)?;
    let filtered = filter::fir_filter(signal, &h);
    Ok(filtered.iter().step_by(factor).copied().collect())
}

/// The frequency (Hz) that `f_in` aliases to when sampled at
/// `sample_rate` Hz without anti-aliasing.
///
/// # Example
///
/// ```
/// // 1550 Hz sampled at 200 Hz folds to 50 Hz.
/// assert_eq!(thrubarrier_dsp::resample::alias_frequency(1_550.0, 200.0), 50.0);
/// ```
pub fn alias_frequency(f_in: f32, sample_rate: f32) -> f32 {
    let f = f_in.rem_euclid(sample_rate);
    if f > sample_rate / 2.0 {
        sample_rate - f
    } else {
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fft, gen, stats};

    #[test]
    fn aliased_decimation_folds_tone_to_expected_bin() {
        // 1550 Hz @ 16 kHz -> decimate x80 -> 200 Hz; expect 50 Hz.
        let tone = gen::sine(1_550.0, 1.0, 16_000, 2.0);
        let vib = decimate_aliased(&tone, 80).unwrap();
        assert_eq!(vib.len(), 400);
        let mags = fft::magnitude_spectrum(&vib, 512);
        let peak = stats::argmax(&mags).unwrap();
        let hz = peak as f32 * 200.0 / 512.0;
        assert!((hz - 50.0).abs() < 2.0, "aliased peak at {hz} Hz");
    }

    #[test]
    fn antialiased_decimation_removes_high_tone() {
        let tone = gen::sine(1_550.0, 1.0, 16_000, 2.0);
        let vib = decimate(&tone, 80, 16_000).unwrap();
        assert!(
            stats::rms(&vib) < 0.05,
            "anti-aliased output should be near-silent: {}",
            stats::rms(&vib)
        );
    }

    #[test]
    fn antialiased_decimation_keeps_in_band_tone() {
        let tone = gen::sine(30.0, 1.0, 16_000, 2.0);
        let vib = decimate(&tone, 80, 16_000).unwrap();
        assert!(stats::rms(&vib) > 0.5);
    }

    #[test]
    fn decimate_by_one_is_identity() {
        let sig = vec![1.0, 2.0, 3.0];
        assert_eq!(decimate(&sig, 1, 100).unwrap(), sig);
        assert_eq!(decimate_aliased(&sig, 1).unwrap(), sig);
    }

    #[test]
    fn zero_factor_is_rejected() {
        assert!(decimate_aliased(&[1.0], 0).is_err());
        assert!(decimate(&[1.0], 0, 100).is_err());
    }

    #[test]
    fn alias_frequency_cases() {
        assert_eq!(alias_frequency(50.0, 200.0), 50.0);
        assert_eq!(alias_frequency(150.0, 200.0), 50.0);
        assert_eq!(alias_frequency(200.0, 200.0), 0.0);
        assert_eq!(alias_frequency(1_550.0, 200.0), 50.0);
        assert_eq!(alias_frequency(260.0, 200.0), 60.0);
    }
}
