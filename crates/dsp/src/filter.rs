//! IIR biquad and FIR filters, and fast frequency-domain convolution.
//!
//! The defense pipeline uses a high-pass biquad to strip body-motion
//! interference from accelerometer readings (Sec. IV-C), and the
//! anti-aliasing decimator in [`crate::resample`] is built on the
//! windowed-sinc FIR designed here. Long impulse responses (room
//! reverberation) convolve through [`overlap_save_convolve`] on the
//! planned real-input FFT instead of the O(N·M) direct form.

use crate::error::DspError;
use crate::fft::{half_spectrum_into, next_pow2};
use crate::window::WindowKind;

/// A second-order IIR section (biquad) in direct form I, with RBJ cookbook
/// designs for Butterworth-style low-pass/high-pass responses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Biquad {
    b0: f32,
    b1: f32,
    b2: f32,
    a1: f32,
    a2: f32,
}

impl Biquad {
    /// Designs a low-pass biquad with cutoff `fc` Hz at sample rate `fs`
    /// (Butterworth Q = 1/sqrt(2)).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidFilterParameter`] unless
    /// `0 < fc < fs / 2`.
    pub fn lowpass(fc: f32, fs: f32) -> Result<Self, DspError> {
        Self::design(fc, fs, false)
    }

    /// Designs a high-pass biquad with cutoff `fc` Hz at sample rate `fs`
    /// (Butterworth Q = 1/sqrt(2)).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidFilterParameter`] unless
    /// `0 < fc < fs / 2`.
    pub fn highpass(fc: f32, fs: f32) -> Result<Self, DspError> {
        Self::design(fc, fs, true)
    }

    fn design(fc: f32, fs: f32, high: bool) -> Result<Self, DspError> {
        if !(fc > 0.0 && fc < fs / 2.0) {
            return Err(DspError::InvalidFilterParameter(format!(
                "cutoff {fc} Hz must be in (0, {}) for fs={fs}",
                fs / 2.0
            )));
        }
        let q = std::f32::consts::FRAC_1_SQRT_2;
        let w0 = std::f32::consts::TAU * fc / fs;
        let alpha = w0.sin() / (2.0 * q);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        let (b0, b1, b2) = if high {
            ((1.0 + cw) / 2.0, -(1.0 + cw), (1.0 + cw) / 2.0)
        } else {
            ((1.0 - cw) / 2.0, 1.0 - cw, (1.0 - cw) / 2.0)
        };
        Ok(Biquad {
            b0: b0 / a0,
            b1: b1 / a0,
            b2: b2 / a0,
            a1: (-2.0 * cw) / a0,
            a2: (1.0 - alpha) / a0,
        })
    }

    /// Filters the signal, returning a new vector (zero initial state).
    pub fn filter(&self, signal: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(signal.len());
        let (mut x1, mut x2, mut y1, mut y2) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for &x in signal {
            let y = self.b0 * x + self.b1 * x1 + self.b2 * x2 - self.a1 * y1 - self.a2 * y2;
            x2 = x1;
            x1 = x;
            y2 = y1;
            y1 = y;
            out.push(y);
        }
        out
    }

    /// Zero-phase filtering: forward pass, reverse, forward pass, reverse.
    /// Doubles the effective order and removes group delay; used where the
    /// timing of vibration features must stay aligned across devices.
    pub fn filtfilt(&self, signal: &[f32]) -> Vec<f32> {
        let mut fwd = self.filter(signal);
        fwd.reverse();
        let mut back = self.filter(&fwd);
        back.reverse();
        back
    }
}

/// Designs a windowed-sinc low-pass FIR filter with `taps` coefficients
/// (forced odd) and cutoff `fc` Hz at sample rate `fs`, using a Hamming
/// window.
///
/// # Errors
///
/// Returns [`DspError::InvalidFilterParameter`] unless `0 < fc < fs / 2`
/// and `taps >= 3`.
pub fn fir_lowpass(taps: usize, fc: f32, fs: f32) -> Result<Vec<f32>, DspError> {
    if !(fc > 0.0 && fc < fs / 2.0) {
        return Err(DspError::InvalidFilterParameter(format!(
            "cutoff {fc} Hz must be in (0, {})",
            fs / 2.0
        )));
    }
    if taps < 3 {
        return Err(DspError::InvalidFilterParameter(format!(
            "need at least 3 taps, got {taps}"
        )));
    }
    let taps = if taps.is_multiple_of(2) {
        taps + 1
    } else {
        taps
    };
    let mid = (taps / 2) as isize;
    let fc_norm = fc / fs;
    let win = WindowKind::Hamming.coefficients(taps);
    let mut h: Vec<f32> = (0..taps as isize)
        .map(|i| {
            let n = (i - mid) as f32;
            let sinc = if n == 0.0 {
                2.0 * fc_norm
            } else {
                (std::f32::consts::TAU * fc_norm * n).sin() / (std::f32::consts::PI * n)
            };
            sinc * win[i as usize]
        })
        .collect();
    // Normalize DC gain to 1.
    let sum: f32 = h.iter().sum();
    for v in &mut h {
        *v /= sum;
    }
    Ok(h)
}

/// Convolves `signal` with FIR coefficients `h`, compensating the group
/// delay so the output is time-aligned with the input (same length).
pub fn fir_filter(signal: &[f32], h: &[f32]) -> Vec<f32> {
    if signal.is_empty() || h.is_empty() {
        return vec![0.0; signal.len()];
    }
    let delay = h.len() / 2;
    let mut out = vec![0.0f32; signal.len()];
    for (i, slot) in out.iter_mut().enumerate() {
        let center = i + delay;
        let mut acc = 0.0f32;
        for (k, &hk) in h.iter().enumerate() {
            if let Some(j) = center.checked_sub(k) {
                if j < signal.len() {
                    acc += hk * signal[j];
                }
            }
        }
        *slot = acc;
    }
    out
}

/// Full linear convolution of `signal` with impulse response `ir` via the
/// overlap-save method: the IR spectrum is computed once, then the signal
/// streams through fixed-size FFT blocks, each contributing
/// `n - (ir.len() - 1)` valid output samples after the time-aliased
/// prefix is discarded. Output length is `signal.len() + ir.len() - 1`
/// (the direct-form convolution's), and the FFT size is
/// `next_pow2(max(4·ir.len(), 256))` so per-sample cost stays
/// `O(log ir.len())` regardless of signal length.
///
/// Runs on the planned real-input transform ([`half_spectrum_into`]), so
/// steady state rebuilds no twiddle tables.
pub fn overlap_save_convolve(signal: &[f32], ir: &[f32]) -> Vec<f32> {
    if signal.is_empty() || ir.is_empty() {
        return Vec::new();
    }
    let m = ir.len();
    let out_len = signal.len() + m - 1;
    let n = next_pow2((4 * m).max(256));
    let step = n - (m - 1);
    let mut ir_spec = Vec::new();
    half_spectrum_into(ir, n, &mut ir_spec);
    let mut out = Vec::with_capacity(out_len);
    let mut block = vec![0.0f32; n];
    let mut spec = Vec::new();
    let mut time = Vec::new();
    let mut pos = 0usize;
    while pos < out_len {
        // The block covers input samples [pos - (m-1), pos + step);
        // indices outside the signal are zeros (they produce the leading
        // ramp of the first block and the convolution tail of the last).
        for (j, slot) in block.iter_mut().enumerate() {
            let idx = pos as isize + j as isize - (m as isize - 1);
            *slot = if idx >= 0 && (idx as usize) < signal.len() {
                signal[idx as usize]
            } else {
                0.0
            };
        }
        half_spectrum_into(&block, n, &mut spec);
        for (v, &h) in spec.iter_mut().zip(&ir_spec) {
            *v *= h;
        }
        time.clear();
        crate::fft::real_inverse_into(&spec, n, n, &mut time);
        let take = step.min(out_len - pos);
        out.extend_from_slice(&time[m - 1..m - 1 + take]);
        pos += step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, stats};

    #[test]
    fn lowpass_rejects_bad_cutoff() {
        assert!(Biquad::lowpass(0.0, 100.0).is_err());
        assert!(Biquad::lowpass(60.0, 100.0).is_err());
        assert!(Biquad::lowpass(10.0, 100.0).is_ok());
    }

    #[test]
    fn lowpass_attenuates_high_tone() {
        let fs = 16_000.0;
        let bq = Biquad::lowpass(500.0, fs).unwrap();
        let lo = gen::sine(100.0, 1.0, 16_000, 0.5);
        let hi = gen::sine(4_000.0, 1.0, 16_000, 0.5);
        let lo_out = stats::rms(&bq.filter(&lo));
        let hi_out = stats::rms(&bq.filter(&hi));
        assert!(lo_out > 0.6, "low tone should pass: rms={lo_out}");
        assert!(hi_out < 0.05, "high tone should be blocked: rms={hi_out}");
    }

    #[test]
    fn highpass_attenuates_low_tone() {
        let fs = 200.0;
        let bq = Biquad::highpass(5.0, fs).unwrap();
        let lo = gen::sine(1.0, 1.0, 200, 5.0);
        let hi = gen::sine(40.0, 1.0, 200, 5.0);
        let lo_out = stats::rms(&bq.filter(&lo));
        let hi_out = stats::rms(&bq.filter(&hi));
        assert!(lo_out < 0.1, "1 Hz should be blocked: rms={lo_out}");
        assert!(hi_out > 0.6, "40 Hz should pass: rms={hi_out}");
    }

    #[test]
    fn filtfilt_preserves_alignment_of_peak() {
        // An impulse filtered zero-phase keeps its peak location.
        let mut sig = vec![0.0f32; 401];
        sig[200] = 1.0;
        let bq = Biquad::lowpass(2_000.0, 16_000.0).unwrap();
        let out = bq.filtfilt(&sig);
        assert_eq!(stats::argmax(&out), Some(200));
    }

    #[test]
    fn fir_lowpass_dc_gain_is_unity() {
        let h = fir_lowpass(63, 80.0, 16_000.0).unwrap();
        let dc = vec![1.0f32; 400];
        let out = fir_filter(&dc, &h);
        // Middle of the output should be ~1.
        assert!((out[200] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn fir_lowpass_blocks_above_cutoff() {
        let h = fir_lowpass(127, 80.0, 16_000.0).unwrap();
        let hi = gen::sine(2_000.0, 1.0, 16_000, 0.25);
        let out = fir_filter(&hi, &h);
        assert!(stats::rms(&out) < 0.02);
    }

    #[test]
    fn fir_even_tap_request_is_promoted_to_odd() {
        let h = fir_lowpass(64, 80.0, 16_000.0).unwrap();
        assert_eq!(h.len(), 65);
    }

    #[test]
    fn fir_filter_empty_inputs() {
        assert!(fir_filter(&[], &[1.0]).is_empty());
        assert_eq!(fir_filter(&[1.0, 2.0], &[]), vec![0.0, 0.0]);
    }

    #[test]
    fn fir_rejects_too_few_taps() {
        assert!(fir_lowpass(2, 80.0, 16_000.0).is_err());
    }

    /// Direct O(N·M) reference convolution.
    fn naive_convolve(signal: &[f32], ir: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; signal.len() + ir.len() - 1];
        for (i, &s) in signal.iter().enumerate() {
            for (k, &h) in ir.iter().enumerate() {
                out[i + k] += s * h;
            }
        }
        out
    }

    #[test]
    fn overlap_save_matches_direct_convolution() {
        // Signal lengths straddling one/many blocks and IR lengths
        // straddling the FFT-size floor.
        for (sig_len, ir_len) in [(50usize, 3usize), (400, 64), (1_000, 129), (257, 257)] {
            let signal: Vec<f32> = (0..sig_len)
                .map(|i| ((i * 37) % 19) as f32 * 0.1 - 0.9)
                .collect();
            let ir: Vec<f32> = (0..ir_len)
                .map(|k| ((k * 11) % 7) as f32 * 0.05 - 0.15)
                .collect();
            let fast = overlap_save_convolve(&signal, &ir);
            let reference = naive_convolve(&signal, &ir);
            assert_eq!(fast.len(), reference.len());
            let scale = reference.iter().fold(1.0f32, |a, &b| a.max(b.abs()));
            for (i, (f, r)) in fast.iter().zip(&reference).enumerate() {
                assert!(
                    (f - r).abs() / scale < 1e-4,
                    "sig {sig_len} ir {ir_len} sample {i}: {f} vs {r}"
                );
            }
        }
    }

    #[test]
    fn overlap_save_empty_inputs() {
        assert!(overlap_save_convolve(&[], &[1.0]).is_empty());
        assert!(overlap_save_convolve(&[1.0], &[]).is_empty());
    }

    #[test]
    fn overlap_save_impulse_ir_is_identity() {
        let signal: Vec<f32> = (0..300).map(|i| (i as f32 * 0.1).sin()).collect();
        let out = overlap_save_convolve(&signal, &[1.0]);
        assert_eq!(out.len(), signal.len());
        for (a, b) in signal.iter().zip(&out) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}
