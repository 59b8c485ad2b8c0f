//! Bounded-lag delay estimation and 2-D Pearson correlation.
//!
//! * The cross-device synchronization step (paper Eq. 5) aligns the VA and
//!   wearable recordings with the lag that maximizes their
//!   cross-correlation. [`estimate_delay`] implements it with a
//!   **bounded-lag** correlator: one frequency-domain circular
//!   correlation on the planned real transform, of which only the
//!   `±max_lag` window is read. The tests compare it with a test-local
//!   full direct-form correlation.
//! * The attack detector (paper Eq. 6) scores the similarity of two
//!   normalized vibration spectrograms with a 2-D correlation
//!   coefficient; [`spectrogram_correlation`] implements it directly on
//!   the contiguous [`Spectrogram`] layout, and [`correlation_2d`] on raw
//!   row vectors.
//!
//! The frequency-domain search rounds its transform length up via
//! [`fft::next_pow2`] before touching the planned transforms, so the
//! power-of-two requirement of the plan cache can never surface as a
//! panic from this module.

use crate::complex::Complex;
use crate::error::DspError;
use crate::fft;
use crate::stats;
use crate::stft::Spectrogram;

/// Estimates the delay (in samples) of `delayed` relative to `reference`
/// by maximizing the cross-correlation over `±max_lag`, materializing
/// only that window. A positive return value means `delayed` starts `k`
/// samples later than `reference`.
///
/// `max_lag` bounds the search (use e.g. 2x the worst-case network delay).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if either input is empty, and
/// [`DspError::NonFinite`] if the correlation window holds an infinite
/// or NaN value (inputs so large that the sums overflow): its maximum
/// would name an arbitrary lag.
///
/// # Example
///
/// ```
/// use thrubarrier_dsp::{correlate, gen};
///
/// # fn main() -> Result<(), thrubarrier_dsp::DspError> {
/// let reference = gen::chirp(100.0, 1_000.0, 1.0, 16_000, 0.2);
/// let mut delayed = vec![0.0; 37];
/// delayed.extend_from_slice(&reference);
/// let lag = correlate::estimate_delay(&reference, &delayed, 100)?;
/// assert_eq!(lag, 37);
/// # Ok(())
/// # }
/// ```
pub fn estimate_delay(
    reference: &[f32],
    delayed: &[f32],
    max_lag: usize,
) -> Result<isize, DspError> {
    if delayed.is_empty() {
        return Err(DspError::EmptyInput("estimate_delay delayed"));
    }
    if reference.is_empty() {
        return Err(DspError::EmptyInput("estimate_delay reference"));
    }
    let _span = thrubarrier_obs::span!("dsp.estimate_delay");
    // Lags of `delayed` relative to `reference` with any overlap at all
    // live in [-(M-1), N-1]; clamp the requested window to that range.
    let lag_lo = -(max_lag.min(reference.len() - 1) as isize);
    let lag_hi = max_lag.min(delayed.len() - 1) as isize;
    let window = bounded_window_fft(delayed, reference, lag_lo, lag_hi);
    if !window.iter().all(|c| c.is_finite()) {
        return Err(DspError::NonFinite("estimate_delay correlation window"));
    }
    Ok(lag_lo + stats::argmax(&window).expect("window is non-empty") as isize)
}

/// The `lag_lo..=lag_hi` correlation window of `a` against `b`,
/// `c[lag] = Σ_i a[i] · b[i − lag]`, via circular FFT correlation. The
/// transform length `next_pow2(max(N + |lag_lo|, M + lag_hi))` is
/// exactly what keeps the window free of circular aliasing — for the
/// sync workload (N ≈ M ≈ 1 s, `max_lag` ≈ 0.25 s) it is half the
/// `next_pow2(N + M - 1)` transform of the full correlation.
fn bounded_window_fft(a: &[f32], b: &[f32], lag_lo: isize, lag_hi: isize) -> Vec<f32> {
    let n_fft = fft::next_pow2(
        (a.len() + lag_lo.unsigned_abs()).max(b.len() + lag_hi.max(0).unsigned_abs()),
    );
    let mut fa: Vec<Complex> = Vec::new();
    let mut fb: Vec<Complex> = Vec::new();
    fft::half_spectrum_into(a, n_fft, &mut fa);
    fft::half_spectrum_into(b, n_fft, &mut fb);
    // X(f)·conj(Y(f)) is the spectrum of the circular correlation
    // Σ_i a[i]·b[(i − k) mod n]; with the padding above, the window's
    // lags never wrap into occupied samples.
    for (x, y) in fa.iter_mut().zip(&fb) {
        *x *= y.conj();
    }
    let mut circ = Vec::new();
    fft::real_inverse_into(&fa, n_fft, &mut circ);
    (lag_lo..=lag_hi)
        .map(|lag| circ[lag.rem_euclid(n_fft as isize) as usize])
        .collect()
}

/// Removes the first `delay` samples if positive, or prepends zeros if
/// negative, returning a signal aligned with the reference.
pub fn align_by_delay(signal: &[f32], delay: isize) -> Vec<f32> {
    if delay >= 0 {
        let d = delay as usize;
        if d >= signal.len() {
            Vec::new()
        } else {
            signal[d..].to_vec()
        }
    } else {
        let d = (-delay) as usize;
        let mut out = vec![0.0; d];
        out.extend_from_slice(signal);
        out
    }
}

/// 2-D correlation coefficient between two feature maps (paper Eq. 6).
///
/// Both maps are flattened over their common time support (the first
/// `min(frames)` rows) and compared with a Pearson correlation
/// coefficient. Returns a value in `[-1, 1]`; `0.0` when either map is
/// constant or when there is no overlap.
///
/// # Errors
///
/// Returns [`DspError::DimensionMismatch`] if the maps have different bin
/// counts.
pub fn correlation_2d(a: &[Vec<f32>], b: &[Vec<f32>]) -> Result<f32, DspError> {
    let frames = a.len().min(b.len());
    if frames == 0 {
        return Ok(0.0);
    }
    let bins_a = a[0].len();
    let bins_b = b[0].len();
    if bins_a != bins_b {
        return Err(DspError::DimensionMismatch {
            left: bins_a,
            right: bins_b,
        });
    }
    let fa: Vec<f32> = a.iter().take(frames).flatten().copied().collect();
    let fb: Vec<f32> = b.iter().take(frames).flatten().copied().collect();
    Ok(stats::pearson(&fa, &fb))
}

/// [`correlation_2d`] specialized to [`Spectrogram`]s: the same Pearson
/// score (identical arithmetic and result), computed by streaming over
/// the spectrograms' contiguous rows without flattening either map into a
/// temporary vector.
///
/// # Errors
///
/// Returns [`DspError::DimensionMismatch`] if the spectrograms have
/// different bin counts.
pub fn spectrogram_correlation(a: &Spectrogram, b: &Spectrogram) -> Result<f32, DspError> {
    let _span = thrubarrier_obs::span!("dsp.correlation_2d");
    let frames = a.frames().min(b.frames());
    if frames == 0 {
        return Ok(0.0);
    }
    if a.bins() != b.bins() {
        return Err(DspError::DimensionMismatch {
            left: a.bins(),
            right: b.bins(),
        });
    }
    let count = frames * a.bins();
    if count == 0 {
        return Ok(0.0);
    }
    // Mirror `stats::pearson` exactly: f32 means, then f64-accumulated
    // mean-centered moments, walking values in row-major order.
    let ma = a.rows().take(frames).flatten().sum::<f32>() / count as f32;
    let mb = b.rows().take(frames).flatten().sum::<f32>() / count as f32;
    let mut cov = 0.0f64;
    let mut va = 0.0f64;
    let mut vb = 0.0f64;
    for (ra, rb) in a.rows().take(frames).zip(b.rows().take(frames)) {
        for (&x, &y) in ra.iter().zip(rb) {
            let dx = (x - ma) as f64;
            let dy = (y - mb) as f64;
            cov += dx * dy;
            va += dx * dx;
            vb += dy * dy;
        }
    }
    if va <= f64::EPSILON || vb <= f64::EPSILON {
        return Ok(0.0);
    }
    Ok((cov / (va.sqrt() * vb.sqrt())) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One correlation value: `c[lag] = Σ_i a[i] · b[i − lag]` over the
    /// overlapping support (zero when the supports are disjoint).
    fn lag_dot(a: &[f32], b: &[f32], lag: isize) -> f32 {
        let i0 = lag.max(0);
        let i1 = (a.len() as isize).min(b.len() as isize + lag);
        if i1 <= i0 {
            return 0.0;
        }
        let ai = &a[i0 as usize..i1 as usize];
        let bi = &b[(i0 - lag) as usize..];
        ai.iter().zip(bi).map(|(x, y)| x * y).sum()
    }

    /// Direct `O(N·M)` full linear cross-correlation of `a` and `b`,
    /// exact (no transform rounding): the oracle the bounded-lag
    /// search is pinned against. The output has length
    /// `a.len() + b.len() - 1`; index `k` corresponds to lag
    /// `k - (b.len() - 1)` of `a` relative to `b`. Empty inputs yield an
    /// empty output.
    fn cross_correlate_time(a: &[f32], b: &[f32]) -> Vec<f32> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let m = b.len() as isize;
        let out_len = a.len() + b.len() - 1;
        (0..out_len as isize)
            .map(|k| lag_dot(a, b, k - (m - 1)))
            .collect()
    }

    #[test]
    fn time_domain_correlation_matches_naive() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [0.5f32, -1.0];
        // Naive correlation: c[k] = sum_i a[i] * b[i - (k - (len_b - 1))].
        let mut naive = vec![0.0f32; a.len() + b.len() - 1];
        for (k, slot) in naive.iter_mut().enumerate() {
            let lag = k as isize - (b.len() as isize - 1);
            let mut acc = 0.0;
            for (i, &ai) in a.iter().enumerate() {
                let j = i as isize - lag;
                if j >= 0 && (j as usize) < b.len() {
                    acc += ai * b[j as usize];
                }
            }
            *slot = acc;
        }
        assert_eq!(cross_correlate_time(&a, &b), naive);
        assert!(cross_correlate_time(&[], &[1.0]).is_empty());
    }

    #[test]
    fn empty_inputs_are_rejected() {
        assert!(estimate_delay(&[], &[1.0], 4).is_err());
        assert!(estimate_delay(&[1.0], &[], 4).is_err());
    }

    #[test]
    fn single_sample_inputs_work() {
        assert_eq!(estimate_delay(&[1.0], &[1.0], 10).unwrap(), 0);
    }

    #[test]
    fn delay_estimation_recovers_known_lag() {
        let mut rng = StdRng::seed_from_u64(11);
        let reference = gen::gaussian_noise(&mut rng, 1.0, 2_000);
        for lag in [0usize, 5, 160, 999] {
            let mut delayed = vec![0.0f32; lag];
            delayed.extend_from_slice(&reference);
            let est = estimate_delay(&reference, &delayed, 1_000).unwrap();
            assert_eq!(est, lag as isize, "lag {lag}");
        }
    }

    #[test]
    fn delay_estimation_recovers_negative_lag() {
        let mut rng = StdRng::seed_from_u64(19);
        let delayed = gen::gaussian_noise(&mut rng, 1.0, 2_000);
        for cut in [1usize, 37, 512] {
            // `delayed` is the reference with its first `cut` samples
            // missing, i.e. it starts `cut` samples *early*.
            let reference = [vec![0.0f32; cut], delayed.clone()].concat();
            let est = estimate_delay(&reference, &delayed, 1_000).unwrap();
            assert_eq!(est, -(cut as isize), "cut {cut}");
        }
    }

    #[test]
    fn delay_estimation_with_noise() {
        let mut rng = StdRng::seed_from_u64(13);
        let reference = gen::chirp(50.0, 3_000.0, 1.0, 16_000, 0.3);
        let mut delayed = vec![0.0f32; 640];
        delayed.extend_from_slice(&reference);
        let noise = gen::gaussian_noise(&mut rng, 0.2, delayed.len());
        for (d, n) in delayed.iter_mut().zip(&noise) {
            *d += n;
        }
        let est = estimate_delay(&reference, &delayed, 3_200).unwrap();
        assert!((est - 640).abs() <= 2, "estimated {est}");
    }

    #[test]
    fn bounded_window_matches_full_correlation_slice() {
        // The windowed search must agree with slicing the same lags out
        // of the full correlation.
        let mut rng = StdRng::seed_from_u64(29);
        let reference = gen::gaussian_noise(&mut rng, 1.0, 300);
        let delayed = gen::gaussian_noise(&mut rng, 1.0, 260);
        let full = cross_correlate_time(&delayed, &reference);
        let zero = reference.len() - 1;
        for max_lag in [0usize, 3, 50, 1_000] {
            let lo = zero.saturating_sub(max_lag);
            let hi = (zero + max_lag + 1).min(full.len());
            let legacy = lo + stats::argmax(&full[lo..hi]).unwrap();
            let want = legacy as isize - zero as isize;
            let est = estimate_delay(&reference, &delayed, max_lag).unwrap();
            assert_eq!(est, want, "max_lag {max_lag}");
        }
    }

    #[test]
    fn align_by_delay_positive_and_negative() {
        let sig = vec![1.0, 2.0, 3.0];
        assert_eq!(align_by_delay(&sig, 1), vec![2.0, 3.0]);
        assert_eq!(align_by_delay(&sig, -2), vec![0.0, 0.0, 1.0, 2.0, 3.0]);
        assert!(align_by_delay(&sig, 10).is_empty());
    }

    #[test]
    fn correlation_2d_identical_maps_is_one() {
        let a = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![0.0, 1.0]];
        assert!((correlation_2d(&a, &a).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn correlation_2d_truncates_to_common_frames() {
        let a = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let b = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![9.0, 9.0]];
        assert!((correlation_2d(&a, &b).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn correlation_2d_dimension_mismatch() {
        let a = vec![vec![1.0, 2.0]];
        let b = vec![vec![1.0, 2.0, 3.0]];
        assert!(correlation_2d(&a, &b).is_err());
    }

    #[test]
    fn correlation_2d_independent_noise_is_near_zero() {
        let mut rng = StdRng::seed_from_u64(17);
        let a: Vec<Vec<f32>> = (0..30)
            .map(|_| gen::gaussian_noise(&mut rng, 1.0, 31))
            .collect();
        let b: Vec<Vec<f32>> = (0..30)
            .map(|_| gen::gaussian_noise(&mut rng, 1.0, 31))
            .collect();
        let r = correlation_2d(&a, &b).unwrap();
        assert!(r.abs() < 0.12, "independent noise correlated at {r}");
    }

    #[test]
    fn spectrogram_correlation_matches_flattened_pearson() {
        use crate::stft::Stft;
        let mut rng = StdRng::seed_from_u64(23);
        let fs = 200u32;
        let x = gen::gaussian_noise(&mut rng, 1.0, 600);
        let y: Vec<f32> = x
            .iter()
            .zip(gen::gaussian_noise(&mut rng, 0.3, 600))
            .map(|(a, n)| a + n)
            .collect();
        let stft = Stft::vibration_default();
        for crop in [false, true] {
            let mut sa = stft.power_spectrogram(&x, fs);
            let mut sb = stft.power_spectrogram(&y, fs);
            if crop {
                sa.crop_low_frequencies(5.0);
                sb.crop_low_frequencies(5.0);
            }
            let streamed = spectrogram_correlation(&sa, &sb).unwrap();
            let ra: Vec<Vec<f32>> = sa.rows().map(|r| r.to_vec()).collect();
            let rb: Vec<Vec<f32>> = sb.rows().map(|r| r.to_vec()).collect();
            let flattened = correlation_2d(&ra, &rb).unwrap();
            assert_eq!(streamed, flattened, "crop={crop}");
            assert!(streamed > 0.5, "signal+noise should correlate: {streamed}");
        }
    }

    #[test]
    fn spectrogram_correlation_identical_is_one() {
        let spec = crate::stft::Stft::vibration_default()
            .power_spectrogram(&gen::sine(25.0, 1.0, 200, 1.0), 200);
        let r = spectrogram_correlation(&spec, &spec).unwrap();
        assert!((r - 1.0).abs() < 1e-6, "{r}");
    }

    #[test]
    fn correlation_2d_empty_is_zero() {
        let a: Vec<Vec<f32>> = Vec::new();
        let b = vec![vec![1.0]];
        assert_eq!(correlation_2d(&a, &b).unwrap(), 0.0);
    }
}
