//! Mel filterbank and MFCC extraction.
//!
//! The paper's phoneme detector uses 14th-order MFCCs computed from a
//! 40-channel mel filterbank restricted to 0–900 Hz — deliberately
//! low-frequency so that phonemes remain detectable in attack sounds whose
//! high frequencies were stripped by the barrier (Sec. V-B).

use crate::error::DspError;
use crate::fft;
use crate::window::WindowKind;

/// Converts frequency in Hz to mels (O'Shaughnessy formula).
pub fn hz_to_mel(hz: f32) -> f32 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Converts mels to frequency in Hz.
pub fn mel_to_hz(mel: f32) -> f32 {
    700.0 * (10f32.powf(mel / 2595.0) - 1.0)
}

/// A triangular mel filterbank over FFT bins.
///
/// Each filter stores only its support — the bins from its first to its
/// last non-zero weight — and sums over that range alone, in bin order.
/// For a finite, non-negative power spectrum every bin outside the
/// support contributes an exact `+0` to the full-width sum, so the
/// energies are bitwise those of the dense `n_filters x n_bins` product.
#[derive(Debug, Clone)]
pub struct MelFilterbank {
    /// Per filter: the first bin of its support and the weights over
    /// the support (empty when no bin centre falls inside the filter).
    filters: Vec<(usize, Vec<f32>)>,
    n_fft: usize,
}

impl MelFilterbank {
    /// Builds `n_filters` triangular filters spanning `f_min..f_max` Hz
    /// for FFT size `n_fft` at `sample_rate`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidMelConfig`] if the band is empty, the
    /// filter count is zero, or `f_max` exceeds Nyquist.
    pub fn new(
        n_filters: usize,
        n_fft: usize,
        sample_rate: u32,
        f_min: f32,
        f_max: f32,
    ) -> Result<Self, DspError> {
        if n_filters == 0 {
            return Err(DspError::InvalidMelConfig("zero filters".into()));
        }
        if !(f_min >= 0.0 && f_max > f_min) {
            return Err(DspError::InvalidMelConfig(format!(
                "invalid band {f_min}..{f_max} Hz"
            )));
        }
        if f_max > sample_rate as f32 / 2.0 {
            return Err(DspError::InvalidMelConfig(format!(
                "f_max {f_max} above nyquist {}",
                sample_rate as f32 / 2.0
            )));
        }
        let n_bins = n_fft / 2 + 1;
        let mel_lo = hz_to_mel(f_min);
        let mel_hi = hz_to_mel(f_max);
        // n_filters + 2 edge points, evenly spaced in mel.
        let edges_hz: Vec<f32> = (0..n_filters + 2)
            .map(|i| mel_to_hz(mel_lo + (mel_hi - mel_lo) * i as f32 / (n_filters + 1) as f32))
            .collect();
        let bin_hz = sample_rate as f32 / n_fft as f32;
        let mut filters = Vec::with_capacity(n_filters);
        for m in 0..n_filters {
            let (lo, center, hi) = (edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]);
            let mut w = vec![0.0f32; n_bins];
            for (k, slot) in w.iter_mut().enumerate() {
                let f = k as f32 * bin_hz;
                if f > lo && f < hi {
                    *slot = if f <= center {
                        (f - lo) / (center - lo).max(f32::EPSILON)
                    } else {
                        (hi - f) / (hi - center).max(f32::EPSILON)
                    };
                }
            }
            let start = w.iter().position(|&x| x != 0.0).unwrap_or(0);
            let end = w
                .iter()
                .rposition(|&x| x != 0.0)
                .map_or(start, |last| last + 1);
            filters.push((start, w[start..end].to_vec()));
        }
        Ok(MelFilterbank { filters, n_fft })
    }

    /// Number of filters.
    pub fn n_filters(&self) -> usize {
        self.filters.len()
    }

    /// Applies the filterbank to a power spectrum (`n_fft/2 + 1` bins),
    /// returning per-filter energies.
    ///
    /// # Panics
    ///
    /// Panics if `power.len()` does not match the configured FFT size.
    pub fn apply(&self, power: &[f32]) -> Vec<f32> {
        assert_eq!(
            power.len(),
            self.n_fft / 2 + 1,
            "power spectrum length must match filterbank fft size"
        );
        self.energies(power).collect()
    }

    /// Per-filter energies of `power`, each summed over the filter's
    /// support from `+0.0` — the value a dense sum carries into the
    /// support after adding its leading `+0` terms.
    fn energies<'a>(&'a self, power: &'a [f32]) -> impl Iterator<Item = f32> + 'a {
        self.filters.iter().map(move |(start, w)| {
            w.iter()
                .zip(&power[*start..])
                .fold(0.0, |acc, (a, b)| acc + a * b)
        })
    }
}

/// The first `n_out` basis rows of an `n`-point orthonormal type-II
/// discrete cosine transform, built once and applied per frame.
#[derive(Debug, Clone)]
struct DctBasis {
    /// `n_out x n` cosines, row-major: row `k` holds
    /// `cos(π·(i + ½)·k / n)` for `i = 0..n`.
    cosines: Vec<f32>,
    n: usize,
    /// Orthonormal scale of row 0, `√(1/n)`.
    norm0: f32,
    /// Orthonormal scale of every other row, `√(2/n)`.
    norm: f32,
}

impl DctBasis {
    /// # Panics
    ///
    /// Panics if `n` is zero (an extractor always has filters).
    fn new(n: usize, n_out: usize) -> Self {
        assert!(n > 0, "a DCT needs at least one input");
        let cosines = (0..n_out)
            .flat_map(|k| {
                (0..n).map(move |i| {
                    (std::f32::consts::PI * (i as f32 + 0.5) * k as f32 / n as f32).cos()
                })
            })
            .collect();
        DctBasis {
            cosines,
            n,
            norm0: (1.0 / n as f32).sqrt(),
            norm: (2.0 / n as f32).sqrt(),
        }
    }

    /// The `n_out` coefficients of `input` (`n` values).
    fn transform(&self, input: &[f32]) -> Vec<f32> {
        debug_assert_eq!(input.len(), self.n);
        self.cosines
            .chunks_exact(self.n)
            .enumerate()
            .map(|(k, row)| {
                let sum: f32 = input.iter().zip(row).map(|(&x, &c)| x * c).sum();
                sum * if k == 0 { self.norm0 } else { self.norm }
            })
            .collect()
    }
}

/// MFCC front-end configuration.
#[derive(Debug, Clone)]
pub struct MfccExtractor {
    filterbank: MelFilterbank,
    dct: DctBasis,
    window: Vec<f32>,
    frame_len: usize,
    hop: usize,
    n_coeffs: usize,
    n_fft: usize,
    sample_rate: u32,
}

impl MfccExtractor {
    /// Creates an MFCC extractor.
    ///
    /// * `frame_len` / `hop` — analysis frame and hop in samples
    /// * `n_filters` — mel filterbank channels
    /// * `n_coeffs` — cepstral coefficients kept (including C0)
    /// * `f_min..f_max` — filterbank band in Hz
    ///
    /// # Errors
    ///
    /// Returns an error if the frame configuration or the mel band is
    /// invalid, or `n_coeffs > n_filters`.
    pub fn new(
        sample_rate: u32,
        frame_len: usize,
        hop: usize,
        n_filters: usize,
        n_coeffs: usize,
        f_min: f32,
        f_max: f32,
    ) -> Result<Self, DspError> {
        if frame_len == 0 || hop == 0 {
            return Err(DspError::InvalidFrameConfig {
                window: frame_len,
                hop,
            });
        }
        if n_coeffs > n_filters {
            return Err(DspError::InvalidMelConfig(format!(
                "n_coeffs {n_coeffs} > n_filters {n_filters}"
            )));
        }
        let n_fft = fft::next_pow2(frame_len);
        let filterbank = MelFilterbank::new(n_filters, n_fft, sample_rate, f_min, f_max)?;
        Ok(MfccExtractor {
            dct: DctBasis::new(n_filters, n_coeffs),
            window: WindowKind::Hamming.coefficients(frame_len),
            filterbank,
            frame_len,
            hop,
            n_coeffs,
            n_fft,
            sample_rate,
        })
    }

    /// The paper's configuration: 16 kHz input, 25 ms frames (400
    /// samples), 10 ms hop (160 samples), 40 filters over 0–900 Hz,
    /// 14 coefficients.
    pub fn paper_default() -> Self {
        MfccExtractor::new(16_000, 400, 160, 40, 14, 0.0, 900.0).expect("static config is valid")
    }

    /// Number of coefficients per frame.
    pub fn n_coeffs(&self) -> usize {
        self.n_coeffs
    }

    /// Hop size in samples.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// Frame length in samples.
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// Sample rate this extractor expects.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Number of frames produced for a signal of `n` samples.
    pub fn frame_count(&self, n: usize) -> usize {
        if n < self.frame_len {
            usize::from(n > 0)
        } else {
            (n - self.frame_len) / self.hop + 1
        }
    }

    /// Extracts MFCCs: one `n_coeffs`-vector per frame.
    pub fn extract(&self, signal: &[f32]) -> Vec<Vec<f32>> {
        let _span = thrubarrier_obs::span!("dsp.mfcc");
        let frames = self.frame_count(signal.len());
        let half = self.n_fft / 2 + 1;
        let mut out = Vec::with_capacity(frames);
        // Per-frame buffers are hoisted out of the loop; the FFT itself
        // runs on the cached plan's packed real-input path.
        let mut frame = vec![0.0f32; self.frame_len];
        let mut spec = Vec::with_capacity(half);
        let mut power = vec![0.0f32; half];
        let mut log_e = Vec::with_capacity(self.filterbank.n_filters());
        for fi in 0..frames {
            let start = fi * self.hop;
            let samples = &signal[start..signal.len().min(start + self.frame_len)];
            let (head, tail) = frame.split_at_mut(samples.len());
            for ((slot, &x), &w) in head.iter_mut().zip(samples).zip(&self.window) {
                *slot = x * w;
            }
            tail.fill(0.0);
            fft::half_spectrum_into(&frame, self.n_fft, &mut spec);
            for (p, c) in power.iter_mut().zip(&spec) {
                *p = c.norm_sq();
            }
            log_e.clear();
            log_e.extend(self.filterbank.energies(&power).map(|e| (e + 1e-10).ln()));
            out.push(self.dct.transform(&log_e));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn mel_scale_roundtrip() {
        for hz in [0.0, 100.0, 440.0, 900.0, 4_000.0] {
            assert!((mel_to_hz(hz_to_mel(hz)) - hz).abs() < 0.5);
        }
    }

    #[test]
    fn mel_scale_is_monotonic() {
        let mut prev = -1.0;
        for i in 0..100 {
            let m = hz_to_mel(i as f32 * 80.0);
            assert!(m > prev);
            prev = m;
        }
    }

    #[test]
    fn filterbank_rejects_bad_configs() {
        assert!(MelFilterbank::new(0, 512, 16_000, 0.0, 900.0).is_err());
        assert!(MelFilterbank::new(10, 512, 16_000, 900.0, 100.0).is_err());
        assert!(MelFilterbank::new(10, 512, 16_000, 0.0, 9_000.0).is_err());
    }

    #[test]
    fn filterbank_responds_to_in_band_tone() {
        let fb = MelFilterbank::new(40, 512, 16_000, 0.0, 900.0).unwrap();
        let tone = gen::sine(450.0, 1.0, 16_000, 0.032); // 512 samples
        let spec = fft::fft_padded(&tone, 512);
        let power: Vec<f32> = spec[..257].iter().map(|c| c.norm_sq()).collect();
        let energies = fb.apply(&power);
        assert!(energies.iter().cloned().fold(0.0f32, f32::max) > 0.0);
    }

    #[test]
    fn dct_of_constant_is_dc_only() {
        let out = DctBasis::new(16, 4).transform(&[1.0; 16]);
        assert!(out[0] > 0.0);
        for &c in &out[1..] {
            assert!(c.abs() < 1e-5);
        }
    }

    #[test]
    fn paper_default_shapes() {
        let m = MfccExtractor::paper_default();
        assert_eq!(m.n_coeffs(), 14);
        // 1 second at 16 kHz with 25ms/10ms framing -> 98 frames.
        assert_eq!(m.frame_count(16_000), 98);
        let sig = gen::sine(300.0, 0.5, 16_000, 0.1);
        let feats = m.extract(&sig);
        assert_eq!(feats.len(), m.frame_count(sig.len()));
        assert!(feats.iter().all(|f| f.len() == 14));
    }

    #[test]
    fn mfcc_distinguishes_tone_from_noise() {
        use rand::{rngs::StdRng, SeedableRng};
        let m = MfccExtractor::paper_default();
        let tone = gen::sine(300.0, 0.5, 16_000, 0.1);
        let noise = gen::gaussian_noise(&mut StdRng::seed_from_u64(1), 0.5, 1_600);
        let ft = m.extract(&tone);
        let fe = m.extract(&noise);
        // Average feature distance between classes should be clearly
        // non-zero.
        let d: f32 = ft[2].iter().zip(&fe[2]).map(|(a, b)| (a - b).abs()).sum();
        assert!(d > 1.0, "distance {d}");
    }

    #[test]
    fn extractor_rejects_more_coeffs_than_filters() {
        assert!(MfccExtractor::new(16_000, 400, 160, 10, 14, 0.0, 900.0).is_err());
    }

    #[test]
    fn paper_filterbank_support_widths() {
        // At n_fft 512 (31.25 Hz bins) the paper's 0–900 Hz band gives
        // each of the 40 filters at most two bin centres: filter 0 sees
        // none, 23 filters see one bin and 16 see two (see DESIGN.md §5).
        let fb = MelFilterbank::new(40, 512, 16_000, 0.0, 900.0).unwrap();
        let widths: Vec<usize> = fb.filters.iter().map(|(_, w)| w.len()).collect();
        assert_eq!(widths[0], 0, "filter 0 must be empty");
        assert_eq!(widths.iter().filter(|&&w| w == 1).count(), 23);
        assert_eq!(widths.iter().filter(|&&w| w == 2).count(), 16);
        assert_eq!(widths.len(), 40);
    }

    /// Test-local copy of the dense front-end the sparse one replaced:
    /// full `n_filters x n_bins` weights, a full-width dot product per
    /// filter, the window built per call, and a DCT-II that evaluates its
    /// cosines per frame.
    mod dense {
        use crate::fft;
        use crate::mel::{hz_to_mel, mel_to_hz};
        use crate::window::WindowKind;

        pub fn weights(
            n_filters: usize,
            n_fft: usize,
            sample_rate: u32,
            f_min: f32,
            f_max: f32,
        ) -> Vec<Vec<f32>> {
            let n_bins = n_fft / 2 + 1;
            let mel_lo = hz_to_mel(f_min);
            let mel_hi = hz_to_mel(f_max);
            let edges_hz: Vec<f32> = (0..n_filters + 2)
                .map(|i| mel_to_hz(mel_lo + (mel_hi - mel_lo) * i as f32 / (n_filters + 1) as f32))
                .collect();
            let bin_hz = sample_rate as f32 / n_fft as f32;
            let mut weights = Vec::with_capacity(n_filters);
            for m in 0..n_filters {
                let (lo, center, hi) = (edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]);
                let mut w = vec![0.0f32; n_bins];
                for (k, slot) in w.iter_mut().enumerate() {
                    let f = k as f32 * bin_hz;
                    if f > lo && f < hi {
                        *slot = if f <= center {
                            (f - lo) / (center - lo).max(f32::EPSILON)
                        } else {
                            (hi - f) / (hi - center).max(f32::EPSILON)
                        };
                    }
                }
                weights.push(w);
            }
            weights
        }

        pub fn apply(weights: &[Vec<f32>], power: &[f32]) -> Vec<f32> {
            weights
                .iter()
                .map(|w| w.iter().zip(power).map(|(a, b)| a * b).sum())
                .collect()
        }

        pub fn dct_ii(input: &[f32], n_out: usize) -> Vec<f32> {
            let n = input.len();
            if n == 0 {
                return vec![0.0; n_out];
            }
            let norm0 = (1.0 / n as f32).sqrt();
            let norm = (2.0 / n as f32).sqrt();
            (0..n_out)
                .map(|k| {
                    let sum: f32 = input
                        .iter()
                        .enumerate()
                        .map(|(i, &x)| {
                            x * (std::f32::consts::PI * (i as f32 + 0.5) * k as f32 / n as f32)
                                .cos()
                        })
                        .sum();
                    sum * if k == 0 { norm0 } else { norm }
                })
                .collect()
        }

        /// `(sample_rate, frame_len, hop, n_filters, n_coeffs, f_min, f_max)`.
        pub type Config = (u32, usize, usize, usize, usize, f32, f32);

        pub fn extract(cfg: Config, signal: &[f32]) -> Vec<Vec<f32>> {
            let (sample_rate, frame_len, hop, n_filters, n_coeffs, f_min, f_max) = cfg;
            let n_fft = fft::next_pow2(frame_len);
            let weights = weights(n_filters, n_fft, sample_rate, f_min, f_max);
            let frames = if signal.len() < frame_len {
                usize::from(!signal.is_empty())
            } else {
                (signal.len() - frame_len) / hop + 1
            };
            let window = WindowKind::Hamming.coefficients(frame_len);
            let half = n_fft / 2 + 1;
            let mut out = Vec::with_capacity(frames);
            let mut frame = vec![0.0f32; frame_len];
            let mut spec = Vec::with_capacity(half);
            let mut power = vec![0.0f32; half];
            for fi in 0..frames {
                let start = fi * hop;
                for (i, (slot, &w)) in frame.iter_mut().zip(&window).enumerate() {
                    *slot = signal.get(start + i).map_or(0.0, |&x| x * w);
                }
                fft::half_spectrum_into(&frame, n_fft, &mut spec);
                for (p, c) in power.iter_mut().zip(&spec) {
                    *p = c.norm_sq();
                }
                let energies = apply(&weights, &power);
                let log_e: Vec<f32> = energies.iter().map(|&e| (e + 1e-10).ln()).collect();
                out.push(dct_ii(&log_e, n_coeffs));
            }
            out
        }
    }

    /// The paper's front-end and a wider-band one whose filters span
    /// many bins each.
    const PARITY_CONFIGS: [dense::Config; 2] = [
        (16_000, 400, 160, 40, 14, 0.0, 900.0),
        (16_000, 256, 100, 24, 13, 60.0, 6_000.0),
    ];

    fn assert_matches_dense(signal: &[f32]) {
        for cfg in PARITY_CONFIGS {
            let (fs, frame, hop, filters, coeffs, lo, hi) = cfg;
            let sparse = MfccExtractor::new(fs, frame, hop, filters, coeffs, lo, hi)
                .unwrap()
                .extract(signal);
            let reference = dense::extract(cfg, signal);
            let bits = |m: &[Vec<f32>]| -> Vec<Vec<u32>> {
                m.iter()
                    .map(|f| f.iter().map(|x| x.to_bits()).collect())
                    .collect()
            };
            assert_eq!(
                bits(&sparse),
                bits(&reference),
                "config {cfg:?}, {} samples",
                signal.len()
            );
        }
    }

    #[test]
    fn sparse_mfcc_matches_dense_on_degenerate_signals() {
        assert_matches_dense(&[]);
        for len in [1, 2, 159, 160, 399, 400, 401, 1_000] {
            assert_matches_dense(&vec![0.0; len]);
            assert_matches_dense(&vec![1e-6; len]);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        #[test]
        fn sparse_filterbank_matches_dense_apply(
            power in proptest::prop::collection::vec(0.0f32..10.0, 257usize),
            zeros in proptest::prop::collection::vec(0usize..257, 0usize..200),
        ) {
            // Exact zeros inside and outside the supports, and the
            // paper's empty filter 0, must keep the dense sum's `+0`.
            let mut power = power;
            for z in zeros {
                power[z] = 0.0;
            }
            for (filters, lo, hi) in [(40, 0.0, 900.0), (24, 60.0, 6_000.0)] {
                let sparse = MelFilterbank::new(filters, 512, 16_000, lo, hi).unwrap().apply(&power);
                let reference = dense::apply(&dense::weights(filters, 512, 16_000, lo, hi), &power);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(&sparse), bits(&reference));
            }
        }

        #[test]
        fn sparse_mfcc_matches_dense_on_short_signals(
            signal in proptest::prop::collection::vec(-1.0f32..1.0, 1usize..400),
        ) {
            assert_matches_dense(&signal);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(6))]

        #[test]
        fn sparse_mfcc_matches_dense_on_speech_length_signals(
            signal in proptest::prop::collection::vec(-0.5f32..0.5, 8_000usize..48_000),
        ) {
            assert_matches_dense(&signal);
        }
    }
}
