//! Short-time Fourier transform and spectrogram representation.
//!
//! The paper derives vibration-domain features as the squared-magnitude
//! STFT with a 64-sample window / 64-point FFT (Sec. VI-B), then crops the
//! bins at or below 5 Hz and normalizes by the maximum value. All of those
//! operations live here so both the defense and the baselines share one
//! implementation.
//!
//! [`Spectrogram`] stores its `frames x bins` values in one contiguous
//! row-major buffer with stride metadata. Cropping low-frequency bins is
//! an `O(1)` metadata update (the column window slides right within each
//! row), and consumers that walk every value — normalization, 2-D
//! correlation, feature flattening — traverse a flat slice instead of
//! chasing one heap allocation per frame.

use crate::complex::Complex;
use crate::error::DspError;
use crate::fft;
use crate::window::WindowKind;

/// Short-time Fourier transform configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stft {
    window_len: usize,
    hop: usize,
    n_fft: usize,
    window: WindowKind,
}

impl Stft {
    /// Creates an STFT with `window_len` samples per frame, `hop` samples
    /// between frames and an FFT size equal to the next power of two of
    /// `window_len`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidFrameConfig`] if `window_len` or `hop`
    /// is zero.
    pub fn new(window_len: usize, hop: usize, window: WindowKind) -> Result<Self, DspError> {
        if window_len == 0 || hop == 0 {
            return Err(DspError::InvalidFrameConfig {
                window: window_len,
                hop,
            });
        }
        Ok(Stft {
            window_len,
            hop,
            n_fft: fft::next_pow2(window_len),
            window,
        })
    }

    /// The vibration-feature configuration from the paper: 64-sample
    /// window, 32-sample hop (50% overlap), 64-point FFT, Hann window.
    pub fn vibration_default() -> Self {
        Stft::new(64, 32, WindowKind::Hann).expect("static config is valid")
    }

    /// Window length in samples.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Hop length in samples.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// FFT size (next power of two of the window length).
    pub fn n_fft(&self) -> usize {
        self.n_fft
    }

    /// Number of frames produced for a signal of `n` samples. Signals
    /// shorter than one window yield a single zero-padded frame if
    /// non-empty, otherwise zero frames.
    pub fn frame_count(&self, n: usize) -> usize {
        if n == 0 {
            0
        } else if n < self.window_len {
            1
        } else {
            (n - self.window_len) / self.hop + 1
        }
    }

    /// Fills `frame` with the windowed samples of frame `fi`, zero-padded
    /// past the end of the signal.
    fn window_frame(&self, signal: &[f32], fi: usize, coeffs: &[f32], frame: &mut [f32]) {
        let start = fi * self.hop;
        for (i, (slot, &c)) in frame.iter_mut().zip(coeffs).enumerate() {
            *slot = signal.get(start + i).map_or(0.0, |&x| x * c);
        }
    }

    /// Shared core of the real spectrogram builders: one contiguous
    /// buffer, one reused windowed frame, one reused half spectrum.
    fn spectrogram_with(
        &self,
        signal: &[f32],
        sample_rate: u32,
        to_value: impl Fn(Complex) -> f32,
    ) -> Spectrogram {
        let _span = thrubarrier_obs::span!("dsp.stft.real");
        let frames = self.frame_count(signal.len());
        let bins = if frames == 0 { 0 } else { self.n_fft / 2 + 1 };
        let coeffs = self.window.coefficients(self.window_len);
        let mut data = vec![0.0f32; frames * bins];
        let mut frame = vec![0.0f32; self.window_len];
        let mut spec = Vec::with_capacity(bins);
        for fi in 0..frames {
            self.window_frame(signal, fi, &coeffs, &mut frame);
            fft::half_spectrum_into(&frame, self.n_fft, &mut spec);
            for (slot, &c) in data[fi * bins..(fi + 1) * bins].iter_mut().zip(&spec) {
                *slot = to_value(c);
            }
        }
        Spectrogram {
            data,
            frames,
            stride: bins,
            col_start: 0,
            bins,
            sample_rate,
            n_fft: self.n_fft,
            hop: self.hop,
            first_bin: 0,
        }
    }

    /// Computes the power spectrogram (squared FFT magnitudes), the
    /// vibration-domain feature of the paper.
    pub fn power_spectrogram(&self, signal: &[f32], sample_rate: u32) -> Spectrogram {
        self.spectrogram_with(signal, sample_rate, Complex::norm_sq)
    }

    /// Computes the magnitude spectrogram (FFT magnitudes).
    pub fn magnitude_spectrogram(&self, signal: &[f32], sample_rate: u32) -> Spectrogram {
        self.spectrogram_with(signal, sample_rate, Complex::norm)
    }
}

/// A time–frequency representation: `frames x bins` of non-negative
/// values, annotated with enough metadata to recover physical axes.
///
/// Values live in one row-major buffer; `stride` is the allocated row
/// width and `col_start` the offset of the first visible bin, so
/// [`Spectrogram::crop_low_frequencies`] never moves data. Rows are
/// exposed as slices via [`Spectrogram::rows`] / [`Spectrogram::row`].
#[derive(Debug, Clone)]
pub struct Spectrogram {
    data: Vec<f32>,
    frames: usize,
    stride: usize,
    col_start: usize,
    bins: usize,
    sample_rate: u32,
    n_fft: usize,
    hop: usize,
    /// Index of the first retained FFT bin (non-zero after cropping).
    first_bin: usize,
}

impl PartialEq for Spectrogram {
    /// Compares the *visible* values and axis metadata, so a cropped
    /// spectrogram equals one built directly at the cropped size.
    fn eq(&self, other: &Self) -> bool {
        self.frames == other.frames
            && self.bins == other.bins
            && self.sample_rate == other.sample_rate
            && self.n_fft == other.n_fft
            && self.hop == other.hop
            && self.first_bin == other.first_bin
            && self.rows().eq(other.rows())
    }
}

impl Spectrogram {
    /// Number of time frames.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Number of frequency bins per frame.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Feature row (visible bins) of frame `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.frames()`.
    pub fn row(&self, t: usize) -> &[f32] {
        let start = t * self.stride + self.col_start;
        &self.data[start..start + self.bins]
    }

    /// Iterates over the feature rows (`frames` slices of `bins` values).
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f32]> + Clone {
        let stride = self.stride.max(1);
        self.data
            .chunks(stride)
            .take(self.frames)
            .map(move |r| &r[self.col_start..self.col_start + self.bins])
    }

    /// The visible values as one flat row-major slice, available when no
    /// bins have been cropped (`col_start == 0`, full-width rows).
    fn flat(&self) -> Option<&[f32]> {
        (self.col_start == 0 && self.bins == self.stride).then_some(&self.data[..])
    }

    /// Visits every visible value mutably.
    fn for_each_value_mut(&mut self, mut f: impl FnMut(&mut f32)) {
        if self.col_start == 0 && self.bins == self.stride {
            self.data.iter_mut().for_each(f);
            return;
        }
        for chunk in self.data.chunks_mut(self.stride.max(1)).take(self.frames) {
            chunk[self.col_start..self.col_start + self.bins]
                .iter_mut()
                .for_each(&mut f);
        }
    }

    /// Frequency in Hz of retained bin `b`.
    pub fn bin_frequency(&self, b: usize) -> f32 {
        (self.first_bin + b) as f32 * self.sample_rate as f32 / self.n_fft as f32
    }

    /// Time in seconds of frame `t` (frame start).
    pub fn frame_time(&self, t: usize) -> f32 {
        t as f32 * self.hop as f32 / self.sample_rate as f32
    }

    /// The largest value in the spectrogram (0 for an empty one).
    pub fn max_value(&self) -> f32 {
        if let Some(flat) = self.flat() {
            return flat.iter().fold(0.0f32, |acc, &v| acc.max(v));
        }
        self.rows().flatten().fold(0.0f32, |acc, &v| acc.max(v))
    }

    /// Removes all bins whose center frequency is `<= cutoff_hz`.
    ///
    /// The paper crops everything at or below 5 Hz to suppress the
    /// accelerometer's low-frequency sensitivity artifact and body-motion
    /// interference (Sec. VI-B, Fig. 7). With the strided layout this is
    /// a metadata update — no data moves.
    pub fn crop_low_frequencies(&mut self, cutoff_hz: f32) {
        let bin_hz = self.sample_rate as f32 / self.n_fft as f32;
        let mut drop = 0usize;
        while (self.first_bin + drop) as f32 * bin_hz <= cutoff_hz {
            drop += 1;
            if drop > self.bins {
                break;
            }
        }
        let drop = drop.min(self.bins);
        self.col_start += drop;
        self.bins -= drop;
        self.first_bin += drop;
    }

    /// Divides every value by the maximum value (no-op if the maximum is
    /// zero) — the paper's vibration-domain normalization that removes
    /// distance/volume scale differences (Sec. VI-C).
    pub fn normalize_by_max(&mut self) {
        let max = self.max_value();
        if max > 0.0 {
            self.for_each_value_mut(|v| *v /= max);
        }
    }

    /// Applies log compression `v <- ln(v + floor)` to every value.
    /// `floor` guards against `ln(0)` and sets the dynamic-range bottom.
    pub fn log_compress(&mut self, floor: f32) {
        self.for_each_value_mut(|v| *v = (*v + floor).ln());
    }

    /// Flattens the first `n_frames` frames into one vector
    /// (frame-major). Used to compare two spectrograms over their common
    /// time support.
    pub fn flatten_frames(&self, n_frames: usize) -> Vec<f32> {
        let take = n_frames.min(self.frames);
        if let Some(flat) = self.flat() {
            return flat[..take * self.stride].to_vec();
        }
        let mut out = Vec::with_capacity(take * self.bins);
        for t in 0..take {
            out.extend_from_slice(self.row(t));
        }
        out
    }

    /// Mean value per bin across all frames (the "average FFT magnitude"
    /// curves of paper Figs. 3, 4 and 6 are built from this).
    pub fn mean_per_bin(&self) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.bins];
        for row in self.rows() {
            for (a, &v) in acc.iter_mut().zip(row) {
                *a += v;
            }
        }
        let n = self.frames.max(1) as f32;
        for a in &mut acc {
            *a /= n;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn rejects_zero_window_or_hop() {
        assert!(Stft::new(0, 1, WindowKind::Hann).is_err());
        assert!(Stft::new(64, 0, WindowKind::Hann).is_err());
    }

    #[test]
    fn frame_count_edges() {
        let s = Stft::new(64, 32, WindowKind::Hann).unwrap();
        assert_eq!(s.frame_count(0), 0);
        assert_eq!(s.frame_count(10), 1);
        assert_eq!(s.frame_count(64), 1);
        assert_eq!(s.frame_count(96), 2);
        assert_eq!(s.frame_count(128), 3);
    }

    #[test]
    fn tone_concentrates_energy_in_expected_bin() {
        let fs = 200u32;
        // 25 Hz tone, 64-point FFT at 200 Hz -> bin width 3.125 Hz -> bin 8.
        let sig = gen::sine(25.0, 1.0, fs, 2.0);
        let spec = Stft::vibration_default().power_spectrogram(&sig, fs);
        let mean = spec.mean_per_bin();
        let peak = crate::stats::argmax(&mean).unwrap();
        assert_eq!(peak, 8, "expected bin 8, got {peak}");
    }

    #[test]
    fn crop_low_frequencies_removes_dc_band() {
        let fs = 200u32;
        let sig = gen::sine(25.0, 1.0, fs, 1.0);
        let mut spec = Stft::vibration_default().power_spectrogram(&sig, fs);
        let bins_before = spec.bins();
        spec.crop_low_frequencies(5.0);
        // 200/64 = 3.125 Hz bins; bins 0 (0 Hz) and 1 (3.125 Hz) are <= 5 Hz.
        assert_eq!(spec.bins(), bins_before - 2);
        assert!(spec.bin_frequency(0) > 5.0);
    }

    #[test]
    fn crop_is_a_view_change_rows_stay_consistent() {
        let fs = 200u32;
        let sig = gen::sine(25.0, 1.0, fs, 1.0);
        let mut spec = Stft::vibration_default().power_spectrogram(&sig, fs);
        let before: Vec<Vec<f32>> = spec.rows().map(|r| r.to_vec()).collect();
        spec.crop_low_frequencies(5.0);
        assert_eq!(spec.rows().len(), before.len());
        for (t, row) in spec.rows().enumerate() {
            assert_eq!(row, &before[t][2..], "frame {t}");
            assert_eq!(row, spec.row(t));
        }
        // Values survive a mutation pass over the cropped view too.
        spec.normalize_by_max();
        assert!((spec.max_value() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_by_max_bounds_values() {
        let fs = 200u32;
        let sig = gen::sine(25.0, 3.0, fs, 1.0);
        let mut spec = Stft::vibration_default().power_spectrogram(&sig, fs);
        spec.normalize_by_max();
        assert!((spec.max_value() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_on_silence_is_noop() {
        let mut spec = Stft::vibration_default().power_spectrogram(&vec![0.0; 256], 200);
        spec.normalize_by_max();
        assert_eq!(spec.max_value(), 0.0);
    }

    #[test]
    fn frame_time_advances_by_hop() {
        let spec = Stft::vibration_default().power_spectrogram(&vec![0.1; 256], 200);
        assert!((spec.frame_time(1) - 32.0 / 200.0).abs() < 1e-6);
    }

    #[test]
    fn flatten_frames_takes_prefix() {
        let spec = Stft::vibration_default().power_spectrogram(&vec![0.1; 256], 200);
        let flat = spec.flatten_frames(2);
        assert_eq!(flat.len(), 2 * spec.bins());
    }

    #[test]
    fn empty_signal_yields_empty_spectrogram() {
        let spec = Stft::vibration_default().power_spectrogram(&[], 200);
        assert_eq!(spec.frames(), 0);
        assert_eq!(spec.bins(), 0);
        assert_eq!(spec.max_value(), 0.0);
        assert_eq!(spec.rows().len(), 0);
    }
}
