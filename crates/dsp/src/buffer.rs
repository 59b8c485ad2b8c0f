//! Audio sample buffer carrying its sample rate.

use crate::stats;

/// A mono audio (or vibration) signal together with its sample rate.
///
/// All recordings and intermediate signals in the workspace are carried as
/// `AudioBuffer`s so that sample-rate mismatches are caught explicitly
/// instead of silently producing wrong spectra.
///
/// # Example
///
/// ```
/// use thrubarrier_dsp::AudioBuffer;
///
/// let buf = AudioBuffer::new(vec![0.0, 0.5, -0.5, 0.0], 16_000);
/// assert_eq!(buf.duration(), 4.0 / 16_000.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AudioBuffer {
    samples: Vec<f32>,
    sample_rate: u32,
}

impl AudioBuffer {
    /// Creates a buffer from samples and a sample rate.
    pub fn new(samples: Vec<f32>, sample_rate: u32) -> Self {
        AudioBuffer {
            samples,
            sample_rate,
        }
    }

    /// Creates an empty buffer at the given sample rate.
    pub fn empty(sample_rate: u32) -> Self {
        AudioBuffer {
            samples: Vec::new(),
            sample_rate,
        }
    }

    /// The samples.
    pub fn samples(&self) -> &[f32] {
        &self.samples
    }

    /// Mutable access to the samples.
    pub fn samples_mut(&mut self) -> &mut Vec<f32> {
        &mut self.samples
    }

    /// Consumes the buffer and returns the sample vector.
    pub fn into_samples(self) -> Vec<f32> {
        self.samples
    }

    /// The sample rate in Hz.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the buffer holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Duration in seconds.
    pub fn duration(&self) -> f32 {
        self.samples.len() as f32 / self.sample_rate as f32
    }

    /// Root-mean-square amplitude.
    pub fn rms(&self) -> f32 {
        stats::rms(&self.samples)
    }

    /// Peak absolute amplitude.
    pub fn peak(&self) -> f32 {
        stats::peak(&self.samples)
    }

    /// Multiplies every sample by `gain`.
    pub fn scale(&mut self, gain: f32) {
        for s in &mut self.samples {
            *s *= gain;
        }
    }

    /// Returns a copy scaled by `gain`.
    pub fn scaled(&self, gain: f32) -> Self {
        let mut out = self.clone();
        out.scale(gain);
        out
    }

    /// Appends another buffer.
    ///
    /// # Panics
    ///
    /// Panics if the sample rates differ — concatenating signals at
    /// different rates is always a bug.
    pub fn append(&mut self, other: &AudioBuffer) {
        assert_eq!(
            self.sample_rate, other.sample_rate,
            "cannot append buffers with different sample rates"
        );
        self.samples.extend_from_slice(&other.samples);
    }

    /// Returns the sub-buffer `[start, end)` (clamped to the signal
    /// length).
    pub fn slice(&self, start: usize, end: usize) -> AudioBuffer {
        let end = end.min(self.samples.len());
        let start = start.min(end);
        AudioBuffer::new(self.samples[start..end].to_vec(), self.sample_rate)
    }

    /// Normalizes the peak amplitude to `target` (no-op on silence).
    pub fn normalize_peak(&mut self, target: f32) {
        let p = self.peak();
        if p > 0.0 {
            self.scale(target / p);
        }
    }
}

impl AsRef<[f32]> for AudioBuffer {
    fn as_ref(&self) -> &[f32] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_and_len() {
        let b = AudioBuffer::new(vec![0.0; 8_000], 16_000);
        assert_eq!(b.len(), 8_000);
        assert!((b.duration() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn scale_and_peak() {
        let mut b = AudioBuffer::new(vec![0.25, -0.5], 100);
        b.scale(2.0);
        assert_eq!(b.peak(), 1.0);
    }

    #[test]
    fn append_concatenates() {
        let mut a = AudioBuffer::new(vec![1.0], 100);
        a.append(&AudioBuffer::new(vec![2.0, 3.0], 100));
        assert_eq!(a.samples(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "different sample rates")]
    fn append_rejects_rate_mismatch() {
        let mut a = AudioBuffer::new(vec![1.0], 100);
        a.append(&AudioBuffer::new(vec![2.0], 200));
    }

    #[test]
    fn slice_clamps_to_length() {
        let a = AudioBuffer::new(vec![1.0, 2.0, 3.0], 100);
        assert_eq!(a.slice(1, 99).samples(), &[2.0, 3.0]);
        assert!(a.slice(5, 9).is_empty());
    }

    #[test]
    fn normalize_peak_on_silence_is_noop() {
        let mut a = AudioBuffer::new(vec![0.0; 4], 100);
        a.normalize_peak(1.0);
        assert_eq!(a.peak(), 0.0);
    }

    #[test]
    fn normalize_peak_hits_target() {
        let mut a = AudioBuffer::new(vec![0.1, -0.4], 100);
        a.normalize_peak(0.8);
        assert!((a.peak() - 0.8).abs() < 1e-6);
    }
}
