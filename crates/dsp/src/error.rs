//! Error type for DSP operations.

use std::error::Error;
use std::fmt;

/// Errors produced by the DSP primitives in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DspError {
    /// An FFT was requested for a length that is not a power of two.
    FftLengthNotPowerOfTwo(usize),
    /// A window/frame configuration was inconsistent (e.g. zero-length
    /// window or hop).
    InvalidFrameConfig {
        /// Window length in samples.
        window: usize,
        /// Hop length in samples.
        hop: usize,
    },
    /// A filter was configured with an unusable parameter (e.g. cutoff
    /// outside `(0, fs/2)`).
    InvalidFilterParameter(String),
    /// An operation received an empty input where at least one sample is
    /// required.
    EmptyInput(&'static str),
    /// Two inputs that must agree in dimension did not.
    DimensionMismatch {
        /// Dimension of the first operand.
        left: usize,
        /// Dimension of the second operand.
        right: usize,
    },
    /// A mel/MFCC configuration was invalid (e.g. more coefficients than
    /// filters).
    InvalidMelConfig(String),
    /// A computation overflowed to an infinite or NaN intermediate, so
    /// its result is meaningless (e.g. a correlation of inputs scaled
    /// near `f32::MAX`).
    NonFinite(&'static str),
}

impl fmt::Display for DspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DspError::FftLengthNotPowerOfTwo(n) => {
                write!(f, "fft length {n} is not a power of two")
            }
            DspError::InvalidFrameConfig { window, hop } => {
                write!(f, "invalid frame config: window={window}, hop={hop}")
            }
            DspError::InvalidFilterParameter(msg) => {
                write!(f, "invalid filter parameter: {msg}")
            }
            DspError::EmptyInput(what) => write!(f, "empty input: {what}"),
            DspError::DimensionMismatch { left, right } => {
                write!(f, "dimension mismatch: {left} vs {right}")
            }
            DspError::InvalidMelConfig(msg) => write!(f, "invalid mel config: {msg}"),
            DspError::NonFinite(what) => write!(f, "non-finite intermediate: {what}"),
        }
    }
}

impl Error for DspError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let variants: Vec<DspError> = vec![
            DspError::FftLengthNotPowerOfTwo(3),
            DspError::InvalidFrameConfig { window: 0, hop: 1 },
            DspError::InvalidFilterParameter("cutoff".into()),
            DspError::EmptyInput("signal"),
            DspError::DimensionMismatch { left: 2, right: 3 },
            DspError::InvalidMelConfig("filters".into()),
            DspError::NonFinite("window"),
        ];
        for v in variants {
            let s = v.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DspError>();
    }
}
