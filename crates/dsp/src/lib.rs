//! Signal-processing substrate for the `thrubarrier` workspace.
//!
//! This crate provides every digital-signal-processing primitive the
//! reproduction of *"Defending against Thru-barrier Stealthy Voice Attacks
//! via Cross-Domain Sensing on Phoneme Sounds"* (ICDCS 2022) relies on,
//! implemented from scratch:
//!
//! * complex arithmetic and a planned radix-2 [`fft`] with a thread-local
//!   plan cache and a packed real-input fast path,
//! * cached frequency-[`response`] curves shared by every simulated
//!   transducer and barrier,
//! * [`window`] functions and the short-time Fourier transform ([`stft`]),
//! * mel filterbanks and MFCC extraction ([`mel`]),
//! * IIR biquad and windowed-sinc FIR [`filter`]s,
//! * sample-rate conversion with *and without* anti-aliasing ([`resample`] —
//!   the "without" path models the aliasing behaviour of wearable
//!   accelerometers),
//! * bounded-lag delay estimation with size-selected time-domain / FFT
//!   searches, and the 2-D Pearson correlation used by the paper's
//!   attack detector ([`correlate`]),
//! * descriptive statistics including the third-quartile estimator used by
//!   the phoneme-selection criteria ([`stats`]),
//! * deterministic signal generators (tones, chirps, Gaussian noise)
//!   ([`gen`]).
//!
//! # Example
//!
//! ```
//! use thrubarrier_dsp::{gen, stft::Stft, window::WindowKind};
//!
//! # fn main() -> Result<(), thrubarrier_dsp::DspError> {
//! let tone = gen::sine(1_000.0, 0.5, 16_000, 0.25);
//! let stft = Stft::new(400, 160, WindowKind::Hann)?;
//! let spec = stft.power_spectrogram(&tone, 16_000);
//! assert!(spec.frames() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod complex;
pub mod correlate;
pub mod error;
pub mod features;
pub mod fft;
pub mod filter;
pub mod gen;
pub mod mel;
pub mod resample;
pub mod response;
pub mod stats;
pub mod stft;
pub mod wav;
pub mod window;

pub use buffer::AudioBuffer;
pub use complex::Complex;
pub use error::DspError;
pub use stft::{Spectrogram, Stft};
