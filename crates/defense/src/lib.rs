//! The thru-barrier attack defense system — the paper's contribution.
//!
//! A training-free defense that compares the voice command recorded by
//! the VA device with the one recorded by the user's wearable **in the
//! vibration domain**, where the barrier's frequency-selective
//! attenuation becomes conspicuous:
//!
//! 1. [`sync`] — *Cross-device Synchronization*: the wearable is
//!    triggered over WiFi when the VA hears the wake word; residual
//!    network delay is estimated by cross-correlation (paper Eq. 5) and
//!    removed.
//! 2. [`selection`] — *Barrier-effect Sensitive Phoneme Selection*
//!    (offline): the 37 common phonemes are screened by Criterion I
//!    (must **not** trigger the accelerometer after passing a barrier)
//!    and Criterion II (must trigger it without a barrier), both stated
//!    on third-quartile vibration FFT magnitudes against the threshold
//!    α = 0.015 (paper Eqs. 2–3). 31 of 37 phonemes survive.
//! 3. [`segmentation`] — *Barrier-effect Sensitive Phoneme Segmentation*
//!    (online): a BRNN (bidirectional LSTM, 64 units) over 14 MFCCs
//!    (40 mel filters, 0–900 Hz, 25 ms/10 ms frames) marks the frames
//!    containing sensitive phonemes; those segments are concatenated for
//!    cross-domain sensing.
//! 4. [`features`] — *Vibration-domain Feature Extraction*: each
//!    recording is replayed through the wearable speaker and captured by
//!    the accelerometer, then 64-point STFT power features are computed,
//!    bins at or below 5 Hz are cropped (sensor artifact + body motion)
//!    and the map is normalized by its maximum (distance invariance).
//! 5. [`detector`] — *Thru-barrier Attack Detector*: the 2-D correlation
//!    coefficient of the two normalized feature maps (paper Eq. 6);
//!    thru-barrier attacks convert noisily (low-frequency-driven
//!    accelerometer noise) and score low; a threshold decides.
//!
//! [`system::DefenseSystem`] wires the pipeline together and also
//! implements the two baselines the paper evaluates against: audio-domain
//! 2-D correlation, and vibration-domain correlation *without* phoneme
//! selection.

#![warn(missing_docs)]

pub mod detector;
pub mod features;
pub mod guard;
pub mod segmentation;
pub mod selection;
pub mod sync;
pub mod system;

pub use detector::CorrelationDetector;
pub use guard::{VaGuard, Verdict};
pub use segmentation::{EnergySelector, PhonemeDetector, SegmentSelector};
pub use selection::{PhonemeSelection, SelectionConfig};
pub use system::{Decision, DefenseMethod, DefenseSystem, Reason};
