//! Layer-by-layer replicas of the defense's scoring paths, built from
//! the same public calls in the same order as `DefenseSystem`, with a
//! span around each layer. The traced runs check that every replica
//! score equals the program's bitwise.

use crate::trace::Tracer;
use rand::Rng;
use thrubarrier_defense::features::VibrationFeatureExtractor;
use thrubarrier_defense::segmentation::{extract_selected_samples, PhonemeDetector};
use thrubarrier_defense::{sync, DefenseSystem};
use thrubarrier_dsp::AudioBuffer;

/// Frame geometry of the paper's MFCC front-end, as the defense uses it
/// to cut sensitive segments.
const FRAME_LEN: usize = 400;
const HOP: usize = 160;

/// Span names of the defense layers, in pipeline order.
pub const DEFENSE_LAYERS: [&str; 8] = [
    "defense.sync",
    "dsp.mfcc",
    "nn.infer",
    "defense.select",
    "vibration.convert",
    "defense.features",
    "defense.correlate",
    "defense.audio_features",
];

/// Useful-work counts of the full method.
#[derive(Debug, Clone, Copy, Default)]
pub struct Evidence {
    /// Full-method scorings.
    pub scored: u64,
    /// Seconds of sensitive-phoneme audio selected, summed.
    pub selected_s: f64,
    /// Scorings rejected for too little sensitive audio.
    pub short: u64,
    /// Scorings whose synchronisation failed.
    pub sync_failed: u64,
}

/// Asserts the system runs the configuration the replicas mirror.
pub fn assert_mirrorable(system: &DefenseSystem) {
    assert!(
        system.synchronize && system.normalize_replay,
        "replicas mirror the default pipeline (sync and replay normalisation on)"
    );
}

/// The defense under test: the assembled system and its BRNN selector.
#[derive(Clone, Copy)]
pub struct Defense<'a> {
    /// The system the program scores with.
    pub system: &'a DefenseSystem,
    /// Its segment selector.
    pub detector: &'a PhonemeDetector,
}

fn align(
    t: &mut Tracer,
    system: &DefenseSystem,
    va: &AudioBuffer,
    w: &AudioBuffer,
) -> Option<AudioBuffer> {
    t.span("defense.sync", |_| {
        sync::synchronize(va, w, system.max_sync_delay_s)
            .ok()
            .map(|(aligned, _delay)| aligned)
    })
}

/// The per-recording sensitive-frame mask (`sensitive_frames`).
fn mask(t: &mut Tracer, detector: &PhonemeDetector, audio: &[f32]) -> Vec<bool> {
    let feats = t.span("dsp.mfcc", |_| detector.mfcc().extract(audio));
    t.span("nn.infer", |_| detector.model().predict(&feats))
        .into_iter()
        .map(|c| c == 1)
        .collect()
}

/// Full method (`DefenseSystem::score`): sync, mask (computed here
/// unless `mask_in` is given), selection, vibration tail.
pub fn full<R: Rng + ?Sized>(
    t: &mut Tracer,
    defense: Defense<'_>,
    (va, w): (&AudioBuffer, &AudioBuffer),
    mask_in: Option<&[bool]>,
    rng: &mut R,
    evidence: &mut Evidence,
) -> f32 {
    let system = defense.system;
    if va.is_empty() || w.is_empty() {
        return 0.0;
    }
    evidence.scored += 1;
    let Some(aligned) = align(t, system, va, w) else {
        evidence.sync_failed += 1;
        return 0.0;
    };
    let own_mask;
    let mask_ref = match mask_in {
        Some(m) => m,
        None => {
            own_mask = mask(t, defense.detector, va.samples());
            &own_mask
        }
    };
    let fs = va.sample_rate();
    let (va_sel, w_sel) = t.span("defense.select", |_| {
        (
            extract_selected_samples(va.samples(), mask_ref, FRAME_LEN, HOP),
            extract_selected_samples(aligned.samples(), mask_ref, FRAME_LEN, HOP),
        )
    });
    evidence.selected_s += va_sel.len() as f64 / f64::from(fs);
    if (va_sel.len() as f32) < system.min_selected_s * fs as f32 {
        evidence.short += 1;
        return 0.0;
    }
    vibration_tail(t, system, &va_sel, &w_sel, fs, rng)
}

/// Vibration-domain baseline: sync, then the vibration tail on the
/// whole recordings.
pub fn vibration_baseline<R: Rng + ?Sized>(
    t: &mut Tracer,
    system: &DefenseSystem,
    (va, w): (&AudioBuffer, &AudioBuffer),
    rng: &mut R,
) -> f32 {
    if va.is_empty() || w.is_empty() {
        return 0.0;
    }
    let Some(aligned) = align(t, system, va, w) else {
        return 0.0;
    };
    vibration_tail(
        t,
        system,
        va.samples(),
        aligned.samples(),
        va.sample_rate(),
        rng,
    )
}

/// Audio-domain baseline: sync, STFT features of both recordings,
/// correlation.
pub fn audio_baseline(
    t: &mut Tracer,
    system: &DefenseSystem,
    (va, w): (&AudioBuffer, &AudioBuffer),
) -> f32 {
    if va.is_empty() || w.is_empty() {
        return 0.0;
    }
    let Some(aligned) = align(t, system, va, w) else {
        return 0.0;
    };
    let (a, b) = t.span("defense.audio_features", |_| {
        (
            VibrationFeatureExtractor::extract_audio_baseline(va),
            VibrationFeatureExtractor::extract_audio_baseline(&aligned),
        )
    });
    t.span("defense.correlate", |_| system.detector.score(&a, &b))
}

/// Replay normalisation, wearable conversion of both signals, vibration
/// features and their 2-D correlation.
fn vibration_tail<R: Rng + ?Sized>(
    t: &mut Tracer,
    system: &DefenseSystem,
    va_audio: &[f32],
    w_audio: &[f32],
    fs: u32,
    rng: &mut R,
) -> f32 {
    let normalize = |sig: &[f32]| -> Vec<f32> {
        let rms = thrubarrier_dsp::stats::rms(sig);
        if rms <= 0.0 {
            return sig.to_vec();
        }
        let g = DefenseSystem::REPLAY_RMS / rms;
        sig.iter().map(|&x| x * g).collect()
    };
    let (va_replay, w_replay) = t.span("defense.select", |_| {
        (normalize(va_audio), normalize(w_audio))
    });
    let (vib_va, vib_w) = t.span("vibration.convert", |_| {
        thrubarrier_vibration::with_engine(|e| {
            e.convert_pair(&system.wearable, &va_replay, &w_replay, fs, rng)
        })
    });
    let (fa, fb) = t.span("defense.features", |_| {
        (
            system.features.extract(&vib_va),
            system.features.extract(&vib_w),
        )
    });
    t.span("defense.correlate", |_| system.detector.score(&fa, &fb))
}
