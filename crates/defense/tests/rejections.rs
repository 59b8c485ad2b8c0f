//! One input per rejection reason: `DefenseSystem::verify` names the
//! reason, `score_with_method` reads it as `0.0`, and the matching
//! `defense.reject.<reason>` counter advances. Finite recordings loud
//! enough to overflow f32 sums are rejected with a reason too.
//!
//! The counters live in the global obs registry, so this file holds a
//! single test: no other test in its binary can bump them concurrently.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Arc;
use thrubarrier_defense::segmentation::{DetectorTrainConfig, PhonemeDetector, SegmentSelector};
use thrubarrier_defense::{DefenseMethod, DefenseSystem, Reason};
use thrubarrier_dsp::{gen, AudioBuffer};
use thrubarrier_phoneme::corpus::{speaker_panel, training_corpus};
use thrubarrier_phoneme::inventory::Inventory;
use thrubarrier_phoneme::synth::Synthesizer;
use thrubarrier_vibration::Wearable;

/// A selector that never marks a frame as sensitive.
struct NothingSensitive;

impl SegmentSelector for NothingSensitive {
    fn sensitive_frames(&self, audio: &[f32], _sample_rate: u32) -> Vec<bool> {
        vec![false; audio.len() / 160]
    }
}

/// A small trained BRNN phoneme detector, the paper's selector. Nine
/// units leave one lane to the activation kernels' scalar tail, which
/// carries a NaN feature through to the logits.
fn brnn_selector() -> PhonemeDetector {
    let mut rng = StdRng::seed_from_u64(12);
    let panel = speaker_panel(1, 1, &mut rng);
    let corpus = training_corpus(&Synthesizer::new(16_000), 4, &panel, &mut rng);
    let sensitive: HashSet<_> = [Inventory::by_symbol("ih").unwrap()].into_iter().collect();
    let cfg = DetectorTrainConfig {
        hidden_size: 9,
        epochs: 1,
        batch_size: 4,
        learning_rate: 3e-3,
    };
    PhonemeDetector::train(&sensitive, &corpus, &cfg, &mut rng)
}

fn reject_count(name: &'static str) -> u64 {
    thrubarrier_obs::registry().counter(name).get()
}

#[test]
fn every_reason_is_typed_scored_zero_and_counted() {
    let fs = 16_000;
    let mut rng = StdRng::seed_from_u64(1);
    let speech = AudioBuffer::new(gen::chirp(150.0, 3_000.0, 0.1, fs, 1.0), fs);
    let mut nan = speech.samples().to_vec();
    nan[4_000] = f32::NAN;
    let nan = AudioBuffer::new(nan, fs);
    let narrowband = AudioBuffer::new(gen::chirp(150.0, 3_000.0, 0.1, 8_000, 1.0), 8_000);
    let default = DefenseSystem::paper_default();
    let unselective =
        DefenseSystem::with_selector(Wearable::fossil_gen_5(), Arc::new(NothingSensitive));

    let cases = [
        (
            "defense.reject.empty_input",
            &default,
            AudioBuffer::empty(fs),
            speech.clone(),
            Reason::EmptyInput,
        ),
        (
            "defense.reject.rate_mismatch",
            &default,
            narrowband,
            speech.clone(),
            Reason::RateMismatch,
        ),
        (
            "defense.reject.non_finite",
            &default,
            speech.clone(),
            nan,
            Reason::NonFinite,
        ),
        (
            "defense.reject.insufficient_evidence",
            &unselective,
            speech.clone(),
            speech.clone(),
            Reason::InsufficientEvidence { selected_s: 0.0 },
        ),
    ];
    for (counter, system, va, wearable, reason) in cases {
        let before = reject_count(counter);
        let decision = system.verify(
            &va,
            &wearable,
            None,
            &mut [(DefenseMethod::Full, &mut StdRng::seed_from_u64(2))],
        );
        assert_eq!(decision.outcome(DefenseMethod::Full), Some(Err(reason)));
        let score = system.score_with_method(DefenseMethod::Full, &va, &wearable, &mut rng);
        assert_eq!(score, 0.0, "{counter}");
        if thrubarrier_obs::COMPILED {
            assert_eq!(reject_count(counter), before + 2, "{counter}");
        }
    }

    // A precomputed all-false mask is the same rejection.
    let frames = default
        .selector()
        .sensitive_frames(speech.samples(), fs)
        .len();
    let decision = default.verify(
        &speech,
        &speech,
        Some(&vec![false; frames]),
        &mut [(DefenseMethod::Full, &mut StdRng::seed_from_u64(3))],
    );
    assert_eq!(
        decision.outcome(DefenseMethod::Full),
        Some(Err(Reason::InsufficientEvidence { selected_s: 0.0 }))
    );
    assert_eq!(decision.selected_s, Some(0.0));

    // Finite samples whose sums overflow f32: at these gains the sync
    // correlation window turns infinite or NaN, and at 1e20 (with sync
    // switched off) so do the replay RMS, the 2-D correlation and every
    // MFCC coefficient the BRNN selector reads. Every method must name
    // a reason rather than score a bare 0.0 or panic.
    let mut noise_rng = StdRng::seed_from_u64(4);
    let mut va = gen::chirp(150.0, 3_000.0, 0.1, fs, 1.5);
    let mut late = va[1_600..].to_vec();
    gen::add_gaussian_noise(&mut va, 0.01, &mut noise_rng);
    gen::add_gaussian_noise(&mut late, 0.01, &mut noise_rng);
    let mut unsynced = DefenseSystem::paper_default();
    unsynced.synchronize = false;
    let mut brnn_unsynced =
        DefenseSystem::with_selector(Wearable::fossil_gen_5(), Arc::new(brnn_selector()));
    brnn_unsynced.synchronize = false;
    let cases = [
        (1e18f32, &default, [Reason::SyncFailed; 3]),
        (1e20, &default, [Reason::SyncFailed; 3]),
        (
            1e20,
            &unsynced,
            [
                Reason::NonFinite,
                Reason::NonFinite,
                // The energy selector finds no frame in the overflowed
                // recording.
                Reason::InsufficientEvidence { selected_s: 0.0 },
            ],
        ),
        (
            1e20,
            &brnn_unsynced,
            [
                Reason::NonFinite,
                Reason::NonFinite,
                // Neither does the BRNN: its NaN logits label every
                // frame not sensitive.
                Reason::InsufficientEvidence { selected_s: 0.0 },
            ],
        ),
    ];
    for (gain, system, reasons) in cases {
        let scaled = |s: &[f32]| AudioBuffer::new(s.iter().map(|x| x * gain).collect(), fs);
        let (va, late) = (scaled(&va), scaled(&late));
        assert!(va
            .samples()
            .iter()
            .chain(late.samples())
            .all(|x| x.is_finite()));
        let mut rngs = [1, 2, 3].map(StdRng::seed_from_u64);
        let [a, b, c] = &mut rngs;
        let decision = system.verify(
            &va,
            &late,
            None,
            &mut [
                (DefenseMethod::AudioBaseline, a),
                (DefenseMethod::VibrationBaseline, b),
                (DefenseMethod::Full, c),
            ],
        );
        for (method, reason) in DefenseMethod::all().into_iter().zip(reasons) {
            assert_eq!(
                decision.outcome(method),
                Some(Err(reason)),
                "gain {gain:e}, sync {}, {method:?}",
                system.synchronize
            );
        }
    }
}
