//! Property-based tests for the defense pipeline.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use thrubarrier_defense::segmentation::{
    extract_selected_samples, EnergySelector, SegmentSelector,
};
use thrubarrier_defense::sync;
use thrubarrier_defense::{DefenseMethod, DefenseSystem, Reason};
use thrubarrier_dsp::{gen, AudioBuffer};

/// A speech-like recording: noise under a slow syllable-rate envelope.
fn speechlike(rng: &mut StdRng, n: usize) -> Vec<f32> {
    let mut sig = gen::gaussian_noise(rng, 0.1, n);
    for (i, v) in sig.iter_mut().enumerate() {
        *v *= 0.4 + 0.6 * (i as f32 / 900.0).sin().abs();
    }
    sig
}

/// The RNG a trial gives method `i` of [`DefenseMethod::all`].
fn method_rng(seed: u64, i: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (0xC0FFEE + i as u64))
}

/// An outcome with its score as bits, so equality is bitwise.
fn bits(outcome: Option<Result<f32, Reason>>) -> Option<Result<u32, Reason>> {
    outcome.map(|o| o.map(f32::to_bits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn scores_are_always_in_unit_interval(
        seed in 0u64..50,
        len_a in 100usize..20_000,
        len_b in 100usize..20_000,
        amp in 0.0f32..0.3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = AudioBuffer::new(gen::gaussian_noise(&mut rng, amp, len_a), 16_000);
        let b = AudioBuffer::new(gen::gaussian_noise(&mut rng, amp, len_b), 16_000);
        let system = DefenseSystem::paper_default();
        for method in DefenseMethod::all() {
            let s = system.score_with_method(method, &a, &b, &mut rng);
            prop_assert!((0.0..=1.0).contains(&s), "{method:?}: {s}");
        }
    }

    #[test]
    fn identical_wideband_recordings_score_high(seed in 0u64..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sig = gen::chirp(200.0, 3_000.0, 0.1, 16_000, 1.5);
        let buf = AudioBuffer::new(sig, 16_000);
        let system = DefenseSystem::paper_default();
        let s = system.score_with_method(
            DefenseMethod::VibrationBaseline,
            &buf,
            &buf,
            &mut rng,
        );
        prop_assert!(s > 0.5, "score {s}");
    }

    #[test]
    fn extraction_never_exceeds_source_length(
        audio_len in 0usize..5_000,
        mask_len in 0usize..40,
        seed in 0u64..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let audio: Vec<f32> = (0..audio_len).map(|i| (i as f32 * 0.01).sin()).collect();
        let mask: Vec<bool> = (0..mask_len).map(|_| rand::Rng::gen_bool(&mut rng, 0.5)).collect();
        let out = extract_selected_samples(&audio, &mask, 400, 160);
        prop_assert!(out.len() <= audio.len());
    }

    #[test]
    fn extraction_with_full_mask_covers_all_hops(n_frames in 1usize..30) {
        let hop = 160;
        let frame_len = 400;
        let audio_len = (n_frames - 1) * hop + frame_len;
        let audio: Vec<f32> = (0..audio_len).map(|i| i as f32).collect();
        let mask = vec![true; n_frames];
        let out = extract_selected_samples(&audio, &mask, frame_len, hop);
        // Full mask reconstructs the entire signal (hops + final tail).
        prop_assert_eq!(out.len(), audio_len);
        prop_assert_eq!(out[0], 0.0);
    }

    #[test]
    fn synchronizer_recovers_any_delay_within_bound(
        delay_ms in 0u32..180,
        seed in 0u64..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut source = gen::gaussian_noise(&mut rng, 0.1, 24_000);
        for (i, v) in source.iter_mut().enumerate() {
            *v *= 0.4 + 0.6 * (i as f32 / 900.0).sin().abs();
        }
        let va = AudioBuffer::new(source, 16_000);
        let delayed = sync::apply_trigger_delay(&va, delay_ms as f32 / 1_000.0);
        let (_, est) = sync::synchronize(&va, &delayed, 0.25).unwrap();
        let expected = (delay_ms as f32 / 1_000.0 * 16_000.0).round() as isize;
        prop_assert!((est - expected).abs() <= 2, "est {est} expected {expected}");
    }

    #[test]
    fn energy_selector_mask_length_tracks_frames(len in 1usize..10_000) {
        let audio = vec![0.1f32; len];
        let sel = EnergySelector::default();
        let mask = sel.sensitive_frames(&audio, 16_000);
        let expected = if len < 400 { 1 } else { (len - 400) / 160 + 1 };
        prop_assert_eq!(mask.len(), expected);
    }

    #[test]
    fn each_method_scores_the_same_alone_or_together(
        seed in 0u64..1_000,
        delay_ms in 0u32..180,
        mask_density in 0.0f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let source = speechlike(&mut rng, 16_000);
        let va = AudioBuffer::new(source.clone(), 16_000);
        let mut heard = source;
        for v in &mut heard {
            *v = 0.7 * *v + 0.005 * gen::standard_normal(&mut rng);
        }
        let wearable =
            sync::apply_trigger_delay(&AudioBuffer::new(heard, 16_000), delay_ms as f32 / 1e3);
        let frames = EnergySelector::default().sensitive_frames(va.samples(), 16_000).len();
        let mask: Vec<bool> = (0..frames)
            .map(|_| rand::Rng::gen_bool(&mut rng, mask_density))
            .collect();
        let default = DefenseSystem::paper_default();
        let mut no_sync = default.clone();
        no_sync.synchronize = false;
        let mut no_replay = default.clone();
        no_replay.normalize_replay = false;
        let methods = DefenseMethod::all();
        for system in [&default, &no_sync, &no_replay] {
            for mask in [None, Some(mask.as_slice())] {
                let mut rngs: Vec<StdRng> =
                    (0..methods.len()).map(|i| method_rng(seed, i)).collect();
                let mut all: Vec<_> = methods.iter().copied().zip(&mut rngs).collect();
                let together = system.verify(&va, &wearable, mask, &mut all);
                for (i, &method) in methods.iter().enumerate() {
                    let mut rng = method_rng(seed, i);
                    let alone = system.verify(&va, &wearable, mask, &mut [(method, &mut rng)]);
                    prop_assert_eq!(
                        bits(together.outcome(method)),
                        bits(alone.outcome(method)),
                        "{:?} sync {} replay {} mask {}",
                        method,
                        system.synchronize,
                        system.normalize_replay,
                        mask.is_some()
                    );
                    prop_assert_eq!(together.sync_lag, alone.sync_lag);
                }
            }
        }
    }
}
