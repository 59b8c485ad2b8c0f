//! Property-based tests for the defense pipeline.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use thrubarrier_defense::segmentation::{
    extract_selected_samples, EnergySelector, SegmentSelector,
};
use thrubarrier_defense::sync;
use thrubarrier_defense::{DefenseMethod, DefenseSystem};
use thrubarrier_dsp::{gen, AudioBuffer};

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
}
