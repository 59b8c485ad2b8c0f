//! Property-based tests for the evaluation metrics.

use proptest::prelude::*;
use thrubarrier_eval::metrics::{DetectionMetrics, RocCurve};

/// End-to-end guard for the fused scene engine: trials *rendered*
/// through the fused acoustic path must yield bitwise the same ROC AUC /
/// EER as trials rendered through the staged oracle at a fixed seed. The
/// recordings themselves differ at tolerance level (the render happens
/// during trial building), so this pins that those differences never
/// reorder legitimate vs attack scores.
#[test]
fn fused_and_staged_render_yield_same_roc() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrubarrier_acoustics::RenderPath;
    use thrubarrier_attack::AttackKind;
    use thrubarrier_defense::DefenseSystem;
    use thrubarrier_eval::scenario::TrialContext;

    let mut metrics = Vec::new();
    for render in [RenderPath::Fused, RenderPath::Staged] {
        // Same seed per render path: identical speakers, commands,
        // sources and physics draws — only the render implementation
        // differs.
        let mut ctx = TrialContext::seeded_with_render(0xACE, render);
        let mut trials = Vec::new();
        for _ in 0..4 {
            trials.push(ctx.legitimate_trial());
            trials.push(ctx.attack_trial(AttackKind::Replay));
            trials.push(ctx.attack_trial(AttackKind::HiddenVoice));
        }
        let sys = DefenseSystem::paper_default();
        let mut legit = Vec::new();
        let mut attack = Vec::new();
        for (i, t) in trials.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(i as u64);
            let s = sys.score(&t.va_recording, &t.wearable_recording, &mut rng);
            if t.is_attack {
                attack.push(s);
            } else {
                legit.push(s);
            }
        }
        metrics.push(DetectionMetrics::from_scores(&legit, &attack));
    }
    assert_eq!(
        metrics[0].auc, metrics[1].auc,
        "AUC diverged across render paths"
    );
    assert_eq!(
        metrics[0].eer, metrics[1].eer,
        "EER diverged across render paths"
    );
}

fn scores() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(0.0f32..1.0, 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn auc_is_in_unit_interval(legit in scores(), attack in scores()) {
        let m = DetectionMetrics::from_scores(&legit, &attack);
        prop_assert!((0.0..=1.0 + 1e-4).contains(&m.auc), "auc {}", m.auc);
        prop_assert!((0.0..=0.5 + 1e-4).contains(&m.eer) || m.eer <= 1.0);
    }

    #[test]
    fn roc_endpoints_are_anchored(legit in scores(), attack in scores()) {
        let roc = RocCurve::from_scores(&legit, &attack);
        let first = roc.points.first().unwrap();
        // Threshold 0: nothing scores below 0 -> no detections at all.
        prop_assert_eq!(first.tdr, 0.0);
        prop_assert_eq!(first.fdr, 0.0);
        // The sweep is monotone.
        for w in roc.points.windows(2) {
            prop_assert!(w[1].tdr >= w[0].tdr);
            prop_assert!(w[1].fdr >= w[0].fdr);
        }
    }

    #[test]
    fn separating_distributions_beat_random(
        gap in 0.2f32..0.6,
        n in 5usize..40,
    ) {
        let legit: Vec<f32> = (0..n).map(|i| 0.5 + gap / 2.0 + 0.2 * (i as f32 / n as f32)).collect();
        let attack: Vec<f32> = (0..n).map(|i| 0.5 - gap / 2.0 - 0.2 * (i as f32 / n as f32)).collect();
        let legit: Vec<f32> = legit.into_iter().map(|v| v.clamp(0.0, 1.0)).collect();
        let attack: Vec<f32> = attack.into_iter().map(|v| v.clamp(0.0, 1.0)).collect();
        let m = DetectionMetrics::from_scores(&legit, &attack);
        prop_assert!(m.auc > 0.95, "auc {}", m.auc);
        prop_assert!(m.eer < 0.1, "eer {}", m.eer);
    }

    #[test]
    fn swapping_classes_flips_auc(legit in scores(), attack in scores()) {
        let forward = DetectionMetrics::from_scores(&legit, &attack).auc;
        let reversed = DetectionMetrics::from_scores(&attack, &legit).auc;
        // AUC(a,b) + AUC(b,a) ~ 1 (exact up to the discrete threshold grid
        // and ties).
        prop_assert!((forward + reversed - 1.0).abs() < 0.12, "{forward} + {reversed}");
    }

    #[test]
    fn eer_threshold_is_within_sweep(legit in scores(), attack in scores()) {
        let roc = RocCurve::from_scores(&legit, &attack);
        let t = roc.eer_threshold();
        prop_assert!((0.0..=1.0).contains(&t));
    }

    #[test]
    fn shifting_both_classes_by_constant_keeps_order(
        legit in scores(),
        attack in scores(),
        shift in 0.0f32..0.3,
    ) {
        // Compress the range, shift, and verify AUC direction survives
        // (threshold sweep covers [0,1] so shifted scores stay inside).
        let l2: Vec<f32> = legit.iter().map(|v| v * 0.5 + shift).collect();
        let a2: Vec<f32> = attack.iter().map(|v| v * 0.5 + shift).collect();
        let before = DetectionMetrics::from_scores(&legit, &attack).auc;
        let after = DetectionMetrics::from_scores(&l2, &a2).auc;
        prop_assert!(
            (before - after).abs() < 0.15,
            "auc changed {before} -> {after}"
        );
    }
}
