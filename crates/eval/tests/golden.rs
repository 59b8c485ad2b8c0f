//! Cross-commit golden pin: a tiny fixed-seed evaluation and three
//! defense scores, compared as exact `f32` bit patterns.
//!
//! Kernel rewrites in the DSP and NN layers (SIMD butterflies, sparse
//! filterbanks, fused gates) claim to be bitwise identical to the code
//! they replace. This test turns that claim into a gate: the constants
//! below were recorded from the code before such a rewrite, and any
//! later change that moves a single score bit fails here.
//!
//! The run drives the paper's pipeline end to end — a trained BRNN
//! selector (MFCC front-end), cross-device sync, vibration conversion
//! and the 2-D correlation detector — over all four attack kinds.
//!
//! Twiddle tables and synthesis call the platform's `sin`/`cos`, so the
//! pinned bits hold for one libm: the test only runs on x86-64 Linux.
//! If a change is meant to move scores, re-record the constants from
//! the failure message and say why in the change log.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use rand::rngs::StdRng;
use rand::SeedableRng;
use thrubarrier_attack::AttackKind;
use thrubarrier_defense::{DefenseMethod, DefenseSystem};
use thrubarrier_eval::experiments::common::standard_settings;
use thrubarrier_eval::{Runner, RunnerConfig, SelectorChoice, TrialContext};
use thrubarrier_vibration::Wearable;

/// `(auc, eer)` bits per method, in [`DefenseMethod::all`] order.
const ROC_BITS: [(DefenseMethod, u32, u32); 3] = [
    (DefenseMethod::AudioBaseline, 0x3f70_0000, 0x3e15_5556),
    (DefenseMethod::VibrationBaseline, 0x3f80_0000, 0),
    (DefenseMethod::Full, 0x3f80_0000, 0),
];

/// FNV-1a over the bits of every pooled score, legitimate then attack,
/// method by method.
const POOL_HASH: u64 = 0xfc6b_0358_dc0c_a807;

/// Full-method scores of a legitimate trial, a replay attack and a
/// hidden voice command.
const SCORE_BITS: [u32; 3] = [0x3f6c_e6b9, 0, 0x3e1f_0a9b];

fn config() -> RunnerConfig {
    RunnerConfig {
        seed: 0x601D,
        participants: 2,
        commands_per_user: 3,
        attacks_per_kind: 2,
        attack_kinds: AttackKind::all().to_vec(),
        settings: standard_settings(),
        selector: SelectorChoice::Brnn {
            corpus_size: 12,
            epochs: 2,
            hidden: 16,
        },
        threads: 1,
        batch_size: 4,
    }
}

fn fnv1a(hash: u64, bits: u32) -> u64 {
    bits.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn fixed_seed_roc_and_scores_match_the_recorded_bits() {
    let runner = Runner::new(config());
    let (selector, symbols) = runner.build_selector();
    let outcome = runner.run_with_selector(selector.clone(), symbols);

    let mut roc = Vec::new();
    let mut pool_hash = 0xcbf2_9ce4_8422_2325u64;
    for (method, pool) in &outcome.pools {
        let m = pool.metrics();
        roc.push((*method, m.auc.to_bits(), m.eer.to_bits()));
        for s in pool.legitimate.iter().chain(&pool.attack_scores()) {
            pool_hash = fnv1a(pool_hash, s.to_bits());
        }
    }

    let system = DefenseSystem::with_selector(Wearable::fossil_gen_5(), selector);
    let mut ctx = TrialContext::seeded(0x601D);
    let trials = [
        ctx.legitimate_trial(),
        ctx.replay_attack_trial(),
        ctx.attack_trial(AttackKind::HiddenVoice),
    ];
    let scores: Vec<u32> = trials
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut rng = StdRng::seed_from_u64(i as u64);
            system
                .score(&t.va_recording, &t.wearable_recording, &mut rng)
                .to_bits()
        })
        .collect();

    let observed =
        format!("ROC_BITS = {roc:?}\nPOOL_HASH = {pool_hash:#018x}\nSCORE_BITS = {scores:#010x?}");
    assert_eq!(roc, ROC_BITS, "ROC moved; observed:\n{observed}");
    assert_eq!(
        pool_hash, POOL_HASH,
        "pooled scores moved; observed:\n{observed}"
    );
    assert_eq!(
        scores, SCORE_BITS,
        "defense scores moved; observed:\n{observed}"
    );
}
