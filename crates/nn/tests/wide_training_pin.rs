//! Fixed-seed pin of the wide training path: a 48-unit BiLSTM (and a
//! 48-unit BiGRU) trained for a few steps must land on recorded
//! parameter and logit bits.
//!
//! `crates/eval/tests/golden.rs` trains a 16-unit model, whose every
//! product takes the narrow (< 32 column) GEMM path, so it cannot see
//! the sixteen-lane fused dot kernels that carry the recurrent step,
//! the head and the backward at the paper's width. This test does: at
//! 48 units `U` and the head are wide while the 14-wide input
//! projections stay narrow, and `train_step` runs the packed forward,
//! the fused backward and ADAM over a mixed-length minibatch.
//!
//! The pinned bits hold for one libm (the loss and ADAM call `exp` and
//! `sqrt`), so the test only runs on x86-64 Linux like `golden.rs`. If
//! a change is meant to move trained bits, re-record the constants from
//! the failure message and say why in the change log.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use rand::rngs::StdRng;
use rand::SeedableRng;
use thrubarrier_nn::gru::BiGru;
use thrubarrier_nn::model::{BrnnClassifier, TrainConfig};

/// FNV-1a over the serialized model (every parameter's bits, in save
/// order) after [`STEPS`] training steps.
const PARAM_HASH: u64 = 0xb6d7_0e0e_0c44_4caf;

/// FNV-1a over the bits of the first sequence's per-frame logits.
const LOGIT_HASH: u64 = 0xafeb_779c_3fde_990d;

/// FNV-1a over the bits of the first sequence's per-frame logits of
/// the BiGRU classifier (which is not serializable, so only its logits
/// are pinned).
const GRU_LOGIT_HASH: u64 = 0xb3dd_5bd2_a55e_2a03;

const INPUTS: usize = 14;
const HIDDEN: usize = 48;
const STEPS: usize = 4;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Deterministic MFCC-shaped frames with a learnable frame label.
fn sequence(len: usize, phase: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
    let xs: Vec<Vec<f32>> = (0..len)
        .map(|t| {
            (0..INPUTS)
                .map(|k| ((phase * 131 + t * INPUTS + k) as f32 * 0.173).sin())
                .collect()
        })
        .collect();
    let ys = xs.iter().map(|x| usize::from(x[0] + x[3] > 0.0)).collect();
    (xs, ys)
}

/// The mixed-length minibatch both pins train on.
fn dataset() -> Vec<(Vec<Vec<f32>>, Vec<usize>)> {
    [20usize, 13, 7, 16]
        .iter()
        .enumerate()
        .map(|(i, &len)| sequence(len, i))
        .collect()
}

/// Runs [`STEPS`] training steps of `model` over `data` as one batch.
fn train<C: thrubarrier_nn::model::RecurrentCell>(
    model: &mut BrnnClassifier<C>,
    data: &[(Vec<Vec<f32>>, Vec<usize>)],
) {
    let batch: Vec<(&[Vec<f32>], &[usize])> = data
        .iter()
        .map(|(xs, ys)| (xs.as_slice(), ys.as_slice()))
        .collect();
    let cfg = TrainConfig::default();
    for _ in 0..STEPS {
        assert!(model.train_step(&batch, &cfg).is_finite());
    }
}

/// FNV-1a over the bits of `model`'s per-frame logits for `xs`.
fn logit_hash<C: thrubarrier_nn::model::RecurrentCell>(
    model: &BrnnClassifier<C>,
    xs: &[Vec<f32>],
) -> u64 {
    model
        .logits(xs)
        .iter()
        .flatten()
        .fold(0xcbf2_9ce4_8422_2325, |h, v| {
            fnv1a(h, &v.to_bits().to_le_bytes())
        })
}

#[test]
fn wide_bilstm_training_lands_on_the_recorded_bits() {
    let mut rng = StdRng::seed_from_u64(0x48);
    let mut model = BrnnClassifier::new(INPUTS, HIDDEN, 2, &mut rng);
    let data = dataset();
    train(&mut model, &data);

    let mut bytes = Vec::new();
    model.save(&mut bytes).unwrap();
    let param_hash = fnv1a(0xcbf2_9ce4_8422_2325, &bytes);
    let logit_hash = logit_hash(&model, &data[0].0);

    assert_eq!(
        (param_hash, logit_hash),
        (PARAM_HASH, LOGIT_HASH),
        "trained bits moved: PARAM_HASH = {param_hash:#018x}, LOGIT_HASH = {logit_hash:#018x}"
    );
}

#[test]
fn wide_bigru_training_lands_on_the_recorded_bits() {
    let mut rng = StdRng::seed_from_u64(0x48);
    let rnn = BiGru::new(INPUTS, HIDDEN, &mut rng);
    let mut model = BrnnClassifier::with_cell(rnn, 2, &mut rng);
    let data = dataset();
    train(&mut model, &data);

    let logit_hash = logit_hash(&model, &data[0].0);
    assert_eq!(
        logit_hash, GRU_LOGIT_HASH,
        "trained bits moved: GRU_LOGIT_HASH = {logit_hash:#018x}"
    );
}
