//! `train`: the nn write path. Each operation is one
//! `PhonemeDetector::train` run at the paper's 64 units on the set-up's
//! corpus, repeated on identical inputs.

use crate::report::Report;
use crate::seeds::{mix, Salt};
use crate::setup::{Needs, CORPUS_UTTERANCES};
use crate::trace::Tracer;
use crate::{decide, run_ops, setup_phase, waterfall_metrics, Args, OpLog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use thrubarrier_defense::segmentation::{DetectorTrainConfig, PhonemeDetector};
use thrubarrier_dsp::mel::MfccExtractor;
use thrubarrier_nn::model::{BrnnClassifier, TrainConfig};
use thrubarrier_nn::param::AdamConfig;
use thrubarrier_phoneme::corpus::{frame_labels, LabelledUtterance};
use thrubarrier_phoneme::inventory::PhonemeId;

/// Span names of the training layers.
pub const TRAIN_LAYERS: [&str; 2] = ["dsp.mfcc", "nn.train_step"];

/// The paper's detector: 64 units per direction, 2 epochs per run.
const CONFIG: DetectorTrainConfig = DetectorTrainConfig {
    hidden_size: 64,
    epochs: 2,
    batch_size: 8,
    learning_rate: 3e-3,
};

/// Optimizer steps per training run.
const STEPS: usize = CONFIG.epochs * CORPUS_UTTERANCES.div_ceil(CONFIG.batch_size);

/// Minimum training runs per untraced run.
const MIN_RUNS: usize = 8;

fn model_bytes(model: &BrnnClassifier) -> Vec<u8> {
    let mut bytes = Vec::new();
    model
        .save(&mut bytes)
        .expect("writing to a Vec cannot fail");
    bytes
}

/// A replica of `PhonemeDetector::train` from public calls, with spans
/// around featurization and each optimizer step. Returns the model and
/// the frames each step trained on.
fn replica_train(
    t: &mut Tracer,
    sensitive: &HashSet<PhonemeId>,
    corpus: &[LabelledUtterance],
    cfg: &DetectorTrainConfig,
    rng: &mut StdRng,
) -> (BrnnClassifier, Vec<usize>) {
    let mfcc = MfccExtractor::paper_default();
    let mut model = BrnnClassifier::new(mfcc.n_coeffs(), cfg.hidden_size, 2, rng);
    let data: Vec<(Vec<Vec<f32>>, Vec<usize>)> = corpus
        .iter()
        .map(|u| {
            let feats = t.span("dsp.mfcc", |_| mfcc.extract(u.utterance.audio.samples()));
            let labels = frame_labels(&u.utterance, mfcc.frame_len(), mfcc.hop(), 0, |p| {
                usize::from(sensitive.contains(&p))
            });
            (feats, labels)
        })
        .collect();
    let train_cfg = TrainConfig {
        adam: AdamConfig {
            lr: cfg.learning_rate,
            ..Default::default()
        },
    };
    let order: Vec<usize> = (0..data.len()).collect();
    let chunks: Vec<&[usize]> = order.chunks(cfg.batch_size.max(1)).collect();
    let mut chunk_order: Vec<usize> = (0..chunks.len()).collect();
    let mut frames = Vec::new();
    for _ in 0..cfg.epochs {
        for i in (1..chunk_order.len()).rev() {
            let j = rng.gen_range(0..=i);
            chunk_order.swap(i, j);
        }
        for &ci in &chunk_order {
            let batch: Vec<(&[Vec<f32>], &[usize])> = chunks[ci]
                .iter()
                .map(|&i| (data[i].0.as_slice(), data[i].1.as_slice()))
                .collect();
            frames.push(batch.iter().map(|(x, _)| x.len()).sum());
            t.span("nn.train_step", |_| model.train_step(&batch, &train_cfg));
        }
    }
    (model, frames)
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) -> Tracer {
    let (setup, setup_factor) = setup_phase(
        args,
        Needs {
            selector: false,
            pool: false,
        },
        report,
    );
    let seed = mix(args.seed, Salt::Train);
    let mut log = OpLog::new(1);
    let mut tracer = Tracer::default();
    let mut replica_ms = Vec::new();
    let mut frames = Vec::new();
    let mut mismatches = 0u64;
    let mut first_model: Option<Vec<u8>> = None;
    let mut frame_acc = f64::NAN;
    let min_ops = if args.trace { 2 } else { MIN_RUNS };
    let timed = run_ops(min_ops, args.seconds, |i| {
        let real = || {
            let t = Instant::now();
            let d = catch_unwind(AssertUnwindSafe(|| {
                PhonemeDetector::train(
                    &setup.sensitive,
                    &setup.corpus,
                    &CONFIG,
                    &mut StdRng::seed_from_u64(seed),
                )
            }));
            (d.ok(), t.elapsed().as_secs_f64() * 1e3)
        };
        let mut replica = |tracer: &mut Tracer| {
            let t = Instant::now();
            let (model, f) = tracer.request(i as u64, "train.run", |tr| {
                replica_train(
                    tr,
                    &setup.sensitive,
                    &setup.corpus,
                    &CONFIG,
                    &mut StdRng::seed_from_u64(seed),
                )
            });
            replica_ms.push(t.elapsed().as_secs_f64() * 1e3);
            frames.extend(f);
            model_bytes(&model)
        };
        let (detector, ms, replica_model) = if args.trace && i % 2 == 1 {
            let r = replica(&mut tracer);
            let (d, ms) = real();
            (d, ms, Some(r))
        } else {
            let (d, ms) = real();
            let r = args.trace.then(|| replica(&mut tracer));
            (d, ms, r)
        };
        let (acc, bytes) = match &detector {
            Some(d) => (d.frame_accuracy(&setup.heldout), model_bytes(d.model())),
            None => (f32::NAN, Vec::new()),
        };
        if let Some(r) = replica_model {
            mismatches += u64::from(r != bytes);
        }
        match &first_model {
            None => first_model = Some(bytes),
            Some(f) if *f != bytes => log.repeat_mismatches += 1,
            Some(_) => {}
        }
        if frame_acc.is_nan() {
            frame_acc = f64::from(acc);
        }
        log.record(i, &[acc], ms, 1, u64::from(!acc.is_finite()));
    });
    report.attempted = log.attempted;
    report.failed = log.failed;
    log.check_repeats(report);
    report.check(
        "frame_acc is finite",
        frame_acc.is_finite(),
        format!("frame_acc {frame_acc}"),
    );
    let ops = log.ops();
    if args.trace {
        report.check(
            "replica weights equal PhonemeDetector::train's bitwise",
            mismatches == 0,
            format!("{mismatches} of {ops} training runs differ"),
        );
        let steps = (replica_ms.len() * STEPS) as f64;
        waterfall_metrics(
            report,
            &tracer,
            &TRAIN_LAYERS,
            steps,
            crate::stats::mean(&log.latency_ms) / STEPS as f64,
            &log.latency_ms,
            &replica_ms,
            &timed,
        );
        report.metric(
            "nn.frames_per_step",
            crate::stats::mean(&frames.iter().map(|&f| f as f64).collect::<Vec<_>>()),
            "count",
            frames.len() as u64,
        );
        decide::setup_metrics(report, &setup, setup_factor);
    } else {
        let utterance_epochs = (ops * CORPUS_UTTERANCES * CONFIG.epochs) as f64;
        crate::end_to_end(report, &log, &timed, utterance_epochs, frame_acc);
    }
    report.context_num("frame_acc", frame_acc);
    report.context_num("steps_per_run", STEPS as f64);
    tracer
}
