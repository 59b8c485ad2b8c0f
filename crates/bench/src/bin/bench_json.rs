//! Wall-clock pipeline benchmark with JSON output.
//!
//! Measures the median time of each pipeline stage and writes (or merges
//! into) `BENCH_pipeline.json` so the perf trajectory of the workspace is
//! tracked in-repo. It is the workspace's in-process stage harness; the
//! outside-in benchmark of whole operations lives in `perfbench/`.
//!
//! Usage: `bench_json [--label NAME] [--out FILE] [--iters N]
//! [--best-of N] [--trace-out FILE] [--check] [--dry-run]
//! [--ledger FILE] [--no-ledger] [--window N] [--k F]`
//!
//! Runs under an existing label are replaced; other labels are kept, so
//! `--label pre` / `--label post` snapshots accumulate in one file.
//!
//! Beyond the snapshot, every run appends one JSONL record (host, git
//! revision, cargo profile, config fingerprint, per-stage medians, ROC
//! AUC/EER of a small threaded eval, and the metrics snapshot) to the
//! run ledger (`LEDGER_runs.jsonl` by default; `--no-ledger` skips the
//! append). `--check` then compares the fresh run against the same-host
//! ledger history with the noise-aware regression sentinel and exits
//! nonzero on perf or accuracy drift. `--dry-run` re-checks the
//! ledger's own last record against its history without benching or
//! writing anything — the CI smoke mode, meaningful on any host because
//! both sides of the comparison come from the ledger.
//!
//! When the workspace is built with `--features obs`, the output also
//! embeds a `"metrics"` snapshot of the observability registry (cache
//! hit rates, queue depths, batch-size and latency histograms) taken
//! over the measured sweeps, and `--trace-out FILE` additionally writes
//! a chrome://tracing JSON of every span in the final sweep (load it at
//! `chrome://tracing` or <https://ui.perfetto.dev>). Without the
//! feature both are inert: the snapshot renders empty sections and the
//! trace has no events.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use thrubarrier_acoustics::barrier::{Barrier, BarrierMaterial};
use thrubarrier_bench::sentinel;
use thrubarrier_defense::{DefenseMethod, DefenseSystem};
use thrubarrier_dsp::mel::MfccExtractor;
use thrubarrier_dsp::{correlate, fft, gen, Stft};
use thrubarrier_eval::runner::{score_trial, Runner, RunnerConfig};
use thrubarrier_eval::scenario::TrialContext;
use thrubarrier_nn::lstm::BiLstm;
use thrubarrier_nn::model::{BrnnClassifier, TrainConfig};
use thrubarrier_nn::{BatchWorkspace, GemmScratch};
use thrubarrier_obs::ledger::{Ledger, RunRecord};
use thrubarrier_vibration::Wearable;

/// Timed runs discarded before measurement starts (fills FFT-plan and
/// response-curve caches, allocator pools, and branch predictors).
const WARMUP_ITERS: usize = 3;

/// Median wall-clock nanoseconds of `f` over `iters` timed runs, after
/// warm-up and outlier rejection: the top and bottom decile of samples
/// are dropped before taking the median, so a stray scheduler hiccup in
/// one run cannot move the reported figure between PRs.
fn median_ns<F: FnMut()>(iters: usize, mut f: F) -> u64 {
    for _ in 0..WARMUP_ITERS {
        f();
    }
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    let trim = samples.len() / 10;
    let kept = &samples[trim..samples.len() - trim];
    kept[kept.len() / 2]
}

/// One full bench sweep: per-stage median nanoseconds plus the
/// accuracy of the threaded eval stage (full-method ROC AUC and EER —
/// deterministic for the fixed seeds, so the ledger can gate on them).
struct SweepResult {
    stages: BTreeMap<&'static str, u64>,
    auc: f64,
    eer: f64,
}

fn run_stages(iters: usize) -> SweepResult {
    let mut out = BTreeMap::new();
    let speech = gen::chirp(100.0, 3_000.0, 0.3, 16_000, 1.0);

    out.insert(
        "fft_magnitude_16k_samples",
        median_ns(iters, || {
            black_box(fft::magnitude_spectrum(black_box(&speech), 0));
        }),
    );

    // The cross-device sync transform: a real FFT at n = 65536 (a
    // 32768-point complex transform plus the packed-input unpacking),
    // three of which run per sync.
    let sync_signal = gen::chirp(100.0, 3_000.0, 0.3, 16_000, 65_536.0 / 16_000.0);
    let mut sync_spec = Vec::new();
    out.insert(
        "fft_real_64k",
        median_ns(iters, || {
            fft::half_spectrum_into(black_box(&sync_signal), 65_536, &mut sync_spec);
            black_box(&sync_spec);
        }),
    );

    // The conversion's inverse transform: a real inverse at n = 32768
    // (a 16384-point complex transform plus the unpacking), the size the
    // decision pool's selected audio converts at; each vibration
    // conversion runs two of them.
    let conv_signal = gen::chirp(150.0, 3_000.0, 0.3, 16_000, 32_768.0 / 16_000.0);
    let mut conv_spec = Vec::new();
    fft::half_spectrum_into(&conv_signal, 32_768, &mut conv_spec);
    let mut conv_time = Vec::new();
    out.insert(
        "fft_real_inverse_32k",
        median_ns(iters, || {
            conv_time.clear();
            fft::real_inverse_into(black_box(&conv_spec), 32_768, &mut conv_time);
            black_box(&conv_time);
        }),
    );

    let barrier = Barrier::new(BarrierMaterial::GlassWindow);
    out.insert(
        "barrier_transmit_16k_samples",
        median_ns(iters, || {
            black_box(barrier.transmit(black_box(&speech), 16_000));
        }),
    );

    let vib = gen::sine(30.0, 0.1, 200, 2.0);
    let stft = Stft::vibration_default();
    out.insert(
        "stft_vibration_400_samples",
        median_ns(iters.max(64), || {
            black_box(stft.power_spectrogram(black_box(&vib), 200));
        }),
    );

    let mfcc = MfccExtractor::paper_default();
    out.insert(
        "mfcc_1s_audio",
        median_ns(iters, || {
            black_box(mfcc.extract(black_box(&speech)));
        }),
    );

    // One 3 s render's mic self-noise pass: a clamped add of 48,000
    // Gaussian draws through the block Box–Muller kernel. The buffer
    // is not reset between runs; its values do not change the work.
    let mut noise_rng = StdRng::seed_from_u64(3);
    let mut rendered = gen::sine(440.0, 0.3, 16_000, 3.0);
    out.insert(
        "gaussian_noise_48k",
        median_ns(iters, || {
            gen::add_gaussian_noise_clamped(black_box(&mut rendered), 0.01, &mut noise_rng);
        }),
    );

    let mut rng = StdRng::seed_from_u64(1);
    let reference = gen::gaussian_noise(&mut rng, 0.1, 16_000);
    let mut delayed = vec![0.0f32; 1_600];
    delayed.extend_from_slice(&reference);
    out.insert(
        "delay_estimation_1s",
        median_ns(iters, || {
            black_box(
                correlate::estimate_delay(black_box(&reference), black_box(&delayed), 4_000)
                    .unwrap(),
            );
        }),
    );

    let wearable = Wearable::fossil_gen_5();
    let long_speech = gen::chirp(150.0, 3_000.0, 0.1, 16_000, 2.0);
    out.insert(
        "wearable_convert_2s",
        median_ns(iters, || {
            let mut rng = StdRng::seed_from_u64(2);
            black_box(wearable.convert(black_box(&long_speech), 16_000, &mut rng));
        }),
    );

    // The conversion engine at the verification shape (1 s of speech
    // at 16 kHz); `vibration_score_pair_1s` below is the defense's
    // pair-conversion scoring call that rides on `convert_pair`.
    let one_sec = gen::chirp(150.0, 3_000.0, 1.0, 16_000, 1.0);
    out.insert(
        "vibration_convert_1s",
        median_ns(iters, || {
            let mut rng = StdRng::seed_from_u64(7);
            black_box(wearable.convert(black_box(&one_sec), 16_000, &mut rng));
        }),
    );

    // Acoustic scene rendering (the evaluation's dominant trial-build
    // cost): 2 s of source propagated through a thru-barrier path —
    // barrier curve, spreading loss + travel delay, room reverb, mic
    // response and the noise tail — into a phone mic.
    // `scene_record_2s` is the fused single-pass engine,
    // `scene_record_2s_staged` the kept stage-by-stage oracle. The
    // path carries no loudspeaker: the playback-device stage (a
    // nonlinear front that both render paths execute identically, with
    // its own `vibration_*`/`end_to_end_trial` coverage) would only
    // add a fixed cost to both sides and blur what the render paths
    // themselves cost.
    let scene_src = gen::chirp(120.0, 3_000.0, 0.3, 16_000, 2.0);
    let scene_path = thrubarrier_acoustics::AcousticPath {
        room: thrubarrier_acoustics::Room::paper_room(thrubarrier_acoustics::RoomId::A),
        through_barrier: true,
        distance_m: 2.0,
        loudspeaker: None,
        render: thrubarrier_acoustics::RenderPath::Fused,
    };
    let scene_mic = thrubarrier_acoustics::Microphone::phone();
    out.insert(
        "scene_record_2s",
        median_ns(iters, || {
            let mut rng = StdRng::seed_from_u64(9);
            black_box(scene_path.record(black_box(&scene_src), 16_000, &scene_mic, &mut rng));
        }),
    );
    let staged_scene_path = scene_path
        .clone()
        .with_render(thrubarrier_acoustics::RenderPath::Staged);
    out.insert(
        "scene_record_2s_staged",
        median_ns(iters, || {
            let mut rng = StdRng::seed_from_u64(9);
            black_box(staged_scene_path.record(
                black_box(&scene_src),
                16_000,
                &scene_mic,
                &mut rng,
            ));
        }),
    );

    // Same asserted guard as the vibration engine: a scene-engine
    // regression fails the bench run rather than recording a snapshot.
    let (fused_ns, staged_ns) = (out["scene_record_2s"], out["scene_record_2s_staged"]);
    assert!(
        fused_ns <= staged_ns,
        "scene_parity: fused path {fused_ns} ns slower than staged {staged_ns} ns at 2 s inputs"
    );
    out.insert(
        "scene_parity_speedup_x1000",
        staged_ns * 1_000 / fused_ns.max(1),
    );

    let mut pair_system = DefenseSystem::paper_default();
    pair_system.synchronize = false; // isolate conversion + correlation
    let va_1s = thrubarrier_dsp::AudioBuffer::new(one_sec.clone(), 16_000);
    let w_1s =
        thrubarrier_dsp::AudioBuffer::new(gen::chirp(150.0, 3_000.0, 1.0, 16_000, 0.6), 16_000);
    out.insert(
        "vibration_score_pair_1s",
        median_ns(iters, || {
            let mut rng = StdRng::seed_from_u64(8);
            black_box(pair_system.score_with_method(
                DefenseMethod::VibrationBaseline,
                black_box(&va_1s),
                black_box(&w_1s),
                &mut rng,
            ));
        }),
    );

    let mut ctx = TrialContext::seeded(77);
    let legit = ctx.legitimate_trial();
    let system = DefenseSystem::paper_default();
    for (name, method) in [
        ("score_audio_baseline", DefenseMethod::AudioBaseline),
        ("score_vibration_baseline", DefenseMethod::VibrationBaseline),
        ("score_full", DefenseMethod::Full),
    ] {
        out.insert(
            name,
            median_ns(iters, || {
                let mut rng = StdRng::seed_from_u64(3);
                black_box(system.score_with_method(
                    method,
                    black_box(&legit.va_recording),
                    black_box(&legit.wearable_recording),
                    &mut rng,
                ));
            }),
        );
    }

    // The BRNN phoneme detector at paper dimensions (14 MFCCs, 64 LSTM
    // units per direction, 2 classes) segmenting one second of audio —
    // the per-verification inference cost of the online detector, which
    // scores its recording as a batch of one on the packed engine.
    let mut rng = StdRng::seed_from_u64(4);
    let brnn = BrnnClassifier::new(mfcc.n_coeffs(), 64, 2, &mut rng);
    let feats = mfcc.extract(&gen::chirp(100.0, 900.0, 0.4, 16_000, 1.0));
    out.insert(
        "brnn_segment_1s",
        median_ns(iters.max(32), || {
            black_box(brnn.predict(black_box(&feats)));
        }),
    );

    // Minibatched segmentation: eight 1 s utterances per scoring pass —
    // the eval worker's mask-computation unit under `batch_size = 8`.
    // The workspace and scratch are reused across timed runs, so only
    // their allocations are warm: every run re-packs the batch and
    // recomputes the `W·X` projections, as every production call does.
    let batch_feats: Vec<Vec<Vec<f32>>> = (0..8)
        .map(|i| {
            mfcc.extract(&gen::chirp(
                100.0 + 25.0 * i as f32,
                900.0,
                0.4,
                16_000,
                1.0,
            ))
        })
        .collect();
    let seg_seqs: Vec<&[Vec<f32>]> = batch_feats.iter().map(|f| f.as_slice()).collect();
    let mut seg_ws = BatchWorkspace::new();
    let mut seg_scratch = GemmScratch::new();
    out.insert(
        "brnn_segment_batch8",
        median_ns(iters.max(32), || {
            black_box(brnn.predict_batch(black_box(&seg_seqs), &mut seg_ws, &mut seg_scratch));
        }),
    );

    // Per-worker scoring as the eval runner does it: 8 worker threads,
    // each scoring its own group of 8 one-second segments with a fresh
    // workspace and scratch per group. The work per group is
    // `brnn_segment_batch8`'s; this stage adds the thread fan-out and
    // the buffer allocations that stage keeps warm. 64 segments per
    // timed run.
    out.insert(
        "brnn_score_inline_8t",
        median_ns(iters.max(16), || {
            std::thread::scope(|scope| {
                for _ in 0..8 {
                    let brnn = &brnn;
                    let seg_seqs = &seg_seqs;
                    scope.spawn(move || {
                        let mut ws = BatchWorkspace::new();
                        let mut scratch = GemmScratch::new();
                        black_box(brnn.predict_batch(black_box(seg_seqs), &mut ws, &mut scratch));
                    });
                }
            });
        }),
    );

    // One optimizer step over a small batch (forward + BPTT + ADAM), the
    // unit of detector training cost.
    let mut rng = StdRng::seed_from_u64(5);
    let mut trainee = BrnnClassifier::new(mfcc.n_coeffs(), 64, 2, &mut rng);
    let seqs: Vec<(Vec<Vec<f32>>, Vec<usize>)> = (0..4)
        .map(|i| {
            let audio = gen::chirp(100.0 + 50.0 * i as f32, 900.0, 0.4, 16_000, 0.4);
            let xs = mfcc.extract(&audio);
            let ys = (0..xs.len()).map(|t| t % 2).collect();
            (xs, ys)
        })
        .collect();
    let batch: Vec<(&[Vec<f32>], &[usize])> = seqs
        .iter()
        .map(|(x, y)| (x.as_slice(), y.as_slice()))
        .collect();
    let train_cfg = TrainConfig::default();
    out.insert(
        "brnn_train_step",
        median_ns(iters.max(32), || {
            black_box(trainee.train_step(black_box(&batch), &train_cfg));
        }),
    );

    // The same optimizer step at minibatch 8 — the detector's default
    // training batch size — through the packed-batch GEMM engine.
    let mut rng = StdRng::seed_from_u64(6);
    let mut trainee8 = BrnnClassifier::new(mfcc.n_coeffs(), 64, 2, &mut rng);
    let seqs8: Vec<(Vec<Vec<f32>>, Vec<usize>)> = (0..8)
        .map(|i| {
            let audio = gen::chirp(100.0 + 40.0 * i as f32, 900.0, 0.4, 16_000, 0.4);
            let xs = mfcc.extract(&audio);
            let ys = (0..xs.len()).map(|t| t % 2).collect();
            (xs, ys)
        })
        .collect();
    let batch8: Vec<(&[Vec<f32>], &[usize])> = seqs8
        .iter()
        .map(|(x, y)| (x.as_slice(), y.as_slice()))
        .collect();
    out.insert(
        "brnn_train_step_batch8",
        median_ns(iters.max(32), || {
            black_box(trainee8.train_step(black_box(&batch8), &train_cfg));
        }),
    );

    // The backward half in isolation, at the same minibatch-8 shape:
    // one BiLSTM BPTT sweep (no head, no optimizer) through the fused
    // register-tiled engine. The forward pass and packing run once
    // outside the timed closure, so the stage isolates the fused gate
    // sweep, the cached-transpose `Uᵀ·dZ` GEMM and the tiled
    // `dW += dZᵀ·X` accumulations.
    let mut rng = StdRng::seed_from_u64(6);
    let mut bptt = BiLstm::new(mfcc.n_coeffs(), 64, &mut rng);
    let bptt_seqs: Vec<&[Vec<f32>]> = seqs8.iter().map(|(x, _)| x.as_slice()).collect();
    let mut bptt_ws = BatchWorkspace::new();
    let mut bptt_scratch = GemmScratch::new();
    bptt.forward_batch(&bptt_seqs, &mut bptt_ws, &mut bptt_scratch);
    let bptt_dhs_flat: Vec<Vec<f32>> = bptt_seqs
        .iter()
        .map(|s| (0..s.len() * 64).map(|j| (0.17 * j as f32).sin()).collect())
        .collect();
    let bptt_dhs: Vec<&[f32]> = bptt_dhs_flat.iter().map(|v| v.as_slice()).collect();
    out.insert(
        "brnn_backward_batch8",
        median_ns(iters.max(32), || {
            for p in bptt.params_mut() {
                p.zero_grad();
            }
            bptt.backward_batch(
                black_box(&mut bptt_ws),
                black_box(&bptt_dhs),
                &mut bptt_scratch,
            );
        }),
    );

    // The end-to-end pipeline: synthesize + propagate + record a trial,
    // then score it with all three methods (the eval runner's hot loop).
    let mut trial_seed = 0u64;
    out.insert(
        "end_to_end_trial",
        median_ns(iters, || {
            trial_seed += 1;
            let mut ctx = TrialContext::seeded(1_000 + trial_seed);
            let trial = ctx.legitimate_trial();
            black_box(score_trial(&trial, trial_seed, &system));
        }),
    );

    // A small threaded eval through the runner proper: covers the
    // worker fan-out, per-worker trial minibatching, and the shared
    // utterance cache (the stage above scores one trial directly and
    // bypasses all three). Replay attacks re-synthesize the victim's
    // command, so the cache sees hits within every run.
    let eval_cfg = RunnerConfig {
        participants: 2,
        commands_per_user: 2,
        attacks_per_kind: 4,
        threads: 4,
        ..Default::default()
    };
    let runner = Runner::new(eval_cfg);
    let (selector, symbols) = runner.build_selector();
    // The last sweep's outcome doubles as the accuracy sample: the
    // seeds are fixed, so every iteration produces the same score
    // pools and the AUC/EER recorded in the ledger is reproducible.
    let mut eval_outcome = None;
    out.insert(
        "eval_runner_8_trials_4t",
        median_ns(iters, || {
            eval_outcome = Some(black_box(
                runner.run_with_selector(selector.clone(), symbols.clone()),
            ));
        }),
    );
    let full_metrics = eval_outcome
        .expect("eval stage ran")
        .pool(DefenseMethod::Full)
        .metrics();

    // The cost of 1000 instrumentation spans whose recording is turned
    // off — the guard that keeps the obs layer honest. With the feature
    // off each span is a compile-time no-op; with it on, one relaxed
    // atomic load. Either way this stage should sit at timer-resolution
    // noise; a visible figure here means the disabled path grew a cost.
    thrubarrier_obs::set_enabled(false);
    out.insert(
        "obs_disabled_span_1k",
        median_ns(iters.max(64), || {
            for i in 0..1_000u64 {
                let _span = thrubarrier_obs::span!("bench.disabled_overhead");
                black_box(i);
            }
        }),
    );
    thrubarrier_obs::set_enabled(true);

    SweepResult {
        stages: out,
        auc: full_metrics.auc as f64,
        eer: full_metrics.eer as f64,
    }
}

/// Extracts `label -> stage -> ns` from a JSON file previously written by
/// this binary (exact format match; not a general JSON parser). Only the
/// `"runs"` section is read: brace depth is tracked relative to it so
/// sibling objects (the `"metrics"` snapshot with its nested histogram
/// objects) can never be mistaken for run labels.
fn parse_existing(text: &str) -> BTreeMap<String, BTreeMap<String, u64>> {
    let mut runs: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    let mut label: Option<String> = None;
    // 0 = outside "runs"; 1 = among labels; 2 = inside one label.
    let mut depth = 0u32;
    for line in text.lines() {
        let t = line.trim();
        if depth == 0 {
            if let Some(rest) = t.strip_prefix("\"runs\"") {
                if rest.trim_start_matches(':').trim().starts_with('{') {
                    depth = 1;
                }
            }
            continue;
        }
        if let Some(rest) = t.strip_prefix('"') {
            if let Some((name, tail)) = rest.split_once('"') {
                let tail = tail.trim_start_matches(':').trim();
                if tail.starts_with('{') {
                    if depth == 1 {
                        label = Some(name.to_string());
                    }
                    depth += 1;
                } else if depth == 2 {
                    if let Some(l) = &label {
                        let value = tail.trim_end_matches(',').trim();
                        if let Ok(ns) = value.parse::<u64>() {
                            runs.entry(l.clone())
                                .or_default()
                                .insert(name.to_string(), ns);
                        }
                    }
                }
            }
        } else if t.starts_with('}') {
            depth -= 1;
            match depth {
                1 => label = None,
                0 => break,
                _ => {}
            }
        }
    }
    runs
}

/// A one-line fingerprint of the machine the numbers were taken on —
/// CPU model plus logical core count. Committed next to the figures so
/// a pre/post comparison across different hosts (where every stage
/// shifts by a common factor) is recognizable as a host change rather
/// than a code regression.
fn host_fingerprint() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown cpu".to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("{model}, {cores} logical cores").replace('"', "'")
}

/// The git revision the numbers were taken at: short hash plus a
/// `-dirty` suffix when the working tree has uncommitted changes.
/// Falls back to `"unknown"` outside a git checkout (or without a git
/// binary), so the bench itself never depends on git being present.
fn git_rev() -> String {
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match run(&["rev-parse", "--short=12", "HEAD"]) {
        Some(rev) => {
            let dirty = run(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{rev}-dirty")
            } else {
                rev
            }
        }
        None => "unknown".to_string(),
    }
}

/// The cargo profile this binary was built under. Debug-profile medians
/// must never be compared against release baselines; stamping the
/// profile lets the ledger record it and readers spot the mismatch.
fn cargo_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "dev"
    } else {
        "release"
    }
}

fn render(
    runs: &BTreeMap<String, BTreeMap<String, u64>>,
    git_rev: &str,
    profile: &str,
    snapshot: &str,
) -> String {
    // The metrics snapshot describes *this* process's sweeps; a stale
    // section from the existing file is deliberately not carried over.
    let mut s = format!(
        "{{\n  \"unit\": \"ns_median\",\n  \"host\": \"{}\",\n  \"git_rev\": \"{}\",\n  \
         \"profile\": \"{}\",\n  \"metrics\": {},\n  \"runs\": {{\n",
        host_fingerprint(),
        git_rev,
        profile,
        snapshot
    );
    let n_labels = runs.len();
    for (li, (label, stages)) in runs.iter().enumerate() {
        s.push_str(&format!("    \"{label}\": {{\n"));
        let n = stages.len();
        for (i, (name, ns)) in stages.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            s.push_str(&format!("      \"{name}\": {ns}{comma}\n"));
        }
        let comma = if li + 1 < n_labels { "," } else { "" };
        s.push_str(&format!("    }}{comma}\n"));
    }
    s.push_str("  }\n}\n");
    s
}

/// Reads the ledger, warning (to stderr) about corrupt or
/// newer-schema lines rather than failing — the history that *is*
/// readable stays usable.
fn read_ledger(ledger: &Ledger) -> Vec<RunRecord> {
    let read = match ledger.read() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot read ledger {}: {e}", ledger.path().display());
            std::process::exit(2);
        }
    };
    if read.corrupt_lines > 0 {
        eprintln!(
            "warning: {} corrupt line(s) skipped in {}",
            read.corrupt_lines,
            ledger.path().display()
        );
    }
    if read.newer_schema > 0 {
        eprintln!(
            "warning: {} record(s) with a newer schema skipped in {}",
            read.newer_schema,
            ledger.path().display()
        );
    }
    read.records
}

/// Runs the sentinel over `current` vs `history`, prints the report,
/// and returns whether the check passed.
fn run_check(current: &RunRecord, history: &[RunRecord], cfg: &sentinel::CheckConfig) -> bool {
    let report = sentinel::check_record(current, history, cfg);
    print!("{}", sentinel::render_report(&report));
    report.pass()
}

const USAGE: &str = "usage: bench_json [--label NAME] [--out FILE] [--iters N] [--best-of N] \
                     [--trace-out FILE] [--check] [--dry-run] [--ledger FILE] [--no-ledger] \
                     [--window N] [--k F]";

/// Prints `message` and the usage line, then exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The value after `flag`; a missing one is a usage error.
fn value_arg(flag: &str, value: Option<String>) -> String {
    value.unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
}

/// Parses the value after `flag` as a positive number; a missing,
/// non-numeric or non-positive value is a usage error.
fn positive_arg<T>(flag: &str, value: Option<String>) -> T
where
    T: std::str::FromStr + PartialOrd + Default,
{
    let value = value_arg(flag, value);
    match value.parse::<T>() {
        Ok(v) if v > T::default() => v,
        _ => usage_error(&format!("{flag} must be a positive number, got {value:?}")),
    }
}

fn main() {
    let mut label = "post".to_string();
    let mut out_path = "BENCH_pipeline.json".to_string();
    let mut iters = 15usize;
    let mut best_of = 1usize;
    let mut trace_out: Option<String> = None;
    let mut check = false;
    let mut dry_run = false;
    let mut ledger_path = "LEDGER_runs.jsonl".to_string();
    let mut no_ledger = false;
    let mut check_cfg = sentinel::CheckConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--label" => label = value_arg("--label", args.next()),
            "--out" => out_path = value_arg("--out", args.next()),
            "--iters" => iters = positive_arg("--iters", args.next()),
            "--best-of" => best_of = positive_arg("--best-of", args.next()),
            "--trace-out" => trace_out = Some(value_arg("--trace-out", args.next())),
            "--check" => check = true,
            "--dry-run" => {
                check = true;
                dry_run = true;
            }
            "--ledger" => ledger_path = value_arg("--ledger", args.next()),
            "--no-ledger" => no_ledger = true,
            "--window" => check_cfg.window = positive_arg("--window", args.next()),
            "--k" => check_cfg.k = positive_arg("--k", args.next()),
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    if trace_out.is_some() && !thrubarrier_obs::COMPILED {
        eprintln!(
            "warning: --trace-out without the `obs` feature writes an empty trace; \
             rebuild with `--features obs`"
        );
    }
    let ledger = Ledger::new(&ledger_path);

    if dry_run {
        // CI smoke: re-judge the ledger's own most recent record against
        // its predecessors. No benching, no writes; host filtering
        // compares ledger-host against ledger-host, so this is
        // meaningful on any machine.
        let mut records = read_ledger(&ledger);
        let Some(current) = records.pop() else {
            eprintln!("error: --dry-run needs at least one record in {ledger_path}");
            std::process::exit(2);
        };
        let pass = run_check(&current, &records, &check_cfg);
        std::process::exit(if pass { 0 } else { 1 });
    }

    // On shared hosts whole seconds-long windows can run a small integer
    // factor slow (CPU steal, frequency excursions); a median within one
    // sweep cannot reject that. `--best-of N` repeats the entire sweep
    // and keeps each stage's minimum median, approximating quiet-window
    // performance for every label symmetrically.
    eprintln!("benchmarking ({iters} iterations per stage, best of {best_of} sweeps) ...");
    let mut sweep = run_stages(iters);
    for _ in 1..best_of {
        for (name, ns) in run_stages(iters).stages {
            let slot = sweep.stages.entry(name).or_insert(ns);
            *slot = (*slot).min(ns);
        }
    }
    let stages = sweep.stages;
    // Tracing only spans the final (extra) sweep so the trace stays a
    // readable size and the measured sweeps above run untraced.
    if let Some(path) = &trace_out {
        thrubarrier_obs::label_thread("bench-main");
        thrubarrier_obs::start_trace();
        run_stages(iters.min(3));
        let trace = thrubarrier_obs::finish_trace();
        std::fs::write(path, trace).expect("write chrome trace JSON");
        eprintln!("wrote {path} (chrome://tracing)");
    }
    for (name, ns) in &stages {
        eprintln!("  {name}: {:.3} ms", *ns as f64 / 1e6);
    }
    eprintln!(
        "  eval accuracy (full method): auc={:.4} eer={:.4}",
        sweep.auc, sweep.eer
    );

    // One snapshot serves both artifacts: the BENCH json embeds it
    // structurally, the ledger record carries it as a string field.
    let snapshot = thrubarrier_obs::snapshot_json("  ");
    let rev = git_rev();
    let profile = cargo_profile();
    let record = RunRecord {
        schema: thrubarrier_obs::ledger::SCHEMA,
        ts_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        label: label.clone(),
        host: host_fingerprint(),
        git_rev: rev.clone(),
        profile: profile.to_string(),
        config: format!("bench_json;v1;iters={iters};best_of={best_of};warmup={WARMUP_ITERS}"),
        stages_ns: stages.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
        auc: Some(sweep.auc),
        eer: Some(sweep.eer),
        metrics: thrubarrier_obs::COMPILED.then(|| snapshot.clone()),
    };

    // Check before appending so the fresh record never baselines itself.
    let pass = if check {
        let history = read_ledger(&ledger);
        run_check(&record, &history, &check_cfg)
    } else {
        true
    };

    if no_ledger {
        eprintln!("skipping ledger append (--no-ledger)");
    } else {
        ledger.append(&record).expect("append run ledger record");
        eprintln!("appended run record to {ledger_path}");
    }

    let mut runs = std::fs::read_to_string(&out_path)
        .map(|t| parse_existing(&t))
        .unwrap_or_default();
    runs.insert(
        label.clone(),
        stages
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    std::fs::write(&out_path, render(&runs, &rev, profile, &snapshot))
        .expect("write benchmark JSON");
    eprintln!("wrote {out_path} (label \"{label}\")");
    if !pass {
        std::process::exit(1);
    }
}
