//! `eval`: the researcher's path. Each operation is one
//! `Runner::run_with_selector` job on a fresh `Runner` (one worker
//! thread, all three methods, all four attack kinds over the pooled
//! Fig. 9 settings), sharing the selector set-up trained.

use crate::accuracy::Accuracy;
use crate::replica::{self, Defense, Evidence, DEFENSE_LAYERS};
use crate::report::Report;
use crate::seeds::{mix, Salt};
use crate::setup::Needs;
use crate::trace::Tracer;
use crate::{decide, run_ops, setup_phase, waterfall_metrics, Args, OpLog};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use thrubarrier_acoustics::engine::RenderPath;
use thrubarrier_acoustics::loudspeaker::Loudspeaker;
use thrubarrier_acoustics::mic::Microphone;
use thrubarrier_acoustics::propagation::spl_to_rms;
use thrubarrier_acoustics::scene::AcousticPath;
use thrubarrier_attack::{AttackGenerator, AttackKind, AttackSound};
use thrubarrier_defense::segmentation::SegmentSelector;
use thrubarrier_defense::{sync, DefenseMethod, DefenseSystem};
use thrubarrier_eval::experiments::common::standard_settings;
use thrubarrier_eval::runner::score_trial;
use thrubarrier_eval::scenario::AUDIO_RATE;
use thrubarrier_eval::{
    Runner, RunnerConfig, SelectorChoice, Trial, TrialGenerator, TrialSettings,
};
use thrubarrier_nn::{BatchWorkspace, GemmScratch};
use thrubarrier_phoneme::command::CommandBank;
use thrubarrier_phoneme::speaker::SpeakerProfile;
use thrubarrier_vibration::Wearable;

/// Span names of the simulator layers.
pub const SIMULATOR_LAYERS: [&str; 3] = ["phoneme.synth", "acoustics.render", "attack.build"];

/// Distinct jobs per cycle.
const JOB_CYCLE: usize = 4;
/// Two legitimate users per job, each speaking 12 commands: the runner
/// gives every participant commands `0..commands_per_user`, so this
/// trades speaker variety (eight speakers a cycle) against reaching the
/// short commands, whose scant sensitive-phoneme evidence keeps
/// accuracy off saturation.
const PARTICIPANTS: usize = 2;
const COMMANDS_PER_USER: usize = 12;
const ATTACKS_PER_KIND: usize = 9;
/// Trials per job: 24 legitimate, 36 attacks.
const TRIALS_PER_JOB: usize = PARTICIPANTS * COMMANDS_PER_USER + 4 * ATTACKS_PER_KIND;
/// Trials per minibatch (one batched BRNN pass for their masks).
const BATCH: usize = 8;

fn job_seed(seed: u64, job: usize) -> u64 {
    mix(mix(seed, Salt::Eval), (job % JOB_CYCLE) as u64)
}

/// The 36 pooled settings with the rooms interleaved (A, B, C, D, A, …),
/// rotated by 9 per job. The runner gives legitimate trial `k` setting
/// `k` and attack `i` setting `i`, so every job spreads its trials over
/// all four rooms alike, and across a cycle each attack kind meets each
/// setting exactly once.
fn job_settings(job: usize) -> Vec<TrialSettings> {
    let by_room = standard_settings();
    let per_room = by_room.len() / 4;
    let mut s: Vec<TrialSettings> = (0..by_room.len())
        .map(|k| by_room[(k % 4) * per_room + k / 4].clone())
        .collect();
    s.rotate_left(ATTACKS_PER_KIND * (job % JOB_CYCLE));
    s
}

fn job_config(seed: u64, job: usize) -> RunnerConfig {
    RunnerConfig {
        seed: job_seed(seed, job),
        participants: PARTICIPANTS,
        commands_per_user: COMMANDS_PER_USER,
        attacks_per_kind: ATTACKS_PER_KIND,
        attack_kinds: AttackKind::all().to_vec(),
        settings: job_settings(job),
        // Unused: the job runs with the set-up's selector.
        selector: SelectorChoice::Energy,
        threads: 1,
        batch_size: BATCH,
    }
}

/// Scores of one job, method by method in `DefenseMethod::all()` order
/// (legitimate trials then attacks), and the trials' labels.
struct JobScores {
    scores: Vec<f32>,
    kinds: Vec<Option<AttackKind>>,
    failed_trials: u64,
}

fn real_job(
    seed: u64,
    job: usize,
    selector: &Arc<dyn SegmentSelector>,
    symbols: &[&'static str],
) -> JobScores {
    let runner = Runner::new(job_config(seed, job));
    let out = catch_unwind(AssertUnwindSafe(|| {
        runner.run_with_selector(Arc::clone(selector), symbols.to_vec())
    }));
    let Ok(out) = out else {
        return JobScores {
            scores: Vec::new(),
            kinds: Vec::new(),
            failed_trials: TRIALS_PER_JOB as u64,
        };
    };
    let full = out.pool(DefenseMethod::Full);
    let kinds: Vec<Option<AttackKind>> = full
        .legitimate
        .iter()
        .map(|_| None)
        .chain(full.attacks.iter().map(|&(k, _)| Some(k)))
        .collect();
    let per_method: Vec<Vec<f32>> = DefenseMethod::all()
        .into_iter()
        .map(|m| {
            let p = out.pool(m);
            p.legitimate
                .iter()
                .copied()
                .chain(p.attack_scores())
                .collect()
        })
        .collect();
    let failed_trials = (0..kinds.len())
        .filter(|&t| per_method.iter().any(|s| !s[t].is_finite()))
        .count() as u64;
    JobScores {
        scores: per_method.concat(),
        kinds,
        failed_trials,
    }
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) -> Tracer {
    let (setup, setup_factor) = setup_phase(
        args,
        Needs {
            selector: true,
            pool: false,
        },
        report,
    );
    let detector = setup.selector.clone().expect("eval trains a selector");
    let selector: Arc<dyn SegmentSelector> = Arc::clone(&detector) as Arc<dyn SegmentSelector>;
    let system = DefenseSystem::with_selector(Wearable::fossil_gen_5(), Arc::clone(&selector));
    replica::assert_mirrorable(&system);
    let defense = Defense {
        system: &system,
        detector: &detector,
    };
    let mut log = OpLog::new(JOB_CYCLE);
    let mut kinds: Vec<Vec<Option<AttackKind>>> = vec![Vec::new(); JOB_CYCLE];
    let mut tracer = Tracer::default();
    let mut evidence = Evidence::default();
    let mut replica_ms = Vec::new();
    let mut replica_trials = 0u64;
    let mut mismatches = 0u64;
    let real_job_timed = |i: usize| {
        let t = Instant::now();
        let job = real_job(args.seed, i, &selector, &setup.symbols);
        (job, t.elapsed().as_secs_f64() * 1e3)
    };
    // Two whole cycles: the first for accuracy, the second must
    // reproduce it, and every run's median covers the same jobs.
    let min_ops = if args.trace { JOB_CYCLE } else { 2 * JOB_CYCLE };
    let timed = run_ops(min_ops, args.seconds, |i| {
        let mut replica_run = |tracer: &mut Tracer| {
            let t = Instant::now();
            let settings = job_settings(i);
            let job = tracer.request(i as u64, "eval.job", |tr| {
                replica_job(
                    tr,
                    job_seed(args.seed, i),
                    &settings,
                    defense,
                    &mut evidence,
                )
            });
            replica_ms.push(t.elapsed().as_secs_f64() * 1e3);
            replica_trials += job.trials.len() as u64;
            mismatches += verify(&job, &settings, &system);
        };
        if args.trace && i % 2 == 1 {
            replica_run(&mut tracer);
        }
        let (job, ms) = real_job_timed(i);
        if args.trace && i % 2 == 0 {
            replica_run(&mut tracer);
        }
        if kinds[i % JOB_CYCLE].is_empty() {
            kinds[i % JOB_CYCLE] = job.kinds;
        }
        log.record(i, &job.scores, ms, TRIALS_PER_JOB as u64, job.failed_trials);
    });
    report.attempted = log.attempted;
    report.failed = log.failed;
    log.check_repeats(report);
    let first = log.first_cycle();
    let methods = DefenseMethod::all().len();
    let method_scores = |m: usize| -> Vec<f32> {
        first
            .iter()
            .flat_map(|s| {
                let n = s.len() / methods;
                s[m * n..(m + 1) * n].iter().copied()
            })
            .collect()
    };
    let all_kinds = kinds.concat();
    let (audio, vibration, full) = (method_scores(0), method_scores(1), method_scores(2));
    // A panicked job leaves no scores; its trials are missing here and
    // the accuracy checks fail.
    let acc = Accuracy::of(&all_kinds, &full, Some(&vibration), Some(&audio));
    acc.check(report);
    let frame_acc = f64::from(detector.frame_accuracy(&setup.heldout));
    let ops = log.ops();
    if args.trace {
        report.check(
            "replica scores equal runner::score_trial bitwise",
            mismatches == 0,
            format!("{mismatches} of {replica_trials} replica trials differ"),
        );
        let layers: Vec<&'static str> = DEFENSE_LAYERS
            .iter()
            .chain(&SIMULATOR_LAYERS)
            .copied()
            .collect();
        let real_trials = (ops * TRIALS_PER_JOB) as f64;
        waterfall_metrics(
            report,
            &tracer,
            &layers,
            replica_trials as f64,
            log.latency_ms.iter().sum::<f64>() / real_trials,
            &log.latency_ms,
            &replica_ms,
            &timed,
        );
        decide::evidence_metrics(report, &evidence);
        decide::setup_metrics(report, &setup, setup_factor);
        acc.metrics(report);
    } else {
        crate::end_to_end(
            report,
            &log,
            &timed,
            (ops * TRIALS_PER_JOB) as f64,
            frame_acc,
        );
    }
    report.context_num("frame_acc", frame_acc);
    report.context_num("trials_per_job", TRIALS_PER_JOB as f64);
    tracer
}

/// One replica trial: the trial, its seed and the three method scores.
struct ReplicaTrial {
    trial: Trial,
    seed: u64,
    scores: [f32; 3],
    /// For attacks, what `TrialGenerator::attack` needs to rebuild it:
    /// kind, participant, command index and setting index.
    attack: Option<(AttackKind, usize, usize, usize)>,
}

/// A replica job: its trials and the speakers they use.
struct ReplicaJob {
    trials: Vec<ReplicaTrial>,
    users: Vec<SpeakerProfile>,
    adversaries: Vec<SpeakerProfile>,
}

/// A job like the runner's, built from public calls with a span around
/// each layer: per minibatch, trial synthesis, one batched BRNN pass for
/// the masks, then the three methods per trial.
fn replica_job(
    t: &mut Tracer,
    seed: u64,
    settings: &[TrialSettings],
    defense: Defense<'_>,
    evidence: &mut Evidence,
) -> ReplicaJob {
    let generator = TrialGenerator::new();
    let attacks = AttackGenerator::new(AUDIO_RATE);
    let mics = (Microphone::phone(), Microphone::wearable());
    let bank = CommandBank::standard();
    let speaker = |salt: u64| SpeakerProfile::random(&mut StdRng::seed_from_u64(mix(seed, salt)));
    let users: Vec<SpeakerProfile> = (0..PARTICIPANTS as u64).map(|u| speaker(100 + u)).collect();
    let adversaries: Vec<SpeakerProfile> =
        (0..PARTICIPANTS as u64).map(|u| speaker(200 + u)).collect();
    let n = settings.len();
    // (attack, participant, command, setting) per trial, in the runner's
    // order.
    let plan: Vec<(Option<AttackKind>, usize, usize, usize)> = (0..PARTICIPANTS)
        .flat_map(|u| {
            (0..COMMANDS_PER_USER).map(move |c| (None, u, c, (u * COMMANDS_PER_USER + c) % n))
        })
        .chain(AttackKind::all().into_iter().flat_map(|kind| {
            (0..ATTACKS_PER_KIND).map(move |i| (Some(kind), i % PARTICIPANTS, i, i % n))
        }))
        .collect();
    let mut trials = Vec::with_capacity(plan.len());
    for (b, group) in plan.chunks(BATCH).enumerate() {
        let built: Vec<ReplicaTrial> = group
            .iter()
            .enumerate()
            .map(|(k, &(kind, user, command, setting))| {
                let trial_seed = mix(seed, 1000 + (b * BATCH + k) as u64);
                let mut rng = StdRng::seed_from_u64(trial_seed);
                let cmd = &bank.commands()[command % bank.len()];
                let s = &settings[setting];
                let trial = match kind {
                    None => {
                        let utt_seed = mix(seed, 300 + (user * 64 + command) as u64);
                        let audio = t.span("phoneme.synth", |_| {
                            let mut utt_rng = StdRng::seed_from_u64(utt_seed);
                            generator.utterance_audio(cmd, &users[user], &mut utt_rng)
                        });
                        t.span("acoustics.render", |_| {
                            generator.legitimate_with_utterance(&audio, s, &mut rng)
                        })
                    }
                    Some(kind) => {
                        let sound = t.span("attack.build", |_| {
                            attacks.generate(kind, cmd, &users[user], &adversaries[user], &mut rng)
                        });
                        t.span("acoustics.render", |_| {
                            render_attack(sound, s, &mics, &mut rng)
                        })
                    }
                };
                ReplicaTrial {
                    trial,
                    seed: trial_seed,
                    scores: [0.0; 3],
                    attack: kind.map(|k| (k, user, command, setting)),
                }
            })
            .collect();
        let feats: Vec<Vec<Vec<f32>>> = t.span("dsp.mfcc", |_| {
            built
                .iter()
                .map(|r| {
                    defense
                        .detector
                        .mfcc()
                        .extract(r.trial.va_recording.samples())
                })
                .collect()
        });
        let masks: Vec<Vec<bool>> = t
            .span("nn.infer", |_| {
                let seqs: Vec<&[Vec<f32>]> = feats.iter().map(|f| f.as_slice()).collect();
                defense.detector.model().predict_batch(
                    &seqs,
                    &mut BatchWorkspace::new(),
                    &mut GemmScratch::new(),
                )
            })
            .into_iter()
            .map(|labels| labels.into_iter().map(|c| c == 1).collect())
            .collect();
        for (mut r, mask) in built.into_iter().zip(&masks) {
            let pair = (&r.trial.va_recording, &r.trial.wearable_recording);
            let rng = |i: u64| StdRng::seed_from_u64(r.seed ^ (0xC0FFEE + i));
            r.scores = [
                replica::audio_baseline(t, defense.system, pair),
                replica::vibration_baseline(t, defense.system, pair, &mut rng(1)),
                replica::full(t, defense, pair, Some(mask), &mut rng(2), evidence),
            ];
            trials.push(r);
        }
    }
    ReplicaJob {
        trials,
        users,
        adversaries,
    }
}

/// The attack half of `TrialGenerator::attack` after sound generation:
/// playback level, barrier paths to both devices and the wearable's
/// trigger delay.
fn render_attack(
    sound: AttackSound,
    s: &TrialSettings,
    mics: &(Microphone, Microphone),
    rng: &mut StdRng,
) -> Trial {
    let kind = sound.kind;
    let mut source = sound.samples;
    let gain = spl_to_rms(s.attack_spl_db) / thrubarrier_dsp::stats::rms(&source).max(1e-9);
    for v in &mut source {
        *v *= gain;
    }
    let loudspeaker = sound.needs_loudspeaker.then(Loudspeaker::sound_bar);
    let path = |distance_m: f32| AcousticPath {
        room: s.room.clone(),
        through_barrier: true,
        distance_m,
        loudspeaker,
        render: RenderPath::default(),
    };
    let va = path(s.barrier_to_va_m).record(&source, AUDIO_RATE, &mics.0, rng);
    let wearable_full = path(s.barrier_to_wearable_m).record(&source, AUDIO_RATE, &mics.1, rng);
    let delay = sync::random_network_delay(rng);
    Trial {
        va_recording: va,
        wearable_recording: sync::apply_trigger_delay(&wearable_full, delay),
        is_attack: true,
        attack: Some(kind),
    }
}

/// Replica trials that differ from the program: scores unequal to
/// `runner::score_trial` on the same trial, or attack recordings unequal
/// to `TrialGenerator::attack` from the same seed.
fn verify(job: &ReplicaJob, settings: &[TrialSettings], system: &DefenseSystem) -> u64 {
    let generator = TrialGenerator::new();
    let bank = CommandBank::standard();
    let same = |a: &[f32], b: &[f32]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    job.trials
        .iter()
        .filter(|r| {
            let real = score_trial(&r.trial, r.seed, system);
            let scores_differ = !same(&real, &r.scores);
            let build_differs = r.attack.is_some_and(|(kind, user, command, setting)| {
                let cmd = &bank.commands()[command % bank.len()];
                let mut rng = StdRng::seed_from_u64(r.seed);
                let t = generator.attack(
                    kind,
                    cmd,
                    &job.users[user],
                    &job.adversaries[user],
                    &settings[setting],
                    &mut rng,
                );
                !same(t.va_recording.samples(), r.trial.va_recording.samples())
                    || !same(
                        t.wearable_recording.samples(),
                        r.trial.wearable_recording.samples(),
                    )
            });
            scores_differ || build_differs
        })
        .count() as u64
}
