//! Threaded experiment runner: generate trials, score them with each
//! detection method, and collect metrics.

use crate::metrics::DetectionMetrics;
use crate::scenario::{Trial, TrialGenerator, TrialSettings};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use thrubarrier_attack::AttackKind;
use thrubarrier_defense::segmentation::{
    DetectorTrainConfig, EnergySelector, PhonemeDetector, SegmentSelector,
};
use thrubarrier_defense::selection::{run_selection, SelectionConfig};
use thrubarrier_defense::{DefenseMethod, DefenseSystem};
use thrubarrier_phoneme::command::CommandBank;
use thrubarrier_phoneme::corpus::{speaker_panel, training_corpus};
use thrubarrier_phoneme::inventory::PhonemeId;
use thrubarrier_phoneme::speaker::SpeakerProfile;
use thrubarrier_phoneme::synth::Synthesizer;
use thrubarrier_vibration::Wearable;

/// Which segment selector drives the full method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorChoice {
    /// The cheap voice-activity approximation (fast; used by unit tests
    /// and `--quick` runs).
    Energy,
    /// The paper's pipeline: run offline phoneme selection, then train
    /// the BRNN detector on a synthesized corpus.
    Brnn {
        /// Utterances in the training corpus.
        corpus_size: usize,
        /// Training epochs.
        epochs: usize,
        /// LSTM units per direction.
        hidden: usize,
    },
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Master seed; every trial derives its own seed from it.
    pub seed: u64,
    /// Number of participants taking turns as the legitimate user.
    pub participants: usize,
    /// Legitimate commands per participant.
    pub commands_per_user: usize,
    /// Attack trials per attack kind.
    pub attacks_per_kind: usize,
    /// Attack kinds evaluated.
    pub attack_kinds: Vec<AttackKind>,
    /// Trial physics variants cycled over (rooms, distances, SPLs).
    pub settings: Vec<TrialSettings>,
    /// Segment selector for the full method.
    pub selector: SelectorChoice,
    /// Threads scoring trials: the calling thread plus `threads - 1`
    /// spawned workers.
    pub threads: usize,
    /// Trials scored per minibatch inside each worker: their
    /// sensitive-frame masks are computed in one batched BRNN pass
    /// ([`SegmentSelector::sensitive_frames_batch`]) instead of one
    /// forward pass per trial.
    pub batch_size: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            seed: 0xB0A7,
            participants: 6,
            commands_per_user: 6,
            attacks_per_kind: 36,
            attack_kinds: vec![AttackKind::Replay],
            settings: vec![TrialSettings::default()],
            selector: SelectorChoice::Energy,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            batch_size: 8,
        }
    }
}

/// Scores collected for one detection method.
#[derive(Debug, Clone, Default)]
pub struct ScorePool {
    /// Scores of legitimate trials.
    pub legitimate: Vec<f32>,
    /// Scores of attack trials, keyed by kind.
    pub attacks: Vec<(AttackKind, f32)>,
}

impl ScorePool {
    /// All attack scores regardless of kind.
    pub fn attack_scores(&self) -> Vec<f32> {
        self.attacks.iter().map(|&(_, s)| s).collect()
    }

    /// Attack scores of one kind.
    pub fn attack_scores_of(&self, kind: AttackKind) -> Vec<f32> {
        self.attacks
            .iter()
            .filter(|&&(k, _)| k == kind)
            .map(|&(_, s)| s)
            .collect()
    }

    /// Metrics against all attacks.
    pub fn metrics(&self) -> DetectionMetrics {
        DetectionMetrics::from_scores(&self.legitimate, &self.attack_scores())
    }

    /// Metrics against one attack kind.
    pub fn metrics_of(&self, kind: AttackKind) -> DetectionMetrics {
        DetectionMetrics::from_scores(&self.legitimate, &self.attack_scores_of(kind))
    }
}

/// Outcome of one runner execution: a score pool per method.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// Pools indexed in the order of [`DefenseMethod::all`].
    pub pools: Vec<(DefenseMethod, ScorePool)>,
    /// The sensitive phonemes used by the full method (empty for the
    /// energy selector).
    pub sensitive_symbols: Vec<&'static str>,
}

impl EvalOutcome {
    /// The score pool of one method.
    pub fn pool(&self, method: DefenseMethod) -> &ScorePool {
        &self
            .pools
            .iter()
            .find(|(m, _)| *m == method)
            .expect("all methods evaluated")
            .1
    }
}

/// A description of one trial to execute.
#[derive(Debug, Clone)]
enum TrialPlan {
    Legitimate {
        seed: u64,
        user: usize,
        command: usize,
        setting: usize,
    },
    Attack {
        seed: u64,
        kind: AttackKind,
        victim: usize,
        adversary: usize,
        command: usize,
        setting: usize,
    },
}

/// The experiment runner.
#[derive(Debug, Clone)]
pub struct Runner {
    config: RunnerConfig,
    /// Shared rendition memo. Entries are pure functions of
    /// `(config.seed, user, command)`, so the cache lives with the
    /// runner and persists across [`Runner::run_with_selector`] calls
    /// (and across clones) instead of being rebuilt per run.
    utterances: Arc<UtteranceCache>,
}

impl Runner {
    /// Creates a runner.
    pub fn new(config: RunnerConfig) -> Self {
        Runner {
            config,
            utterances: Arc::new(UtteranceCache::default()),
        }
    }

    /// Builds the segment selector for the full method (trains the BRNN
    /// when [`SelectorChoice::Brnn`] is configured) and returns it with
    /// the sensitive symbols it encodes.
    pub fn build_selector(&self) -> (Arc<dyn SegmentSelector>, Vec<&'static str>) {
        match self.config.selector {
            SelectorChoice::Energy => (Arc::new(EnergySelector::default()), Vec::new()),
            SelectorChoice::Brnn {
                corpus_size,
                epochs,
                hidden,
            } => {
                let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x5E1EC7);
                let panel = speaker_panel(3, 3, &mut rng);
                let selection_cfg = SelectionConfig::default();
                let selection =
                    run_selection(&selection_cfg, &Wearable::fossil_gen_5(), &panel, &mut rng);
                let sensitive: HashSet<PhonemeId> = selection.selected_ids().into_iter().collect();
                let symbols = selection.selected_symbols();
                let synth = Synthesizer::new(crate::scenario::AUDIO_RATE);
                let corpus = training_corpus(&synth, corpus_size, &panel, &mut rng);
                let cfg = DetectorTrainConfig {
                    hidden_size: hidden,
                    epochs,
                    ..Default::default()
                };
                let detector = PhonemeDetector::train(&sensitive, &corpus, &cfg, &mut rng);
                (Arc::new(detector), symbols)
            }
        }
    }

    /// Runs the evaluation over all three methods with the given
    /// selector (build it once via [`Runner::build_selector`] and share
    /// it across calls to avoid retraining).
    pub fn run_with_selector(
        &self,
        selector: Arc<dyn SegmentSelector>,
        sensitive_symbols: Vec<&'static str>,
    ) -> EvalOutcome {
        let plans = self.plan_trials();
        let cfg = &self.config;
        let n_threads = cfg.threads.max(1);
        let system = DefenseSystem::with_selector(Wearable::fossil_gen_5(), selector);
        let chunks: Vec<Vec<TrialPlan>> = split_round_robin(&plans, n_threads);
        let utterances = &*self.utterances;
        // Chunk 0 runs on the calling thread, so a one-thread run spawns
        // nothing and keeps the caller's thread-local FFT plans, scene
        // and conversion engines and malloc arena; only chunks 1 and up
        // get a worker.
        let results: Vec<Vec<(TrialPlan, [f32; 3])>> = match chunks.split_first() {
            None => Vec::new(),
            Some((first, rest)) => std::thread::scope(|scope| {
                let system = &system;
                let handles: Vec<_> = rest
                    .iter()
                    .enumerate()
                    .map(|(i, chunk)| {
                        scope.spawn(move || {
                            thrubarrier_obs::label_thread(&format!("worker-{}", i + 1));
                            score_chunk(chunk, cfg, system, utterances)
                        })
                    })
                    .collect();
                let mut results = vec![score_chunk(first, cfg, system, utterances)];
                results.extend(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("worker panicked")),
                );
                results
            }),
        };
        let mut pools: Vec<(DefenseMethod, ScorePool)> = DefenseMethod::all()
            .into_iter()
            .map(|m| (m, ScorePool::default()))
            .collect();
        for chunk in results {
            for (plan, scores) in chunk {
                for (i, (_, pool)) in pools.iter_mut().enumerate() {
                    match &plan {
                        TrialPlan::Legitimate { .. } => pool.legitimate.push(scores[i]),
                        TrialPlan::Attack { kind, .. } => pool.attacks.push((*kind, scores[i])),
                    }
                }
            }
        }
        let outcome = EvalOutcome {
            pools,
            sensitive_symbols,
        };
        // Surface the run's detection accuracy in the metrics snapshot
        // (gauges are integers, so unit-interval values are scaled to
        // millionths): the bench artifacts and the run ledger then
        // carry accuracy next to the latency figures, and the
        // regression sentinel can gate on both from one snapshot.
        if thrubarrier_obs::COMPILED {
            let m = outcome.pool(DefenseMethod::Full).metrics();
            thrubarrier_obs::gauge!("eval.full.auc_x1e6").set((m.auc as f64 * 1e6) as i64);
            thrubarrier_obs::gauge!("eval.full.eer_x1e6").set((m.eer as f64 * 1e6) as i64);
        }
        outcome
    }

    /// Convenience: builds the selector and runs.
    pub fn run(&self) -> EvalOutcome {
        let (selector, symbols) = self.build_selector();
        self.run_with_selector(selector, symbols)
    }

    fn plan_trials(&self) -> Vec<TrialPlan> {
        let cfg = &self.config;
        let mut plans = Vec::new();
        let mut counter = 0u64;
        let next_seed = |counter: &mut u64| {
            *counter += 1;
            cfg.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(*counter)
        };
        for user in 0..cfg.participants {
            for command in 0..cfg.commands_per_user {
                let setting = (user * cfg.commands_per_user + command) % cfg.settings.len();
                plans.push(TrialPlan::Legitimate {
                    seed: next_seed(&mut counter),
                    user,
                    command,
                    setting,
                });
            }
        }
        for &kind in &cfg.attack_kinds {
            for i in 0..cfg.attacks_per_kind {
                let victim = i % cfg.participants;
                let adversary = (victim + 1 + i / cfg.participants) % cfg.participants.max(2);
                plans.push(TrialPlan::Attack {
                    seed: next_seed(&mut counter),
                    kind,
                    victim,
                    adversary: if adversary == victim {
                        (victim + 1) % cfg.participants.max(2)
                    } else {
                        adversary
                    },
                    command: i,
                    setting: i % cfg.settings.len(),
                });
            }
        }
        plans
    }
}

fn split_round_robin<T: Clone>(items: &[T], n: usize) -> Vec<Vec<T>> {
    let mut out = vec![Vec::new(); n];
    for (i, item) in items.iter().enumerate() {
        out[i % n].push(item.clone());
    }
    out.retain(|c| !c.is_empty());
    out
}

/// The speaker profile of participant `i` under master seed `seed` —
/// deterministic, so every worker derives the same panel.
fn participant(seed: u64, i: usize) -> SpeakerProfile {
    let mut rng = StdRng::seed_from_u64(seed ^ (0xFACE_0000 + i as u64));
    SpeakerProfile::random(&mut rng)
}

/// Seed of participant `user`'s rendition of command `command`, derived
/// from the master seed only. Keeping it independent of the per-trial
/// physics seed makes the rendition a pure function of (master seed,
/// user, command) — which is what lets workers memoize it.
fn utterance_seed(master_seed: u64, user: usize, command: usize) -> u64 {
    master_seed
        .wrapping_mul(0xA24B_AED4_963E_E407)
        .wrapping_add(((user as u64) << 32) ^ (command as u64) ^ 0x7E57_1E55)
}

/// Shared, read-mostly memo of synthesized command audio. One instance
/// serves *all* worker threads of a run: a cell (user, command) is
/// rendered once per run instead of once per worker, so synthesis cost
/// no longer scales with thread count on large panels.
///
/// Concurrency story: lookups take the [`RwLock`] read side (the common
/// case once the cache is warm, so workers never serialize on it);
/// misses synthesize *outside* any lock and then race to insert. Because
/// a rendition is a pure function of (master seed, user, command) — see
/// [`utterance_seed`] — racing workers produce identical audio and it
/// does not matter whose [`Arc`] wins. The legitimate speaker panel is
/// derived once into a [`OnceLock`] rather than re-deriving profiles per
/// lookup.
#[derive(Debug, Default)]
struct UtteranceCache {
    panel: OnceLock<Vec<SpeakerProfile>>,
    map: RwLock<RenditionMap>,
}

/// Rendition audio keyed by `(user, command index)`.
type RenditionMap = HashMap<(usize, usize), Arc<Vec<f32>>>;

impl UtteranceCache {
    fn get(
        &self,
        cfg: &RunnerConfig,
        generator: &TrialGenerator,
        bank: &CommandBank,
        user: usize,
        command: usize,
    ) -> Arc<Vec<f32>> {
        let key = (user, command % bank.len());
        // Lock poisoning is recovered from rather than propagated: every
        // entry is a pure function of its key, so a map abandoned by a
        // panicking worker is still structurally sound and at worst
        // missing entries the losers of an insert race will resynthesize.
        if let Some(hit) = self
            .map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            thrubarrier_obs::counter!("eval.utterance_cache.hit").incr();
            return Arc::clone(hit);
        }
        thrubarrier_obs::counter!("eval.utterance_cache.miss").incr();
        let panel = self.panel.get_or_init(|| {
            (0..cfg.participants)
                .map(|i| participant(cfg.seed, i))
                .collect()
        });
        let cmd = &bank.commands()[key.1];
        let mut rng = StdRng::seed_from_u64(utterance_seed(cfg.seed, user, key.1));
        let audio = Arc::new(generator.utterance_audio(cmd, &panel[user], &mut rng));
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(key).or_insert(audio))
    }
}

/// Builds and scores one chunk of planned trials in minibatches: every
/// group's sensitive-frame masks come from one batched BRNN pass, then
/// each trial reuses its precomputed mask.
fn score_chunk(
    chunk: &[TrialPlan],
    cfg: &RunnerConfig,
    system: &DefenseSystem,
    utterances: &UtteranceCache,
) -> Vec<(TrialPlan, [f32; 3])> {
    let generator = TrialGenerator::new();
    let bank = CommandBank::standard();
    let mut out = Vec::with_capacity(chunk.len());
    for group in chunk.chunks(cfg.batch_size.max(1)) {
        let trials: Vec<(Trial, u64)> = {
            let _span = thrubarrier_obs::span!("eval.build_trials");
            group
                .iter()
                .map(|plan| build_trial(plan, cfg, &generator, &bank, utterances))
                .collect()
        };
        let recordings: Vec<&[f32]> = trials
            .iter()
            .map(|(t, _)| t.va_recording.samples())
            .collect();
        let masks = system
            .selector()
            .sensitive_frames_batch(&recordings, crate::scenario::AUDIO_RATE);
        for ((plan, (trial, seed)), mask) in group.iter().zip(&trials).zip(&masks) {
            let _span = thrubarrier_obs::span!("eval.trial");
            let scores = verify_trial(trial, *seed, system, Some(mask));
            out.push((plan.clone(), scores));
        }
    }
    out
}

/// Synthesizes the recordings of one planned trial (no scoring).
fn build_trial(
    plan: &TrialPlan,
    cfg: &RunnerConfig,
    generator: &TrialGenerator,
    bank: &CommandBank,
    utterances: &UtteranceCache,
) -> (Trial, u64) {
    match plan {
        TrialPlan::Legitimate {
            seed,
            user,
            command,
            setting,
        } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            let utterance = utterances.get(cfg, generator, bank, *user, *command);
            let settings = &cfg.settings[*setting];
            (
                generator.legitimate_with_utterance(&utterance, settings, &mut rng),
                *seed,
            )
        }
        TrialPlan::Attack {
            seed,
            kind,
            victim,
            adversary,
            command,
            setting,
        } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            let victim = participant(cfg.seed, *victim);
            let adversary = participant(cfg.seed, *adversary + 101);
            let cmd = &bank.commands()[*command % bank.len()];
            let settings = &cfg.settings[*setting];
            (
                generator.attack(*kind, cmd, &victim, &adversary, settings, &mut rng),
                *seed,
            )
        }
    }
}

/// Scores one trial with all three methods (deterministic per seed).
pub fn score_trial(trial: &Trial, seed: u64, system: &DefenseSystem) -> [f32; 3] {
    verify_trial(trial, seed, system, None)
}

/// Runs one [`DefenseSystem::verify`] over all three methods, each with
/// its own RNG stream, and returns the scores in
/// [`DefenseMethod::all`] order (`0.0` for a rejection). `mask` is the
/// full method's precomputed sensitive-frame mask, if any.
fn verify_trial(
    trial: &Trial,
    seed: u64,
    system: &DefenseSystem,
    mask: Option<&[bool]>,
) -> [f32; 3] {
    let methods = DefenseMethod::all();
    let mut rngs: [StdRng; 3] =
        std::array::from_fn(|i| StdRng::seed_from_u64(seed ^ (0xC0FFEE + i as u64)));
    let mut requests: Vec<_> = methods.into_iter().zip(&mut rngs).collect();
    let decision = system.verify(
        &trial.va_recording,
        &trial.wearable_recording,
        mask,
        &mut requests,
    );
    methods.map(|m| decision.score_or_zero(m))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> RunnerConfig {
        RunnerConfig {
            seed: 7,
            participants: 2,
            commands_per_user: 2,
            attacks_per_kind: 4,
            attack_kinds: vec![AttackKind::Replay],
            settings: vec![TrialSettings::default()],
            selector: SelectorChoice::Energy,
            threads: 2,
            batch_size: 3,
        }
    }

    #[test]
    fn runner_produces_expected_counts() {
        let outcome = Runner::new(tiny_config()).run();
        for (_, pool) in &outcome.pools {
            assert_eq!(pool.legitimate.len(), 4);
            assert_eq!(pool.attacks.len(), 4);
        }
    }

    #[test]
    fn full_method_separates_better_than_audio_baseline() {
        let mut cfg = tiny_config();
        cfg.participants = 3;
        cfg.commands_per_user = 4;
        cfg.attacks_per_kind = 12;
        let outcome = Runner::new(cfg).run();
        let audio = outcome.pool(DefenseMethod::AudioBaseline).metrics();
        let full = outcome.pool(DefenseMethod::Full).metrics();
        assert!(
            full.auc >= audio.auc,
            "full {} vs audio {}",
            full.auc,
            audio.auc
        );
        // The full system must be strongly discriminative even on this
        // tiny sample.
        assert!(full.auc > 0.85, "full auc {}", full.auc);
    }

    #[test]
    fn runner_is_deterministic() {
        let a = Runner::new(tiny_config()).run();
        let b = Runner::new(tiny_config()).run();
        assert_eq!(
            a.pool(DefenseMethod::Full).legitimate,
            b.pool(DefenseMethod::Full).legitimate
        );
        assert_eq!(
            a.pool(DefenseMethod::Full).attack_scores(),
            b.pool(DefenseMethod::Full).attack_scores()
        );
    }

    #[test]
    fn scores_are_invariant_to_batch_size() {
        // The minibatched mask path must reproduce per-trial scoring
        // exactly: batch size 1 degenerates to one mask per BRNN pass.
        let runs: Vec<EvalOutcome> = [1usize, 3, 16]
            .into_iter()
            .map(|batch_size| {
                let mut cfg = tiny_config();
                cfg.batch_size = batch_size;
                Runner::new(cfg).run()
            })
            .collect();
        let reference = &runs[0];
        for other in &runs[1..] {
            for (m, pool) in &reference.pools {
                assert_eq!(pool.legitimate, other.pool(*m).legitimate);
                assert_eq!(pool.attacks, other.pool(*m).attacks);
            }
        }
    }

    #[test]
    fn utterance_memo_leaves_scores_unchanged() {
        // Different thread counts give the shared cache different race
        // and interleaving patterns; identical score multisets across
        // threads ∈ {1, 4, 8} prove the memo hands back exactly what
        // fresh synthesis would, regardless of which worker populated a
        // cell first.
        let runs: Vec<EvalOutcome> = [1usize, 4, 8]
            .into_iter()
            .map(|threads| {
                let mut cfg = tiny_config();
                cfg.threads = threads;
                Runner::new(cfg).run()
            })
            .collect();
        let sorted = |mut v: Vec<f32>| {
            v.sort_by(f32::total_cmp);
            v
        };
        let reference = &runs[0];
        for other in &runs[1..] {
            for (m, pool) in &reference.pools {
                assert_eq!(
                    sorted(pool.legitimate.clone()),
                    sorted(other.pool(*m).legitimate.clone())
                );
                assert_eq!(
                    sorted(pool.attack_scores()),
                    sorted(other.pool(*m).attack_scores())
                );
            }
        }
    }

    #[test]
    fn brnn_selector_scores_are_invariant_to_thread_count() {
        // With the BRNN selector every worker scores its own groups'
        // masks through the packed engine. Threads ∈ {1, 4, 8} split the
        // trials into different groups, so packs differ in width and
        // make-up; identical score multisets prove the masks do not
        // depend on how trials are shared out (the fused kernels are
        // batch-size invariant).
        let mut cfg = tiny_config();
        cfg.selector = SelectorChoice::Brnn {
            corpus_size: 6,
            epochs: 1,
            hidden: 8,
        };
        let (selector, symbols) = Runner::new(cfg.clone()).build_selector();
        let runs: Vec<EvalOutcome> = [1usize, 4, 8]
            .into_iter()
            .map(|threads| {
                let mut cfg = cfg.clone();
                cfg.threads = threads;
                Runner::new(cfg).run_with_selector(Arc::clone(&selector), symbols.clone())
            })
            .collect();
        let sorted = |mut v: Vec<f32>| {
            v.sort_by(f32::total_cmp);
            v
        };
        let reference = &runs[0];
        for other in &runs[1..] {
            for (m, pool) in &reference.pools {
                assert_eq!(
                    sorted(pool.legitimate.clone()),
                    sorted(other.pool(*m).legitimate.clone())
                );
                assert_eq!(
                    sorted(pool.attack_scores()),
                    sorted(other.pool(*m).attack_scores())
                );
            }
        }
    }

    /// The energy selector, recording the thread every batch runs on.
    #[derive(Default)]
    struct ThreadRecordingSelector {
        inner: EnergySelector,
        threads: std::sync::Mutex<Vec<std::thread::ThreadId>>,
    }

    impl SegmentSelector for ThreadRecordingSelector {
        fn sensitive_frames(&self, audio: &[f32], sample_rate: u32) -> Vec<bool> {
            self.inner.sensitive_frames(audio, sample_rate)
        }

        fn sensitive_frames_batch(
            &self,
            recordings: &[&[f32]],
            sample_rate: u32,
        ) -> Vec<Vec<bool>> {
            self.threads
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            self.inner.sensitive_frames_batch(recordings, sample_rate)
        }
    }

    #[test]
    fn chunk_zero_runs_on_the_calling_thread() {
        // One thread spawns no worker; with two, chunk 0 still runs on
        // the caller and chunk 1 on one spawned worker.
        let caller = std::thread::current().id();
        for (threads, distinct) in [(1usize, 1usize), (2, 2)] {
            let mut cfg = tiny_config();
            cfg.threads = threads;
            let selector = Arc::new(ThreadRecordingSelector::default());
            Runner::new(cfg).run_with_selector(selector.clone(), Vec::new());
            let seen = selector.threads.lock().unwrap().clone();
            assert!(seen.contains(&caller), "{threads} threads: {seen:?}");
            let unique: HashSet<_> = seen.iter().collect();
            assert_eq!(unique.len(), distinct, "{threads} threads: {seen:?}");
        }
    }

    #[test]
    fn utterance_cache_is_a_pure_synthesis_memo() {
        let cfg = tiny_config();
        let generator = TrialGenerator::new();
        let bank = CommandBank::standard();
        let cache = UtteranceCache::default();
        let warm = cache.get(&cfg, &generator, &bank, 1, 1);
        let fresh = {
            let speaker = participant(cfg.seed, 1);
            let mut rng = StdRng::seed_from_u64(utterance_seed(cfg.seed, 1, 1));
            generator.utterance_audio(&bank.commands()[1], &speaker, &mut rng)
        };
        assert_eq!(*warm, fresh);
        let again = cache.get(&cfg, &generator, &bank, 1, 1);
        assert!(Arc::ptr_eq(&warm, &again), "second lookup must be a hit");
    }

    #[test]
    fn utterance_cache_is_shared_across_threads() {
        // Two threads asking for the same cell must end up with the same
        // allocation — the cache is per-run, not per-worker.
        let cfg = tiny_config();
        let cache = UtteranceCache::default();
        let (a, b) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let cache = &cache;
                    let cfg = &cfg;
                    scope.spawn(move || {
                        let generator = TrialGenerator::new();
                        let bank = CommandBank::standard();
                        cache.get(cfg, &generator, &bank, 0, 1)
                    })
                })
                .collect();
            let mut out = handles.into_iter().map(|h| h.join().unwrap());
            (out.next().unwrap(), out.next().unwrap())
        });
        assert_eq!(*a, *b, "racing synthesis must be identical");
        let generator = TrialGenerator::new();
        let bank = CommandBank::standard();
        let later = cache.get(&cfg, &generator, &bank, 0, 1);
        assert!(
            Arc::ptr_eq(&a, &later) || Arc::ptr_eq(&b, &later),
            "later lookups must hit the allocation one of the racers installed"
        );
    }

    #[test]
    fn score_pool_filters_by_kind() {
        let mut pool = ScorePool::default();
        pool.attacks.push((AttackKind::Replay, 0.1));
        pool.attacks.push((AttackKind::Random, 0.2));
        assert_eq!(pool.attack_scores_of(AttackKind::Replay), vec![0.1]);
        assert_eq!(pool.attack_scores().len(), 2);
    }
}
