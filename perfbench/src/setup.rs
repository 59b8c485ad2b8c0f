//! Set-up shared by the workloads: offline phoneme selection, corpus
//! synthesis, BRNN selector training and the decision pool, all through
//! public calls.

use crate::seeds::{mix, Salt};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use thrubarrier_attack::AttackKind;
use thrubarrier_defense::segmentation::{DetectorTrainConfig, PhonemeDetector};
use thrubarrier_defense::selection::{run_selection, SelectionConfig};
use thrubarrier_eval::experiments::common::standard_settings;
use thrubarrier_eval::scenario::AUDIO_RATE;
use thrubarrier_eval::{Trial, TrialGenerator};
use thrubarrier_phoneme::command::CommandBank;
use thrubarrier_phoneme::corpus::{speaker_panel, training_corpus, LabelledUtterance};
use thrubarrier_phoneme::inventory::PhonemeId;
use thrubarrier_phoneme::speaker::SpeakerProfile;
use thrubarrier_phoneme::synth::Synthesizer;
use thrubarrier_vibration::Wearable;

/// Seed of the deployed model: the speaker panel, phoneme selection,
/// corpora and selector weights. Like a shipped model, it is the same in
/// every run; `--seed` varies the requests the model serves (the pool,
/// the evaluation jobs, the train workload's initialisation and
/// shuffle). A model drawn per run would be a single sample of the
/// selected-audio volume every decision pays for, and would dominate the
/// run-to-run spread.
pub const MODEL_SEED: u64 = 0x7BA2_21E6;

/// Utterances in the BRNN training corpus.
pub const CORPUS_UTTERANCES: usize = 80;
/// Utterances in the held-out corpus frame accuracy is measured on.
pub const HELDOUT_UTTERANCES: usize = 24;
/// The deployed selector: the repository's default preset (48 units,
/// 3 epochs over the corpus).
pub const SELECTOR: DetectorTrainConfig = DetectorTrainConfig {
    hidden_size: 48,
    epochs: 3,
    batch_size: 8,
    learning_rate: 3e-3,
};
/// Trials in the decision pool: half legitimate, half attacks, the four
/// attack kinds in equal shares. Large enough that the pool's full-method
/// AUC stays below 1.0: with 192 trials it reached 0.998 on one seed.
pub const POOL_TRIALS: usize = 384;
/// Distinct legitimate users (and adversaries) in the decision pool.
/// How much sensitive-phoneme audio a decision converts depends on the
/// speaker, so a handful of speakers would make the pool's mean cost a
/// draw of few samples.
const POOL_USERS: usize = 24;

/// What a workload needs from set-up.
#[derive(Debug, Clone, Copy)]
pub struct Needs {
    /// Train the deployed BRNN selector.
    pub selector: bool,
    /// Generate the decision pool.
    pub pool: bool,
}

/// Wall time of each set-up phase, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Offline phoneme selection.
    pub selection_s: f64,
    /// Training and held-out corpus synthesis.
    pub corpus_s: f64,
    /// Selector training.
    pub train_s: f64,
    /// Decision-pool generation.
    pub pool_s: f64,
}

impl Phases {
    /// Whole set-up time.
    pub fn total(&self) -> f64 {
        self.selection_s + self.corpus_s + self.train_s + self.pool_s
    }
}

/// One pool trial and the seed of the RNG its decision uses.
#[derive(Debug, Clone)]
pub struct PoolTrial {
    /// The recording pair.
    pub trial: Trial,
    /// Seed of the decision's RNG.
    pub seed: u64,
}

/// The products of set-up.
pub struct Setup {
    /// Sensitive phonemes found by selection.
    pub sensitive: HashSet<PhonemeId>,
    /// Their symbols.
    pub symbols: Vec<&'static str>,
    /// Labelled training corpus.
    pub corpus: Vec<LabelledUtterance>,
    /// Labelled held-out corpus.
    pub heldout: Vec<LabelledUtterance>,
    /// The deployed selector, when the workload needs it.
    pub selector: Option<Arc<PhonemeDetector>>,
    /// The decision pool (empty unless the workload needs it).
    pub pool: Vec<PoolTrial>,
    /// Phase timings.
    pub phases: Phases,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

impl Setup {
    /// Builds the model from [`MODEL_SEED`] and, when `needs` asks for
    /// it, the decision pool from `seed`.
    pub fn build(seed: u64, needs: Needs) -> Setup {
        let mut rng = StdRng::seed_from_u64(mix(MODEL_SEED, Salt::Setup));
        let ((panel, selection), selection_s) = timed(|| {
            let panel = speaker_panel(3, 3, &mut rng);
            let selection = run_selection(
                &SelectionConfig::default(),
                &Wearable::fossil_gen_5(),
                &panel,
                &mut rng,
            );
            (panel, selection)
        });
        let ((corpus, heldout), corpus_s) = timed(|| {
            let synth = Synthesizer::new(AUDIO_RATE);
            let corpus = training_corpus(&synth, CORPUS_UTTERANCES, &panel, &mut rng);
            let heldout = training_corpus(&synth, HELDOUT_UTTERANCES, &panel, &mut rng);
            (corpus, heldout)
        });
        let sensitive: HashSet<PhonemeId> = selection.selected_ids().into_iter().collect();
        let (selector, train_s) = if needs.selector {
            let (d, s) = timed(|| {
                let mut rng = StdRng::seed_from_u64(mix(MODEL_SEED, Salt::Selector));
                PhonemeDetector::train(&sensitive, &corpus, &SELECTOR, &mut rng)
            });
            (Some(Arc::new(d)), s)
        } else {
            (None, 0.0)
        };
        let (pool, pool_s) = if needs.pool {
            timed(|| build_pool(seed))
        } else {
            (Vec::new(), 0.0)
        };
        Setup {
            sensitive,
            symbols: selection.selected_symbols(),
            corpus,
            heldout,
            selector,
            pool,
            phases: Phases {
                selection_s,
                corpus_s,
                train_s,
                pool_s,
            },
        }
    }

    /// A hash of everything set-up produced; equal hashes mean two
    /// set-ups built bitwise-identical inputs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        let mut ids: Vec<usize> = self.sensitive.iter().map(|p| p.0).collect();
        ids.sort_unstable();
        for id in ids {
            h.u64(id as u64);
        }
        for u in self.corpus.iter().chain(&self.heldout) {
            h.samples(u.utterance.audio.samples());
        }
        if let Some(d) = &self.selector {
            let mut bytes = Vec::new();
            d.save(&mut bytes).expect("writing to a Vec cannot fail");
            h.bytes(&bytes);
        }
        for p in &self.pool {
            h.samples(p.trial.va_recording.samples());
            h.samples(p.trial.wearable_recording.samples());
            h.u64(p.seed);
        }
        h.0
    }
}

/// The decision pool over the pooled Fig. 9 matrix (rooms A–D, user at
/// 1–3 m, attacks at 65/75/85 dB). Even indices are legitimate
/// commands; odd indices are attacks cycling through the four kinds.
fn build_pool(seed: u64) -> Vec<PoolTrial> {
    let generator = TrialGenerator::new();
    let bank = CommandBank::standard();
    let settings = standard_settings();
    let mut rng = StdRng::seed_from_u64(mix(seed, Salt::Speakers));
    let users: Vec<SpeakerProfile> = (0..POOL_USERS)
        .map(|_| SpeakerProfile::random(&mut rng))
        .collect();
    let adversaries: Vec<SpeakerProfile> = (0..POOL_USERS)
        .map(|_| SpeakerProfile::random(&mut rng))
        .collect();
    let offset = rng.gen_range(0..bank.len());
    (0..POOL_TRIALS)
        .map(|i| {
            let trial_seed = mix(mix(seed, Salt::Pool), i as u64);
            let mut rng = StdRng::seed_from_u64(trial_seed);
            let j = i / 2;
            // Legitimate and attack trials each walk the whole command
            // bank, so every pool has the same mix of command lengths.
            let command = &bank.commands()[(j + offset) % bank.len()];
            let user = &users[j % POOL_USERS];
            let trial = if i % 2 == 0 {
                let s = &settings[j % settings.len()];
                generator.legitimate(command, user, s, &mut rng)
            } else {
                let kind = AttackKind::all()[j % 4];
                // 7 is coprime to 4 and spreads each kind over 9 settings.
                let s = &settings[(j * 7) % settings.len()];
                let adversary = &adversaries[j % POOL_USERS];
                generator.attack(kind, command, user, adversary, s, &mut rng)
            };
            PoolTrial {
                trial,
                seed: mix(trial_seed, Salt::Decision),
            }
        })
        .collect()
}

/// 64-bit FNV-1a.
#[derive(Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Hashes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hashes a number.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes samples by their bit patterns.
    pub fn samples(&mut self, s: &[f32]) {
        self.u64(s.len() as u64);
        for v in s {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}
