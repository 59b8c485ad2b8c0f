//! Attack-sound generation for the four threat classes.

use rand::Rng;
use thrubarrier_acoustics::loudspeaker::Loudspeaker;
use thrubarrier_phoneme::command::Command;
use thrubarrier_phoneme::speaker::SpeakerProfile;
use thrubarrier_phoneme::synth::Synthesizer;

/// The four attack classes of the paper's threat model (Sec. II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Adversary speaks with their own voice.
    Random,
    /// Adversary replays a recording of the victim.
    Replay,
    /// Adversary synthesizes the victim's voice from a few samples.
    VoiceSynthesis,
    /// Adversary plays an obfuscated (machine-only) command.
    HiddenVoice,
}

impl AttackKind {
    /// All four attack kinds.
    pub fn all() -> [AttackKind; 4] {
        [
            AttackKind::Random,
            AttackKind::Replay,
            AttackKind::VoiceSynthesis,
            AttackKind::HiddenVoice,
        ]
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::Random => "random attack",
            AttackKind::Replay => "replay attack",
            AttackKind::VoiceSynthesis => "voice synthesis attack",
            AttackKind::HiddenVoice => "hidden voice attack",
        }
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An attack sound ready to be transmitted along an acoustic path.
#[derive(Debug, Clone)]
pub struct AttackSound {
    /// The source waveform at [`AttackSound::sample_rate`].
    pub samples: Vec<f32>,
    /// Sample rate of `samples`.
    pub sample_rate: u32,
    /// Which attack produced it.
    pub kind: AttackKind,
    /// Whether the sound is emitted by a playback device (true for
    /// everything except a live random attack) — the acoustic path then
    /// includes the loudspeaker's response.
    pub needs_loudspeaker: bool,
}

/// Generates attack sounds for every threat class.
#[derive(Debug, Clone)]
pub struct AttackGenerator {
    synth: Synthesizer,
    /// The playback device replayed attacks go through.
    pub loudspeaker: Loudspeaker,
}

impl AttackGenerator {
    /// Creates a generator at the given audio sample rate with the
    /// paper's sound-bar playback device.
    pub fn new(sample_rate: u32) -> Self {
        AttackGenerator {
            synth: Synthesizer::new(sample_rate),
            loudspeaker: Loudspeaker::sound_bar(),
        }
    }

    /// The audio sample rate.
    pub fn sample_rate(&self) -> u32 {
        self.synth.sample_rate()
    }

    /// Generates the attack sound for `kind` targeting `victim`'s command.
    ///
    /// * `Random` — `adversary` speaks the command live.
    /// * `Replay` — a recording of `victim` speaking the command
    ///   (public-source quality) is replayed.
    /// * `VoiceSynthesis` — the victim's voice parameters are estimated
    ///   from `n_estimation_samples` short samples and the command is
    ///   synthesized in the estimated voice.
    /// * `HiddenVoice` — the command is obfuscated into a noise-like
    ///   wideband sound.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        kind: AttackKind,
        command: &Command,
        victim: &SpeakerProfile,
        adversary: &SpeakerProfile,
        rng: &mut R,
    ) -> AttackSound {
        let _span = thrubarrier_obs::span!("attack.generate");
        let fs = self.sample_rate();
        match kind {
            AttackKind::Random => AttackSound {
                samples: self
                    .synth
                    .synthesize_command(command, adversary, rng)
                    .audio
                    .into_samples(),
                sample_rate: fs,
                kind,
                needs_loudspeaker: false,
            },
            AttackKind::Replay => AttackSound {
                samples: self.victim_recording(command, victim, rng),
                sample_rate: fs,
                kind,
                needs_loudspeaker: true,
            },
            AttackKind::VoiceSynthesis => {
                let estimated = self.estimate_voice(victim, rng);
                let mut samples = self
                    .synth
                    .synthesize_command(command, &estimated, rng)
                    .audio
                    .into_samples();
                // Vocoder roughness: TTS output carries slow amplitude
                // artifacts that degrade template matching at marginal
                // SNR.
                let mod_noise = thrubarrier_dsp::response::filter_cached(
                    thrubarrier_dsp::response::curve_key(0x564F_434F, &[]),
                    &thrubarrier_dsp::gen::gaussian_noise(rng, 1.0, samples.len()),
                    fs,
                    |f| if f < 20.0 { 1.0 } else { 0.0 },
                );
                let mod_rms = thrubarrier_dsp::stats::rms(&mod_noise).max(1e-9);
                for (v, m) in samples.iter_mut().zip(&mod_noise) {
                    *v *= (1.0 + 0.5 * m / mod_rms).clamp(0.2, 1.8);
                }
                AttackSound {
                    samples,
                    sample_rate: fs,
                    kind,
                    needs_loudspeaker: true,
                }
            }
            AttackKind::HiddenVoice => {
                let clear = self
                    .synth
                    .synthesize_command(command, victim, rng)
                    .audio
                    .into_samples();
                AttackSound {
                    samples: crate::hidden::obfuscate(&clear, fs, rng),
                    sample_rate: fs,
                    kind,
                    needs_loudspeaker: true,
                }
            }
        }
    }

    /// A public-source recording of the victim speaking the command:
    /// clean synthesis degraded by a recording channel (band limit +
    /// light noise).
    pub fn victim_recording<R: Rng + ?Sized>(
        &self,
        command: &Command,
        victim: &SpeakerProfile,
        rng: &mut R,
    ) -> Vec<f32> {
        let fs = self.sample_rate();
        let clean = self
            .synth
            .synthesize_command(command, victim, rng)
            .audio
            .into_samples();
        let mut rec = thrubarrier_dsp::response::filter_cached(
            thrubarrier_dsp::response::curve_key(0x5652_4543, &[]),
            &clean,
            fs,
            |f| {
                if f < 80.0 {
                    (f / 80.0).powi(2)
                } else if f > 7_000.0 {
                    (7_000.0 / f).powi(2)
                } else {
                    1.0
                }
            },
        );
        let noise_std = thrubarrier_dsp::stats::rms(&rec) * 0.02;
        thrubarrier_dsp::gen::add_gaussian_noise(&mut rec, noise_std, rng);
        rec
    }

    /// Estimates the victim's voice from a handful of samples: the
    /// estimate is close but carries error, and synthetic prosody is
    /// flatter than natural speech.
    pub fn estimate_voice<R: Rng + ?Sized>(
        &self,
        victim: &SpeakerProfile,
        rng: &mut R,
    ) -> SpeakerProfile {
        let mut est = victim.clone();
        est.f0_hz *= 1.0 + 0.04 * thrubarrier_dsp::gen::standard_normal(rng);
        est.formant_scale *= 1.0 + 0.02 * thrubarrier_dsp::gen::standard_normal(rng);
        // TTS prosody: flatter jitter, nominal effort and rate.
        est.f0_jitter = 0.005;
        est.effort_db = 0.0;
        est.rate = 1.0;
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrubarrier_dsp::stats;
    use thrubarrier_phoneme::command::CommandBank;

    fn setup() -> (AttackGenerator, Command, SpeakerProfile, SpeakerProfile) {
        let bank = CommandBank::standard();
        let cmd = bank.by_text("unlock the door").unwrap().clone();
        (
            AttackGenerator::new(16_000),
            cmd,
            SpeakerProfile::reference_male(),
            SpeakerProfile::reference_female(),
        )
    }

    #[test]
    fn all_kinds_generate_nonsilent_sounds() {
        let (g, cmd, victim, adversary) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        for kind in AttackKind::all() {
            let a = g.generate(kind, &cmd, &victim, &adversary, &mut rng);
            assert!(stats::rms(&a.samples) > 1e-4, "{kind} silent");
            assert_eq!(a.kind, kind);
            assert_eq!(a.sample_rate, 16_000);
        }
    }

    #[test]
    fn only_random_attack_is_live() {
        let (g, cmd, victim, adversary) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        for kind in AttackKind::all() {
            let a = g.generate(kind, &cmd, &victim, &adversary, &mut rng);
            assert_eq!(a.needs_loudspeaker, kind != AttackKind::Random, "{kind}");
        }
    }

    #[test]
    fn replay_sound_resembles_victim_not_adversary() {
        let (g, cmd, victim, adversary) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let replay = g.generate(AttackKind::Replay, &cmd, &victim, &adversary, &mut rng);
        // The victim is male (F0 120); verify the replay carries a male
        // pitch rather than the adversary's female pitch.
        let f0 = thrubarrier_acoustics::va::estimate_f0(&replay.samples, 16_000)
            .expect("voiced content");
        assert!((f0 - victim.f0_hz).abs() < 25.0, "f0 {f0}");
    }

    #[test]
    fn synthesis_estimate_is_near_but_not_exact() {
        let (g, _, victim, _) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let est = g.estimate_voice(&victim, &mut rng);
        assert!((est.f0_hz / victim.f0_hz - 1.0).abs() < 0.15);
        assert_ne!(est.f0_hz, victim.f0_hz);
        assert!(est.f0_jitter < victim.f0_jitter);
    }

    #[test]
    fn hidden_attack_differs_from_clear_command() {
        let (g, cmd, victim, adversary) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let hidden = g.generate(AttackKind::HiddenVoice, &cmd, &victim, &adversary, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(5);
        let clear = Synthesizer::new(16_000)
            .synthesize_command(&cmd, &victim, &mut rng2)
            .audio
            .into_samples();
        let n = hidden.samples.len().min(clear.len());
        let r = stats::pearson(&hidden.samples[..n], &clear[..n]);
        assert!(r.abs() < 0.3, "hidden correlates with clear: {r}");
    }

    #[test]
    fn victim_recording_is_band_limited_and_noisy() {
        let (g, cmd, victim, _) = setup();
        let mut rng = StdRng::seed_from_u64(6);
        let rec = g.victim_recording(&cmd, &victim, &mut rng);
        assert!(stats::rms(&rec) > 1e-4);
    }

    #[test]
    fn attack_kind_display() {
        assert_eq!(AttackKind::Replay.to_string(), "replay attack");
        assert_eq!(AttackKind::all().len(), 4);
    }
}
