//! Fused single-pass acoustic scene-rendering engine.
//!
//! The staged rendering chain ([`AcousticPath::record_staged`]) walks a
//! recording through **3–4 independent frequency-domain round-trips**:
//! the loudspeaker band-limit, the barrier transmission curve, the
//! overlap-save reverb convolution and the microphone gain/roll-off
//! each run their own forward + inverse FFT over the full signal, with
//! a full-size temporary per stage. But everything after the
//! loudspeaker's tanh soft-clip is LTI, so the whole middle of the
//! chain is one transfer function:
//!
//! ```text
//! H[k] = barrier[k] · distance_gain · e^{-jω_k d} ·
//!        (1 + Σ_t g_t e^{-jω_k t_t}) · mic[k]
//! ```
//!
//! The engine renders it as **one forward + one inverse transform**:
//!
//! 1. run the loudspeaker (nonlinear, stays in the time domain);
//! 2. draw the reverb position jitter and build the tap set — the same
//!    draws, in the same order, as the staged chain;
//! 3. forward real FFT of the played signal at
//!    `next_pow2(delay + len + max_tap)` — sized for the *output*, so
//!    the delay and tap terms never wrap;
//! 4. multiply each bin by the combined transfer: barrier and mic gains
//!    come from the same cached [`ResponseCurve`] tables the staged
//!    stages filter through, the propagation delay and reverb taps are
//!    exact [`fft::unit_roots`] table lookups, and the spreading loss
//!    is a scalar;
//! 5. one inverse transform that writes only the staged output length
//!    (`delay + len + max_tap`), never the block's padding;
//! 6. ambient noise, microphone self-noise and full-scale clamping in
//!    the time domain, drawing the RNG in the staged order.
//!
//! Fused and staged outputs agree at tolerance level, not bitwise, for
//! two structural reasons. First, the staged chain truncates after the
//! barrier stage (circular convolution at `next_pow2(len)`, pad region
//! re-zeroed) where the fused pass keeps the curve's ringing tail in a
//! larger transform. Second, the staged chain adds ambient noise
//! *before* the microphone, so the mic's high-pass also filters the
//! noise floor; the fused pass adds it after the spectral pass, scaled
//! by the mic's passband (array) gain. The high-pass corner sits at
//! 60–80 Hz — about 1 % of a 16 kHz recording's white-noise energy —
//! so the difference stays inside the noise-floor term of the parity
//! tolerance. Both gaps are gated by proptests against the kept staged
//! oracle, exactly like the conversion and correlation engines.
//!
//! [`SceneEngine`] owns the spectrum scratch and [`with_engine`] hands
//! out a per-thread instance (the `ConversionEngine` pattern), so
//! steady-state renders allocate only their output buffer. The
//! `eval.build.propagation` span — previously wrapped around the
//! recording pair in `eval::scenario` — lives on
//! [`SceneEngine::record`] now, one span per rendered path, next to
//! per-path `acoustics.render.path.*` counters.
//!
//! [`ResponseCurve`]: thrubarrier_dsp::response::ResponseCurve

use crate::mic::Microphone;
use crate::propagation::{distance_gain, propagation_delay_samples, spl_to_rms};
use crate::scene::AcousticPath;
use rand::Rng;
use std::cell::RefCell;
use thrubarrier_dsp::{fft, gen, AudioBuffer, Complex};

/// Which implementation an [`AcousticPath::record`] call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RenderPath {
    /// The fused single-pass engine (this module).
    #[default]
    Fused,
    /// The staged per-stage chain — the parity oracle.
    Staged,
}

/// Reusable scratch for fused acoustic-path renders.
///
/// Holds the half-spectrum working buffer; FFT plans, unit-root tables
/// and sampled response curves come from the dsp crate's caches. One
/// engine renders any number of paths of any length — the buffer grows
/// to the largest render seen and is reused. Each recording is
/// allocated at its own length: the inverse transform runs at the
/// padded size `n` but writes only the samples the recording keeps.
#[derive(Debug, Default)]
pub struct SceneEngine {
    /// Half-spectrum of the padded played signal (`n/2 + 1` bins).
    spec: Vec<Complex>,
    /// Combined per-bin gain (spreading loss × mic × barrier curves).
    gain: Vec<f32>,
}

impl SceneEngine {
    /// Creates an engine with empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renders one acoustic path into a microphone recording on the
    /// path selected by `path.render`. Semantics match
    /// [`AcousticPath::record_staged`]: same output rate and length,
    /// same RNG draw sequence, tolerance-level numeric agreement.
    pub fn record<R: Rng + ?Sized>(
        &mut self,
        path: &AcousticPath,
        source: &[f32],
        sample_rate: u32,
        mic: &Microphone,
        rng: &mut R,
    ) -> AudioBuffer {
        let _span = thrubarrier_obs::span!("eval.build.propagation");
        match path.render {
            RenderPath::Fused => {
                thrubarrier_obs::counter!("acoustics.render.path.fused").incr();
                self.record_fused(path, source, sample_rate, mic, rng)
            }
            RenderPath::Staged => {
                thrubarrier_obs::counter!("acoustics.render.path.staged").incr();
                path.record_staged(source, sample_rate, mic, rng)
            }
        }
    }

    /// The fused render: loudspeaker in time domain, one forward
    /// transform, combined-transfer multiply, one inverse transform
    /// writing the first `len_full` samples, then the noise/clamp tail.
    fn record_fused<R: Rng + ?Sized>(
        &mut self,
        path: &AcousticPath,
        source: &[f32],
        sample_rate: u32,
        mic: &Microphone,
        rng: &mut R,
    ) -> AudioBuffer {
        // Nonlinear front: the soft-clipping playback device cannot be
        // folded into the transfer function.
        let played;
        let sig: &[f32] = match &path.loudspeaker {
            Some(sp) => {
                played = sp.play(source, sample_rate);
                &played
            }
            None => source,
        };

        // Position jitter in the staged draw order
        // (`Room::apply_reverb_positioned`: 3 delay draws, 3 gain
        // draws), then the identical tap arithmetic.
        let jd: Vec<f32> = (0..3).map(|_| rng.gen_range(0.7..1.3)).collect();
        let jg: Vec<f32> = (0..3).map(|_| rng.gen_range(0.7..1.3)).collect();
        let taps = path.room.reverb_taps(sample_rate, &jd, &jg);
        let max_tap = taps.iter().map(|&(d, _)| d).max().unwrap_or(0);
        let delay = propagation_delay_samples(path.distance_m, sample_rate);
        // The staged chain's output length: travel delay + signal +
        // reverb tail (`convolve_taps_*` extend by the longest tap).
        let len_full = delay + sig.len() + max_tap;

        let mut out = if sig.is_empty() {
            // Filtered silence is silence; only the noise tail below
            // touches the samples.
            vec![0.0f32; len_full]
        } else {
            let n = fft::next_pow2(len_full);
            fft::half_spectrum_into(sig, n, &mut self.spec);
            self.apply_transfer(path, mic, n, sample_rate, delay, &taps);
            let mut time = Vec::new();
            fft::real_inverse_into(&self.spec, n, len_full, &mut time);
            time
        };

        // Noise tail in the staged order: one full-buffer ambient pass,
        // then one full-buffer self-noise pass (never interleaved — the
        // staged chain finishes the ambient stage before the mic
        // draws) with the full-scale clamp fused into it.
        let ambient_std = spl_to_rms(path.room.ambient_spl_db);
        let mic_gain = thrubarrier_dsp::stats::db_to_amplitude(mic.array_gain_db);
        gen::add_gaussian_noise(&mut out, ambient_std * mic_gain, rng);
        gen::add_gaussian_noise_clamped(&mut out, mic.noise_std(), rng);
        AudioBuffer::new(out, sample_rate)
    }

    /// Multiplies the held spectrum by the combined transfer function:
    /// per-bin barrier and microphone gains from the shared curve
    /// cache, the scalar spreading loss, and exact unit-root phase
    /// terms for the travel delay and each reverb tap.
    fn apply_transfer(
        &mut self,
        path: &AcousticPath,
        mic: &Microphone,
        n: usize,
        sample_rate: u32,
        delay: usize,
        taps: &[(usize, f32)],
    ) {
        let roots = fft::unit_roots(n);
        let barrier = path
            .through_barrier
            .then(|| path.room.barrier.response_curve(n, sample_rate));
        let mic_curve = mic.response_curve(n, sample_rate);
        let g = distance_gain(path.distance_m);
        // Re-slicing every table to the known bin count lets the zipped
        // loops below compile without bounds checks.
        debug_assert!(n.is_power_of_two());
        let roots = &roots[..n];
        let bins = self.spec.len();
        let mic_gains = &mic_curve.gains()[..bins];
        // Combine spreading loss × mic × barrier into one gain array
        // first: a branch-free sequential pass the compiler can
        // vectorize, and it keeps the phase loop's working set down to
        // the unit-root table plus two linear streams. The product is
        // ordered (g·mg)·bg on both arms so adding a barrier never
        // re-rounds the barrier-free factors.
        self.gain.clear();
        match &barrier {
            Some(b) => self.gain.extend(
                mic_gains
                    .iter()
                    .zip(&b.gains()[..bins])
                    .map(|(&mg, &bg)| g * mg * bg),
            ),
            None => self.gain.extend(mic_gains.iter().map(|&mg| g * mg)),
        }
        // Delay + reverb phase: e^{-jω_k d}·(1 + Σ g_t e^{-jω_k t}) —
        // all table lookups, since a shift by s samples rotates bin k
        // by root (k·s) mod n. Each term's index walks the table with
        // a running stride (step < n, so one conditional subtract
        // wraps it) — no per-bin multiply or modulo. Every room model
        // emits three first-order reflections, so the three-tap case
        // gets a specialized loop whose running indices live in
        // registers; the generic loop covers degenerate tap sets.
        if let &[(td0, tg0), (td1, tg1), (td2, tg2)] = taps {
            let (s0, s1, s2) = (delay + td0, delay + td1, delay + td2);
            let (mut id, mut i0, mut i1, mut i2) = (0usize, 0usize, 0usize, 0usize);
            for (v, &scale) in self.spec.iter_mut().zip(&self.gain) {
                let h =
                    roots[id] + roots[i0].scale(tg0) + roots[i1].scale(tg1) + roots[i2].scale(tg2);
                *v *= h.scale(scale);
                id += delay;
                i0 += s0;
                i1 += s1;
                i2 += s2;
                if id >= n {
                    id -= n;
                }
                if i0 >= n {
                    i0 -= n;
                }
                if i1 >= n {
                    i1 -= n;
                }
                if i2 >= n {
                    i2 -= n;
                }
            }
            return;
        }
        let mut delay_idx = 0usize;
        let mut tap_idx: Vec<(usize, usize, f32)> = taps
            .iter()
            .map(|&(td, tg)| (delay + td, 0usize, tg))
            .collect();
        for (v, &scale) in self.spec.iter_mut().zip(&self.gain) {
            let mut h = roots[delay_idx];
            for &(_, idx, tg) in tap_idx.iter() {
                h += roots[idx].scale(tg);
            }
            *v *= h.scale(scale);
            delay_idx += delay;
            if delay_idx >= n {
                delay_idx -= n;
            }
            for (step, idx, _) in tap_idx.iter_mut() {
                *idx += *step;
                if *idx >= n {
                    *idx -= n;
                }
            }
        }
    }
}

thread_local! {
    static ENGINE: RefCell<SceneEngine> = RefCell::new(SceneEngine::new());
}

/// Runs `f` with this thread's [`SceneEngine`] — the per-thread
/// scratch-reuse entry point ([`AcousticPath::record`] goes through
/// it).
///
/// # Panics
///
/// Panics if `f` re-enters `with_engine` on the same thread (the
/// engine is a single per-thread instance behind a `RefCell`).
pub fn with_engine<R>(f: impl FnOnce(&mut SceneEngine) -> R) -> R {
    ENGINE.with(|e| f(&mut e.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loudspeaker::Loudspeaker;
    use crate::room::{Room, RoomId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrubarrier_dsp::stats;

    #[test]
    fn staged_path_selector_reproduces_oracle_bitwise() {
        let path =
            AcousticPath::thru_barrier(Room::paper_room(RoomId::B), 2.0, Loudspeaker::sound_bar())
                .with_render(RenderPath::Staged);
        let sig = thrubarrier_dsp::gen::chirp(150.0, 3_000.0, 0.2, 16_000, 0.4);
        let mic = Microphone::far_field_array();
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        let via_engine = path.record(&sig, 16_000, &mic, &mut rng_a);
        let direct = path.record_staged(&sig, 16_000, &mic, &mut rng_b);
        assert_eq!(via_engine.samples(), direct.samples());
    }

    #[test]
    fn fused_output_matches_staged_length_and_onset() {
        let path = AcousticPath::direct(Room::paper_room(RoomId::A), 3.43); // 10 ms
        let mut src = vec![0.0f32; 400];
        src[0] = 1.0;
        let mic = Microphone::phone();
        let mut rng_f = StdRng::seed_from_u64(11);
        let mut rng_s = StdRng::seed_from_u64(11);
        let fused = path.record(&src, 16_000, &mic, &mut rng_f);
        let staged = path.record_staged(&src, 16_000, &mic, &mut rng_s);
        assert_eq!(fused.len(), staged.len());
        // The impulse still lands 160 samples in, well above the noise.
        let peak_at = fused
            .samples()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(peak_at, 160);
    }

    #[test]
    fn fused_tracks_staged_at_tolerance() {
        let path =
            AcousticPath::thru_barrier(Room::paper_room(RoomId::D), 2.5, Loudspeaker::portable());
        let sig = thrubarrier_dsp::gen::chirp(120.0, 2_500.0, 0.3, 16_000, 0.5);
        let mic = Microphone::laptop();
        let mut rng_f = StdRng::seed_from_u64(7);
        let mut rng_s = StdRng::seed_from_u64(7);
        let fused = path.record(&sig, 16_000, &mic, &mut rng_f);
        let staged = path.record_staged(&sig, 16_000, &mic, &mut rng_s);
        assert_eq!(fused.len(), staged.len());
        let diff: Vec<f32> = fused
            .samples()
            .iter()
            .zip(staged.samples())
            .map(|(a, b)| a - b)
            .collect();
        let floor = spl_to_rms(path.room.ambient_spl_db) + mic.noise_std();
        assert!(
            stats::rms(&diff) <= 0.15 * stats::rms(staged.samples()) + 2.0 * floor,
            "diff rms {} vs staged rms {}",
            stats::rms(&diff),
            stats::rms(staged.samples())
        );
    }

    #[test]
    fn empty_source_keeps_rng_stream_aligned_with_staged() {
        for distance in [0.0, 2.0] {
            let path = AcousticPath::direct(Room::paper_room(RoomId::C), distance);
            let mic = Microphone::wearable();
            let mut rng_f = StdRng::seed_from_u64(5);
            let mut rng_s = StdRng::seed_from_u64(5);
            let fused = path.record(&[], 16_000, &mic, &mut rng_f);
            let staged = path.record_staged(&[], 16_000, &mic, &mut rng_s);
            assert_eq!(fused.len(), staged.len(), "distance {distance}");
            // Both paths must have consumed the same number of draws.
            assert_eq!(rng_f.gen::<u64>(), rng_s.gen::<u64>());
        }
    }
}
