//! Deterministic test-signal and noise generators.

use rand::Rng;

mod normal;

/// Generates a sine tone.
///
/// * `freq` — frequency in Hz
/// * `amplitude` — peak amplitude
/// * `sample_rate` — samples per second
/// * `duration` — seconds
///
/// # Example
///
/// ```
/// let tone = thrubarrier_dsp::gen::sine(440.0, 1.0, 16_000, 0.5);
/// assert_eq!(tone.len(), 8_000);
/// ```
pub fn sine(freq: f32, amplitude: f32, sample_rate: u32, duration: f32) -> Vec<f32> {
    let n = (duration * sample_rate as f32).round() as usize;
    let w = std::f32::consts::TAU * freq / sample_rate as f32;
    (0..n).map(|i| amplitude * (w * i as f32).sin()).collect()
}

/// Generates a linear chirp sweeping from `f0` to `f1` Hz over `duration`
/// seconds.
///
/// This is the stimulus used to characterize the wearable accelerometer's
/// frequency response (paper Fig. 7: a 500–2500 Hz chirp).
pub fn chirp(f0: f32, f1: f32, amplitude: f32, sample_rate: u32, duration: f32) -> Vec<f32> {
    let n = (duration * sample_rate as f32).round() as usize;
    let fs = sample_rate as f32;
    let k = (f1 - f0) / duration;
    (0..n)
        .map(|i| {
            let t = i as f32 / fs;
            let phase = std::f32::consts::TAU * (f0 * t + 0.5 * k * t * t);
            amplitude * phase.sin()
        })
        .collect()
}

/// Generates zero-mean Gaussian white noise with the given standard
/// deviation: `std` times `n` consecutive [`standard_normal`] draws,
/// evaluated by the block kernel.
pub fn gaussian_noise<R: Rng + ?Sized>(rng: &mut R, std: f32, n: usize) -> Vec<f32> {
    let mut out = vec![0.0; n];
    for_each_normal_block(rng, &mut out, |out, z| {
        for (o, &z) in out.iter_mut().zip(z) {
            *o = std * z;
        }
    });
    out
}

/// Draws one sample from the standard normal distribution via
/// Box–Muller: `sqrt(−2·ln u1) · cos(τ·u2)` in f32, with
/// `u1 = 1 − rng.gen::<f32>()` (so `ln` never sees 0) drawn before
/// `u2 = rng.gen::<f32>()`.
///
/// `ln` and `cos` are the kernel's libm-free replica of glibc's `logf`
/// and `cosf` (see DESIGN.md, "Noise kernel"), so a seeded stream is the
/// same on every libm and every CPU. The block generators below produce
/// exactly the values, and leave exactly the RNG state, of a loop of
/// these calls.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let u2: f32 = rng.gen();
    (-2.0 * normal::ln(u1)).sqrt() * normal::cos_tau(u2)
}

/// Adds zero-mean Gaussian noise of standard deviation `std` to
/// `signal` in place: `*v += std * standard_normal(rng)` per sample,
/// in order, with the draws evaluated by the block kernel.
pub fn add_gaussian_noise<R: Rng + ?Sized>(signal: &mut [f32], std: f32, rng: &mut R) {
    for_each_normal_block(rng, signal, |signal, z| {
        for (v, &z) in signal.iter_mut().zip(z) {
            *v += std * z;
        }
    });
}

/// [`add_gaussian_noise`] fused with a full-scale clamp to `[-1, 1]`:
/// one sweep instead of a noise pass followed by a clamp pass. Each
/// sample's draw lands before its clamp and samples are independent,
/// so the result — and the RNG stream — are identical to the two-pass
/// form.
pub fn add_gaussian_noise_clamped<R: Rng + ?Sized>(signal: &mut [f32], std: f32, rng: &mut R) {
    for_each_normal_block(rng, signal, |signal, z| {
        for (v, &z) in signal.iter_mut().zip(z) {
            *v = (*v + std * z).clamp(-1.0, 1.0);
        }
    });
}

/// Samples per kernel block.
const BLOCK: usize = 128;

/// Runs `apply(chunk, z)` over consecutive chunks of `out` of up to
/// [`BLOCK`] samples, `z` holding one standard normal per chunk sample.
///
/// Each block draws its uniforms in [`standard_normal`]'s order (`u1`
/// then `u2`, sample by sample) and then transforms them together, so
/// the draws, and the RNG state afterwards, equal a loop of
/// [`standard_normal`] calls.
fn for_each_normal_block<R: Rng + ?Sized>(
    rng: &mut R,
    out: &mut [f32],
    mut apply: impl FnMut(&mut [f32], &[f32]),
) {
    let kernel = normal::Kernel::detect();
    let mut u1 = [0.0f32; BLOCK];
    let mut u2 = [0.0f32; BLOCK];
    let mut z = [0.0f32; BLOCK];
    let mut c = [0.0f32; BLOCK];
    for chunk in out.chunks_mut(BLOCK) {
        let n = chunk.len();
        let (u1, u2, z, c) = (&mut u1[..n], &mut u2[..n], &mut z[..n], &mut c[..n]);
        for (a, b) in u1.iter_mut().zip(u2.iter_mut()) {
            *a = 1.0 - rng.gen::<f32>();
            *b = rng.gen();
        }
        kernel.ln(u1, z);
        kernel.cos_tau(u2, c);
        for (z, &c) in z.iter_mut().zip(c.iter()) {
            *z = (-2.0 * *z).sqrt() * c;
        }
        apply(chunk, z);
    }
}

/// Returns `n` zeros — explicit silence, clearer at call sites than
/// `vec![0.0; n]`.
pub fn silence(n: usize) -> Vec<f32> {
    vec![0.0; n]
}

/// Adds `b` into `a` element-wise, extending `a` if `b` is longer.
pub fn mix_into(a: &mut Vec<f32>, b: &[f32]) {
    if b.len() > a.len() {
        a.resize(b.len(), 0.0);
    }
    for (x, &y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sine_has_expected_rms() {
        let s = sine(100.0, 2.0, 8_000, 1.0);
        // RMS of a sine of amplitude A is A/sqrt(2).
        assert!((stats::rms(&s) - 2.0 / 2f32.sqrt()).abs() < 0.01);
    }

    #[test]
    fn chirp_instantaneous_frequency_increases() {
        let fs = 16_000;
        let c = chirp(500.0, 2_500.0, 1.0, fs, 1.0);
        // Count zero crossings in first and last 10th — later section must
        // oscillate faster.
        let crossings = |xs: &[f32]| {
            xs.windows(2)
                .filter(|w| (w[0] >= 0.0) != (w[1] >= 0.0))
                .count()
        };
        let n = c.len();
        let early = crossings(&c[..n / 10]);
        let late = crossings(&c[n - n / 10..]);
        assert!(late > early * 2, "early={early} late={late}");
    }

    #[test]
    fn gaussian_noise_statistics() {
        let mut rng = StdRng::seed_from_u64(7);
        let noise = gaussian_noise(&mut rng, 0.5, 50_000);
        assert!(stats::mean(&noise).abs() < 0.02);
        assert!((stats::std_dev(&noise) - 0.5).abs() < 0.02);
    }

    #[test]
    fn gaussian_noise_is_deterministic_per_seed() {
        let a = gaussian_noise(&mut StdRng::seed_from_u64(3), 1.0, 16);
        let b = gaussian_noise(&mut StdRng::seed_from_u64(3), 1.0, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn single_draws_interleaved_with_blocks_keep_the_stream_aligned() {
        use rand::RngCore;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(11);
        let mut reference = StdRng::seed_from_u64(11);
        for len in [0, 1, 3, 4, 5, 127, 128, 129, 300] {
            let single = standard_normal(&mut rng);
            assert_eq!(single.to_bits(), standard_normal(&mut reference).to_bits());
            let block = gaussian_noise(&mut rng, 0.5, len);
            let want: Vec<f32> = (0..len)
                .map(|_| 0.5 * standard_normal(&mut reference))
                .collect();
            assert_eq!(bits(&block), bits(&want), "len {len}");
            let mut added = vec![0.25; len];
            add_gaussian_noise(&mut added, 2.0, &mut rng);
            let want: Vec<f32> = (0..len)
                .map(|_| 0.25 + 2.0 * standard_normal(&mut reference))
                .collect();
            assert_eq!(bits(&added), bits(&want), "len {len}");
        }
        assert_eq!(rng.next_u64(), reference.next_u64());
    }

    #[test]
    fn mix_into_extends_and_adds() {
        let mut a = vec![1.0, 1.0];
        mix_into(&mut a, &[0.5, 0.5, 0.5]);
        assert_eq!(a, vec![1.5, 1.5, 0.5]);
    }

    #[test]
    fn silence_is_zeros() {
        assert!(silence(5).iter().all(|&x| x == 0.0));
    }
}
