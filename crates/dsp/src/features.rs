//! Scalar spectral features of audio signals.
//!
//! The high-band energy ratio: the single-number descriptor behind the
//! naive "check the high-frequency energy" detector the paper's
//! introduction evaluates and rejects.

use crate::fft;

/// Ratio of spectral energy above `split_hz` to total energy — the
/// naive thru-barrier indicator (barriers strip high frequencies, so a
/// low ratio *suggests* an attack… except for phonemes that never had
/// high-frequency energy, which is exactly why the paper rejects this
/// detector).
pub fn high_band_energy_ratio(signal: &[f32], sample_rate: u32, split_hz: f32) -> f32 {
    let mags = fft::magnitude_spectrum(signal, 1_024);
    let n_fft = (mags.len() - 1) * 2;
    let bin_hz = sample_rate as f32 / n_fft as f32;
    let mut high = 0.0f32;
    let mut total = 0.0f32;
    for (k, &m) in mags.iter().enumerate() {
        let e = m * m;
        total += e;
        if k as f32 * bin_hz >= split_hz {
            high += e;
        }
    }
    if total <= 1e-12 {
        0.0
    } else {
        high / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn high_band_ratio_separates_filtered_signal() {
        let mut rng = StdRng::seed_from_u64(1);
        let wide = gen::gaussian_noise(&mut rng, 0.2, 8_000);
        let low =
            crate::fft::apply_frequency_response(
                &wide,
                16_000,
                |f| {
                    if f < 500.0 {
                        1.0
                    } else {
                        0.0
                    }
                },
            );
        let r_wide = high_band_energy_ratio(&wide, 16_000, 500.0);
        let r_low = high_band_energy_ratio(&low, 16_000, 500.0);
        assert!(r_wide > 0.8, "wide {r_wide}");
        assert!(r_low < 0.1, "low {r_low}");
    }
}
