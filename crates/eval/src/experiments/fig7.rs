//! Fig. 7: vibration response of the wearable's accelerometer to a
//! 500–2500 Hz audio chirp — the strong 0–5 Hz sensitivity artifact that
//! motivates the spectrogram crop.

use crate::experiments::fig3::band_mean;
use crate::report::Row;
use rand::rngs::StdRng;
use rand::SeedableRng;
use thrubarrier_vibration::chirp::{chirp_response, ChirpResponse};
use thrubarrier_vibration::Wearable;

/// Configuration for the chirp-response experiment.
#[derive(Debug, Clone)]
pub struct ChirpStudyConfig {
    /// Master seed.
    pub seed: u64,
    /// Chirp start frequency in Hz (paper: 500).
    pub f0: f32,
    /// Chirp end frequency in Hz (paper: 2500).
    pub f1: f32,
    /// Chirp duration in seconds.
    pub duration_s: f32,
    /// Chirp amplitude (digital full scale).
    pub amplitude: f32,
}

impl Default for ChirpStudyConfig {
    fn default() -> Self {
        ChirpStudyConfig {
            seed: 0xF7,
            f0: 500.0,
            f1: 2_500.0,
            duration_s: 4.0,
            amplitude: 0.2,
        }
    }
}

/// Result of the chirp study.
#[derive(Debug, Clone)]
pub struct ChirpStudy {
    /// The captured response.
    pub response: ChirpResponse,
    /// Master seed of the run.
    pub seed: u64,
}

/// Runs the Fig. 7 experiment on a Fossil Gen 5.
pub fn run(cfg: &ChirpStudyConfig) -> ChirpStudy {
    let wearable = Wearable::fossil_gen_5();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let response = chirp_response(
        &wearable,
        cfg.f0,
        cfg.f1,
        cfg.duration_s,
        cfg.amplitude,
        &mut rng,
    );
    ChirpStudy {
        response,
        seed: cfg.seed,
    }
}

impl ChirpStudy {
    /// Rows of the response's mean band power (0–5 and 5–100 Hz) and
    /// their ratio, then the spectrogram's mean power per band.
    pub fn rows(&self) -> Vec<Row> {
        let r = &self.response;
        let row = |condition: &str| Row::new("fig7", self.seed, condition, "");
        let mut rows = vec![
            row("0–5 Hz").metric("power", r.low_band_power),
            row("5–100 Hz").metric("power", r.rest_band_power),
            row("0–5 Hz over 5–100 Hz").metric(
                "power_ratio",
                r.low_band_power / r.rest_band_power.max(1e-12),
            ),
        ];
        let mean = r.spectrogram.mean_per_bin();
        let freqs: Vec<f32> = (0..mean.len())
            .map(|b| r.spectrogram.bin_frequency(b))
            .collect();
        for (lo, hi) in [
            (0.0, 5.0),
            (5.0, 25.0),
            (25.0, 50.0),
            (50.0, 75.0),
            (75.0, 100.1),
        ] {
            let avg = band_mean(&freqs, &mean, lo, hi);
            rows.push(row(&format!("{lo:.0}–{hi:.0} Hz")).metric("spectrogram_power", avg));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_band_dominates() {
        let study = run(&ChirpStudyConfig::default());
        assert!(
            study.response.low_band_power > 5.0 * study.response.rest_band_power,
            "low {} rest {}",
            study.response.low_band_power,
            study.response.rest_band_power
        );
        assert!(study.rows().iter().any(|r| r.metric == "power_ratio"));
    }
}
