//! Host-speed reference.
//!
//! The benchmark host is shared: the same work takes up to 40% longer
//! from one minute to the next while the process is on-CPU the whole
//! time (no run-queue wait, no steal), so raw medians of two sets of
//! runs disagree by more than any useful bound. The benchmark therefore
//! interleaves a fixed reference computation of its own — a complex FFT
//! written here, so no change to the program can alter it — with the
//! measured work, spending a fixed share of the measuring time on it,
//! and scales every reported time by `NOMINAL_MS / median(reference)`.
//! Reported times are thus what the work would take on a host where the
//! reference takes exactly [`NOMINAL_MS`]; the raw figures and the
//! reference median go into the detailed report.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// Reference time that defines the nominal host, milliseconds.
pub const NOMINAL_MS: f64 = 10.0;

/// Share of measured time spent on reference samples.
const SHARE: f64 = 0.1;

/// Transform size and passes of one reference sample.
const FFT_N: usize = 4096;
const PASSES: usize = 36;

/// One reference sample: `PASSES` in-place radix-2 complex FFTs of
/// `FFT_N` points with twiddles computed on the fly. Returns a value
/// derived from the output so the work cannot be elided.
fn reference_work() -> f32 {
    let n = black_box(FFT_N);
    let mut re: Vec<f32> = (0..n).map(|i| ((i * 7919) % 101) as f32 * 0.01).collect();
    let mut im = vec![0.0f32; n];
    let mut out = 0.0;
    for _ in 0..PASSES {
        let mut j = 0;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let step = -2.0 * std::f32::consts::PI / len as f32;
            for start in (0..n).step_by(len) {
                for k in 0..len / 2 {
                    let (wi, wr) = (step * k as f32).sin_cos();
                    let (a, b) = (start + k, start + k + len / 2);
                    let xr = re[b] * wr - im[b] * wi;
                    let xi = re[b] * wi + im[b] * wr;
                    re[b] = re[a] - xr;
                    im[b] = im[a] - xi;
                    re[a] += xr;
                    im[a] += xi;
                }
            }
            len <<= 1;
        }
        out += re[1];
        let scale = 1.0 / 64.0;
        re.iter_mut().chain(im.iter_mut()).for_each(|v| *v *= scale);
    }
    out
}

/// Samples the host's speed alongside measured work.
#[derive(Debug, Default)]
pub struct Speedometer {
    samples_ms: Vec<f64>,
    debt_ms: f64,
}

impl Speedometer {
    /// Accounts for `busy_ms` of measured work, running reference
    /// samples until they have taken their share of the time.
    pub fn after(&mut self, busy_ms: f64) {
        self.debt_ms += SHARE * busy_ms;
        while self.debt_ms > 0.0 {
            let t = Instant::now();
            black_box(reference_work());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            self.samples_ms.push(ms);
            self.debt_ms -= ms;
        }
    }

    /// Median reference time, milliseconds.
    pub fn reference_ms(&self) -> f64 {
        stats::median(&self.samples_ms)
    }

    /// Reference samples taken.
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// Factor that turns a raw time into a nominal-host time.
    pub fn time_factor(&self) -> f64 {
        NOMINAL_MS / self.reference_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic() {
        assert_eq!(reference_work().to_bits(), reference_work().to_bits());
    }

    #[test]
    fn speedometer_spends_its_share() {
        let mut s = Speedometer::default();
        s.after(0.0);
        assert_eq!(s.samples(), 0);
        s.after(1.0);
        assert_eq!(s.samples(), 1);
        assert!(s.reference_ms() > 0.0);
        assert!((s.time_factor() * s.reference_ms() - NOMINAL_MS).abs() < 1e-9);
    }
}
