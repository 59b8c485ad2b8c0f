//! Cached frequency-response curves.
//!
//! Every physical stage in the simulation — barrier transmission,
//! loudspeaker and microphone coloration, accelerometer and wearable
//! pickup, the synthesizer's spectral shaping — filters a signal through
//! a gain-vs-frequency closure via
//! [`crate::fft::apply_frequency_response`].
//! The closures are pure functions of a handful of device parameters, yet
//! the seed implementation re-evaluated their transcendental math for
//! every FFT bin on every call.
//!
//! [`ResponseCurve`] samples a gain closure once into a per-`(n_fft,
//! sample_rate)` table; [`filter_cached`] keys those tables in a
//! two-level cache so repeated calls with the same device parameters
//! (the common case — a device struct filtering many signals of similar
//! length) reduce to a table lookup plus the planned real-FFT filter
//! core, with zero per-call allocation of plan or gain state.
//!
//! The cache is a lock-free thread-local front over a process-wide
//! `RwLock` backing store of `Arc` handles. The front absorbs the
//! steady-state lookups; the backing store exists because the eval
//! runner spawns *fresh* scoped worker threads for every
//! `run_with_selector` call, and a purely thread-local cache dies with
//! them — each new worker generation re-sampled every curve from
//! scratch (a 31% miss rate in the PR 7 benchmark snapshot). Now a new
//! thread's first lookup clones the `Arc` out of the shared store
//! instead of re-evaluating the closure per bin.
//!
//! Cache keys are built with [`curve_key`] from a call-site salt plus the
//! parameter values the closure captures. Distinct closures at one call
//! site must use distinct salts.

use crate::fft;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock, RwLock};

/// A gain-vs-frequency curve pre-sampled at the non-negative FFT bin
/// frequencies of one `(n_fft, sample_rate)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseCurve {
    n_fft: usize,
    sample_rate: u32,
    gains: Vec<f32>,
}

impl ResponseCurve {
    /// Samples `gain` (argument: frequency in Hz) at the `n_fft / 2 + 1`
    /// non-negative bin frequencies of an `n_fft`-point FFT at
    /// `sample_rate`.
    ///
    /// # Panics
    ///
    /// Panics if `n_fft` is not a power of two.
    pub fn sample<F: Fn(f32) -> f32>(n_fft: usize, sample_rate: u32, gain: F) -> Self {
        assert!(n_fft.is_power_of_two(), "n_fft must be a power of two");
        let bin_hz = sample_rate as f32 / n_fft as f32;
        let gains = (0..=n_fft / 2).map(|k| gain(k as f32 * bin_hz)).collect();
        ResponseCurve {
            n_fft,
            sample_rate,
            gains,
        }
    }

    /// The FFT length this curve was sampled for.
    pub fn n_fft(&self) -> usize {
        self.n_fft
    }

    /// The sample rate this curve was sampled for.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// The sampled per-bin gains (`n_fft / 2 + 1` entries).
    pub fn gains(&self) -> &[f32] {
        &self.gains
    }

    /// Filters `signal` through this curve: planned real FFT to `n_fft`,
    /// per-bin gain multiply, real inverse, truncated to the input
    /// length. Matches `fft::apply_frequency_response` of the same
    /// closure exactly when `n_fft == next_pow2(signal.len())`.
    ///
    /// # Panics
    ///
    /// Panics if `signal.len() > self.n_fft()`.
    pub fn filter(&self, signal: &[f32]) -> Vec<f32> {
        if signal.is_empty() {
            return Vec::new();
        }
        fft::filter_by_gains(signal, self.n_fft, &self.gains)
    }

    /// Multiplies a half-spectrum (as produced by
    /// [`fft::half_spectrum_into`] at this curve's `n_fft`) by the
    /// sampled per-bin gains, in place. This is the curve applied
    /// *without* its own transform round-trip: fused pipelines take one
    /// forward FFT, chain several curves on the spectrum, and invert
    /// only where a time-domain signal is actually needed.
    ///
    /// # Panics
    ///
    /// Panics if `spec.len()` differs from the table length
    /// (`n_fft / 2 + 1`).
    pub fn apply_to_spectrum(&self, spec: &mut [crate::complex::Complex]) {
        assert_eq!(
            spec.len(),
            self.gains.len(),
            "spectrum bins must match curve table"
        );
        for (v, &g) in spec.iter_mut().zip(&self.gains) {
            *v = v.scale(g);
        }
    }
}

type CurveKey = (u64, usize, u32);

thread_local! {
    static CURVES: RefCell<HashMap<CurveKey, Arc<ResponseCurve>>> = RefCell::new(HashMap::new());
}

/// Process-wide backing store: curves sampled by any thread outlive the
/// short-lived eval worker threads and seed their thread-local fronts.
fn shared_curves() -> &'static RwLock<HashMap<CurveKey, Arc<ResponseCurve>>> {
    static STORE: OnceLock<RwLock<HashMap<CurveKey, Arc<ResponseCurve>>>> = OnceLock::new();
    STORE.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Builds a cache key for [`filter_cached`] from a call-site `salt` and
/// the parameter values the gain closure captures.
///
/// The salt distinguishes different closures that happen to capture the
/// same numbers (pick any constant per call site); the parameters
/// distinguish different device configurations at one call site. Hashing
/// uses the exact bit patterns of the floats, so curves are re-sampled
/// whenever a parameter changes at all.
pub fn curve_key(salt: u64, params: &[f32]) -> u64 {
    let mut h = DefaultHasher::new();
    salt.hash(&mut h);
    for p in params {
        p.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Runs `f` with the cached curve for `(key, n_fft, sample_rate)`,
/// sampling `gain` into a new table on first use.
pub fn with_curve<R>(
    key: u64,
    n_fft: usize,
    sample_rate: u32,
    gain: impl Fn(f32) -> f32,
    f: impl FnOnce(&ResponseCurve) -> R,
) -> R {
    let curve = cached_curve(key, n_fft, sample_rate, gain);
    f(&curve)
}

/// The cached curve for `(key, n_fft, sample_rate)` as a shared handle,
/// sampling `gain` into a new table on first use.
///
/// Unlike [`with_curve`] this hands ownership of the table out of the
/// cache, so a caller can hold **several** curves at once (e.g. the
/// fused conversion engine chaining a speaker curve and a coupling
/// curve over one spectrum) without nesting closures or re-hashing per
/// stage.
pub fn cached_curve(
    key: u64,
    n_fft: usize,
    sample_rate: u32,
    gain: impl Fn(f32) -> f32,
) -> Arc<ResponseCurve> {
    let full_key = (key, n_fft, sample_rate);
    CURVES.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(c) = cache.get(&full_key) {
            thrubarrier_obs::counter!("dsp.response_curve.hit").incr();
            return Arc::clone(c);
        }
        // Thread-local miss: consult the process-wide store before
        // paying the per-bin closure evaluation. Lock poisoning only
        // means another thread panicked mid-access; the map itself is
        // always in a consistent state, so recover the guard.
        let shared = shared_curves();
        if let Some(c) = shared
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&full_key)
        {
            thrubarrier_obs::counter!("dsp.response_curve.shared_hit").incr();
            let c = Arc::clone(c);
            cache.insert(full_key, Arc::clone(&c));
            return c;
        }
        thrubarrier_obs::counter!("dsp.response_curve.miss").incr();
        let c = Arc::new(ResponseCurve::sample(n_fft, sample_rate, gain));
        // Another thread may have sampled the same curve while we did;
        // keep whichever landed first so every thread shares one table.
        let c = Arc::clone(
            shared
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .entry(full_key)
                .or_insert(c),
        );
        cache.insert(full_key, Arc::clone(&c));
        c
    })
}

/// Drop-in cached replacement for
/// [`crate::fft::apply_frequency_response`]:
/// filters `signal` through `gain`, evaluating the closure only the first
/// time a given `(key, padded-length, sample_rate)` combination is seen
/// on this thread.
///
/// `key` must come from [`curve_key`] over every parameter `gain`
/// captures — a stale key silently reuses the wrong curve.
pub fn filter_cached(
    key: u64,
    signal: &[f32],
    sample_rate: u32,
    gain: impl Fn(f32) -> f32,
) -> Vec<f32> {
    if signal.is_empty() {
        return Vec::new();
    }
    let n = fft::next_pow2(signal.len());
    with_curve(key, n, sample_rate, gain, |curve| curve.filter(signal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn cached_filter_matches_direct_apply() {
        let sig = gen::sine(440.0, 0.05, 8_000, 0.8);
        let gain = |f: f32| 1.0 / (1.0 + (f / 1_000.0).powi(2));
        let direct = fft::apply_frequency_response(&sig, 8_000, gain);
        let key = curve_key(0xBEEF, &[1_000.0]);
        for _ in 0..3 {
            let cached = filter_cached(key, &sig, 8_000, gain);
            assert_eq!(cached.len(), direct.len());
            for (a, b) in direct.iter().zip(&cached) {
                assert!((a - b).abs() < 1e-6, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn different_params_produce_different_keys_and_curves() {
        let k1 = curve_key(1, &[500.0]);
        let k2 = curve_key(1, &[501.0]);
        assert_ne!(k1, k2);
        // A broadband impulse separates the two cutoffs.
        let mut sig = vec![0.0_f32; 64];
        sig[0] = 1.0;
        let low = filter_cached(k1, &sig, 8_000, |f| if f < 500.0 { 1.0 } else { 0.0 });
        let high = filter_cached(k2, &sig, 8_000, |f| if f < 4_000.0 { 1.0 } else { 0.0 });
        assert_ne!(low, high);
    }

    #[test]
    fn curve_tables_have_half_spectrum_length() {
        let c = ResponseCurve::sample(256, 16_000, |f| f);
        assert_eq!(c.gains().len(), 129);
        assert_eq!(c.n_fft(), 256);
        assert_eq!(c.sample_rate(), 16_000);
        // Bin k samples the closure at k * fs / n.
        assert!((c.gains()[1] - 62.5).abs() < 1e-3);
    }

    #[test]
    fn curves_survive_thread_death() {
        // The eval runner respawns scoped worker threads per call;
        // a fresh thread must get the already-sampled table from the
        // process-wide store, not re-sample it.
        let key = curve_key(0x5EED, &[123.0]);
        let a = std::thread::spawn(move || cached_curve(key, 256, 16_000, |f| f + 1.0))
            .join()
            .unwrap();
        let b = std::thread::spawn(move || cached_curve(key, 256, 16_000, |f| f + 1.0))
            .join()
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second thread must reuse the table");
    }

    #[test]
    fn empty_signal_short_circuits() {
        assert!(filter_cached(7, &[], 8_000, |_| 1.0).is_empty());
    }

    #[test]
    fn lengths_cache_independently() {
        // Same key, different padded lengths: each gets its own table.
        let gain = |f: f32| (-(f / 2_000.0)).exp();
        let key = curve_key(42, &[2_000.0]);
        let short = vec![0.3_f32; 100]; // pads to 128
        let long = vec![0.3_f32; 1_000]; // pads to 1024
        let a = filter_cached(key, &short, 16_000, gain);
        let b = filter_cached(key, &long, 16_000, gain);
        assert_eq!(a.len(), 100);
        assert_eq!(b.len(), 1_000);
        let direct_b = fft::apply_frequency_response(&long, 16_000, gain);
        for (x, y) in b.iter().zip(&direct_b) {
            assert!((x - y).abs() < 1e-6);
        }
    }
}
