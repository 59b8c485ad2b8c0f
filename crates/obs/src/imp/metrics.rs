//! Lock-free metric primitives: counters, gauges, log2-bucketed
//! histograms.
//!
//! Counters and histograms are **sharded**: each holds [`SHARDS`]
//! cache-line-aligned stripes and every recording thread writes only its
//! own stripe, picked once per thread and cached in a thread-local.
//! Under the eval worker pool every thread used to
//! bounce the same cache line on each `fetch_add` (the FFT-plan hit
//! counter alone takes ~430 k increments per bench run across all
//! workers); with striping the hot path is an uncontended relaxed RMW on
//! a line no other thread touches. Reads (`get`, `count`, quantiles) are
//! snapshot-time only and aggregate across stripes. Gauges stay a single
//! atomic: `set` has overwrite semantics that striping cannot preserve,
//! and gauges are written at low rate (once per eval run).

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Stripe count for sharded counters and histograms (power of two).
/// Threads hash onto stripes round-robin, so up to this many recording
/// threads write contention-free; beyond it stripes are shared but
/// still `SHARDS`× less contended than one atomic.
const SHARDS: usize = 16;

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe index, assigned round-robin on first record.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's stripe, assigned once and cached thread-locally.
#[inline]
fn stripe() -> usize {
    STRIPE.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
        s.set(v);
        v
    })
}

/// One counter stripe, padded to a cache line so neighbouring stripes
/// never false-share.
#[repr(align(64))]
#[derive(Debug)]
struct CounterShard(AtomicU64);

/// A monotonically increasing event tally (sharded; see module docs).
#[derive(Debug)]
pub struct Counter {
    shards: [CounterShard; SHARDS],
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

impl Counter {
    pub(crate) const fn new() -> Self {
        Counter {
            // A `const` block repeats per array element, sidestepping
            // the missing `Copy` on atomics.
            shards: [const { CounterShard(AtomicU64::new(0)) }; SHARDS],
        }
    }

    /// Adds `n` to the calling thread's stripe (relaxed; no-op while
    /// recording is disabled).
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if super::enabled() {
            self.shards[stripe()].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline(always)]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value: the sum over all stripes.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    pub(crate) fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }

    /// The sink all macro call sites collapse to in uninstrumented
    /// builds ([`crate::COMPILED`] = `false`); never registered.
    pub fn noop() -> &'static Counter {
        static NOOP: Counter = Counter::new();
        &NOOP
    }
}

/// A signed level that moves both ways (queue depths, in-flight work).
/// Deliberately unsharded — see the module docs.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub(crate) const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Adds `delta` (may be negative).
    #[inline(always)]
    pub fn add(&self, delta: i64) {
        if super::enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline(always)]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline(always)]
    pub fn decr(&self) {
        self.add(-1);
    }

    /// Overwrites the level.
    #[inline(always)]
    pub fn set(&self, value: i64) {
        if super::enabled() {
            self.value.store(value, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }

    /// See [`Counter::noop`].
    pub fn noop() -> &'static Gauge {
        static NOOP: Gauge = Gauge::new();
        &NOOP
    }
}

const BUCKETS: usize = 64;

/// One histogram stripe: a full bucket array plus count/sum/max, all
/// written only by the threads mapped to this stripe. Aligned so
/// stripes start on distinct cache lines.
#[repr(align(64))]
#[derive(Debug)]
struct HistShard {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistShard {
    const fn new() -> Self {
        HistShard {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A log2-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, batch sizes, queue lengths), sharded per thread stripe.
///
/// Bucket `0` holds the value `0`; bucket `i > 0` holds values in
/// `[2^(i-1), 2^i)`. Quantiles interpolate linearly inside the bucket
/// they land in (midpoint-rank convention) and are clamped to the
/// tracked exact maximum, so they are far tighter than the bucket's
/// factor of two on smooth distributions while `record` stays three
/// relaxed atomic RMWs on a thread-private stripe — no locking, no
/// allocation, no cross-thread cache-line traffic.
#[derive(Debug)]
pub struct Histogram {
    shards: [HistShard; SHARDS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub(crate) const fn new() -> Self {
        Histogram {
            shards: [const { HistShard::new() }; SHARDS],
        }
    }

    /// Index of the bucket holding `value`.
    #[inline]
    fn bucket_of(value: u64) -> usize {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Records one sample into the calling thread's stripe (no-op while
    /// recording is disabled).
    #[inline]
    pub fn record(&self, value: u64) {
        if !super::enabled() {
            return;
        }
        let shard = &self.shards[stripe()];
        shard.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
        shard.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of samples recorded (summed over stripes).
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.sum.load(Ordering::Relaxed))
            .sum()
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.max.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum() as f64 / n as f64
    }

    /// The bucket array aggregated across stripes (snapshot-time only).
    fn merged_buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for shard in &self.shards {
            for (slot, b) in out.iter_mut().zip(&shard.buckets) {
                *slot += b.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Approximate quantile `q` in `[0, 1]`, interpolated within the
    /// log2 bucket the rank lands in: with `c0` samples below the
    /// bucket and `bc` inside it, the rank's position is taken as
    /// `(rank − c0 − ½) / bc` of the bucket's width above its lower
    /// bound (midpoint convention, so a bucket's lone sample reads as
    /// its centre rather than its upper edge). `q = 1` returns the
    /// exact tracked maximum, and every result is clamped to it. On a
    /// distribution spread smoothly across buckets the estimate is
    /// within a few percent; the worst case (all samples piled at one
    /// edge of one bucket) stays bounded by the bucket's factor of two,
    /// which the old upper-bound rule hit routinely on narrow
    /// distributions.
    pub fn quantile(&self, q: f64) -> u64 {
        let buckets = self.merged_buckets();
        let n: u64 = buckets.iter().sum();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        if rank >= n {
            return self.max();
        }
        let mut seen = 0u64;
        for (i, &bc) in buckets.iter().enumerate() {
            if bc == 0 {
                continue;
            }
            if seen + bc >= rank {
                if i == 0 {
                    return 0;
                }
                let lower = 1u64 << (i - 1);
                let width = lower as f64; // upper − lower = 2^(i−1)
                let pos = ((rank - seen) as f64 - 0.5) / bc as f64;
                let value = lower as f64 + pos * width;
                return (value as u64).min(self.max());
            }
            seen += bc;
        }
        self.max()
    }

    pub(crate) fn reset(&self) {
        for shard in &self.shards {
            shard.reset();
        }
    }

    /// See [`Counter::noop`].
    pub fn noop() -> &'static Histogram {
        static NOOP: Histogram = Histogram::new();
        &NOOP
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_count_sum_max_and_quantiles() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.max(), 1000);
        // p50 (rank 3) lands in the bucket [2, 4) holding {2, 3}: the
        // interpolated estimate is 2 + (3−1−½)/2 · 2 = 3.5 → 3, where
        // the old upper-bound rule said 4.
        assert_eq!(h.quantile(0.5), 3);
        // p100 is the exact tracked max, not a bucket bound.
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn quantile_interpolates_within_log2_buckets() {
        // Uniform 0..1024: every estimate should sit within a few
        // percent of the true order statistic instead of at the bucket's
        // upper power of two (the old rule put p90 at 1024; truth 921).
        let h = Histogram::new();
        for v in 0..1024u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((490..=525).contains(&p50), "p50 {p50}");
        let p90 = h.quantile(0.9);
        assert!((900..=940).contains(&p90), "p90 {p90}");
        let p99 = h.quantile(0.99);
        assert!((1000..=1023).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn quantile_is_clamped_to_the_true_max_on_narrow_distributions() {
        // 99 samples at 520 plus one outlier: p50 must stay near 520
        // (inside the [512, 1024) bucket), never at the bucket's 1024
        // upper bound.
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(520);
        }
        h.record(5_000);
        let p50 = h.quantile(0.5);
        assert!(p50 < 1024, "p50 {p50} escaped the bucket");
        assert!(h.quantile(1.0) == 5_000);
    }

    #[test]
    fn counter_and_gauge_move_as_told() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.incr();
        g.incr();
        g.decr();
        assert_eq!(g.get(), 1);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn sharded_totals_match_across_threads() {
        // Eight threads hammer one counter and one histogram; the
        // aggregated totals must equal the serial arithmetic exactly.
        let c = Counter::new();
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let c = &c;
                let h = &h;
                scope.spawn(move || {
                    for i in 0..1_000u64 {
                        c.add(t + 1);
                        h.record(t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(c.get(), (1..=8u64).sum::<u64>() * 1_000);
        assert_eq!(h.count(), 8_000);
        let expected_sum: u64 = (0..8u64)
            .map(|t| (0..1_000u64).map(|i| t * 1_000 + i).sum::<u64>())
            .sum();
        assert_eq!(h.sum(), expected_sum);
        assert_eq!(h.max(), 7_999);
    }
}
