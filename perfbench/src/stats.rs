//! Summary statistics for the benchmark's own measurements.
//!
//! Percentiles use the nearest-rank rule: the `q`-th percentile of `n`
//! sorted samples is the sample at rank `ceil(q/100 · n)`, so the number
//! of samples strictly beyond it is `n − rank`. A percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles considered for a tail figure, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Rank (1-based) of the nearest-rank `q`-th percentile among `n`
/// samples. The small offset keeps float noise in `q · n / 100` (e.g.
/// 99.9 % of 10 000 = 9 990.000000000002) from bumping the rank.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the `q`-th percentile of `n` samples.
pub fn beyond(q: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(q, n)
    }
}

/// The nearest-rank `q`-th percentile of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(q, sorted.len()) - 1]
}

/// The highest candidate percentile with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the 75th has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&q| beyond(q, n) >= MIN_BEYOND)
}

/// Median of unsorted samples (mean of the two middle values for an
/// even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Share of attempted operations that failed.
///
/// # Panics
///
/// Panics when nothing was attempted or more failed than were attempted:
/// either is a bug in the caller's bookkeeping.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    assert!(attempted > 0, "no operations attempted");
    assert!(
        failed <= attempted,
        "{failed} failed of {attempted} attempted"
    );
    failed as f64 / attempted as f64
}

/// Share of attempted operations that succeeded (`1 − failed_ratio`).
pub fn ok_ratio(failed: u64, attempted: u64) -> f64 {
    1.0 - failed_ratio(failed, attempted)
}

/// Latency summary of one set of operations.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Mean.
    pub mean: f64,
    /// Highest reportable tail percentile and its value.
    pub tail: Option<(f64, f64)>,
}

impl Latency {
    /// Summarises unsorted samples.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Latency {
            n: sorted.len(),
            p50: median(&sorted),
            mean: mean(&sorted),
            tail: tail_percentile(sorted.len()).map(|q| (q, percentile(&sorted, q))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(beyond(99.0, 100), 1);
        assert_eq!(beyond(90.0, 100), 10);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 needs n − ceil(0.99 n) ≥ 10, i.e. n ≥ 1000.
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(0), None);
        for n in [40, 100, 200, 999, 1000, 1152, 20_000] {
            let q = tail_percentile(n).unwrap();
            assert!(beyond(q, n) >= MIN_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn latency_summary_reports_tail_only_when_valid() {
        let few: Vec<f64> = (0..20).map(f64::from).collect();
        let l = Latency::of(&few);
        assert_eq!(l.n, 20);
        assert_eq!(l.p50, 9.5);
        assert_eq!(l.tail, None);
        let many: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let l = Latency::of(&many);
        assert_eq!(l.tail, Some((99.0, 989.0)));
        assert_eq!(l.mean, 499.5);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn failed_ratio_arithmetic() {
        assert_eq!(failed_ratio(0, 1152), 0.0);
        assert_eq!(failed_ratio(3, 12), 0.25);
        assert_eq!(failed_ratio(7, 7), 1.0);
        assert_eq!(ok_ratio(0, 1152), 1.0);
        assert_eq!(ok_ratio(3, 12), 0.75);
    }

    #[test]
    #[should_panic(expected = "no operations attempted")]
    fn failed_ratio_rejects_zero_attempts() {
        failed_ratio(0, 0);
    }

    #[test]
    #[should_panic(expected = "failed of")]
    fn failed_ratio_rejects_more_failures_than_attempts() {
        failed_ratio(2, 1);
    }
}
