//! Latency distributions.
//!
//! Averages hide the structure of OS service times: a fault that only
//! repairs one TLB entry costs microseconds, one that evicts a dirty
//! page and reloads costs tens. [`LatencyHistogram`] keeps every
//! [`SimTime`] sample it records and answers percentile queries with
//! [`percentile`], so reports can state "p50 fault service 38 µs, p99
//! 142 µs" instead of a single mean, and each figure is a sample that
//! was observed.

use core::fmt;

use crate::time::SimTime;

/// Nearest-rank percentile of `samples`: the smallest sample such that
/// at least a `q` fraction (0.0–1.0) of them are at most it. Always an
/// observed value, never an interpolation (zero when there are none).
///
/// # Panics
///
/// Panics if `q` is outside `0.0..=1.0`.
///
/// # Examples
///
/// ```
/// use vcop_sim::histogram::percentile;
/// use vcop_sim::time::SimTime;
///
/// let samples = [30, 10, 20].map(SimTime::from_us);
/// assert_eq!(percentile(&samples, 0.5), SimTime::from_us(20));
/// assert_eq!(percentile(&samples, 0.99), SimTime::from_us(30));
/// assert_eq!(percentile(&[], 0.5), SimTime::ZERO);
/// ```
pub fn percentile(samples: &[SimTime], q: f64) -> SimTime {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    match sorted.len() {
        0 => SimTime::ZERO,
        n => sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// The [`SimTime`] samples of one distribution, kept as observed.
///
/// # Examples
///
/// ```
/// use vcop_sim::histogram::LatencyHistogram;
/// use vcop_sim::time::SimTime;
///
/// let mut h = LatencyHistogram::new();
/// for us in [10u64, 12, 14, 100] {
///     h.record(SimTime::from_us(us));
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.percentile(0.50), SimTime::from_us(12));
/// assert_eq!(h.percentile(0.99), SimTime::from_us(100));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    samples: Vec<SimTime>,
}

impl LatencyHistogram {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, t: SimTime) {
        self.samples.push(t);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> SimTime {
        self.samples.iter().copied().sum()
    }

    /// Mean sample (zero when empty).
    pub fn mean(&self) -> SimTime {
        if self.is_empty() {
            SimTime::ZERO
        } else {
            self.sum() / self.count()
        }
    }

    /// Smallest recorded sample (zero when empty).
    pub fn min(&self) -> SimTime {
        self.samples.iter().copied().min().unwrap_or(SimTime::ZERO)
    }

    /// Largest recorded sample (zero when empty).
    pub fn max(&self) -> SimTime {
        self.samples.iter().copied().max().unwrap_or(SimTime::ZERO)
    }

    /// The nearest-rank `q`-quantile (0.0–1.0) of the recorded samples;
    /// see [`percentile`].
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn percentile(&self, q: f64) -> SimTime {
        percentile(&self.samples, q)
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "(no samples)");
        }
        write!(
            f,
            "n={} min={} p50={} p90={} p99={} max={} mean={}",
            self.count(),
            self.min(),
            self.percentile(0.50),
            self.percentile(0.90),
            self.percentile(0.99),
            self.max(),
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimTime::ZERO);
        assert_eq!(h.max(), SimTime::ZERO);
        assert_eq!(h.percentile(0.5), SimTime::ZERO);
        assert_eq!(h.to_string(), "(no samples)");
    }

    #[test]
    fn single_sample_statistics() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_us(7));
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), SimTime::from_us(7));
        assert_eq!(h.min(), SimTime::from_us(7));
        assert_eq!(h.max(), SimTime::from_us(7));
        assert_eq!(h.percentile(1.0), SimTime::from_us(7));
        assert_eq!(h.percentile(0.5), SimTime::from_us(7));
    }

    #[test]
    fn percentiles_are_monotonic() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(SimTime::from_ns(i));
        }
        let mut last = SimTime::ZERO;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let p = h.percentile(q);
            assert!(p >= last, "q={q}");
            last = p;
        }
        assert_eq!(h.percentile(0.5), SimTime::from_ns(500));
        assert_eq!(h.percentile(1.0), SimTime::from_ns(1000));
    }

    #[test]
    fn heavy_tail_is_visible() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(SimTime::from_us(10));
        }
        h.record(SimTime::from_ms(5));
        assert_eq!(h.percentile(0.5), SimTime::from_us(10));
        assert_eq!(h.percentile(0.99), SimTime::from_us(10));
        assert_eq!(h.percentile(1.0), SimTime::from_ms(5));
        assert!(h.mean() > SimTime::from_us(55));
    }

    #[test]
    fn zero_sample_is_recorded() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), SimTime::ZERO);
    }

    #[test]
    fn nearest_rank_picks_observed_samples_in_any_order() {
        let samples = [40, 10, 30, 20].map(SimTime::from_us);
        assert_eq!(percentile(&samples, 0.0), SimTime::from_us(10));
        assert_eq!(percentile(&samples, 0.25), SimTime::from_us(10));
        assert_eq!(percentile(&samples, 0.26), SimTime::from_us(20));
        assert_eq!(percentile(&samples, 0.5), SimTime::from_us(20));
        assert_eq!(percentile(&samples, 1.0), SimTime::from_us(40));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn bad_quantile_panics() {
        let h = LatencyHistogram::new();
        let _ = h.percentile(1.5);
    }

    #[test]
    fn display_contains_percentiles() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_us(10));
        h.record(SimTime::from_us(20));
        let s = h.to_string();
        assert!(s.contains("n=2"));
        assert!(s.contains("p99"));
    }
}
