//! Latency sample collection and summary statistics.
//!
//! The paper reports average latency (Fig 1, Fig 5), average throughput, and
//! 1st–99th percentile ranges (Fig 6's error bars); this module provides
//! exactly those summaries over virtual-time samples.

use bx_hostsim::Nanos;
use std::cell::OnceCell;

/// A collection of per-operation latency samples.
///
/// Percentile queries sort lazily behind a cache, so read-side methods all
/// take `&self`; recording a new sample invalidates the cache.
#[derive(Debug, Clone, Default)]
pub struct LatencySamples {
    samples: Vec<Nanos>,
    sorted: OnceCell<Vec<Nanos>>,
}

impl LatencySamples {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a collection with capacity reserved for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        LatencySamples {
            samples: Vec::with_capacity(n),
            sorted: OnceCell::new(),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: Nanos) {
        self.samples.push(sample);
        self.sorted.take();
    }

    /// The sorted view, built on first use and reused until the next
    /// [`LatencySamples::record`].
    fn sorted(&self) -> &[Nanos] {
        self.sorted.get_or_init(|| {
            let mut v = self.samples.clone();
            v.sort_unstable();
            v
        })
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> Nanos {
        if self.samples.is_empty() {
            return Nanos::ZERO;
        }
        let total: u64 = self.samples.iter().map(|n| n.as_ns()).sum();
        Nanos::from_ns(total / self.samples.len() as u64)
    }

    /// The `p`-th percentile (0.0–100.0) by true nearest-rank: the
    /// `⌈p/100 · n⌉`-th smallest sample (1-based), so `p = 0` is the minimum
    /// and `p = 100` the maximum. Zero when empty.
    ///
    /// Nearest-rank always returns a value that actually occurred; at small
    /// `n` it differs from index-interpolation schemes (e.g. p50 of four
    /// samples is the 2nd smallest, not the 3rd).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside 0.0..=100.0.
    pub fn percentile(&self, p: f64) -> Nanos {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.samples.is_empty() {
            return Nanos::ZERO;
        }
        let sorted = self.sorted();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    }

    /// Smallest sample; zero when empty.
    pub(crate) fn min(&self) -> Nanos {
        self.samples.iter().copied().min().unwrap_or(Nanos::ZERO)
    }

    /// Largest sample; zero when empty.
    pub(crate) fn max(&self) -> Nanos {
        self.samples.iter().copied().max().unwrap_or(Nanos::ZERO)
    }

    /// Operations per second over the observed virtual-time window from
    /// `first_submit` to `last_complete`.
    ///
    /// This is the honest throughput once operations overlap: it divides the
    /// sample count by how long the workload actually took, not by the sum
    /// of per-op latencies. Returns zero when empty or when the window is
    /// degenerate (`last_complete <= first_submit`).
    pub fn throughput_over_window(&self, first_submit: Nanos, last_complete: Nanos) -> f64 {
        let window = last_complete.saturating_sub(first_submit);
        if self.samples.is_empty() || window.is_zero() {
            return 0.0;
        }
        self.samples.len() as f64 / window.as_secs_f64()
    }

    /// Throughput computed as `1 / percentile(p)` — the reciprocal of one
    /// op's p-th percentile latency, used for Fig 6-style error bars.
    ///
    /// Only meaningful for *serialized* execution, where one op occupies the
    /// whole pipeline and per-op latency is the pipeline period. Once ops
    /// overlap (see [`ExecutionModel::Pipelined`][bx_ssd::ExecutionModel]),
    /// this under-reports sustained rate; use
    /// [`LatencySamples::throughput_over_window`] instead.
    pub fn serialized_throughput_at_percentile(&self, p: f64) -> f64 {
        let lat = self.percentile(p);
        if lat.is_zero() {
            return 0.0;
        }
        1.0 / lat.as_secs_f64()
    }

    /// The fixed summary the run reports serialize (count, mean, extremes,
    /// and the paper's p1/p50/p99).
    pub(crate) fn summary(&self) -> Summary {
        Summary {
            count: self.samples.len(),
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p1: self.percentile(1.0),
            p50: self.percentile(50.0),
            p99: self.percentile(99.0),
        }
    }
}

/// Serializes as the fixed `Summary` rather than the raw sample vector —
/// run reports stay small no matter how many operations were measured.
impl serde::Serialize for LatencySamples {
    fn to_value(&self) -> serde::Value {
        self.summary().to_value()
    }
}

/// Fixed-size latency digest of one sample set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub(crate) struct Summary {
    /// Number of samples digested.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: Nanos,
    /// Smallest sample.
    pub min: Nanos,
    /// Largest sample.
    pub max: Nanos,
    /// 1st percentile (nearest rank).
    pub p1: Nanos,
    /// Median.
    pub p50: Nanos,
    /// 99th percentile (nearest rank).
    pub p99: Nanos,
}

impl Extend<Nanos> for LatencySamples {
    fn extend<T: IntoIterator<Item = Nanos>>(&mut self, iter: T) {
        self.samples.extend(iter);
        self.sorted.take();
    }
}

impl FromIterator<Nanos> for LatencySamples {
    fn from_iter<T: IntoIterator<Item = Nanos>>(iter: T) -> Self {
        let mut s = LatencySamples::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(ns: &[u64]) -> LatencySamples {
        ns.iter().copied().map(Nanos::from_ns).collect()
    }

    #[test]
    fn mean_and_extremes() {
        let s = samples(&[10, 20, 30, 40]);
        assert_eq!(s.mean(), Nanos::from_ns(25));
        assert_eq!(s.min(), Nanos::from_ns(10));
        assert_eq!(s.max(), Nanos::from_ns(40));
    }

    #[test]
    fn percentiles_by_shared_ref() {
        let s = samples(&(1..=100).collect::<Vec<_>>());
        assert_eq!(s.percentile(0.0), Nanos::from_ns(1));
        assert_eq!(s.percentile(50.0), Nanos::from_ns(50)); // ⌈0.50·100⌉ = rank 50
        assert_eq!(s.percentile(100.0), Nanos::from_ns(100));
        assert_eq!(s.percentile(99.0), Nanos::from_ns(99));
        assert_eq!(s.percentile(1.0), Nanos::from_ns(1)); // ⌈0.01·100⌉ = rank 1
    }

    #[test]
    fn nearest_rank_small_n_regressions() {
        // Cases where true nearest-rank (⌈p/100·n⌉) disagrees with the old
        // `round(p/100·(n-1))` indexing; pinned so the fix can't regress.
        let s = samples(&[10, 20, 30, 40]);
        assert_eq!(s.percentile(50.0), Nanos::from_ns(20)); // old code: 30
        assert_eq!(s.percentile(25.0), Nanos::from_ns(10)); // old code: 20
        assert_eq!(s.percentile(75.0), Nanos::from_ns(30));
        assert_eq!(s.percentile(100.0), Nanos::from_ns(40));

        let s = samples(&[10, 20]);
        assert_eq!(s.percentile(50.0), Nanos::from_ns(10)); // old code: 20

        // A single sample answers every percentile with itself.
        let s = samples(&[42]);
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(s.percentile(p), Nanos::from_ns(42));
        }
    }

    #[test]
    fn percentile_unsorted_input() {
        let s = samples(&[5, 1, 9, 3, 7]);
        assert_eq!(s.percentile(0.0), Nanos::from_ns(1));
        assert_eq!(s.percentile(100.0), Nanos::from_ns(9));
    }

    #[test]
    fn recording_invalidates_the_sorted_cache() {
        let mut s = samples(&[10, 20, 30]);
        assert_eq!(s.percentile(100.0), Nanos::from_ns(30));
        s.record(Nanos::from_ns(5));
        assert_eq!(s.percentile(0.0), Nanos::from_ns(5));
        assert_eq!(s.percentile(100.0), Nanos::from_ns(30));
    }

    #[test]
    fn empty_is_safe() {
        let s = LatencySamples::new();
        assert_eq!(s.mean(), Nanos::ZERO);
        assert_eq!(s.percentile(50.0), Nanos::ZERO);
        let summary = s.summary();
        assert_eq!(summary.count, 0);
        assert_eq!(summary.p99, Nanos::ZERO);
    }

    #[test]
    fn throughput_over_window_counts_overlap() {
        // 4 ops of 1 ms each, overlapped into a 2 ms window: 2000 ops/s
        // where back-to-back execution would give 1000.
        let s = samples(&[1_000_000; 4]);
        let t0 = Nanos::ZERO;
        let t1 = Nanos::from_ms(2);
        assert!((s.throughput_over_window(t0, t1) - 2000.0).abs() < 1e-6);
        // Degenerate windows and empty sets are safe zeros.
        assert_eq!(s.throughput_over_window(t1, t1), 0.0);
        assert_eq!(s.throughput_over_window(t1, t0), 0.0);
        assert_eq!(LatencySamples::new().throughput_over_window(t0, t1), 0.0);
    }

    #[test]
    fn serialized_percentile_throughput_is_reciprocal_latency() {
        let s = samples(&[1_000_000, 2_000_000]);
        // p99 → the 2 ms sample → 500 ops/s.
        assert!((s.serialized_throughput_at_percentile(99.0) - 500.0).abs() < 1e-6);
        assert_eq!(
            LatencySamples::new().serialized_throughput_at_percentile(99.0),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_percentile_panics() {
        samples(&[1]).percentile(101.0);
    }

    #[test]
    fn summary_matches_point_queries() {
        let s = samples(&(1..=100).collect::<Vec<_>>());
        let d = s.summary();
        assert_eq!(d.count, 100);
        assert_eq!(d.mean, s.mean());
        assert_eq!(d.min, Nanos::from_ns(1));
        assert_eq!(d.max, Nanos::from_ns(100));
        assert_eq!(d.p1, Nanos::from_ns(1));
        assert_eq!(d.p50, Nanos::from_ns(50));
        assert_eq!(d.p99, Nanos::from_ns(99));
    }

    #[test]
    fn serializes_as_summary() {
        use serde::Serialize;
        let s = samples(&[10, 20]);
        let v = s.to_value();
        assert_eq!(v.get("count").and_then(|c| c.as_u64()), Some(2));
        assert!(v.get("p50").is_some());
    }
}
