//! Label-aware metrics: counters and log2-bucketed histograms keyed by
//! `{queue, method, opcode}`.

use crate::event::Event;
use crate::span::reconstruct_spans;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A log2-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// Bucket `i` holds samples whose value `v` satisfies `floor(log2(v)) == i`
/// (`v == 0` lands in bucket 0), i.e. `v` in `[2^i, 2^(i+1))`. 64 buckets
/// cover the whole `u64` range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub(crate) fn new() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    pub(crate) fn record(&mut self, value: u64) {
        // Saturating like `sum`: a counter pinned at u64::MAX beats a
        // panic (or a wrapped-to-zero lie) in release-mode accounting.
        let b = &mut self.buckets[Self::bucket_of(value)];
        *b = b.saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    pub(crate) fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    pub(crate) fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(lower_bound, upper_bound_inclusive, count)`.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| {
                let lo = if i == 0 { 0 } else { 1u64 << i };
                let hi = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                (lo, hi, n)
            })
    }

    /// Upper bound of the bucket containing the `p`-th percentile sample;
    /// `None` when empty. Resolution is a factor of 2 — good enough for
    /// dashboards, not for paper tables.
    ///
    /// Uses the same 1-based nearest-rank definition as
    /// `LatencySamples::percentile` (`rank = ⌈p/100 · n⌉`, clamped to
    /// `[1, n]`), so the histogram bound always brackets the exact sample
    /// percentile from above.
    pub(crate) fn percentile_upper_bound(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (((p / 100.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if n > 0 && seen >= rank {
                return Some(if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                });
            }
        }
        Some(u64::MAX)
    }
}

impl Serialize for Histogram {
    fn to_value(&self) -> Value {
        Value::object([
            ("count", self.count.to_value()),
            ("sum", self.sum.to_value()),
            ("min", self.min().to_value()),
            ("max", self.max().to_value()),
            ("mean", self.mean().to_value()),
            (
                "buckets",
                Value::array(self.buckets().map(|(lo, hi, n)| {
                    Value::object([
                        ("lo", lo.to_value()),
                        ("hi", hi.to_value()),
                        ("count", n.to_value()),
                    ])
                })),
            ),
        ])
    }
}

/// The label triple every metric is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct LabelSet {
    pub queue: u16,
    pub method: &'static str,
    pub opcode: u8,
}

impl fmt::Display for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{queue={}, method={}, opcode={:#04x}}}",
            self.queue, self.method, self.opcode
        )
    }
}

impl Serialize for LabelSet {
    fn to_value(&self) -> Value {
        Value::object([
            ("queue", self.queue.to_value()),
            ("method", self.method.to_value()),
            ("opcode", self.opcode.to_value()),
        ])
    }
}

/// A registry of named counters and histograms, each keyed by a `LabelSet`.
///
/// Built offline from a recorded event stream ([`MetricsRegistry::from_events`])
/// so the recording hot path stays a plain `Vec` push.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<(&'static str, LabelSet), u64>,
    histograms: BTreeMap<(&'static str, LabelSet), Histogram>,
}

impl MetricsRegistry {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn inc(&mut self, name: &'static str, labels: LabelSet, by: u64) {
        let c = self.counters.entry((name, labels)).or_insert(0);
        *c = c.saturating_add(by);
    }

    pub(crate) fn observe(&mut self, name: &'static str, labels: LabelSet, value: u64) {
        self.histograms
            .entry((name, labels))
            .or_default()
            .record(value);
    }

    /// Sum of a counter across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| v)
            .sum()
    }

    pub(crate) fn counters(&self) -> impl Iterator<Item = (&'static str, LabelSet, u64)> + '_ {
        self.counters.iter().map(|(&(n, l), &v)| (n, l, v))
    }

    pub(crate) fn histograms(
        &self,
    ) -> impl Iterator<Item = (&'static str, LabelSet, &Histogram)> + '_ {
        self.histograms.iter().map(|(&(n, l), h)| (n, l, h))
    }

    /// Derives the standard command metrics from an event stream:
    ///
    /// - `commands_submitted` / `commands_completed` / `commands_reaped`
    /// - `payload_bytes`
    /// - `cmd_latency_ns` histogram (submit → driver-consume, complete spans)
    pub fn from_events(events: &[Event]) -> Self {
        let mut reg = Self::new();
        let spans = reconstruct_spans(events);
        for span in &spans {
            let labels = LabelSet {
                queue: span.key.qid,
                method: span.method,
                opcode: span.opcode,
            };
            reg.inc("commands_submitted", labels, 1);
            reg.inc("payload_bytes", labels, span.len as u64);
            if span.reaped {
                reg.inc("commands_reaped", labels, 1);
            }
            if span.is_complete() {
                reg.inc("commands_completed", labels, 1);
                if let Some(lat) = span.latency() {
                    reg.observe("cmd_latency_ns", labels, lat.as_ns());
                }
            }
        }
        reg
    }
}

impl Serialize for MetricsRegistry {
    fn to_value(&self) -> Value {
        Value::object([
            (
                "counters",
                Value::array(self.counters().map(|(name, labels, value)| {
                    Value::object([
                        ("name", name.to_value()),
                        ("labels", labels.to_value()),
                        ("value", value.to_value()),
                    ])
                })),
            ),
            (
                "histograms",
                Value::array(self.histograms().map(|(name, labels, hist)| {
                    Value::object([
                        ("name", name.to_value()),
                        ("labels", labels.to_value()),
                        ("histogram", hist.to_value()),
                    ])
                })),
            ),
        ])
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, labels, value) in self.counters() {
            writeln!(f, "{name}{labels} = {value}")?;
        }
        for (name, labels, hist) in self.histograms() {
            writeln!(
                f,
                "{name}{labels}: n={} mean={:.0} p50<={} p99<={}",
                hist.count(),
                hist.mean(),
                hist.percentile_upper_bound(50.0).unwrap_or(0),
                hist.percentile_upper_bound(99.0).unwrap_or(0),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CmdKey, EventKind};
    use bx_hostsim::Nanos;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1023, 1024] {
            h.record(v);
        }
        let buckets: Vec<_> = h.buckets().collect();
        // 0,1 → bucket 0 ([0,1]); 2,3 → [2,3]; 4 → [4,7]; 1023 → [512,1023];
        // 1024 → [1024,2047].
        assert_eq!(
            buckets,
            vec![
                (0, 1, 2),
                (2, 3, 2),
                (4, 7, 1),
                (512, 1023, 1),
                (1024, 2047, 1)
            ]
        );
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1024));
    }

    #[test]
    fn percentile_bound_walks_cumulative_counts() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10); // bucket [8,15]
        }
        h.record(1 << 20); // one outlier
        assert_eq!(h.percentile_upper_bound(50.0), Some(15));
        assert_eq!(h.percentile_upper_bound(99.9), Some((1 << 21) - 1));
        assert_eq!(Histogram::new().percentile_upper_bound(50.0), None);
    }

    #[test]
    fn percentile_rank_matches_nearest_rank_at_small_n() {
        // The definition must agree with LatencySamples::percentile:
        // rank = ceil(p/100 * n), 1-based, clamped to [1, n]. Expectations
        // are the log2-bucket upper bounds of the exact nearest-rank sample.
        let of = |values: &[u64], p: f64| {
            let mut h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            h.percentile_upper_bound(p).unwrap()
        };
        // n = 1: every percentile is the lone sample's bucket.
        for p in [50.0, 99.0, 99.9] {
            assert_eq!(of(&[10], p), 15);
        }
        // n = 2: p50 → rank 1 (10 → [8,15]); p99/p99.9 → rank 2 (100 → [64,127]).
        assert_eq!(of(&[10, 100], 50.0), 15);
        assert_eq!(of(&[10, 100], 99.0), 127);
        assert_eq!(of(&[10, 100], 99.9), 127);
        // n = 3: p50 → rank 2 (100); p99/p99.9 → rank 3 (1000 → [512,1023]).
        assert_eq!(of(&[10, 100, 1000], 50.0), 127);
        assert_eq!(of(&[10, 100, 1000], 99.0), 1023);
        assert_eq!(of(&[10, 100, 1000], 99.9), 1023);
        // n = 100 over 1..=100: p50 → rank 50 (50 → [32,63]); p99 → rank 99
        // (99 → [64,127]); p99.9 → rank 100 (100 → [64,127]).
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(of(&hundred, 50.0), 63);
        assert_eq!(of(&hundred, 99.0), 127);
        assert_eq!(of(&hundred, 99.9), 127);
    }

    #[test]
    fn counter_arithmetic_saturates_at_u64_max() {
        let labels = LabelSet {
            queue: 0,
            method: "prp",
            opcode: 0,
        };
        let mut reg = MetricsRegistry::new();
        reg.inc("c", labels, u64::MAX);
        reg.inc("c", labels, u64::MAX);
        assert_eq!(reg.counters[&("c", labels)], u64::MAX);

        let mut h = Histogram::new();
        h.record(u64::MAX); // sample at the top of the range: bucket 63
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum, u64::MAX); // saturated, not wrapped
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.percentile_upper_bound(99.0), Some(u64::MAX));
    }

    #[test]
    fn from_events_builds_labelled_metrics() {
        let key = CmdKey::new(1, 0);
        let mk = |at: u64, kind: EventKind| Event {
            at: Nanos::from_ns(at),
            cmd: Some(key),
            kind,
        };
        let events = vec![
            mk(
                0,
                EventKind::SqeInsert {
                    method: "ByteExpress",
                    opcode: 0x01,
                    len: 64,
                },
            ),
            mk(10, EventKind::SqeFetch { opcode: 0x01 }),
            mk(900, EventKind::CqePost { status: 0 }),
            mk(1000, EventKind::CompletionConsumed { status: 0 }),
        ];
        let reg = MetricsRegistry::from_events(&events);
        let labels = LabelSet {
            queue: 1,
            method: "ByteExpress",
            opcode: 0x01,
        };
        assert_eq!(reg.counters[&("commands_submitted", labels)], 1);
        assert_eq!(reg.counters[&("commands_completed", labels)], 1);
        assert_eq!(reg.counters[&("payload_bytes", labels)], 64);
        let h = &reg.histograms[&("cmd_latency_ns", labels)];
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum, 1000);
    }
}
