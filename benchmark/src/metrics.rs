//! Metric plumbing: exact latency tallies, nearest-rank percentiles, the
//! named-metric list every command prints, the `sim_fingerprint`, and the
//! final JSON line.

use serde::Value;
use std::collections::BTreeMap;

/// One named measurement. `unit` follows the two-clock rule: host metrics
/// carry wall-clock units (`ns`, `s`, `1/s`), simulated ones carry `sim_*`
/// units so nobody reads a modelled nanosecond as a host one.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Values below this many nanoseconds are counted densely, one `u32` per
/// nanosecond; rarer, larger values go to a map.
const DIRECT_LIMIT: u64 = 1 << 22;
/// The dense counters come in pages of this many nanoseconds, allocated on
/// first touch. (One big zeroed allocation would be cheaper still when it
/// stays lazily mapped, but whether it does is up to the allocator's mood:
/// it made peak RSS jump by 16 MB per tally with the argument count.)
const PAGE: usize = 1 << 12;

/// Exact tally of virtual latencies in nanoseconds.
///
/// The simulator is deterministic, so percentiles must be too: no sampling,
/// no bucketing. Recording is one array increment, and memory follows the
/// distinct latencies a workload actually produces.
#[derive(Debug, Clone)]
pub struct Tally {
    pages: Vec<Option<Box<[u32; PAGE]>>>,
    overflow: BTreeMap<u64, u64>,
    count: u64,
    sum: u128,
}

impl Default for Tally {
    fn default() -> Self {
        Self::new()
    }
}

impl Tally {
    pub fn new() -> Self {
        Tally {
            pages: vec![None; DIRECT_LIMIT as usize / PAGE],
            overflow: BTreeMap::new(),
            count: 0,
            sum: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum += ns as u128;
        match self.pages.get_mut(ns as usize / PAGE) {
            // A u32 slot cannot overflow below 2^32 samples of one value;
            // the largest run records 4e7 samples in total.
            Some(page) => page.get_or_insert_with(|| Box::new([0; PAGE]))[ns as usize % PAGE] += 1,
            None => *self.overflow.entry(ns).or_insert(0) += 1,
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Nearest-rank percentile: the `ceil(p/100 * n)`-th smallest sample
    /// (1-based). 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = nearest_rank(self.count, p);
        let mut seen = 0u64;
        let dense = self.pages.iter().enumerate().flat_map(|(i, page)| {
            page.iter()
                .flat_map(move |p| p.iter().enumerate().map(move |(j, &n)| (i * PAGE + j, n)))
        });
        for (ns, n) in dense {
            seen += n as u64;
            if seen >= rank {
                return ns as u64;
            }
        }
        for (&ns, &n) in &self.overflow {
            seen += n;
            if seen >= rank {
                return ns;
            }
        }
        unreachable!("rank {rank} exceeds the {} samples tallied", self.count)
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: u64, p: f64) -> u64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    (((p / 100.0) * n as f64).ceil() as u64).clamp(1, n)
}

/// Nearest-rank percentile of an unsorted slice; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len() as u64, p) as usize - 1]
}

/// Median by nearest rank (the lower middle for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// FNV-1a over `name=value;` for every simulated metric and per-layer count,
/// in print order. Two runs of the same inputs on two builds agree on this
/// iff no simulated quantity moved.
pub fn sim_fingerprint(metrics: &[Metric]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in metrics {
        for b in format!("{}={};", m.name, m.value).bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The contract's final stdout line.
pub fn final_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::object([
                        ("value", Value::F64(m.value)),
                        ("unit", Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    Value::object([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", metrics),
    ])
    .to_json()
}

/// Prints `metric <name> <value> <unit>` lines under a section title — the
/// human-readable (and `aa.sh`-parsed) form of every number.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        // p50 of four samples is the 2nd smallest, not the 3rd.
        assert_eq!(percentile(&[40.0, 10.0, 30.0, 20.0], 50.0), 20.0);
        assert_eq!(percentile(&[40.0, 10.0, 30.0, 20.0], 0.0), 10.0);
        assert_eq!(percentile(&[40.0, 10.0, 30.0, 20.0], 100.0), 40.0);
        assert_eq!(percentile(&[40.0, 10.0, 30.0, 20.0], 75.0), 30.0);
        assert_eq!(percentile(&[40.0, 10.0, 30.0, 20.0], 76.0), 40.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tally_percentiles_agree_with_the_sorted_slice() {
        let samples: Vec<u64> = (0..1000u64)
            .map(|i| (i * 7919) % 5000 + if i % 97 == 0 { DIRECT_LIMIT } else { 0 })
            .collect();
        let mut t = Tally::new();
        for &s in &samples {
            t.record(s);
        }
        let as_f64: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
        for p in [0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(t.percentile(p) as f64, percentile(&as_f64, p), "p{p}");
        }
        assert_eq!(t.count(), 1000);
        assert_eq!(t.sum(), samples.iter().map(|&s| s as u128).sum::<u128>());
    }

    #[test]
    fn final_line_round_trips_through_the_vendored_parser() {
        let line = final_json(
            true,
            1000,
            0,
            &[
                Metric::new("host_ops_per_s", 1_534_221.75, "1/s"),
                Metric::new("setup_s", 0.8127, "s"),
            ],
        );
        let v = Value::parse_json(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(1000));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
        let m = v.get("metrics").unwrap();
        let setup = m.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(
            m.get("host_ops_per_s")
                .and_then(|x| x.get("value"))
                .and_then(Value::as_f64),
            Some(1_534_221.75)
        );
    }

    #[test]
    fn fingerprint_moves_with_any_value_and_only_then() {
        let a = [Metric::new("sim_iops", 1000.0, "sim_1/s")];
        let b = [Metric::new("sim_iops", 1000.5, "sim_1/s")];
        assert_eq!(sim_fingerprint(&a), sim_fingerprint(&a.clone()));
        assert_ne!(sim_fingerprint(&a), sim_fingerprint(&b));
    }
}
