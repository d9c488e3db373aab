//! Fixed-interval virtual-time series derived from the recorded event
//! stream — the continuous-telemetry half of the flight recorder.
//!
//! Everything here is offline analysis over `&[Event]`: derivation never
//! touches a clock or a sink, so it cannot perturb virtual time or the wire
//! (pinned by the `telemetry_inertness` integration tests). Three series
//! shapes cover the stack:
//!
//! - **Rate** — per-interval totals (wire bytes, doorbells, submits,
//!   completions, retries, timeouts, evictions, GC cycles).
//! - **Level** — instantaneous values sampled at each bucket's end,
//!   carried forward between changes: per-queue SQ backlog / CQ occupancy /
//!   in-flight commands reconstructed from paired events, plus every
//!   [`EventKind::GaugeSample`] series the instrumented layers emit
//!   (reassembly SRAM, FTL journal depth, driver in-flight, …).
//! - **Fraction** — per-die NAND busy fraction: the overlap of each
//!   `[start, start + busy)` window with each bucket, over the interval.

use crate::event::{Event, EventKind};
use bx_hostsim::Nanos;
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// How a series' bucket values are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Sum of contributions inside each interval.
    Rate,
    /// Value at each interval's end, last-change carried forward.
    Level,
    /// Busy time inside each interval divided by the interval (0..=1).
    Fraction,
}

impl SeriesKind {
    /// Stable lowercase label, used in serialization.
    pub(crate) fn label(self) -> &'static str {
        match self {
            SeriesKind::Rate => "rate",
            SeriesKind::Level => "level",
            SeriesKind::Fraction => "fraction",
        }
    }
}

/// One derived metric over the run's bucket grid.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Metric name (`wire_bytes`, `sq_backlog_cmds`, `nand_busy`, a gauge
    /// name, …).
    pub metric: String,
    /// Instance disambiguator: `""` for global series, a queue id (`"1"`),
    /// or `"ch0/d2"` for a die.
    pub scope: String,
    /// Bucket semantics.
    pub kind: SeriesKind,
    /// One value per interval, aligned to the set's bucket grid.
    pub points: Vec<f64>,
}

impl TimeSeries {
    /// Largest bucket value (0.0 for an empty series).
    pub fn peak(&self) -> f64 {
        self.points.iter().copied().fold(0.0, f64::max)
    }
}

impl Serialize for TimeSeries {
    fn to_value(&self) -> Value {
        Value::object([
            ("metric", self.metric.to_value()),
            ("scope", self.scope.to_value()),
            ("kind", self.kind.label().to_value()),
            (
                "points",
                Value::array(self.points.iter().map(|p| p.to_value())),
            ),
        ])
    }
}

/// Every series derived from one event stream, on one shared bucket grid.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesSet {
    /// Bucket width in virtual time.
    pub interval: Nanos,
    /// Number of buckets (`horizon / interval`, rounded up, ≥ 1 for a
    /// non-empty stream).
    pub buckets: usize,
    /// The series, ordered (metric, scope).
    pub series: Vec<TimeSeries>,
}

impl TimeSeriesSet {
    /// Finds a series by metric + scope.
    pub fn get(&self, metric: &str, scope: &str) -> Option<&TimeSeries> {
        self.series
            .iter()
            .find(|s| s.metric == metric && s.scope == scope)
    }
}

impl Serialize for TimeSeriesSet {
    fn to_value(&self) -> Value {
        Value::object([
            ("interval_ns", self.interval.as_ns().to_value()),
            ("buckets", (self.buckets as u64).to_value()),
            (
                "series",
                Value::array(self.series.iter().map(|s| s.to_value())),
            ),
        ])
    }
}

/// Accumulates (metric, scope) → per-bucket values during derivation.
struct Builder {
    buckets: usize,
    interval_ns: u64,
    rate: BTreeMap<(String, String), Vec<f64>>,
    /// Level transitions: (t, delta) per series; folded into
    /// end-of-bucket values at the end.
    steps: BTreeMap<(String, String), Vec<(u64, i64)>>,
    /// Gauge samples: (t, absolute value) per series.
    samples: BTreeMap<(String, String), Vec<(u64, u64)>>,
    fraction: BTreeMap<(String, String), Vec<f64>>,
}

impl Builder {
    fn bucket(&self, at: u64) -> usize {
        ((at / self.interval_ns) as usize).min(self.buckets - 1)
    }

    fn rate(&mut self, metric: &str, scope: String, at: u64, by: f64) {
        let i = self.bucket(at);
        self.rate
            .entry((metric.to_string(), scope))
            .or_insert_with(|| vec![0.0; self.buckets])[i] += by;
    }

    fn step(&mut self, metric: &str, scope: String, at: u64, delta: i64) {
        self.steps
            .entry((metric.to_string(), scope))
            .or_default()
            .push((at, delta));
    }

    fn sample(&mut self, metric: &str, scope: String, at: u64, value: u64) {
        self.samples
            .entry((metric.to_string(), scope))
            .or_default()
            .push((at, value));
    }

    /// Adds the overlap of `[start, end)` with each bucket as a fraction of
    /// the interval.
    fn busy(&mut self, metric: &str, scope: String, start: u64, end: u64) {
        let w = self.interval_ns;
        let points = self
            .fraction
            .entry((metric.to_string(), scope))
            .or_insert_with(|| vec![0.0; self.buckets]);
        let mut t = start;
        while t < end {
            let i = ((t / w) as usize).min(self.buckets - 1);
            let bucket_end = if i + 1 == self.buckets {
                end
            } else {
                ((i as u64 + 1) * w).min(end)
            };
            let slice = bucket_end.saturating_sub(t).max(1);
            points[i] += slice as f64 / w as f64;
            if bucket_end <= t {
                break;
            }
            t = bucket_end;
        }
    }

    fn finish(self, interval: Nanos) -> TimeSeriesSet {
        let mut series = Vec::new();
        for ((metric, scope), points) in self.rate {
            series.push(TimeSeries {
                metric,
                scope,
                kind: SeriesKind::Rate,
                points,
            });
        }
        for ((metric, scope), mut transitions) in self.steps {
            // Emission order already gives nondecreasing stamps, but the
            // derivation must not depend on that.
            transitions.sort_by_key(|&(t, _)| t);
            let mut points = vec![0.0; self.buckets];
            let mut level = 0i64;
            let mut it = transitions.into_iter().peekable();
            for (i, p) in points.iter_mut().enumerate() {
                let end = (i as u64 + 1) * self.interval_ns;
                while it
                    .peek()
                    .is_some_and(|&(t, _)| t < end || i + 1 == self.buckets)
                {
                    #[expect(clippy::expect_used, reason = "peek() just confirmed a next element")]
                    let (_, d) = it.next().expect("peeked");
                    level += d;
                }
                *p = level.max(0) as f64;
            }
            series.push(TimeSeries {
                metric,
                scope,
                kind: SeriesKind::Level,
                points,
            });
        }
        for ((metric, scope), mut samples) in self.samples {
            samples.sort_by_key(|&(t, _)| t);
            let mut points = vec![0.0; self.buckets];
            let mut level = 0.0;
            let mut it = samples.into_iter().peekable();
            for (i, p) in points.iter_mut().enumerate() {
                let end = (i as u64 + 1) * self.interval_ns;
                while it
                    .peek()
                    .is_some_and(|&(t, _)| t < end || i + 1 == self.buckets)
                {
                    #[expect(clippy::expect_used, reason = "peek() just confirmed a next element")]
                    let (_, v) = it.next().expect("peeked");
                    level = v as f64;
                }
                *p = level;
            }
            series.push(TimeSeries {
                metric,
                scope,
                kind: SeriesKind::Level,
                points,
            });
        }
        for ((metric, scope), points) in self.fraction {
            series.push(TimeSeries {
                metric,
                scope,
                kind: SeriesKind::Fraction,
                points,
            });
        }
        series.sort_by(|a, b| (&a.metric, &a.scope).cmp(&(&b.metric, &b.scope)));
        TimeSeriesSet {
            interval,
            buckets: self.buckets,
            series,
        }
    }
}

/// The virtual-time horizon the bucket grid must cover: the last emission
/// stamp, extended by any NAND busy window that outruns it.
fn horizon(events: &[Event]) -> u64 {
    let mut h = 0u64;
    for e in events {
        h = h.max(e.at.as_ns());
        if let EventKind::NandOp { start, busy, .. } = e.kind {
            h = h.max(start.as_ns().saturating_add(busy.as_ns()));
        }
    }
    h
}

/// Derives the full time-series set from one recorded stream at the given
/// bucket width. Pure: reads the slice, touches no clock or sink. An empty
/// stream yields an empty set (0 buckets, no series).
pub fn derive_timeseries(events: &[Event], interval: Nanos) -> TimeSeriesSet {
    let interval_ns = interval.as_ns().max(1);
    let interval = Nanos::from_ns(interval_ns);
    if events.is_empty() {
        return TimeSeriesSet {
            interval,
            buckets: 0,
            series: Vec::new(),
        };
    }
    let buckets = (horizon(events) / interval_ns) as usize + 1;
    let mut b = Builder {
        buckets,
        interval_ns,
        rate: BTreeMap::new(),
        steps: BTreeMap::new(),
        samples: BTreeMap::new(),
        fraction: BTreeMap::new(),
    };
    let global = String::new;
    let queue = |e: &Event| e.cmd.map(|c| c.qid.to_string()).unwrap_or_default();
    for e in events {
        let at = e.at.as_ns();
        match &e.kind {
            EventKind::Tlp {
                class,
                wire_bytes,
                tlps,
                ..
            } => {
                b.rate("wire_bytes", global(), at, *wire_bytes as f64);
                if *class == "doorbell" {
                    b.rate("doorbells", global(), at, *tlps as f64);
                }
            }
            EventKind::SqeInsert { .. } => {
                b.rate("submits", global(), at, 1.0);
                b.step("sq_backlog_cmds", queue(e), at, 1);
                b.step("inflight_cmds", queue(e), at, 1);
            }
            EventKind::SqeFetch { .. } => {
                b.step("sq_backlog_cmds", queue(e), at, -1);
            }
            EventKind::CqePost { .. } => {
                b.rate("completions", global(), at, 1.0);
                b.step("cq_occupancy", queue(e), at, 1);
            }
            EventKind::CompletionConsumed { .. } => {
                b.step("cq_occupancy", queue(e), at, -1);
                b.step("inflight_cmds", queue(e), at, -1);
            }
            EventKind::TimeoutReap => {
                b.rate("timeouts", global(), at, 1.0);
                b.step("inflight_cmds", queue(e), at, -1);
            }
            EventKind::Retry { .. } => b.rate("retries", global(), at, 1.0),
            EventKind::ReassemblyEvict => b.rate("evictions", global(), at, 1.0),
            EventKind::GcCycle { .. } => b.rate("gc_cycles", global(), at, 1.0),
            EventKind::PowerCut { .. } => b.rate("power_cuts", global(), at, 1.0),
            EventKind::NandOp {
                channel,
                die,
                start,
                busy,
                ..
            } => {
                let s = start.as_ns();
                b.busy(
                    "nand_busy",
                    format!("ch{channel}/d{die}"),
                    s,
                    s.saturating_add(busy.as_ns()),
                );
            }
            EventKind::GaugeSample {
                gauge,
                scope,
                value,
            } => {
                b.sample(gauge, scope.to_string(), at, *value);
            }
            _ => {}
        }
    }
    b.finish(interval)
}

/// Renders a series as a one-line unicode sparkline, normalized to its own
/// peak (a flat-zero series renders as all-blank).
pub fn sparkline(points: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let peak = points.iter().copied().fold(0.0, f64::max);
    points
        .iter()
        .map(|&p| {
            if peak <= 0.0 || p <= 0.0 {
                ' '
            } else {
                let i = ((p / peak) * (GLYPHS.len() - 1) as f64).round() as usize;
                GLYPHS[i.min(GLYPHS.len() - 1)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CmdKey;

    fn ev(at: u64, cmd: Option<CmdKey>, kind: EventKind) -> Event {
        Event {
            at: Nanos::from_ns(at),
            cmd,
            kind,
        }
    }

    #[test]
    fn empty_stream_yields_empty_set() {
        let set = derive_timeseries(&[], Nanos::from_us(1));
        assert_eq!(set.buckets, 0);
        assert!(set.series.is_empty());
    }

    #[test]
    fn rates_land_in_their_interval() {
        let tlp = |wire| EventKind::Tlp {
            class: "doorbell",
            dir: crate::Dir::HostToDevice,
            wire_bytes: wire,
            payload_bytes: 4,
            tlps: 1,
        };
        let events = vec![
            ev(100, None, tlp(28)),
            ev(900, None, tlp(28)),
            ev(1500, None, tlp(28)),
        ];
        let set = derive_timeseries(&events, Nanos::from_ns(1000));
        assert_eq!(set.buckets, 2);
        let wire = set.get("wire_bytes", "").unwrap();
        assert_eq!(wire.kind, SeriesKind::Rate);
        assert_eq!(wire.points, vec![56.0, 28.0]);
        let bells = set.get("doorbells", "").unwrap();
        assert_eq!(bells.points, vec![2.0, 1.0]);
    }

    #[test]
    fn backlog_level_reflects_insert_fetch_pairs() {
        let key = CmdKey::new(1, 0);
        let key2 = CmdKey::new(1, 1);
        let insert = || EventKind::SqeInsert {
            method: "ByteExpress",
            opcode: 1,
            len: 64,
        };
        let events = vec![
            ev(0, Some(key), insert()),
            ev(100, Some(key2), insert()),
            // First command fetched in bucket 0; second stays pending
            // through bucket 1 and is fetched in bucket 2.
            ev(500, Some(key), EventKind::SqeFetch { opcode: 1 }),
            ev(2500, Some(key2), EventKind::SqeFetch { opcode: 1 }),
        ];
        let set = derive_timeseries(&events, Nanos::from_ns(1000));
        let backlog = set.get("sq_backlog_cmds", "1").unwrap();
        assert_eq!(backlog.kind, SeriesKind::Level);
        assert_eq!(backlog.points, vec![1.0, 1.0, 0.0]);
        assert_eq!(backlog.peak(), 1.0);
    }

    #[test]
    fn nand_busy_fraction_splits_across_buckets() {
        let events = vec![ev(
            0,
            None,
            EventKind::NandOp {
                op: "program",
                channel: 0,
                die: 2,
                start: Nanos::from_ns(500),
                busy: Nanos::from_ns(1000),
            },
        )];
        let set = derive_timeseries(&events, Nanos::from_ns(1000));
        // Horizon extends to 1500 even though the only emission is at 0.
        assert_eq!(set.buckets, 2);
        let busy = set.get("nand_busy", "ch0/d2").unwrap();
        assert_eq!(busy.kind, SeriesKind::Fraction);
        assert!((busy.points[0] - 0.5).abs() < 1e-9, "{:?}", busy.points);
        assert!((busy.points[1] - 0.5).abs() < 1e-9, "{:?}", busy.points);
    }

    #[test]
    fn gauge_samples_carry_forward() {
        let g = |v| EventKind::GaugeSample {
            gauge: "ftl_journal_depth",
            scope: 0,
            value: v,
        };
        let events = vec![ev(100, None, g(3)), ev(3500, None, g(7))];
        let set = derive_timeseries(&events, Nanos::from_ns(1000));
        let depth = set.get("ftl_journal_depth", "0").unwrap();
        assert_eq!(depth.points, vec![3.0, 3.0, 3.0, 7.0]);
    }

    #[test]
    fn sparkline_normalizes_to_peak() {
        let s = sparkline(&[0.0, 1.0, 4.0, 8.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[0.0, 0.0]), "  ");
    }
}
