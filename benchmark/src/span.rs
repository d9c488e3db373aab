//! Harness spans for the traced run: one span around each call into a
//! layer, nested by a stack, aggregated into self-time per name.
//!
//! A span's self time is its duration minus the part its child spans cover.
//! Children of one parent never overlap here (the harness is one thread and
//! every span closes before its sibling opens), so "covered" is the sum of
//! the children's durations.

use crate::metrics::Tally;
use serde::Value;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Raw spans are kept for this many ops; later ops only feed the aggregates.
pub const RAW_OPS: u64 = 10_000;

/// One closed span, as written to the Chrome-trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent in the raw list, if the parent was kept.
    pub parent: Option<usize>,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
}

/// Aggregate of every closed span of one name.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub self_tally: Tally,
}

impl Agg {
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.self_ns as f64 / self.count as f64
    }

    pub fn mean_total_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.count as f64
    }
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Slot reserved in `raw` at entry so a parent's index is known to its
    /// children before the parent closes.
    raw_idx: Option<usize>,
}

/// The span recorder. Times are nanoseconds since construction.
pub struct Spans {
    t0: Instant,
    stack: Vec<Open>,
    raw: Vec<SpanRec>,
    agg: BTreeMap<&'static str, Agg>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            stack: Vec::new(),
            raw: Vec::new(),
            agg: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, op: u64) {
        let now = self.now_ns();
        self.enter_at(name, op, now);
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        let now = self.now_ns();
        self.exit_at(now);
    }

    /// Times `f` as one span.
    #[inline]
    pub fn scope<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    /// [`Spans::enter`] with an explicit clock reading.
    pub fn enter_at(&mut self, name: &'static str, op: u64, start_ns: u64) {
        let raw_idx = (op < RAW_OPS).then(|| {
            self.raw.push(SpanRec {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().and_then(|p| p.raw_idx),
                op,
            });
            self.raw.len() - 1
        });
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            raw_idx,
        });
    }

    /// [`Spans::exit`] with an explicit clock reading.
    ///
    /// # Panics
    ///
    /// Panics when no span is open: an unbalanced exit is a harness bug.
    pub fn exit_at(&mut self, end_ns: u64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        let self_ns = dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(idx) = open.raw_idx {
            self.raw[idx].end_ns = end_ns;
        }
        let agg = self.agg.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += self_ns;
        agg.self_tally.record(self_ns);
    }

    /// The aggregate for `name`, if any span of that name closed.
    pub fn agg(&self, name: &str) -> Option<&Agg> {
        self.agg.get(name)
    }

    /// Every aggregate, by name.
    pub fn aggregates(&self) -> impl Iterator<Item = (&'static str, &Agg)> + '_ {
        self.agg.iter().map(|(k, v)| (*k, v))
    }

    /// The raw spans of the first [`RAW_OPS`] ops.
    pub fn raw(&self) -> &[SpanRec] {
        &self.raw
    }

    /// Writes the raw spans as a Chrome-trace (`chrome://tracing`, Perfetto)
    /// JSON array of complete (`"ph":"X"`) events on one thread.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        out.write_all(b"[")?;
        for (i, s) in self.raw.iter().enumerate() {
            if i > 0 {
                out.write_all(b",\n")?;
            }
            let mut args = vec![("op", Value::U64(s.op))];
            if let Some(p) = s.parent {
                args.push(("parent", Value::Str(format!("{}#{p}", self.raw[p].name))));
            }
            let ev = Value::object([
                ("name", Value::Str(s.name.to_string())),
                ("cat", Value::Str("bxperf".to_string())),
                ("ph", Value::Str("X".to_string())),
                ("ts", Value::F64(s.start_ns as f64 / 1e3)),
                ("dur", Value::F64((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Value::U64(1)),
                ("tid", Value::U64(1)),
                ("id", Value::U64(i as u64)),
                ("args", Value::object(args)),
            ]);
            out.write_all(ev.to_json().as_bytes())?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

/// Times `f` as one span when a recorder is given; just runs it otherwise.
/// The plain and the traced pass of a workload share one loop through this.
#[inline]
pub fn maybe_scope<T>(
    spans: Option<&mut Spans>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        Some(s) => s.scope(name, op, f),
        None => f(),
    }
}

/// Cost of one clock read, in ns: the floor under every span's duration.
pub fn timer_ns() -> f64 {
    const READS: u32 = 1_000_000;
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..READS {
        last = std::hint::black_box(Instant::now());
    }
    last.duration_since(t0).as_nanos() as f64 / READS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let mut s = Spans::new();
        // root [0,100): child a [10,30), child b [30,70) with grandchild
        // [40,50); a and b are adjacent, the gap [70,100) is root's own.
        s.enter_at("root", 0, 0);
        s.enter_at("a", 0, 10);
        s.exit_at(30);
        s.enter_at("b", 0, 30);
        s.enter_at("c", 0, 40);
        s.exit_at(50);
        s.exit_at(70);
        s.exit_at(100);

        let of = |n: &str| {
            let a = s.agg(n).unwrap();
            (a.count, a.total_ns, a.self_ns)
        };
        assert_eq!(of("root"), (1, 100, 100 - 20 - 40));
        assert_eq!(of("a"), (1, 20, 20));
        assert_eq!(of("b"), (1, 40, 30));
        assert_eq!(of("c"), (1, 10, 10));
        // Self times partition the root's duration.
        let total_self: u64 = s.aggregates().map(|(_, a)| a.self_ns).sum();
        assert_eq!(total_self, 100);
    }

    #[test]
    fn aggregates_accumulate_across_ops_and_keep_a_median() {
        let mut s = Spans::new();
        for (op, dur) in [10u64, 30, 20].into_iter().enumerate() {
            let t = op as u64 * 1000;
            s.enter_at("x", op as u64, t);
            s.exit_at(t + dur);
        }
        let a = s.agg("x").unwrap();
        assert_eq!((a.count, a.total_ns, a.self_ns), (3, 60, 60));
        assert_eq!(a.self_tally.percentile(50.0), 20);
        assert_eq!(a.mean_self_ns(), 20.0);
    }

    #[test]
    fn raw_spans_record_parents_and_stop_after_the_cap() {
        let mut s = Spans::new();
        s.enter_at("root", 7, 0);
        s.enter_at("kid", 7, 1);
        s.exit_at(2);
        s.exit_at(3);
        s.enter_at("late", RAW_OPS, 10);
        s.exit_at(11);
        assert_eq!(s.raw().len(), 2);
        assert_eq!(s.raw()[0].parent, None);
        assert_eq!(s.raw()[1].parent, Some(0));
        assert_eq!((s.raw()[1].start_ns, s.raw()[1].end_ns), (1, 2));
        assert_eq!(s.agg("late").unwrap().count, 1);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut s = Spans::new();
        s.enter_at("root", 0, 0);
        s.enter_at("kid", 0, 100);
        s.exit_at(1600);
        s.exit_at(2000);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/span-unit-test");
        let path = dir.join("t.json");
        s.write_chrome_trace(&path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let v = Value::parse_json(&text).unwrap();
        let events = v.as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(Value::as_str), Some("kid"));
        assert_eq!(events[1].get("dur").and_then(Value::as_f64), Some(1.5));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Value::as_str),
            Some("root#0")
        );
    }

    #[test]
    fn a_clock_read_costs_something_but_not_much() {
        let t = timer_ns();
        assert!(t > 0.0 && t < 10_000.0, "timer_ns = {t}");
    }
}
