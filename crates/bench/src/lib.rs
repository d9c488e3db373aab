//! # bx-bench — the figure/table printing harness
//!
//! One binary per evaluation artifact in the paper. They print; host-time
//! regressions are caught by `bxperf` (`benchmark/`, `BENCHMARK.json`).
//! Their output is virtual time and counts, so CI pins the sha256 of each
//! bin's `-- 200 --json` stdout (`ci.yml`).
//!
//! | Binary     | Prints                                                          |
//! |------------|-----------------------------------------------------------------|
//! | `fig1`     | Fig 1(a) value-size distribution, (b) PRP staircase, (c) amplification |
//! | `fig4`     | Fig 4 query/segment lengths                                     |
//! | `fig5`     | Fig 5 traffic + latency across payload sizes and methods        |
//! | `fig6`     | Fig 6 KV-SSD MixGraph + FillRandom (traffic, throughput, p1–p99) |
//! | `fig7`     | Fig 7 CSD pushdown traffic + throughput                         |
//! | `table1`   | Table 1 driver-submit / controller-fetch overheads              |
//! | `ablation` | Beyond the paper: hybrid threshold, reassembly tax, MPS/PCIe-gen/SGL sweeps, MMIO baseline, doorbell batching, Serial vs Pipelined QD sweep |
//! | `trace`    | Writes Chrome-trace/Perfetto files + timelines under `target/trace/` |
//!
//! Run each with `cargo run -p bx-bench --release --bin <name> [-- n_ops]`.
//! Op counts default to fast-but-stable values; pass a count to match the
//! paper's 1 M-op runs. Every binary also accepts `--json`, which appends
//! one machine-readable JSON document as the final stdout line (the human
//! tables still print above it). Anything else on the command line is an
//! error (exit 2).

#![forbid(unsafe_code)]
// Printed tables must not depend on hash order. The panic family stays off
// here: these are CLI printers that `unwrap` argv and stdout.
#![deny(clippy::iter_over_hash_type)]
#![warn(missing_docs)]

use byteexpress::{RunReport, TransferMethod};
use serde::Value;

/// Options every figure binary understands: an optional op-count override
/// (first bare argument) plus the `--json` report flag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// Override for the default op count.
    pub ops: Option<usize>,
    /// Emit a JSON document as the last line of stdout.
    pub json: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<BenchArgs, String> {
    let mut parsed = BenchArgs::default();
    for a in args {
        match a.as_str() {
            "--json" => parsed.json = true,
            s if s.starts_with('-') => return Err(format!("unknown flag `{s}`")),
            s => match s.parse() {
                Ok(n) => parsed.ops = Some(n),
                Err(_) => return Err(format!("op count `{s}` is not a number")),
            },
        }
    }
    Ok(parsed)
}

/// Parses the process arguments. An unknown flag or a non-numeric op count
/// is reported on stderr and exits with status 2: a typo must not silently
/// run the default count or drop the JSON line.
pub fn bench_args() -> BenchArgs {
    parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: <bin> [n_ops] [--json]");
        std::process::exit(2)
    })
}

/// Accumulates one binary's measurements into the `--json` report.
///
/// Keys are inserted in measurement order and serialized as one object:
/// `{"bin": "...", "results": {...}}`.
#[derive(Debug)]
pub struct JsonReport {
    bin: &'static str,
    entries: Vec<(String, Value)>,
}

impl JsonReport {
    /// An empty report for the named binary.
    pub fn new(bin: &'static str) -> Self {
        JsonReport {
            bin,
            entries: Vec::new(),
        }
    }

    /// Records one result under `key`.
    pub fn push(&mut self, key: impl Into<String>, value: Value) {
        self.entries.push((key.into(), value));
    }

    /// Records a [`RunReport`] (serialized with its derived ratios).
    pub fn push_run(&mut self, key: impl Into<String>, report: &RunReport) {
        self.push(key, report.to_value());
    }

    /// The whole report as one JSON value.
    pub(crate) fn to_value(&self) -> Value {
        Value::object([
            ("bin", Value::Str(self.bin.to_string())),
            ("results", Value::Object(self.entries.clone())),
        ])
    }

    /// Prints the report as the final stdout line when `enabled`; a plain
    /// no-op otherwise, so binaries call this unconditionally.
    pub fn finish(self, enabled: bool) {
        if enabled {
            println!("{}", self.to_value().to_json());
        }
    }
}

/// The three methods every figure compares, in paper order.
pub fn paper_methods() -> [TransferMethod; 3] {
    [
        TransferMethod::Prp,
        TransferMethod::BandSlim { embed_first: true },
        TransferMethod::ByteExpress,
    ]
}

/// Formats a byte count with thousands separators.
pub fn fmt_bytes(b: u64) -> String {
    let s = b.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Prints a section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(0), "0");
        assert_eq!(fmt_bytes(999), "999");
        assert_eq!(fmt_bytes(1000), "1,000");
        assert_eq!(fmt_bytes(1234567), "1,234,567");
    }

    #[test]
    fn methods_in_paper_order() {
        let m = paper_methods();
        assert_eq!(m[0], TransferMethod::Prp);
        assert_eq!(m[2], TransferMethod::ByteExpress);
    }

    #[test]
    fn args_parse_flags_and_count_in_any_order() {
        let parse = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let of = |v: &[&str]| parse(v).unwrap();
        assert_eq!(of(&[]), BenchArgs::default());
        assert_eq!(
            of(&["5000"]),
            BenchArgs {
                ops: Some(5000),
                json: false
            }
        );
        assert_eq!(
            of(&["--json", "5000"]),
            BenchArgs {
                ops: Some(5000),
                json: true
            }
        );
        assert_eq!(
            of(&["5000", "--json"]),
            BenchArgs {
                ops: Some(5000),
                json: true
            }
        );
        // A typo is an error, never a silent default run.
        assert!(parse(&["--jsno"]).unwrap_err().contains("--jsno"));
        assert!(parse(&["10O0", "--json"]).unwrap_err().contains("10O0"));
    }

    #[test]
    fn json_report_round_trips() {
        let mut r = JsonReport::new("fig0");
        r.push("x", Value::U64(7));
        let v = Value::parse_json(&r.to_value().to_json()).unwrap();
        assert_eq!(v.get("bin").and_then(|b| b.as_str()), Some("fig0"));
        assert_eq!(
            v.get("results")
                .and_then(|r| r.get("x"))
                .and_then(|x| x.as_u64()),
            Some(7)
        );
    }
}
