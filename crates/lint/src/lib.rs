//! # bx-lint — the ByteExpress domain static-analysis pass
//!
//! Generic clippy cannot see the invariants this workspace's correctness
//! rests on: 64-byte wire images with a repurposed reserved dword, a
//! simulator that must never observe wall-clock time, hot paths that must
//! not abort, a flight recorder that must never silently drop an event
//! kind, and a strict no-`unsafe` posture. bx-lint walks every workspace
//! source with a hand-rolled token scanner (no `syn`, no dependency on any
//! crate it checks) and enforces the token rules:
//!
//! | rule                  | invariant guarded                                   |
//! |-----------------------|-----------------------------------------------------|
//! | `wire-layout`         | every on-ring type pins its encoded size with a `const` assert and registers an encode/decode pair |
//! | `virtual-time-purity` | no `std::time`/`Instant`/`SystemTime`/`thread::sleep` in sim crates |
//! | `panic-freedom`       | no `.unwrap()`/`.expect()`/`panic!`-family (and, in ring/bitmap files, no non-literal indexing) in non-test hot-path code |
//! | `trace-exhaustiveness`| every `EventKind` variant is handled by all trace handlers, with no wildcard arms |
//! | `unsafe-confinement`  | `unsafe` only in allowlisted files; every crate root carries `#![forbid(unsafe_code)]` |
//! | `hash-iteration`      | no iteration over `HashMap`/`HashSet` anywhere in the workspace unless it feeds a sorted drain — randomized order must never reach wire, trace, or CQE order |
//! | `borrow-across-pending` | no `RefCell` borrow guard live at a `Poll::Pending` yield site |
//!
//! and, since PR 10, the **interprocedural** rules over a workspace call
//! graph ([`graph`] + [`reach`]):
//!
//! | rule                      | invariant guarded                               |
//! |---------------------------|-------------------------------------------------|
//! | `transitive-virtual-time` | no hot-path entry point reaches a wall-clock read through any call chain |
//! | `transitive-panic`        | no hot-path entry point reaches an abort source through any call chain |
//! | `blocking-in-poll`        | nothing reachable from a poll fn blocks the executor thread |
//!
//! Machine-readable output is SARIF 2.1.0 ([`sarif`]); `--baseline
//! lint_baseline.json` gates CI on *new* findings only, so conservative
//! transitive findings can be accepted explicitly without rotting into
//! blanket suppressions.
//!
//! The escape hatch is an explicit, reasoned annotation on (or directly
//! above) the offending line:
//!
//! ```text
//! // bx-lint: allow(panic-freedom, reason = "admission checked by can_push")
//! ```
//!
//! Malformed annotations (missing reason) are themselves findings, so the
//! escape hatch cannot rot. Run as:
//!
//! ```text
//! cargo run -p bx-lint -- --workspace [--json]
//! cargo run -p bx-lint -- --fixture crates/lint/fixtures/bad_panic_freedom.rs
//! cargo run -p bx-lint -- --self-test
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod lexer;
pub mod reach;
pub mod rules;
pub mod sarif;

use lexer::{lex, Lexed};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One diagnostic: file, line, rule, human message.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (one of [`rules::ALL_RULES`]).
    pub rule: &'static str,
    /// What is wrong and how to fix or justify it.
    pub message: String,
    /// Explicit stable baseline key for findings whose message embeds
    /// drifting detail (transitive chains embed sink line numbers); token
    /// findings leave this `None` and fingerprint by message.
    pub key: Option<String>,
}

impl Finding {
    /// The stable identity used by the baseline and SARIF
    /// `partialFingerprints`: the explicit key when set, else
    /// `rule|file|message` (token-rule messages are line-free by
    /// construction, so this survives unrelated edits shifting lines).
    pub fn fingerprint(&self) -> String {
        match &self.key {
            Some(k) => k.clone(),
            None => format!("{}|{}|{}", self.rule, self.file, self.message),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One registered wire type: where it lives, what it is called, how many
/// bytes it encodes to, and whether it must expose `to_bytes`/`from_bytes`.
#[derive(Debug, Clone)]
pub struct WireSpec {
    /// Repo-relative file the type is defined in.
    pub file: String,
    /// Type or size-constant identifier the const assert must mention.
    pub type_name: String,
    /// Encoded size in bytes the const assert must mention.
    pub bytes: u64,
    /// Whether a `to_bytes`/`from_bytes` pair is required.
    pub codec: bool,
}

/// What bx-lint enforces where.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose sources must be virtual-time pure.
    pub sim_crates: Vec<String>,
    /// Crates whose non-test library code must be panic-free.
    pub hot_crates: Vec<String>,
    /// Crates whose library code must not iterate randomized-hash
    /// collections (replay-relevant state).
    pub hash_checked_crates: Vec<String>,
    /// Files (repo-relative) where non-literal slice indexing is also
    /// flagged — the ring/bitmap arithmetic files.
    pub index_checked_files: Vec<String>,
    /// The wire-type registry.
    pub wire: Vec<WireSpec>,
    /// Source prefix of the wire crate: inherent `to_bytes` impls here must
    /// be registered in [`Config::wire`].
    pub wire_crate_src: String,
    /// The trace event taxonomy file (`enum EventKind` + handlers).
    pub trace_event_file: String,
    /// The trace export file (`chrome_trace` + `timeline`).
    pub trace_export_file: String,
    /// Files allowed to contain `unsafe` (each needs a safety argument in
    /// review; empty today).
    pub unsafe_allowlist: Vec<String>,
}

impl Config {
    /// The real-workspace configuration.
    pub fn workspace() -> Self {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        Config {
            sim_crates: s(&["hostsim", "driver", "nvme", "pcie", "ssd", "trace"]),
            hot_crates: s(&["driver", "nvme", "ssd"]),
            // Replay determinism is a workspace-wide property: a randomized
            // drain order anywhere upstream of wire bytes, trace events, or
            // report output breaks the fixed-seed evidence chain, so every
            // crate is hash-checked (widened from ssd+driver in PR 10).
            hash_checked_crates: s(&[
                "bench",
                "core",
                "csd",
                "driver",
                "hostsim",
                "kvssd",
                "lint",
                "nvme",
                "pcie",
                "ssd",
                "trace",
                "workloads",
            ]),
            index_checked_files: s(&[
                "crates/nvme/src/queue.rs",
                "crates/ssd/src/reassembly.rs",
                "crates/ssd/src/arbiter.rs",
            ]),
            wire: vec![
                WireSpec {
                    file: "crates/nvme/src/sqe.rs".into(),
                    type_name: "SubmissionEntry".into(),
                    bytes: 64,
                    codec: true,
                },
                WireSpec {
                    file: "crates/nvme/src/cqe.rs".into(),
                    type_name: "CompletionEntry".into(),
                    bytes: 16,
                    codec: true,
                },
                WireSpec {
                    file: "crates/nvme/src/inline.rs".into(),
                    type_name: "ChunkHeader".into(),
                    bytes: 8,
                    codec: true,
                },
                WireSpec {
                    file: "crates/nvme/src/inline.rs".into(),
                    type_name: "BYTEEXPRESS_CHUNK_SIZE".into(),
                    bytes: 64,
                    codec: false,
                },
                WireSpec {
                    file: "crates/nvme/src/bandslim.rs".into(),
                    type_name: "HEAD_CAPACITY".into(),
                    bytes: 32,
                    codec: false,
                },
                WireSpec {
                    file: "crates/nvme/src/bandslim.rs".into(),
                    type_name: "FRAG_CAPACITY".into(),
                    bytes: 48,
                    codec: false,
                },
                WireSpec {
                    file: "crates/nvme/src/sgl.rs".into(),
                    type_name: "SglDescriptor".into(),
                    bytes: 16,
                    codec: true,
                },
            ],
            wire_crate_src: "crates/nvme/src".into(),
            trace_event_file: "crates/trace/src/event.rs".into(),
            trace_export_file: "crates/trace/src/export.rs".into(),
            // tests/alloc_free.rs: the counting global allocator needs
            // `unsafe impl GlobalAlloc` (pure delegation to System plus a
            // relaxed atomic counter — no pointer arithmetic of its own).
            unsafe_allowlist: s(&["tests/alloc_free.rs"]),
        }
    }
}

/// Which crate (by directory name) a repo-relative path belongs to, if any.
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// Whether the path is crate *library* source (not tests/, benches/,
/// examples/ or bin targets' CLI shims — bins stay covered).
fn is_library_source(rel: &str) -> bool {
    rel.contains("/src/")
}

/// Lints one already-lexed file under `cfg`. `rel` must use `/` separators.
pub fn lint_file(rel: &str, lx: &Lexed, cfg: &Config) -> Vec<Finding> {
    let mut raw = Vec::new();

    // Malformed annotations are findings regardless of location.
    for bad in &lx.bad_annotations {
        raw.push(Finding {
            file: rel.to_string(),
            line: bad.line,
            rule: rules::ANNOTATION,
            message: bad.why.clone(),
            key: None,
        });
    }

    let krate = crate_of(rel);

    // virtual-time-purity: all code (incl. unit tests — deterministic tests
    // are the point) in sim crates.
    if krate.is_some_and(|k| cfg.sim_crates.iter().any(|c| c == k)) {
        raw.extend(rules::virtual_time_purity(rel, lx));
    }

    // panic-freedom: non-test library source of hot crates.
    if krate.is_some_and(|k| cfg.hot_crates.iter().any(|c| c == k)) && is_library_source(rel) {
        let index_checked = cfg.index_checked_files.iter().any(|f| f == rel);
        raw.extend(rules::panic_freedom(rel, lx, index_checked));
    }

    // hash-iteration: library source of replay-relevant crates.
    if krate.is_some_and(|k| cfg.hash_checked_crates.iter().any(|c| c == k))
        && is_library_source(rel)
    {
        raw.extend(rules::hash_iteration(rel, lx));
    }

    // borrow-across-pending: every library source — poll-shaped functions
    // can appear wherever futures are hand-rolled.
    if is_library_source(rel) {
        raw.extend(rules::borrow_across_pending(rel, lx));
    }

    // unsafe-confinement: every file; crate roots additionally need the
    // forbid attribute.
    let allowlisted = cfg.unsafe_allowlist.iter().any(|f| f == rel);
    raw.extend(rules::unsafe_confinement(rel, lx, allowlisted));
    let is_crate_root =
        rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"));
    if is_crate_root && !allowlisted {
        raw.extend(rules::crate_root_forbids_unsafe(rel, lx));
    }

    // wire-layout.
    for spec in cfg.wire.iter().filter(|s| s.file == rel) {
        raw.extend(rules::wire_layout_registered(rel, lx, spec));
    }
    if rel.starts_with(&cfg.wire_crate_src) {
        let registered: Vec<String> = cfg.wire.iter().map(|s| s.type_name.clone()).collect();
        raw.extend(rules::wire_layout_unregistered(rel, lx, &registered));
    }

    // trace-exhaustiveness.
    if rel == cfg.trace_event_file {
        raw.extend(rules::trace_exhaustiveness(rel, lx));
    }
    if rel == cfg.trace_export_file {
        raw.extend(rules::trace_exporters_present(rel, lx));
    }

    // Allow-annotation suppression (annotation findings are never
    // suppressible — a broken escape hatch must always surface).
    raw.retain(|f| f.rule == rules::ANNOTATION || !lx.is_allowed(f.rule, f.line));
    raw
}

/// Directories never scanned: third-party vendored code, build output,
/// the VCS store, bx-lint's own deliberately-bad fixtures, and the
/// standalone `benchmark/` package — not a workspace member, and a host
/// wall-clock harness by design, so the simulator's invariants (virtual
/// time only, no panics on hot paths) do not apply to it.
const SKIP_DIRS: [&str; 5] = ["vendor", "target", ".git", "fixtures", "benchmark"];

/// Recursively collects `.rs` files under `root`, repo-relative, sorted.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The result of one lint run.
#[derive(Debug)]
pub struct Report {
    /// Every finding, in path/line order.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Analyzer wall time in milliseconds (scan + graph + reachability).
    /// bx-lint is a build tool, not a sim crate — reading the host clock
    /// here is fine and is what CI records to catch analysis-speed
    /// regressions.
    pub wall_ms: u64,
}

/// A baseline comparison: which findings are genuinely new and how many
/// were absorbed by the committed baseline.
#[derive(Debug)]
pub struct Gate {
    /// Findings not covered by the baseline — these fail CI.
    pub new: Vec<Finding>,
    /// Count of findings matched (and consumed) by baseline entries.
    pub baselined: usize,
}

impl Report {
    /// Findings grouped by rule name (all rules present, zero-filled).
    pub fn by_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut map: BTreeMap<&'static str, usize> =
            rules::ALL_RULES.iter().map(|r| (*r, 0)).collect();
        for f in &self.findings {
            *map.entry(f.rule).or_insert(0) += 1;
        }
        map
    }

    /// Splits findings into new-vs-baselined against `baseline`. Each
    /// baseline entry absorbs up to its recorded count of findings with the
    /// same stable fingerprint; the excess (and anything unknown to the
    /// baseline) is new.
    pub fn gate(&self, baseline: &sarif::Baseline) -> Gate {
        let mut budget = baseline.counts.clone();
        let mut new = Vec::new();
        let mut baselined = 0usize;
        for f in &self.findings {
            match budget.get_mut(&f.fingerprint()) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    baselined += 1;
                }
                _ => new.push(f.clone()),
            }
        }
        Gate { new, baselined }
    }

    /// The machine-readable summary line, matching the bench-bin convention:
    /// a single JSON document with `bin` and `results` (where `failures`
    /// gates CI). Without a baseline every finding is a failure; with one,
    /// only the gate's new findings fail.
    pub fn json_line(&self, gate: Option<&Gate>) -> String {
        let mut rules_json = String::new();
        for (i, (rule, count)) in self.by_rule().into_iter().enumerate() {
            if i > 0 {
                rules_json.push(',');
            }
            rules_json.push_str(&format!("\"{rule}\":{count}"));
        }
        let (failures, new_findings, baselined) = match gate {
            Some(g) => (g.new.len(), g.new.len(), g.baselined),
            None => (self.findings.len(), self.findings.len(), 0),
        };
        format!(
            "{{\"bin\":\"bx-lint\",\"results\":{{\"files_scanned\":{},\"findings\":{},\"failures\":{},\"new_findings\":{},\"baselined\":{},\"wall_ms\":{},\"by_rule\":{{{}}}}}}}",
            self.files_scanned,
            self.findings.len(),
            failures,
            new_findings,
            baselined,
            self.wall_ms,
            rules_json
        )
    }
}

/// Lints the whole workspace rooted at `root` with [`Config::workspace`].
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    lint_workspace_with(root, &Config::workspace())
}

/// Lints the workspace at `root` under an explicit config: the per-file
/// token pass over every source, then the interprocedural pass (call-graph
/// build + transitive reachability rules) over library sources.
pub fn lint_workspace_with(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let started = std::time::Instant::now();
    let files = collect_sources(root)?;
    let mut findings = Vec::new();
    let mut lexed: Vec<(String, Lexed)> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)?;
        let lx = lex(&src);
        findings.extend(lint_file(&rel, &lx, cfg));
        lexed.push((rel, lx));
    }
    findings.extend(interprocedural_pass(&lexed));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(Report {
        findings,
        files_scanned: files.len(),
        wall_ms: started.elapsed().as_millis() as u64,
    })
}

/// Builds the workspace call graph over library sources and runs the three
/// transitive rules, suppressing any finding whose root `fn` line carries an
/// allow annotation for the rule (whole-root exemption; sink-side
/// suppression already happened during extraction).
pub fn build_call_graph(lexed: &[(String, Lexed)]) -> graph::CallGraph {
    graph::CallGraph::build(
        lexed
            .iter()
            .filter(|(rel, _)| is_library_source(rel))
            .map(|(rel, lx)| (rel.as_str(), lx)),
    )
}

fn interprocedural_pass(lexed: &[(String, Lexed)]) -> Vec<Finding> {
    let g = build_call_graph(lexed);
    let mut out = Vec::new();
    out.extend(reach::transitive_virtual_time(&g));
    out.extend(reach::transitive_panic(&g));
    out.extend(reach::blocking_in_poll(&g));
    out.retain(|f| {
        lexed
            .iter()
            .find(|(rel, _)| *rel == f.file)
            .is_none_or(|(_, lx)| !reach::root_allowed(lx, f))
    });
    out
}

/// Lints a single standalone fixture file, applying every rule as if the
/// file were sim-crate + hot-crate + index-checked + unsafe-checked source.
/// Wire-layout and trace-exhaustiveness additionally apply when the file
/// name contains `wire` / `trace` (fixture files opt in by name); the
/// transitive rules run over a single-file call graph, so fixtures can seed
/// multi-hop chains within one file.
pub fn lint_fixture(path: &Path) -> std::io::Result<Report> {
    let started = std::time::Instant::now();
    let src = std::fs::read_to_string(path)?;
    let lx = lex(&src);
    let rel = path.to_string_lossy().replace('\\', "/");
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().to_string())
        .unwrap_or_default();

    let mut findings = Vec::new();
    for bad in &lx.bad_annotations {
        findings.push(Finding {
            file: rel.clone(),
            line: bad.line,
            rule: rules::ANNOTATION,
            message: bad.why.clone(),
            key: None,
        });
    }
    findings.extend(rules::virtual_time_purity(&rel, &lx));
    findings.extend(rules::panic_freedom(&rel, &lx, true));
    findings.extend(rules::hash_iteration(&rel, &lx));
    findings.extend(rules::borrow_across_pending(&rel, &lx));
    findings.extend(rules::unsafe_confinement(&rel, &lx, false));
    {
        // Single-file interprocedural pass: fixture paths don't contain
        // `/src/`, so build the graph directly rather than via the
        // library-source filter.
        let g = graph::CallGraph::build([(rel.as_str(), &lx)]);
        let mut reach_findings = Vec::new();
        reach_findings.extend(reach::transitive_virtual_time(&g));
        reach_findings.extend(reach::transitive_panic(&g));
        reach_findings.extend(reach::blocking_in_poll(&g));
        reach_findings.retain(|f| !reach::root_allowed(&lx, f));
        findings.extend(reach_findings);
    }
    if name.contains("wire") {
        let spec = WireSpec {
            file: rel.clone(),
            type_name: "WireThing".into(),
            bytes: 64,
            codec: true,
        };
        findings.extend(rules::wire_layout_registered(&rel, &lx, &spec));
        findings.extend(rules::wire_layout_unregistered(
            &rel,
            &lx,
            &["WireThing".to_string()],
        ));
    }
    if name.contains("trace") {
        findings.extend(rules::trace_exhaustiveness(&rel, &lx));
        findings.extend(rules::trace_exporters_present(&rel, &lx));
    }
    findings.retain(|f| f.rule == rules::ANNOTATION || !lx.is_allowed(f.rule, f.line));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(Report {
        findings,
        files_scanned: 1,
        wall_ms: started.elapsed().as_millis() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_parses_paths() {
        assert_eq!(crate_of("crates/nvme/src/sqe.rs"), Some("nvme"));
        assert_eq!(crate_of("src/lib.rs"), None);
        assert_eq!(crate_of("tests/chaos.rs"), None);
    }

    #[test]
    fn library_source_classification() {
        assert!(is_library_source("crates/driver/src/driver.rs"));
        assert!(!is_library_source("crates/driver/tests/chaos.rs"));
        assert!(!is_library_source("tests/end_to_end.rs"));
    }

    #[test]
    fn json_line_is_stable_shape() {
        let report = Report {
            findings: vec![Finding {
                file: "x.rs".into(),
                line: 3,
                rule: rules::PANIC_FREEDOM,
                message: "m".into(),
                key: None,
            }],
            files_scanned: 2,
            wall_ms: 7,
        };
        let line = report.json_line(None);
        assert!(line.starts_with("{\"bin\":\"bx-lint\""), "{line}");
        assert!(line.contains("\"findings\":1"));
        assert!(line.contains("\"failures\":1"));
        assert!(line.contains("\"new_findings\":1"));
        assert!(line.contains("\"baselined\":0"));
        assert!(line.contains("\"wall_ms\":7"));
        assert!(line.contains("\"panic-freedom\":1"));
        assert!(line.contains("\"wire-layout\":0"));
        assert!(line.contains("\"transitive-panic\":0"));
        assert!(line.contains("\"blocking-in-poll\":0"));
    }

    #[test]
    fn gate_consumes_baseline_counts_and_flags_excess() {
        let f = |line: u32| Finding {
            file: "x.rs".into(),
            line,
            rule: rules::PANIC_FREEDOM,
            message: "m".into(),
            key: None,
        };
        let report = Report {
            findings: vec![f(1), f(2), f(3)],
            files_scanned: 1,
            wall_ms: 0,
        };
        // Baseline accepts two of the identical-fingerprint findings.
        let baseline = sarif::Baseline::from_findings(&[f(1), f(2)]);
        let gate = report.gate(&baseline);
        assert_eq!(gate.baselined, 2);
        assert_eq!(gate.new.len(), 1);
        let line = report.json_line(Some(&gate));
        assert!(line.contains("\"failures\":1"), "{line}");
        assert!(line.contains("\"baselined\":2"), "{line}");
        // An empty baseline gates nothing.
        let gate = report.gate(&sarif::Baseline::default());
        assert_eq!(gate.new.len(), 3);
    }

    #[test]
    fn allow_annotation_suppresses_but_annotation_findings_survive() {
        let cfg = Config::workspace();
        let src = "// bx-lint: allow(panic-freedom, reason = \"checked\")\n\
                   fn f() { x.unwrap(); }\n\
                   fn g() { y.unwrap(); }";
        let lx = lex(src);
        let f = lint_file("crates/driver/src/x.rs", &lx, &cfg);
        assert_eq!(f.len(), 1, "{f:?}"); // only g()'s unwrap
        assert_eq!(f[0].line, 3);

        let src = "// bx-lint: allow(panic-freedom)\nfn f() { x.unwrap(); }";
        let f = lint_file("crates/driver/src/x.rs", &lex(src), &cfg);
        assert_eq!(f.len(), 2, "{f:?}"); // malformed annotation + unsuppressed unwrap
    }

    #[test]
    fn rules_scope_by_crate() {
        let cfg = Config::workspace();
        let src = "fn f() { x.unwrap(); let t = Instant::now(); }";
        // Hot sim crate: both rules fire.
        let f = lint_file("crates/nvme/src/x.rs", &lex(src), &cfg);
        assert_eq!(f.len(), 2, "{f:?}");
        // Non-hot, non-sim crate: neither.
        let f = lint_file("crates/workloads/src/x.rs", &lex(src), &cfg);
        assert!(f.is_empty(), "{f:?}");
        // Sim crate that is not hot: only virtual time.
        let f = lint_file("crates/pcie/src/x.rs", &lex(src), &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, rules::VIRTUAL_TIME);
    }

    #[test]
    fn test_sources_exempt_from_panic_freedom_not_virtual_time() {
        let cfg = Config::workspace();
        let src = "fn t() { x.unwrap(); let i = Instant::now(); }";
        let f = lint_file("crates/driver/tests/chaos.rs", &lex(src), &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, rules::VIRTUAL_TIME);
    }
}
