//! Transitive (reachability) rules over the call graph.
//!
//! Each rule is the same query shape: from a set of **root** items (the
//! designated hot-path entry points, or every poll-shaped function), walk
//! the resolved call edges breadth-first and report the first path from each
//! root to each item carrying a relevant direct **sink**. The finding fires
//! at the *root* — that is the code whose contract is violated — and the
//! diagnostic prints the full call chain so the report is actionable without
//! re-running the analysis:
//!
//! ```text
//! crates/driver/src/driver.rs:694: [transitive-panic] hot path
//! `NvmeDriver::submit` can reach `.unwrap()` via NvmeDriver::submit ->
//! Controller::process_one -> reassembly::finish (crates/ssd/src/reassembly.rs:88)
//! ```
//!
//! Because resolution over-approximates (see [`crate::graph`]), reachability
//! over-approximates too: a reported chain is a *possible* chain under
//! conservative dispatch, not a proven dynamic trace. Chains are suppressed
//! by annotating the **sink** line (the usual `bx-lint: allow(..)` with the
//! base or transitive rule name) or, for whole-root exemptions, annotating
//! the root's `fn` line; residual conservative findings are absorbed by the
//! committed baseline.

use crate::graph::{CallGraph, SinkKind};
use crate::rules;
use crate::Finding;
use std::collections::BTreeMap;

/// The designated hot-path roots: submission and completion entry points of
/// the driver and the SSD controller's processing loop. (The reactor calls
/// the driver directly, so its polls reach these roots by ordinary edges.)
pub fn hot_path_roots(g: &CallGraph) -> Vec<usize> {
    g.select(|it| {
        (it.owner.as_deref() == Some("NvmeDriver") && it.name.starts_with("submit"))
            || it.name.starts_with("poll_completions")
            || (it.owner.as_deref() == Some("Controller") && it.name.starts_with("process"))
    })
}

/// Roots for the reactor concurrency rule: every poll-shaped function —
/// named `poll`/`poll_*` or returning `Poll` — since any of them can run on
/// the reactor's single executor thread.
pub fn poll_roots(g: &CallGraph) -> Vec<usize> {
    g.select(|it| it.name == "poll" || it.name.starts_with("poll_") || it.returns_poll)
}

/// `virtual-time-purity`, transitively: a hot-path root must not *reach*
/// wall-clock reads through any call chain. Direct sinks (depth 0) are
/// already covered file-locally by the token rule in sim crates, so only
/// chains of length ≥ 1 are reported here.
pub fn transitive_virtual_time(g: &CallGraph) -> Vec<Finding> {
    reach_rule(
        g,
        &hot_path_roots(g),
        SinkKind::WallClock,
        rules::TRANSITIVE_VIRTUAL_TIME,
        1,
        "hot path",
        "the simulator must only observe virtual time; pass a `Nanos` in or read the sim clock",
    )
}

/// `panic-freedom`, transitively: a hot-path root must not reach an abort
/// source through any call chain. Depth ≥ 1 only (depth 0 is the token
/// rule's job in hot crates).
pub fn transitive_panic(g: &CallGraph) -> Vec<Finding> {
    reach_rule(
        g,
        &hot_path_roots(g),
        SinkKind::Panic,
        rules::TRANSITIVE_PANIC,
        1,
        "hot path",
        "propagate a typed error or justify the abort at the sink with an allow annotation",
    )
}

/// `blocking-in-poll`: nothing reachable from a poll-shaped function may
/// block the executor thread — `Poll::Pending` is the only legal
/// backpressure. Depth 0 included: no token rule covers blocking.
pub fn blocking_in_poll(g: &CallGraph) -> Vec<Finding> {
    reach_rule(
        g,
        &poll_roots(g),
        SinkKind::Blocking,
        rules::BLOCKING_IN_POLL,
        0,
        "poll-path function",
        "return `Poll::Pending` and arrange a wake-up instead of blocking the executor",
    )
}

/// The shared reachability query: BFS from each root, one finding per
/// (root, sink item) pair, chain reconstructed through parent pointers.
fn reach_rule(
    g: &CallGraph,
    roots: &[usize],
    kind: SinkKind,
    rule: &'static str,
    min_depth: u32,
    root_desc: &str,
    fix_hint: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Deterministic root order: file, then line.
    let mut roots: Vec<usize> = roots.to_vec();
    roots.sort_by(|&a, &b| {
        (&g.items[a].file, g.items[a].line).cmp(&(&g.items[b].file, g.items[b].line))
    });
    roots.dedup();
    for &root in &roots {
        // Whole-root exemption hook: reach findings for an annotated root fn
        // line are filtered by the caller via `is_allowed`; here we only
        // walk.
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut depth: BTreeMap<usize, u32> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        depth.insert(root, 0);
        queue.push_back(root);
        // (sink item, first sink) hits in BFS-discovery order.
        let mut hits: Vec<(usize, u32)> = Vec::new();
        while let Some(node) = queue.pop_front() {
            let d = depth[&node];
            if d >= min_depth {
                let it = &g.items[node];
                if it.sinks.iter().any(|s| s.kind == kind) {
                    hits.push((node, d));
                }
            }
            for e in &g.edges[node] {
                if let std::collections::btree_map::Entry::Vacant(slot) = depth.entry(e.callee) {
                    slot.insert(d + 1);
                    parent.insert(e.callee, node);
                    queue.push_back(e.callee);
                }
            }
        }
        for (sink_node, _) in hits {
            let sink_item = &g.items[sink_node];
            let Some(sink) = sink_item.sinks.iter().find(|s| s.kind == kind) else {
                continue;
            };
            let chain = chain_to(g, &parent, root, sink_node);
            let root_item = &g.items[root];
            findings.push(Finding {
                file: root_item.file.clone(),
                line: root_item.line,
                rule,
                message: format!(
                    "{root_desc} `{}` can reach {} via {} ({}:{}); {}",
                    root_item.qname(),
                    sink.what,
                    chain,
                    sink_item.file,
                    sink.line,
                    fix_hint
                ),
                key: Some(format!(
                    "{rule}|{}|{}|{}",
                    root_item.qname(),
                    sink_item.qname(),
                    sink.what
                )),
            });
        }
    }
    findings
}

/// Renders `root -> ... -> sink` through the BFS parent pointers.
fn chain_to(g: &CallGraph, parent: &BTreeMap<usize, usize>, root: usize, sink: usize) -> String {
    let mut rev = vec![sink];
    let mut cur = sink;
    while cur != root {
        let Some(&p) = parent.get(&cur) else { break };
        rev.push(p);
        cur = p;
    }
    rev.reverse();
    rev.iter()
        .map(|&id| g.items[id].qname())
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Suppresses reach findings whose root `fn` line carries an allow
/// annotation for the rule (whole-root exemption), given the root file's
/// lexed form. Sink-side suppression already happened during extraction.
pub fn root_allowed(lx: &crate::lexer::Lexed, f: &Finding) -> bool {
    lx.is_allowed(f.rule, f.line)
}

#[allow(unused_imports)] // used by lib.rs glue; re-exported for tests
pub use crate::graph::Sink;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CallGraph;
    use crate::lexer::{lex, Lexed};

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let lexed: Vec<(String, Lexed)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), lex(src)))
            .collect();
        CallGraph::build(lexed.iter().map(|(r, l)| (r.as_str(), l)))
    }

    #[test]
    fn transitive_panic_fires_with_full_chain_across_files() {
        let g = graph_of(&[
            (
                "crates/driver/src/driver.rs",
                "pub struct NvmeDriver;\n\
                 impl NvmeDriver { pub fn submit(&mut self) { stage(self) } }\n\
                 fn stage(d: &mut NvmeDriver) { finish::last_step() }",
            ),
            (
                "crates/ssd/src/finish.rs",
                "pub fn last_step() { let v = x.unwrap(); }",
            ),
        ]);
        let f = transitive_panic(&g);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].file, "crates/driver/src/driver.rs");
        assert_eq!(f[0].line, 2);
        assert!(
            f[0].message
                .contains("NvmeDriver::submit -> driver::stage -> finish::last_step"),
            "{}",
            f[0].message
        );
        assert!(f[0].message.contains("crates/ssd/src/finish.rs:1"));
        assert!(f[0]
            .key
            .as_deref()
            .unwrap()
            .starts_with("transitive-panic|"));
    }

    #[test]
    fn direct_sinks_are_not_transitive_findings() {
        // Depth-0 unwrap in the root itself: the token rule's job, not ours.
        let g = graph_of(&[(
            "crates/driver/src/driver.rs",
            "pub struct NvmeDriver;\n\
             impl NvmeDriver { pub fn submit(&mut self) { x.unwrap(); } }",
        )]);
        assert!(transitive_panic(&g).is_empty());
    }

    #[test]
    fn transitive_virtual_time_fires_from_controller_roots() {
        let g = graph_of(&[(
            "crates/ssd/src/controller.rs",
            "pub struct Controller;\n\
             impl Controller { pub fn process_available(&mut self) { tick_now() } }\n\
             fn tick_now() { let t = Instant::now(); }",
        )]);
        let f = transitive_virtual_time(&g);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Controller::process_available"));
        assert!(f[0].message.contains("`Instant`"));
    }

    #[test]
    fn blocking_in_poll_fires_at_depth_zero_and_deeper() {
        let g = graph_of(&[(
            "crates/driver/src/reactor.rs",
            "pub struct D;\n\
             impl Drive for D {\n\
               fn poll_submit(&mut self) -> Poll<()> { self.wait_room(); Poll::Ready(()) }\n\
             }\n\
             impl D { fn wait_room(&mut self) { while self.full() { } } }",
        )]);
        let f = blocking_in_poll(&g);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("busy-wait"), "{}", f[0].message);

        let g = graph_of(&[(
            "crates/driver/src/reactor.rs",
            "fn poll_once() { std::thread::sleep(d); }",
        )]);
        let f = blocking_in_poll(&g);
        assert_eq!(f.len(), 1, "{f:?}"); // depth 0 counts here
    }

    #[test]
    fn sink_annotation_suppresses_the_chain() {
        let g = graph_of(&[(
            "crates/driver/src/driver.rs",
            "pub struct NvmeDriver;\n\
             impl NvmeDriver { pub fn submit(&mut self) { helper() } }\n\
             fn helper() {\n\
               // bx-lint: allow(transitive-panic, reason = \"length checked by caller\")\n\
               x.unwrap();\n\
             }",
        )]);
        assert!(transitive_panic(&g).is_empty());
    }

    #[test]
    fn one_finding_per_root_sink_pair_with_stable_key() {
        // Two distinct chains to the same sink item: one finding.
        let g = graph_of(&[(
            "crates/driver/src/driver.rs",
            "pub struct NvmeDriver;\n\
             impl NvmeDriver { pub fn submit(&mut self) { a(); b(); } }\n\
             fn a() { sink_fn() }\n\
             fn b() { sink_fn() }\n\
             fn sink_fn() { x.unwrap(); }",
        )]);
        let f = transitive_panic(&g);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(
            f[0].key.as_deref(),
            Some("transitive-panic|NvmeDriver::submit|driver::sink_fn|`.unwrap()`")
        );
    }
}
