//! Call-graph resolution acceptance suite: cross-file resolution by module
//! path, method-vs-free-fn disambiguation, and the deliberately
//! conservative trait-impl dispatch policy. These pin the resolution
//! semantics DESIGN.md §16 documents, over synthetic multi-file inputs.

use bx_lint::graph::CallGraph;
use bx_lint::lexer::{lex, Lexed};

fn build(files: &[(&str, &str)]) -> (CallGraph, Vec<Lexed>) {
    let lexed: Vec<Lexed> = files.iter().map(|(_, src)| lex(src)).collect();
    let g = CallGraph::build(
        files
            .iter()
            .zip(lexed.iter())
            .map(|((path, _), lx)| (*path, lx)),
    );
    (g, lexed)
}

fn id_of(g: &CallGraph, qname: &str) -> usize {
    g.items
        .iter()
        .find(|it| it.qname() == qname)
        .unwrap_or_else(|| {
            panic!(
                "no item `{qname}` in {:?}",
                g.items.iter().map(|it| it.qname()).collect::<Vec<_>>()
            )
        })
        .id
}

fn callees(g: &CallGraph, caller: usize) -> Vec<String> {
    g.edges[caller]
        .iter()
        .map(|e| g.items[e.callee].qname())
        .collect()
}

#[test]
fn qualified_call_resolves_across_files_by_module_path() {
    let (g, _lx) = build(&[
        (
            "crates/a/src/driver.rs",
            "pub fn submit() { codec::encode(); }",
        ),
        ("crates/a/src/codec.rs", "pub fn encode() {}"),
    ]);
    let submit = id_of(&g, "driver::submit");
    assert_eq!(callees(&g, submit), vec!["codec::encode".to_string()]);
}

#[test]
fn qualified_call_to_unknown_module_makes_no_edge() {
    // `serde_json::to_string` is external: the graph must stay silent
    // rather than guess, or every external call would poison reachability.
    let (g, _lx) = build(&[(
        "crates/a/src/driver.rs",
        "pub fn submit() { serde_json::to_string(); }\npub fn to_string() {}",
    )]);
    let submit = id_of(&g, "driver::submit");
    assert!(
        callees(&g, submit).is_empty(),
        "unknown qualifier must not fall back by name: {:?}",
        callees(&g, submit)
    );
}

#[test]
fn free_call_prefers_same_file_then_falls_back_by_name() {
    let (g, _lx) = build(&[
        (
            "crates/a/src/local.rs",
            "pub fn entry() { helper(); }\nfn helper() {}",
        ),
        ("crates/a/src/other.rs", "pub fn helper() {}"),
        (
            "crates/a/src/remote.rs",
            // No same-file `helper`, so this resolves to ALL free fns named
            // `helper` — the conservative by-name fallback.
            "pub fn entry2() { helper(); }",
        ),
    ]);
    let entry = id_of(&g, "local::entry");
    assert_eq!(
        callees(&g, entry),
        vec!["local::helper".to_string()],
        "same-file definition must win"
    );
    let entry2 = id_of(&g, "remote::entry2");
    let mut fallback = callees(&g, entry2);
    fallback.sort();
    assert_eq!(
        fallback,
        vec!["local::helper".to_string(), "other::helper".to_string()]
    );
}

#[test]
fn method_call_does_not_resolve_to_free_fn() {
    let (g, _lx) = build(&[(
        "crates/a/src/m.rs",
        "pub struct Ring;\n\
         impl Ring {\n\
             pub fn push(&self) {}\n\
             pub fn fill(&self, other: &Ring) { other.push(); }\n\
         }\n\
         pub fn push() {}\n\
         pub fn drive(r: &Ring) { push(); }",
    )]);
    let fill = id_of(&g, "Ring::fill");
    assert_eq!(
        callees(&g, fill),
        vec!["Ring::push".to_string()],
        "receiver call must bind to methods only"
    );
    let drive = id_of(&g, "m::drive");
    assert_eq!(
        callees(&g, drive),
        vec!["m::push".to_string()],
        "free call must bind to free fns only"
    );
}

#[test]
fn self_method_call_prefers_same_owner() {
    let (g, _lx) = build(&[(
        "crates/a/src/m.rs",
        "pub struct A;\npub struct B;\n\
         impl A { pub fn go(&self) { self.step(); } fn step(&self) {} }\n\
         impl B { pub fn step(&self) {} }",
    )]);
    let go = id_of(&g, "A::go");
    assert_eq!(
        callees(&g, go),
        vec!["A::step".to_string()],
        "`self.step()` must not fan out to other owners' methods"
    );
}

#[test]
fn trait_dispatch_is_conservatively_fanned_out() {
    // `d.poll_status()` on an unknown receiver type must reach EVERY
    // `poll_status` method — both trait impls — so reachability never
    // under-approximates through dynamic dispatch.
    let (g, _lx) = build(&[(
        "crates/a/src/m.rs",
        "pub struct Fast;\npub struct Slow;\n\
         impl Drive for Fast { fn poll_status(&self) {} }\n\
         impl Drive for Slow { fn poll_status(&self) {} }\n\
         pub fn tick(d: &Fast) { d.poll_status(); }",
    )]);
    let tick = id_of(&g, "m::tick");
    let mut targets = callees(&g, tick);
    targets.sort();
    assert_eq!(
        targets,
        vec![
            "Fast::poll_status".to_string(),
            "Slow::poll_status".to_string()
        ]
    );
    // And the trait name is recorded for root selection.
    let fast = &g.items[id_of(&g, "Fast::poll_status")];
    assert_eq!(fast.trait_name.as_deref(), Some("Drive"));
}

#[test]
fn self_qualified_call_resolves_to_enclosing_owner() {
    let (g, _lx) = build(&[(
        "crates/a/src/m.rs",
        "pub struct Q;\n\
         impl Q { pub fn a() { Self::b(); } pub fn b() {} }",
    )]);
    let a = id_of(&g, "Q::a");
    assert_eq!(callees(&g, a), vec!["Q::b".to_string()]);
}

#[test]
fn test_code_is_excluded_from_the_graph() {
    let (g, _lx) = build(&[(
        "crates/a/src/m.rs",
        "pub fn real() {}\n\
         #[cfg(test)]\n\
         mod tests {\n\
             #[test]\n\
             fn t() { super::real(); }\n\
         }",
    )]);
    assert!(
        g.items.iter().all(|it| it.name != "t"),
        "test fns must not become graph items: {:?}",
        g.items.iter().map(|it| it.qname()).collect::<Vec<_>>()
    );
}

#[test]
fn graph_json_dump_is_parseable_and_complete() {
    let (g, _lx) = build(&[
        (
            "crates/a/src/driver.rs",
            "pub fn submit() { codec::encode(); }",
        ),
        ("crates/a/src/codec.rs", "pub fn encode() {}"),
    ]);
    let doc = g.to_json();
    let v = serde::Value::parse_json(&doc).expect("graph JSON parses");
    let items = v.get("items").and_then(|x| x.as_array()).unwrap();
    assert_eq!(items.len(), g.items.len());
}
