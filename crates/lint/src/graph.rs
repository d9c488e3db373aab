//! Item & call-graph extraction over the lexed token streams.
//!
//! The per-file token rules (PR 5) cannot see that a sim-crate hot path
//! *calls* a wall-clock-tainted helper defined two crates away — they only
//! see the helper's own file, which may not even be rule-scoped. This module
//! turns the flat token streams the existing lexer already produces into a
//! workspace-level **call graph**: every `fn` item (free functions, inherent
//! methods, trait-impl methods), every call site inside their bodies, and a
//! conservative resolution from call sites to items. The transitive rules in
//! [`crate::reach`] are then plain reachability queries over this graph.
//!
//! ## Resolution policy (deliberately over-approximate)
//!
//! bx-lint has no type information, so resolution must *never* miss a real
//! edge; spurious edges are acceptable (the baseline gate absorbs the
//! resulting conservative findings), missing edges are not:
//!
//! * `Qual::name(..)` — resolves to items whose impl owner is `Qual` or
//!   whose module file is named `Qual` (cross-file resolution by module
//!   path). An unknown qualifier (e.g. `String::from`) resolves to nothing:
//!   external code has no workspace body to analyze.
//! * `self.name(..)` — resolves to the enclosing impl's own method when one
//!   exists, otherwise to **every** method of that name in the workspace
//!   (trait dispatch is resolved conservatively: a call through a `dyn Trait`
//!   receiver reaches every impl of that method, and by-name fallback widens
//!   that further rather than guessing).
//! * `recv.name(..)` — by-name over all methods of that name (same
//!   conservative dispatch policy).
//! * `name(..)` — free functions in the same file first, falling back
//!   by name to every free function called `name`.
//!
//! `#[cfg(test)]` items are excluded from the graph entirely: test helpers
//! may panic and sleep at will, and edges into them would be noise.
//!
//! While extracting, each item records its direct **sinks** — wall-clock
//! uses, panic sources, blocking operations — minus any site carrying a
//! reasoned `bx-lint: allow(..)` annotation for the corresponding rule, so
//! the escape hatch suppresses transitive findings at the sink exactly as it
//! suppresses token findings.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::rules;
use std::collections::BTreeMap;

/// What a function body does directly that a transitive rule cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SinkKind {
    /// Reads host wall-clock time (`Instant`, `SystemTime`, `std::time`...).
    WallClock,
    /// Can abort (`.unwrap()`, `.expect(..)`, `panic!`-family macros).
    Panic,
    /// Can block the thread (`thread::sleep`, busy-wait loops, blocking
    /// mutex acquisition, spin hints).
    Blocking,
}

/// One direct occurrence of a sink inside a function body.
#[derive(Debug, Clone)]
pub struct Sink {
    /// Which family of sink this is.
    pub kind: SinkKind,
    /// 1-based line of the occurrence.
    pub line: u32,
    /// Human-readable description of the offending construct.
    pub what: String,
}

/// One extracted function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index into [`CallGraph::items`].
    pub id: usize,
    /// Repo-relative file the item is defined in.
    pub file: String,
    /// Last segment of the item's module path (file stem; crate name for
    /// `lib.rs`/`mod.rs`).
    pub module_tail: String,
    /// Impl owner type, for methods (`impl Owner { .. }`).
    pub owner: Option<String>,
    /// Trait being implemented, for trait-impl methods
    /// (`impl Trait for Owner { .. }`).
    pub trait_name: Option<String>,
    /// The function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the body's closing brace.
    pub end_line: u32,
    /// Whether the signature mentions `Poll` (poll-shaped function).
    pub returns_poll: bool,
    /// Direct sinks in the body (annotation-suppressed sites excluded).
    pub sinks: Vec<Sink>,
}

impl FnItem {
    /// Qualified display name: `Owner::name` for methods,
    /// `module::name` for free functions.
    pub fn qname(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => format!("{}::{}", self.module_tail, self.name),
        }
    }
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallStyle {
    /// `name(..)` — a free call.
    Free,
    /// `recv.name(..)` — a method call; `on_self` when the receiver is
    /// literally `self`.
    Method {
        /// Whether the receiver token is `self`.
        on_self: bool,
    },
    /// `Qual::name(..)` — a path-qualified call; `qual` is the last path
    /// segment before the name (`Self` resolves to the enclosing owner).
    Qualified {
        /// The qualifying segment.
        qual: String,
    },
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Id of the calling [`FnItem`].
    pub caller: usize,
    /// 1-based line of the call.
    pub line: u32,
    /// The called name.
    pub name: String,
    /// How the callee was named.
    pub style: CallStyle,
}

/// A resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Callee item id.
    pub callee: usize,
    /// Line of the first call site producing this edge.
    pub line: u32,
}

/// The extracted and resolved call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All function items, in file/line order of extraction.
    pub items: Vec<FnItem>,
    /// All raw call sites (pre-resolution, for inspection and tests).
    pub calls: Vec<CallSite>,
    /// Adjacency: `edges[caller]` is the sorted, deduplicated callee list.
    pub edges: Vec<Vec<Edge>>,
}

impl CallGraph {
    /// Builds the graph over `(repo-relative path, lexed file)` pairs.
    pub fn build<'a>(files: impl IntoIterator<Item = (&'a str, &'a Lexed)>) -> CallGraph {
        let mut items = Vec::new();
        let mut calls = Vec::new();
        for (rel, lx) in files {
            extract_file(rel, lx, &mut items, &mut calls);
        }
        let edges = resolve(&items, &calls);
        CallGraph {
            items,
            calls,
            edges,
        }
    }

    /// Items matching a predicate, as ids (deterministic order).
    pub fn select(&self, pred: impl Fn(&FnItem) -> bool) -> Vec<usize> {
        self.items
            .iter()
            .filter(|it| pred(it))
            .map(|it| it.id)
            .collect()
    }

    /// Serializes the graph as a single JSON document: every item with its
    /// qualified name, location, direct sinks, and resolved callee ids.
    /// Parseable by [`crate::sarif::json`] (round-trip tested).
    pub fn to_json(&self) -> String {
        use crate::sarif::esc;
        let mut out = String::from("{\"version\":1,\"items\":[");
        for (i, it) in self.items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let sinks = it
                .sinks
                .iter()
                .map(|s| {
                    format!(
                        "{{\"kind\":\"{}\",\"line\":{},\"what\":\"{}\"}}",
                        match s.kind {
                            SinkKind::WallClock => "wall-clock",
                            SinkKind::Panic => "panic",
                            SinkKind::Blocking => "blocking",
                        },
                        s.line,
                        esc(&s.what)
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            let callees = self.edges[it.id]
                .iter()
                .map(|e| e.callee.to_string())
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "{{\"id\":{},\"qname\":\"{}\",\"file\":\"{}\",\"line\":{},\"end_line\":{},\
                 \"returns_poll\":{},\"sinks\":[{}],\"calls\":[{}]}}",
                it.id,
                esc(&it.qname()),
                esc(&it.file),
                it.line,
                it.end_line,
                it.returns_poll,
                sinks,
                callees
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Last module-path segment for a repo-relative file: the file stem, except
/// `lib.rs`/`mod.rs`/`main.rs` which take their directory's crate name.
fn module_tail_of(rel: &str) -> String {
    let stem = rel
        .rsplit('/')
        .next()
        .unwrap_or(rel)
        .trim_end_matches(".rs");
    if matches!(stem, "lib" | "mod" | "main") {
        rel.strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or(stem)
            .to_string()
    } else {
        stem.to_string()
    }
}

/// Identifiers that look like calls but are control flow or bindings.
const KEYWORDS: [&str; 27] = [
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "move", "mut", "pub", "ref",
    "return", "static", "while",
];

enum ScopeKind {
    Impl {
        owner: Option<String>,
        trait_name: Option<String>,
    },
    Fn {
        item: usize,
    },
    Block,
}

struct Scope {
    kind: ScopeKind,
    open_depth: i32,
}

struct FnSig {
    name: String,
    returns_poll: bool,
    has_body: bool,
    /// Index of the body `{` (has_body) or the terminating `;`.
    body_or_end: usize,
}

fn extract_file(rel: &str, lx: &Lexed, items: &mut Vec<FnItem>, calls: &mut Vec<CallSite>) {
    let toks = &lx.tokens;
    let module_tail = module_tail_of(rel);
    let mut scopes: Vec<Scope> = Vec::new();
    let mut depth = 0i32;
    let mut pending: Option<ScopeKind> = None;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        // Skip attributes wholesale: `#[..]` / `#![..]` contain call-shaped
        // tokens (`derive(..)`, `cfg(..)`) that are not calls.
        if t.is_punct('#') {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct('[')) {
                let mut d = 0i32;
                while j < toks.len() {
                    if toks[j].is_punct('[') {
                        d += 1;
                    } else if toks[j].is_punct(']') {
                        d -= 1;
                        if d == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
                i = j;
                continue;
            }
        }
        if t.is_punct('{') {
            depth += 1;
            scopes.push(Scope {
                kind: pending.take().unwrap_or(ScopeKind::Block),
                open_depth: depth,
            });
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            while scopes.last().is_some_and(|s| s.open_depth == depth) {
                if let Some(Scope {
                    kind: ScopeKind::Fn { item },
                    ..
                }) = scopes.pop()
                {
                    items[item].end_line = t.line;
                }
            }
            depth -= 1;
            i += 1;
            continue;
        }
        if t.is_ident("impl") && pending.is_none() {
            if let Some((owner, trait_name, brace)) = parse_impl_header(toks, i) {
                pending = Some(ScopeKind::Impl { owner, trait_name });
                i = brace;
                continue;
            }
        }
        if t.is_ident("fn") && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
            if let Some(sig) = parse_fn_sig(toks, i) {
                if !sig.has_body {
                    i = sig.body_or_end + 1;
                    continue;
                }
                if lx.in_test_code(t.line) {
                    // Test items stay out of the graph; their body scopes as
                    // an anonymous block so brace tracking stays balanced.
                    i = sig.body_or_end;
                    continue;
                }
                let (owner, trait_name) = enclosing_impl(&scopes);
                let id = items.len();
                items.push(FnItem {
                    id,
                    file: rel.to_string(),
                    module_tail: module_tail.clone(),
                    owner,
                    trait_name,
                    name: sig.name,
                    line: t.line,
                    end_line: t.line,
                    returns_poll: sig.returns_poll,
                    sinks: Vec::new(),
                });
                pending = Some(ScopeKind::Fn { item: id });
                i = sig.body_or_end;
                continue;
            }
        }
        if let Some(fn_id) = current_fn(&scopes) {
            scan_body_token(lx, toks, i, fn_id, items, calls);
        }
        i += 1;
    }
}

/// Innermost enclosing `impl` scope's owner/trait.
fn enclosing_impl(scopes: &[Scope]) -> (Option<String>, Option<String>) {
    for s in scopes.iter().rev() {
        if let ScopeKind::Impl { owner, trait_name } = &s.kind {
            return (owner.clone(), trait_name.clone());
        }
    }
    (None, None)
}

/// Innermost enclosing `fn` scope's item id.
fn current_fn(scopes: &[Scope]) -> Option<usize> {
    scopes.iter().rev().find_map(|s| match s.kind {
        ScopeKind::Fn { item } => Some(item),
        _ => None,
    })
}

/// Parses `impl [<..>] [Trait for] Type [where ..] {`, returning
/// `(owner, trait, index-of-open-brace)`.
fn parse_impl_header(toks: &[Tok], i: usize) -> Option<(Option<String>, Option<String>, usize)> {
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(toks, j)?;
    }
    let mut segs: Vec<String> = Vec::new();
    let mut trait_name: Option<String> = None;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') {
            return Some((segs.last().cloned(), trait_name, j));
        }
        if t.is_punct(';') {
            return None;
        }
        if t.is_ident("for") {
            trait_name = segs.last().cloned();
            segs.clear();
            j += 1;
            continue;
        }
        if t.is_ident("where") {
            while j < toks.len() && !toks[j].is_punct('{') {
                if toks[j].is_punct(';') {
                    return None;
                }
                j += 1;
            }
            continue;
        }
        if t.is_punct('<') {
            j = skip_angles(toks, j)?;
            continue;
        }
        if t.kind == TokKind::Ident {
            segs.push(t.text.clone());
        }
        j += 1;
    }
    None
}

/// Skips a balanced `<..>` starting at `i` (which must be `<`), treating a
/// `>` preceded by `-` as part of an `->` arrow inside `Fn(..) -> T` bounds.
fn skip_angles(toks: &[Tok], i: usize) -> Option<usize> {
    let mut d = 0i32;
    let mut j = i;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            d += 1;
        } else if t.is_punct('>') && !(j > 0 && toks[j - 1].is_punct('-')) {
            d -= 1;
            if d == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    None
}

/// Parses the signature starting at the `fn` keyword: name, whether `Poll`
/// appears in the signature, and where the body (or `;`) is.
fn parse_fn_sig(toks: &[Tok], i: usize) -> Option<FnSig> {
    let name = toks.get(i + 1)?.text.clone();
    let mut returns_poll = false;
    let mut j = i + 2;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') {
            return Some(FnSig {
                name,
                returns_poll,
                has_body: true,
                body_or_end: j,
            });
        }
        if t.is_punct(';') {
            return Some(FnSig {
                name,
                returns_poll,
                has_body: false,
                body_or_end: j,
            });
        }
        if t.is_ident("Poll") {
            returns_poll = true;
        }
        j += 1;
    }
    None
}

/// Records call sites and direct sinks for the token at `i` inside `fn_id`.
fn scan_body_token(
    lx: &Lexed,
    toks: &[Tok],
    i: usize,
    fn_id: usize,
    items: &mut [FnItem],
    calls: &mut Vec<CallSite>,
) {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return;
    }
    let line = t.line;
    if lx.in_test_code(line) {
        return;
    }
    let next_is = |c: char| toks.get(i + 1).is_some_and(|t| t.is_punct(c));
    let prev_is = |c: char| i >= 1 && toks[i - 1].is_punct(c);
    let allowed = |rule_names: &[&str]| rule_names.iter().any(|r| lx.is_allowed(r, line));
    let mut sink = |kind: SinkKind, what: String| {
        items[fn_id].sinks.push(Sink { kind, line, what });
    };

    // --- call sites -------------------------------------------------------
    if next_is('(') && !KEYWORDS.contains(&t.text.as_str()) && t.text != "self" && t.text != "Self"
    {
        let style = if prev_is('.') {
            CallStyle::Method {
                on_self: i >= 2 && toks[i - 2].is_ident("self"),
            }
        } else if prev_is(':') && i >= 2 && toks[i - 2].is_punct(':') {
            match toks.get(i.wrapping_sub(3)) {
                Some(q) if q.kind == TokKind::Ident => CallStyle::Qualified {
                    qual: q.text.clone(),
                },
                // `<T as Trait>::name(..)` and friends: fall back by name
                // over all methods — conservative dispatch.
                _ => CallStyle::Method { on_self: false },
            }
        } else {
            CallStyle::Free
        };
        calls.push(CallSite {
            caller: fn_id,
            line,
            name: t.text.clone(),
            style,
        });
    }

    // --- panic sinks ------------------------------------------------------
    if (t.is_ident("unwrap") || t.is_ident("expect"))
        && prev_is('.')
        && next_is('(')
        && !allowed(&[rules::PANIC_FREEDOM, rules::TRANSITIVE_PANIC])
    {
        sink(SinkKind::Panic, format!("`.{}()`", t.text));
    }
    if matches!(
        t.text.as_str(),
        "panic" | "unreachable" | "todo" | "unimplemented"
    ) && next_is('!')
        && !allowed(&[rules::PANIC_FREEDOM, rules::TRANSITIVE_PANIC])
    {
        sink(SinkKind::Panic, format!("`{}!`", t.text));
    }

    // --- wall-clock sinks -------------------------------------------------
    let vt_allowed = allowed(&[rules::VIRTUAL_TIME, rules::TRANSITIVE_VIRTUAL_TIME]);
    if matches!(
        t.text.as_str(),
        "Instant" | "SystemTime" | "chrono" | "coarsetime" | "clock_gettime"
    ) && !vt_allowed
    {
        sink(SinkKind::WallClock, format!("`{}`", t.text));
    }
    let path2 = |a: &str, b: &str| {
        t.is_ident(a)
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident(b))
    };
    if path2("std", "time") && !vt_allowed {
        sink(SinkKind::WallClock, "`std::time`".to_string());
    }
    if path2("thread", "sleep") {
        if !vt_allowed {
            sink(SinkKind::WallClock, "`thread::sleep`".to_string());
        }
        if !allowed(&[rules::BLOCKING_IN_POLL]) {
            sink(SinkKind::Blocking, "`thread::sleep`".to_string());
        }
    }

    // --- blocking sinks ---------------------------------------------------
    let blocking_allowed = allowed(&[rules::BLOCKING_IN_POLL]);
    if t.is_ident("lock") && prev_is('.') && next_is('(') && !blocking_allowed {
        sink(
            SinkKind::Blocking,
            "`.lock()` (blocking mutex acquisition)".to_string(),
        );
    }
    if (t.is_ident("spin_loop") || t.is_ident("yield_now")) && !blocking_allowed {
        sink(SinkKind::Blocking, format!("`{}` busy-wait hint", t.text));
    }
    if t.is_ident("loop")
        && next_is('{')
        && toks.get(i + 2).is_some_and(|t| t.is_punct('}'))
        && !blocking_allowed
    {
        sink(SinkKind::Blocking, "empty `loop {}` busy-wait".to_string());
    }
    if t.is_ident("while") && !blocking_allowed {
        // `while <cond> { }` — an empty body means the loop makes progress
        // only by re-reading shared state: a busy-wait.
        let mut d = 0i32;
        let mut j = i + 1;
        while j < toks.len() {
            let u = &toks[j];
            if u.is_punct('(') || u.is_punct('[') {
                d += 1;
            } else if u.is_punct(')') || u.is_punct(']') {
                d -= 1;
            } else if u.is_punct('{') && d == 0 {
                if toks.get(j + 1).is_some_and(|t| t.is_punct('}')) {
                    sink(
                        SinkKind::Blocking,
                        "busy-wait `while` loop with an empty body".to_string(),
                    );
                }
                break;
            } else if u.is_punct(';') && d == 0 {
                break;
            }
            j += 1;
        }
    }
}

/// Resolves call sites to edges per the module-path-then-by-name policy.
fn resolve(items: &[FnItem], calls: &[CallSite]) -> Vec<Vec<Edge>> {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for it in items {
        by_name.entry(&it.name).or_default().push(it.id);
    }
    let mut adj: Vec<BTreeMap<usize, u32>> = vec![BTreeMap::new(); items.len()];
    for c in calls {
        let Some(cands) = by_name.get(c.name.as_str()) else {
            continue;
        };
        let caller = &items[c.caller];
        let pick: Vec<usize> = match &c.style {
            CallStyle::Qualified { qual } => {
                let qual = if qual == "Self" {
                    caller.owner.clone()
                } else {
                    Some(qual.clone())
                };
                let Some(q) = qual else { continue };
                cands
                    .iter()
                    .copied()
                    .filter(|&id| {
                        items[id].owner.as_deref() == Some(q.as_str())
                            || (items[id].owner.is_none() && items[id].module_tail == q)
                    })
                    .collect()
            }
            CallStyle::Method { on_self } => {
                let own: Vec<usize> = if *on_self {
                    match &caller.owner {
                        Some(o) => cands
                            .iter()
                            .copied()
                            .filter(|&id| items[id].owner.as_deref() == Some(o.as_str()))
                            .collect(),
                        None => Vec::new(),
                    }
                } else {
                    Vec::new()
                };
                if own.is_empty() {
                    cands
                        .iter()
                        .copied()
                        .filter(|&id| items[id].owner.is_some())
                        .collect()
                } else {
                    own
                }
            }
            CallStyle::Free => {
                let local: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&id| items[id].owner.is_none() && items[id].file == caller.file)
                    .collect();
                if local.is_empty() {
                    cands
                        .iter()
                        .copied()
                        .filter(|&id| items[id].owner.is_none())
                        .collect()
                } else {
                    local
                }
            }
        };
        for id in pick {
            if id != c.caller {
                adj[c.caller].entry(id).or_insert(c.line);
            }
        }
    }
    adj.into_iter()
        .map(|m| {
            m.into_iter()
                .map(|(callee, line)| Edge { callee, line })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let lexed: Vec<(String, Lexed)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), lex(src)))
            .collect();
        CallGraph::build(lexed.iter().map(|(r, l)| (r.as_str(), l)))
    }

    fn item<'g>(g: &'g CallGraph, qname: &str) -> &'g FnItem {
        g.items
            .iter()
            .find(|it| it.qname() == qname)
            .unwrap_or_else(|| panic!("no item {qname}: {:?}", qnames(g)))
    }

    fn qnames(g: &CallGraph) -> Vec<String> {
        g.items.iter().map(|i| i.qname()).collect()
    }

    fn callees(g: &CallGraph, qname: &str) -> Vec<String> {
        g.edges[item(g, qname).id]
            .iter()
            .map(|e| g.items[e.callee].qname())
            .collect()
    }

    #[test]
    fn extracts_free_fns_methods_and_trait_impls() {
        let g = graph_of(&[(
            "crates/x/src/a.rs",
            "pub fn free_one() {}\n\
             pub struct T;\n\
             impl T { pub fn method_one(&self) {} }\n\
             impl Drive for T { fn poll_go(&mut self) -> Poll<()> { Poll::Ready(()) } }",
        )]);
        assert_eq!(
            qnames(&g),
            vec!["a::free_one", "T::method_one", "T::poll_go"]
        );
        let pg = item(&g, "T::poll_go");
        assert_eq!(pg.trait_name.as_deref(), Some("Drive"));
        assert!(pg.returns_poll);
        assert!(!item(&g, "T::method_one").returns_poll);
    }

    #[test]
    fn generic_impl_headers_parse() {
        let g = graph_of(&[(
            "crates/x/src/a.rs",
            "impl<F: FnMut(u64) -> u64> Runner<F> { fn go(&mut self) { helper() } }\n\
             fn helper() {}",
        )]);
        assert_eq!(item(&g, "Runner::go").owner.as_deref(), Some("Runner"));
        assert_eq!(callees(&g, "Runner::go"), vec!["a::helper"]);
    }

    #[test]
    fn free_calls_prefer_same_file_then_fall_back_by_name() {
        let g = graph_of(&[
            (
                "crates/x/src/a.rs",
                "pub fn entry() { local(); remote(); }\nfn local() {}",
            ),
            ("crates/x/src/b.rs", "pub fn remote() {}\npub fn local() {}"),
        ]);
        // `local()` resolves only to the same-file item; `remote()` falls
        // back by name across files.
        assert_eq!(callees(&g, "a::entry"), vec!["a::local", "b::remote"]);
    }

    #[test]
    fn qualified_calls_resolve_by_owner_or_module() {
        let g = graph_of(&[
            (
                "crates/x/src/a.rs",
                "pub fn entry() { mem::alloc(); Pool::alloc(); String::from(\"x\"); }",
            ),
            ("crates/x/src/mem.rs", "pub fn alloc() {}"),
            (
                "crates/x/src/pool.rs",
                "pub struct Pool;\nimpl Pool { pub fn alloc() {} }",
            ),
        ]);
        // Module-path and owner-qualified calls resolve precisely; the
        // external `String::from` resolves to nothing.
        assert_eq!(callees(&g, "a::entry"), vec!["mem::alloc", "Pool::alloc"]);
    }

    #[test]
    fn self_method_prefers_own_impl_over_by_name() {
        let g = graph_of(&[(
            "crates/x/src/a.rs",
            "pub struct A;\npub struct B;\n\
             impl A { pub fn go(&self) { self.step() } fn step(&self) {} }\n\
             impl B { pub fn step(&self) {} }",
        )]);
        assert_eq!(callees(&g, "A::go"), vec!["A::step"]);
    }

    #[test]
    fn foreign_method_dispatch_is_conservative_by_name() {
        let g = graph_of(&[(
            "crates/x/src/a.rs",
            "pub struct A;\npub struct B;\n\
             impl A { pub fn step(&self) {} }\n\
             impl B { pub fn step(&self) {} }\n\
             pub fn entry(d: &dyn Stepper) { d.step() }",
        )]);
        // A method call on an unknown receiver reaches every `step` method.
        assert_eq!(callees(&g, "a::entry"), vec!["A::step", "B::step"]);
    }

    #[test]
    fn sinks_recorded_with_annotation_suppression() {
        let g = graph_of(&[(
            "crates/x/src/a.rs",
            "fn bad() { x.unwrap(); let t = Instant::now(); }\n\
             fn justified() {\n\
                 // bx-lint: allow(panic-freedom, reason = \"checked\")\n\
                 x.unwrap();\n\
             }",
        )]);
        let bad = item(&g, "a::bad");
        assert!(bad.sinks.iter().any(|s| s.kind == SinkKind::Panic));
        assert!(bad.sinks.iter().any(|s| s.kind == SinkKind::WallClock));
        assert!(item(&g, "a::justified").sinks.is_empty());
    }

    #[test]
    fn blocking_sinks_detected() {
        let g = graph_of(&[(
            "crates/x/src/a.rs",
            "fn a() { std::thread::sleep(d); }\n\
             fn b(m: &Mutex<u8>) { let _g = m.lock(); }\n\
             fn c(q: &Q) { while q.full() { } }\n\
             fn d() { loop { } }",
        )]);
        for (q, what) in [
            ("a::a", "sleep"),
            ("a::b", "lock"),
            ("a::c", "busy-wait"),
            ("a::d", "loop"),
        ] {
            assert!(
                item(&g, q)
                    .sinks
                    .iter()
                    .any(|s| s.kind == SinkKind::Blocking && s.what.contains(what)),
                "{q} should have a blocking sink: {:?}",
                item(&g, q).sinks
            );
        }
        // A while loop with a real body is not a busy-wait.
        let g = graph_of(&[(
            "crates/x/src/a.rs",
            "fn e(q: &Q) { while q.full() { q.pop(); } }",
        )]);
        assert!(item(&g, "a::e")
            .sinks
            .iter()
            .all(|s| s.kind != SinkKind::Blocking));
    }

    #[test]
    fn test_items_stay_out_of_the_graph() {
        let g = graph_of(&[(
            "crates/x/src/a.rs",
            "pub fn lib_fn() {}\n\
             #[cfg(test)]\nmod tests {\n  fn helper() { x.unwrap(); }\n}",
        )]);
        assert_eq!(qnames(&g), vec!["a::lib_fn"]);
    }

    #[test]
    fn attributes_are_not_calls() {
        let g = graph_of(&[(
            "crates/x/src/a.rs",
            "#[derive(Debug, Clone)]\npub struct S;\n\
             pub fn f() { #[allow(dead_code)] let x = 1; g(); }\nfn g() {}",
        )]);
        assert_eq!(callees(&g, "a::f"), vec!["a::g"]);
    }

    #[test]
    fn module_tail_resolution() {
        assert_eq!(module_tail_of("crates/driver/src/reactor.rs"), "reactor");
        assert_eq!(module_tail_of("crates/driver/src/lib.rs"), "driver");
        assert_eq!(module_tail_of("src/lib.rs"), "lib");
    }

    #[test]
    fn graph_json_serializes_and_reparses() {
        let g = graph_of(&[(
            "crates/x/src/a.rs",
            "pub fn entry() { helper() }\nfn helper() { x.unwrap(); }",
        )]);
        let json = g.to_json();
        let v = serde::Value::parse_json(&json).expect("graph json parses");
        let items = v
            .get("items")
            .and_then(|i| i.as_array())
            .expect("items array");
        assert_eq!(items.len(), 2);
        assert_eq!(
            items[0].get("qname").and_then(|q| q.as_str()),
            Some("a::entry")
        );
    }
}
