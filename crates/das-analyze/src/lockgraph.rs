//! Pass — inter-procedural lock-order analysis (`DA407`–`DA409`).
//!
//! The `lints` pass checks each function's *first* acquisitions
//! against the declared hierarchy (`DA405`) — it cannot see a
//! deadlock assembled across a call: `f` locks `conns` and calls
//! `g`, `g` locks `inner`. This pass can:
//!
//! 1. Extract every das-net function with its lock sites, tracking
//!    guard lifetimes *scope-aware*: a `let g = lock(&x);` guard
//!    lives until its enclosing block closes or `drop(g)`; a
//!    temporary guard (`lock(&x).field…`) dies at the end of its
//!    statement. Block-scoped guards that die before a peer call
//!    therefore do not leak into the callee — the pattern das-net's
//!    handlers use deliberately.
//! 2. Build the intra-crate call graph by name (an identifier called
//!    as `name(…)` that matches a das-net `fn`), and compute each
//!    function's transitively-acquired lock set to fixpoint.
//! 3. Emit an *acquired-while-held* edge `A → B` whenever `B` is
//!    acquired (directly, or anywhere in a callee) while `A` is
//!    held.
//!
//! Findings: `DA407` (error) — an edge acquired **via a call** that
//! inverts the declared hierarchy (the intra-procedural form is
//! already `DA405`); `DA408` (error) — an AB/BA cycle in the edge
//! graph, reported with one witness chain per direction; `DA409`
//! (info) — graph statistics. Known imprecision, documented so the
//! reader can calibrate trust: calls are matched by bare name (a
//! das-net method name colliding with a std method on a non-locking
//! receiver may add spurious edges), and a guard bound by a `match`
//! or `if let` scrutinee is treated as statement-scoped, which
//! under-approximates its true lifetime.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::Path;

use crate::finding::{Finding, Severity};
use crate::lints::{self, LOCK_HIERARCHY};
use crate::syntax::{self, TokKind};

const PASS: &str = "lockgraph";

/// One function's lock-relevant facts.
struct FnFacts {
    /// Repo-relative file and 1-based line of the `fn` keyword.
    file: String,
    /// Hierarchy locks acquired directly, with (lock, line, held-set
    /// at acquisition).
    acquisitions: Vec<(String, u32, Vec<String>)>,
    /// Calls to other das-net functions: (callee, line, held-set).
    calls: Vec<(String, u32, Vec<String>)>,
}

/// A directed acquired-while-held edge with its witness.
#[derive(Clone)]
struct Edge {
    held: String,
    acquired: String,
    /// Human-readable witness: where and through which calls.
    witness: String,
    /// Line to check waivers against.
    line: u32,
    file: String,
    /// True when the acquisition happens in a callee, not locally.
    via_call: bool,
}

/// Run the lock-graph pass over `root/crates/das-net/src`.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();

    // Gather facts per function (merging same-named fns
    // conservatively) and remember waiver info per file.
    let mut facts: BTreeMap<String, FnFacts> = BTreeMap::new();
    let mut waivers: HashMap<String, syntax::Lexed> = HashMap::new();
    let mut used: Vec<(String, u32, String)> = Vec::new();
    let mut fn_count = 0usize;
    let mut site_count = 0usize;
    for (rel, src) in lints::workspace_sources(root) {
        if lints::crate_of(&rel) != "das-net" {
            continue;
        }
        let lx = syntax::lex(&src);
        for f in syntax::extract_fns(&lx) {
            if f.in_test || f.body.is_empty() {
                continue;
            }
            fn_count += 1;
            let ff = analyze_fn(&lx, f.body.clone(), &rel);
            site_count += ff.acquisitions.len();
            match facts.entry(f.name.clone()) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(ff);
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    o.get_mut().acquisitions.extend(ff.acquisitions);
                    o.get_mut().calls.extend(ff.calls);
                }
            }
        }
        waivers.insert(rel.clone(), lx);
    }

    // Restrict the call graph to das-net functions.
    let names: HashSet<String> = facts.keys().cloned().collect();
    for ff in facts.values_mut() {
        ff.calls.retain(|(callee, _, _)| names.contains(callee));
    }

    // Transitive acquisition sets to fixpoint, with one example
    // call-chain per (fn, lock) for witnesses.
    let mut acq: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut path: HashMap<(String, String), String> = HashMap::new();
    for (name, ff) in &facts {
        let set: BTreeSet<String> =
            ff.acquisitions.iter().map(|(l, _, _)| l.clone()).collect();
        for (l, line, _) in &ff.acquisitions {
            path.entry((name.clone(), l.clone()))
                .or_insert_with(|| format!("{name} ({}:{line})", ff.file));
        }
        acq.insert(name.clone(), set);
    }
    loop {
        let mut changed = false;
        for (name, ff) in &facts {
            for (callee, line, _) in &ff.calls {
                let callee_locks: Vec<String> =
                    acq.get(callee).map(|s| s.iter().cloned().collect()).unwrap_or_default();
                for l in callee_locks {
                    if acq.get_mut(name).is_some_and(|s| s.insert(l.clone())) {
                        changed = true;
                        let tail = path
                            .get(&(callee.clone(), l.clone()))
                            .cloned()
                            .unwrap_or_else(|| callee.clone());
                        path.insert(
                            (name.clone(), l.clone()),
                            format!("{name} ({}:{line}) → {tail}", ff.file),
                        );
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Edges: direct acquisitions under a held lock, and callee
    // acquisitions under a held lock.
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    for (name, ff) in &facts {
        for (lock, line, held) in &ff.acquisitions {
            for h in held {
                if h != lock {
                    edges.entry((h.clone(), lock.clone())).or_insert_with(|| Edge {
                        held: h.clone(),
                        acquired: lock.clone(),
                        witness: format!(
                            "{name} ({}:{line}) locks `{lock}` while holding `{h}`",
                            ff.file
                        ),
                        line: *line,
                        file: ff.file.clone(),
                        via_call: false,
                    });
                }
            }
        }
        for (callee, line, held) in &ff.calls {
            if held.is_empty() {
                continue;
            }
            let callee_locks: Vec<String> =
                acq.get(callee).map(|s| s.iter().cloned().collect()).unwrap_or_default();
            for l in &callee_locks {
                for h in held {
                    if h != l {
                        let chain = path
                            .get(&(callee.clone(), l.clone()))
                            .cloned()
                            .unwrap_or_else(|| callee.clone());
                        edges.entry((h.clone(), l.clone())).or_insert_with(|| Edge {
                            held: h.clone(),
                            acquired: l.clone(),
                            witness: format!(
                                "{name} ({}:{line}) calls `{callee}` while holding `{h}`; `{l}` acquired via {chain}",
                                ff.file
                            ),
                            line: *line,
                            file: ff.file.clone(),
                            via_call: true,
                        });
                    }
                }
            }
        }
    }

    let rank = |l: &str| LOCK_HIERARCHY.iter().position(|&h| h == l);

    // DA407: a cross-call edge that inverts the declared hierarchy.
    for e in edges.values() {
        if !e.via_call {
            continue; // the intra-procedural form is DA405
        }
        let (Some(rh), Some(ra)) = (rank(&e.held), rank(&e.acquired)) else {
            continue;
        };
        if ra < rh && !is_waived(&waivers, &e.file, e.line, "DA407", &mut used) {
            out.push(Finding::new(
                "DA407",
                Severity::Error,
                PASS,
                format!("{}:{}", e.file, e.line),
                format!(
                    "`{}` acquired through a call while `{}` is held — inverts the declared hierarchy {LOCK_HIERARCHY:?}: {}",
                    e.acquired, e.held, e.witness
                ),
            ));
        }
    }

    // DA408: AB/BA cycles — both directions present in the edge set.
    let mut cycles_seen: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), e_ab) in &edges {
        if let Some(e_ba) = edges.get(&(b.clone(), a.clone())) {
            let key = if a < b { (a.clone(), b.clone()) } else { (b.clone(), a.clone()) };
            if !cycles_seen.insert(key) {
                continue;
            }
            if is_waived(&waivers, &e_ab.file, e_ab.line, "DA408", &mut used)
                || is_waived(&waivers, &e_ba.file, e_ba.line, "DA408", &mut used)
            {
                continue;
            }
            out.push(Finding::new(
                "DA408",
                Severity::Error,
                PASS,
                format!("{}:{}", e_ab.file, e_ab.line),
                format!(
                    "AB/BA deadlock: `{a}`→`{b}` [{}] and `{b}`→`{a}` [{}] — two threads taking opposite sides block forever",
                    e_ab.witness, e_ba.witness
                ),
            ));
        }
    }

    // DA430: stale DA407/DA408 waivers across the scanned files
    // (sorted so finding order is stable run to run).
    let mut waiver_files: Vec<&String> = waivers.keys().collect();
    waiver_files.sort();
    for rel in waiver_files {
        let lx = &waivers[rel];
        let file_used: Vec<(u32, String)> = used
            .iter()
            .filter(|(f, _, _)| f == rel)
            .map(|(_, l, c)| (*l, c.clone()))
            .collect();
        lints::stale_waivers(PASS, rel, lx, &["DA407", "DA408"], &file_used, &mut out);
    }

    out.push(Finding::new(
        "DA409",
        Severity::Info,
        PASS,
        "crates/das-net/src",
        format!(
            "{fn_count} fns, {site_count} lock sites, {} acquired-while-held edges ({} via calls)",
            edges.len(),
            edges.values().filter(|e| e.via_call).count()
        ),
    ));
    out
}

/// Check a waiver and record its use for the stale-waiver sweep.
fn is_waived(
    waivers: &HashMap<String, syntax::Lexed>,
    file: &str,
    line: u32,
    code: &str,
    used: &mut Vec<(String, u32, String)>,
) -> bool {
    let hit = waivers.get(file).is_some_and(|lx| lx.waived(line, code));
    if hit {
        used.push((file.to_string(), line, code.to_string()));
    }
    hit
}

/// An active guard during the body walk.
struct Guard {
    lock: String,
    var: Option<String>,
    /// Relative brace depth the guard was declared at.
    depth: i64,
    /// Statement-temporary: dies at the next `;`.
    temp: bool,
}

/// Walk one function body, tracking guard lifetimes, and record lock
/// acquisitions and calls with the held-set at each.
fn analyze_fn(lx: &syntax::Lexed, body: std::ops::Range<usize>, rel: &str) -> FnFacts {
    let toks = &lx.tokens;
    let sites: HashMap<usize, lints::LockSite> = lints::lock_sites(toks, body.clone())
        .into_iter()
        .map(|s| (s.at, s))
        .collect();

    let mut guards: Vec<Guard> = Vec::new();
    let mut facts = FnFacts { file: rel.to_string(), acquisitions: Vec::new(), calls: Vec::new() };
    let mut depth = 0i64;
    let end = body.end.min(toks.len());
    let mut i = body.start;
    while i < end {
        let t = &toks[i];
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            }
            ";" => guards.retain(|g| !g.temp),
            _ => {}
        }

        // drop(g) releases a named guard early.
        if t.kind == TokKind::Ident
            && t.text == "drop"
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            if let Some(arg) = toks.get(i + 2) {
                if arg.kind == TokKind::Ident {
                    guards.retain(|g| g.var.as_deref() != Some(arg.text.as_str()));
                }
            }
        }

        if let Some(site) = sites.get(&i) {
            // Record *every* acquisition — AB/BA cycles (DA408) are
            // deadlocks regardless of whether the locks are ranked;
            // the hierarchy only gates DA407.
            let held: Vec<String> = guards.iter().map(|g| g.lock.clone()).collect();
            facts.acquisitions.push((site.name.clone(), site.line, held));
            // `let [mut] NAME = lock(…)` → block-scoped guard bound
            // to NAME; anything else is statement-temporary.
            let bound = bound_var(toks, i, body.start);
            guards.push(Guard {
                lock: site.name.clone(),
                var: bound.clone(),
                depth,
                temp: bound.is_none(),
            });
            i += 1;
            continue;
        }

        // A call: ident followed by `(`, not a lock site, not a macro
        // (`name!(…)`), not a path segment of a type (`Foo::name(` is
        // still a call — keep it).
        if t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
            && t.text != "lock"
            && t.text != "drop"
        {
            let held: Vec<String> = guards.iter().map(|g| g.lock.clone()).collect();
            facts.calls.push((t.text.clone(), t.line, held));
        }

        i += 1;
    }
    facts
}

/// If the lock site at `at` is the RHS of `let [mut] NAME = lock(…)`,
/// return NAME.
fn bound_var(
    toks: &[crate::syntax::Token],
    at: usize,
    floor: usize,
) -> Option<String> {
    if at < 3 || at - 3 < floor.saturating_sub(3) {
        // Still allow matching near the body start; bounds below.
    }
    let eq = at.checked_sub(1)?;
    if toks.get(eq)?.text != "=" {
        return None;
    }
    let name = at.checked_sub(2)?;
    let name_tok = toks.get(name)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let kw = at.checked_sub(3)?;
    let kw_tok = toks.get(kw)?;
    let is_let = kw_tok.text == "let"
        || (kw_tok.text == "mut"
            && at.checked_sub(4).and_then(|k| toks.get(k)).is_some_and(|t| t.text == "let"));
    if is_let && name >= floor {
        Some(name_tok.text.clone())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run the pass against an in-memory mini-crate by materializing
    /// it under a temp dir.
    fn run_on(files: &[(&str, &str)]) -> Vec<Finding> {
        let dir = std::env::temp_dir().join(format!(
            "das-lockgraph-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let src = dir.join("crates/das-net/src");
        std::fs::create_dir_all(&src).unwrap();
        for (name, body) in files {
            std::fs::write(src.join(name), body).unwrap();
        }
        let out = run(&dir);
        std::fs::remove_dir_all(&dir).ok();
        out
    }

    #[test]
    fn cross_function_inversion_is_da407() {
        let out = run_on(&[(
            "peer.rs",
            "\
fn outer(&self) {
    let i = lock(&self.inner);
    helper();
}
fn helper() {
    let c = lock(&self.conns);
}
",
        )]);
        assert!(out.iter().any(|f| f.code == "DA407"), "{out:?}");
    }

    #[test]
    fn block_scoped_guard_released_before_call_is_clean() {
        let out = run_on(&[(
            "server.rs",
            "\
fn outer(&self) {
    {
        let i = lock(&self.inner);
        i.touch();
    }
    helper();
}
fn helper() {
    let c = lock(&self.conns);
}
",
        )]);
        assert!(
            !out.iter().any(|f| f.severity != Severity::Info),
            "guard died at block end; no edge expected: {out:?}"
        );
    }

    #[test]
    fn ab_ba_cycle_is_da408_even_when_ranks_unknown_to_da405() {
        // Each function respects "first acquisition" ordering locally;
        // only the cross-call composition deadlocks.
        let out = run_on(&[(
            "peer.rs",
            "\
fn ab(&self) {
    let c = lock(&self.conns);
    take_down();
}
fn take_down() {
    let d = lock(&self.downs);
}
fn ba(&self) {
    let d = lock(&self.downs);
    take_conn();
}
fn take_conn() {
    let c = lock(&self.conns);
}
",
        )]);
        assert!(out.iter().any(|f| f.code == "DA408"), "{out:?}");
    }

    #[test]
    fn temp_guard_dies_at_statement_end() {
        let out = run_on(&[(
            "server.rs",
            "\
fn outer(&self) {
    lock(&self.inner).staged.insert(k, v);
    helper();
}
fn helper() {
    let c = lock(&self.conns);
}
",
        )]);
        assert!(!out.iter().any(|f| f.severity != Severity::Info), "{out:?}");
    }

    #[test]
    fn drop_releases_early() {
        let out = run_on(&[(
            "server.rs",
            "\
fn outer(&self) {
    let i = lock(&self.inner);
    drop(i);
    helper();
}
fn helper() {
    let c = lock(&self.conns);
}
",
        )]);
        assert!(!out.iter().any(|f| f.severity != Severity::Info), "{out:?}");
    }

    #[test]
    fn transitive_chains_propagate() {
        // outer holds conns; the lock is three calls away.
        let out = run_on(&[(
            "server.rs",
            "\
fn outer(&self) {
    let r = lock(&self.conns);
    a();
}
fn a() { b(); }
fn b() { c(); }
fn c() { let d = lock(&self.downs); }
",
        )]);
        // conns → downs follows the hierarchy: an edge exists but no
        // finding fires.
        assert!(!out.iter().any(|f| f.severity != Severity::Info), "{out:?}");
        let info = out.iter().find(|f| f.code == "DA409").unwrap();
        assert!(info.message.contains("1 via calls"), "{}", info.message);
    }
}
