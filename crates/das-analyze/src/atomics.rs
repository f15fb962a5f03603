//! Pass — atomics-ordering audit (`DA71x`).
//!
//! Every `Ordering::*` use in das-net, das-obs and das-load is
//! classified against the operation it parameterizes (the enclosing
//! `load` / `store` / `fetch_*` / `compare_exchange` call and its
//! receiver). On top of the census, three defect patterns:
//!
//! * `DA711` (warning) — a `Relaxed` *load* that directly feeds a
//!   control-flow decision (`if` / `while`). This is the shape of
//!   the publication anti-pattern: thread A writes data then sets a
//!   Relaxed flag, thread B branches on the flag and reads the data
//!   — nothing orders the data writes before the flag store, so B
//!   can observe the flag without the data. A genuine
//!   flag-only/stat-only load is fine — waive it with a justifying
//!   comment, which `DA714` verifies exists.
//! * `DA712` (warning) — mismatched store/load strength on one
//!   atomic: one side synchronizes (`Release`/`SeqCst`) while the
//!   other is `Relaxed`. Half a happens-before edge is no edge; the
//!   pair should agree (both Relaxed for pure counters, both
//!   synchronizing for publication).
//! * `DA713` (warning) — a `fetch_*` / `compare_exchange` / `swap`
//!   whose returned value is discarded at some sites but used at
//!   others *for the same atomic and operation*. When the return
//!   value carries the invariant (a ticket, an admission decision),
//!   the discarding site is almost always a lost check.
//! * `DA714` (warning) — a `DA71x` waiver whose comment carries no
//!   justification. The tentpole contract is "fixed, strengthened,
//!   or waived with a justifying comment"; a bare `allow` fails it.
//!
//! `DA710` (info) is the per-crate census. Waivers are honored per
//! site; stale ones are reported as `DA430` via the shared sweep.

use std::collections::BTreeMap;
use std::path::Path;

use crate::finding::{Finding, Severity};
use crate::syntax::{self, TokKind, Token};

const PASS: &str = "atomics";

/// Crates audited: the ones that hand-roll concurrency.
const CRATES: [&str; 3] = ["das-net", "das-obs", "das-load"];

/// One classified `Ordering::*` use.
struct Site {
    file: String,
    line: u32,
    /// `Relaxed`, `Acquire`, `Release`, `AcqRel`, `SeqCst`.
    ordering: String,
    /// The callee the ordering parameterizes (`load`, `store`,
    /// `fetch_add`, …) when recoverable.
    op: Option<String>,
    /// The receiver ident (`JSON`, `stop`, `shutdown`, …) when
    /// recoverable.
    recv: Option<String>,
    /// Whether the call's result is consumed (next token after the
    /// closing paren is not `;`).
    result_used: bool,
    /// Whether a `if`/`while` keyword directly precedes the
    /// expression in the same statement.
    in_branch: bool,
}

/// Run the atomics audit over the concurrency crates under `root`.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut sites: Vec<Site> = Vec::new();
    let mut lexed: syntax::Scanned = BTreeMap::new();

    for (rel, src) in syntax::workspace_sources(root) {
        if !CRATES.contains(&syntax::crate_of(&rel)) {
            continue;
        }
        let lx = syntax::lex(&src);
        collect_sites(&rel, &lx, &mut sites);
        lexed.insert(rel, (lx, Vec::new()));
    }
    let mut waive = |file: &str, line: u32, code: &str| {
        lexed.get_mut(file).is_some_and(|(lx, used)| lx.waive(line, code, used))
    };

    // DA711 — Relaxed load feeding control flow.
    for s in &sites {
        if s.ordering == "Relaxed"
            && s.op.as_deref() == Some("load")
            && s.in_branch
            && !waive(&s.file, s.line, "DA711")
        {
            out.push(Finding::new(
                "DA711",
                Severity::Warning,
                PASS,
                format!("{}:{}", s.file, s.line),
                format!(
                    "Relaxed load of `{}` feeds a control-flow decision — if the branch reads data published by the flag's writer, nothing orders that data before the flag (publication pattern); use Acquire/Release or waive with a justification",
                    s.recv.as_deref().unwrap_or("<atomic>")
                ),
            ));
        }
    }

    // DA712 — mismatched store/load strength per (crate, receiver).
    // Only pairs where both sides exist are judged: a store-only or
    // load-only receiver has no pair to mismatch.
    type StoreLoad<'a> = (Vec<&'a Site>, Vec<&'a Site>);
    let mut pairs: BTreeMap<(String, String), StoreLoad> = BTreeMap::new();
    for s in &sites {
        let (Some(op), Some(recv)) = (&s.op, &s.recv) else {
            continue;
        };
        let key = (syntax::crate_of(&s.file).to_string(), recv.clone());
        match op.as_str() {
            "store" => pairs.entry(key).or_default().0.push(s),
            "load" => pairs.entry(key).or_default().1.push(s),
            _ => {}
        }
    }
    for ((krate, recv), (stores, loads)) in &pairs {
        if stores.is_empty() || loads.is_empty() {
            continue;
        }
        let store_sync = stores.iter().any(|s| s.ordering != "Relaxed");
        let load_sync = loads.iter().any(|s| s.ordering != "Relaxed");
        let store_relaxed = stores.iter().any(|s| s.ordering == "Relaxed");
        let load_relaxed = loads.iter().any(|s| s.ordering == "Relaxed");
        let mismatch = (store_sync && load_relaxed) || (load_sync && store_relaxed);
        if mismatch {
            let w = stores.iter().chain(loads.iter()).find(|s| s.ordering == "Relaxed").unwrap();
            if waive(&w.file, w.line, "DA712") {
                continue;
            }
            let sd = stores.iter().map(|s| s.ordering.as_str()).collect::<Vec<_>>().join("/");
            let ld = loads.iter().map(|s| s.ordering.as_str()).collect::<Vec<_>>().join("/");
            out.push(Finding::new(
                "DA712",
                Severity::Warning,
                PASS,
                format!("{}:{}", w.file, w.line),
                format!(
                    "atomic `{recv}` in {krate} pairs store ordering {sd} with load ordering {ld} — one side synchronizes, the other doesn't, so the happens-before edge is broken; make the pair agree"
                ),
            ));
        }
    }

    // DA713 — same (crate, receiver, op) with the result used at some
    // sites and discarded at others.
    let mut rmw: BTreeMap<(String, String, String), Vec<&Site>> = BTreeMap::new();
    for s in &sites {
        let (Some(op), Some(recv)) = (&s.op, &s.recv) else {
            continue;
        };
        if op.starts_with("fetch_") || op == "compare_exchange" || op == "swap" {
            rmw.entry((syntax::crate_of(&s.file).to_string(), recv.clone(), op.clone()))
                .or_default()
                .push(s);
        }
    }
    for ((krate, recv, op), group) in &rmw {
        let any_used = group.iter().any(|s| s.result_used);
        let discarded: Vec<&&Site> = group.iter().filter(|s| !s.result_used).collect();
        if any_used && !discarded.is_empty() {
            for s in discarded {
                if waive(&s.file, s.line, "DA713") {
                    continue;
                }
                out.push(Finding::new(
                    "DA713",
                    Severity::Warning,
                    PASS,
                    format!("{}:{}", s.file, s.line),
                    format!(
                        "`{recv}.{op}(…)` result discarded here but consumed at other {krate} sites — the return value carries the invariant for this atomic; check it or waive with a justification"
                    ),
                ));
            }
        }
    }

    // DA714 — a DA71x waiver must justify itself: text after
    // `allow(DA71x)` in the same comment. Waivers annotating
    // `#[cfg(test)]` code are skipped like the stale-waiver sweep.
    for (rel, (lx, _)) in &lexed {
        let mask = syntax::test_mask(lx);
        for c in &lx.comments {
            let in_test = lx
                .tokens
                .iter()
                .position(|t| t.line >= c.line)
                .is_some_and(|i| mask.get(i).copied().unwrap_or(false));
            if in_test {
                continue;
            }
            let mut rest = c.text.as_str();
            while let Some(p) = rest.find("das-lint: allow(DA71") {
                let tail = &rest[p..];
                let Some(close) = tail.find(')') else { break };
                let justification = tail[close + 1..].trim();
                if justification.len() < 8 {
                    out.push(Finding::new(
                        "DA714",
                        Severity::Warning,
                        PASS,
                        format!("{rel}:{}", c.line),
                        "atomics waiver without a justification — say *why* the relaxed ordering is sound (what the flag guards, what synchronizes the data)".to_string(),
                    ));
                }
                rest = &tail[close..];
            }
        }
    }

    // DA430 — stale DA71x waivers.
    for (rel, (lx, used)) in &lexed {
        syntax::stale_waivers(PASS, rel, lx, &["DA711", "DA712", "DA713"], used, &mut out);
    }

    // DA710 — census.
    let mut census: BTreeMap<(String, String), usize> = BTreeMap::new();
    for s in &sites {
        *census
            .entry((syntax::crate_of(&s.file).to_string(), s.ordering.clone()))
            .or_default() += 1;
    }
    let mut per_crate: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for ((krate, ordering), n) in &census {
        per_crate.entry(krate.clone()).or_default().push(format!("{ordering}×{n}"));
    }
    let rendered = per_crate
        .iter()
        .map(|(k, v)| format!("{k}: {}", v.join(" ")))
        .collect::<Vec<_>>()
        .join("; ");
    out.push(Finding::new(
        "DA710",
        Severity::Info,
        PASS,
        "crates/{das-net,das-obs,das-load}/src",
        format!("{} Ordering uses classified — {}", sites.len(), rendered),
    ));
    out
}

/// Collect every `Ordering::X` site in a file with its operation
/// context. Tokens inside `#[cfg(test)]` regions are skipped.
fn collect_sites(rel: &str, lx: &syntax::Lexed, out: &mut Vec<Site>) {
    let toks = &lx.tokens;
    let mask = syntax::test_mask(lx);
    for i in 0..toks.len() {
        if mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &toks[i];
        if !(t.kind == TokKind::Ident && t.text == "Ordering") {
            continue;
        }
        if !(toks.get(i + 1).is_some_and(|t| t.text == ":")
            && toks.get(i + 2).is_some_and(|t| t.text == ":"))
        {
            continue;
        }
        let Some(ord_tok) = toks.get(i + 3) else { continue };
        if ord_tok.kind != TokKind::Ident {
            continue;
        }
        let (op, recv, call_open) = enclosing_call(toks, i);
        // The result is consumed unless the call both *ends* its
        // statement (`;` right after the closing paren) and *starts*
        // it (nothing upstream — no `let`, `=`, `return`, argument
        // position — binds the value).
        let result_used = match call_open.and_then(|open| syntax::matching(toks, open, "(", ")")) {
            Some(close) if toks.get(close + 1).is_some_and(|t| t.text == ";") => {
                value_bound_upstream(toks, call_open.unwrap_or(i))
            }
            _ => true,
        };
        let in_branch = branches_directly(toks, call_open.unwrap_or(i));
        out.push(Site {
            file: rel.to_string(),
            line: t.line,
            ordering: ord_tok.text.clone(),
            op,
            recv,
            result_used,
            in_branch,
        });
    }
}

/// Find the call the `Ordering` token at `i` is an argument of:
/// walking backwards, the first unmatched `(` is the call's
/// argument-list opener and the ident before it the callee. The
/// receiver is the ident before the callee's dot, hopping over one
/// `[…]` index group (`remaining[i].fetch_update`).
fn enclosing_call(toks: &[Token], i: usize) -> (Option<String>, Option<String>, Option<usize>) {
    let mut depth = 0i64;
    let mut j = i;
    loop {
        let Some(k) = j.checked_sub(1) else { return (None, None, None) };
        j = k;
        match toks[j].text.as_str() {
            ")" => depth += 1,
            "(" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ";" | "{" | "}" if depth == 0 => return (None, None, None),
            _ => {}
        }
    }
    let open = j;
    let callee = open.checked_sub(1).map(|k| &toks[k]);
    let Some(callee) = callee.filter(|t| t.kind == TokKind::Ident) else {
        return (None, None, Some(open));
    };
    // Receiver: callee is preceded by `.`; before that either an
    // ident or a `[…]` group whose opener is preceded by an ident.
    let mut recv = None;
    if let Some(dot) = open.checked_sub(2) {
        if toks[dot].text == "." {
            if let Some(mut r) = dot.checked_sub(1) {
                if toks[r].text == "]" {
                    // Hop the index group.
                    let mut d = 0i64;
                    loop {
                        match toks[r].text.as_str() {
                            "]" => d += 1,
                            "[" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        let Some(k) = r.checked_sub(1) else { break };
                        r = k;
                    }
                    r = r.saturating_sub(1);
                }
                if toks[r].kind == TokKind::Ident {
                    recv = Some(toks[r].text.clone());
                }
            }
        }
    }
    (Some(callee.text.clone()), recv, Some(open))
}

/// Whether something upstream in the same statement consumes the
/// call's value: a `let`/`=` binding, `return`, a branch head, or an
/// argument/tuple position. Receiver-chain idents and dots fall
/// through; `;`/`{`/`}` mean the call opens its own statement.
fn value_bound_upstream(toks: &[Token], at: usize) -> bool {
    let mut j = at;
    while let Some(k) = j.checked_sub(1) {
        j = k;
        match toks[j].text.as_str() {
            ";" | "{" | "}" => return false,
            "=" | "let" | "return" | "if" | "while" | "match" | "(" | "," | "=>" => return true,
            _ => {}
        }
    }
    false
}

/// Whether the expression whose call opens at `at` sits directly
/// under an `if`/`while` head: scan backwards for the keyword
/// without crossing a statement boundary (`;`, `{`, `}`, `let`,
/// `match`, `=`).
fn branches_directly(toks: &[Token], at: usize) -> bool {
    let mut j = at;
    while let Some(k) = j.checked_sub(1) {
        j = k;
        let t = &toks[j];
        match t.text.as_str() {
            ";" | "{" | "}" | "let" | "match" | "=" | "," => return false,
            "if" | "while" => return true,
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(krate: &str, src: &str) -> Vec<Finding> {
        let dir = std::env::temp_dir().join(format!(
            "das-atomics-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let sdir = dir.join("crates").join(krate).join("src");
        std::fs::create_dir_all(&sdir).unwrap();
        std::fs::write(sdir.join("lib.rs"), src).unwrap();
        let out = run(&dir);
        std::fs::remove_dir_all(&dir).ok();
        out
    }

    #[test]
    fn relaxed_branch_load_is_da711_and_waivable() {
        let src = "\
fn f() {
    if READY.load(Ordering::Relaxed) {
        consume(&DATA);
    }
}
";
        let out = run_on("das-net", src);
        let f = out.iter().find(|f| f.code == "DA711").expect("DA711");
        assert!(f.message.contains("READY"), "{}", f.message);

        let waived = "\
fn f() {
    // das-lint: allow(DA711) READY is a pure quiesce flag; data is joined first
    if READY.load(Ordering::Relaxed) {
        consume(&DATA);
    }
}
";
        let out = run_on("das-net", waived);
        assert!(!out.iter().any(|f| f.code == "DA711"), "{out:?}");
        assert!(!out.iter().any(|f| f.code == "DA714"), "justified: {out:?}");
        assert!(!out.iter().any(|f| f.code == "DA430"), "waiver fired: {out:?}");
    }

    #[test]
    fn let_bound_relaxed_load_is_not_da711() {
        let src = "fn f() { let lvl = MAX.load(Ordering::Relaxed); use_it(lvl); }\n";
        let out = run_on("das-obs", src);
        assert!(!out.iter().any(|f| f.code == "DA711"), "{out:?}");
    }

    #[test]
    fn mismatched_store_load_is_da712() {
        let src = "\
fn publish() { FLAG.store(true, Ordering::Release); }
fn observe() -> bool { let v = FLAG.load(Ordering::Relaxed); v }
";
        let out = run_on("das-net", src);
        assert!(out.iter().any(|f| f.code == "DA712"), "{out:?}");
    }

    #[test]
    fn agreeing_pairs_are_clean() {
        let src = "\
fn a() { N.store(1, Ordering::Relaxed); }
fn b() -> u8 { let v = N.load(Ordering::Relaxed); v }
fn c() { F.store(true, Ordering::SeqCst); }
fn d() -> bool { let v = F.load(Ordering::SeqCst); v }
";
        let out = run_on("das-load", src);
        assert!(!out.iter().any(|f| f.code == "DA712"), "{out:?}");
    }

    #[test]
    fn mixed_use_discard_fetch_is_da713() {
        let src = "\
fn take() -> usize { let t = NEXT.fetch_add(1, Ordering::Relaxed); t }
fn leak() { NEXT.fetch_add(1, Ordering::Relaxed); }
";
        let out = run_on("das-net", src);
        let f = out.iter().find(|f| f.code == "DA713").expect("DA713 {out:?}");
        assert!(f.entity.ends_with(":2"), "flags the discarding site: {f:?}");
    }

    #[test]
    fn uniformly_discarded_counters_are_clean() {
        let src = "\
fn bump() { HITS.fetch_add(1, Ordering::Relaxed); }
fn bump2() { HITS.fetch_add(1, Ordering::Relaxed); }
";
        let out = run_on("das-obs", src);
        assert!(!out.iter().any(|f| f.code == "DA713"), "{out:?}");
    }

    #[test]
    fn bare_waiver_is_da714() {
        let src = "\
fn f() {
    // das-lint: allow(DA711)
    if READY.load(Ordering::Relaxed) { go(); }
}
";
        let out = run_on("das-net", src);
        assert!(out.iter().any(|f| f.code == "DA714"), "{out:?}");
    }

    #[test]
    fn census_counts_orderings_per_crate() {
        let src = "\
fn f() { A.store(1, Ordering::Relaxed); let v = B.load(Ordering::Acquire); drop(v); }
";
        let out = run_on("das-net", src);
        let c = out.iter().find(|f| f.code == "DA710").expect("census");
        assert!(c.message.contains("2 Ordering uses"), "{}", c.message);
        assert!(c.message.contains("Relaxed×1"), "{}", c.message);
        assert!(c.message.contains("Acquire×1"), "{}", c.message);
    }
}
