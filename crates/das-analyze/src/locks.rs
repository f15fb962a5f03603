//! Pass — one lock model: lock order (`DA407`–`DA409`) and lockset
//! race detection (`DA700`–`DA705`).
//!
//! das-net, das-obs and das-load are scanned once, on the same
//! dependency-free tokenizer as the other source passes. Every lock
//! fact comes from one of each piece:
//!
//! * **The acquisition recognizer** (`acquisition_at`): the helper
//!   form `lock(&self.conns)` — the lock is the last identifier inside
//!   the parentheses outside any `[...]` index, so
//!   `lock(&queues.inbox[shard])` is `inbox` — the method form
//!   `conns.lock()`, and guard-returning helper methods (`self.lock()`
//!   where `fn lock(&self) -> MutexGuard<'_, Inner>` and `Inner` is a
//!   protected struct). `.read()`/`.write()` receivers only count as
//!   "acquired somewhere" for the dead-lock check.
//! * **The guard walker** (`walk`): a `let g = lock(…);` guard lives
//!   to the end of its block, a temporary (`lock(&x).field…`, and
//!   `let n = lock(&x).len();`, whose binding is not the guard) to its
//!   statement's `;`. `drop(g)` at the binding's own depth ends the
//!   guard; inside a nested block — the early-return arm
//!   `if full { drop(g); return; }` — it only suspends it until that
//!   block's `}`, because the fall-through path still holds the lock.
//!   At every token the walker yields the live held set.
//! * **Its consumers**: the lock-order graph and the lockset check
//!   below, and `hotpath`'s guard-across-dispatch check (`DA805`).
//!
//! **Lock order.** Every acquisition and every call records the locks
//! held there. Within each crate, calls resolve by bare name to that
//! crate's functions (same-named functions merge), each function's
//! transitively acquired set is computed to fixpoint, and an
//! acquired-while-held edge `A → B` is recorded whenever `B` is
//! acquired — directly or anywhere down a call — while `A` is held.
//! `DA407` (error) — an edge that inverts [`LOCK_HIERARCHY`]; `DA408`
//! (error) — an AB/BA pair in one crate's edges, ranked or not;
//! `DA409` (info) — graph statistics.
//!
//! **Lockset.** A struct field `g: Mutex<T>` (or `RwLock<T>`) whose `T`
//! is a struct declared in the same file makes `g` the dominating guard
//! of every field of `T` — the idiom every shared structure here uses
//! (`FairQueue.sched: Mutex<SchedState>`, `Shared.inner: Mutex<Inner>`,
//! `SpanStore.spans: Mutex<Inner>`). Each `recv.field` access to a
//! protected field must happen while its guard is held. Methods of the
//! protected struct itself, and functions taking it as a parameter,
//! run under the guard by construction and are exempt. `DA701` (error)
//! — a protected field accessed without its guard; `DA702` (warning) —
//! two guards wrap one struct, so no dominator exists; `DA703`
//! (warning) — a `Mutex`/`RwLock` field never acquired anywhere in the
//! scanned crates; `DA704` (error) — `Arc::get_mut`/`Arc::make_mut`
//! mutation without a guard; `DA705` (info) — the guard → protected
//! fields proof record per struct; `DA700` (info) — summary.
//!
//! `// das-lint: allow(CODE)` waivers are honored for `DA407`/`DA408`
//! and `DA701`–`DA704`; one that suppresses nothing is `DA430`.
//!
//! Known imprecision, stated so the reader can calibrate trust: calls
//! match by bare name within a crate (a method named like a std method
//! on a non-locking receiver may add an edge); a guard bound by a
//! `match` or `if let` scrutinee is treated as statement-temporary;
//! protection is inferred per file and not through a type alias
//! (`type PeerConn = Arc<Mutex<RpcConn>>`); a field name two structs of
//! one file declare is skipped rather than guessed at.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::path::Path;
use std::rc::Rc;

use crate::finding::{Finding, Severity};
use crate::syntax::{self, TokKind, Token};

const PASS: &str = "locks";

/// The crates that hand-roll locking. Each is its own call-name scope:
/// a call resolves only to a function of the caller's crate.
const CRATES: [&str; 3] = ["das-net", "das-obs", "das-load"];

/// The declared lock hierarchy (outermost first): no lock may be
/// acquired while a later one is held. `inbox`, `sched` and `done` are
/// the event-loop engine's shard queues and fair scheduler (the shed
/// path pushes an `Overloaded` reply to `done` while holding `sched`,
/// hence the order); `ewma` is the hedging load tracker; `errs` is
/// das-load's monitor-state error breakdown, held only to bump a
/// counter; `spans` is the span flight recorder's ring/reservoir state,
/// the hierarchy's leaf — nothing may be acquired while it is held, so
/// every request-path stage can record a span under any combination of
/// the other ranks.
pub const LOCK_HIERARCHY: [&str; 9] = ["conns", "inner", "downs", "inbox", "sched", "done", "ewma", "errs", "spans"];

/// The codes this pass's waivers may name.
const WAIVABLE: [&str; 6] = ["DA407", "DA408", "DA701", "DA702", "DA703", "DA704"];

/// Poison-handling calls that pass a guard through unchanged.
const POISON: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

/// Guard types a helper method may return.
const GUARD_TYPES: [&str; 3] = ["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

/// A lock acquired or a function called, where, and the locks held
/// there.
struct Site {
    name: String,
    file: Rc<str>,
    line: u32,
    held: Vec<String>,
}

/// One function's lock-order facts (merged over same-named functions).
#[derive(Default)]
struct FnFacts {
    acquisitions: Vec<Site>,
    calls: Vec<Site>,
}

/// An acquired-while-held edge with its witness.
struct Edge {
    /// Where and through which calls.
    witness: String,
    /// Site the waiver is checked against.
    file: Rc<str>,
    line: u32,
    /// True when the acquisition happens in a callee.
    via_call: bool,
}

/// One named-field struct declaration: its name and
/// (field, type tokens, line) per field.
struct StructDecl {
    name: String,
    fields: Vec<(String, Vec<String>, u32)>,
}

/// Everything gathered across the scanned files.
#[derive(Default)]
struct Scan {
    out: Vec<Finding>,
    /// Crate → function name → merged facts.
    fns: BTreeMap<&'static str, BTreeMap<String, FnFacts>>,
    /// Every `Mutex`/`RwLock` field: (file, name, line).
    guard_fields: Vec<(String, String, u32)>,
    /// Every name seen at a lock site, in a lock helper's arguments, or
    /// as a `lock()`/`read()`/`write()` receiver.
    acquired: HashSet<String>,
    files: usize,
    protected_fields: usize,
    accesses: usize,
}

/// Run the pass over das-net, das-obs and das-load under `root`.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut scan = Scan::default();
    let mut files: syntax::Scanned = BTreeMap::new();
    for (rel, src) in syntax::workspace_sources(root) {
        let Some(krate) = CRATES.into_iter().find(|&c| c == syntax::crate_of(&rel)) else {
            continue;
        };
        let lx = syntax::lex(&src);
        let mut used = Vec::new();
        scan.file(krate, &rel, &lx, &mut used);
        files.insert(rel, (lx, used));
    }
    let mut out = std::mem::take(&mut scan.out);
    let mut waive = |file: &str, line: u32, code: &str| {
        files.get_mut(file).is_some_and(|(lx, used)| lx.waive(line, code, used))
    };

    // DA703: checked across every scanned file, so a lock acquired
    // from a sibling module is not a false dead lock.
    for (file, name, line) in &scan.guard_fields {
        if !scan.acquired.contains(name) && !waive(file, *line, "DA703") {
            out.push(Finding::new(
                "DA703",
                Severity::Warning,
                PASS,
                format!("{file}:{line}"),
                format!(
                    "dead lock: `{name}` is declared as a Mutex/RwLock field but never acquired — either the state it guards is unshared (drop the lock) or an access path is bypassing it"
                ),
            ));
        }
    }

    let mut edges: BTreeMap<(&str, String, String), Edge> = BTreeMap::new();
    for (krate, fns) in &scan.fns {
        for ((held, acquired), e) in crate_edges(fns) {
            edges.insert((krate, held, acquired), e);
        }
    }

    // DA407: an edge, direct or through a call, against the hierarchy.
    let rank = |l: &str| LOCK_HIERARCHY.iter().position(|&h| h == l);
    for ((_, held, acquired), e) in &edges {
        let (Some(rh), Some(ra)) = (rank(held), rank(acquired)) else {
            continue;
        };
        if ra < rh && !waive(&e.file, e.line, "DA407") {
            let how = if e.via_call { " through a call" } else { "" };
            out.push(Finding::new(
                "DA407",
                Severity::Error,
                PASS,
                format!("{}:{}", e.file, e.line),
                format!(
                    "`{acquired}` acquired{how} while `{held}` is held — inverts the declared hierarchy {LOCK_HIERARCHY:?}: {}",
                    e.witness
                ),
            ));
        }
    }

    // DA408: both directions of a pair in one crate's edges.
    for ((krate, a, b), e_ab) in &edges {
        let Some(e_ba) = edges.get(&(*krate, b.clone(), a.clone())) else {
            continue;
        };
        if a > b || waive(&e_ab.file, e_ab.line, "DA408") || waive(&e_ba.file, e_ba.line, "DA408") {
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

    for (rel, (lx, used)) in &files {
        syntax::stale_waivers(PASS, rel, lx, &WAIVABLE, used, &mut out);
    }

    out.push(Finding::new(
        "DA700",
        Severity::Info,
        PASS,
        "crates/{das-net,das-obs,das-load}/src",
        format!(
            "{} files scanned: {} guard fields, {} protected fields, {} guarded-field accesses checked",
            scan.files,
            scan.guard_fields.len(),
            scan.protected_fields,
            scan.accesses
        ),
    ));
    let per_crate: Vec<String> = CRATES
        .iter()
        .map(|c| format!("{c} {}", edges.keys().filter(|(k, _, _)| k == c).count()))
        .collect();
    out.push(Finding::new(
        "DA409",
        Severity::Info,
        PASS,
        "crates/{das-net,das-obs,das-load}/src",
        format!(
            "{} fns, {} lock sites, {} acquired-while-held edges ({} via calls; {})",
            scan.fns.values().map(BTreeMap::len).sum::<usize>(),
            scan.fns
                .values()
                .flat_map(BTreeMap::values)
                .map(|f| f.acquisitions.len())
                .sum::<usize>(),
            edges.len(),
            edges.values().filter(|e| e.via_call).count(),
            per_crate.join(", ")
        ),
    ));
    out
}

impl Scan {
    /// Infer one file's protection, walk each of its functions once for
    /// both consumers, and check its `Arc` mutation sites. Waiver uses
    /// go to `used`.
    fn file(
        &mut self,
        krate: &'static str,
        rel: &str,
        lx: &syntax::Lexed,
        used: &mut Vec<(u32, String)>,
    ) {
        let toks = &lx.tokens;
        let mask = syntax::test_mask(lx);
        self.files += 1;

        let structs = parse_structs(toks, &mask);
        for (field, ty, line) in structs.iter().flat_map(|s| &s.fields) {
            if guard_inner_type(ty).is_some() {
                self.guard_fields.push((rel.to_string(), field.clone(), *line));
            }
        }
        // DA702: two guards wrap one struct — no dominator exists, so
        // it is reported and skipped rather than guessed at.
        let wraps = wraps(&structs);
        let mut protected: BTreeMap<&str, &str> = BTreeMap::new();
        for (inner, guards) in &wraps {
            match guards.as_slice() {
                [(guard, _)] => {
                    protected.insert(inner, guard);
                }
                [(_, line), ..] if !lx.waive(*line, "DA702", used) => self.out.push(Finding::new(
                    "DA702",
                    Severity::Warning,
                    PASS,
                    format!("{rel}:{line}"),
                    format!(
                        "ambiguous protection: struct `{inner}` is wrapped by {} different guards ({}) — no dominating guard exists, accesses are unchecked",
                        guards.len(),
                        guards.iter().map(|(g, _)| g.as_str()).collect::<Vec<_>>().join(", ")
                    ),
                )),
                _ => {}
            }
        }

        // Protected field → (owner, guard). A field name more than one
        // struct of the file declares is ambiguous and skipped.
        let unique = |f: &str| {
            structs.iter().filter(|d| d.fields.iter().any(|(g, _, _)| g == f)).count() == 1
        };
        let mut owners: HashMap<&str, (&str, &str)> = HashMap::new();
        for s in &structs {
            if let Some(&guard) = protected.get(s.name.as_str()) {
                for (f, _, _) in s.fields.iter().filter(|(f, _, _)| unique(f)) {
                    owners.insert(f, (s.name.as_str(), guard));
                }
            }
        }
        self.protected_fields += owners.len();
        for (owner, guard) in &protected {
            let fields: Vec<&str> = structs
                .iter()
                .find(|s| s.name == *owner)
                .map(|s| {
                    s.fields.iter().map(|(f, _, _)| f.as_str()).filter(|f| unique(f)).collect()
                })
                .unwrap_or_default();
            self.out.push(Finding::new(
                "DA705",
                Severity::Info,
                PASS,
                rel,
                format!(
                    "guard `{guard}` protects `{owner}` {{ {} }} — every access must hold it",
                    fields.join(", ")
                ),
            ));
        }

        let fns = syntax::extract_fns(lx);
        let helpers = helpers(toks, &fns, &wraps);
        let file: Rc<str> = Rc::from(rel);
        let impls = impl_regions(toks);
        // Guarded-access lines per field (the DA701 witness) and the
        // unguarded accesses: (field, owner, guard, line).
        let mut witnesses: HashMap<&str, Vec<u32>> = HashMap::new();
        let mut violations: Vec<(&str, &str, &str, u32)> = Vec::new();
        for f in fns.iter().filter(|f| !f.in_test && !f.body.is_empty()) {
            let sig = fn_signature(toks, f);
            let ff = self.fns.entry(krate).or_default().entry(f.name.clone()).or_default();
            let site = |name: &str, line, held: &[String]| Site {
                name: name.to_string(),
                file: Rc::clone(&file),
                line,
                held: held.to_vec(),
            };
            let mut accesses = 0;
            walk(toks, f.body.clone(), &helpers, &mut self.acquired, |step, held| {
                let i = match step {
                    Step::Acquire(lock, line) => {
                        ff.acquisitions.push(site(lock, line, held));
                        return;
                    }
                    Step::Token(i) => i,
                };
                let t = &toks[i];
                if t.kind != TokKind::Ident {
                    return;
                }
                let next = toks.get(i + 1).map(|n| n.text.as_str());
                if next == Some("(") {
                    if t.text != "lock" && t.text != "drop" {
                        ff.calls.push(site(&t.text, t.line, held));
                    }
                    return;
                }
                // A field access: `recv.field`, not a method call or macro.
                let Some(&(owner, guard)) = owners.get(t.text.as_str()) else { return };
                if i == 0 || toks[i - 1].text != "." || next == Some("!") {
                    return;
                }
                accesses += 1;
                let covered = held.iter().any(|l| l == guard)
                    || impls.iter().any(|(o, r)| o == owner && r.contains(&i))
                    || sig.iter().any(|s| s == owner);
                if covered {
                    witnesses.entry(t.text.as_str()).or_default().push(t.line);
                } else if !lx.waive(t.line, "DA701", used) {
                    violations.push((t.text.as_str(), owner, guard, t.line));
                }
            });
            self.accesses += accesses;
        }
        for (field, owner, guard, line) in violations {
            let seen = witnesses.get(field).map(Vec::as_slice).unwrap_or_default();
            let example = seen
                .iter()
                .find(|&&l| l != line)
                .map(|l| format!("; {} guarded accesses elsewhere (e.g. {rel}:{l})", seen.len()))
                .unwrap_or_default();
            self.out.push(Finding::new(
                "DA701",
                Severity::Error,
                PASS,
                format!("{rel}:{line}"),
                format!(
                    "field `{field}` of `{owner}` read/written without its dominating guard `{guard}` held — a racing thread holding the guard sees torn state{example}"
                ),
            ));
        }

        // DA704: Arc::get_mut / Arc::make_mut — interior mutation that
        // bypasses every guard the file declares.
        for (i, w) in toks.windows(4).enumerate() {
            if !mask.get(i).copied().unwrap_or(false)
                && w[0].kind == TokKind::Ident
                && (w[0].text == "Arc" || w[0].text == "Rc")
                && w[1].text == ":"
                && w[2].text == ":"
                && (w[3].text == "get_mut" || w[3].text == "make_mut")
                && !lx.waive(w[0].line, "DA704", used)
            {
                self.out.push(Finding::new(
                    "DA704",
                    Severity::Error,
                    PASS,
                    format!("{rel}:{}", w[0].line),
                    format!(
                        "`{}::{}` mutates shared state without a guard — uniqueness is a runtime accident here, not an invariant",
                        w[0].text, w[3].text
                    ),
                ));
            }
        }
    }
}

/// One crate's acquired-while-held edges, `(held, acquired) → edge`.
/// Calls resolve to this crate's functions only.
fn crate_edges(fns: &BTreeMap<String, FnFacts>) -> BTreeMap<(String, String), Edge> {
    // Each function's transitively acquired locks to fixpoint, each
    // with the first call chain that reached it.
    let mut acq: BTreeMap<&str, BTreeMap<String, String>> = BTreeMap::new();
    for (name, ff) in fns {
        let set = acq.entry(name.as_str()).or_default();
        for a in &ff.acquisitions {
            set.entry(a.name.clone()).or_insert_with(|| format!("{name} ({}:{})", a.file, a.line));
        }
    }
    loop {
        let mut changed = false;
        for (name, ff) in fns {
            for c in &ff.calls {
                let (Some(theirs), Some(ours)) = (acq.get(c.name.as_str()), acq.get(name.as_str()))
                else {
                    continue;
                };
                let fresh: Vec<(String, String)> = theirs
                    .iter()
                    .filter(|(l, _)| !ours.contains_key(*l))
                    .map(|(l, tail)| {
                        (l.clone(), format!("{name} ({}:{}) → {tail}", c.file, c.line))
                    })
                    .collect();
                if fresh.is_empty() {
                    continue;
                }
                if let Some(ours) = acq.get_mut(name.as_str()) {
                    ours.extend(fresh);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut edges = BTreeMap::new();
    for (name, ff) in fns {
        for a in &ff.acquisitions {
            for h in a.held.iter().filter(|h| **h != a.name) {
                edges.entry((h.clone(), a.name.clone())).or_insert_with(|| Edge {
                    witness: format!(
                        "{name} ({}:{}) locks `{}` while holding `{h}`",
                        a.file, a.line, a.name
                    ),
                    file: Rc::clone(&a.file),
                    line: a.line,
                    via_call: false,
                });
            }
        }
        for c in &ff.calls {
            for (l, chain) in acq.get(c.name.as_str()).into_iter().flatten() {
                for h in c.held.iter().filter(|h| *h != l) {
                    edges.entry((h.clone(), l.clone())).or_insert_with(|| Edge {
                        witness: format!(
                            "{name} ({}:{}) calls `{}` while holding `{h}`; `{l}` acquired via {chain}",
                            c.file, c.line, c.name
                        ),
                        file: Rc::clone(&c.file),
                        line: c.line,
                        via_call: true,
                    });
                }
            }
        }
    }
    edges
}

/// A live guard during a [`walk`].
struct Guard {
    lock: String,
    /// The `let` binding; `None` for a statement temporary.
    var: Option<String>,
    /// Relative brace depth of the acquisition.
    depth: i64,
    /// Depth of the block whose `drop(var)` suspended the guard. A drop
    /// at the binding's own depth is final (the guard dies with that
    /// block anyway); one inside a nested block, typically a diverging
    /// early-return arm, holds only until that block's `}`.
    dropped_at: Option<i64>,
}

/// One step of a [`walk`].
pub(crate) enum Step<'a> {
    /// Lock `.0` acquired on line `.1`; the held set is the one before
    /// the acquisition.
    Acquire(&'a str, u32),
    /// Token `.0`, any token outside an acquisition.
    Token(usize),
}

/// Walk one fn body tracking guard lifetimes, calling `visit` at every
/// step with the names of the locks held there (outermost first).
/// Names a lock site mentions are added to `acquired`.
pub(crate) fn walk(
    toks: &[Token],
    body: Range<usize>,
    helpers: &HashMap<String, String>,
    acquired: &mut HashSet<String>,
    mut visit: impl FnMut(Step, &[String]),
) {
    let live = |guards: &[Guard]| -> Vec<String> {
        guards.iter().filter(|g| g.dropped_at.is_none()).map(|g| g.lock.clone()).collect()
    };
    let mut guards: Vec<Guard> = Vec::new();
    let mut held: Vec<String> = Vec::new();
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
                for g in &mut guards {
                    if g.dropped_at.is_some_and(|d| d > depth) {
                        g.dropped_at = None;
                    }
                }
                held = live(&guards);
            }
            ";" => {
                guards.retain(|g| g.var.is_some());
                held = live(&guards);
            }
            "drop" if toks.get(i + 1).is_some_and(|n| n.text == "(") => {
                if let Some(arg) = toks.get(i + 2).filter(|a| a.kind == TokKind::Ident) {
                    for g in guards.iter_mut().filter(|g| g.var.as_ref() == Some(&arg.text)) {
                        g.dropped_at.get_or_insert(depth);
                    }
                }
                held = live(&guards);
            }
            _ => {}
        }
        if let Some(acq) = acquisition_at(toks, i, end, helpers, acquired) {
            visit(Step::Acquire(&acq.name, t.line), &held);
            let var = bound_var(toks, acq.at, acq.resume, body.start);
            guards.push(Guard { lock: acq.name, var, depth, dropped_at: None });
            held = live(&guards);
            i = acq.resume;
        } else {
            visit(Step::Token(i), &held);
            i += 1;
        }
    }
}

/// A lock acquisition recognized at a token.
struct Acq {
    /// The lock (guard field) name.
    name: String,
    /// Token index of the acquisition's first token.
    at: usize,
    /// Index just past the acquisition's closing `)`.
    resume: usize,
}

/// Recognize a lock acquisition at token `i`: the helper form
/// `lock(&…)`, the method form `recv.lock()`, and guard-returning
/// helper methods on `self`. Every name such a site mentions — and the
/// receiver of `.read()`/`.write()` — is added to `acquired`.
fn acquisition_at(
    toks: &[Token],
    i: usize,
    end: usize,
    helpers: &HashMap<String, String>,
    acquired: &mut HashSet<String>,
) -> Option<Acq> {
    let t = toks.get(i)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    let dotted = i > 0 && toks[i - 1].text == ".";
    let called = toks.get(i + 1).is_some_and(|n| n.text == "(");

    // Helper form: the last ident inside the parens outside any `[...]`.
    if t.text == "lock" && called && !dotted {
        let mut j = i + 1;
        let mut paren = 0i64;
        let mut bracket = 0i64;
        let mut name = None;
        while j < end {
            match toks[j].text.as_str() {
                "(" => paren += 1,
                ")" => {
                    paren -= 1;
                    if paren == 0 {
                        break;
                    }
                }
                "[" => bracket += 1,
                "]" => bracket -= 1,
                _ if toks[j].kind == TokKind::Ident => {
                    acquired.insert(toks[j].text.clone());
                    if bracket == 0 {
                        name = Some(toks[j].text.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        return name.map(|name| Acq { name, at: i, resume: j + 1 });
    }

    // Method forms with empty args: recv.lock(), recv.read(),
    // recv.write(), and a guard-returning helper called on self.
    if !(dotted && called && toks.get(i + 2).is_some_and(|n| n.text == ")")) {
        return None;
    }
    let recv = toks.get(i.checked_sub(2)?).filter(|r| r.kind == TokKind::Ident)?;
    let method_form = matches!(t.text.as_str(), "lock" | "read" | "write");
    if method_form {
        acquired.insert(recv.text.clone());
    }
    let name = match helpers.get(&t.text) {
        Some(guard) if recv.text == "self" => guard.clone(),
        _ if t.text == "lock" => recv.text.clone(),
        _ => return None,
    };
    acquired.insert(name.clone());
    Some(Acq { name, at: i - 2, resume: i + 3 })
}

/// NAME when the acquisition spanning tokens `at..resume` is the whole
/// initializer of `let [mut] NAME = …;`, poison handling (`.unwrap()`,
/// `.expect(…)`, `.unwrap_or_else(…)`) aside: the guard is then
/// block-scoped. In `let n = lock(&m).len();` the guard is a
/// statement temporary.
fn bound_var(toks: &[Token], at: usize, resume: usize, floor: usize) -> Option<String> {
    let mut end = resume;
    while toks.get(end).is_some_and(|t| t.text == ".")
        && toks.get(end + 1).is_some_and(|m| POISON.contains(&m.text.as_str()))
    {
        end = syntax::matching(toks, end + 2, "(", ")")? + 1;
    }
    if toks.get(end)?.text != ";" || toks.get(at.checked_sub(1)?)?.text != "=" {
        return None;
    }
    let name = at.checked_sub(2)?;
    let name_tok = toks.get(name)?;
    let kw = toks.get(at.checked_sub(3)?)?;
    let is_let = kw.text == "let"
        || (kw.text == "mut"
            && at.checked_sub(4).and_then(|k| toks.get(k)).is_some_and(|t| t.text == "let"));
    (name_tok.kind == TokKind::Ident && is_let && name >= floor).then(|| name_tok.text.clone())
}

/// Guard-returning helper methods in one file, `fn lock(&self) ->
/// MutexGuard<'_, Inner>` where exactly one guard field wraps `Inner`:
/// method name → that guard.
fn helpers(
    toks: &[Token],
    fns: &[syntax::FnItem],
    wraps: &BTreeMap<String, Vec<(String, u32)>>,
) -> HashMap<String, String> {
    let mut out = HashMap::new();
    for f in fns.iter().filter(|f| !f.in_test) {
        let sig = fn_signature(toks, f);
        if !sig.iter().any(|t| GUARD_TYPES.contains(&t.as_str())) {
            continue;
        }
        for (owner, guards) in wraps {
            if let [(guard, _)] = guards.as_slice() {
                if sig.iter().any(|t| t == owner) {
                    out.insert(f.name.clone(), guard.clone());
                }
            }
        }
    }
    out
}

/// The guard-returning helper methods of one file, for a walk outside
/// this pass.
pub(crate) fn guard_helpers(lx: &syntax::Lexed, fns: &[syntax::FnItem]) -> HashMap<String, String> {
    let structs = parse_structs(&lx.tokens, &syntax::test_mask(lx));
    helpers(&lx.tokens, fns, &wraps(&structs))
}

/// Each struct some `Mutex`/`RwLock` field of the file wraps → those
/// guard fields, with their lines.
fn wraps(structs: &[StructDecl]) -> BTreeMap<String, Vec<(String, u32)>> {
    let mut out: BTreeMap<String, Vec<(String, u32)>> = BTreeMap::new();
    for (field, ty, line) in structs.iter().flat_map(|s| &s.fields) {
        if let Some(inner) = guard_inner_type(ty).filter(|t| structs.iter().any(|d| &d.name == t)) {
            out.entry(inner).or_default().push((field.clone(), *line));
        }
    }
    out
}

/// Parse every named-field struct declaration outside test regions.
/// Tuple structs and enums carry no named shared state and are skipped.
fn parse_structs(toks: &[Token], mask: &[bool]) -> Vec<StructDecl> {
    let mut out = Vec::new();
    let mut i = 0usize;
    let n = toks.len();
    while i < n {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "struct")
            || mask.get(i).copied().unwrap_or(false)
        {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        // Skip generics between the name and the body.
        let mut j = i + 2;
        if toks.get(j).is_some_and(|t| t.text == "<") {
            let mut depth = 0i64;
            while j < n {
                match toks[j].text.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if toks.get(j).is_none_or(|t| t.text != "{") {
            i = j.max(i + 1);
            continue;
        }
        let body_end = syntax::matching(toks, j, "{", "}").unwrap_or(n);
        let fields = parse_fields(toks, j + 1, body_end);
        out.push(StructDecl { name: name_tok.text.clone(), fields });
        i = body_end.max(i + 1);
    }
    out
}

/// Parse `name: Type` fields at depth 0 of a struct body
/// (`toks[start..end]`), skipping attributes and visibility modifiers.
fn parse_fields(toks: &[Token], start: usize, end: usize) -> Vec<(String, Vec<String>, u32)> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        if toks[i].text == "#" && toks.get(i + 1).is_some_and(|t| t.text == "[") {
            i = syntax::matching(toks, i + 1, "[", "]").map_or(end, |e| e + 1);
            continue;
        }
        if toks[i].text == "pub" {
            i += 1;
            if toks.get(i).is_some_and(|t| t.text == "(") {
                i = syntax::matching(toks, i, "(", ")").map_or(end, |e| e + 1);
            }
            continue;
        }
        if toks[i].kind == TokKind::Ident && toks.get(i + 1).is_some_and(|t| t.text == ":") {
            // The type runs to the `,` (or end) at bracket depth 0.
            let mut j = i + 2;
            let mut ty = Vec::new();
            let (mut angle, mut paren) = (0i64, 0i64);
            while j < end {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "(" | "[" => paren += 1,
                    ")" | "]" => paren -= 1,
                    "," if angle <= 0 && paren <= 0 => break,
                    _ => {}
                }
                ty.push(toks[j].text.clone());
                j += 1;
            }
            out.push((toks[i].text.clone(), ty, toks[i].line));
            i = j + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// If a field type is `Mutex<T>` / `RwLock<T>` (optionally path
/// qualified), the head ident of `T` — `SchedState` out of
/// `Mutex < SchedState < J > >`. `None` for other types.
fn guard_inner_type(ty: &[String]) -> Option<String> {
    let lt = ty.iter().position(|t| t == "<")?;
    let head = ty[..lt].iter().rev().find(|t| t.chars().next().is_some_and(char::is_alphabetic))?;
    if head != "Mutex" && head != "RwLock" {
        return None;
    }
    // The first ident inside the angle brackets, skipping lifetimes
    // and `dyn`.
    ty[lt + 1..]
        .iter()
        .find(|t| {
            t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
                && *t != "dyn"
                && !t.starts_with('\'')
        })
        .cloned()
}

/// The signature tokens of a fn (from `fn` to the body), as text.
fn fn_signature(toks: &[Token], f: &syntax::FnItem) -> Vec<String> {
    if f.body.is_empty() {
        return Vec::new();
    }
    let mut start = f.body.start.saturating_sub(1);
    while start > 0 && !(toks[start].kind == TokKind::Ident && toks[start].text == "fn") {
        start -= 1;
    }
    toks[start..f.body.start.saturating_sub(1).max(start)].iter().map(|t| t.text.clone()).collect()
}

/// `impl` regions per type name: (type, token range of the impl body).
/// Handles `impl T`, `impl<G> T<G>`, and `impl Trait for T`.
fn impl_regions(toks: &[Token]) -> Vec<(String, Range<usize>)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    let n = toks.len();
    while i < n {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "impl") {
            i += 1;
            continue;
        }
        // The header runs to the opening `{` at angle depth 0.
        let mut j = i + 1;
        let mut angle = 0i64;
        while j < n && !(angle == 0 && toks[j].text == "{") {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                _ => {}
            }
            j += 1;
        }
        if j >= n {
            break;
        }
        // The target follows `for` when present; its name is the first
        // ident at angle depth 0 (impl generics sit at depth > 0).
        let header = &toks[i + 1..j];
        let for_at = header.iter().position(|t| t.kind == TokKind::Ident && t.text == "for");
        let mut angle = 0i64;
        let mut name = None;
        for t in &header[for_at.map_or(0, |k| k + 1)..] {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                _ if angle == 0 && t.kind == TokKind::Ident => {
                    name = Some(t.text.clone());
                    break;
                }
                _ => {}
            }
        }
        let body_end = syntax::matching(toks, j, "{", "}").unwrap_or(n);
        if let Some(name) = name {
            out.push((name, j + 1..body_end));
        }
        i = body_end.max(i + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run the pass against in-memory mini-crates, given as
    /// (repo-relative path, source), materialized under a temp dir.
    fn run_on(files: &[(&str, &str)]) -> Vec<Finding> {
        let dir = std::env::temp_dir().join(format!(
            "das-locks-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        for (rel, body) in files {
            let path = dir.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, body).unwrap();
        }
        let out = run(&dir);
        std::fs::remove_dir_all(&dir).ok();
        out
    }

    fn net(name: &str) -> String {
        format!("crates/das-net/src/{name}")
    }

    fn denials(out: &[Finding]) -> Vec<&Finding> {
        out.iter().filter(|f| f.severity != Severity::Info).collect()
    }

    #[test]
    fn recognizer_reads_helper_method_and_indexed_forms() {
        let lx = syntax::lex(
            "let c = lock(&self.conns); let g = self.inner.lock(); let x = lock(&mut rx); \
             lock(&q.inbox[shard]).push(s); let r = table.read(); no locks here",
        );
        let mut acquired = HashSet::new();
        let mut names = Vec::new();
        walk(&lx.tokens, 0..lx.tokens.len(), &HashMap::new(), &mut acquired, |step, _| {
            if let Step::Acquire(lock, _) = step {
                names.push(lock.to_string());
            }
        });
        assert_eq!(names, ["conns", "inner", "rx", "inbox"]);
        // The index and the read() receiver still count as mentioned.
        assert!(acquired.contains("shard") && acquired.contains("table"), "{acquired:?}");
    }

    #[test]
    fn cross_function_inversion_is_da407() {
        let out = run_on(&[(
            &net("peer.rs"),
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
    fn lock_order_inversion_is_caught() {
        let bad = "\
fn inverted(&self) {
    let d = lock(&self.downs);
    let c = lock(&self.conns);
}
";
        let out = run_on(&[(&net("peer.rs"), bad)]);
        assert!(out.iter().any(|f| f.code == "DA407"), "{out:?}");

        let good = "\
fn ordered(&self) {
    let c = lock(&self.conns);
    let i = lock(&self.inner);
    let d = lock(&self.downs);
}
fn fresh(&self) {
    let c = lock(&self.conns);
}
";
        let out = run_on(&[(&net("peer.rs"), good)]);
        assert!(denials(&out).is_empty(), "{out:?}");
    }

    #[test]
    fn errs_rank_is_part_of_the_hierarchy() {
        let lib = "crates/das-load/src/lib.rs";
        let bad = "fn f(&self) { let s = lock(&self.errs); let e = lock(&self.ewma); }\n";
        let out = run_on(&[(lib, bad)]);
        assert!(out.iter().any(|f| f.code == "DA407"), "{out:?}");
        let good = "fn f(&self) { let e = lock(&self.ewma); let s = lock(&self.errs); }\n";
        let out = run_on(&[(lib, good)]);
        assert!(denials(&out).is_empty(), "{out:?}");
    }

    #[test]
    fn indexed_queue_inversion_is_da407() {
        // The engine's real form, one queue per shard: `done[s]` is the
        // lock `done` and `inbox[s]` the lock `inbox`, not two `s`.
        let out = run_on(&[(
            &net("engine.rs"),
            "\
fn route_done_at(&self, q: &Queues, s: usize) {
    let d = lock(&q.done[s]);
    self.adopt_at(q, s);
}
fn adopt_at(&self, q: &Queues, s: usize) {
    let i = lock(&q.inbox[s]);
}
",
        )]);
        let f = out.iter().find(|f| f.code == "DA407").expect("DA407");
        assert!(
            f.message.contains("`inbox` acquired through a call while `done` is held"),
            "{f:?}"
        );
    }

    #[test]
    fn block_scoped_guard_released_before_call_is_clean() {
        let out = run_on(&[(
            &net("server.rs"),
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
        assert!(denials(&out).is_empty(), "guard died at block end; no edge expected: {out:?}");
    }

    #[test]
    fn ab_ba_cycle_is_da408_even_when_locks_are_unranked() {
        // Each function is fine on its own; only the cross-call
        // composition deadlocks.
        let out = run_on(&[(
            &net("peer.rs"),
            "\
fn ab(&self) {
    let c = lock(&self.alpha);
    take_beta();
}
fn take_beta() {
    let d = lock(&self.beta);
}
fn ba(&self) {
    let d = lock(&self.beta);
    take_alpha();
}
fn take_alpha() {
    let c = lock(&self.alpha);
}
",
        )]);
        assert!(out.iter().any(|f| f.code == "DA408"), "{out:?}");
    }

    #[test]
    fn temp_guard_dies_at_statement_end() {
        let out = run_on(&[(
            &net("server.rs"),
            "\
fn outer(&self) {
    lock(&self.inner).staged.insert(k, v);
    let n = lock(&self.inner).staged.len();
    helper();
}
fn helper() {
    let c = lock(&self.conns);
}
",
        )]);
        assert!(denials(&out).is_empty(), "{out:?}");
    }

    #[test]
    fn drop_releases_early() {
        let out = run_on(&[(
            &net("server.rs"),
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
        assert!(denials(&out).is_empty(), "{out:?}");
    }

    #[test]
    fn early_return_drop_does_not_release_the_fall_through() {
        let out = run_on(&[(
            &net("server.rs"),
            "\
fn outer(&self, full: bool) {
    let i = lock(&self.inner);
    if full {
        drop(i);
        return;
    }
    helper();
}
fn helper() {
    let c = lock(&self.conns);
}
",
        )]);
        let f = out.iter().find(|f| f.code == "DA407").expect("DA407");
        assert!(f.entity.ends_with("server.rs:7"), "{f:?}");
    }

    #[test]
    fn transitive_chains_propagate() {
        // outer holds conns; the lock is three calls away.
        let out = run_on(&[(
            &net("server.rs"),
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
        assert!(denials(&out).is_empty(), "{out:?}");
        let info = out.iter().find(|f| f.code == "DA409").unwrap();
        assert!(info.message.contains("1 via calls"), "{}", info.message);
    }

    #[test]
    fn calls_resolve_within_their_own_crate() {
        // Both crates define `shutdown` and `new`. das-net's `shutdown`
        // holds `inner` and calls `new`; only das-obs's `new` takes a
        // lock (`conns`, ranked above `inner`). One graph across crates
        // would join them into an inversion; per-crate graphs must not.
        let out = run_on(&[
            (
                &net("lib.rs"),
                "\
fn shutdown(&self) {
    let i = lock(&self.inner);
    new();
}
fn new() {}
",
            ),
            (
                "crates/das-obs/src/lib.rs",
                "\
fn shutdown(&self) {}
fn new() {
    let c = lock(&self.conns);
}
",
            ),
        ]);
        assert!(denials(&out).is_empty(), "{out:?}");
        let info = out.iter().find(|f| f.code == "DA409").unwrap();
        assert!(info.message.contains(" 0 acquired-while-held edges"), "{}", info.message);
    }

    const GUARDED: &str = "\
struct Inner { items: Vec<u32>, total: u64 }
struct Store { inner: Mutex<Inner> }
impl Store {
    fn push(&self, v: u32) {
        let mut inner = lock(&self.inner);
        inner.items.push(v);
        inner.total += 1;
    }
}
";

    #[test]
    fn guarded_accesses_are_clean_with_a_proof_record() {
        let out = run_on(&[(&net("store.rs"), GUARDED)]);
        assert!(denials(&out).is_empty(), "{out:?}");
        let proof = out.iter().find(|f| f.code == "DA705").expect("proof record");
        assert!(proof.message.contains("`inner` protects `Inner`"), "{}", proof.message);
        assert!(proof.message.contains("items"), "{}", proof.message);
    }

    #[test]
    fn unguarded_access_is_da701_with_witness() {
        let src = "\
struct Inner { items: Vec<u32> }
struct Store { inner: Mutex<Inner>, raw: Inner }
impl Store {
    fn good(&self) {
        let inner = lock(&self.inner);
        inner.items.len();
    }
    fn bad(&self) {
        self.raw.items.push(1);
    }
}
";
        let out = run_on(&[(&net("store.rs"), src)]);
        let f = out.iter().find(|f| f.code == "DA701").expect("DA701");
        assert!(f.message.contains("items"), "{}", f.message);
        assert!(f.message.contains("guarded accesses elsewhere"), "{}", f.message);
    }

    #[test]
    fn impl_of_protected_struct_is_exempt() {
        let src = "\
struct Inner { items: Vec<u32> }
struct Store { inner: Mutex<Inner> }
impl Inner {
    fn count(&self) -> usize { self.items.len() }
}
";
        let out = run_on(&[(&net("store.rs"), src)]);
        assert!(!out.iter().any(|f| f.code == "DA701"), "{out:?}");
    }

    #[test]
    fn guard_returning_helper_resolves() {
        let src = "\
struct Inner { counters: Vec<u32> }
struct Registry { inner: Mutex<Inner> }
impl Registry {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> { self.inner.lock().unwrap() }
    fn bump(&self) { self.lock().counters.push(1); }
    fn encode(&self) { let inner = self.lock(); inner.counters.len(); }
}
";
        let out = run_on(&[(&net("metrics.rs"), src)]);
        assert!(!out.iter().any(|f| f.code == "DA701"), "{out:?}");
    }

    #[test]
    fn dead_lock_is_da703_and_waivable() {
        let src = "\
struct A { used: Mutex<Vec<u32>>, idle: Mutex<Vec<u32>> }
fn f(a: &A) { let g = lock(&a.used); g.len(); }
";
        let out = run_on(&[(&net("a.rs"), src)]);
        let f = out.iter().find(|f| f.code == "DA703").expect("DA703 {out:?}");
        assert!(f.message.contains("idle"), "{}", f.message);
        let waived = "\
struct A { used: Mutex<Vec<u32>>,
    // das-lint: allow(DA703) poison-only fallback lock, acquired via ffi shim
    idle: Mutex<Vec<u32>> }
fn f(a: &A) { let g = lock(&a.used); g.len(); }
";
        let out = run_on(&[(&net("a.rs"), waived)]);
        assert!(!out.iter().any(|f| f.code == "DA703"), "{out:?}");
    }

    #[test]
    fn ambiguous_double_guard_is_da702() {
        let src = "\
struct Inner { items: Vec<u32> }
struct Store { a: Mutex<Inner>, b: Mutex<Inner> }
fn f(s: &Store) { let g = lock(&s.a); let h = lock(&s.b); }
";
        let out = run_on(&[(&net("s.rs"), src)]);
        assert!(out.iter().any(|f| f.code == "DA702"), "{out:?}");
        assert!(!out.iter().any(|f| f.code == "DA701"), "ambiguous structs are skipped: {out:?}");
    }

    #[test]
    fn arc_get_mut_is_da704() {
        let src = "\
struct Inner { items: Vec<u32> }
struct Store { inner: Mutex<Inner> }
fn f(s: &mut std::sync::Arc<Vec<u32>>) {
    let v = Arc::get_mut(s).unwrap();
    let g = lock(&self.inner);
}
";
        let out = run_on(&[(&net("s.rs"), src)]);
        assert!(out.iter().any(|f| f.code == "DA704"), "{out:?}");
    }

    #[test]
    fn stale_waiver_is_da430() {
        let src = "\
struct Inner { items: Vec<u32> }
struct Store { inner: Mutex<Inner> }
fn f(s: &Store) {
    // das-lint: allow(DA701) nothing here actually needs this
    let g = lock(&s.inner);
    g.items.len();
}
";
        let out = run_on(&[(&net("s.rs"), src)]);
        assert!(out.iter().any(|f| f.code == "DA430"), "{out:?}");
    }

    #[test]
    fn temp_guard_and_scope_rules_hold() {
        let src = "\
struct Inner { staged: Vec<u32> }
struct Store { inner: Mutex<Inner> }
impl Store {
    fn temp(&self) { lock(&self.inner).staged.push(1); }
    fn scoped(&self) {
        { let g = lock(&self.inner); g.staged.len(); }
        self.after();
    }
    fn escaped(&self) {
        let g = lock(&self.inner);
        drop(g);
        self.probe.staged.len();
    }
}
";
        let out = run_on(&[(&net("s.rs"), src)]);
        // temp + scoped are guarded; the post-drop access is not.
        let v: Vec<&Finding> = out.iter().filter(|f| f.code == "DA701").collect();
        assert_eq!(v.len(), 1, "{out:?}");
        assert!(v[0].entity.contains("s.rs:12"), "{v:?}");
    }
}
