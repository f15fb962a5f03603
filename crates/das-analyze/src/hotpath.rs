//! Pass — hot-path allocation and blocking analysis (`DA800`–`DA806`).
//!
//! PRs 6–8 bought their throughput with two invariants the compiler
//! does not enforce: the strip reply path is **zero-copy** (a reply
//! is head + refcounted `bytes::Bytes` body + inline CRC tail, no
//! payload copies), and the event-loop **shard threads never block**
//! (readiness is polled; anything slow runs on a worker). Either
//! invariant dies silently — one `to_vec()` in a reply arm or one
//! blocking `recv` on the poll loop and the benchmarks quietly
//! regress. This pass re-proves both on every run, over the das-net
//! request-path sources, with a name-based call graph:
//!
//! * `DA801` (error) — a per-request heap copy (`.to_vec()` /
//!   `.to_owned()` on byte-ish data, `.clone()` on a hot byte
//!   buffer, `format!` on the frame path outside error
//!   construction) in a function reachable from the request-serving
//!   roots (`shard_loop`, `run_job`).
//! * `DA803` (error) — a blocking operation (sleep, blocking
//!   connect, channel `recv`, condvar `wait`, `read_to_end`)
//!   reachable from the shard poll loop, which must never stall —
//!   every connection on the shard stalls with it.
//! * `DA804` (error) — a byte-copy sink (`extend_from_slice` /
//!   `copy_from_slice`) fed a strip payload, defeating the `Bytes`
//!   zero-copy path.
//! * `DA805` (error) — a lock guard held across a dispatch/enqueue/
//!   write call: serializes the request path behind the guard (and
//!   deadlocks if the callee takes the same lock). The held set comes
//!   from the `locks` pass's guard walker.
//! * `DA800` (info) — proof record: every function of the engine/
//!   codec write path (`run_job` → `pump_write` → `write_some` →
//!   `write_segments`, `raw_frame_parts`, `frame_parts_summed`,
//!   `frame_parts_opts`, `split_payload`, `queue`) carries zero
//!   unwaived hot-path findings.
//! * `DA806` (info) — census: files, functions, reachable set,
//!   sites examined.
//!
//! An allocation sized by a wire-decoded length is not this pass's
//! business: `taint` tracks those lengths through the same modules
//! and reports the unchecked ones as `DA501`.
//!
//! Known imprecision, stated so the reader can calibrate: calls are
//! matched by bare name (as in `locks`), with a generic-name
//! ignore list (`new`, `from`, `clone`, …) so `Vec::new()` does not
//! alias every constructor in the crate; receiver "byte-ishness" is
//! judged by identifier vocabulary (`payload`, `buf`, `frame`, …).
//! Any flagged site can be waived with `// das-lint: allow(DA80x)`
//! plus a justification; the `DA430` stale-waiver sweep keeps the
//! waivers honest.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::Path;

use crate::finding::{Finding, Severity};
use crate::locks::{self, Step};
use crate::syntax::{self, TokKind, Token};

const PASS: &str = "hotpath";

/// Reachability roots for the allocation checks: the shard poll loop
/// and the worker job runner — between them, every token that runs
/// per served request.
const ALLOC_ROOTS: [&str; 2] = ["shard_loop", "run_job"];

/// Reachability roots for the blocking checks: only the shard poll
/// loop. Workers MAY block (peer fetches during `Execute` are
/// blocking RPC by design); a shard thread that blocks stalls every
/// connection it owns.
const BLOCK_ROOTS: [&str; 1] = ["shard_loop"];

/// The zero-copy write path whose cleanliness `DA800` certifies.
const WRITE_PATH: [&str; 9] = [
    "run_job",
    "pump_write",
    "write_some",
    "write_segments",
    "raw_frame_parts",
    "frame_parts_summed",
    "frame_parts_opts",
    "split_payload",
    "queue",
];

/// Receiver identifiers treated as byte buffers for `DA801`
/// `.to_vec()`/`.to_owned()` checks.
const BYTEISH: [&str; 12] = [
    "payload", "bytes", "buf", "frame", "tail", "head", "body", "data", "blob", "strip",
    "out_bytes", "spans",
];

/// Receivers whose `.clone()` is a real byte copy. `data`/`bytes`
/// are deliberately absent: in this workspace those are
/// [`bytes::Bytes`] handles, whose clone is a refcount bump.
const CLONE_HOT: [&str; 7] = ["payload", "out_bytes", "buf", "frame", "tail", "head", "body"];

/// First-argument identifiers that mark an `extend_from_slice` /
/// `copy_from_slice` as a payload copy (`DA804`). Matched by exact
/// identifier equality, so `payload_len` does not count.
const PAYLOADISH: [&str; 6] = ["payload", "body", "blob", "strip", "spans", "bytes"];

/// Identifiers whose presence between statement start and a
/// `format!` marks it as error/diagnostic construction — the cold
/// path, exempt from `DA801`.
const ERROR_CTX: [&str; 11] = [
    "Err",
    "err",
    "Error",
    "DecodeError",
    "NetError",
    "panic",
    "assert",
    "debug_assert",
    "expect",
    "unreachable",
    "error",
];

/// Callees a held guard must not span (`DA805`): the dispatch,
/// scheduling and socket-write boundaries of the request path.
const DISPATCHY: [&str; 6] = [
    "dispatch",
    "process_request",
    "enqueue",
    "write_some",
    "write_frame_vectored",
    "write_message_opts",
];

/// Call-edge identifiers too generic to mean an intra-crate call:
/// matching them by name would alias `Vec::new` with every `new` in
/// the crate and make the whole graph reachable.
const EDGE_IGNORE: [&str; 30] = [
    "new", "default", "from", "into", "to_vec", "to_owned", "clone", "drop", "len", "is_empty",
    "push", "pop", "insert", "get", "remove", "contains", "iter", "next", "unwrap", "expect",
    "ok", "err", "map", "and_then", "min", "max", "clamp", "is_some", "is_none", "take",
];

/// One flagged site, pending the reachability decision.
struct Candidate {
    code: &'static str,
    line: u32,
    message: String,
}

/// One function definition's hot-path facts.
struct FnDef {
    name: String,
    file: String,
    /// Allocation-class candidates (DA801/DA804), fire when
    /// the fn is reachable from [`ALLOC_ROOTS`].
    alloc: Vec<Candidate>,
    /// Blocking-class candidates (DA803), fire when the fn is
    /// reachable from [`BLOCK_ROOTS`].
    block: Vec<Candidate>,
    /// Guard-across-dispatch candidates (DA805), alloc-scoped.
    guard: Vec<Candidate>,
    calls: BTreeSet<String>,
}

/// Run the hot-path pass over the das-net request-path sources under
/// `root`.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut defs: Vec<FnDef> = Vec::new();
    let mut lexed: syntax::Scanned = BTreeMap::new();
    let mut files = 0usize;

    for (rel, src) in syntax::workspace_sources(root) {
        if !syntax::is_request_path(&rel) {
            continue;
        }
        files += 1;
        let lx = syntax::lex(&src);
        let fns = syntax::extract_fns(&lx);
        let helpers = locks::guard_helpers(&lx, &fns);
        for f in fns.iter().filter(|f| !f.in_test) {
            // Empty-bodied fns (and braceless trait signatures) carry
            // no facts but must still count as *defined* — the DA800
            // proof checks the write-path names exist.
            defs.push(scan_fn(&lx, f, &rel, &helpers));
        }
        lexed.insert(rel, (lx, Vec::new()));
    }

    // Merge same-named fns (conservatively, as `locks` does) and
    // restrict call edges to names defined in the scanned set.
    let names: BTreeSet<String> = defs.iter().map(|d| d.name.clone()).collect();
    let mut graph: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for d in &defs {
        let entry = graph.entry(d.name.clone()).or_default();
        entry.extend(d.calls.iter().filter(|c| names.contains(*c)).cloned());
    }

    let alloc_reach = reach(&graph, &ALLOC_ROOTS);
    let block_reach = reach(&graph, &BLOCK_ROOTS);

    // Emit reachable candidates, honoring waivers; track per-file
    // waiver uses for the stale sweep, and per-fn unwaived counts for
    // the DA800 proof.
    let mut dirty: BTreeSet<String> = BTreeSet::new();
    let mut emitted: BTreeSet<(&'static str, String, u32)> = BTreeSet::new();
    let mut sites = 0usize;
    for d in &defs {
        let scopes: [(&[Candidate], &BTreeSet<String>); 3] = [
            (&d.alloc, &alloc_reach),
            (&d.guard, &alloc_reach),
            (&d.block, &block_reach),
        ];
        for (cands, reachable) in scopes {
            sites += cands.len();
            if !reachable.contains(&d.name) {
                continue;
            }
            for c in cands {
                if !emitted.insert((c.code, d.file.clone(), c.line)) {
                    continue; // nested-fn double scan
                }
                let waived = lexed
                    .get_mut(&d.file)
                    .is_some_and(|(lx, used)| lx.waive(c.line, c.code, used));
                if !waived {
                    dirty.insert(d.name.clone());
                    out.push(Finding::new(
                        c.code,
                        Severity::Error,
                        PASS,
                        format!("{}:{}", d.file, c.line),
                        c.message.clone(),
                    ));
                }
            }
        }
    }

    for (rel, (lx, used)) in &lexed {
        let owned = ["DA801", "DA803", "DA804", "DA805"];
        syntax::stale_waivers(PASS, rel, lx, &owned, used, &mut out);
    }

    // DA800 — proof record for the zero-copy write path, only
    // meaningful when the engine is actually present (fixture
    // mini-repos may not carry it).
    let write_path_present = WRITE_PATH.iter().filter(|w| names.contains(**w)).count();
    if write_path_present == WRITE_PATH.len()
        && WRITE_PATH.iter().all(|w| !dirty.contains(*w))
    {
        out.push(Finding::new(
            "DA800",
            Severity::Info,
            PASS,
            "crates/das-net/src",
            format!(
                "write path clean: {} carry no unwaived per-request allocation, copy or blocking site — strip replies stay zero-copy",
                WRITE_PATH.join(" → ")
            ),
        ));
    }

    let roots_found = ALLOC_ROOTS.iter().filter(|r| names.contains(**r)).count();
    out.push(Finding::new(
        "DA806",
        Severity::Info,
        PASS,
        "crates/das-net/src",
        format!(
            "{files} request-path files, {} fns ({} distinct names), {} reachable from {:?}, {} from {:?}, {sites} candidate sites examined ({roots_found}/{} roots present)",
            defs.len(),
            names.len(),
            alloc_reach.len(),
            ALLOC_ROOTS,
            block_reach.len(),
            BLOCK_ROOTS,
            ALLOC_ROOTS.len(),
        ),
    ));
    out
}

/// Names reachable from `roots` in the merged call graph (roots
/// included, when defined).
fn reach(graph: &BTreeMap<String, BTreeSet<String>>, roots: &[&str]) -> BTreeSet<String> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut stack: Vec<String> = roots
        .iter()
        .filter(|r| graph.contains_key(**r))
        .map(|r| r.to_string())
        .collect();
    while let Some(n) = stack.pop() {
        if !seen.insert(n.clone()) {
            continue;
        }
        if let Some(callees) = graph.get(&n) {
            stack.extend(callees.iter().cloned());
        }
    }
    seen
}

/// Whether `rel` is a frame-path file, where `format!` means string
/// assembly per frame rather than a one-off diagnostic.
fn frame_path_file(rel: &str) -> bool {
    rel.ends_with("engine.rs") || rel.ends_with("codec.rs") || rel.ends_with("proto.rs")
}

/// Scan one function body for hot-path candidates and call edges.
fn scan_fn(
    lx: &syntax::Lexed,
    f: &syntax::FnItem,
    rel: &str,
    helpers: &HashMap<String, String>,
) -> FnDef {
    let toks = &lx.tokens;
    let body = f.body.clone();
    let end = body.end.min(toks.len());
    let mut def = FnDef {
        name: f.name.clone(),
        file: rel.to_string(),
        alloc: Vec::new(),
        block: Vec::new(),
        guard: Vec::new(),
        calls: BTreeSet::new(),
    };

    // The held set for DA805 comes from the `locks` guard walker.
    locks::walk(toks, body.clone(), helpers, &mut HashSet::new(), |step, held| {
        let Step::Token(i) = step else { return };
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            return;
        }
        let dotted = i > body.start && toks[i - 1].text == ".";
        let called = toks.get(i + 1).is_some_and(|n| n.text == "(");
        let banged = toks.get(i + 1).is_some_and(|n| n.text == "!");

        // Call edges (plain calls, not macros), minus generic names.
        if called && !dotted && !EDGE_IGNORE.contains(&t.text.as_str()) {
            def.calls.insert(t.text.clone());
        }
        if called && dotted && !EDGE_IGNORE.contains(&t.text.as_str()) {
            // Method calls also resolve by bare name.
            def.calls.insert(t.text.clone());
        }

        // DA805 — a dispatch/write boundary crossed under a guard.
        if called && DISPATCHY.contains(&t.text.as_str()) {
            if let Some(lock) = held.first() {
                def.guard.push(Candidate {
                    code: "DA805",
                    line: t.line,
                    message: format!(
                        "`{}` called while guard `{}` is held — the lock serializes the request path across the dispatch boundary; release it first",
                        t.text, lock
                    ),
                });
            }
        }

        // DA801 — byte-ish to_vec/to_owned.
        if called && dotted && (t.text == "to_vec" || t.text == "to_owned") {
            if let Some(recv) = receiver_ident(toks, i - 1, body.start) {
                if BYTEISH.contains(&recv.as_str()) {
                    def.alloc.push(Candidate {
                        code: "DA801",
                        line: t.line,
                        message: format!(
                            "`{recv}.{}()` heap-copies request bytes on the hot path — carry a `Bytes` handle or borrow instead",
                            t.text
                        ),
                    });
                }
            }
        }

        // DA801 — hot-buffer clone (immediate receiver only; Bytes
        // handles clone by refcount and are not listed).
        if called && dotted && t.text == "clone" && i >= 2 && toks[i - 2].kind == TokKind::Ident {
            let recv = toks[i - 2].text.as_str();
            if CLONE_HOT.contains(&recv) {
                def.alloc.push(Candidate {
                    code: "DA801",
                    line: t.line,
                    message: format!(
                        "`{recv}.clone()` duplicates a hot byte buffer per request — move it, or share a `Bytes` handle"
                    ),
                });
            }
        }

        // DA801 — format! on the frame path outside error context.
        if banged && t.text == "format" && frame_path_file(rel) && !in_error_ctx(toks, i, body.start)
        {
            def.alloc.push(Candidate {
                code: "DA801",
                line: t.line,
                message: "`format!` allocates a String on the frame path — preformat once or write into a reused buffer".to_string(),
            });
        }

        // DA803 — blocking operations.
        if called {
            let blocking = match t.text.as_str() {
                "sleep" => Some("sleeps"),
                "wait" | "wait_timeout" | "wait_while" if dotted => Some("parks on a condvar"),
                "recv" | "recv_timeout" if dotted => Some("blocks on a channel"),
                "connect" if !dotted => Some("opens a blocking connection"),
                "read_to_end" | "read_to_string" => Some("reads to EOF"),
                _ => None,
            };
            if let Some(verb) = blocking {
                def.block.push(Candidate {
                    code: "DA803",
                    line: t.line,
                    message: format!(
                        "`{}` {verb} on a path the shard poll loop reaches — every connection on the shard stalls; move it to a worker",
                        t.text
                    ),
                });
            }
        }

        // DA804 — payload byte-copy sinks.
        if called && dotted && (t.text == "extend_from_slice" || t.text == "copy_from_slice") {
            if let Some(arg) = first_arg_ident(toks, i + 1, end) {
                if PAYLOADISH.contains(&arg.as_str()) {
                    def.alloc.push(Candidate {
                        code: "DA804",
                        line: t.line,
                        message: format!(
                            "`{}(&{arg}…)` copies payload bytes into another buffer — ship the `Bytes` segment through the vectored writer instead",
                            t.text
                        ),
                    });
                }
            }
        }
    });
    def
}

/// The receiver identifier of a dotted call at `dot_idx` (the `.`
/// token): scan backwards over one postfix chain (idents, `.`,
/// `?`, index brackets, call parens) and return the first byte-ish
/// ident found, else the nearest ident. Bounded lookback.
fn receiver_ident(toks: &[Token], dot_idx: usize, floor: usize) -> Option<String> {
    let mut j = dot_idx;
    let mut nearest: Option<String> = None;
    let mut steps = 0;
    while j > floor && steps < 8 {
        j -= 1;
        steps += 1;
        let t = &toks[j];
        match t.kind {
            TokKind::Ident => {
                if BYTEISH.contains(&t.text.as_str()) {
                    return Some(t.text.clone());
                }
                if nearest.is_none() {
                    nearest = Some(t.text.clone());
                }
            }
            TokKind::Punct => match t.text.as_str() {
                "." | "?" | "]" | "[" | ")" => {}
                _ => break,
            },
            TokKind::Num => {}
            _ => break,
        }
    }
    nearest
}

/// First identifier in the argument list opened by the paren at
/// `open_idx` (skipping `&`, `mut`, `*`).
fn first_arg_ident(toks: &[Token], open_idx: usize, end: usize) -> Option<String> {
    let mut j = open_idx + 1;
    while j < end {
        let t = &toks[j];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "&" | "*") | (TokKind::Ident, "mut") => j += 1,
            (TokKind::Ident, _) => return Some(t.text.clone()),
            _ => return None,
        }
    }
    None
}

/// Whether the statement containing token `i` reads as error /
/// assertion construction — scan back to the statement opener.
fn in_error_ctx(toks: &[Token], i: usize, floor: usize) -> bool {
    let mut j = i;
    let mut steps = 0;
    while j > floor && steps < 40 {
        j -= 1;
        steps += 1;
        let t = &toks[j];
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            return false;
        }
        if t.kind == TokKind::Ident
            && (ERROR_CTX.contains(&t.text.as_str())
                || t.text.starts_with("assert")
                || t.text.ends_with("Error"))
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run the pass against an in-memory mini-crate materialized
    /// under a temp dir.
    fn run_on(files: &[(&str, &str)]) -> Vec<Finding> {
        let dir = std::env::temp_dir().join(format!(
            "das-hotpath-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let src = dir.join("crates/das-net/src");
        std::fs::create_dir_all(&src).unwrap();
        for (name, body) in files {
            std::fs::write(src.join(name), body).unwrap();
        }
        let out = run(&dir);
        std::fs::remove_dir_all(&dir).ok();
        out
    }

    fn denials(out: &[Finding]) -> Vec<&Finding> {
        out.iter().filter(|f| f.severity >= Severity::Warning).collect()
    }

    #[test]
    fn reachable_byte_copy_is_da801_and_unreachable_is_not() {
        let out = run_on(&[(
            "engine.rs",
            "\
fn run_job(job: Job) {
    let payload = job.payload.to_vec();
}
fn cold_tool() {
    let payload = x.payload.to_vec();
}
",
        )]);
        let hits: Vec<_> = out.iter().filter(|f| f.code == "DA801").collect();
        assert_eq!(hits.len(), 1, "{out:?}");
        assert!(hits[0].entity.ends_with(":2"), "{hits:?}");
    }

    #[test]
    fn waiver_suppresses_and_stale_waiver_fires() {
        let out = run_on(&[(
            "engine.rs",
            "\
fn run_job(job: Job) {
    // das-lint: allow(DA801) fault-injection path
    let frame = job.frame.to_vec();
}
",
        )]);
        assert!(!out.iter().any(|f| f.code == "DA801"), "{out:?}");
        assert!(!out.iter().any(|f| f.code == "DA430"), "{out:?}");

        let stale = run_on(&[(
            "engine.rs",
            "\
fn run_job(job: Job) {
    // das-lint: allow(DA801) nothing here copies
    let n = job.frame.len();
}
",
        )]);
        assert!(stale.iter().any(|f| f.code == "DA430"), "{stale:?}");
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let out = run_on(&[(
            "engine.rs",
            "\
fn run_job(job: Job) { serve(job); }
fn serve(job: Job) {}
#[cfg(test)]
mod tests {
    fn run_job_helper() {
        let payload = x.payload.to_vec();
        std::thread::sleep(d);
    }
}
",
        )]);
        assert!(denials(&out).is_empty(), "{out:?}");
    }

    #[test]
    fn blocking_is_shard_scoped_not_worker_scoped() {
        let out = run_on(&[(
            "engine.rs",
            "\
fn shard_loop(q: &Q) {
    poll_once(q);
}
fn poll_once(q: &Q) {
    std::thread::sleep(BACKOFF);
}
fn run_job(job: Job) {
    worker_fetch(job);
}
fn worker_fetch(job: Job) {
    std::thread::sleep(RETRY);
}
",
        )]);
        let hits: Vec<_> = out.iter().filter(|f| f.code == "DA803").collect();
        assert_eq!(hits.len(), 1, "workers may sleep, shards may not: {out:?}");
        assert!(hits[0].entity.ends_with(":5"), "{hits:?}");
    }

    #[test]
    fn bytes_handle_clone_is_not_flagged_but_hot_buffer_clone_is() {
        let out = run_on(&[(
            "engine.rs",
            "\
fn run_job(job: Job) {
    let d = job.data.clone();
    let p = payload.clone();
}
",
        )]);
        let hits: Vec<_> = out.iter().filter(|f| f.code == "DA801").collect();
        assert_eq!(hits.len(), 1, "{out:?}");
        assert!(hits[0].entity.ends_with(":3"), "{hits:?}");
    }

    #[test]
    fn payload_copy_sink_is_da804_and_length_field_is_not() {
        let out = run_on(&[(
            "codec.rs",
            "\
fn run_job(out: &mut Vec<u8>, payload: &[u8], payload_len: &[u8]) {
    out.extend_from_slice(payload);
    out.extend_from_slice(payload_len);
}
",
        )]);
        let hits: Vec<_> = out.iter().filter(|f| f.code == "DA804").collect();
        assert_eq!(hits.len(), 1, "{out:?}");
        assert!(hits[0].entity.ends_with(":2"), "{hits:?}");
    }

    #[test]
    fn guard_across_dispatch_is_da805_and_released_guard_is_not() {
        let out = run_on(&[(
            "server.rs",
            "\
fn run_job(s: &S, job: Job) {
    let g = lock(&s.inner);
    dispatch(s, job);
}
fn shard_loop(s: &S, job: Job) {
    {
        let g = lock(&s.inner);
    }
    dispatch(s, job);
}
fn dispatch(s: &S, job: Job) {}
",
        )]);
        let hits: Vec<_> = out.iter().filter(|f| f.code == "DA805").collect();
        assert_eq!(hits.len(), 1, "{out:?}");
        assert!(hits[0].entity.ends_with(":3"), "{hits:?}");
    }

    #[test]
    fn early_return_drop_keeps_the_guard_across_a_later_dispatch() {
        // The drop only releases the guard on the early-return arm; the
        // fall-through still holds it when it dispatches.
        let out = run_on(&[(
            "server.rs",
            "\
fn run_job(s: &S, job: Job, full: bool) {
    let g = lock(&s.inner);
    if full {
        drop(g);
        return;
    }
    dispatch(s, job);
}
fn dispatch(s: &S, job: Job) {}
",
        )]);
        let hits: Vec<_> = out.iter().filter(|f| f.code == "DA805").collect();
        assert_eq!(hits.len(), 1, "{out:?}");
        assert!(hits[0].entity.ends_with(":7"), "{hits:?}");
    }

    #[test]
    fn format_on_frame_path_flags_but_error_construction_is_exempt() {
        let out = run_on(&[(
            "proto.rs",
            "\
fn run_job(m: &M) -> String {
    let label = format!(\"{}-{}\", m.a, m.b);
    return Err(DecodeError::Bad(format!(\"bad op {}\", m.op)));
}
",
        )]);
        let hits: Vec<_> = out.iter().filter(|f| f.code == "DA801").collect();
        assert_eq!(hits.len(), 1, "{out:?}");
        assert!(hits[0].entity.ends_with(":2"), "{hits:?}");
    }

    #[test]
    fn write_path_proof_emits_when_clean() {
        let files = [(
            "engine.rs",
            "\
fn shard_loop(q: &Q) { pump_write(q); }
fn run_job(j: J) { queue(j); }
fn pump_write(q: &Q) { write_some(q); }
fn write_some(q: &Q) { write_segments(q); }
fn write_segments(q: &Q) {}
fn raw_frame_parts(a: u8) {}
fn frame_parts_summed(m: &M) { split_payload(m); raw_frame_parts(0); }
fn frame_parts_opts(m: &M) { frame_parts_summed(m); }
fn split_payload(m: &M) {}
fn queue(j: J) {}
",
        )];
        let out = run_on(&files);
        assert!(out.iter().any(|f| f.code == "DA800"), "{out:?}");
        assert!(out.iter().any(|f| f.code == "DA806"), "{out:?}");

        let dirty = [(
            "engine.rs",
            "\
fn shard_loop(q: &Q) { pump_write(q); }
fn run_job(j: J) { queue(j); let tail = parts.tail.to_vec(); }
fn pump_write(q: &Q) { write_some(q); }
fn write_some(q: &Q) { write_segments(q); }
fn write_segments(q: &Q) {}
fn raw_frame_parts(a: u8) {}
fn frame_parts_summed(m: &M) { split_payload(m); raw_frame_parts(0); }
fn frame_parts_opts(m: &M) { frame_parts_summed(m); }
fn split_payload(m: &M) {}
fn queue(j: J) {}
",
        )];
        let out = run_on(&dirty);
        assert!(!out.iter().any(|f| f.code == "DA800"), "{out:?}");
        assert!(out.iter().any(|f| f.code == "DA801"), "{out:?}");
    }

    #[test]
    fn non_request_path_files_are_out_of_scope() {
        let out = run_on(&[(
            "store.rs",
            "fn run_job(j: J) { let payload = j.payload.to_vec(); }\n",
        )]);
        assert!(denials(&out).is_empty(), "{out:?}");
    }
}
