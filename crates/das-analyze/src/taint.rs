//! Pass — wire-taint dataflow (`DA5xx`).
//!
//! Tracks values that an attacker on the wire controls and flags the
//! places where one reaches an allocation or indexing site without
//! passing a bounds check first:
//!
//! * **Integer taint** (`DA501` error / `DA502` warning) — in
//!   das-net's request-path modules ([`syntax::REQUEST_PATH`]), a
//!   local bound from `take_u8/u16/u32/u64` or
//!   `from_le_bytes`/`from_be_bytes` is tainted. It must be compared
//!   against a bound, clamped with `.min(`/`.clamp(`, or consumed by
//!   the internally-checked `take(n)` before it reaches
//!   `vec![_; n]`, `with_capacity(n)`, a slice index, or a
//!   `read_exact` argument. An unchecked direct
//!   use is `DA501` (remote-triggerable OOM or panic); a use after
//!   arithmetic derivation is `DA502` — the derivation may have
//!   re-bounded the value, so it warns instead of erroring.
//! * **Blob taint** (`DA503` error) — in `server.rs`/`client.rs`, a
//!   payload bound by a wire message destructure
//!   (`StripData { payload }`, `PutStrip { …, payload }`) must have
//!   its `.len()` *compared* before the bytes are consumed (`insert`,
//!   `Bytes::from`, `extend_from_slice`, `store`, indexing, …). A
//!   short strip accepted into a `StripAssembly` panics the daemon on
//!   the first out-of-range element read; merely *reading* `.len()`
//!   (for a byte counter, say) is not validation and does not clear
//!   the taint.
//!
//! The analysis is intra-procedural over the token stream from
//! [`crate::syntax`], with two hand-written inter-procedural facts:
//! the `take_uN` decoders are taint *sources* (their bodies read the
//! wire), and `take(n)` is a taint *sink-that-sanitizes* (its body
//! bounds-checks `n` and errors, so code after a successful
//! `take(n)?` holds a proven-bounded `n`). Known imprecision: any
//! comparison clears taint (the branch sense is not tracked), and a
//! `match` arm value directly after `=>` is never treated as
//! compared. Waive a site with `// das-lint: allow(DA50x)`.

use std::path::Path;

use crate::finding::{Finding, Severity};
use crate::syntax::{self, TokKind, Token};

const PASS: &str = "taint";

/// Calls whose result is an attacker-controlled integer.
const WIRE_SOURCES: [&str; 6] =
    ["take_u8", "take_u16", "take_u32", "take_u64", "from_le_bytes", "from_be_bytes"];

/// Wire message variants whose destructured fields carry a payload.
const BLOB_VARIANTS: [&str; 2] = ["StripData", "PutStrip"];

/// Field names that are payloads when destructured from a
/// [`BLOB_VARIANTS`] pattern (`file`/`strip` ints ride along).
const BLOB_FIELDS: [&str; 2] = ["payload", "data"];

/// Methods that consume a blob's bytes: feeding an unvalidated blob
/// into one of these commits the daemon to its length.
const BLOB_CONSUMERS: [&str; 6] =
    ["insert", "from", "extend_from_slice", "copy_from_slice", "push", "store"];

/// How a tainted integer got its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Taint {
    /// Directly bound from a wire decode.
    Direct,
    /// Derived from a tainted value by arithmetic.
    Derived,
}

/// Run the wire-taint pass over das-net's request-path modules.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut stats = Stats::default();
    for (rel, src) in syntax::workspace_sources(root) {
        if syntax::is_request_path(&rel) {
            taint_file(&rel, &src, &mut out, &mut stats);
        }
    }
    out.push(Finding::new(
        "DA500",
        Severity::Info,
        PASS,
        "crates/das-net/src",
        format!(
            "{} wire-decoded ints tracked ({} sanitized), {} blobs tracked ({} length-checked), {} sink sites examined",
            stats.ints, stats.ints_sanitized, stats.blobs, stats.blobs_sanitized, stats.sinks
        ),
    ));
    out
}

#[derive(Default)]
struct Stats {
    ints: usize,
    ints_sanitized: usize,
    blobs: usize,
    blobs_sanitized: usize,
    sinks: usize,
}

/// Integer taint over one request-path module, blob taint as well in
/// the modules that consume strips, then the file's stale-waiver sweep.
fn taint_file(rel: &str, src: &str, out: &mut Vec<Finding>, stats: &mut Stats) {
    let mut used: Vec<(u32, String)> = Vec::new();
    int_taint_file(rel, src, out, stats, &mut used);
    if is_blob_module(rel) {
        blob_taint_file(rel, src, out, stats, &mut used);
    }
    let lx = syntax::lex(src);
    syntax::stale_waivers(PASS, rel, &lx, &["DA501", "DA502", "DA503"], &used, out);
}

fn is_blob_module(rel: &str) -> bool {
    syntax::crate_of(rel) == "das-net"
        && (rel.ends_with("src/server.rs") || rel.ends_with("src/client.rs"))
}

/// Is `toks[j]` adjacent to a comparison operator? The lexer emits
/// single-char puncts, so `==`/`!=`/`<=`/`>=` appear as pairs; `=>`
/// and `->` must not read as comparisons.
fn cmp_adjacent(toks: &[Token], j: usize) -> bool {
    if let Some(n) = toks.get(j + 1) {
        match n.text.as_str() {
            "<" | ">" => return true,
            "=" | "!" if toks.get(j + 2).is_some_and(|m| m.text == "=") => return true,
            _ => {}
        }
    }
    if j >= 1 {
        let p = toks[j - 1].text.as_str();
        let pp = if j >= 2 { toks[j - 2].text.as_str() } else { "" };
        match p {
            "<" => return true,
            ">" if pp != "=" && pp != "-" => return true,
            "=" if matches!(pp, "=" | "!" | "<" | ">") => return true,
            _ => {}
        }
    }
    false
}

/// Is the tainted ident at `j` locally guarded — `.min(`/`.clamp(`
/// right after it, or a comparison on either side?
fn locally_guarded(toks: &[Token], j: usize) -> bool {
    if cmp_adjacent(toks, j) {
        return true;
    }
    toks.get(j + 1).is_some_and(|d| d.text == ".")
        && toks.get(j + 2).is_some_and(|m| m.text == "min" || m.text == "clamp")
        && toks.get(j + 3).is_some_and(|p| p.text == "(")
}

/// Index of the token matching `toks[open]` (`(`↔`)`, `[`↔`]`,
/// `{`↔`}`), or `toks.len()` if unbalanced.
fn matching_close(toks: &[Token], open: usize, open_t: &str, close_t: &str) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < toks.len() {
        let t = toks[j].text.as_str();
        if t == open_t {
            depth += 1;
        } else if t == close_t {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len()
}

/// End (exclusive) of the statement starting at `from`: the `;` at
/// relative bracket depth 0, or `end`.
fn stmt_end(toks: &[Token], from: usize, end: usize) -> usize {
    let mut depth = 0i64;
    let mut j = from;
    while j < end {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth <= 0 => return j,
            _ => {}
        }
        j += 1;
    }
    end
}

/// Integer-taint analysis over one request-path module.
fn int_taint_file(
    rel: &str,
    src: &str,
    out: &mut Vec<Finding>,
    stats: &mut Stats,
    used: &mut Vec<(u32, String)>,
) {
    let lx = syntax::lex(src);
    let mask = syntax::test_mask(&lx);
    for f in syntax::extract_fns(&lx) {
        if f.in_test || f.body.is_empty() {
            continue;
        }
        if mask.get(f.body.start).copied().unwrap_or(false) {
            continue;
        }
        int_taint_fn(rel, &lx, f.body, out, stats, used);
    }
}

fn int_taint_fn(
    rel: &str,
    lx: &syntax::Lexed,
    body: std::ops::Range<usize>,
    out: &mut Vec<Finding>,
    stats: &mut Stats,
    used: &mut Vec<(u32, String)>,
) {
    let toks = &lx.tokens;
    let mut taint: std::collections::HashMap<String, Taint> = std::collections::HashMap::new();
    let mut i = body.start;
    let end = body.end.min(toks.len());
    while i < end {
        let t = &toks[i];

        // New binding: classify the RHS.
        if t.kind == TokKind::Ident && t.text == "let" {
            if let Some((name, rhs)) = let_binding(toks, i, end) {
                let rhs_toks = &toks[rhs.clone()];
                let has_source = rhs_toks
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && WIRE_SOURCES.contains(&t.text.as_str()));
                let tainted_in_rhs = rhs_toks
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .find_map(|t| taint.get(&t.text).copied());
                let has_arith = rhs_toks
                    .iter()
                    .any(|t| matches!(t.text.as_str(), "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^"));
                if has_source {
                    stats.ints += 1;
                    taint.insert(name, Taint::Direct);
                } else if let Some(k) = tainted_in_rhs {
                    let k = if has_arith { Taint::Derived } else { k };
                    taint.insert(name, k);
                }
            }
        }

        // Sink heads: with_capacity(..) / read_exact(..) / vec![_; ..]
        // / subscript [..].
        if t.kind == TokKind::Ident
            && (t.text == "with_capacity" || t.text == "read_exact")
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            stats.sinks += 1;
            let close = matching_close(toks, i + 1, "(", ")");
            report_hot(rel, lx, &taint, i + 2..close, &t.text, out, used);
        }
        if t.kind == TokKind::Ident
            && t.text == "vec"
            && toks.get(i + 1).is_some_and(|n| n.text == "!")
            && toks.get(i + 2).is_some_and(|n| n.text == "[")
        {
            let close = matching_close(toks, i + 2, "[", "]");
            // Only the length operand (after the `;`) is a sink.
            let semi = stmt_end(toks, i + 3, close);
            if semi < close {
                stats.sinks += 1;
                report_hot(rel, lx, &taint, semi + 1..close, "vec![_; n]", out, used);
            }
        }
        if t.text == "["
            && i > 0
            && (toks[i - 1].kind == TokKind::Ident || toks[i - 1].text == ")" || toks[i - 1].text == "]")
            && toks[i - 1].text != "vec"
            && (i < 2 || toks[i - 2].text != "#")
        {
            stats.sinks += 1;
            let close = matching_close(toks, i, "[", "]");
            report_hot(rel, lx, &taint, i + 1..close, "slice index", out, used);
        }

        // Sanitizers: a compared/clamped occurrence clears the taint;
        // so does consumption by the internally-checked take(n).
        if t.kind == TokKind::Ident && taint.contains_key(&t.text) && locally_guarded(toks, i) {
            taint.remove(&t.text);
            stats.ints_sanitized += 1;
        }
        if t.kind == TokKind::Ident
            && t.text == "take"
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            let close = matching_close(toks, i + 1, "(", ")");
            for tok in &toks[(i + 2).min(close.min(end))..close.min(end)] {
                if tok.kind == TokKind::Ident && taint.remove(&tok.text).is_some() {
                    stats.ints_sanitized += 1;
                }
            }
        }

        i += 1;
    }
}

/// Parse `let [mut] NAME = RHS ;` starting at the `let` token.
/// Returns the bound name and the RHS token range. Destructuring
/// patterns are skipped — taint through tuples is out of scope.
fn let_binding(toks: &[Token], let_at: usize, end: usize) -> Option<(String, std::ops::Range<usize>)> {
    let mut j = let_at + 1;
    if toks.get(j).is_some_and(|t| t.text == "mut") {
        j += 1;
    }
    let name_tok = toks.get(j)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    // Find `=` before any pattern punctuation that would make this a
    // destructure (`(`, `{` right after the name means a pattern).
    j += 1;
    // Skip a type ascription `: Ty` up to the `=`.
    let mut depth = 0i64;
    while j < end {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => return None,
            "<" => depth += 1,
            ">" => depth -= 1,
            "=" if depth <= 0 => {
                // `==` here would be nonsense after a let pattern; `=` it is.
                let rhs_start = j + 1;
                let rhs_end = stmt_end(toks, rhs_start, end);
                return Some((name, rhs_start..rhs_end));
            }
            ";" => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Report every un-guarded tainted ident in `span` as a finding at
/// the sink `what`.
fn report_hot(
    rel: &str,
    lx: &syntax::Lexed,
    taint: &std::collections::HashMap<String, Taint>,
    span: std::ops::Range<usize>,
    what: &str,
    out: &mut Vec<Finding>,
    used: &mut Vec<(u32, String)>,
) {
    let toks = &lx.tokens;
    for j in span.start..span.end.min(toks.len()) {
        let t = &toks[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        let Some(&k) = taint.get(&t.text) else { continue };
        if locally_guarded(toks, j) {
            continue;
        }
        let (code, sev, blame) = match k {
            Taint::Direct => ("DA501", Severity::Error, "decoded from the wire"),
            Taint::Derived => ("DA502", Severity::Warning, "derived from a wire value"),
        };
        if lx.waive(t.line, code, used) {
            continue;
        }
        out.push(Finding::new(
            code,
            sev,
            PASS,
            format!("{rel}:{}", t.line),
            format!(
                "`{}` ({blame}) reaches {what} without a bounds check — a hostile peer controls it",
                t.text
            ),
        ));
    }
}

/// Blob-taint analysis over one consumer module.
fn blob_taint_file(
    rel: &str,
    src: &str,
    out: &mut Vec<Finding>,
    stats: &mut Stats,
    used: &mut Vec<(u32, String)>,
) {
    let lx = syntax::lex(src);
    let mask = syntax::test_mask(&lx);
    for f in syntax::extract_fns(&lx) {
        if f.in_test || f.body.is_empty() {
            continue;
        }
        if mask.get(f.body.start).copied().unwrap_or(false) {
            continue;
        }
        blob_taint_fn(rel, &lx, f.body, out, stats, used);
    }
}

fn blob_taint_fn(
    rel: &str,
    lx: &syntax::Lexed,
    body: std::ops::Range<usize>,
    out: &mut Vec<Finding>,
    stats: &mut Stats,
    used: &mut Vec<(u32, String)>,
) {
    let toks = &lx.tokens;
    let mut blobs: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut reported: std::collections::HashSet<(String, u32)> = std::collections::HashSet::new();
    let mut i = body.start;
    let end = body.end.min(toks.len());
    while i < end {
        let t = &toks[i];

        // Source: shorthand destructure of a payload-bearing
        // variant: `StripData { payload }` / `PutStrip { …, payload }`.
        if t.kind == TokKind::Ident
            && BLOB_VARIANTS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.text == "{")
        {
            let close = matching_close(toks, i + 1, "{", "}");
            let mut j = i + 2;
            while j < close {
                let ft = &toks[j];
                if ft.kind == TokKind::Ident && BLOB_FIELDS.contains(&ft.text.as_str()) {
                    match toks.get(j + 1).map(|n| n.text.as_str()) {
                        // Shorthand binding: `payload` then `,` or `}`.
                        Some(",") | Some("}") => {
                            stats.blobs += 1;
                            blobs.insert(ft.text.clone());
                            j += 1;
                        }
                        // `payload: X` — construction or rename; skip
                        // the value, it is not a fresh wire binding.
                        Some(":") => {
                            let mut depth = 0i64;
                            j += 2;
                            while j < close {
                                match toks[j].text.as_str() {
                                    "(" | "[" | "{" => depth += 1,
                                    ")" | "]" | "}" => depth -= 1,
                                    "," if depth <= 0 => break,
                                    _ => {}
                                }
                                j += 1;
                            }
                        }
                        _ => j += 1,
                    }
                    continue;
                }
                j += 1;
            }
        }

        // Sanitizer: BLOB.len() with a comparison on either side of
        // the call. `.len()` alone (a byte counter) is not validation.
        if t.kind == TokKind::Ident
            && blobs.contains(&t.text)
            && toks.get(i + 1).is_some_and(|d| d.text == ".")
            && toks.get(i + 2).is_some_and(|m| m.text == "len" || m.text == "is_empty")
            && toks.get(i + 3).is_some_and(|p| p.text == "(")
            && toks.get(i + 4).is_some_and(|p| p.text == ")")
        {
            if cmp_adjacent(toks, i + 4) || cmp_adjacent(toks, i) {
                blobs.remove(&t.text);
                stats.blobs_sanitized += 1;
            }
            i += 5;
            continue;
        }

        // Sinks: a consuming call with an unvalidated blob in its
        // arguments, or direct indexing of the blob.
        if t.kind == TokKind::Ident
            && BLOB_CONSUMERS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            stats.sinks += 1;
            let close = matching_close(toks, i + 1, "(", ")");
            for a in &toks[(i + 2).min(close.min(end))..close.min(end)] {
                if a.kind == TokKind::Ident
                    && blobs.contains(&a.text)
                    && !reported.contains(&(a.text.clone(), a.line))
                {
                    if lx.waive(a.line, "DA503", used) {
                        continue;
                    }
                    reported.insert((a.text.clone(), a.line));
                    out.push(Finding::new(
                        "DA503",
                        Severity::Error,
                        PASS,
                        format!("{rel}:{}", a.line),
                        format!(
                            "wire blob `{}` consumed by `{}(` without a length check — a short strip from a peer panics the assembly",
                            a.text, t.text
                        ),
                    ));
                }
            }
        }
        if t.text == "["
            && i > 0
            && toks[i - 1].kind == TokKind::Ident
            && blobs.contains(&toks[i - 1].text)
        {
            let a = &toks[i - 1];
            stats.sinks += 1;
            if !reported.contains(&(a.text.clone(), a.line)) && !lx.waive(a.line, "DA503", used) {
                reported.insert((a.text.clone(), a.line));
                out.push(Finding::new(
                    "DA503",
                    Severity::Error,
                    PASS,
                    format!("{rel}:{}", a.line),
                    format!("wire blob `{}` indexed without a length check", a.text),
                ));
            }
        }

        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(rel: &str, src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        if syntax::is_request_path(rel) {
            taint_file(rel, src, &mut out, &mut Stats::default());
        }
        out
    }

    #[test]
    fn unchecked_wire_length_reaching_alloc_is_da501() {
        let src = "\
fn read(&mut self) -> Result<Vec<u8>, E> {
    let len = u32::from_le_bytes(hdr[8..12].try_into()?) as usize;
    let mut payload = vec![0u8; len];
    Ok(payload)
}
";
        let out = run_on("crates/das-net/src/codec.rs", src);
        assert!(out.iter().any(|f| f.code == "DA501"), "{out:?}");
    }

    #[test]
    fn compared_length_is_sanitized() {
        let src = "\
fn read(&mut self) -> Result<Vec<u8>, E> {
    let len = u32::from_le_bytes(hdr[8..12].try_into()?) as usize;
    if len > MAX_PAYLOAD {
        return Err(E::TooBig);
    }
    let mut payload = vec![0u8; len];
    Ok(payload)
}
";
        let out = run_on("crates/das-net/src/codec.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn take_consumption_sanitizes_and_derivation_downgrades() {
        let clean = "\
fn take_blob(&mut self) -> Result<Vec<u8>, E> {
    let len = self.take_u32()? as usize;
    Ok(self.take(len)?.to_vec())
}
";
        assert!(run_on("crates/das-net/src/proto.rs", clean).is_empty());

        let derived = "\
fn pad(&mut self) -> Result<Vec<u8>, E> {
    let len = self.take_u32()? as usize;
    let padded = len + 7;
    Ok(vec![0u8; padded])
}
";
        let out = run_on("crates/das-net/src/proto.rs", derived);
        assert!(out.iter().any(|f| f.code == "DA502"), "{out:?}");
        assert!(!out.iter().any(|f| f.code == "DA501"), "{out:?}");
    }

    #[test]
    fn min_clamp_guard_is_sanitizing_even_at_the_sink() {
        let src = "\
fn read(&mut self) -> Vec<u8> {
    let len = self.take_u32() as usize;
    vec![0u8; len.min(MAX)]
}
";
        assert!(run_on("crates/das-net/src/proto.rs", src).is_empty());
    }

    #[test]
    fn unchecked_peer_blob_consumed_is_da503() {
        let src = "\
fn fetched(reply: Message, asm: &mut StripAssembly) -> Message {
    match reply {
        Message::StripData { payload } => {
            bytes += payload.len() as u64;
            asm.insert(StripId(u), Bytes::from(payload));
            Message::Ok
        }
        _ => err(),
    }
}
";
        let out = run_on("crates/das-net/src/server.rs", src);
        assert!(out.iter().any(|f| f.code == "DA503"), "{out:?}");
    }

    #[test]
    fn length_compared_blob_is_clean() {
        let src = "\
fn fetched(reply: Message, staged: &mut Vec<(StripId, Bytes)>) -> Message {
    match reply {
        Message::StripData { payload } => {
            if payload.len() != spec.strip_len(sid, len) {
                return err(ErrorCode::StripLengthMismatch);
            }
            staged.push((sid, Bytes::from(payload)));
            Message::Ok
        }
        _ => err(),
    }
}
";
        assert!(run_on("crates/das-net/src/server.rs", src).is_empty());
    }

    #[test]
    fn integer_taint_covers_every_request_path_module() {
        let src = "\
fn handle(hdr: [u8; 4]) {
    let n = u32::from_le_bytes(hdr) as usize;
    let mut out = Vec::with_capacity(n);
}
";
        let out = run_on("crates/das-net/src/engine.rs", src);
        assert!(out.iter().any(|f| f.code == "DA501"), "{out:?}");
        // Off the request path (a bin, another crate) the rule is silent.
        assert!(run_on("crates/das-net/src/bin/dasd.rs", src).is_empty());
        assert!(run_on("crates/das-load/src/lib.rs", src).is_empty());
    }

    #[test]
    fn destructured_putstrip_payload_needs_a_check() {
        let bad = "\
fn handle(m: Message) -> Message {
    match m {
        Message::PutStrip { file, strip, payload } => {
            inner.store.store(id, StripId(strip), Bytes::from(payload), true);
            Message::PutStripOk
        }
        _ => err(),
    }
}
";
        let out = run_on("crates/das-net/src/server.rs", bad);
        assert!(out.iter().any(|f| f.code == "DA503"), "{out:?}");

        let good = "\
fn handle(m: Message) -> Message {
    match m {
        Message::PutStrip { file, strip, payload } => {
            if payload.len() != expected {
                return err(ErrorCode::StripLengthMismatch);
            }
            inner.store.store(id, StripId(strip), Bytes::from(payload), true);
            Message::PutStripOk
        }
        _ => err(),
    }
}
";
        assert!(run_on("crates/das-net/src/server.rs", good).is_empty());
    }

    #[test]
    fn variant_construction_is_not_a_binding() {
        // `Message::StripData { payload: data.to_vec() }` builds a
        // reply; `data` must not become blob-tainted.
        let src = "\
fn get(inner: &Inner) -> Message {
    match inner.store.read_strip(id, sid) {
        Ok(data) => Message::StripData { payload: data.to_vec() },
        Err(_) => err(),
    }
}
";
        assert!(run_on("crates/das-net/src/server.rs", src).is_empty());
    }

    #[test]
    fn waivers_hold_for_taint_codes() {
        let src = "\
fn read(&mut self) -> Vec<u8> {
    let len = self.take_u32() as usize;
    // das-lint: allow(DA501)
    vec![0u8; len]
}
";
        assert!(run_on("crates/das-net/src/proto.rs", src).is_empty());
    }
}
