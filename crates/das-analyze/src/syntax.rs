//! A dependency-free Rust tokenizer and item extractor — the
//! syntactic substrate of the source-level passes — plus the
//! workspace walk and the waiver bookkeeping they share.
//!
//! Per-line heuristics have a structural false-positive class: a
//! string literal containing `.unwrap()`, a `//` comment containing a
//! sink name, or a `#[cfg(test)]` module whose body contains a brace
//! inside a string all confuse them. This module lexes source into a
//! real token stream (string/char/raw-string literals are single
//! tokens, comments are trivia on the side) and recovers just enough
//! structure — `fn` items with brace-balanced bodies, attributes,
//! `#[cfg(test)]` regions — for the taint, lock, atomics and hot-path
//! passes to reason on tokens instead of lines.
//!
//! Design constraints:
//!
//! * **Total.** [`lex`] never panics, whatever the input: an
//!   unterminated string or comment consumes to end of input and the
//!   stream stays well-formed. The tokenizer property tests throw
//!   mutated and truncated inputs at it.
//! * **Reprint-stable.** [`reprint`] renders a token stream back to
//!   text (one space between tokens, newlines preserved by line
//!   number); lexing the reprint yields the same kinds and texts —
//!   the lex→reprint→relex fixpoint the property tests assert.
//!   Punctuation is lexed one character at a time, which makes the
//!   fixpoint trivially stable (`<<` and `< <` are the same stream).

use std::collections::BTreeMap;
use std::path::Path;

use crate::finding::{Finding, Severity};

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `lock`, `unwrap`, …).
    Ident,
    /// Lifetime (`'a`, `'static`) — the quote is part of the text.
    Lifetime,
    /// Numeric literal, suffix included (`42`, `0x1F`, `1.5e3f64`).
    Num,
    /// String-like literal: `"…"`, `r#"…"#`, `b"…"`, `br"…"` — one
    /// token, escapes and all.
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// One punctuation character (`.`, `{`, `!`, …).
    Punct,
    /// A byte the lexer could not classify (stray `\u{7f}`, an
    /// unterminated quote's remainder, …). Kept in the stream so
    /// downstream passes see *something* rather than silently
    /// skipping bytes.
    Unknown,
}

/// One lexed token: kind, verbatim text, and the 1-based line it
/// starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Classification.
    pub kind: TokKind,
    /// The token's exact source text.
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

/// A comment, kept out of the token stream but retained for waiver
/// lookup (`// das-lint: allow(CODE)` lives in comments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment text including the `//` / `/*` introducer.
    pub text: String,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens, in order. Comments and whitespace are excluded.
    pub tokens: Vec<Token>,
    /// Comment trivia, in order.
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// Whether a waiver covers a `code` finding on `line`; a hit is
    /// recorded in `used` as `(line, code)` so the pass's stale-waiver
    /// sweep ([`stale_waivers`]) can tell live waivers from dead
    /// ones. The one waiver check every pass goes through.
    pub fn waive(&self, line: u32, code: &str, used: &mut Vec<(u32, String)>) -> bool {
        let hit = self.waived(line, code);
        if hit {
            used.push((line, code.to_string()));
        }
        hit
    }

    /// Whether any comment on `line` or the line directly above
    /// carries the waiver token `das-lint: allow(<code>)`.
    fn waived(&self, line: u32, code: &str) -> bool {
        let token = format!("das-lint: allow({code})");
        self.comments
            .iter()
            .any(|c| (c.line == line || c.line + 1 == line) && c.text.contains(&token))
    }

    /// Every waiver in the comment trivia as `(comment line, code)`
    /// pairs — one per `das-lint: allow(CODE)` occurrence. Fuel for
    /// the stale-waiver lint (`DA430`): a pass that knows which of
    /// its waivers actually fired can flag the ones that suppressed
    /// nothing.
    pub fn waivers(&self) -> Vec<(u32, String)> {
        const NEEDLE: &str = "das-lint: allow(";
        let mut out = Vec::new();
        for c in &self.comments {
            let mut rest = c.text.as_str();
            while let Some(p) = rest.find(NEEDLE) {
                let tail = &rest[p + NEEDLE.len()..];
                let Some(end) = tail.find(')') else { break };
                let code = &tail[..end];
                if code.starts_with("DA") && code.len() > 2 {
                    out.push((c.line, code.to_string()));
                }
                rest = &tail[end..];
            }
        }
        out
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into tokens and comment trivia. Never panics; malformed
/// input degrades to [`TokKind::Unknown`] tokens or literals that run
/// to end of input.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let n = b.len();

    // Count newlines in b[from..to] into `line`.
    let bump = |line: &mut u32, b: &[char], from: usize, to: usize| {
        *line += b[from..to.min(b.len())].iter().filter(|&&c| c == '\n').count() as u32;
    };

    while i < n {
        let c = b[i];
        let start_line = line;
        // Whitespace.
        if c.is_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            out.comments
                .push(Comment { line: start_line, text: b[start..i].iter().collect() });
            continue;
        }
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start = i;
            i += 2;
            let mut depth = 1u32;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            bump(&mut line, &b, start, i);
            out.comments
                .push(Comment { line: start_line, text: b[start..i].iter().collect() });
            continue;
        }
        // Raw / byte strings: r"…", r#"…"#, b"…", br#"…"#, brb? no.
        if (c == 'r' || c == 'b') && raw_or_byte_string_start(&b, i) {
            let (end, _terminated) = scan_string_like(&b, i);
            bump(&mut line, &b, i, end);
            out.tokens.push(Token {
                kind: TokKind::Str,
                text: b[i..end].iter().collect(),
                line: start_line,
            });
            i = end;
            continue;
        }
        // Byte char b'x'.
        if c == 'b' && i + 1 < n && b[i + 1] == '\'' {
            let end = scan_char(&b, i + 1);
            out.tokens.push(Token {
                kind: TokKind::Char,
                text: b[i..end].iter().collect(),
                line: start_line,
            });
            bump(&mut line, &b, i, end);
            i = end;
            continue;
        }
        // Identifiers and keywords.
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(b[i]) {
                i += 1;
            }
            out.tokens.push(Token {
                kind: TokKind::Ident,
                text: b[start..i].iter().collect(),
                line: start_line,
            });
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let end = scan_number(&b, i);
            out.tokens.push(Token {
                kind: TokKind::Num,
                text: b[i..end].iter().collect(),
                line: start_line,
            });
            i = end;
            continue;
        }
        // Plain strings.
        if c == '"' {
            let (end, _terminated) = scan_plain_string(&b, i);
            bump(&mut line, &b, i, end);
            out.tokens.push(Token {
                kind: TokKind::Str,
                text: b[i..end].iter().collect(),
                line: start_line,
            });
            i = end;
            continue;
        }
        // Quote: lifetime or char literal.
        if c == '\'' {
            // Lifetime: 'ident NOT followed by a closing quote.
            if i + 1 < n && is_ident_start(b[i + 1]) {
                let mut j = i + 1;
                while j < n && is_ident_continue(b[j]) {
                    j += 1;
                }
                if j >= n || b[j] != '\'' {
                    out.tokens.push(Token {
                        kind: TokKind::Lifetime,
                        text: b[i..j].iter().collect(),
                        line: start_line,
                    });
                    i = j;
                    continue;
                }
            }
            let end = scan_char(&b, i);
            bump(&mut line, &b, i, end);
            out.tokens.push(Token {
                kind: TokKind::Char,
                text: b[i..end].iter().collect(),
                line: start_line,
            });
            i = end;
            continue;
        }
        // Punctuation: one character at a time (reprint-stable).
        if c.is_ascii_punctuation() {
            out.tokens.push(Token { kind: TokKind::Punct, text: c.to_string(), line: start_line });
            i += 1;
            continue;
        }
        // Anything else.
        out.tokens.push(Token { kind: TokKind::Unknown, text: c.to_string(), line: start_line });
        i += 1;
    }
    out
}

/// Whether position `i` (at `r` or `b`) starts a raw or byte string:
/// `r"`, `r#`, `b"`, `br"`, `br#`, `rb` is not a thing.
fn raw_or_byte_string_start(b: &[char], i: usize) -> bool {
    let n = b.len();
    match b[i] {
        'r' => i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '#'),
        'b' => {
            (i + 1 < n && b[i + 1] == '"')
                || (i + 2 < n && b[i + 1] == 'r' && (b[i + 2] == '"' || b[i + 2] == '#'))
        }
        _ => false,
    }
}

/// Scan a string-like literal starting at `i` (on `r`, `b` or `"`).
/// Returns (end index, terminated?). Handles raw-string `#` fences
/// and escape sequences; an unterminated literal runs to end of
/// input.
fn scan_string_like(b: &[char], i: usize) -> (usize, bool) {
    let n = b.len();
    let mut j = i;
    // Skip the b / r / br introducer.
    while j < n && (b[j] == 'b' || b[j] == 'r') {
        j += 1;
    }
    let raw = j > i && b[i..j].contains(&'r');
    // Count raw-string fence hashes.
    let mut hashes = 0usize;
    while raw && j < n && b[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || b[j] != '"' {
        // Not actually a string (e.g. `r#` of a raw identifier
        // `r#type`): treat introducer as done; caller falls back.
        // We still scan as best we can from the quote if present.
        return (j, false);
    }
    j += 1; // opening quote
    while j < n {
        if !raw && b[j] == '\\' {
            j += 2;
            continue;
        }
        if b[j] == '"' {
            // A raw string needs `hashes` following '#'s to close.
            let mut k = 0usize;
            while k < hashes && j + 1 + k < n && b[j + 1 + k] == '#' {
                k += 1;
            }
            if k == hashes {
                return (j + 1 + hashes, true);
            }
        }
        j += 1;
    }
    (n, false)
}

/// Scan a plain `"…"` literal starting at the quote.
fn scan_plain_string(b: &[char], i: usize) -> (usize, bool) {
    let n = b.len();
    let mut j = i + 1;
    while j < n {
        match b[j] {
            '\\' => j += 2,
            '"' => return (j + 1, true),
            _ => j += 1,
        }
    }
    (n, false)
}

/// Scan a char/byte-char literal starting at the opening quote.
/// Bounded lookahead: a char literal holds at most one (possibly
/// escaped) character; give up (returning what was consumed) rather
/// than scanning to end of file on a stray quote.
fn scan_char(b: &[char], i: usize) -> usize {
    let n = b.len();
    let mut j = i + 1;
    if j < n && b[j] == '\\' {
        j += 2;
        // \u{…} escapes.
        if j <= n && j >= 1 && j - 1 < n && b[j - 1] == '{' {
            while j < n && b[j] != '}' {
                j += 1;
            }
            j += 1;
        }
    } else if j < n {
        j += 1;
    }
    if j < n && b[j] == '\'' {
        return j + 1;
    }
    // Unterminated or not really a char literal: consume just the
    // quote as an Unknown-ish char token of length 1.
    i + 1
}

/// Scan a numeric literal (ints, floats, hex/oct/bin, exponents,
/// suffixes, underscores). `.` is consumed only when followed by a
/// digit, so `1..2` lexes as `1`, `.`, `.`, `2`.
fn scan_number(b: &[char], i: usize) -> usize {
    let n = b.len();
    let mut j = i;
    let radix_prefix = j + 1 < n && b[j] == '0' && matches!(b[j + 1], 'x' | 'o' | 'b' | 'X' | 'O' | 'B');
    if radix_prefix {
        j += 2;
        while j < n && (b[j].is_ascii_alphanumeric() || b[j] == '_') {
            j += 1;
        }
        return j;
    }
    while j < n && (b[j].is_ascii_digit() || b[j] == '_') {
        j += 1;
    }
    // Fractional part.
    if j + 1 < n && b[j] == '.' && b[j + 1].is_ascii_digit() {
        j += 1;
        while j < n && (b[j].is_ascii_digit() || b[j] == '_') {
            j += 1;
        }
    }
    // Exponent.
    if j < n && (b[j] == 'e' || b[j] == 'E') {
        let mut k = j + 1;
        if k < n && (b[k] == '+' || b[k] == '-') {
            k += 1;
        }
        if k < n && b[k].is_ascii_digit() {
            j = k;
            while j < n && (b[j].is_ascii_digit() || b[j] == '_') {
                j += 1;
            }
        }
    }
    // Type suffix (u8, f64, usize, …).
    while j < n && (b[j].is_ascii_alphanumeric() || b[j] == '_') {
        j += 1;
    }
    j
}

/// Render a token stream back to text: tokens joined by single
/// spaces, with newlines inserted when the line number advances so
/// line anchors survive a reprint. Comments are trivia and are not
/// reprinted.
pub fn reprint(tokens: &[Token]) -> String {
    let mut out = String::new();
    let mut line = 1u32;
    for t in tokens {
        if t.line > line {
            for _ in line..t.line {
                out.push('\n');
            }
            line = t.line;
        } else if !out.is_empty() && !out.ends_with('\n') {
            out.push(' ');
        }
        out.push_str(&t.text);
        line += t.text.matches('\n').count() as u32;
    }
    out
}

/// A `fn` item recovered from the token stream.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body **between** (exclusive of) the
    /// outer braces. Empty for braceless (`;`-terminated) signatures.
    pub body: std::ops::Range<usize>,
    /// Whether the item sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// Per-token mask: `true` where the token is inside a `#[cfg(test)]`
/// item (the attribute itself, the item's tokens, and everything
/// nested in its braces). Brace balance is computed on *tokens*, so
/// braces inside strings, chars and comments cannot desynchronize it
/// — the exact false-positive class the old line heuristic had.
pub fn test_mask(lx: &Lexed) -> Vec<bool> {
    let toks = &lx.tokens;
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokKind::Punct && toks[i].text == "#" && is_cfg_test_attr(toks, i) {
            // Mark the attribute and the item it decorates.
            let attr_end = match matching(toks, i + 1, "[", "]") {
                Some(e) => e,
                None => {
                    i += 1;
                    continue;
                }
            };
            let item_end = item_end_after_attrs(toks, attr_end + 1);
            for m in mask.iter_mut().take(item_end.min(toks.len())).skip(i) {
                *m = true;
            }
            i = item_end;
            continue;
        }
        i += 1;
    }
    mask
}

/// Whether the `#` at token index `i` opens a `#[cfg(test)]` (or
/// `#[cfg(all(test, …))]`-style) attribute.
fn is_cfg_test_attr(toks: &[Token], i: usize) -> bool {
    // Expect `#` `[` cfg `(` … test … `)` `]`.
    if toks.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
        return false;
    }
    if toks.get(i + 2).map(|t| t.text.as_str()) != Some("cfg") {
        return false;
    }
    let Some(end) = matching(toks, i + 1, "[", "]") else {
        return false;
    };
    toks[i + 2..end].iter().any(|t| t.kind == TokKind::Ident && t.text == "test")
}

/// Index of the matching closer for the opener at `open_idx` (whose
/// text must be `open`). `None` when unbalanced.
pub(crate) fn matching(toks: &[Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    if toks.get(open_idx).map(|t| t.text.as_str()) != Some(open) {
        return None;
    }
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open_idx) {
        if t.kind == TokKind::Punct {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
    }
    None
}

/// Given the index just past an attribute, find the index just past
/// the decorated item: further attributes are skipped, then the item
/// runs to its matching `}` (brace items) or its `;` (braceless
/// items like `use` / `mod x;`).
fn item_end_after_attrs(toks: &[Token], mut i: usize) -> usize {
    let n = toks.len();
    // Skip any further attributes.
    while i < n && toks[i].text == "#" && toks.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
        match matching(toks, i + 1, "[", "]") {
            Some(e) => i = e + 1,
            None => return n,
        }
    }
    // Scan forward to the first `{` or `;` at depth 0 of `(<>)`-ish
    // nesting; parens and brackets can hold braces only in
    // expressions (const generics etc.), which attributes rarely
    // decorate — a `{` seen first is the item body.
    let mut j = i;
    while j < n {
        match toks[j].text.as_str() {
            ";" => return j + 1,
            "{" => return matching(toks, j, "{", "}").map_or(n, |e| e + 1),
            _ => j += 1,
        }
    }
    n
}

/// Extract every `fn` item (free functions and methods alike) with
/// its body token range and test-region flag.
pub fn extract_fns(lx: &Lexed) -> Vec<FnItem> {
    let toks = &lx.tokens;
    let in_test = test_mask(lx);
    let mut out = Vec::new();
    let mut i = 0usize;
    let n = toks.len();
    while i < n {
        let t = &toks[i];
        if !(t.kind == TokKind::Ident && t.text == "fn") {
            i += 1;
            continue;
        }
        // `fn` in `extern "C" fn`-typed positions without a name is
        // rare in this workspace; require an ident name.
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Find the body: first `{` before a terminating `;` at
        // signature level. Track `(`/`[`/`<`? Generic angle brackets
        // don't nest braces in signatures we care about; scanning for
        // the first `{` or `;` is sufficient here because where-bound
        // closures in signatures don't occur in this workspace.
        let mut j = i + 2;
        let mut body = 0..0;
        // A `;` terminates the signature only at paren/bracket depth
        // zero — `fn f(hdr: [u8; 4])` carries one inside its type.
        let mut depth = 0i64;
        while j < n {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth == 0 => {
                    j += 1;
                    break;
                }
                "{" => {
                    let end = matching(toks, j, "{", "}").unwrap_or(n);
                    body = j + 1..end;
                    j = end + 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        out.push(FnItem {
            name: name_tok.text.clone(),
            line: t.line,
            body,
            in_test: in_test.get(i).copied().unwrap_or(false),
        });
        i = j.max(i + 1);
    }
    out
}

/// das-net's request-path modules (repo-relative suffixes): every
/// byte they touch comes off a socket. `hotpath` scans them for
/// per-request costs and `taint` tracks wire-decoded integers
/// through them.
pub const REQUEST_PATH: [&str; 9] = [
    "crates/das-net/src/client.rs",
    "crates/das-net/src/server.rs",
    "crates/das-net/src/codec.rs",
    "crates/das-net/src/conn.rs",
    "crates/das-net/src/peer.rs",
    "crates/das-net/src/retry.rs",
    "crates/das-net/src/proto.rs",
    "crates/das-net/src/engine.rs",
    "crates/das-net/src/hedge.rs",
];

/// Whether a repo-relative path is one of the [`REQUEST_PATH`]
/// modules.
pub fn is_request_path(rel: &str) -> bool {
    REQUEST_PATH.iter().any(|m| rel.ends_with(m))
}

/// Every `crates/*/src/**/*.rs` file under `root`, plus the root
/// package's `src/**/*.rs` (the `das` CLI), as (repo-relative path,
/// contents), sorted by path. Shared with every source pass.
pub fn workspace_sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    collect_rs_files(&root.join("src"), &mut files);
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, src));
    }
    out
}

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // From the crates/ level, descend only into each crate's
            // src/ tree — benches, tests/ and target/ are out of
            // scope by construction.
            if dir.ends_with("crates") {
                collect_rs_files(&path.join("src"), out);
            } else {
                collect_rs_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Which crate a repo-relative path is in: the directory under
/// `crates/`, or `das` for the root package's `src/` tree.
pub fn crate_of(rel: &str) -> &str {
    if rel.starts_with("src/") {
        return "das";
    }
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
}

/// The files a pass scanned, by repo-relative path: each one lexed,
/// with the (finding line, code) pairs where one of its waivers fired.
pub type Scanned = BTreeMap<String, (Lexed, Vec<(u32, String)>)>;

/// `DA430` — stale-waiver sweep, shared by every waiver-honoring
/// pass. `owned` is the set of codes the calling pass can suppress;
/// `used` holds the (finding line, code) pairs where a waiver
/// actually fired this run. A waiver comment on line `L` covers
/// findings on `L` and `L+1`; one that covers nothing is reported.
/// Waivers annotating `#[cfg(test)]` code are the tests' business
/// and are skipped.
pub fn stale_waivers(
    pass: &'static str,
    rel: &str,
    lx: &Lexed,
    owned: &[&str],
    used: &[(u32, String)],
    out: &mut Vec<Finding>,
) {
    let mask = test_mask(lx);
    for (line, code) in lx.waivers() {
        if !owned.contains(&code.as_str()) {
            continue;
        }
        let in_test = lx
            .tokens
            .iter()
            .position(|t| t.line >= line)
            .is_some_and(|i| mask.get(i).copied().unwrap_or(false));
        if in_test {
            continue;
        }
        let fired = used.iter().any(|(l, c)| c == &code && (*l == line || *l == line + 1));
        if !fired {
            out.push(Finding::new(
                "DA430",
                Severity::Warning,
                pass,
                format!("{rel}:{line}"),
                format!(
                    "stale waiver: `das-lint: allow({code})` suppresses nothing — remove it so it cannot mask a future regression"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).tokens.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn literals_are_single_tokens() {
        let toks = kinds(r#"let s = "call .unwrap() for fun"; x"#);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Str && t.contains(".unwrap()")));
        // The unwrap inside the string is NOT an Ident token.
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "unwrap"));
    }

    #[test]
    fn comments_are_trivia_with_lines() {
        let lx = lex("a // eprintln! in a comment\nb /* block\nspanning */ c");
        let idents: Vec<&str> = lx.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(idents, ["a", "b", "c"]);
        assert_eq!(lx.comments.len(), 2);
        assert_eq!(lx.comments[0].line, 1);
        assert_eq!(lx.comments[1].line, 2);
        assert_eq!(lx.tokens[2].line, 3, "line count survives block comments");
    }

    #[test]
    fn raw_and_byte_strings_lex_whole() {
        let toks = kinds(r##"r#"a "quoted" b"# b"bytes" br#"raw }"# 'x' '\n' 'a"##);
        let strs: Vec<&str> =
            toks.iter().filter(|(k, _)| *k == TokKind::Str).map(|(_, t)| t.as_str()).collect();
        assert_eq!(strs.len(), 3, "{toks:?}");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Lifetime && t == "'a"));
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let toks = kinds("for i in 1..20 { 0x1F 1.5e3f64 }");
        let nums: Vec<&str> =
            toks.iter().filter(|(k, _)| *k == TokKind::Num).map(|(_, t)| t.as_str()).collect();
        assert_eq!(nums, ["1", "20", "0x1F", "1.5e3f64"]);
    }

    #[test]
    fn waivers_resolve_from_comment_trivia() {
        let lx = lex("// das-lint: allow(DA801)\nx.to_vec();\ny.to_vec();");
        assert!(lx.waived(2, "DA801"));
        assert!(!lx.waived(3, "DA801"));
        assert!(!lx.waived(2, "DA804"));
    }

    #[test]
    fn waiver_enumeration_lists_every_allow() {
        let lx = lex(
            "// das-lint: allow(DA801) reason\nx();\n/* das-lint: allow(DA502) */ y();\n// a plain comment\n",
        );
        assert_eq!(lx.waivers(), vec![(1, "DA801".to_string()), (3, "DA502".to_string())]);
    }

    fn stale(src: &str, used: &[(u32, String)]) -> Vec<Finding> {
        let mut out = Vec::new();
        stale_waivers("t", "x.rs", &lex(src), &["DA801"], used, &mut out);
        out
    }

    #[test]
    fn a_waiver_that_fired_is_live_and_one_that_did_not_is_da430() {
        let src = "fn f() {\n    // das-lint: allow(DA801) audited\n    let v = b.to_vec();\n}\n";
        let out = stale(src, &[]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].code, out[0].entity.as_str()), ("DA430", "x.rs:2"));
        assert!(stale(src, &[(3, "DA801".to_string())]).is_empty());
        // Codes other passes own are theirs to sweep.
        assert!(stale("// das-lint: allow(DA502)\nfn f() {}\n", &[]).is_empty());
    }

    #[test]
    fn waivers_in_test_code_are_not_stale() {
        let src = "#[cfg(test)]\nmod tests {\n    // das-lint: allow(DA801) fixture text\n    fn t() {}\n}\n";
        assert!(stale(src, &[]).is_empty());
    }

    #[test]
    fn test_mask_survives_braces_in_strings() {
        let src = "#[cfg(test)]\nmod tests {\n    const B: &str = \"}\";\n    fn t() { x.unwrap(); }\n}\nfn live() { y.unwrap(); }\n";
        let lx = lex(src);
        let mask = test_mask(&lx);
        // Every token of the test mod is masked; `live`'s body is not.
        for (t, m) in lx.tokens.iter().zip(&mask) {
            if t.text == "live" {
                assert!(!m, "live fn wrongly masked");
            }
            if t.text == "t" {
                assert!(m, "test fn not masked");
            }
        }
        let fns = extract_fns(&lx);
        assert_eq!(fns.len(), 2);
        assert!(fns.iter().any(|f| f.name == "t" && f.in_test));
        assert!(fns.iter().any(|f| f.name == "live" && !f.in_test));
    }

    #[test]
    fn extract_fns_recovers_bodies_and_lines() {
        let src = "fn a(x: u32) -> u32 { x + 1 }\nimpl T {\n    fn b(&self) { self.c(); }\n}\ntrait Q { fn sig(&self); }\n";
        let lx = lex(src);
        let fns = extract_fns(&lx);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "sig"]);
        assert_eq!(fns[0].line, 1);
        assert_eq!(fns[1].line, 3);
        assert!(fns[2].body.is_empty(), "braceless signature has no body");
        // Body range of `b` covers the self.c() call.
        let body: Vec<&str> =
            lx.tokens[fns[1].body.clone()].iter().map(|t| t.text.as_str()).collect();
        assert!(body.contains(&"c"), "{body:?}");
    }

    #[test]
    fn reprint_relex_fixpoint_on_tricky_input() {
        let src = "fn f<'a>(x: &'a [u8]) -> Vec<Vec<u8>> {\n    let s = \"}\"; // brace in string\n    let r = r#\"raw \" quote\"#;\n    if x.len() > 1..2 { y << 3 } else { 'q' }\n}\n";
        let first = lex(src);
        let printed = reprint(&first.tokens);
        let second = lex(&printed);
        let a: Vec<(TokKind, &str)> =
            first.tokens.iter().map(|t| (t.kind, t.text.as_str())).collect();
        let b: Vec<(TokKind, &str)> =
            second.tokens.iter().map(|t| (t.kind, t.text.as_str())).collect();
        assert_eq!(a, b);
        // Line numbers survive too (reprint inserts newlines).
        for (x, y) in first.tokens.iter().zip(second.tokens.iter()) {
            assert_eq!(x.line, y.line, "line drift at {:?}", x.text);
        }
    }

    #[test]
    fn unterminated_input_does_not_panic() {
        for src in ["\"unterminated", "r#\"open", "/* open comment", "'", "b'", "0x", "#["] {
            let _ = lex(src); // must not panic
        }
    }
}
