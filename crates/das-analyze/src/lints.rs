//! Pass — request-path source lints, token-based.
//!
//! Lints over the workspace sources, focused on the places where a
//! panic or a stray print is a production hazard rather than a style
//! nit:
//!
//! * `DA401`/`DA402`/`DA403` (error) — `.unwrap()`, `.expect(` or
//!   `panic!` in das-net's wire-facing modules. A panic on the
//!   request path kills a daemon serving every client; these modules
//!   must surface typed errors instead.
//! * `DA404` (error) — `eprintln!` outside das-obs. Diagnostics go
//!   through the das-obs event/metrics layer so they carry structure
//!   and can be rate-limited; raw stderr writes bypass all of it.
//! * `DA406` (warning) — `println!` in library (non-`bin/`,
//!   non-test) code. Library crates must not write to a stdout they
//!   do not own; das-bench's report harness is the sanctioned
//!   exception.
//! * `DA430` (warning) — a `// das-lint: allow(CODE)` waiver that
//!   suppressed nothing. Stale waivers are worse than none: they
//!   read as "this site is audited" while silently licensing the
//!   next regression. Every waiver-honoring pass reports its own
//!   stale waivers through [`stale_waivers`].
//!
//! The pass runs on the token stream from [`crate::syntax`], not on
//! raw lines: a `.unwrap()` inside a string literal, an `eprintln!`
//! inside a comment, and a `#[cfg(test)]` module whose body contains
//! braces in strings are all invisible to it — the false-positive
//! classes the line-based predecessor had.
//!
//! Any site can be waived with `// das-lint: allow(<code>)` on the
//! same line or the line directly above; the waiver is deliberate and
//! greppable. Tokens inside `#[cfg(test)]` items are exempt — tests
//! panic by design.

use std::collections::BTreeMap;
use std::path::Path;

use crate::finding::{Finding, Severity};
use crate::syntax::{self, TokKind};

const PASS: &str = "lints";

/// Request-path modules (repo-relative suffixes): every byte the
/// das-net entries touch comes off a socket, so panics are
/// remote-triggerable; the das-load entries and the `das` CLI drive
/// live fleets from CI and long soak runs, where an unwrap on a
/// transient error kills the run instead of counting it.
pub const REQUEST_PATH: [&str; 13] = [
    "crates/das-net/src/client.rs",
    "crates/das-net/src/server.rs",
    "crates/das-net/src/codec.rs",
    "crates/das-net/src/conn.rs",
    "crates/das-net/src/peer.rs",
    "crates/das-net/src/retry.rs",
    "crates/das-net/src/proto.rs",
    "crates/das-net/src/engine.rs",
    "crates/das-net/src/hedge.rs",
    "crates/das-load/src/lib.rs",
    "crates/das-load/src/fleet.rs",
    "crates/das-load/src/report.rs",
    "src/bin/das.rs",
];

/// Crates whose library code may print to stdout: das-obs is the
/// diagnostics layer itself; das-bench's report renderer exists to
/// print.
const STDOUT_EXEMPT: [&str; 2] = ["das-obs", "das-bench"];

/// Run the lints over `root/crates/*/src/**/*.rs`.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut scanned = 0usize;
    for (rel, src) in workspace_sources(root) {
        scanned += 1;
        lint_file(&rel, &src, &mut out);
    }
    out.push(Finding::new(
        "DA400",
        Severity::Info,
        PASS,
        "crates/*/src",
        format!("{scanned} source files linted (token-based)"),
    ));
    out
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

fn is_bin(rel: &str) -> bool {
    rel.contains("/src/bin/") || rel.starts_with("src/bin/") || rel.ends_with("/main.rs")
}

/// Whether a repo-relative path is one of the request-path modules
/// in [`REQUEST_PATH`].
pub fn is_request_path(rel: &str) -> bool {
    REQUEST_PATH.iter().any(|m| rel.ends_with(m))
}

/// Lint one file. `rel` is the repo-relative path used in entities.
pub fn lint_file(rel: &str, src: &str, out: &mut Vec<Finding>) {
    let lx = syntax::lex(src);
    let mask = syntax::test_mask(&lx);
    let toks = &lx.tokens;
    let request_path = is_request_path(rel);
    let library = !is_bin(rel) && !STDOUT_EXEMPT.contains(&crate_of(rel));
    // (finding line, code) pairs where a waiver actually suppressed a
    // finding — fuel for the stale-waiver sweep at the end.
    let mut used: Vec<(u32, String)> = Vec::new();

    for i in 0..toks.len() {
        if mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let dotted_call = i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(");
        let banged = toks.get(i + 1).is_some_and(|n| n.text == "!");

        if request_path {
            if t.text == "unwrap" && dotted_call && !lx.waive(t.line, "DA401", &mut used) {
                out.push(site(
                    "DA401",
                    rel,
                    t.line,
                    "`.unwrap()` on the request path — a malformed or unlucky input panics the daemon; return a typed NetError instead",
                ));
            }
            if t.text == "expect" && dotted_call && !lx.waive(t.line, "DA402", &mut used) {
                out.push(site(
                    "DA402",
                    rel,
                    t.line,
                    "`.expect(` on the request path — same hazard as unwrap; return a typed NetError instead",
                ));
            }
            if t.text == "panic" && banged && !lx.waive(t.line, "DA403", &mut used) {
                out.push(site(
                    "DA403",
                    rel,
                    t.line,
                    "`panic!` on the request path — the daemon must degrade, not die",
                ));
            }
        }

        if t.text == "eprintln"
            && banged
            && crate_of(rel) != "das-obs"
            && !is_bin(rel)
            && !lx.waive(t.line, "DA404", &mut used)
        {
            out.push(site(
                "DA404",
                rel,
                t.line,
                "`eprintln!` outside das-obs — route diagnostics through the das-obs event layer",
            ));
        }

        if t.text == "println" && banged && library && !lx.waive(t.line, "DA406", &mut used) {
            out.push(Finding::new(
                "DA406",
                Severity::Warning,
                PASS,
                format!("{rel}:{}", t.line),
                "`println!` in library code — the caller owns stdout".to_string(),
            ));
        }
    }

    stale_waivers(PASS, rel, &lx, &["DA401", "DA402", "DA403", "DA404", "DA406"], &used, out);
}

/// The files a pass scanned, by repo-relative path: each one lexed,
/// with the (finding line, code) pairs where one of its waivers fired.
pub type Scanned = BTreeMap<String, (syntax::Lexed, Vec<(u32, String)>)>;

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
    lx: &syntax::Lexed,
    owned: &[&str],
    used: &[(u32, String)],
    out: &mut Vec<Finding>,
) {
    let mask = syntax::test_mask(lx);
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

fn site(code: &'static str, rel: &str, lineno: u32, msg: &str) -> Finding {
    Finding::new(code, Severity::Error, PASS, format!("{rel}:{lineno}"), msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_path_panics_are_flagged_and_waivable() {
        let src = "\
fn handle(&self) {
    let v = frame.len().checked_sub(4).unwrap();
    let w = map.get(&k).expect(\"present\");
    // das-lint: allow(DA403)
    panic!(\"boom\");
}
";
        let mut out = Vec::new();
        lint_file("crates/das-net/src/server.rs", src, &mut out);
        let codes: Vec<&str> = out.iter().map(|f| f.code).collect();
        assert!(codes.contains(&"DA401"), "{out:?}");
        assert!(codes.contains(&"DA402"), "{out:?}");
        assert!(!codes.contains(&"DA403"), "waiver must hold: {out:?}");
    }

    #[test]
    fn strings_comments_and_tests_do_not_fire() {
        let src = "\
fn ok() {
    let s = \"call .unwrap() for fun\"; // .unwrap() here too
}
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); panic!(); }
}
";
        let mut out = Vec::new();
        lint_file("crates/das-net/src/codec.rs", src, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn braces_in_test_strings_do_not_unmask_the_module() {
        // The regression the line heuristic had: the string \"}\"
        // closed its brace count early, so the unwrap below was
        // treated as live code.
        let src = "\
#[cfg(test)]
mod tests {
    const BRACE: &str = \"}\";
    fn t() { x.unwrap(); panic!(); }
}
";
        let mut out = Vec::new();
        lint_file("crates/das-net/src/codec.rs", src, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn expect_err_and_non_request_path_are_exempt() {
        let mut out = Vec::new();
        lint_file(
            "crates/das-net/src/proto.rs",
            "fn f() { let e = r.expect_err(\"no\"); }\n",
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
        // unwrap in a non-request-path crate is clippy's business,
        // not this pass's.
        lint_file("crates/das-core/src/predict.rs", "fn f() { x.unwrap(); }\n", &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn print_macros_are_scoped() {
        let mut out = Vec::new();
        lint_file("crates/das-core/src/plan.rs", "fn f() { eprintln!(\"x\"); }\n", &mut out);
        assert!(out.iter().any(|f| f.code == "DA404"), "{out:?}");
        out.clear();
        lint_file("crates/das-core/src/plan.rs", "fn f() { println!(\"x\"); }\n", &mut out);
        assert!(out.iter().any(|f| f.code == "DA406"), "{out:?}");
        out.clear();
        // bins own their stdio; das-obs and das-bench are exempt.
        lint_file("crates/das-net/src/bin/dasd.rs", "fn f() { eprintln!(\"x\"); println!(); }\n", &mut out);
        lint_file("crates/das-bench/src/lib.rs", "fn f() { println!(\"x\"); }\n", &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn das_load_and_cli_are_on_the_request_path() {
        let mut out = Vec::new();
        lint_file("crates/das-load/src/lib.rs", "fn f() { x.unwrap(); }\n", &mut out);
        assert!(out.iter().any(|f| f.code == "DA401"), "{out:?}");
        out.clear();
        lint_file("src/bin/das.rs", "fn f() { x.expect(\"y\"); }\n", &mut out);
        assert!(out.iter().any(|f| f.code == "DA402"), "{out:?}");
        // The CLI is a bin: its prints are its own business.
        out.clear();
        lint_file("src/bin/das.rs", "fn f() { println!(\"x\"); eprintln!(\"y\"); }\n", &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn stale_waiver_is_da430_and_live_waiver_is_not() {
        let stale = "\
fn handle(&self) {
    // das-lint: allow(DA401) nothing below actually unwraps
    let v = compute();
}
";
        let mut out = Vec::new();
        lint_file("crates/das-net/src/server.rs", stale, &mut out);
        assert!(out.iter().any(|f| f.code == "DA430"), "{out:?}");

        let live = "\
fn handle(&self) {
    // das-lint: allow(DA401) length checked two lines up
    let v = frame.len().checked_sub(4).unwrap();
}
";
        out.clear();
        lint_file("crates/das-net/src/server.rs", live, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn waivers_in_test_code_are_not_stale() {
        let src = "\
#[cfg(test)]
mod tests {
    // das-lint: allow(DA401) fixture text, not a live waiver
    fn t() {}
}
";
        let mut out = Vec::new();
        lint_file("crates/das-net/src/server.rs", src, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unwrap_mentions_in_strings_never_fire() {
        // A message string *about* unwrap, and a format string with
        // braces, must both be inert.
        let src = "fn f() { return Err(\"don't .unwrap() here {}\".into()); }\n";
        let mut out = Vec::new();
        lint_file("crates/das-net/src/retry.rs", src, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
