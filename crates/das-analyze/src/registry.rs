//! Pass — finding-code registry and drift check (`DA00x`).
//!
//! [`REGISTRY`] is the compiled-in ground truth: every finding code
//! any pass can emit, with its nominal severity and a one-line
//! summary (`das-analyze --list` prints it). The pass cross-checks
//! three sources that historically drift apart:
//!
//! * the **registry** itself,
//! * the **pass sources** under `crates/das-analyze/src` (string
//!   literals shaped like `"DAnnn"`, this module excluded), and
//! * the **documentation** tables in `docs/ANALYSIS.md`.
//!
//! `DA001` flags a code emitted in source but never registered,
//! `DA002` a registered code missing from the docs, `DA003` a
//! documented code nobody registered, and `DA004` a registered code
//! no pass emits (dead registration). When a repository root carries
//! neither the analyzer sources nor the docs (fixture mini-repos),
//! the corresponding checks are skipped rather than failed.

use std::collections::BTreeSet;
use std::path::Path;

use crate::finding::{Finding, Severity};

const PASS: &str = "registry";

/// Every finding code the analyzer can emit:
/// `(code, nominal severity, one-line summary)`.
pub const REGISTRY: &[(&str, &str, &str)] = &[
    ("DA000", "info", "registry summary: codes registered / emitted / documented"),
    ("DA001", "warning", "code emitted in pass source but not registered"),
    ("DA002", "warning", "registered code undocumented in docs/ANALYSIS.md"),
    ("DA003", "warning", "documented code that is not registered"),
    ("DA004", "warning", "registered code no pass emits (dead registration)"),
    ("DA407", "error", "lock acquired against the declared hierarchy, directly or through a call"),
    ("DA408", "error", "AB/BA lock-order cycle across call chains"),
    ("DA409", "info", "lock-graph summary: functions, sites, held-edges"),
    ("DA430", "warning", "das-lint: allow(...) waiver that suppresses nothing"),
    ("DA500", "info", "taint summary: wire ints and blobs tracked"),
    ("DA501", "error", "wire-decoded length reaches an allocation/index sink unchecked"),
    ("DA502", "warning", "value derived from a wire length reaches a sink unchecked"),
    ("DA503", "error", "wire-message blob consumed without a length check"),
    ("DA700", "info", "lockset summary: guards inferred, fields bound, accesses checked"),
    ("DA701", "error", "field of a guard-protected struct accessed without its guard held"),
    ("DA702", "warning", "struct protected by more than one guard; lockset is ambiguous"),
    ("DA703", "warning", "dead lock: a declared guard field is never acquired"),
    ("DA704", "error", "Arc/Rc interior mutation (get_mut/make_mut) without a guard"),
    ("DA705", "info", "lockset proof record: every access dominated by its guard"),
    ("DA710", "info", "atomics census: Ordering uses classified per crate"),
    ("DA711", "warning", "Relaxed load feeds control flow (publication pattern)"),
    ("DA712", "warning", "store/load ordering strength mismatch on one atomic"),
    ("DA713", "warning", "fetch_* result discarded where siblings consume it"),
    ("DA714", "warning", "DA71x waiver lacks a justifying comment"),
    ("DA800", "info", "hot-path proof record: engine/codec write path allocation-free"),
    ("DA801", "error", "per-request heap copy (to_vec/clone/format!) on a request-serving path"),
    ("DA803", "error", "blocking operation reachable from the evloop shard poll loop"),
    ("DA804", "error", "byte-copy sink fed a strip payload, defeating the Bytes zero-copy path"),
    ("DA805", "error", "lock guard held across a dispatch/enqueue/write boundary"),
    ("DA806", "info", "hot-path census: files, fns, reachable sets, sites examined"),
    ("DA810", "info", "cost-model proof record: symbolic frame size verified for a message variant"),
    ("DA811", "error", "symbolic frame-size expression diverges from the codec's measured bytes"),
    ("DA812", "error", "composed wire-cost formula diverges from the Eqs. 1-17 predictors"),
    ("DA813", "error", "message variant with no extractable or verifiable frame-size expression"),
    ("DA814", "error", "frame overhead constants drifted between codec source and measured frames"),
    ("DA815", "info", "cost-model census: variants extracted, grid cells swept"),
];

/// Render the registry as the aligned table `das-analyze --list`
/// prints.
pub fn list() -> String {
    let mut out = String::new();
    for (code, sev, summary) in REGISTRY {
        out.push_str(&format!("{code}  {sev:<7}  {summary}\n"));
    }
    out
}

/// Extract every `"DAnnn"` string-literal code from `src`.
fn codes_in(src: &str, out: &mut BTreeSet<String>) {
    let bytes = src.as_bytes();
    for (i, _) in src.match_indices("\"DA") {
        let rest = &bytes[i + 3..];
        if rest.len() >= 4
            && rest[..3].iter().all(u8::is_ascii_digit)
            && rest[3] == b'"'
        {
            out.insert(src[i + 1..i + 6].to_string());
        }
    }
}

/// Every code documented in a `docs/ANALYSIS.md` table row.
fn documented_codes(docs: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in docs.lines() {
        if line.trim_start().starts_with('|') {
            codes_in(&line.replace('`', "\""), &mut out);
        }
    }
    out
}

/// Run the registry drift check against a repository root.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    let registered: BTreeSet<String> =
        REGISTRY.iter().map(|(c, _, _)| (*c).to_string()).collect();

    // Codes emitted by the pass sources (this module excluded — it
    // necessarily names every code).
    let src_dir = root.join("crates/das-analyze/src");
    let mut emitted = BTreeSet::new();
    let mut scanned = 0usize;
    if src_dir.is_dir() {
        let mut stack = vec![src_dir];
        while let Some(dir) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else { continue };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs")
                    && path.file_name().is_some_and(|n| n != "registry.rs")
                {
                    if let Ok(src) = std::fs::read_to_string(&path) {
                        codes_in(&src, &mut emitted);
                        scanned += 1;
                    }
                }
            }
        }
        for code in emitted.difference(&registered) {
            out.push(Finding::new(
                "DA001",
                Severity::Warning,
                PASS,
                "crates/das-analyze/src",
                format!("code {code} is emitted in source but not in the registry"),
            ));
        }
        for (code, _, _) in REGISTRY {
            // DA00x codes are emitted here, outside the scan.
            if !code.starts_with("DA0") && !emitted.contains(*code) {
                out.push(Finding::new(
                    "DA004",
                    Severity::Warning,
                    PASS,
                    "crates/das-analyze/src",
                    format!("registered code {code} is emitted by no pass (dead registration)"),
                ));
            }
        }
    }

    // Codes documented in the analysis docs.
    let docs_path = root.join("docs/ANALYSIS.md");
    let mut documented = BTreeSet::new();
    if let Ok(docs) = std::fs::read_to_string(&docs_path) {
        documented = documented_codes(&docs);
        for code in registered.difference(&documented) {
            out.push(Finding::new(
                "DA002",
                Severity::Warning,
                PASS,
                "docs/ANALYSIS.md",
                format!("registered code {code} has no documentation table row"),
            ));
        }
        for code in documented.difference(&registered) {
            out.push(Finding::new(
                "DA003",
                Severity::Warning,
                PASS,
                "docs/ANALYSIS.md",
                format!("documented code {code} is not in the registry"),
            ));
        }
    }

    out.push(Finding::new(
        "DA000",
        Severity::Info,
        PASS,
        "finding-code registry",
        format!(
            "{} codes registered, {} emitted across {scanned} pass sources, {} documented",
            REGISTRY.len(),
            emitted.len(),
            documented.len()
        ),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        let codes: Vec<&str> = REGISTRY.iter().map(|(c, _, _)| *c).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted, "REGISTRY must be sorted and duplicate-free");
        for (_, sev, _) in REGISTRY {
            assert!(matches!(*sev, "info" | "warning" | "error"), "bad severity {sev}");
        }
    }

    #[test]
    fn code_literal_extraction_is_exact() {
        let mut got = BTreeSet::new();
        codes_in(
            r#"f("DA123"); "DA12"; "DA1234"; "DAXYZ"; x = "DA999""#,
            &mut got,
        );
        assert_eq!(
            got.into_iter().collect::<Vec<_>>(),
            vec!["DA123".to_string(), "DA999".to_string()]
        );
    }

    #[test]
    fn documented_codes_only_count_table_rows() {
        let docs = "| `DA500` | info | x |\nprose about `DA999` is ignored\n  | `DA501` | e | y |\n";
        let got = documented_codes(docs);
        assert_eq!(
            got.into_iter().collect::<Vec<_>>(),
            vec!["DA500".to_string(), "DA501".to_string()]
        );
    }

    #[test]
    fn fixture_roots_skip_missing_inputs() {
        let dir = std::env::temp_dir().join("das-analyze-registry-empty");
        std::fs::create_dir_all(&dir).unwrap();
        let findings = run(&dir);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, "DA000");
    }

    #[test]
    fn list_names_every_code() {
        let listing = list();
        for (code, _, _) in REGISTRY {
            assert!(listing.contains(code));
        }
    }
}
