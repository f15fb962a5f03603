//! Property tests for the `syntax` tokenizer the deep passes stand
//! on: lexing must be total (no panic on any input), and
//! `lex → reprint → lex` must be a fixpoint — the reprinted source
//! lexes to the identical token stream, so every pass sees the same
//! program through either text.

use std::path::Path;

use das_analyze::syntax::workspace_sources;
use das_analyze::syntax::{extract_fns, lex, reprint, test_mask, TokKind};

use proptest::prelude::*;

fn repo_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

/// Token streams compared structurally (kind + text, ignoring
/// positions — reprint flattens layout).
fn shape(src: &str) -> Vec<(TokKind, String)> {
    lex(src).tokens.into_iter().map(|t| (t.kind, t.text)).collect()
}

#[test]
fn reprint_is_a_fixpoint_over_every_workspace_source() {
    let sources = workspace_sources(&repo_root());
    assert!(sources.len() > 50, "workspace scan looks broken: {} files", sources.len());
    for (rel, src) in sources {
        let first = lex(&src);
        let printed = reprint(&first.tokens);
        let second = lex(&printed);
        assert_eq!(
            first.tokens.len(),
            second.tokens.len(),
            "{rel}: token count changed across reprint"
        );
        for (a, b) in first.tokens.iter().zip(second.tokens.iter()) {
            assert_eq!((a.kind, &a.text), (b.kind, &b.text), "{rel}: token drift");
        }
        // The derived analyses must be total on real sources too.
        let _ = test_mask(&first);
        let _ = extract_fns(&first);
    }
}

/// Fragments that deliberately stress the lexer's tricky states:
/// raw strings, nested block comments, char-vs-lifetime ambiguity,
/// unterminated literals.
const FRAGMENTS: &[&str] = &[
    "fn f() {",
    "}",
    "let s = \"str with \\\" quote and // not a comment\";",
    "let r = r#\"raw \" with hash\"#;",
    "let r2 = r\"plain raw\";",
    "/* block /* nested */ still comment */",
    "// line comment with \"quote",
    "let c = 'x';",
    "let esc = '\\n';",
    "let lt: &'static str = \"life\";",
    "match x { 'a'..='z' => {} _ => {} }",
    "#[cfg(test)] mod tests {",
    "let b = b\"bytes\\xff\";",
    "impl<'a, T: Iterator<Item = &'a u8>> X for Y {",
    "let unterminated = \"oops",
    "let half_raw = r#\"never closed",
    "/* never closed block",
    "x => y,",
    "a!=b; c=>d; e->f;",
    "vec![0u8; n]",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Any concatenation of stress fragments lexes without panicking,
    // and reprinting reaches a fixpoint in one step.
    #[test]
    fn fragment_soup_lexes_and_reprints(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..12),
        sep in 0usize..3,
    ) {
        let sep = ["\n", " ", "\t"][sep];
        let src: String =
            picks.iter().map(|&i| FRAGMENTS[i]).collect::<Vec<_>>().join(sep);
        let first = shape(&src);
        let printed = reprint(&lex(&src).tokens);
        prop_assert_eq!(&first, &shape(&printed), "soup drift on: {:?}", src);
        let lx = lex(&src);
        let _ = test_mask(&lx);
        let _ = extract_fns(&lx);
    }

    // Mutating a real source file — byte splices and truncation at
    // arbitrary char boundaries — never panics the lexer or the item
    // extractor. (Mutants routinely produce unterminated strings and
    // half-open comments.)
    #[test]
    fn mutated_real_sources_never_panic(
        file_pick in any::<u32>(),
        cut in any::<u32>(),
        splice_at in any::<u32>(),
        splice in prop::collection::vec(any::<u8>(), 0..6),
    ) {
        let sources = workspace_sources(&repo_root());
        let (_, src) = &sources[file_pick as usize % sources.len()];

        let mut truncated = src.clone();
        let mut cut = cut as usize % (src.len() + 1);
        while !truncated.is_char_boundary(cut) {
            cut -= 1;
        }
        truncated.truncate(cut);

        let mut spliced = truncated.clone();
        let mut at = splice_at as usize % (spliced.len() + 1);
        while !spliced.is_char_boundary(at) {
            at -= 1;
        }
        let noise = String::from_utf8_lossy(&splice).into_owned();
        spliced.insert_str(at, &noise);

        for mutant in [truncated, spliced] {
            let lx = lex(&mutant);
            let _ = test_mask(&lx);
            let _ = extract_fns(&lx);
            // Even mutants must reprint to a lexable string.
            let _ = lex(&reprint(&lx.tokens));
        }
    }
}
