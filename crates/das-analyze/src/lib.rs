//! # das-analyze — static analysis for the DAS workspace
//!
//! Six passes, each emitting machine-readable [`Finding`]s
//! (`registry::REGISTRY` is the code registry; `das-analyze --list`
//! prints it, `docs/ANALYSIS.md` documents it):
//!
//! * [`registry`] — cross-check the compiled-in finding-code registry
//!   against the pass sources and the documentation tables; any code
//!   present in one but missing from another is drift.
//! * [`taint`] — wire-taint dataflow: lengths and counts decoded off
//!   the wire in das-net's request-path modules must be
//!   bounds-checked before they reach an allocation or index sink,
//!   and strip payloads destructured from wire messages must be
//!   length-validated before the server assembles them.
//! * [`locks`] — one lock model over das-net/das-obs/das-load: one
//!   acquisition recognizer and one guard-lifetime walker feed both
//!   lock-order analysis (held sets propagated through each crate's
//!   call graph; hierarchy inversions, direct or through a call, and
//!   AB/BA cycles, with the witness chain) and RacerD-style guard
//!   inference (which mutex dominates each shared struct field, every
//!   access checked against it, dead locks and guardless `Arc`
//!   interior mutation flagged, with witness access sites).
//! * [`atomics`] — atomics-ordering audit over
//!   das-net/das-obs/das-load: every `Ordering::*` use classified;
//!   Relaxed loads feeding control flow (the publication pattern),
//!   mismatched store/load strength on one atomic, and discarded
//!   `fetch_*` results flagged, with justification-checked waivers.
//! * [`hotpath`] — per-request allocation/copy/blocking analysis:
//!   scan das-net's request-path sources for heap copies, payload
//!   byte-copy sinks, blocking ops and guard-across-dispatch sites,
//!   keep only those reachable from
//!   the evloop hot roots via the call graph, and prove the write
//!   path (`run_job` → … → `frame_parts_opts`) allocation-free.
//! * [`costmodel`] — symbolic wire-cost verification: extract each
//!   `encode_payload` arm's size formula from source, verify it
//!   against the linked codec per variant, then compose per-sequence
//!   costs (peer dependence fetches, client reads/writes) and
//!   cross-check them against measured frames over a
//!   (D, strip, policy) grid × the per-frame trace/budget fields —
//!   the Eqs. 1–17 bookkeeping held to the actual bytes.
//!
//! The source passes read tokens from the in-crate [`syntax`] lexer;
//! `// das-lint: allow(<code>)` on the same or preceding line waives
//! a site, and `#[cfg(test)]` code is masked out. Panics and stray
//! prints on the request path are clippy's to catch, not a pass's:
//! the crate roots warn on `clippy::unwrap_used`/`expect_used`/
//! `panic`/`print_stdout`/`print_stderr` (`docs/ANALYSIS.md`,
//! "Waivers").
//!
//! The `das-analyze` binary runs the passes against a repository
//! root; `--deny` turns any warning- or error-level finding into a
//! nonzero exit for CI.

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod atomics;
pub mod costmodel;
pub mod finding;
pub mod hotpath;
pub mod locks;
pub mod registry;
pub mod syntax;
pub mod taint;

use std::path::Path;

pub use finding::{Finding, Report, Severity};

/// Pass names in execution order, as accepted by `--pass`.
pub const PASSES: [&str; 6] = [
    "registry",
    "taint",
    "locks",
    "atomics",
    "hotpath",
    "costmodel",
];

/// Run one pass by name against a repository root. `None` for an
/// unknown pass name.
pub fn run_pass(name: &str, root: &Path) -> Option<Vec<Finding>> {
    match name {
        "registry" => Some(registry::run(root)),
        "taint" => Some(taint::run(root)),
        "locks" => Some(locks::run(root)),
        "atomics" => Some(atomics::run(root)),
        "hotpath" => Some(hotpath::run(root)),
        "costmodel" => Some(costmodel::run(root)),
        _ => None,
    }
}

/// Run every pass against a repository root.
pub fn run_all(root: &Path) -> Report {
    let mut report = Report::default();
    for pass in PASSES {
        report
            .findings
            .extend(run_pass(pass, root).unwrap_or_default());
    }
    report
}
