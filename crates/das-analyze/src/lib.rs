//! # das-analyze — static analysis for the DAS workspace
//!
//! Nine passes, each emitting machine-readable [`Finding`]s
//! (`registry::REGISTRY` is the code registry; `das-analyze --list`
//! prints it, `docs/ANALYSIS.md` documents it):
//!
//! * [`registry`] — cross-check the compiled-in finding-code registry
//!   against the pass sources and the documentation tables; any code
//!   present in one but missing from another is drift.
//! * [`descriptors`] — parse every Kernel Features descriptor under
//!   `descriptors/`, validate offsets symbolically (affine in
//!   `imgWidth`), cross-check the txt and XML forms, verify the
//!   shipped file against the compiled-in copy, check each deployment
//!   in `descriptors/layouts.txt` for replication radii that do not
//!   cover the kernel's stencil reach, and sweep the paper's
//!   Eqs. 1–13 decision over a (D, strip, E, r) grid to flag "dead"
//!   descriptors no layout would ever offload.
//! * [`protocol`] — parse the tables in `docs/PROTOCOL.md` and fail
//!   on constant drift between the spec and the code (opcodes, error
//!   codes, fault classes).
//! * [`lints`] — token-based source lints via the in-crate [`syntax`]
//!   lexer: no `unwrap()`/`expect(`/`panic!` in das-net's wire-facing
//!   modules, no `eprintln!` outside das-obs, no stray stdout prints
//!   in library code. `// das-lint: allow(<code>)` on the same or
//!   preceding line waives a site; `#[cfg(test)]` code is masked out.
//! * [`taint`] — wire-taint dataflow: lengths and counts decoded off
//!   the wire in das-net's `proto`/`codec` must be bounds-checked
//!   before they reach an allocation or index sink, and peer-returned
//!   strip payloads must be length-validated before the server
//!   assembles them.
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
//!   scan das-net's request-path sources for heap copies, unbounded
//!   wire-sized allocations, payload byte-copy sinks, blocking ops
//!   and guard-across-dispatch sites, keep only those reachable from
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
//! The `das-analyze` binary runs the passes against a repository
//! root; `--deny` turns any warning- or error-level finding into a
//! nonzero exit for CI.

pub mod atomics;
pub mod costmodel;
pub mod descriptors;
pub mod finding;
pub mod hotpath;
pub mod lints;
pub mod locks;
pub mod protocol;
pub mod registry;
pub mod syntax;
pub mod taint;

use std::path::Path;

pub use finding::{Finding, Report, Severity};

/// Pass names in execution order, as accepted by `--pass`.
pub const PASSES: [&str; 9] = [
    "registry",
    "descriptors",
    "protocol",
    "lints",
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
        "descriptors" => Some(descriptors::run(root)),
        "protocol" => Some(protocol::run(root)),
        "lints" => Some(lints::run(root)),
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
