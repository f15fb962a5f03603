//! Golden-fixture tests for the `das-analyze` binary: each fixture
//! under `tests/fixtures/` is a miniature repository seeded with one
//! class of defect, and `das-analyze --deny` must exit nonzero with
//! the expected finding code on it — and exit zero on the real repo.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

/// Run the binary with `--deny --json` against `root`, returning
/// (exit-ok, stdout).
fn analyze(root: &Path, passes: &[&str]) -> (bool, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_das-analyze"));
    cmd.arg("--root").arg(root).arg("--deny").arg("--json");
    for pass in passes {
        cmd.arg("--pass").arg(pass);
    }
    let out = cmd.output().expect("spawn das-analyze");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.success(), stdout)
}

#[test]
fn cross_function_lock_inversion_fails_with_da407() {
    let (ok, stdout) = analyze(&fixture("lock-inversion"), &["locks"]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("\"code\":\"DA407\""), "{stdout}");
    // The witness chain names both ends of the call.
    assert!(stdout.contains("outer"), "{stdout}");
    assert!(stdout.contains("helper"), "{stdout}");
}

#[test]
fn engine_shard_queue_inversion_fails_with_da407() {
    // The event-loop engine's locks (`inbox` rank 4, `done` rank 5)
    // are part of the declared hierarchy; acquiring them backwards
    // across a call is the same AB/BA deadlock as the server locks.
    let (ok, stdout) = analyze(&fixture("engine-inversion"), &["locks"]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("\"code\":\"DA407\""), "{stdout}");
    assert!(stdout.contains("route_done"), "{stdout}");
    assert!(stdout.contains("adopt"), "{stdout}");
}

#[test]
fn early_return_drop_keeps_the_guard_on_the_fall_through() {
    // `drop(i)` on the early-return arm does not release `inner` for
    // the rest of `outer`: the call to `helper` still inverts.
    let (ok, stdout) = analyze(&fixture("lock-early-drop"), &["locks"]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("\"code\":\"DA407\""), "{stdout}");
    assert!(stdout.contains("outer"), "{stdout}");
    assert!(stdout.contains("helper"), "{stdout}");
}

#[test]
fn ewma_leaf_inversion_fails_with_da407() {
    // `ewma` is the hierarchy's declared leaf (the hedging load
    // tracker): acquiring the fair scheduler's `sched` through a call
    // made under it inverts the tail-tolerance ranks added with the
    // hedged-read/shedding work.
    let (ok, stdout) = analyze(&fixture("ewma-inversion"), &["locks"]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("\"code\":\"DA407\""), "{stdout}");
    assert!(stdout.contains("observe"), "{stdout}");
    assert!(stdout.contains("reorder"), "{stdout}");
}

#[test]
fn span_store_leaf_inversion_fails_with_da407() {
    // `spans` is the hierarchy's declared leaf (the per-daemon span
    // flight recorder): record sites run under arbitrary request-path
    // ranks, so acquiring *anything* ranked through a call made while
    // `spans` is held inverts the order the observability work
    // declared.
    let (ok, stdout) = analyze(&fixture("span-inversion"), &["locks"]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("\"code\":\"DA407\""), "{stdout}");
    assert!(stdout.contains("record"), "{stdout}");
    assert!(stdout.contains("mirror_gauges"), "{stdout}");
}

#[test]
fn ab_ba_lock_cycle_across_calls_fails_with_da408() {
    let (ok, stdout) = analyze(&fixture("lock-cycle"), &["locks"]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("\"code\":\"DA408\""), "{stdout}");
    assert!(stdout.contains("alpha"), "{stdout}");
    assert!(stdout.contains("beta"), "{stdout}");
}

#[test]
fn unchecked_wire_lengths_fail_with_da501_and_da502() {
    let (ok, stdout) = analyze(&fixture("taint-unchecked"), &["taint"]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("\"code\":\"DA501\""), "{stdout}");
    assert!(stdout.contains("\"code\":\"DA502\""), "{stdout}");
}

#[test]
fn unvalidated_peer_blob_fails_with_da503() {
    let (_, stdout) = analyze(&fixture("taint-unchecked"), &["taint"]);
    assert!(stdout.contains("\"code\":\"DA503\""), "{stdout}");
    assert!(stdout.contains("server.rs"), "{stdout}");
}

#[test]
fn unguarded_field_access_fails_with_da701() {
    let (ok, stdout) = analyze(&fixture("lockset-unguarded"), &["locks"]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("\"code\":\"DA701\""), "{stdout}");
    // The witness names the field, the dominating guard, and a
    // guarded access elsewhere for contrast.
    assert!(stdout.contains("store.rs:21"), "{stdout}");
    assert!(stdout.contains("guarded accesses elsewhere"), "{stdout}");
    assert!(stdout.contains("store.rs:16"), "{stdout}");
}

#[test]
fn dead_lock_fails_with_da703() {
    let (ok, stdout) = analyze(&fixture("lockset-deadlock"), &["locks"]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("\"code\":\"DA703\""), "{stdout}");
    assert!(stdout.contains("idle"), "{stdout}");
    // The acquired lock is not a dead lock.
    assert!(!stdout.contains("`used` is declared"), "{stdout}");
}

#[test]
fn relaxed_publication_load_fails_with_da711() {
    let (ok, stdout) = analyze(&fixture("atomics-relaxed"), &["atomics"]);
    assert!(!ok, "{stdout}");
    // The Relaxed branch load is the publication pattern…
    assert!(stdout.contains("\"code\":\"DA711\""), "{stdout}");
    assert!(stdout.contains("READY"), "{stdout}");
    // …and the Release store it pairs with makes the strength
    // mismatch explicit too.
    assert!(stdout.contains("\"code\":\"DA712\""), "{stdout}");
}

#[test]
fn justified_concurrency_waivers_pass_deny() {
    // Seeded DA701/DA703/DA711 sites, each waived with a justifying
    // comment: the passes must honor every waiver (no findings), see
    // none as stale (no DA430), and accept the justifications (no
    // DA714).
    let (ok, stdout) = analyze(&fixture("concurrency-waived"), &["locks", "atomics"]);
    assert!(ok, "justified waivers must pass --deny:\n{stdout}");
}

#[test]
fn registry_drift_fails_with_da001_and_da003() {
    let (ok, stdout) = analyze(&fixture("registry-drift"), &["registry"]);
    assert!(!ok, "{stdout}");
    // An emitted-but-unregistered code…
    assert!(stdout.contains("\"code\":\"DA001\""), "{stdout}");
    assert!(stdout.contains("DA999"), "{stdout}");
    // …and a documented-but-unregistered one.
    assert!(stdout.contains("\"code\":\"DA003\""), "{stdout}");
    assert!(stdout.contains("DA888"), "{stdout}");
}

#[test]
fn seeded_hot_path_allocations_fail_with_da801_da804_and_taint_da501() {
    let (ok, stdout) = analyze(&fixture("hotpath-alloc"), &["hotpath", "taint"]);
    assert!(!ok, "{stdout}");
    // The reachable to_vec and the payload byte-copy sink…
    assert!(stdout.contains("\"code\":\"DA801\""), "{stdout}");
    assert!(stdout.contains("\"code\":\"DA804\""), "{stdout}");
    // …but not the copy in the unreachable admin tool.
    assert_eq!(stdout.matches("\"code\":\"DA801\"").count(), 1, "{stdout}");
    // The allocation sized by the wire-decoded `n` is taint's.
    assert!(stdout.contains("\"code\":\"DA501\""), "{stdout}");
    assert!(stdout.contains("engine.rs:20"), "{stdout}");
}

#[test]
fn seeded_blocking_calls_on_the_poll_loop_fail_with_da803() {
    let (ok, stdout) = analyze(&fixture("hotpath-blocking"), &["hotpath"]);
    assert!(!ok, "{stdout}");
    // The sleep and the synchronous connect, two calls deep from
    // shard_loop — but not the worker's recv (workers may block).
    assert_eq!(stdout.matches("\"code\":\"DA803\"").count(), 2, "{stdout}");
    assert!(stdout.contains("sleep"), "{stdout}");
    assert!(stdout.contains("connect"), "{stdout}");
}

#[test]
fn doctored_encode_arm_fails_with_da811_and_da812() {
    let (ok, stdout) = analyze(&fixture("costmodel-drift"), &["costmodel"]);
    assert!(!ok, "{stdout}");
    // The per-variant formula drifts from the linked codec…
    assert!(stdout.contains("\"code\":\"DA811\""), "{stdout}");
    assert!(stdout.contains("symbolic |payload| = 20"), "{stdout}");
    // …and every composed sequence cost diverges with it.
    assert!(stdout.contains("\"code\":\"DA812\""), "{stdout}");
}

#[test]
fn real_repo_is_clean_under_deny() {
    let (ok, stdout) = analyze(&repo_root(), &[]);
    assert!(ok, "the shipped repo must pass --deny:\n{stdout}");
    // The deep-analysis summaries must be on the record: registry,
    // taint and lock graph.
    assert!(stdout.contains("\"code\":\"DA000\""), "{stdout}");
    assert!(stdout.contains("\"code\":\"DA500\""), "{stdout}");
    assert!(stdout.contains("\"code\":\"DA409\""), "{stdout}");
    // …and the concurrency-soundness records: the lockset proof and
    // the atomics census.
    assert!(stdout.contains("\"code\":\"DA700\""), "{stdout}");
    assert!(stdout.contains("\"code\":\"DA705\""), "{stdout}");
    assert!(stdout.contains("\"code\":\"DA710\""), "{stdout}");
    // …and the perfguard records: the zero-copy write-path proof and
    // the wire-cost model with every message variant verified.
    assert!(stdout.contains("\"code\":\"DA800\""), "{stdout}");
    assert!(stdout.contains("\"code\":\"DA806\""), "{stdout}");
    assert!(stdout.contains("\"code\":\"DA810\""), "{stdout}");
    assert_eq!(
        stdout.matches("\"code\":\"DA810\"").count(),
        35,
        "34 variants + frame overhead must each carry a proof:\n{stdout}"
    );
    assert!(stdout.contains("\"code\":\"DA815\""), "{stdout}");
}

#[test]
fn unknown_pass_is_a_usage_error() {
    // `lockgraph` was a pass name until `locks` replaced it; `model`
    // and `fetchgraph` were passes until das-net's own tests took over
    // what they claimed, `lints` until clippy did, and `descriptors`
    // and `protocol` until the root package's `tests/descriptors.rs`
    // and `tests/protocol_doc.rs` did.
    for pass in ["nonsense", "lockgraph", "model", "fetchgraph", "lints", "descriptors", "protocol"] {
        let out = Command::new(env!("CARGO_BIN_EXE_das-analyze"))
            .args(["--pass", pass])
            .output()
            .expect("spawn das-analyze");
        assert_eq!(out.status.code(), Some(2), "--pass {pass}");
    }
}
