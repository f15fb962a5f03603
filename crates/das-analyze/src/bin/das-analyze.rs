//! `das-analyze` — run the workspace's static-analysis passes.
//!
//! ```text
//! das-analyze [--root PATH] [--deny] [--json] [--timings] [--pass NAME]... [--list]
//! ```
//!
//! * `--root PATH` — repository root to analyze (default `.`).
//! * `--pass NAME` — run only the named pass (repeatable; default
//!   all of `registry`, `taint`, `locks`, `atomics`, `hotpath`,
//!   `costmodel`).
//! * `--json` — one JSON object per finding on stdout instead of
//!   aligned text.
//! * `--timings` — per-pass wall-clock milliseconds on stderr
//!   (stdout stays parseable under `--json`).
//! * `--deny` — exit 1 if any warning- or error-level finding was
//!   produced (the CI mode).
//! * `--list` — print every registered finding code with its nominal
//!   severity and summary, then exit.
//!
//! The passes are independent of each other (each reads sources and
//! linked constants, none consumes another's findings), so they run
//! on one thread per pass; findings are still printed in the
//! requested pass order, so output is deterministic.
//!
//! Exit codes: 0 clean (or findings without `--deny`), 1 denied,
//! 2 usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use das_analyze::{run_pass, Report, Severity, PASSES};

struct Opts {
    root: PathBuf,
    deny: bool,
    json: bool,
    timings: bool,
    passes: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: das-analyze [--root PATH] [--deny] [--json] [--timings] [--pass NAME]... [--list]"
    );
    eprintln!("passes: {}", PASSES.join(", "));
    ExitCode::from(2)
}

fn parse_args() -> Result<Opts, ExitCode> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        deny: false,
        json: false,
        timings: false,
        passes: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => opts.root = PathBuf::from(p),
                None => return Err(usage()),
            },
            "--deny" => opts.deny = true,
            "--json" => opts.json = true,
            "--timings" => opts.timings = true,
            "--list" => {
                print!("{}", das_analyze::registry::list());
                return Err(ExitCode::SUCCESS);
            }
            "--pass" => match args.next() {
                Some(p) if PASSES.contains(&p.as_str()) => opts.passes.push(p),
                Some(p) => {
                    eprintln!("das-analyze: unknown pass `{p}`");
                    return Err(usage());
                }
                None => return Err(usage()),
            },
            "--help" | "-h" => {
                println!(
                    "usage: das-analyze [--root PATH] [--deny] [--json] [--timings] [--pass NAME]... [--list]"
                );
                println!("passes: {}", PASSES.join(", "));
                return Err(ExitCode::SUCCESS);
            }
            other => {
                eprintln!("das-analyze: unknown argument `{other}`");
                return Err(usage());
            }
        }
    }
    if opts.passes.is_empty() {
        opts.passes = PASSES.iter().map(|p| p.to_string()).collect();
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(code) => return code,
    };

    // Run the passes concurrently — they share nothing but the root —
    // and reassemble results in the requested order so the printed
    // report is byte-identical to a sequential run.
    let mut slots: Vec<Option<(Vec<das_analyze::Finding>, Duration)>> =
        (0..opts.passes.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let root = &opts.root;
        let handles: Vec<_> = opts
            .passes
            .iter()
            .map(|pass| {
                scope.spawn(move || {
                    let started = Instant::now();
                    run_pass(pass, root).map(|findings| (findings, started.elapsed()))
                })
            })
            .collect();
        for (slot, h) in slots.iter_mut().zip(handles) {
            *slot = h.join().expect("analysis pass panicked");
        }
    });

    let mut report = Report::default();
    for (pass, slot) in opts.passes.iter().zip(slots) {
        let Some((findings, took)) = slot else {
            return usage();
        };
        if opts.timings {
            eprintln!("das-analyze: pass {pass}: {} ms", took.as_millis());
        }
        report.findings.extend(findings);
    }

    for f in &report.findings {
        if opts.json {
            println!("{}", f.to_json());
        } else {
            println!("{f}");
        }
    }

    let (info, warn, err) = report.counts();
    if !opts.json {
        println!(
            "das-analyze: {} pass(es), {info} info, {warn} warning(s), {err} error(s)",
            opts.passes.len()
        );
    }

    if opts.deny && report.denied() {
        let worst = report.worst().unwrap_or(Severity::Info);
        eprintln!("das-analyze: --deny failed (worst severity: {worst})");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
