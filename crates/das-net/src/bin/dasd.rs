//! `dasd` — the active-storage server daemon.
//!
//! ```text
//! dasd --id 0 --cluster 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004
//! ```
//!
//! Listens on `cluster[id]`, serves strips and offloaded kernels, and
//! exits when a client sends Shutdown.
//!
//! Fault injection (for chaos testing): `--fault <spec>` (or the
//! `DASD_FAULT` env var) loads a deterministic fault plan, seeded by
//! `--fault-seed`/`DASD_FAULT_SEED`, e.g.
//! `--fault client:drop:x2,server:retryable:p0.25`.
//!
//! Diagnostics are structured events from `das-obs`: `--log-level
//! trace|debug|info|warn|error|off` (or the `DASD_LOG` env var)
//! selects verbosity, `DASD_LOG_FORMAT=json` switches to JSON lines.

use std::net::TcpListener;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use das_net::{spawn, DasdConfig, FaultPlan};
use das_obs::{event, Level};

fn usage() -> ! {
    println!(
        "usage: dasd --id <N> --cluster <addr0,addr1,...> [--pool <threads>]\n\
         \x20           [--max-backlog <N>] [--fault <spec>] [--fault-seed <N>]\n\
         \x20           [--bind-retries <N>] [--log-level <level>]\n\
         \n\
         --id           this server's index into the cluster address list\n\
         --cluster      listen address of every server, comma-separated, in id order\n\
         --pool         request worker threads (default 16)\n\
         --max-backlog  admission-control bound: requests past this many already\n\
         \x20            in flight are shed with the typed, retryable Overloaded\n\
         \x20            error (default 256)\n\
         --fault        fault-injection spec: comma-separated class:action[:xN][:pF]\n\
         \x20            classes accept|client|server|any|redist|exec|get; actions\n\
         \x20            refuse|drop|delay=MS|retryable|corrupt  (env: DASD_FAULT)\n\
         --fault-seed   RNG seed for probabilistic fault rules (env: DASD_FAULT_SEED)\n\
         --bind-retries retry a failed bind this many times, 1s apart (default 0)\n\
         --log-level    trace|debug|info|warn|error|off (env: DASD_LOG; default info)"
    );
    exit(2);
}

fn main() {
    das_obs::log::init_from_env();

    let mut id: Option<u32> = None;
    let mut cluster: Option<Vec<String>> = None;
    let mut pool = 16usize;
    let mut max_backlog: Option<usize> = None;
    let mut fault_spec = std::env::var("DASD_FAULT").ok();
    let mut fault_seed: u64 = std::env::var("DASD_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let mut bind_retries = 0u32;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--id" => id = args.next().and_then(|v| v.parse().ok()),
            "--cluster" => {
                cluster = args.next().map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
            }
            "--pool" => match args.next().and_then(|v| v.parse().ok()) {
                Some(p) => pool = p,
                None => usage(),
            },
            "--max-backlog" => match args.next().and_then(|v| v.parse().ok()) {
                Some(b) => max_backlog = Some(b),
                None => usage(),
            },
            "--fault" => match args.next() {
                Some(spec) => fault_spec = Some(spec),
                None => usage(),
            },
            "--fault-seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => fault_seed = s,
                None => usage(),
            },
            "--bind-retries" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => bind_retries = n,
                None => usage(),
            },
            "--log-level" => match args.next() {
                Some(v) if v.eq_ignore_ascii_case("off") => das_obs::log::disable(),
                Some(v) => match Level::parse(&v) {
                    Some(l) => das_obs::set_level(l),
                    None => usage(),
                },
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                event(
                    Level::Error,
                    "das.daemon",
                    "unknown argument",
                    &[("arg", other.to_string())],
                );
                usage();
            }
        }
    }

    let (Some(id), Some(cluster)) = (id, cluster) else { usage() };
    if (id as usize) >= cluster.len() {
        event(
            Level::Error,
            "das.daemon",
            "--id is outside the cluster",
            &[("id", id.to_string()), ("servers", cluster.len().to_string())],
        );
        exit(2);
    }

    let fault = match fault_spec.as_deref() {
        None | Some("") => FaultPlan::none(),
        Some(spec) => match FaultPlan::parse(spec, fault_seed) {
            Ok(plan) => {
                event(
                    Level::Info,
                    "das.daemon",
                    "fault injection active",
                    &[
                        ("server", id.to_string()),
                        ("spec", spec.to_string()),
                        ("seed", fault_seed.to_string()),
                    ],
                );
                plan
            }
            Err(e) => {
                event(Level::Error, "das.daemon", "bad --fault spec", &[("error", e.to_string())]);
                exit(2);
            }
        },
    };

    // Bind, optionally retrying — a restarting daemon often races the
    // kernel's TIME_WAIT release of its old port.
    let listen = cluster[id as usize].clone();
    let mut listener = None;
    for attempt in 0..=bind_retries {
        match TcpListener::bind(&listen) {
            Ok(l) => {
                listener = Some(l);
                break;
            }
            Err(e) => {
                event(
                    Level::Error,
                    "das.daemon",
                    "cannot listen",
                    &[
                        ("addr", listen.clone()),
                        ("error", e.to_string()),
                        ("attempt", format!("{}/{}", attempt + 1, bind_retries + 1)),
                    ],
                );
                if attempt < bind_retries {
                    std::thread::sleep(Duration::from_secs(1));
                }
            }
        }
    }
    let Some(listener) = listener else { exit(1) };
    event(
        Level::Info,
        "das.daemon",
        "listening",
        &[
            ("server", id.to_string()),
            ("addr", listen.clone()),
            ("cluster", cluster.len().to_string()),
        ],
    );

    let mut cfg = DasdConfig::new(id, cluster).with_fault(Arc::new(fault));
    cfg.pool = pool;
    if let Some(b) = max_backlog {
        cfg = cfg.with_max_backlog(b);
    }
    match spawn(cfg, listener) {
        Ok(handle) => handle.join(),
        Err(e) => {
            event(Level::Error, "das.daemon", "failed to start", &[("error", e.to_string())]);
            exit(1);
        }
    }
    event(Level::Info, "das.daemon", "shut down", &[("server", id.to_string())]);
}
