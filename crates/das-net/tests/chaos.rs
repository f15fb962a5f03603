//! Chaos suite: boot loopback `dasd` fleets with deterministic fault
//! injection (and real daemon kills), and hold the fault-tolerance
//! layer to its contract:
//!
//! * **Transient faults are absorbed.** Refused accepts, mid-frame
//!   cuts, corrupted checksums, delays and typed `Retryable` refusals
//!   with bounded budgets are retried away; every scheme's output
//!   stays bit-identical to the in-process `run_scheme` ground truth
//!   and no server is marked down.
//! * **A dead server is survivable when its strips have replicas.**
//!   Under `GroupedReplicated { group: 2 }` every strip is a group
//!   boundary, so every strip is replicated on a ring neighbor: with
//!   one daemon killed, striped reads fail over to replicas and an
//!   offloaded execute degrades down the DAS → NAS → normal-I/O
//!   ladder — still completing bit-identically, with every rung
//!   recorded in the report.
//! * **Without replicas the same faults yield typed errors** within
//!   the retry policy's bounded time — never a hang, never a panic.

use std::net::TcpListener;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use das_kernels::{kernel_by_name, workload};
use das_net::{
    run_net_scheme, run_net_scheme_opts, spawn, DasCluster, DasdConfig, DasdHandle, ErrorCode,
    FaultPlan, Message, NetError, NetScheme, RetryPolicy,
};
use das_pfs::{Layout, LayoutPolicy, ServerId};
use das_runtime::{run_scheme, ClusterConfig, DegradeEvent, SchemeKind};

const SERVERS: usize = 4;
const WIDTH: u64 = 256;
const HEIGHT: u64 = 96;
const STRIP: usize = 4096; // 4 rows of 256 f32s per strip → 24 strips

struct Harness {
    handles: Vec<DasdHandle>,
    cluster: DasCluster,
    plans: Vec<Arc<FaultPlan>>,
    addrs: Vec<String>,
    /// Held until teardown has joined the daemons.
    _turn: MutexGuard<'static, ()>,
}

/// One scenario owns the machine at a time, whatever thread count the
/// suite runs under: the client adapts to latency (hedges, load-ordered
/// failover walks), so a dozen fleets sharing two cores read as slow
/// servers and fire behaviour no scenario asked for. A scenario takes
/// its turn (boots) before it does anything else: input generation
/// ahead of the lock would burn a core under the scenario then running.
/// One that panicked leaves nothing behind the lock that the next needs.
fn own_the_machine() -> MutexGuard<'static, ()> {
    static MACHINE: Mutex<()> = Mutex::new(());
    MACHINE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Boot `servers` daemons on ephemeral loopback ports, installing the
/// given `(server, fault spec)` plans, everything on the fast test
/// retry policy so a worst-case chaos run stays in the low seconds.
fn boot_with(servers: usize, faults: &[(usize, &str)]) -> Harness {
    boot_with_cfg(servers, faults, |c| c)
}

/// [`boot_with`] plus a per-daemon config tweak (pool size, backlog
/// bound, …) applied after the defaults.
fn boot_with_cfg(
    servers: usize,
    faults: &[(usize, &str)],
    tweak: impl Fn(DasdConfig) -> DasdConfig,
) -> Harness {
    let turn = own_the_machine();
    let listeners: Vec<TcpListener> = (0..servers)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port"))
        .collect();
    let addrs: Vec<String> =
        listeners.iter().map(|l| l.local_addr().unwrap().to_string()).collect();
    let plans: Vec<Arc<FaultPlan>> = (0..servers)
        .map(|i| {
            let spec = faults.iter().find(|(s, _)| *s == i).map_or("", |(_, f)| *f);
            Arc::new(FaultPlan::parse(spec, 0xC4A05 + i as u64).expect("fault spec"))
        })
        .collect();
    let handles = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            let cfg = DasdConfig::new(i as u32, addrs.clone())
                .with_fault(Arc::clone(&plans[i]))
                .with_retry(RetryPolicy::fast());
            spawn(tweak(cfg), l).expect("spawn dasd")
        })
        .collect();
    let cluster = DasCluster::connect_with(&addrs, RetryPolicy::fast()).expect("connect cluster");
    Harness { handles, cluster, plans, addrs, _turn: turn }
}

impl Harness {
    /// Kill one daemon for real: a Shutdown routed only to it. Later
    /// calls to it will fail, retry, and mark it down.
    fn kill_server(&mut self, s: usize) {
        match self.cluster.call(s, &Message::Shutdown) {
            Ok(Message::ShutdownOk) => {}
            other => panic!("killing server {s}: {other:?}"),
        }
    }

    fn teardown(self) {
        self.teardown_except(&[]);
    }

    /// Teardown that skips joining the listed daemons: a daemon under
    /// a persistent accept-refusal fault can never receive Shutdown,
    /// so its accept thread is leaked (it dies with the process).
    fn teardown_except(mut self, leak: &[usize]) {
        self.cluster.shutdown_all().expect("shutdown is best-effort");
        drop(self.cluster); // close client connections so workers exit
        for (i, h) in self.handles.into_iter().enumerate() {
            if !leak.contains(&i) {
                h.join();
            }
        }
    }
}

/// In-process ground truth for one scheme at the chaos geometry.
fn truth_fingerprint(scheme: SchemeKind, input: &das_kernels::Raster) -> u64 {
    let mut cfg = ClusterConfig::paper_default();
    cfg.storage_nodes = SERVERS as u32;
    cfg.compute_nodes = SERVERS as u32;
    cfg.strip_size = STRIP;
    let kernel = kernel_by_name("flow-routing").unwrap();
    run_scheme(&cfg, scheme, kernel.as_ref(), input).output_fingerprint
}

fn tags(events: &[DegradeEvent]) -> Vec<&'static str> {
    events.iter().map(|e| e.tag()).collect()
}

/// Every injected fault class with a bounded budget — refused accept,
/// mid-frame drop, corrupted checksum, delay, transient Retryable, on
/// client and peer connections — is absorbed by retries: all three
/// schemes still produce bit-identical outputs, every budget is fully
/// consumed (the faults really fired), and no server gets marked down.
#[test]
fn transient_faults_of_every_class_are_absorbed() {
    let mut h = boot_with(
        SERVERS,
        &[
            // Client-facing faults on server 0: one refused accept
            // (hit by the initial connect), one mid-frame cut, one
            // corrupted checksum trailer.
            (0, "accept:refuse:x1,client:drop:x1,client:corrupt:x1"),
            // Peer-facing faults on server 1: a dependence fetch gets
            // one mid-frame cut and one typed Retryable; any request
            // class sees two 40ms delays (under the 500ms timeout).
            (1, "server:drop:x1,server:retryable:x1,any:delay=40:x2"),
            // More client-side transient refusals on server 2.
            (2, "client:retryable:x2"),
        ],
    );
    let input = workload::fbm_dem(WIDTH, HEIGHT, 42);
    let data = input.to_bytes();
    let direct = kernel_by_name("flow-routing").unwrap().apply(&input).fingerprint();

    // Two copies of the input: round-robin (forces peer dependence
    // fetches, so server-class faults actually fire) and the paper's
    // replicated layout (the acceptance geometry).
    let rr = h.cluster.create_file("dem.rr", data.len() as u64, STRIP as u32, LayoutPolicy::RoundRobin).unwrap();
    h.cluster.put_file(rr, &data).unwrap();
    let rep = h
        .cluster
        .create_file(
            "dem.rep",
            data.len() as u64,
            STRIP as u32,
            LayoutPolicy::GroupedReplicated { group: 2 },
        )
        .unwrap();
    h.cluster.put_file(rep, &data).unwrap();

    // Striped read through the faults: bit-identical.
    assert_eq!(h.cluster.read_file(rep).unwrap(), data, "striped read corrupted");

    // Offloaded execute on the replicated layout completes offloaded.
    let nas_rep =
        run_net_scheme(&mut h.cluster, NetScheme::Nas, rep, "rep.nas", "flow-routing", WIDTH)
            .unwrap();
    assert!(nas_rep.offloaded, "transient faults must not defeat the offload");
    assert_eq!(nas_rep.output_fingerprint, truth_fingerprint(SchemeKind::Nas, &input));

    // All three schemes over round-robin: dependence fetches and the
    // DAS redistribution cross the faulty peer links.
    let ts = run_net_scheme(&mut h.cluster, NetScheme::Ts, rr, "rr.ts", "flow-routing", WIDTH)
        .unwrap();
    assert_eq!(ts.output_fingerprint, truth_fingerprint(SchemeKind::Ts, &input));
    let nas = run_net_scheme(&mut h.cluster, NetScheme::Nas, rr, "rr.nas", "flow-routing", WIDTH)
        .unwrap();
    assert!(nas.offloaded);
    assert_eq!(nas.output_fingerprint, truth_fingerprint(SchemeKind::Nas, &input));
    let das = run_net_scheme(&mut h.cluster, NetScheme::Das, rr, "rr.das", "flow-routing", WIDTH)
        .unwrap();
    assert!(das.offloaded, "DAS should still offload through transient faults");
    assert_eq!(das.output_fingerprint, truth_fingerprint(SchemeKind::Das, &input));
    assert_eq!(das.output_fingerprint, direct);

    // The faults genuinely fired — every bounded budget was consumed…
    assert_eq!(h.plans[0].total_fired(), 3, "server 0 fired {:?}", h.plans[0].fired());
    assert_eq!(h.plans[1].total_fired(), 4, "server 1 fired {:?}", h.plans[1].fired());
    assert_eq!(h.plans[2].total_fired(), 2, "server 2 fired {:?}", h.plans[2].fired());
    // …and were absorbed below the failover layer: nobody is down.
    assert!(h.cluster.down_servers().is_empty(), "transient faults marked a server down");

    h.teardown();
}

/// The acceptance scenario: kill one daemon of a
/// `GroupedReplicated { group: 2 }` cluster. Every strip of a
/// group-2 layout is a group boundary, so every strip has a replica
/// on a ring neighbor — a striped read and an offloaded execute must
/// both still complete bit-identically, with replica failover and the
/// scheme-degradation ladder recorded in the report.
#[test]
fn dead_server_with_replicas_degrades_but_completes() {
    let mut h = boot_with(SERVERS, &[]);
    let input = workload::fbm_dem(WIDTH, HEIGHT, 42);
    let data = input.to_bytes();
    let file = h
        .cluster
        .create_file(
            "dem.rep",
            data.len() as u64,
            STRIP as u32,
            LayoutPolicy::GroupedReplicated { group: 2 },
        )
        .unwrap();
    h.cluster.put_file(file, &data).unwrap();

    h.kill_server(1);

    // Striped read: strips whose primary was server 1 fail over to
    // their replicas; the result is bit-identical.
    assert_eq!(h.cluster.read_file(file).unwrap(), data, "failover read corrupted");
    let events = h.cluster.take_events();
    assert!(
        events.iter().any(|e| matches!(e, DegradeEvent::ServerUnavailable { server: 1 })),
        "no ServerUnavailable in {:?}",
        tags(&events)
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, DegradeEvent::ReplicaFailover { primary: 1, .. })),
        "no ReplicaFailover in {:?}",
        tags(&events)
    );

    // Offloaded execute: the dead server can no longer compute the
    // strips it primaries, so the offload rungs fail and the run is
    // served as normal I/O — failover reads, tolerant writes — and
    // still matches the in-process ground truth bit for bit.
    let das = run_net_scheme(&mut h.cluster, NetScheme::Das, file, "dead.das", "flow-routing", WIDTH)
        .unwrap();
    assert!(!das.offloaded, "an offload cannot complete without server 1");
    assert_eq!(das.output_fingerprint, truth_fingerprint(SchemeKind::Das, &input));
    let das_tags = tags(&das.degradations);
    // The ladder descends one rung at a time: DAS → NAS, then NAS → TS.
    let rung = |tag: &str| das_tags.iter().position(|t| *t == tag);
    assert!(
        matches!((rung("degraded-to-nas"), rung("degraded-to-ts")), (Some(nas), Some(ts)) if nas < ts),
        "ladder not recorded rung by rung: {das_tags:?}"
    );
    assert!(das_tags.contains(&"degraded-write"), "no degraded write recorded: {das_tags:?}");

    // NAS degrades the same way.
    let nas = run_net_scheme(&mut h.cluster, NetScheme::Nas, file, "dead.nas", "flow-routing", WIDTH)
        .unwrap();
    assert!(!nas.offloaded);
    assert_eq!(nas.output_fingerprint, truth_fingerprint(SchemeKind::Nas, &input));
    assert!(tags(&nas.degradations).contains(&"degraded-to-ts"));

    assert_eq!(h.cluster.down_servers(), vec![1]);
    h.teardown();
}

/// The same daemon kill under plain round-robin — no replicas — must
/// yield typed errors within the retry policy's bounded time: no
/// hang, no panic, and the surviving servers still answer.
#[test]
fn dead_server_without_replicas_fails_typed_and_bounded() {
    let mut h = boot_with(SERVERS, &[]);
    let input = workload::fbm_dem(WIDTH, HEIGHT, 42);
    let data = input.to_bytes();
    let file = h
        .cluster
        .create_file("dem.rr", data.len() as u64, STRIP as u32, LayoutPolicy::RoundRobin)
        .unwrap();
    h.cluster.put_file(file, &data).unwrap();

    h.kill_server(1);
    let start = Instant::now();

    // A striped read hits an unreplicated strip on the dead server:
    // typed error, not a hang.
    match h.cluster.read_file(file) {
        Err(NetError::Io(_) | NetError::Remote { .. } | NetError::Protocol(_)) => {}
        other => panic!("expected a typed error, got {other:?}"),
    }

    // The whole ladder fails too — DAS, NAS and TS all need strip 1's
    // data — but each rung fails fast with a typed error.
    for scheme in [NetScheme::Das, NetScheme::Nas, NetScheme::Ts] {
        let name = format!("dead.{}", scheme.name());
        match run_net_scheme(&mut h.cluster, scheme, file, &name, "flow-routing", WIDTH) {
            Err(NetError::Io(_) | NetError::Remote { .. } | NetError::Protocol(_)) => {}
            other => panic!("{scheme:?}: expected a typed error, got {other:?}"),
        }
    }

    // Bounded: the fast policy's worst case is well under this.
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "failure detection took {:?} — retry/timeout budget broken",
        start.elapsed()
    );

    // The survivors are still healthy.
    assert_eq!(h.cluster.down_servers(), vec![1]);
    h.cluster.ping_all().expect("surviving servers must still answer");

    h.teardown();
}

/// Persistent (unlimited-budget) faults on one daemon make it
/// effectively dead from the moment it boots — before the client ever
/// connects. The replicated layout still serves reads and a tolerant
/// connect marks the server down instead of failing the cluster.
#[test]
fn persistently_refusing_server_is_routed_around() {
    // Server 3 refuses every connection it ever accepts.
    let mut h = boot_with(SERVERS, &[(3, "accept:refuse")]);
    let input = workload::fbm_dem(WIDTH, HEIGHT, 7);
    let data = input.to_bytes();
    assert_eq!(h.cluster.down_servers(), vec![3], "refusing server not detected at connect");

    let file = h
        .cluster
        .create_file(
            "dem.rep",
            data.len() as u64,
            STRIP as u32,
            LayoutPolicy::GroupedReplicated { group: 2 },
        )
        .unwrap();
    // Ingest is degraded (server 3's copies can't be written) but
    // every strip still lands on at least one live holder…
    h.cluster.put_file(file, &data).unwrap();
    let events = h.cluster.take_events();
    assert!(
        events.iter().any(|e| matches!(e, DegradeEvent::DegradedWrite { .. })),
        "writes to the dead server should be recorded as degraded"
    );
    // …so the read-back still reassembles the exact input.
    assert_eq!(h.cluster.read_file(file).unwrap(), data);

    assert!(h.plans[3].total_fired() > 0, "the refuse rule never fired");
    // Server 3 can never hear Shutdown — leak its accept thread.
    h.teardown_except(&[3]);
}

/// The observability acceptance scenario: one chaos run that produces
/// all three decision outcomes — a clean DAS offload, a NAS-degraded
/// run (redistribution exhausts a retry budget), and a TS rejection
/// (thrash geometry) — plus a replica failover, then introspects the
/// *live* daemons over the wire (`das stats` via the library API) and
/// holds the registries to the run:
///
/// * summed `dasd_decisions_total` reports ≥ 1 of each of das/nas/ts;
/// * the Eqs. 1–13 predicted dependence counters are nonzero and the
///   measured fleet sum is nonzero (the prediction-error metric is
///   computable);
/// * client retry and degrade counters match the faults that fired.
#[test]
fn live_metrics_expose_decisions_predictions_and_fault_handling() {
    let mut h = boot_with(
        SERVERS,
        &[
            // RedistPrepare against server 0 exhausts one full retry
            // budget (fast() = 4 attempts), degrading the first DAS
            // run to a forced NAS offload.
            (0, "redist:retryable:x4"),
            // The first strip read from server 2 exhausts a budget
            // too, forcing a replica failover.
            (2, "get:retryable:x4"),
        ],
    );
    let input = workload::fbm_dem(WIDTH, HEIGHT, 42);
    let data = input.to_bytes();

    // Replicated copy: the faulty GetStrip path has a replica to fail
    // over to. Read it first so the `get` budget is consumed here and
    // not by a scheme run's verification read-back.
    let rep = h
        .cluster
        .create_file(
            "dem.rep",
            data.len() as u64,
            STRIP as u32,
            LayoutPolicy::GroupedReplicated { group: 2 },
        )
        .unwrap();
    h.cluster.put_file(rep, &data).unwrap();
    assert_eq!(h.cluster.read_file(rep).unwrap(), data, "failover read corrupted");
    let read_tags = tags(&h.cluster.take_events());
    assert!(read_tags.contains(&"replica-failover"), "no failover in {read_tags:?}");

    // Round-robin copy for the offload runs.
    let rr = h
        .cluster
        .create_file("dem.rr", data.len() as u64, STRIP as u32, LayoutPolicy::RoundRobin)
        .unwrap();
    h.cluster.put_file(rr, &data).unwrap();

    // Run 1: redistribution fails → NAS rung → every daemon records a
    // forced ("nas") outcome.
    let nas_run =
        run_net_scheme(&mut h.cluster, NetScheme::Das, rr, "m.nas", "flow-routing", WIDTH).unwrap();
    assert!(nas_run.offloaded, "the NAS rung should absorb the redistribution failure");
    assert!(
        tags(&nas_run.degradations).contains(&"degraded-to-nas"),
        "ladder not recorded: {:?}",
        tags(&nas_run.degradations)
    );

    // Run 2: budgets consumed — a clean DAS offload ("das" outcome).
    let das_run =
        run_net_scheme(&mut h.cluster, NetScheme::Das, rr, "m.das", "flow-routing", WIDTH).unwrap();
    assert!(das_run.offloaded);
    // A hedge that wins on a healthy fleet is a proactive
    // `replica-failover`, not a degradation: clean means no ladder
    // step, no unavailable server and no tolerated write.
    let das_tags = tags(&das_run.degradations);
    assert!(
        das_tags.iter().all(|t| *t == "replica-failover"),
        "clean run degraded: {:?}",
        das_run.degradations
    );

    // Run 3: a one-shot (non-successive) request on thrash geometry —
    // one row per strip, so per-strip dependence fetches exceed the
    // whole file twice over. The decision gate refuses and the
    // confirming unforced execute lets the daemons record "ts".
    let thrash_input = workload::fbm_dem(64, 256, 9);
    let tdata = thrash_input.to_bytes();
    let thrash = h
        .cluster
        .create_file("thrash.raw", tdata.len() as u64, 256, LayoutPolicy::RoundRobin)
        .unwrap();
    h.cluster.put_file(thrash, &tdata).unwrap();
    let ts_run = run_net_scheme_opts(
        &mut h.cluster,
        NetScheme::Das,
        thrash,
        "m.ts",
        "flow-routing",
        64,
        false,
    )
    .unwrap();
    assert!(!ts_run.offloaded, "thrash geometry must be rejected one-shot");

    // Live introspection: pull every daemon's registry over the wire.
    let dumps = h.cluster.metrics_dump_all().expect("metrics dump");
    assert_eq!(dumps.len(), SERVERS);
    let (mut das_n, mut nas_n, mut ts_n) = (0.0, 0.0, 0.0);
    let (mut pred_max, mut meas_sum) = (0.0f64, 0.0f64);
    for (_id, text) in &dumps {
        let s = das_obs::parse(text);
        let outcome = |o| das_obs::sample_value(&s, "dasd_decisions_total", &[("outcome", o)]);
        das_n += outcome("das").unwrap_or(0.0);
        nas_n += outcome("nas").unwrap_or(0.0);
        ts_n += outcome("ts").unwrap_or(0.0);
        pred_max = pred_max
            .max(das_obs::sample_value(&s, "dasd_predicted_dep_fetch_bytes_total", &[])
                .unwrap_or(0.0));
        meas_sum +=
            das_obs::sample_value(&s, "dasd_dep_fetch_bytes_total", &[]).unwrap_or(0.0);
    }
    assert!(das_n >= 1.0, "no das outcome recorded (das={das_n} nas={nas_n} ts={ts_n})");
    assert!(nas_n >= 1.0, "no nas outcome recorded (das={das_n} nas={nas_n} ts={ts_n})");
    assert!(ts_n >= 1.0, "no ts outcome recorded (das={das_n} nas={nas_n} ts={ts_n})");
    assert!(pred_max > 0.0, "predicted dependence counters are empty");
    assert!(meas_sum > 0.0, "no dependence fetch was measured (forced NAS run should)");

    // Client-side fault handling: two exhausted 4-attempt budgets are
    // 3 recorded retries each, and each degrade event was counted.
    let cs = das_obs::parse(&h.cluster.metrics().encode());
    let retries = das_obs::sample_value(&cs, "das_client_retries_total", &[]).unwrap_or(0.0);
    assert!(retries >= 6.0, "expected ≥ 6 client retries, saw {retries}");
    for ev in ["replica-failover", "degraded-to-nas"] {
        let n = das_obs::sample_value(&cs, "das_client_degrade_events_total", &[("event", ev)])
            .unwrap_or(0.0);
        assert!(n >= 1.0, "degrade counter {ev} not incremented");
    }

    // The budgets really were consumed by the scenario above.
    assert_eq!(h.plans[0].total_fired(), 4, "server 0 fired {:?}", h.plans[0].fired());
    assert_eq!(h.plans[2].total_fired(), 4, "server 2 fired {:?}", h.plans[2].fired());

    h.teardown();
}

/// The degrade-event/metrics invariant: after a chaos run the client
/// registry's `das_client_degrade_events_total{event=…}` counters are
/// exactly the multiset of [`DegradeEvent::tag`]s the run reported —
/// the two can never disagree because the counter is bumped at the
/// same site that records the event.
#[test]
fn client_degrade_counters_match_recorded_events() {
    let mut h = boot_with(SERVERS, &[]);
    let input = workload::fbm_dem(WIDTH, HEIGHT, 42);
    let data = input.to_bytes();
    let file = h
        .cluster
        .create_file(
            "dem.rep",
            data.len() as u64,
            STRIP as u32,
            LayoutPolicy::GroupedReplicated { group: 2 },
        )
        .unwrap();
    h.cluster.put_file(file, &data).unwrap();
    h.kill_server(1);

    // Exercise every event kind: a failover read, then the full
    // DAS → NAS → normal-I/O ladder against the dead server.
    let mut all: Vec<DegradeEvent> = Vec::new();
    assert_eq!(h.cluster.read_file(file).unwrap(), data, "failover read corrupted");
    all.extend(h.cluster.take_events());
    let das = run_net_scheme(&mut h.cluster, NetScheme::Das, file, "cnt.das", "flow-routing", WIDTH)
        .unwrap();
    assert!(!das.offloaded);
    all.extend(das.degradations);
    assert!(!all.is_empty(), "scenario produced no degrade events");

    let mut counted: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for e in &all {
        *counted.entry(e.tag()).or_insert(0) += 1;
    }

    // Draining events does NOT reset the registry, so the counters
    // must equal the event counts — including zero for tags that
    // never fired.
    let cs = das_obs::parse(&h.cluster.metrics().encode());
    for tag in
        ["server-unavailable", "replica-failover", "degraded-write", "degraded-to-nas", "degraded-to-ts"]
    {
        let events = counted.get(tag).copied().unwrap_or(0);
        let counter =
            das_obs::sample_value(&cs, "das_client_degrade_events_total", &[("event", tag)])
                .unwrap_or(0.0) as u64;
        assert_eq!(counter, events, "counter vs reported events disagree for {tag:?}");
    }

    h.teardown();
}

/// The tail-tolerance acceptance scenario: one daemon of three serves
/// every `GetStrip` 300ms late — slow, not dead (think a page-cache
/// miss storm or a neighbour's `Execute` hogging the disk). Hedged
/// reads must bound the whole-file read *under a single fault delay*:
/// every slow strip is raced against its replica after the EWMA-derived
/// hedge delay and the replica's bit-identical reply wins. A slow
/// server is never marked down, and once the losing lanes' 300ms
/// replies have fed the latency tracker, the next read demotes the
/// straggler in every replica walk and completes fast with no hedges.
#[test]
fn slow_server_is_hedged_around_and_then_demoted() {
    const DELAY_MS: u64 = 300;
    // `get`-class fault only: ingest (PutStrip) stays fast, so the put
    // warms every server's EWMA with healthy samples — exactly the
    // state in which a sudden straggler must be caught by the hedge,
    // because the ordering hysteresis still (rightly) trusts server 1.
    let mut h = boot_with(3, &[(1, "get:delay=300:x500")]);
    let input = workload::fbm_dem(WIDTH, HEIGHT, 42);
    let data = input.to_bytes();
    let file = h
        .cluster
        .create_file(
            "dem.rep",
            data.len() as u64,
            STRIP as u32,
            LayoutPolicy::GroupedReplicated { group: 2 },
        )
        .unwrap();
    h.cluster.put_file(file, &data).unwrap();

    let start = Instant::now();
    assert_eq!(h.cluster.read_file(file).unwrap(), data, "hedged read corrupted");
    let elapsed = start.elapsed();
    // 8 of the 24 strips are primaried on the slow server; un-hedged
    // the read would take ≥ 8 × 300ms. Bounded under ONE delay proves
    // every slow strip was raced to its replica instead of waited out.
    assert!(elapsed < Duration::from_millis(DELAY_MS), "hedging did not bound the read: {elapsed:?}");

    // Each hedge win is a proactive replica failover, visible both as
    // a degrade event and in the client registry…
    let read_tags = tags(&h.cluster.take_events());
    assert!(read_tags.contains(&"replica-failover"), "no failover in {read_tags:?}");
    let cs = das_obs::parse(&h.cluster.metrics().encode());
    let hedges = das_obs::sample_value(&cs, "das_client_hedges_total", &[]).unwrap_or(0.0);
    let wins = das_obs::sample_value(&cs, "das_client_hedge_wins_total", &[]).unwrap_or(0.0);
    assert!(hedges >= 8.0, "expected ≥ 8 hedged strips, saw {hedges}");
    assert!(wins >= 8.0, "expected ≥ 8 hedge wins, saw {wins}");
    // …and a slow server is never a *down* server.
    assert!(h.cluster.down_servers().is_empty(), "a slow server must not be marked down");

    // Let the losing lanes' 300ms replies land in their parked
    // connections: the next read's first poll reads each and feeds the
    // slow server's EWMA, so that read starts from an honest
    // straggler estimate and orders the replica first.
    std::thread::sleep(Duration::from_millis(DELAY_MS + 100));
    let start = Instant::now();
    assert_eq!(h.cluster.read_file(file).unwrap(), data, "demoted read corrupted");
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(150),
        "straggler demotion did not keep the read off the slow server: {elapsed:?}"
    );

    // The slow strips really were raced on the wire: one delay fired
    // per hedged primary GetStrip.
    assert!(h.plans[1].total_fired() >= 8, "server 1 fired {:?}", h.plans[1].fired());
    h.teardown();
}

/// Admission control under a ~2× open-loop burst: one daemon with a
/// two-request gate and a 60ms `GetStrip` service time is hammered by
/// six concurrent single-attempt clients. Every response must be
/// either the strip or a typed, transient `Overloaded` — no hangs, no
/// protocol violations — every client-visible shed must be counted in
/// the daemon's own registry, and once the burst drains a normal
/// retrying client completes cleanly: sheds are recoverable by design.
#[test]
fn overloaded_daemon_sheds_typed_and_recovers() {
    const BURST_CLIENTS: usize = 6;
    const CALLS_PER_CLIENT: usize = 4;
    let mut h = boot_with_cfg(1, &[(0, "get:delay=60:x1000")], |mut cfg| {
        // Two workers, so the bounded queue really fills.
        cfg.pool = 2;
        cfg.with_max_backlog(2)
    });
    let input = workload::fbm_dem(64, 64, 5); // 16 KiB → 4 strips
    let data = input.to_bytes();
    let file = h
        .cluster
        .create_file("dem.small", data.len() as u64, STRIP as u32, LayoutPolicy::RoundRobin)
        .unwrap();
    h.cluster.put_file(file, &data).unwrap();

    // Single-attempt clients: a shed must surface as the typed error,
    // not be papered over by the retry layer.
    let one_shot = RetryPolicy {
        max_attempts: 1,
        read_timeout: Duration::from_secs(5),
        ..RetryPolicy::fast()
    };
    let barrier = Arc::new(Barrier::new(BURST_CLIENTS));
    let writers: Vec<_> = (0..BURST_CLIENTS)
        .map(|_| {
            let addrs = h.addrs.clone();
            let pol = one_shot.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = DasCluster::connect_with(&addrs, pol).expect("burst connect");
                barrier.wait();
                let (mut ok, mut shed) = (0u64, 0u64);
                for _ in 0..CALLS_PER_CLIENT {
                    match c.call(0, &Message::GetStrip { file, strip: 0 }) {
                        Ok(Message::StripData { .. }) => ok += 1,
                        Err(NetError::Remote { code: ErrorCode::Overloaded, .. }) => shed += 1,
                        other => panic!("overload burst: unexpected {other:?}"),
                    }
                }
                (ok, shed)
            })
        })
        .collect();
    let (mut ok, mut shed) = (0u64, 0u64);
    for w in writers {
        let (o, s) = w.join().expect("burst client");
        ok += o;
        shed += s;
    }
    assert!(ok >= 1, "overload starved every request (ok={ok} shed={shed})");
    assert!(shed >= 1, "2× load never tripped admission control (ok={ok} shed={shed})");

    // Every client-visible shed is one server-side counted shed, and
    // MetricsDump itself is shed-exempt — observable under overload.
    let dump = h.cluster.metrics_dump(0).expect("MetricsDump is shed-exempt");
    let s = das_obs::parse(&dump);
    let backlog = das_obs::sample_value(&s, "dasd_requests_shed_total", &[("reason", "backlog")])
        .unwrap_or(0.0);
    assert!(backlog >= shed as f64, "registry saw {backlog} backlog sheds, clients saw {shed}");

    // A request whose deadline budget expires while it is queued behind
    // slow work is shed as `deadline`, never executed late.
    let go = Arc::new(Barrier::new(3));
    let primers: Vec<_> = (0..2)
        .map(|_| {
            let addrs = h.addrs.clone();
            let pol = one_shot.clone();
            let go = Arc::clone(&go);
            std::thread::spawn(move || {
                let mut c = DasCluster::connect_with(&addrs, pol).expect("primer connect");
                go.wait();
                let _ = c.call(0, &Message::GetStrip { file, strip: 0 });
            })
        })
        .collect();
    go.wait();
    // Both workers are now busy for 60ms; a 10ms budget cannot
    // survive the queue wait behind them.
    std::thread::sleep(Duration::from_millis(10));
    let tiny = RetryPolicy {
        max_attempts: 1,
        read_timeout: Duration::from_millis(10),
        ..RetryPolicy::fast()
    };
    let mut c = DasCluster::connect_with(&h.addrs, tiny).expect("budget client");
    let _ = c.call(0, &Message::GetStrip { file, strip: 0 }); // times out client-side
    for p in primers {
        p.join().unwrap();
    }
    let s = das_obs::parse(&h.cluster.metrics_dump(0).expect("metrics dump"));
    let expired =
        das_obs::sample_value(&s, "dasd_requests_shed_total", &[("reason", "deadline")])
            .unwrap_or(0.0);
    assert!(expired >= 1.0, "queued past its budget but not deadline-shed");

    // Recovery: the burst has drained; the harness cluster's retry
    // policy backs off on `Overloaded` and reads back bit-identically.
    assert_eq!(h.cluster.read_file(file).unwrap(), data, "post-overload read corrupted");
    assert!(h.cluster.down_servers().is_empty(), "overload must never mark a server down");
    h.teardown();
}

/// Regression: the full CLI lifecycle with *separate* clients per
/// step (each `das` invocation is a fresh process) and daemons on the
/// default (slow-backoff) retry policy. After one daemon dies, the
/// surviving servers' replica forwards to it must fail fast (circuit
/// breaker) instead of adding a retry budget of latency per boundary
/// strip — without that, an offloading server exceeds the client's
/// reply deadline, gets wrongly marked down, and the ladder's final
/// normal-I/O rung finds strips whose primary ("slow" server) and
/// replica (dead server) are both unavailable, leaking a typed error
/// for data that is perfectly reachable.
#[test]
fn fresh_clients_and_slow_daemons_survive_a_dead_peer() {
    let _turn = own_the_machine();
    let input = workload::fbm_dem(WIDTH, HEIGHT, 42);
    let data = input.to_bytes();

    // Daemons on the DEFAULT retry policy (2s backoff cap), server 0
    // additionally under transient client-side faults. No with_retry:
    // this is exactly the production `dasd` configuration.
    let listeners: Vec<TcpListener> = (0..SERVERS)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port"))
        .collect();
    let addrs: Vec<String> =
        listeners.iter().map(|l| l.local_addr().unwrap().to_string()).collect();
    let handles: Vec<DasdHandle> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            let mut cfg = DasdConfig::new(i as u32, addrs.clone());
            if i == 0 {
                cfg = cfg.with_fault(Arc::new(
                    FaultPlan::parse("client:retryable:x2,any:delay=30:x1", 1).unwrap(),
                ));
            }
            spawn(cfg, l).expect("spawn dasd")
        })
        .collect();
    // Tight client policy, like `das --attempts 3 --timeout-ms 500`.
    let tight = Duration::from_millis(500);
    let pol = RetryPolicy {
        max_attempts: 3,
        connect_timeout: tight,
        read_timeout: tight,
        write_timeout: tight,
        ..RetryPolicy::default()
    };

    {
        let mut c = DasCluster::connect_with(&addrs, pol.clone()).unwrap();
        let f = c
            .create_file(
                "dem.rep",
                data.len() as u64,
                STRIP as u32,
                LayoutPolicy::GroupedReplicated { group: 2 },
            )
            .unwrap();
        c.put_file(f, &data).unwrap();
    }
    {
        let mut c = DasCluster::connect_with(&addrs, pol.clone()).unwrap();
        let (f, _) = c.lookup("dem.rep").unwrap();
        let r = run_net_scheme(&mut c, NetScheme::Nas, f, "rep.nas", "flow-routing", WIDTH)
            .unwrap();
        assert!(r.offloaded);
    }
    {
        let mut c = DasCluster::connect_with(&addrs, pol.clone()).unwrap();
        match c.call(1, &Message::Shutdown) {
            Ok(Message::ShutdownOk) => {}
            o => panic!("killing server 1: {o:?}"),
        }
    }
    {
        let mut c = DasCluster::connect_with(&addrs, pol.clone()).unwrap();
        let (f, _) = c.lookup("dem.rep").unwrap();
        assert_eq!(c.read_file(f).unwrap(), data, "failover read corrupted");
    }
    {
        let mut c = DasCluster::connect_with(&addrs, pol.clone()).unwrap();
        let (f, _) = c.lookup("dem.rep").unwrap();
        let r = run_net_scheme(&mut c, NetScheme::Das, f, "rep.das", "flow-routing", WIDTH)
            .unwrap_or_else(|e| panic!("ladder leaked a reachable-data request: {e}"));
        assert_eq!(r.output_fingerprint, truth_fingerprint(SchemeKind::Das, &input));
        assert!(tags(&r.degradations).contains(&"degraded-to-ts"));
        c.shutdown_all().unwrap();
    }
    for h in handles {
        h.join();
    }
}

/// Ingest a `WIDTH × height` DEM round-robin and register one output
/// file per name; returns `(input bytes, input id, output ids)`.
fn ingest_rr(h: &mut Harness, height: u64, outs: &[&str]) -> (Vec<u8>, u32, Vec<u32>) {
    ingest(h, height, LayoutPolicy::RoundRobin, outs)
}

/// [`ingest_rr`] under any layout (outputs mirror the input's).
fn ingest(h: &mut Harness, height: u64, policy: LayoutPolicy, outs: &[&str]) -> (Vec<u8>, u32, Vec<u32>) {
    let data = workload::fbm_dem(WIDTH, height, 42).to_bytes();
    let mut create = |name: &str| {
        h.cluster.create_file(name, data.len() as u64, STRIP as u32, policy).expect("create file")
    };
    let file = create("dem.in");
    let outs = outs.iter().map(|name| create(name)).collect();
    h.cluster.put_file(file, &data).expect("ingest");
    (data, file, outs)
}

/// The client puts one `Execute` in flight per server before it reads
/// any reply: with every daemon sleeping 40 ms before it answers, a
/// four-server execute takes one delay, not four (≥ 160 ms serial).
/// One strip per server keeps the real work in the low milliseconds.
#[test]
fn execute_fans_out_to_all_servers_at_once() {
    let faults: Vec<(usize, &str)> = (0..SERVERS).map(|s| (s, "exec:delay=40")).collect();
    let mut h = boot_with(SERVERS, &faults);
    let (_, file, outs) = ingest_rr(&mut h, 16, &["fan.out"]);
    // Warm the peer links so the timed call dials nothing.
    h.cluster.execute(file, outs[0], "gaussian-filter", WIDTH, true, true).unwrap().unwrap();
    let started = Instant::now();
    let summaries =
        h.cluster.execute(file, outs[0], "gaussian-filter", WIDTH, true, true).unwrap().unwrap();
    let took = started.elapsed();
    assert_eq!(summaries.len(), SERVERS);
    assert!(took >= Duration::from_millis(40), "the delay fault did not fire ({took:?})");
    assert!(
        took < Duration::from_millis(100),
        "a {SERVERS}-server execute took {took:?} — the fan-out is serial"
    );
    h.teardown();
}

/// Wave hygiene: whatever one server answers (or fails to), every
/// connection of the fan-out ends frame-aligned or evicted. A stale
/// `ExecuteOk` left unread on some connection would be taken for the
/// reply to the next request on it — so after each faulted or rejected
/// execute the same cluster must still ping and read a file correctly.
#[test]
fn fan_out_leaves_every_connection_reusable() {
    // A typed transient refusal and a mid-frame cut, on a middle
    // server: both are retried away and the execute succeeds.
    for fault in ["exec:retryable:x1", "exec:drop:x1"] {
        let mut h = boot_with(SERVERS, &[(1, fault)]);
        let (data, file, outs) = ingest_rr(&mut h, HEIGHT, &["hyg.out"]);
        let summaries = h
            .cluster
            .execute(file, outs[0], "gaussian-filter", WIDTH, true, true)
            .unwrap_or_else(|e| panic!("{fault}: {e}"))
            .expect("forced offload must run");
        assert_eq!(summaries.len(), SERVERS, "{fault}");
        assert_eq!(h.plans[1].total_fired(), 1, "{fault}: the fault never fired");
        let retries = h.cluster.metrics().counter("das_client_retries_total", &[]).get();
        assert_eq!(retries, 1, "{fault}: exactly the faulted server is retried");
        h.cluster.ping_all().unwrap_or_else(|e| panic!("{fault}: ping after the wave: {e}"));
        assert_eq!(h.cluster.read_file(file).unwrap(), data, "{fault}: read after the wave");
        assert!(h.cluster.down_servers().is_empty(), "{fault}: a server was marked down");
        h.teardown();
    }

    // An unforced one-shot offload every server rejects: the first
    // rejection settles the call, the other three replies must still
    // have been drained.
    let mut h = boot_with(SERVERS, &[]);
    let input = workload::fbm_dem(64, 256, 9);
    let data = input.to_bytes();
    let mut create = |name: &str| {
        h.cluster.create_file(name, data.len() as u64, 256, LayoutPolicy::RoundRobin).unwrap()
    };
    let (file, out) = (create("thrash.raw"), create("thrash.out"));
    h.cluster.put_file(file, &data).unwrap();
    match h.cluster.execute(file, out, "flow-routing", 64, false, false) {
        Ok(Err(reason)) => assert!(reason.contains("normal I/O"), "odd rejection: {reason}"),
        other => panic!("expected every server to reject the offload, got {other:?}"),
    }
    h.cluster.ping_all().expect("ping after a rejected wave");
    assert_eq!(h.cluster.read_file(file).unwrap(), data, "read after a rejected wave");
    h.teardown();
}

/// A dependence fetch that fails part-way through an `Execute` (the
/// peer died): the daemon answers with the typed, transient
/// `Retryable`, and its peer wave has ended — the worker that ran the
/// request is free again, so the daemon keeps serving.
#[test]
fn dead_peer_mid_execute_fails_typed_and_frees_the_worker() {
    // Two workers and the engine's cap of one running `Execute`: a
    // worker stuck in a hung peer wave would block the second one.
    let mut h = boot_with_cfg(SERVERS, &[], |mut cfg| {
        cfg.pool = 2;
        cfg
    });
    let (data, file, outs) = ingest_rr(&mut h, HEIGHT, &["dead.out"]);
    // Server 0's tasks are strips 0, 4, 8, …; gaussian-filter reaches
    // one strip each way, so task 0 needs only strip 1 (server 1) and
    // task 1 is the first to need server 3.
    h.kill_server(3);
    let exec = Message::Execute {
        file,
        out_file: outs[0],
        kernel: "gaussian-filter".into(),
        img_width: WIDTH,
        element_size: 4,
        successive: true,
        force: true,
    };
    for attempt in 0..2 {
        match h.cluster.call(0, &exec) {
            Err(NetError::Remote { code: ErrorCode::Retryable, message }) => {
                assert!(message.contains("strip 3 unreachable"), "attempt {attempt}: {message}")
            }
            other => panic!("attempt {attempt}: expected a typed Retryable, got {other:?}"),
        }
    }
    // Task 0 ran to completion before the failure surfaced.
    match h.cluster.call(0, &Message::GetStrip { file: outs[0], strip: 0 }) {
        Ok(Message::StripData { payload }) => assert_eq!(payload.len(), STRIP),
        other => panic!("output strip 0 missing: {other:?}"),
    }
    assert_eq!(
        h.cluster.call(0, &Message::GetStrip { file, strip: 0 }).unwrap(),
        Message::StripData { payload: data[..STRIP].to_vec() }
    );
    assert_eq!(h.cluster.down_servers(), Vec::<u32>::new(), "server 0 must stay up");
    h.teardown();
}

/// A replica holder that is dead when the forward pass runs costs the
/// `Execute` redundancy, not success: the daemon still answers
/// `ExecuteOk`, every forward bound for the dead holder is counted
/// (the pipelined wave fails, each goes again on its own through the
/// retrying path, the breaker trips on the first), the other holder's
/// wave lands, and the primaries serve the output.
#[test]
fn dead_replica_holder_is_counted_per_forward_and_the_execute_succeeds() {
    let policy = LayoutPolicy::GroupedReplicated { group: 2 };
    let mut h = boot_with(SERVERS, &[]);
    let input = workload::fbm_dem(WIDTH, HEIGHT, 42);
    let want = kernel_by_name("gaussian-filter").unwrap().apply(&input).to_bytes();
    let (_, file, outs) = ingest(&mut h, HEIGHT, policy, &["fwd.out"]);
    let out_file = outs[0];

    // Server 0 computes strips 0, 1, 8, 9, 16, 17 off local replicas
    // alone; the first of each pair is replicated on server 3, the
    // second on server 1.
    h.kill_server(3);
    let exec = Message::Execute {
        file,
        out_file,
        kernel: "gaussian-filter".into(),
        img_width: WIDTH,
        element_size: 4,
        successive: true,
        force: false,
    };
    match h.cluster.call(0, &exec) {
        Ok(Message::ExecuteOk { strips_computed: 6, dep_fetches: 0, .. }) => {}
        other => panic!("expected ExecuteOk for six local tasks, got {other:?}"),
    }

    let layout = Layout::new(policy, SERVERS as u32);
    let tasks = layout.primary_strips(ServerId(0), 24);
    let bound_for = |holder: u32| -> Vec<u64> {
        tasks.iter().filter(|&&t| layout.replicas(t).contains(&ServerId(holder))).map(|t| t.0).collect()
    };
    assert_eq!((bound_for(3), bound_for(1)), (vec![0, 8, 16], vec![1, 9, 17]));
    let metrics = das_obs::parse(&h.cluster.metrics_dump(0).expect("metrics dump"));
    assert_eq!(
        das_obs::sample_value(&metrics, "dasd_replica_forward_failures_total", &[]),
        Some(3.0),
        "one failure per forward bound for the dead holder"
    );
    let mut strip = |server: usize, strip: u64| match h.cluster.call(server, &Message::GetStrip { file: out_file, strip }) {
        Ok(Message::StripData { payload }) => payload,
        other => panic!("output strip {strip} on server {server}: {other:?}"),
    };
    for t in [0u64, 1, 8, 9, 16, 17] {
        let at = t as usize * STRIP;
        assert_eq!(strip(0, t), want[at..at + STRIP], "primary copy of output strip {t}");
        if t % 2 == 1 {
            assert_eq!(strip(1, t), want[at..at + STRIP], "forwarded copy of output strip {t}");
        }
    }
    h.teardown();
}

