//! End-to-end loopback integration: boot a cluster of real `dasd`
//! daemons on ephemeral ports, run the paper's three evaluation
//! schemes over TCP, and hold the results against the in-process
//! implementations —
//!
//! * outputs must be **bit-identical** to `das_runtime::run_scheme`
//!   (same kernels, same strips, different transport), and
//! * measured wire bytes must land within 10% of the analytic
//!   bandwidth predictions of `das-core` (framing overhead is the
//!   slack).

use std::net::TcpListener;

use das_core::{plan_distribution, PlanOptions, StripingParams};
use das_kernels::{kernel_by_name, workload};
use das_net::{run_net_scheme, run_net_scheme_opts, spawn, DasCluster, DasdConfig, DasdHandle, NetScheme};
use das_pfs::{Layout, LayoutPolicy, ServerId, StripId, StripeSpec};
use das_runtime::{run_scheme, ClusterConfig, SchemeKind};

const SERVERS: usize = 4;
const WIDTH: u64 = 256;
const HEIGHT: u64 = 96;
const STRIP: usize = 4096; // 4 rows of 256 f32s per strip → 24 strips

struct Harness {
    handles: Vec<DasdHandle>,
    cluster: DasCluster,
    addrs: Vec<String>,
}

fn boot(servers: usize) -> Harness {
    boot_with(servers, |cfg| cfg)
}

/// [`boot`] with a per-daemon config tweak applied after the defaults.
fn boot_with(servers: usize, tweak: impl Fn(DasdConfig) -> DasdConfig) -> Harness {
    let listeners: Vec<TcpListener> = (0..servers)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port"))
        .collect();
    let addrs: Vec<String> =
        listeners.iter().map(|l| l.local_addr().unwrap().to_string()).collect();
    let handles = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| spawn(tweak(DasdConfig::new(i as u32, addrs.clone())), l).expect("spawn dasd"))
        .collect();
    let cluster = DasCluster::connect(&addrs).expect("connect cluster");
    Harness { handles, cluster, addrs }
}

impl Harness {
    fn teardown(mut self) {
        self.cluster.shutdown_all().expect("shutdown");
        drop(self.cluster); // close client connections so workers exit
        for h in self.handles {
            h.join();
        }
    }
}

fn within_pct(measured: u64, predicted: u64, pct: f64) -> bool {
    let (m, p) = (measured as f64, predicted as f64);
    if p == 0.0 {
        return m == 0.0;
    }
    (m - p).abs() / p <= pct / 100.0
}

/// The paper's experiment, over real sockets: ingest a DEM under
/// round-robin, run one kernel under TS, NAS and DAS, compare.
fn run_kernel_over_wire(kernel_name: &str) {
    let input = workload::fbm_dem(WIDTH, HEIGHT, 42);
    let data = input.to_bytes();
    let file_len = data.len() as u64;
    let kernel = kernel_by_name(kernel_name).unwrap();
    let offsets = kernel.dependence_offsets(WIDTH);

    // In-process ground truth (same node count and strip size).
    let mut cfg = ClusterConfig::paper_default();
    cfg.storage_nodes = SERVERS as u32;
    cfg.compute_nodes = SERVERS as u32;
    cfg.strip_size = STRIP;
    let truth_ts = run_scheme(&cfg, SchemeKind::Ts, kernel.as_ref(), &input);
    let truth_nas = run_scheme(&cfg, SchemeKind::Nas, kernel.as_ref(), &input);
    let truth_das = run_scheme(&cfg, SchemeKind::Das, kernel.as_ref(), &input);
    // All three in-process schemes agree with the plain kernel.
    let direct = kernel.apply(&input).fingerprint();
    assert_eq!(truth_ts.output_fingerprint, direct);
    assert_eq!(truth_nas.output_fingerprint, direct);
    assert_eq!(truth_das.output_fingerprint, direct);

    let mut h = boot(SERVERS);
    let file = h
        .cluster
        .create_file("dem.raw", file_len, STRIP as u32, LayoutPolicy::RoundRobin)
        .unwrap();
    h.cluster.put_file(file, &data).unwrap();

    // ---- TS: all traffic is client↔server, ≈ input + output. ----
    let ts = run_net_scheme(&mut h.cluster, NetScheme::Ts, file, "out.ts", kernel_name, WIDTH)
        .unwrap();
    assert!(!ts.offloaded);
    assert_eq!(ts.output_fingerprint, truth_ts.output_fingerprint, "TS output differs");
    let rr = StripingParams {
        element_size: 4,
        strip_size: STRIP as u64,
        layout: Layout::new(LayoutPolicy::RoundRobin, SERVERS as u32),
    };
    // Normal I/O moves the input to the client and the (equal-sized)
    // output back — the `ts_client_bytes` term of OffloadPrediction.
    let predicted_ts = 2 * file_len;
    assert!(
        within_pct(ts.client_bytes, predicted_ts, 10.0),
        "TS client bytes {} vs predicted {predicted_ts}",
        ts.client_bytes
    );
    assert_eq!(ts.server_bytes, 0, "TS moved bytes between servers");

    // ---- NAS: forced offload on round-robin; server↔server traffic
    // must match the predictor's strip-fetch model. ----
    let nas = run_net_scheme(&mut h.cluster, NetScheme::Nas, file, "out.nas", kernel_name, WIDTH)
        .unwrap();
    assert!(nas.offloaded);
    assert_eq!(nas.output_fingerprint, truth_nas.output_fingerprint, "NAS output differs");
    let predicted_nas = rr.predict_nas_fetches(&offsets, file_len);
    let dep_fetches: u64 = nas.exec.iter().map(|e| e.dep_fetches).sum();
    let dep_bytes: u64 = nas.exec.iter().map(|e| e.dep_fetch_bytes).sum();
    // Payload-level accounting is *exact* — same invariant the
    // in-process NAS test asserts.
    assert_eq!(dep_fetches, predicted_nas.fetches, "NAS fetch count diverged from predictor");
    assert_eq!(dep_bytes, predicted_nas.bytes, "NAS fetch bytes diverged from predictor");
    // Wire-level accounting includes framing; 10% slack.
    assert!(
        within_pct(nas.server_bytes, predicted_nas.bytes, 10.0),
        "NAS wire bytes {} vs predicted {}",
        nas.server_bytes,
        predicted_nas.bytes
    );

    // ---- DAS: decide, redistribute, offload. ----
    let das = run_net_scheme(&mut h.cluster, NetScheme::Das, file, "out.das", kernel_name, WIDTH)
        .unwrap();
    assert!(das.offloaded, "DAS should offload {kernel_name}");
    assert_eq!(das.output_fingerprint, truth_das.output_fingerprint, "DAS output differs");
    let plan = plan_distribution(&offsets, 4, STRIP as u64, SERVERS as u32, file_len, PlanOptions::default());
    assert_eq!(das.layout, plan.policy, "DAS did not adopt the planned layout");
    // On the dependence-friendly layout no execution-time fetches
    // remain.
    let das_fetches: u64 = das.exec.iter().map(|e| e.dep_fetches).sum();
    assert_eq!(das_fetches, 0, "planned layout left remote dependences");
    // Analytic server↔server traffic: the redistribution pulls plus
    // the forwarding of output boundary strips to their replicas.
    let spec = StripeSpec::new(STRIP);
    let old = Layout::new(LayoutPolicy::RoundRobin, SERVERS as u32);
    let new = Layout::new(plan.policy, SERVERS as u32);
    let mut predicted_das = 0u64;
    for t in 0..spec.strip_count(file_len) {
        let sid = StripId(t);
        let strip_len = spec.strip_len(sid, file_len) as u64;
        for s in 0..SERVERS as u32 {
            if new.holds(ServerId(s), sid) && !old.holds(ServerId(s), sid) {
                predicted_das += strip_len; // redistribution pull
            }
        }
        predicted_das += new.replicas(sid).len() as u64 * strip_len; // output replica forward
    }
    assert!(
        within_pct(das.server_bytes, predicted_das, 10.0),
        "DAS wire bytes {} vs analytic {predicted_das}",
        das.server_bytes
    );
    // DAS must beat NAS on server↔server traffic for these stencils —
    // the paper's headline effect, now on real sockets.
    assert!(
        das.server_bytes - das.redistribution_bytes < nas.server_bytes,
        "DAS steady-state traffic {} not below NAS {}",
        das.server_bytes - das.redistribution_bytes,
        nas.server_bytes
    );

    // The three networked outputs agree bit-for-bit with each other.
    assert_eq!(ts.output, nas.output);
    assert_eq!(ts.output, das.output);

    h.teardown();
}

#[test]
fn flow_routing_over_wire_matches_in_process() {
    run_kernel_over_wire("flow-routing");
}

#[test]
fn gaussian_over_wire_matches_in_process() {
    run_kernel_over_wire("gaussian-filter");
}

/// A 1536-wide f32 raster in 4 KiB strips: a row is a strip and a
/// half, so the 8-neighbour reach (1537 elements) crosses two strips.
const WIDE: u64 = 1536;

#[test]
fn halo_layout_leaves_das_zero_dependence_fetches() {
    let input = workload::fbm_dem(WIDE, 48, 11);
    let data = input.to_bytes();
    let file_len = data.len() as u64;
    let kernel = kernel_by_name("flow-routing").unwrap();
    let offsets = kernel.dependence_offsets(WIDE);
    let plan = plan_distribution(&offsets, 4, STRIP as u64, SERVERS as u32, file_len, PlanOptions::default());
    assert_eq!(plan.policy, LayoutPolicy::replicated(18, 2), "one group per daemon, two-strip halo");
    assert!(plan.satisfied);

    // In process: the same layout, and the only server↔server bytes
    // are the output's boundary strips forwarded to their replicas.
    let mut cfg = ClusterConfig::paper_default();
    cfg.storage_nodes = SERVERS as u32;
    cfg.compute_nodes = SERVERS as u32;
    cfg.strip_size = STRIP;
    let truth = run_scheme(&cfg, SchemeKind::Das, kernel.as_ref(), &input);
    let outcome = truth.das.as_ref().expect("DAS outcome");
    assert!(outcome.offloaded);
    assert_eq!(outcome.layout, plan.policy);
    assert_eq!(outcome.predicted_server_bytes, 0);
    let spec = StripeSpec::new(STRIP);
    let layout = Layout::new(plan.policy, SERVERS as u32);
    let forwards: u64 = (0..spec.strip_count(file_len))
        .map(StripId)
        .map(|t| layout.replicas(t).len() as u64 * spec.strip_len(t, file_len) as u64)
        .sum();
    assert_eq!(truth.bytes.net_server_server, forwards, "in-process DAS fetched dependences");

    // Over the wire: same layout, no dependence fetch, same answer.
    let mut h = boot(SERVERS);
    let file = h.cluster.create_file("wide.raw", file_len, STRIP as u32, LayoutPolicy::RoundRobin).unwrap();
    h.cluster.put_file(file, &data).unwrap();
    let das = run_net_scheme(&mut h.cluster, NetScheme::Das, file, "wide.das", "flow-routing", WIDE).unwrap();
    assert!(das.offloaded);
    assert_eq!(das.layout, plan.policy);
    assert_eq!(das.exec.iter().map(|e| e.dep_fetches).sum::<u64>(), 0);
    assert_eq!(das.exec.iter().map(|e| e.dep_fetch_bytes).sum::<u64>(), 0);
    assert_eq!(das.output_fingerprint, kernel.apply(&input).fingerprint());
    assert_eq!(das.output_fingerprint, truth.output_fingerprint);
    h.teardown();
}

/// Client-class `dasd_requests_total` of `op`, summed over the fleet.
fn client_requests(cluster: &mut DasCluster, op: &str) -> u64 {
    let dumps = cluster.metrics_dump_all().expect("metrics dump");
    dumps
        .iter()
        .map(|(_, text)| {
            let samples = das_obs::parse(text);
            das_obs::sample_value(&samples, "dasd_requests_total", &[("op", op), ("class", "client")])
                .unwrap_or(0.0) as u64
        })
        .sum()
}

/// The unlabelled counter `name`, summed over the fleet.
fn fleet_counter(cluster: &mut DasCluster, name: &str) -> u64 {
    let dumps = cluster.metrics_dump_all().expect("metrics dump");
    dumps.iter().map(|(_, text)| das_obs::sample_value(&das_obs::parse(text), name, &[]).unwrap_or(0.0) as u64).sum()
}

#[test]
fn a_steady_state_op_asks_for_each_files_metadata_once() {
    // The benchmark's op: flow-routing over a 1536 × 48 raster in
    // 4 KiB strips, each scheme into an output that exists already.
    let input = workload::fbm_dem(WIDE, 48, 13);
    let data = input.to_bytes();
    let kernel = kernel_by_name("flow-routing").unwrap();
    let plan = LayoutPolicy::replicated(18, 2);
    let mut h = boot(SERVERS);
    // (scheme, offloaded, layout, server↔server bytes of the op): the
    // dependence fetches of NAS, the replica forwards of DAS.
    let expected = [
        (NetScheme::Ts, false, LayoutPolicy::RoundRobin, 0),
        (NetScheme::Nas, true, LayoutPolicy::RoundRobin, 1_174_248),
        (NetScheme::Das, true, plan, 66_048),
    ];
    for (scheme, offloaded, layout, server_bytes) in expected {
        let name = format!("{}.raw", scheme.name());
        let file = h.cluster.create_file(&name, data.len() as u64, STRIP as u32, LayoutPolicy::RoundRobin).unwrap();
        h.cluster.put_file(file, &data).unwrap();
        let out = format!("{name}.out");
        run_net_scheme(&mut h.cluster, scheme, file, &out, "flow-routing", WIDE).unwrap();
        let before = ["get_distribution", "lookup"].map(|op| client_requests(&mut h.cluster, op));
        let run = run_net_scheme(&mut h.cluster, scheme, file, &out, "flow-routing", WIDE).unwrap();
        let after = ["get_distribution", "lookup"].map(|op| client_requests(&mut h.cluster, op));
        assert!(run.degradations.is_empty(), "{scheme:?}: {:?}", run.degradations);
        assert_eq!(run.offloaded, offloaded, "{scheme:?}");
        assert_eq!(run.layout, layout, "{scheme:?}");
        assert_eq!(run.output_fingerprint, kernel.apply(&input).fingerprint(), "{scheme:?}");
        assert_eq!(run.server_bytes, server_bytes, "{scheme:?}");
        assert_eq!([after[0] - before[0], after[1] - before[1]], [1, 1], "{scheme:?}: GetDistribution, Lookup");
    }
    h.teardown();
}

#[test]
fn a_das_run_into_an_output_laid_out_otherwise_moves_the_output_first() {
    // A NAS run leaves its output on round-robin; a DAS run into the
    // same output adopts the plan for the input, and the daemons compute
    // only into an output laid out like its input.
    let input = workload::fbm_dem(WIDE, 48, 14);
    let data = input.to_bytes();
    let kernel = kernel_by_name("flow-routing").unwrap();
    let mut h = boot(SERVERS);
    let file = h.cluster.create_file("moved.raw", data.len() as u64, STRIP as u32, LayoutPolicy::RoundRobin).unwrap();
    h.cluster.put_file(file, &data).unwrap();
    let nas = run_net_scheme(&mut h.cluster, NetScheme::Nas, file, "moved.out", "flow-routing", WIDE).unwrap();
    assert_eq!(nas.layout, LayoutPolicy::RoundRobin);
    let das = run_net_scheme(&mut h.cluster, NetScheme::Das, file, "moved.out", "flow-routing", WIDE).unwrap();
    assert!(das.offloaded);
    assert!(das.degradations.is_empty(), "{:?}", das.degradations);
    assert_eq!(das.layout, LayoutPolicy::replicated(18, 2));
    assert_eq!(das.output_fingerprint, kernel.apply(&input).fingerprint());
    let (_, out) = h.cluster.lookup("moved.out").unwrap();
    assert_eq!(out.policy, das.layout);
    h.teardown();
}

#[test]
fn unsatisfied_plans_are_predicted_to_the_byte() {
    // Two ways a plan leaves fetches: a file too short for r ≥ h (three
    // strips over four daemons balance only at r = 1), and a reach past
    // the widest halo (2 KiB strips: 1537 elements span four strips).
    let kernel = kernel_by_name("flow-routing").unwrap();
    let offsets = kernel.dependence_offsets(WIDE);
    let mut h = boot(SERVERS);
    for (rows, strip) in [(2u64, STRIP), (48, STRIP / 2)] {
        let input = workload::fbm_dem(WIDE, rows, 12);
        let data = input.to_bytes();
        let file_len = data.len() as u64;
        let plan = plan_distribution(&offsets, 4, strip as u64, SERVERS as u32, file_len, PlanOptions::default());
        assert!(!plan.satisfied, "{rows} rows in {strip} B strips: {:?}", plan.policy);
        let name = format!("short{rows}.raw");
        let file = h.cluster.create_file(&name, file_len, strip as u32, LayoutPolicy::RoundRobin).unwrap();
        h.cluster.put_file(file, &data).unwrap();
        let das =
            run_net_scheme(&mut h.cluster, NetScheme::Das, file, &format!("{name}.das"), "flow-routing", WIDE)
                .unwrap();
        assert!(das.offloaded);
        assert_eq!(das.layout, plan.policy);
        let predicted = StripingParams {
            element_size: 4,
            strip_size: strip as u64,
            layout: Layout::new(plan.policy, SERVERS as u32),
        }
        .predict_nas_fetches(&offsets, file_len);
        assert!(predicted.fetches > 0);
        assert_eq!(das.exec.iter().map(|e| e.dep_fetches).sum::<u64>(), predicted.fetches);
        assert_eq!(das.exec.iter().map(|e| e.dep_fetch_bytes).sum::<u64>(), predicted.bytes);
        assert_eq!(das.output_fingerprint, kernel.apply(&input).fingerprint());
    }

    // A forced offload on an unreplicated grouped layout: of each group
    // of four 256-wide strips the inner two read only strips held here
    // and the outer two fetch, so a daemon's fetching and non-fetching
    // tasks interleave.
    let input = workload::fbm_dem(WIDTH, HEIGHT, 12);
    let data = input.to_bytes();
    let file_len = data.len() as u64;
    let offsets = kernel.dependence_offsets(WIDTH);
    let policy = LayoutPolicy::Grouped { group: 4 };
    let layout = Layout::new(policy, SERVERS as u32);
    let grouped = StripingParams { element_size: 4, strip_size: STRIP as u64, layout };
    let strips = StripeSpec::new(STRIP).strip_count(file_len);
    let fetching: Vec<bool> = (grouped.layout.primary_strips(ServerId(0), strips).iter())
        .map(|t| !grouped.remote_dependent_strips(ServerId(0), t.0, &offsets, file_len / 4).is_empty())
        .collect();
    assert!(fetching.contains(&true) && fetching.contains(&false), "daemon 0's tasks fetch: {fetching:?}");
    let file = h.cluster.create_file("grouped4.raw", file_len, STRIP as u32, policy).unwrap();
    h.cluster.put_file(file, &data).unwrap();
    let nas = run_net_scheme(&mut h.cluster, NetScheme::Nas, file, "grouped4.nas", "flow-routing", WIDTH).unwrap();
    assert!(nas.offloaded);
    assert_eq!(nas.layout, policy);
    assert_eq!(nas.output_fingerprint, kernel.apply(&input).fingerprint());
    let predicted = grouped.predict_nas_fetches(&offsets, file_len);
    assert_eq!(nas.exec.iter().map(|e| e.dep_fetches).sum::<u64>(), predicted.fetches);
    assert_eq!(nas.exec.iter().map(|e| e.dep_fetch_bytes).sum::<u64>(), predicted.bytes);
    h.teardown();
}

#[test]
fn six_server_cluster_redistributes_and_matches() {
    // A different cluster size exercises layout arithmetic end to end.
    let input = workload::fbm_dem(128, 120, 7);
    let data = input.to_bytes();
    let kernel = kernel_by_name("flow-routing").unwrap();
    let mut h = boot(6);
    let file = h
        .cluster
        .create_file("dem6.raw", data.len() as u64, 2048, LayoutPolicy::RoundRobin)
        .unwrap();
    h.cluster.put_file(file, &data).unwrap();
    let das =
        run_net_scheme(&mut h.cluster, NetScheme::Das, file, "out6.das", "flow-routing", 128)
            .unwrap();
    assert!(das.offloaded);
    assert_eq!(das.output_fingerprint, kernel.apply(&input).fingerprint());
    h.teardown();
}

#[test]
fn typed_errors_cross_the_wire() {
    use das_net::{ErrorCode, Message, NetError};
    let mut h = boot(SERVERS);
    // Unknown file.
    match h.cluster.call(0, &Message::GetStrip { file: 9, strip: 0 }) {
        Err(NetError::Remote { code: ErrorCode::NoSuchFile, .. }) => {}
        other => panic!("expected NoSuchFile, got {other:?}"),
    }
    let file = h.cluster.create_file("f", 100, 64, LayoutPolicy::RoundRobin).unwrap();
    // Re-creating with identical parameters is the idempotent-retry
    // case (a client whose CreateFileOk was lost): same id, no error.
    assert_eq!(h.cluster.create_file("f", 100, 64, LayoutPolicy::RoundRobin).unwrap(), file);
    // A conflicting create under the same name is a typed error.
    match h.cluster.create_file("f", 200, 32, LayoutPolicy::RoundRobin) {
        Err(NetError::Remote { code: ErrorCode::DuplicateName, .. }) => {}
        other => panic!("expected DuplicateName, got {other:?}"),
    }
    // Strip index past the end.
    match h.cluster.call(0, &Message::GetStrip { file, strip: 99 }) {
        Err(NetError::Remote { code: ErrorCode::OutOfBounds, .. }) => {}
        other => panic!("expected OutOfBounds, got {other:?}"),
    }
    // Wrong-size strip payload.
    match h.cluster.call(0, &Message::PutStrip { file, strip: 0, payload: vec![0; 3] }) {
        Err(NetError::Remote { code: ErrorCode::StripLengthMismatch, .. }) => {}
        other => panic!("expected StripLengthMismatch, got {other:?}"),
    }
    // A strip this server does not hold (strip 1 of round-robin lives
    // on server 1, not 0).
    match h.cluster.call(0, &Message::PutStrip { file, strip: 1, payload: vec![0; 36] }) {
        Err(NetError::Remote { code: ErrorCode::StripNotLocal, .. }) => {}
        other => panic!("expected StripNotLocal, got {other:?}"),
    }
    // A GetStrip is served from this server's own store or refused: it
    // makes no peer call, even for a strip a peer holds — the fetch
    // protocol is depth one. No server↔server byte moves across it.
    h.cluster.put_file(file, &[7; 100]).unwrap();
    let peer_bytes = |h: &mut Harness| -> (u64, u64) {
        let stats = h.cluster.stats().unwrap();
        (stats.iter().map(|s| s.server_in).sum(), stats.iter().map(|s| s.server_out).sum())
    };
    let before = peer_bytes(&mut h);
    match h.cluster.call(0, &Message::GetStrip { file, strip: 1 }) {
        Err(NetError::Remote { code: ErrorCode::StripNotLocal, .. }) => {}
        other => panic!("expected StripNotLocal, got {other:?}"),
    }
    assert_eq!(peer_bytes(&mut h), before, "a GetStrip moved bytes between servers");
    // Unknown kernel is refused before any execution.
    let out = h.cluster.create_file("g", 100, 64, LayoutPolicy::RoundRobin).unwrap();
    match h.cluster.execute(file, out, "bitcoin-miner", 5, false, true) {
        Err(NetError::Remote { code: ErrorCode::UnknownOperator, .. }) => {}
        other => panic!("expected UnknownOperator, got {other:?}"),
    }
    h.teardown();
}

#[test]
fn rejected_offload_falls_back_to_normal_io() {
    // A tiny strip size makes the wide flow-routing stencil thrash
    // across servers: the decision workflow must refuse the offload
    // and the DAS driver must serve it as normal I/O — the paper's
    // fallback path, over the wire.
    let input = workload::fbm_dem(64, 256, 9);
    let data = input.to_bytes();
    let kernel = kernel_by_name("flow-routing").unwrap();
    let mut h = boot(SERVERS);
    let file = h
        .cluster
        .create_file("thrash.raw", data.len() as u64, 256, LayoutPolicy::RoundRobin)
        .unwrap();
    h.cluster.put_file(file, &data).unwrap();

    // Force=true must still execute (that is NAS's entire point)…
    let nas = run_net_scheme(&mut h.cluster, NetScheme::Nas, file, "t.nas", "flow-routing", 64)
        .unwrap();
    assert!(nas.offloaded);
    // A one-shot DAS run on the thrashing layout is refused and served
    // as normal I/O; the daemons that refuse it price no fetches.
    let predicted = |h: &mut Harness| fleet_counter(&mut h.cluster, "dasd_predicted_dep_fetch_bytes_total");
    let before = predicted(&mut h);
    let one_shot =
        run_net_scheme_opts(&mut h.cluster, NetScheme::Das, file, "t.once", "flow-routing", 64, false).unwrap();
    assert!(!one_shot.offloaded);
    assert_eq!(one_shot.output_fingerprint, kernel.apply(&input).fingerprint());
    assert_eq!(predicted(&mut h), before, "a refused offload was priced");
    // …while DAS decides; whatever it picks, the output is right.
    let das = run_net_scheme(&mut h.cluster, NetScheme::Das, file, "t.das", "flow-routing", 64)
        .unwrap();
    assert_eq!(das.output_fingerprint, kernel.apply(&input).fingerprint());
    assert_eq!(nas.output_fingerprint, das.output_fingerprint);
    h.teardown();
}

/// Dial `addr` raw and greet it with a `Hello` carrying `caps`; the
/// daemon's answer.
fn hello_raw(addr: &str, caps: u32) -> (std::net::TcpStream, das_net::Message) {
    use std::io::Write as _;

    use das_net::{encode_frame_opts, Message, Role};

    let mut sock = std::net::TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(std::time::Duration::from_secs(5))).expect("read timeout");
    let hello = Message::Hello { role: Role::Client, peer_id: 0, caps };
    sock.write_all(&encode_frame_opts(&hello, None, None)).expect("hello");
    let answer = das_net::read_frame_ex(&mut sock).expect("read").expect("answer").msg;
    (sock, answer)
}

/// One protocol, not negotiated: a `Hello` whose `caps` lacks any bit
/// of `LOCAL_CAPS` is refused with a typed `BadRequest`, and the
/// connection closes; the full word is greeted.
#[test]
fn a_hello_missing_a_capability_bit_is_refused_typed() {
    use das_net::{ErrorCode, Message, LOCAL_CAPS};

    let mut h = boot(1);
    for bit in (0..32).map(|b| 1u32 << b).filter(|bit| LOCAL_CAPS & bit != 0) {
        let (mut sock, answer) = hello_raw(&h.addrs[0], LOCAL_CAPS & !bit);
        match answer {
            Message::Error { code: ErrorCode::BadRequest, message } => {
                assert!(message.contains(&format!("lacks capabilities {bit:#x}")), "{message}")
            }
            other => panic!("caps without {bit:#x}: expected the typed refusal, got {other:?}"),
        }
        assert!(das_net::read_frame_ex(&mut sock).expect("close").is_none(), "the refused connection stayed open");
    }
    let (_, answer) = hello_raw(&h.addrs[0], LOCAL_CAPS);
    assert!(matches!(answer, Message::HelloOk { caps: LOCAL_CAPS, .. }), "{answer:?}");
    h.cluster.ping_all().expect("the greeted client still works");
    h.teardown();
}

/// A `PutStrip` whose checksum flag was cleared, its trailer dropped and
/// one payload bit flipped on the way is refused at its header: the
/// daemon drops the connection without a reply and stores nothing, and
/// the strip still reads back as written.
#[test]
fn a_crc_less_put_strip_is_refused_and_stores_nothing() {
    use std::io::Write as _;

    use das_net::{encode_frame_opts, Message, FLAG_CRC, LOCAL_CAPS};

    let mut h = boot(1);
    let original: Vec<u8> = (0..64u8).collect();
    let file = h.cluster.create_file("crc-less", 64, 64, LayoutPolicy::RoundRobin).expect("create");
    h.cluster.put_file(file, &original).expect("put");

    let (mut sock, answer) = hello_raw(&h.addrs[0], LOCAL_CAPS);
    assert!(matches!(answer, Message::HelloOk { .. }), "{answer:?}");
    let mut frame = encode_frame_opts(&Message::PutStrip { file, strip: 0, payload: original.clone() }, None, None);
    let flags = u16::from_le_bytes([frame[6], frame[7]]) & !FLAG_CRC;
    frame[6..8].copy_from_slice(&flags.to_le_bytes());
    frame.truncate(frame.len() - 4);
    *frame.last_mut().expect("payload byte") ^= 0x10;
    sock.write_all(&frame).expect("crc-less put");
    match das_net::read_frame_ex(&mut sock) {
        Ok(None) | Err(_) => {}
        Ok(Some(reply)) => panic!("the daemon answered a CRC-less frame: {:?}", reply.msg),
    }

    match h.cluster.call(0, &Message::GetStrip { file, strip: 0 }) {
        Ok(Message::StripData { payload }) => assert_eq!(payload, original, "the corrupt strip was stored"),
        Err(das_net::NetError::Remote { .. }) => {}
        other => panic!("expected the original strip or a typed error, got {other:?}"),
    }
    h.teardown();
}

/// The tentpole end-to-end: one traced `Execute` across the fleet,
/// then `TraceDump` from every daemon reconstructs the cross-daemon
/// waterfall — compute-side roots with local-read, per-task
/// kernel/assemble and peer-fetch sub-spans, and *child* request roots
/// on the daemons that served the propagated dependence fetches, all
/// under the one wire-propagated trace id. The peer wave writes every
/// fetch before it reads a reply and runs each task's kernel as that
/// task's strips land, and the spans must show it: some dependence
/// fetch starts while an earlier task's kernel is running.
/// Replica forwards are outside the task loop, and the spans must show
/// that too: one forward-pass span per Execute, after the kernels.
#[test]
fn execute_trace_reconstructs_cross_daemon_waterfall() {
    use das_obs::{OpClass, Stage};

    let input = workload::fbm_dem(WIDTH, HEIGHT, 42);
    let data = input.to_bytes();
    let mut h = boot(SERVERS);
    let file = h
        .cluster
        .create_file("wf.dem", data.len() as u64, STRIP as u32, LayoutPolicy::RoundRobin)
        .expect("create input");
    h.cluster.put_file(file, &data).expect("ingest");
    let out = h
        .cluster
        .create_file("wf.out", data.len() as u64, STRIP as u32, LayoutPolicy::RoundRobin)
        .expect("create output");

    let trace = h.cluster.begin_trace();
    let summaries = h
        .cluster
        .execute(file, out, "gaussian-filter", WIDTH, true, true)
        .expect("execute")
        .expect("forced offload must run");
    let fetches: u64 = summaries.iter().map(|s| s.dep_fetches).sum();
    assert!(fetches > 0, "round-robin gaussian must fetch neighbor rows from peers");

    // Move the client off the execute's trace id first — otherwise
    // the TraceDump request itself is traced under the id being
    // dumped, and its own not-yet-finished root pollutes the view.
    let _ = h.cluster.begin_trace();
    let dumps = h.cluster.trace_dump_all(trace).expect("trace dump");
    assert_eq!(dumps.len(), SERVERS, "every daemon answers TraceDump");

    let mut kernel_spans = 0usize;
    let mut assemble_spans = 0usize;
    let mut peer_fetch_spans = 0usize;
    let mut get_roots = 0usize;
    let mut fetches_handed_over_early = 0usize;
    let strips = StripeSpec::new(STRIP).strip_count(data.len() as u64);
    let offsets = kernel_by_name("gaussian-filter").unwrap().dependence_offsets(WIDTH);
    let rr = StripingParams {
        element_size: 4,
        strip_size: STRIP as u64,
        layout: Layout::new(LayoutPolicy::RoundRobin, SERVERS as u32),
    };
    for (id, spans) in &dumps {
        // The wave writes a daemon's fetches in task order, so its k-th
        // task's first fetch is the span at index (fetches of tasks
        // before k) by start time. A serial loop starts it after task
        // k−1's kernel and assemble have ended; the wave starts it
        // before task k−1's strips have landed.
        let started = |stage: Stage| {
            let mut of: Vec<_> = spans.iter().filter(|s| s.stage == stage).collect();
            of.sort_by_key(|s| s.start_us);
            of
        };
        let (fetched, assembled) = (started(Stage::PeerFetch), started(Stage::Assemble));
        let mut first_fetch = 0usize;
        for (k, t) in rr.layout.primary_strips(ServerId(*id), strips).iter().enumerate() {
            let deps =
                rr.remote_dependent_strips(ServerId(*id), t.0, &offsets, data.len() as u64 / 4).len();
            if k > 0 && deps > 0 {
                let compute_end = assembled[k - 1].start_us + assembled[k - 1].dur_us;
                fetches_handed_over_early += usize::from(fetched[first_fetch].start_us < compute_end);
            }
            first_fetch += deps;
        }
        assert_eq!(first_fetch, fetched.len(), "daemon {id}: fetch spans against the dependence plan");
        assert!(!spans.is_empty(), "daemon {id} retained no spans for the trace");
        let exec_roots: Vec<u32> = spans
            .iter()
            .filter(|s| s.parent == 0 && s.stage == Stage::Dispatch && s.op == OpClass::Exec)
            .map(|s| s.span)
            .collect();
        assert!(!exec_roots.is_empty(), "daemon {id} has no exec dispatch root");
        // Every sub-span links to a root retained in the same dump.
        let roots: Vec<u32> = spans.iter().filter(|s| s.parent == 0).map(|s| s.span).collect();
        for s in spans.iter().filter(|s| s.parent != 0) {
            assert!(
                roots.contains(&s.parent),
                "daemon {id}: span {} orphaned from parent {}",
                s.span,
                s.parent
            );
        }
        // Compute-side stage sub-spans hang off the exec root.
        for s in spans {
            match s.stage {
                Stage::Kernel => {
                    kernel_spans += 1;
                    assert!(exec_roots.contains(&s.parent), "kernel span outside exec root");
                }
                Stage::Assemble => assemble_spans += 1,
                Stage::PeerFetch => {
                    peer_fetch_spans += 1;
                    assert!(exec_roots.contains(&s.parent), "peer_fetch span outside exec root");
                }
                Stage::Dispatch if s.op == OpClass::Get && s.parent == 0 => get_roots += 1,
                _ => {}
            }
            assert_eq!(s.trace, trace);
            assert_eq!(s.daemon, *id);
        }
    }
    let strips = strips as usize;
    assert_eq!(kernel_spans, strips, "one kernel span per task");
    assert_eq!(assemble_spans, strips, "one assemble span per task");
    assert_eq!(peer_fetch_spans as u64, fetches, "one peer_fetch span per dependence fetch");
    assert!(
        fetches_handed_over_early > 0,
        "every task's first fetch waited for the task before it to finish computing: the fetch stage is not running ahead"
    );
    // A second Execute, on a layout that replicates: every task still
    // has one kernel and one (encode + local store) assemble span, and
    // the replica forwards are one further assemble span, noted as the
    // forward pass, that starts after the last kernel has started.
    let grouped = LayoutPolicy::GroupedReplicated { group: 2 };
    let rep = h.cluster.create_file("wf.rep", data.len() as u64, STRIP as u32, grouped).expect("create");
    h.cluster.put_file(rep, &data).expect("ingest replicated");
    let rep_out =
        h.cluster.create_file("wf.rep.out", data.len() as u64, STRIP as u32, grouped).expect("create");
    let forward_trace = h.cluster.begin_trace();
    h.cluster
        .execute(rep, rep_out, "gaussian-filter", WIDTH, true, false)
        .expect("execute")
        .expect("DAS offload accepted");
    let _ = h.cluster.begin_trace();
    let layout = Layout::new(grouped, SERVERS as u32);
    for (id, spans) in h.cluster.trace_dump_all(forward_trace).expect("trace dump") {
        let tasks = layout.primary_strips(ServerId(id), strips as u64).len();
        let of = |stage: Stage, note: u8| spans.iter().filter(move |s| s.stage == stage && s.note == note);
        assert_eq!(of(Stage::Kernel, das_obs::NOTE_NONE).count(), tasks, "daemon {id}: kernel spans");
        assert_eq!(of(Stage::Assemble, das_obs::NOTE_NONE).count(), tasks, "daemon {id}: task assemble spans");
        let forward: Vec<_> = of(Stage::Assemble, das_obs::NOTE_FORWARD).collect();
        assert_eq!(forward.len(), 1, "daemon {id}: one forward pass per Execute");
        let late = of(Stage::Kernel, das_obs::NOTE_NONE).filter(|k| k.start_us > forward[0].start_us).count();
        assert_eq!(late, 0, "daemon {id}: a kernel started after the forward pass began");
    }
    // The attribution histograms keep one kernel and one assemble
    // observation per Execute, whatever the task count and with the
    // forward pass folded into the assemble total.
    for (id, text) in h.cluster.metrics_dump_all().expect("metrics dump") {
        let samples = das_obs::parse(&text);
        for stage in ["kernel", "assemble"] {
            let count = das_obs::sample_value(
                &samples,
                "dasd_stage_duration_us_count",
                &[("stage", stage), ("op", "exec")],
            );
            assert_eq!(count, Some(2.0), "daemon {id}: {stage} observations over two Executes");
        }
    }
    assert!(
        get_roots > 0,
        "daemons serving propagated fetches must open child request roots on the same trace"
    );

    // The slow log carries the same roots with their stage breakdown.
    let slow = h.cluster.slow_log_all(4).expect("slow log");
    assert_eq!(slow.len(), SERVERS);
    for (id, spans) in &slow {
        let root = spans
            .iter()
            .find(|s| s.parent == 0 && s.op == OpClass::Exec && s.trace == trace)
            .unwrap_or_else(|| panic!("daemon {id}: exec root missing from slow log"));
        assert!(
            spans.iter().any(|s| s.parent == root.span && s.stage == Stage::Kernel),
            "daemon {id}: slow log root lacks its kernel breakdown"
        );
    }
    h.teardown();
}

/// A traced `read_file` sends its strip gets pipelined, each under its
/// own sub-id of the run's trace id, and every daemon files their roots
/// under the run: the dump of the run's id shows each strip it read, on
/// the daemon that served it, and nothing under any other id.
#[test]
fn a_traced_read_files_strip_gets_join_their_run_on_every_daemon() {
    use das_obs::{OpClass, Stage};

    let data = workload::fbm_dem(WIDTH, HEIGHT, 7).to_bytes();
    let mut h = boot(SERVERS);
    let file = h
        .cluster
        .create_file("join.raw", data.len() as u64, STRIP as u32, LayoutPolicy::RoundRobin)
        .expect("create");
    h.cluster.put_file(file, &data).expect("ingest");
    let parent = h.cluster.begin_trace();
    assert_eq!(h.cluster.read_file(file).expect("read"), data);
    let _ = h.cluster.begin_trace();

    let strips = StripeSpec::new(STRIP).strip_count(data.len() as u64);
    let layout = Layout::new(LayoutPolicy::RoundRobin, SERVERS as u32);
    let dumps = h.cluster.trace_dump_all(parent).expect("trace dump");
    assert_eq!(dumps.len(), SERVERS, "every daemon answers TraceDump");
    for (id, spans) in dumps {
        let gets = spans
            .iter()
            .filter(|s| s.parent == 0 && s.stage == Stage::Dispatch && s.op == OpClass::Get)
            .count();
        assert_eq!(gets, layout.primary_strips(ServerId(id), strips).len(), "daemon {id}: strip get roots");
        assert!(spans.iter().all(|s| s.trace == parent), "daemon {id}: a span filed outside the run");
    }
    h.teardown();
}

/// Two clients fanning `Execute` out to every daemon at once, on
/// daemons with only two workers each. Without the engine's cap on
/// running heavy requests both workers of every daemon end up inside
/// an `Execute`, each waiting for a peer `GetStrip` that no daemon has
/// a free worker to serve, until the peer read timeout (15 s) breaks
/// the tie; with it the second `Execute` stays queued and the other
/// worker keeps serving fetches.
#[test]
fn concurrent_fanouts_on_two_worker_daemons_do_not_starve_peer_fetches() {
    const ROUNDS: usize = 20;
    let input = workload::fbm_dem(WIDTH, HEIGHT, 42);
    let data = input.to_bytes();
    let mut h = boot_with(SERVERS, |mut cfg| {
        cfg.pool = 2;
        cfg
    });
    let file = h
        .cluster
        .create_file("pool2.dem", data.len() as u64, STRIP as u32, LayoutPolicy::RoundRobin)
        .expect("create input");
    h.cluster.put_file(file, &data).expect("ingest");
    let outs: Vec<u32> = ["pool2.a", "pool2.b"]
        .iter()
        .map(|name| {
            h.cluster
                .create_file(name, data.len() as u64, STRIP as u32, LayoutPolicy::RoundRobin)
                .expect("create output")
        })
        .collect();

    let started = std::time::Instant::now();
    let start_line = std::sync::Barrier::new(outs.len());
    let retries: u64 = std::thread::scope(|scope| {
        let lanes: Vec<_> = outs
            .iter()
            .map(|&out| {
                let (addrs, start_line) = (&h.addrs, &start_line);
                scope.spawn(move || {
                    let mut cluster = DasCluster::connect(addrs).expect("connect lane");
                    start_line.wait();
                    for round in 0..ROUNDS {
                        let summaries = cluster
                            .execute(file, out, "gaussian-filter", WIDTH, true, true)
                            .unwrap_or_else(|e| panic!("round {round}: {e}"))
                            .expect("forced offload must run");
                        assert_eq!(summaries.len(), SERVERS);
                    }
                    cluster.metrics().counter("das_client_retries_total", &[]).get()
                })
            })
            .collect();
        lanes.into_iter().map(|lane| lane.join().expect("lane panicked")).sum()
    });
    assert_eq!(retries, 0, "a fan-out had to be retried");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(7),
        "{ROUNDS} concurrent fan-outs took {:?}: Executes waited for a peer timeout",
        started.elapsed()
    );
    // Both lanes computed the same thing.
    let a = h.cluster.read_file(outs[0]).expect("read a");
    assert_eq!(a, h.cluster.read_file(outs[1]).expect("read b"));
    h.teardown();
}
