//! The paper's pipeline on the wire: flow-accumulation "always
//! follows" flow-routing (PAPER.md §I) and reads its raster. Over four
//! loopback daemons, a DAS flow-routing run lays its output out on the
//! planned grouped+replicated layout and forwards the output's boundary
//! strips to their replicas; a DAS flow-accumulation run on that output
//! then needs no redistribution and no dependence fetch, and its only
//! server↔server bytes are its own output's forwards — one `PutStrip`
//! per (replica holder, run of strips). With one daemon stopped between
//! the two runs, the second descends the documented degradation ladder
//! and ends in a typed error, because the stopped daemon's interior
//! strips have no other copy.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use das::core::{plan_distribution, PlanOptions};
use das::kernels::{kernel_by_name, workload};
use das::net::{
    encode_frame_opts, run_net_scheme, spawn, DasCluster, DasdConfig, DasdHandle, ErrorCode, Message,
    NetError, NetScheme, RetryPolicy,
};
use das::pfs::{Layout, LayoutPolicy, ServerId, StripId, StripeSpec};

const SERVERS: usize = 4;
/// A 1536 × 48 f32 raster in 4 KiB strips: 72 strips, and a row is a
/// strip and a half, so the 8-neighbour reach crosses two strips and
/// the plan is one 18-strip group per daemon with a two-strip halo.
const WIDTH: u64 = 1536;
const HEIGHT: u64 = 48;
const STRIP: u32 = 4096;

/// Four daemons and a client, all on the fast retry policy.
fn boot() -> (Vec<DasdHandle>, DasCluster) {
    let listeners: Vec<TcpListener> =
        (0..SERVERS).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    let addrs: Vec<String> = listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
    let handles = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            let cfg = DasdConfig::new(i as u32, addrs.clone()).with_retry(RetryPolicy::fast());
            spawn(DasdConfig { pool: 4, ..cfg }, l).expect("spawn dasd")
        })
        .collect();
    (handles, DasCluster::connect_with(&addrs, RetryPolicy::fast()).expect("connect"))
}

/// `dasd_requests_total{op, class}` summed over the reachable daemons.
fn requests(cluster: &mut DasCluster, op: &str, class: &str) -> u64 {
    let dumps = cluster.metrics_dump_all().expect("metrics dump");
    dumps
        .iter()
        .map(|(_, text)| {
            let samples = das::obs::parse(text);
            das::obs::sample_value(&samples, "dasd_requests_total", &[("op", op), ("class", class)]).unwrap_or(0.0)
                as u64
        })
        .sum()
}

/// Strip-read and forward frames so far: client-class `GetStrip` +
/// `GetStrips`, and server-class `PutStrip`.
fn frames(cluster: &mut DasCluster) -> (u64, u64) {
    let gets = requests(cluster, "get_strip", "client") + requests(cluster, "get_strips", "client");
    (gets, requests(cluster, "put_strip", "server"))
}

#[test]
fn a_das_chain_runs_its_second_op_without_redistribution_or_fetches() {
    let started = Instant::now();
    let input = workload::fbm_dem(WIDTH, HEIGHT, 17);
    let data = input.to_bytes();
    let len = data.len() as u64;
    let routing = kernel_by_name("flow-routing").expect("kernel");
    let accumulation = kernel_by_name("flow-accumulation").expect("kernel");
    let routed = routing.apply(&input);
    let chain = accumulation.apply(&routed);
    let plan =
        plan_distribution(&routing.dependence_offsets(WIDTH), 4, u64::from(STRIP), SERVERS as u32, len, PlanOptions::default());
    assert_eq!(plan.policy, LayoutPolicy::replicated(18, 2));

    let (mut handles, mut cluster) = boot();
    let file = cluster.create_file("dem.raw", len, STRIP, LayoutPolicy::RoundRobin).expect("create");
    cluster.put_file(file, &data).expect("ingest");

    // First op: redistribute to the plan, offload, forward the output's
    // boundary strips. Its read-back is a few runs, not 72 strips.
    let before = frames(&mut cluster);
    let first = run_net_scheme(&mut cluster, NetScheme::Das, file, "dem.routed", "flow-routing", WIDTH).expect("first op");
    let after = frames(&mut cluster);
    assert!(first.offloaded && first.degradations.is_empty(), "{:?}", first.degradations);
    assert_eq!(first.layout, plan.policy);
    assert!(first.redistribution_bytes > 0, "the first op adopts the plan");
    assert_eq!(first.output_fingerprint, routed.fingerprint());
    // Per daemon: its group's two-strip head, tail and interior runs.
    assert_eq!(after.0 - before.0, 3 * SERVERS as u64, "read-back get frames");
    // Per daemon: one run of two strips to each neighbour.
    assert_eq!(after.1 - before.1, 2 * SERVERS as u64, "forward frames");

    // Second op, on the first op's output: the layout is already the
    // plan, every dependence is local, and the output bits are the
    // in-process chain's.
    let (out, dist) = cluster.lookup("dem.routed").expect("lookup");
    assert_eq!(dist.policy, plan.policy);
    let second = run_net_scheme(&mut cluster, NetScheme::Das, out, "dem.acc", "flow-accumulation", WIDTH).expect("second op");
    assert!(second.offloaded && second.degradations.is_empty(), "{:?}", second.degradations);
    assert_eq!(second.redistribution_bytes, 0);
    assert_eq!(second.exec.iter().map(|e| e.dep_fetches).sum::<u64>(), 0);
    assert_eq!(second.output_fingerprint, chain.fingerprint());
    // Its server↔server bytes are its forwards to the byte: each run of
    // boundary strips one traced `PutStrip` and its acknowledgement,
    // the strips being what Eqs. 14–17 place on the replicas.
    let layout = Layout::new(plan.policy, SERVERS as u32);
    let spec = StripeSpec::new(STRIP as usize);
    let replicated: u64 = (0..spec.strip_count(len))
        .map(|s| layout.replicas(StripId(s)).len() as u64 * spec.strip_len(StripId(s), len) as u64)
        .sum();
    let run = |strips: usize| {
        let put = Message::PutStrip { file: out, strip: 0, payload: vec![0; strips * STRIP as usize] };
        encode_frame_opts(&put, Some(1), None).len() + encode_frame_opts(&Message::PutStripOk, Some(1), None).len()
    };
    let overhead = (run(2) - 2 * STRIP as usize) as u64;
    assert_eq!(second.server_bytes, 2 * SERVERS as u64 * overhead + replicated, "forward bytes");

    // Stop the replica holder of daemon 0's first two output strips;
    // the client finds it gone and marks it down. The second op cannot
    // offload, nor serve as normal I/O, since the stopped daemon's
    // interior strips have no other copy: it walks the ladder DAS → NAS
    // → normal I/O and ends typed, in bounded time.
    assert_eq!(layout.replicas(StripId(0)), vec![ServerId(3)]);
    let stopped = Instant::now();
    let dead = handles.remove(3);
    dead.shutdown();
    dead.join();
    assert!(cluster.ping_all().is_err_and(|e| e.is_transport()));
    assert_eq!(cluster.down_servers(), vec![3]);
    let failed = run_net_scheme(&mut cluster, NetScheme::Das, out, "dem.acc2", "flow-accumulation", WIDTH);
    match failed {
        Err(NetError::Remote { code: ErrorCode::NoSuchServer, .. }) => {}
        other => panic!("expected the typed unreachable-data error, got {:?}", other.map(|r| r.degradations)),
    }
    let tags: Vec<&str> = cluster.take_events().iter().map(|e| e.tag()).collect();
    for rung in ["server-unavailable", "degraded-to-nas", "degraded-to-ts"] {
        assert!(tags.contains(&rung), "no {rung} in {tags:?}");
    }
    assert!(stopped.elapsed() < Duration::from_secs(2), "the degrade took {:?}", stopped.elapsed());

    drop(cluster);
    for h in &handles {
        h.shutdown();
    }
    handles.into_iter().for_each(DasdHandle::join);
    assert!(started.elapsed() < Duration::from_secs(10), "the chain took {:?}", started.elapsed());
}
