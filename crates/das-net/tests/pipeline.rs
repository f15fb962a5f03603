//! Pipelining integration: incremental frame decoding at hostile
//! byte boundaries, and deterministic shutdown with pipelined waves in
//! flight.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use das_net::{
    encode_frame_opts, spawn, DasCluster, DasdConfig, ErrorCode, FrameBuffer, Message,
    RetryPolicy,
};
use das_pfs::LayoutPolicy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_small_message() -> BoxedStrategy<Message> {
    prop_oneof![
        Just(Message::Ping),
        Just(Message::Pong),
        Just(Message::PutStripOk),
        (any::<u32>(), any::<u64>()).prop_map(|(file, strip)| Message::GetStrip { file, strip }),
        (any::<u32>(), any::<u64>(), any::<u32>())
            .prop_map(|(file, first, count)| Message::GetStrips { file, first, count }),
        proptest::collection::vec(any::<u8>(), 0..512)
            .prop_map(|payload| Message::StripData { payload }),
        (any::<u32>(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..256))
            .prop_map(|(file, strip, payload)| Message::PutStrip { file, strip, payload }),
        "[ -~]{0,48}".prop_map(|message| Message::Error {
            code: ErrorCode::Retryable,
            message,
        }),
    ]
    .boxed()
}

fn arb_trace() -> BoxedStrategy<Option<u64>> {
    prop_oneof![Just(None), any::<u64>().prop_map(Some)].boxed()
}

fn arb_traced_stream() -> BoxedStrategy<Vec<(Message, Option<u64>)>> {
    proptest::collection::vec((arb_small_message(), arb_trace()), 1..8).boxed()
}

// A pipelined byte stream of several traced frames, delivered in
// chunks cut at arbitrary positions (mid-header, mid-trace,
// mid-payload, mid-CRC — wherever the seed lands), must decode to
// exactly the original messages and trace ids in order.
proptest! {
    #[test]
    fn split_frames_reassemble_bit_identically(
        stream in arb_traced_stream(),
        seed in any::<u64>(),
    ) {
        let mut wire = Vec::new();
        for (msg, trace) in &stream {
            wire.extend_from_slice(&encode_frame_opts(msg, *trace, None));
        }

        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pos = 0usize;
        while pos < wire.len() {
            let n = 1 + (rng.next_u64() as usize) % 16;
            let end = (pos + n).min(wire.len());
            fb.extend(&wire[pos..end]);
            pos = end;
            while let Some(f) = fb.next_frame_ex().expect("clean stream never errors") {
                got.push((f.msg, f.trace));
            }
        }
        prop_assert_eq!(fb.pending(), 0, "no leftover bytes after the last frame");
        prop_assert_eq!(got.len(), stream.len());
        for ((m, t), (gm, gt)) in stream.iter().zip(&got) {
            prop_assert_eq!(m, gm);
            prop_assert_eq!(t, gt);
        }
    }
}

fn boot(servers: usize) -> (Vec<das_net::DasdHandle>, Vec<String>) {
    let listeners: Vec<TcpListener> =
        (0..servers).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    let addrs: Vec<String> =
        listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
    let handles = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| spawn(DasdConfig::new(i as u32, addrs.clone()), l).expect("spawn"))
        .collect();
    (handles, addrs)
}

/// `DasdHandle::shutdown` with requests still in flight: the daemon
/// must drain and join deterministically — no throwaway connection,
/// no hang — while concurrent callers, each reading the file in
/// pipelined waves on its own connection, either complete or fail
/// with a transport error, never a wrong reply.
#[test]
fn handle_shutdown_is_deterministic_under_inflight_load() {
    const STRIPS: u64 = 16;
    const STRIP_SIZE: u32 = 256;
    let (handles, addrs) = boot(1);
    let mut cluster = DasCluster::connect(&addrs).expect("connect");
    let len = STRIPS * STRIP_SIZE as u64;
    let file = cluster
        .create_file("drain.dat", len, STRIP_SIZE, LayoutPolicy::RoundRobin)
        .expect("create");
    let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    cluster.put_file(file, &data).expect("put");
    drop(cluster);

    let data = Arc::new(data);
    let stop = Arc::new(AtomicBool::new(false));
    let mut callers = Vec::new();
    for _ in 0..4 {
        let mut caller = DasCluster::connect_with(&addrs, RetryPolicy::fast()).expect("connect");
        let (data, stop) = (Arc::clone(&data), Arc::clone(&stop));
        callers.push(std::thread::spawn(move || {
            caller.begin_trace();
            while !stop.load(Ordering::SeqCst) {
                match caller.read_file(file) {
                    Ok(read) => assert!(read == *data, "a read came back with another strip's bytes"),
                    Err(_) => return, // connection died during drain — fine
                }
            }
        }));
    }
    // Let requests pile in, then pull the flag mid-flight.
    std::thread::sleep(Duration::from_millis(100));
    for h in &handles {
        h.shutdown();
    }
    // Every daemon thread must exit on its own; join() hanging fails
    // the suite via its timeout.
    for h in handles {
        h.join();
    }
    stop.store(true, Ordering::SeqCst);
    for c in callers {
        c.join().expect("caller panicked");
    }
}
