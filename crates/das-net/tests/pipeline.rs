//! Pipelining integration: incremental frame decoding at hostile
//! byte boundaries, out-of-order reply matching by request id, the
//! pipelined client against a real daemon, and deterministic
//! shutdown with requests in flight.

use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use das_net::{
    encode_frame_opts, read_frame, spawn, DasCluster, DasdConfig, ErrorCode, FrameBuffer,
    Message, PipeClient, RetryPolicy,
};
use das_pfs::LayoutPolicy;
use proptest::prelude::*;

fn arb_small_message() -> BoxedStrategy<Message> {
    prop_oneof![
        Just(Message::Ping),
        Just(Message::Pong),
        Just(Message::PutStripOk),
        (any::<u32>(), any::<u64>()).prop_map(|(file, strip)| Message::GetStrip { file, strip }),
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

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
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
        let mut state = seed;
        let mut pos = 0usize;
        while pos < wire.len() {
            let n = 1 + (splitmix64(&mut state) as usize) % 16;
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

/// A server that echoes trace ids but answers a batch of requests in
/// REVERSE arrival order: the pipelined client must still hand every
/// caller its own reply.
#[test]
fn out_of_order_replies_match_by_request_id() {
    const BATCH: usize = 8;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();

    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept");
        // Handshake: accept any Hello, reply with full caps.
        let (hello, _) = read_frame(&mut sock).expect("read").expect("hello");
        assert!(matches!(hello, Message::Hello { .. }));
        sock.write_all(&encode_frame_opts(
            &Message::HelloOk { server_id: 0, caps: das_net::LOCAL_CAPS },
            None,
            None,
        ))
        .expect("hello ok");
        // Collect a full batch, then reply in reverse order, each
        // reply's payload derived from its own request.
        let mut batch = Vec::new();
        while batch.len() < BATCH {
            let (msg, trace) = read_frame(&mut sock).expect("read").expect("frame");
            let Message::GetStrip { strip, .. } = msg else {
                panic!("unexpected request {msg:?}")
            };
            batch.push((strip, trace));
        }
        for (strip, trace) in batch.into_iter().rev() {
            let reply = Message::StripData { payload: strip.to_le_bytes().to_vec() };
            sock.write_all(&encode_frame_opts(&reply, trace, None)).expect("reply");
        }
    });

    let client =
        Arc::new(PipeClient::connect(&addr, &RetryPolicy::fast()).expect("pipelined connect"));
    let mut callers = Vec::new();
    for strip in 0..BATCH as u64 {
        let client = Arc::clone(&client);
        callers.push(std::thread::spawn(move || {
            let reply =
                client.call(&Message::GetStrip { file: 1, strip }).expect("pipelined call");
            match reply {
                Message::StripData { payload } => {
                    assert_eq!(payload, strip.to_le_bytes().to_vec(), "got another caller's reply");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }));
    }
    for c in callers {
        c.join().expect("caller");
    }
    server.join().expect("server");
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

/// Many threads hammering one pipelined connection against a real
/// daemon: every caller gets the right strip back.
#[test]
fn pipelined_client_against_live_daemon() {
    const STRIPS: u64 = 24;
    const STRIP_SIZE: u32 = 512;
    let (handles, addrs) = boot(1);
    let mut cluster = DasCluster::connect(&addrs).expect("connect");
    let len = STRIPS * STRIP_SIZE as u64;
    let file = cluster
        .create_file("pipe.dat", len, STRIP_SIZE, LayoutPolicy::RoundRobin)
        .expect("create");
    let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    cluster.put_file(file, &data).expect("put");

    let client =
        Arc::new(PipeClient::connect(&addrs[0], &RetryPolicy::default()).expect("pipe connect"));
    let mut threads = Vec::new();
    for t in 0..8u64 {
        let client = Arc::clone(&client);
        let data = data.clone();
        threads.push(std::thread::spawn(move || {
            for round in 0..16u64 {
                let strip = (t * 7 + round * 3) % STRIPS;
                let reply =
                    client.call(&Message::GetStrip { file, strip }).expect("pipelined get");
                let Message::StripData { payload } = reply else {
                    panic!("unexpected reply")
                };
                let start = (strip * STRIP_SIZE as u64) as usize;
                assert_eq!(payload, &data[start..start + STRIP_SIZE as usize]);
            }
        }));
    }
    for t in threads {
        t.join().expect("caller");
    }
    drop(client);
    cluster.shutdown_all().expect("shutdown");
    drop(cluster);
    for h in handles {
        h.join();
    }
}

/// `DasdHandle::shutdown` with requests still in flight: the daemon
/// must drain and join deterministically — no throwaway connection,
/// no hang — while concurrent callers either complete or fail with a
/// transport error, never a wrong reply.
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
    cluster.put_file(file, &vec![7u8; len as usize]).expect("put");
    drop(cluster);

    let client =
        Arc::new(PipeClient::connect(&addrs[0], &RetryPolicy::fast()).expect("pipe connect"));
    let stop = Arc::new(AtomicBool::new(false));
    let mut callers = Vec::new();
    for t in 0..4u64 {
        let client = Arc::clone(&client);
        let stop = Arc::clone(&stop);
        callers.push(std::thread::spawn(move || {
            let mut strip = t;
            while !stop.load(Ordering::SeqCst) {
                match client.call(&Message::GetStrip { file, strip: strip % STRIPS }) {
                    Ok(Message::StripData { payload }) => {
                        assert_eq!(payload.len(), STRIP_SIZE as usize);
                    }
                    Ok(other) => panic!("unexpected reply {other:?}"),
                    Err(_) => return, // connection died during drain — fine
                }
                strip += 1;
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
