//! Strip runs on the wire: whole-file reads and writes move each
//! maximal run of consecutive strips that share a holder walk in one
//! frame per holder — a `GetStrips` (a `GetStrip` for a run of one) or
//! a `PutStrip` carrying the run — and a run of one is the per-strip
//! frame byte for byte. The daemons refuse a run they cannot serve or
//! store whole, typed, and store nothing of it.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

use das::net::engine::MAX_INFLIGHT;
use das::net::{
    encode_frame_opts, read_frame_ex, spawn, write_message_opts, DasCluster, DasdConfig, DasdHandle, ErrorCode,
    Message, NetError, RetryPolicy, LOCAL_CAPS,
};
use das::pfs::{DistributionInfo, Layout, LayoutPolicy, ServerId, StripId};

/// `servers` daemons (two workers each, fast retries) and their
/// addresses.
fn fleet(servers: usize) -> (Vec<DasdHandle>, Vec<String>) {
    let listeners: Vec<TcpListener> =
        (0..servers).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    let addrs: Vec<String> = listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
    let handles = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            let cfg = DasdConfig::new(i as u32, addrs.clone()).with_retry(RetryPolicy::fast());
            spawn(DasdConfig { pool: 2, ..cfg }, l).expect("spawn dasd")
        })
        .collect();
    (handles, addrs)
}

fn teardown(handles: Vec<DasdHandle>) {
    for h in &handles {
        h.shutdown();
    }
    handles.into_iter().for_each(DasdHandle::join);
}

fn connect(addrs: &[String]) -> DasCluster {
    DasCluster::connect_with(addrs, RetryPolicy::fast()).expect("connect")
}

/// Client-class `dasd_requests_total` of each op, summed over the
/// fleet: `[get_strip, get_strips, put_strip]`.
fn strip_frames(cluster: &mut DasCluster) -> [u64; 3] {
    let dumps = cluster.metrics_dump_all().expect("metrics dump");
    ["get_strip", "get_strips", "put_strip"].map(|op| {
        dumps
            .iter()
            .map(|(_, text)| {
                let samples = das::obs::parse(text);
                das::obs::sample_value(&samples, "dasd_requests_total", &[("op", op), ("class", "client")])
                    .unwrap_or(0.0) as u64
            })
            .sum()
    })
}

/// The maximal runs of consecutive strips with the same holders, as a
/// client with no latency samples walks them: no run crosses a wave.
fn runs(layout: &Layout, strips: u64) -> Vec<(std::ops::Range<u64>, usize)> {
    let mut out: Vec<(std::ops::Range<u64>, usize)> = Vec::new();
    for s in 0..strips {
        let holders = layout.holders(StripId(s));
        match out.last_mut() {
            Some((run, _)) if s % MAX_INFLIGHT as u64 != 0 && layout.holders(StripId(run.start)) == holders => {
                run.end = s + 1
            }
            _ => out.push((s..s + 1, holders.len())),
        }
    }
    out
}

/// Over every policy × D ∈ {2, 3, 4} × strip size × file length (most
/// with a partial tail strip): `put_file` then `read_file` by a fresh
/// client round-trips the bytes, and the daemons count one put frame
/// per holder of each maximal same-walk run and one get frame per run —
/// a `GetStrip` for each run of one, a `GetStrips` for each longer one.
/// The counts are checked per (D, policy): a metrics dump costs more
/// than a case.
#[test]
fn whole_file_io_moves_one_frame_per_run_and_round_trips() {
    let policies = [
        LayoutPolicy::RoundRobin,
        LayoutPolicy::Grouped { group: 3 },
        LayoutPolicy::GroupedReplicated { group: 2 },
        LayoutPolicy::replicated(4, 2),
    ];
    let mut cases = 0;
    for d in 2..=4usize {
        let (handles, addrs) = fleet(d);
        // Traced clients pipeline each wave: a fresh reader's one burst
        // per server is one latency sample, too few to arm a hedge, so
        // every get frame is a run's first ask.
        let mut writer = connect(&addrs);
        writer.begin_trace();
        for (p, policy) in policies.into_iter().enumerate() {
            let layout = Layout::new(policy, d as u32);
            let before = strip_frames(&mut writer);
            let mut want = [0u64; 3];
            for strip in [64usize, 1000] {
                for (strips, cut) in [(1u64, 0usize), (13, 5), (29, strip - 1)] {
                    let len = strips * strip as u64 - cut as u64;
                    let data: Vec<u8> = (0..len).map(|i| (i * 131 + p as u64 + strips) as u8).collect();
                    let name = format!("d{d}.p{p}.s{strip}.n{strips}");
                    let file = writer.create_file(&name, len, strip as u32, policy).expect("create");
                    writer.put_file(file, &data).expect("put_file");
                    let mut reader = connect(&addrs);
                    reader.begin_trace();
                    assert_eq!(reader.read_file(file).expect("read_file"), data, "{name}: round trip");
                    assert!(reader.take_events().is_empty(), "{name}");

                    let runs = runs(&layout, strips);
                    let ones = runs.iter().filter(|(run, _)| run.end - run.start == 1).count() as u64;
                    want[0] += ones;
                    want[1] += runs.len() as u64 - ones;
                    want[2] += runs.iter().map(|(_, holders)| *holders as u64).sum::<u64>();
                    cases += 1;
                }
            }
            let after = strip_frames(&mut writer);
            let got = [0, 1, 2].map(|i| after[i] - before[i]);
            assert_eq!(got, want, "D = {d}, {policy:?}: [get_strip, get_strips, put_strip] frames");
        }
        drop(writer);
        teardown(handles);
    }
    assert_eq!(cases, 3 * 4 * 2 * 3);
}

/// The strips a `read_file` and a `put_file` of a round-robin file
/// put on the wire, each as the raw bytes of its frame.
type Seen = Arc<Mutex<Vec<(Message, Vec<u8>)>>>;

/// A reader that keeps a copy of every byte it hands on.
struct Tee<R> {
    inner: R,
    copy: Vec<u8>,
}

impl<R: Read> Read for Tee<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.copy.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

/// A stand-in holder of `dist` that answers as a daemon would and keeps
/// every strip request it reads, with its frame's bytes, in `seen`.
fn stub_holder(listener: TcpListener, dist: DistributionInfo, seen: Seen) {
    let (sock, _) = listener.accept().expect("accept");
    let mut tee = Tee { inner: sock, copy: Vec::new() };
    while let Ok(Some(frame)) = read_frame_ex(&mut tee) {
        let raw = std::mem::take(&mut tee.copy);
        let reply = match &frame.msg {
            Message::Hello { .. } => Message::HelloOk { server_id: 0, caps: LOCAL_CAPS },
            Message::GetDistribution { .. } => Message::DistributionResp { dist },
            Message::GetStrip { strip, .. } => Message::StripData { payload: vec![*strip as u8; dist.strip_size] },
            Message::PutStrip { .. } => Message::PutStripOk,
            _ => Message::Pong,
        };
        if matches!(frame.msg, Message::GetStrip { .. } | Message::GetStrips { .. } | Message::PutStrip { .. }) {
            seen.lock().expect("seen").push((frame.msg.clone(), raw));
        }
        let sock: &mut TcpStream = &mut tee.inner;
        if write_message_opts(sock, &reply, frame.trace, None).is_err() {
            break;
        }
    }
}

/// A run of one is today's per-strip frame, byte for byte: the frames
/// are pinned, and a round-robin `read_file` / `put_file` — every run
/// one strip — writes exactly those frames, each with the reply budget
/// the client waits.
#[test]
fn a_run_of_one_is_the_per_strip_frame_byte_for_byte() {
    let get = encode_frame_opts(&Message::GetStrip { file: 7, strip: 11 }, None, None);
    let put = encode_frame_opts(&Message::PutStrip { file: 7, strip: 11, payload: vec![1, 2, 3, 4] }, None, None);
    assert_eq!(
        get,
        [
            0x44, 0x41, 0x53, 0x4e, 0x01, 0x14, 0x01, 0x00, 0x0c, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x0b, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf7, 0x45, 0x82, 0xf1
        ]
    );
    assert_eq!(
        put,
        [
            0x44, 0x41, 0x53, 0x4e, 0x01, 0x12, 0x01, 0x00, 0x14, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x0b, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0x04, 0xb5, 0x60, 0x9e, 0xa2
        ]
    );

    const STRIP: usize = 64;
    let dist = DistributionInfo { strip_size: STRIP, servers: 2, policy: LayoutPolicy::RoundRobin, file_len: 4 * STRIP as u64 };
    let seen: Seen = Arc::default();
    let listeners: Vec<TcpListener> = (0..2).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    let addrs: Vec<String> = listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
    let stubs: Vec<_> = listeners
        .into_iter()
        .map(|l| {
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || stub_holder(l, dist, seen))
        })
        .collect();
    let policy = RetryPolicy::fast();
    let mut cluster = DasCluster::connect_with(&addrs, policy.clone()).expect("connect");
    let data: Vec<u8> = (0..4u8).flat_map(|s| [s; STRIP]).collect();
    assert_eq!(cluster.read_file(1).expect("read"), data);
    cluster.put_file(1, &data).expect("put");
    drop(cluster);
    stubs.into_iter().for_each(|stub| stub.join().expect("stub"));

    let budget = Some(policy.read_timeout.as_millis() as u32);
    let mut seen = std::mem::take(&mut *seen.lock().expect("seen"));
    seen.sort_by_key(|(msg, _)| (msg.opcode(), format!("{msg:?}")));
    let want: Vec<Message> = (0..4u64)
        .map(|strip| Message::PutStrip { file: 1, strip, payload: data[strip as usize * STRIP..][..STRIP].to_vec() })
        .chain((0..4u64).map(|strip| Message::GetStrip { file: 1, strip }))
        .collect();
    assert_eq!(seen.len(), want.len(), "{:?}", seen.iter().map(|(m, _)| m.op_name()).collect::<Vec<_>>());
    for ((msg, raw), want) in seen.iter().zip(&want) {
        assert_eq!(msg, want);
        assert_eq!(raw, &encode_frame_opts(want, None, budget), "{} frame", want.op_name());
    }
}

fn refused(got: Result<Message, NetError>) -> ErrorCode {
    match got {
        Err(NetError::Remote { code, .. }) => code,
        other => panic!("expected a typed refusal, got {other:?}"),
    }
}

/// Runs a daemon cannot serve or store whole, or longer than one wave,
/// are refused, typed, and nothing of a refused `PutStrip` run is
/// stored.
#[test]
fn runs_a_daemon_cannot_take_whole_are_refused_typed() {
    const STRIP: usize = 64;
    let (handles, addrs) = fleet(4);
    let mut c = connect(&addrs);
    // One 4-strip group per daemon with a two-strip halo: daemon 0
    // holds strips 0–3, and 4, 5, 14 and 15 as replicas.
    let policy = LayoutPolicy::replicated(4, 2);
    let len = 16 * STRIP as u64;
    let file = c.create_file("runs.raw", len, STRIP as u32, policy).expect("create");
    let layout = Layout::new(policy, 4);
    let held: Vec<u64> = (0..16).filter(|&s| layout.holds(ServerId(0), StripId(s))).collect();
    assert_eq!(held, [0, 1, 2, 3, 4, 5, 14, 15]);
    let bytes = |strips: usize| vec![9u8; strips * STRIP];
    let put = |strip, strips| Message::PutStrip { file, strip, payload: bytes(strips) };

    // An empty payload, one that ends inside a strip, or one that runs
    // past the file's end.
    assert_eq!(refused(c.call(0, &put(0, 0))), ErrorCode::StripLengthMismatch);
    let half = Message::PutStrip { file, strip: 0, payload: vec![9; STRIP * 3 / 2] };
    assert_eq!(refused(c.call(0, &half)), ErrorCode::StripLengthMismatch);
    assert_eq!(refused(c.call(0, &put(15, 2))), ErrorCode::StripLengthMismatch);
    // A run reaching a strip daemon 0 does not hold.
    assert_eq!(refused(c.call(0, &put(4, 3))), ErrorCode::StripNotLocal);
    // Nothing of the four was stored.
    for strip in [0, 4, 5, 15] {
        assert_eq!(refused(c.call(0, &Message::GetStrip { file, strip })), ErrorCode::StripNotLocal, "strip {strip}");
    }

    // A whole run is stored strip by strip, and read back as one run or
    // strip by strip.
    assert_eq!(c.call(0, &put(2, 3)).expect("a held run"), Message::PutStripOk);
    match c.call(0, &Message::GetStrips { file, first: 2, count: 3 }) {
        Ok(Message::StripData { payload }) => assert_eq!(payload, bytes(3)),
        other => panic!("expected the run's bytes, got {other:?}"),
    }
    assert_eq!(c.call(0, &Message::GetStrip { file, strip: 4 }).expect("strip 4"), Message::StripData { payload: bytes(1) });

    // An empty run, one past the end, one longer than a wave, one
    // reaching a strip not held.
    assert_eq!(refused(c.call(0, &Message::GetStrips { file, first: 0, count: 0 })), ErrorCode::BadRequest);
    assert_eq!(refused(c.call(0, &Message::GetStrips { file, first: 14, count: 3 })), ErrorCode::OutOfBounds);
    assert_eq!(refused(c.call(0, &Message::GetStrips { file, first: 15, count: u32::MAX })), ErrorCode::BadRequest);
    assert_eq!(refused(c.call(0, &Message::GetStrips { file, first: 4, count: 3 })), ErrorCode::StripNotLocal);

    // A run is at most one wave, `MAX_INFLIGHT` strips, however small
    // its strips: on a 1 TiB file of 1-byte strips a `GetStrips` count
    // or a `PutStrip` payload in range but over the cap is refused up
    // front, before the daemon sizes anything from it.
    let group = 2 * MAX_INFLIGHT as u64;
    let file = c.create_file("tiny-strips.raw", 1 << 40, 1, LayoutPolicy::Grouped { group }).expect("create");
    let put = |strips: usize| Message::PutStrip { file, strip: 0, payload: vec![7u8; strips] };
    let get = |count: u32| Message::GetStrips { file, first: 0, count };

    assert_eq!(refused(c.call(0, &get(u32::MAX))), ErrorCode::BadRequest);
    assert_eq!(refused(c.call(0, &put(MAX_INFLIGHT + 1))), ErrorCode::BadRequest);
    assert_eq!(refused(c.call(0, &Message::GetStrip { file, strip: 0 })), ErrorCode::StripNotLocal);

    // One wave is a run.
    assert_eq!(c.call(0, &put(MAX_INFLIGHT)).expect("a one-wave run"), Message::PutStripOk);
    match c.call(0, &get(MAX_INFLIGHT as u32)) {
        Ok(Message::StripData { payload }) => assert_eq!(payload, vec![7u8; MAX_INFLIGHT]),
        other => panic!("expected the run's bytes, got {other:?}"),
    }
    assert_eq!(refused(c.call(0, &get(MAX_INFLIGHT as u32 + 1))), ErrorCode::BadRequest);
    drop(c);
    teardown(handles);
}
