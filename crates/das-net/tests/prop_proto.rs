//! Property tests over the wire protocol: every message the protocol
//! can express must survive encode → frame → decode bit-exactly, and
//! the decoder must reject mutations rather than misparse them.

use std::io::Cursor;

use das_net::{encode_frame_opts, read_frame_ex, write_message_opts, Message, NetError};
use das_net::{ErrorCode, Role, WireStats, MAX_PAYLOAD};
use das_pfs::LayoutPolicy;
use proptest::prelude::*;

fn arb_policy() -> BoxedStrategy<LayoutPolicy> {
    prop_oneof![
        Just(LayoutPolicy::RoundRobin),
        (1u64..64).prop_map(|group| LayoutPolicy::Grouped { group }),
        (1u64..64).prop_map(|group| LayoutPolicy::GroupedReplicated { group }),
        (2u64..64, 2u64..64).prop_map(|(group, halo)| LayoutPolicy::replicated(group, halo)),
    ]
    .boxed()
}

fn arb_dist() -> BoxedStrategy<das_pfs::DistributionInfo> {
    (1usize..1 << 20, 1u32..64, arb_policy(), any::<u64>())
        .prop_map(|(strip_size, servers, policy, file_len)| das_pfs::DistributionInfo {
            strip_size,
            servers,
            policy,
            file_len,
        })
        .boxed()
}

fn arb_name() -> BoxedStrategy<String> {
    "[a-zA-Z0-9_./-]{0,40}".boxed()
}

fn arb_payload() -> BoxedStrategy<Vec<u8>> {
    // Zero-length payloads included by construction; the max-length
    // frame is exercised deterministically below (too big to draw
    // hundreds of times).
    proptest::collection::vec(any::<u8>(), 0..2048).boxed()
}

fn arb_error_code() -> BoxedStrategy<ErrorCode> {
    prop_oneof![
        Just(ErrorCode::NoSuchFile),
        Just(ErrorCode::DuplicateName),
        Just(ErrorCode::OutOfBounds),
        Just(ErrorCode::NoSuchServer),
        Just(ErrorCode::StripNotLocal),
        Just(ErrorCode::StripLengthMismatch),
        Just(ErrorCode::UnknownOperator),
        Just(ErrorCode::GeometryMismatch),
        Just(ErrorCode::FallbackToNormalIo),
        Just(ErrorCode::BadRequest),
        Just(ErrorCode::Internal),
        Just(ErrorCode::Retryable),
    ]
    .boxed()
}

/// Every variant of the protocol, with arbitrary field values.
fn arb_message() -> BoxedStrategy<Message> {
    prop_oneof![
        (any::<bool>(), any::<u32>(), any::<u32>()).prop_map(|(s, peer_id, caps)| Message::Hello {
            role: if s { Role::Server } else { Role::Client },
            peer_id,
            caps,
        }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(server_id, caps)| Message::HelloOk { server_id, caps }),
        (arb_name(), any::<u64>(), any::<u32>(), arb_policy(), any::<u32>()).prop_map(
            |(name, file_len, strip_size, policy, servers)| Message::CreateFile {
                name,
                file_len,
                strip_size,
                policy,
                servers,
            }
        ),
        any::<u32>().prop_map(|file| Message::CreateFileOk { file }),
        (any::<u32>(), any::<u64>(), arb_payload())
            .prop_map(|(file, strip, payload)| Message::PutStrip { file, strip, payload }),
        Just(Message::PutStripOk),
        (any::<u32>(), any::<u64>()).prop_map(|(file, strip)| Message::GetStrip { file, strip }),
        arb_payload().prop_map(|payload| Message::StripData { payload }),
        arb_name().prop_map(|name| Message::Lookup { name }),
        (any::<u32>(), arb_dist()).prop_map(|(file, dist)| Message::LookupOk { file, dist }),
        any::<u32>().prop_map(|file| Message::GetDistribution { file }),
        arb_dist().prop_map(|dist| Message::DistributionResp { dist }),
        (any::<u32>(), any::<u64>(), any::<u32>())
            .prop_map(|(file, first, count)| Message::GetStrips { file, first, count }),
        (any::<u32>(), arb_policy())
            .prop_map(|(file, policy)| Message::RedistPrepare { file, policy }),
        (any::<u64>(), any::<u64>()).prop_map(|(fetched_strips, fetched_bytes)| {
            Message::RedistPrepareOk { fetched_strips, fetched_bytes }
        }),
        (any::<u32>(), arb_policy())
            .prop_map(|(file, policy)| Message::RedistCommit { file, policy }),
        Just(Message::RedistCommitOk),
        (any::<u32>(), any::<u32>(), arb_name(), any::<u64>(), any::<bool>(), any::<bool>())
            .prop_map(|(file, out_file, kernel, img_width, successive, force)| {
                Message::Execute {
                    file,
                    out_file,
                    kernel,
                    img_width,
                    element_size: 4,
                    successive,
                    force,
                }
            }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(strips_computed, dep_fetches, dep_fetch_bytes)| Message::ExecuteOk {
                strips_computed,
                dep_fetches,
                dep_fetch_bytes,
            }
        ),
        Just(Message::Stats),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(client_in, client_out, server_in, server_out)| Message::StatsResp(WireStats {
                client_in,
                client_out,
                server_in,
                server_out,
            })
        ),
        Just(Message::ResetStats),
        Just(Message::ResetStatsOk),
        Just(Message::MetricsDump),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(|bytes| Message::MetricsText {
            text: String::from_utf8_lossy(&bytes).into_owned(),
        }),
        any::<u64>().prop_map(|trace| Message::TraceDump { trace }),
        arb_payload().prop_map(|spans| Message::TraceDumpResp { spans }),
        any::<u32>().prop_map(|per_class| Message::SlowLog { per_class }),
        arb_payload().prop_map(|spans| Message::SlowLogResp { spans }),
        Just(Message::Ping),
        Just(Message::Pong),
        Just(Message::Shutdown),
        Just(Message::ShutdownOk),
        (arb_error_code(), arb_name())
            .prop_map(|(code, message)| Message::Error { code, message }),
    ]
    .boxed()
}

fn frame_roundtrip(msg: &Message) -> Message {
    let mut buf = Vec::new();
    write_message_opts(&mut buf, msg, None, None).expect("encode");
    let mut cursor = Cursor::new(buf);
    let back = read_frame_ex(&mut cursor).expect("decode").expect("one frame").msg;
    // The frame must also consume the stream exactly.
    assert!(read_frame_ex(&mut cursor).expect("clean EOF").is_none());
    back
}

proptest! {
    #[test]
    fn every_message_roundtrips_through_a_frame(msg in arb_message()) {
        let back = frame_roundtrip(&msg);
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn payload_decode_is_the_inverse_of_encode(msg in arb_message()) {
        let payload = msg.encode_payload();
        let back = Message::decode(msg.opcode(), &payload).expect("decode");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn truncating_any_prefix_never_panics(msg in arb_message(), cut in any::<u16>()) {
        let payload = msg.encode_payload();
        if !payload.is_empty() {
            let cut = (cut as usize) % payload.len();
            // Shorter payloads must error or decode to something —
            // never panic. (Fixed-width tails can still parse; a
            // trailing-garbage check covers the other direction.)
            let _ = Message::decode(msg.opcode(), &payload[..cut]);
        }
    }

    #[test]
    fn appending_garbage_is_rejected(msg in arb_message(), extra in 1usize..8) {
        let mut payload = msg.encode_payload();
        payload.extend(std::iter::repeat_n(0xAB, extra));
        prop_assert!(Message::decode(msg.opcode(), &payload).is_err());
    }

    #[test]
    fn any_single_bit_flip_in_a_frame_is_rejected(
        msg in arb_message(),
        pos in any::<u32>(),
        bit in 0u8..8,
    ) {
        // The frame checksum must catch any corruption of the header
        // or payload, and the trailer itself, and a frame without the
        // checksum flag is refused: flipping one bit anywhere must
        // yield a typed error — never a panic, never a misparsed
        // message.
        let mut frame = encode_frame_opts(&msg, None, None);
        let pos = (pos as usize) % frame.len();
        frame[pos] ^= 1 << bit;
        let got = read_frame_ex(&mut Cursor::new(&frame));
        prop_assert!(got.is_err(), "a frame flipped at byte {} bit {} parsed: {:?}", pos, bit, got);
    }

    #[test]
    fn traced_frames_roundtrip_message_and_trace_id(msg in arb_message(), trace in any::<u64>()) {
        let frame = encode_frame_opts(&msg, Some(trace), None);
        let mut cursor = Cursor::new(&frame);
        let back = read_frame_ex(&mut cursor).expect("decode").expect("one frame");
        prop_assert_eq!(back.msg, msg);
        prop_assert_eq!(back.trace, Some(trace));
        prop_assert!(read_frame_ex(&mut cursor).expect("clean EOF").is_none());
    }

    #[test]
    fn any_single_bit_flip_in_a_traced_frame_is_rejected(
        msg in arb_message(),
        trace in any::<u64>(),
        pos in any::<u32>(),
        bit in 0u8..8,
    ) {
        // Same contract as the untraced property: the checksum covers
        // the header, the trace field and the payload, so one flipped
        // bit yields a typed error. One exception: bit 1 of the flag
        // byte (pos 6) clears FLAG_TRACE, shifting the reader's payload
        // window over the trace field so the checksum compares
        // unrelated bytes (astronomically unlikely to pass, but not
        // structurally impossible — tolerated if it ever does).
        let mut frame = encode_frame_opts(&msg, Some(trace), None);
        let pos = (pos as usize) % frame.len();
        frame[pos] ^= 1 << bit;
        if let Ok(got) = read_frame_ex(&mut Cursor::new(&frame)) {
            prop_assert!((pos, bit) == (6, 1), "a frame flipped at byte {} bit {} parsed: {:?}", pos, bit, got);
        }
    }

    #[test]
    fn unknown_opcodes_are_rejected(op in any::<u8>()) {
        // Opcodes outside the assigned set must fail cleanly even
        // with an empty payload.
        let assigned = [
            0x01, 0x02, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19,
            0x20, 0x21, 0x22, 0x23, 0x30, 0x31, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45,
            0x50, 0x51, 0x52, 0x53, 0x7F,
        ];
        if !assigned.contains(&op) {
            prop_assert!(Message::decode(op, &[]).is_err());
        }
    }
}

#[test]
fn retryable_error_roundtrips_and_is_transient() {
    let msg = Message::Error { code: ErrorCode::Retryable, message: "injected fault".into() };
    assert_eq!(frame_roundtrip(&msg), msg);
    assert!(ErrorCode::Retryable.is_transient());
    assert!(!ErrorCode::Internal.is_transient());
}

#[test]
fn zero_length_strip_payload_roundtrips() {
    let msg = Message::StripData { payload: Vec::new() };
    assert_eq!(frame_roundtrip(&msg), msg);
    let msg = Message::PutStrip { file: 0, strip: 0, payload: Vec::new() };
    assert_eq!(frame_roundtrip(&msg), msg);
}

#[test]
fn max_length_frame_roundtrips_and_one_more_byte_is_refused() {
    // The largest legal frame: a StripData whose blob plus its 4-byte
    // length prefix exactly fills MAX_PAYLOAD.
    let blob_len = MAX_PAYLOAD - 4;
    let payload: Vec<u8> = (0..blob_len).map(|i| (i * 31) as u8).collect();
    let msg = Message::StripData { payload };
    let mut buf = Vec::new();
    write_message_opts(&mut buf, &msg, None, None).unwrap();
    let back = read_frame_ex(&mut Cursor::new(&buf)).unwrap().unwrap().msg;
    assert_eq!(back, msg);

    // One byte longer and the reader must refuse before allocating:
    // patch the header's length field past the cap.
    let oversize = (MAX_PAYLOAD as u32) + 1;
    buf[8..12].copy_from_slice(&oversize.to_le_bytes());
    match read_frame_ex(&mut Cursor::new(&buf)) {
        Err(NetError::Protocol(m)) => assert!(m.contains("cap")),
        other => panic!("expected protocol error, got {other:?}"),
    }
}
