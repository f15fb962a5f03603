//! Property tests over the frame checksum: the table-slicing `crc32`
//! against a bit-at-a-time reference, `crc32_combine` against
//! concatenation, the proof that no frame moved — every encoder still
//! emits, byte for byte, the frame the reference checksum signs — and
//! the proof that no verdict moved: the decoders, which now sum a
//! frame's fixed part and its blob apart, accept and reject exactly
//! what one pass over the whole frame accepts and rejects.

use std::io::Cursor;

use das_net::codec::{crc32, crc32_combine, frame_parts_summed};
use das_net::proto::{HEADER_LEN, MAGIC};
use das_net::{
    encode_frame_opts, frame_parts_opts, read_frame_ex, FrameBuffer, Message, NetError, FLAG_CRC,
    FLAG_DEADLINE, FLAG_TRACE, KNOWN_FLAGS, MAX_PAYLOAD, VERSION,
};
use proptest::prelude::*;

/// CRC-32 (IEEE 802.3) one bit at a time: no table, nothing shared
/// with the code under test but the polynomial.
fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    !c
}

/// `bytes` cut at the (sorted) points `cuts` resolve to.
fn cut_up<'a>(bytes: &'a [u8], cuts: &[prop::sample::Index]) -> Vec<&'a [u8]> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c.index(bytes.len() + 1)).collect();
    at.sort_unstable();
    at.push(bytes.len());
    let mut from = 0;
    at.into_iter()
        .map(|to| {
            let chunk = &bytes[from..to];
            from = to;
            chunk
        })
        .collect()
}

/// A frame put together by hand from the wire layout in
/// `docs/PROTOCOL.md`, signed with the reference checksum.
fn reference_frame(msg: &Message, trace: Option<u64>, budget_ms: Option<u32>) -> Vec<u8> {
    let payload = msg.encode_payload();
    let flags = FLAG_CRC
        | if trace.is_some() { FLAG_TRACE } else { 0 }
        | if budget_ms.is_some() { FLAG_DEADLINE } else { 0 };
    let mut frame = b"DASN".to_vec();
    frame.extend_from_slice(&[VERSION, msg.opcode()]);
    frame.extend_from_slice(&flags.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    if let Some(id) = trace {
        frame.extend_from_slice(&id.to_le_bytes());
    }
    if let Some(ms) = budget_ms {
        frame.extend_from_slice(&ms.to_le_bytes());
    }
    frame.extend_from_slice(&payload);
    let sum = crc32_reference(&frame);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame
}

#[test]
fn check_vector_and_empty_input() {
    assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
    assert_eq!(crc32(&[]), 0);
    assert_eq!(crc32(&[b"", b""]), 0);
}

#[test]
fn frames_did_not_move() {
    for msg in Message::samples() {
        for trace in [None, Some(0x0123_4567_89AB_CDEFu64)] {
            for budget in [None, Some(1500u32)] {
                let want = reference_frame(&msg, trace, budget);
                assert_eq!(encode_frame_opts(&msg, trace, budget), want, "{msg:?}");
                assert_eq!(frame_parts_opts(&msg, trace, budget).to_vec(), want, "{msg:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sliced_crc32_equals_the_reference_however_the_input_is_cut(
        bytes in prop::collection::vec(any::<u8>(), 0..4114),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..5),
    ) {
        prop_assert_eq!(crc32(&cut_up(&bytes, &cuts)), crc32_reference(&bytes));
    }
}

/// What a decoder made of one frame's bytes.
#[derive(Debug, PartialEq)]
enum Verdict {
    Accept(Message),
    /// The bytes end before the frame they announce does.
    Short,
    /// Refused before any checksum was looked at.
    Malformed,
    /// Refused with this message.
    Reject(String),
}

/// The whole-frame check: validate the header (checksum flag set), sum
/// everything before the trailer in one pass with the reference
/// checksum, compare, decode.
fn whole_frame_verdict(frame: &[u8]) -> Verdict {
    if frame.len() < HEADER_LEN {
        return Verdict::Short;
    }
    let flags = u16::from_le_bytes([frame[6], frame[7]]);
    let len = u32::from_le_bytes([frame[8], frame[9], frame[10], frame[11]]) as usize;
    if frame[..4] != MAGIC
        || frame[4] != VERSION
        || flags & !KNOWN_FLAGS != 0
        || flags & FLAG_CRC == 0
        || len > MAX_PAYLOAD
    {
        return Verdict::Malformed;
    }
    let meta = if flags & FLAG_TRACE != 0 { 8 } else { 0 } + if flags & FLAG_DEADLINE != 0 { 4 } else { 0 };
    let end = HEADER_LEN + meta + len;
    if frame.len() < end + 4 {
        return Verdict::Short;
    }
    let wanted = u32::from_le_bytes([frame[end], frame[end + 1], frame[end + 2], frame[end + 3]]);
    let actual = crc32_reference(&frame[..end]);
    if wanted != actual {
        return Verdict::Reject(format!("frame checksum mismatch: wire {wanted:#010x}, computed {actual:#010x}"));
    }
    match Message::decode(frame[5], &frame[HEADER_LEN + meta..end]) {
        Ok(msg) => Verdict::Accept(msg),
        Err(e) => Verdict::Reject(e.to_string()),
    }
}

fn verdict_of(outcome: Result<Option<das_net::Frame>, NetError>) -> Verdict {
    match outcome {
        Ok(Some(f)) => Verdict::Accept(f.msg),
        Ok(None) => Verdict::Short,
        Err(NetError::Protocol(m)) if m.starts_with("connection closed mid-") => Verdict::Short,
        Err(NetError::Protocol(m)) if m.starts_with("frame checksum") || m.starts_with("malformed") => {
            Verdict::Reject(m)
        }
        Err(NetError::Protocol(_)) => Verdict::Malformed,
        Err(e) => panic!("a byte slice cannot fail like this: {e}"),
    }
}

/// Both decoders' verdicts on `frame`, which must agree.
fn decoders_verdict(frame: &[u8]) -> Verdict {
    let mut fb = FrameBuffer::new();
    fb.extend(frame);
    let incremental = verdict_of(fb.next_frame_ex());
    assert_eq!(verdict_of(read_frame_ex(&mut Cursor::new(frame))), incremental);
    incremental
}

/// Every single-bit flip of a blob frame that carries both optional
/// fields — header, trace id, budget, payload prefix, blob and trailer
/// alike — meets the verdict of the whole-frame check, message and all.
#[test]
fn every_bit_flip_is_judged_as_the_whole_frame_check_judges_it() {
    let msg = Message::PutStrip { file: 3, strip: 9, payload: (0..37u8).collect() };
    let frame = encode_frame_opts(&msg, Some(0xFEED_FACE_0BAD_F00D), Some(750));
    assert_eq!(decoders_verdict(&frame), Verdict::Accept(msg));
    let mut rejected = 0;
    for bit in 0..frame.len() * 8 {
        let mut flipped = frame.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let want = whole_frame_verdict(&flipped);
        assert_eq!(decoders_verdict(&flipped), want, "bit {bit}");
        // No flip gets a frame through, the checksum flag's included.
        assert!(!matches!(want, Verdict::Accept(_)), "bit {bit} accepted");
        rejected += usize::from(matches!(want, Verdict::Reject(_)));
    }
    assert!(rejected > (frame.len() - HEADER_LEN) * 8 - 8, "{rejected} flips reached the checksum");
}

fn arb_blob_message() -> BoxedStrategy<Message> {
    let blob = || prop::collection::vec(any::<u8>(), 0..2048);
    prop_oneof![
        (any::<u32>(), any::<u64>(), blob())
            .prop_map(|(file, strip, payload)| Message::PutStrip { file, strip, payload }),
        blob().prop_map(|payload| Message::StripData { payload }),
        "[ -~]{0,200}".prop_map(|text| Message::MetricsText { text }),
        blob().prop_map(|spans| Message::TraceDumpResp { spans }),
        blob().prop_map(|spans| Message::SlowLogResp { spans }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn combine_equals_concatenation(
        a in prop::collection::vec(any::<u8>(), 0..600),
        b in prop::collection::vec(any::<u8>(), 0..600),
        c in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let (sa, sb, sc) = (crc32(&[&a]), crc32(&[&b]), crc32(&[&c]));
        prop_assert_eq!(crc32_combine(sa, sb, b.len()), crc32(&[&a, &b]));
        prop_assert_eq!(crc32_combine(sa, crc32(&[]), 0), sa);
        prop_assert_eq!(crc32_combine(crc32(&[]), sb, b.len()), sb);
        // a ⧺ b ⧺ c, grouped both ways and from the whole of b ⧺ c.
        let abc = crc32_reference(&[a.as_slice(), &b, &c].concat());
        prop_assert_eq!(crc32_combine(crc32_combine(sa, sb, b.len()), sc, c.len()), abc);
        prop_assert_eq!(crc32_combine(sa, crc32_combine(sb, sc, c.len()), b.len() + c.len()), abc);
        prop_assert_eq!(crc32_combine(sa, crc32(&[&b, &c]), b.len() + c.len()), abc);
    }

    #[test]
    fn decoders_surface_the_blob_sum_and_senders_may_sign_from_it(
        msg in arb_blob_message(),
        trace in prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        budget in prop_oneof![Just(None), any::<u32>().prop_map(Some)],
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..5),
    ) {
        let blob_sum = Some(crc32(&[msg.split_payload().1]));
        let frame = reference_frame(&msg, trace, budget);
        // A sender that holds the blob's sum signs the same frame.
        prop_assert_eq!(&frame_parts_summed(&msg, blob_sum, trace, budget).to_vec(), &frame);
        let f = read_frame_ex(&mut Cursor::new(&frame)).unwrap().unwrap();
        prop_assert_eq!((&f.msg, f.trace, f.budget_ms, f.blob_sum), (&msg, trace, budget, blob_sum));
        let mut fb = FrameBuffer::new();
        let mut got = None;
        for chunk in cut_up(&frame, &cuts).into_iter().filter(|c| !c.is_empty()) {
            prop_assert!(got.is_none(), "a frame completed before its last byte arrived");
            fb.extend(chunk);
            got = fb.next_frame_ex().unwrap();
        }
        let f = got.expect("the whole frame was fed");
        prop_assert_eq!((&f.msg, f.trace, f.budget_ms, f.blob_sum), (&msg, trace, budget, blob_sum));
    }
}
