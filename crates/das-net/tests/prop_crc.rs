//! Property tests over the frame checksum: the table-slicing `crc32`
//! against a bit-at-a-time reference, and the proof that no frame
//! moved — every encoder still emits, byte for byte, the frame the
//! reference checksum signs.

use das_net::codec::crc32;
use das_net::{encode_frame_opts, frame_parts_opts, Message, FLAG_CRC, FLAG_DEADLINE, FLAG_TRACE, VERSION};
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
