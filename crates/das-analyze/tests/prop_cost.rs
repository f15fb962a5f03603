//! Property test for the costmodel pass's symbolic frame-size
//! formulas: for *arbitrary* field values — not just the pass's
//! n ∈ {0, 1, 7, 1024} probe points — every message variant's frame
//! length through the real codec must equal the closed-form
//! expression the pass extracts from source (payload constant plus
//! blob lengths, plus the 12 + 4 + 8·[trace] + 4·[budget] frame
//! overhead). This is the Eqs. 1–17 trust chain exercised from the
//! opposite direction: the formulas are restated here independently,
//! so a change to either the codec or the extractor that silently
//! shifts a byte fails one of the two.

use das_net::codec::frame_parts_opts;
use das_net::proto::{ErrorCode, Message, Role, WireStats};
use das_pfs::{DistributionInfo, LayoutPolicy};

use proptest::prelude::*;

/// The symbolic per-variant payload size — the same formulas
/// `das-analyze --pass costmodel` extracts from `proto.rs` and
/// proves as DA810 records, restated by hand.
fn symbolic_payload_len(m: &Message) -> usize {
    match m {
        Message::Hello { .. } => 9,
        Message::HelloOk { .. } => 8,
        Message::CreateFile { name, .. } => 27 + name.len(),
        Message::CreateFileOk { .. } => 4,
        Message::PutStrip { payload, .. } => 16 + payload.len(),
        Message::PutStripOk => 0,
        Message::GetStrip { .. } => 12,
        Message::StripData { payload } => 4 + payload.len(),
        Message::Lookup { name } => 2 + name.len(),
        Message::LookupOk { .. } => 33,
        Message::GetDistribution { .. } => 4,
        Message::DistributionResp { .. } => 29,
        Message::GetStrips { .. } => 16,
        Message::RedistPrepare { .. } | Message::RedistCommit { .. } => 13,
        Message::RedistPrepareOk { .. } => 16,
        Message::RedistCommitOk => 0,
        Message::Execute { kernel, .. } => 24 + kernel.len(),
        Message::ExecuteOk { .. } => 24,
        Message::Stats
        | Message::ResetStats
        | Message::ResetStatsOk
        | Message::MetricsDump
        | Message::Ping
        | Message::Pong
        | Message::Shutdown
        | Message::ShutdownOk => 0,
        Message::StatsResp(_) => 32,
        Message::MetricsText { text } => 4 + text.len(),
        Message::TraceDump { .. } => 8,
        Message::TraceDumpResp { spans } | Message::SlowLogResp { spans } => 4 + spans.len(),
        Message::SlowLog { .. } => 4,
        Message::Error { message, .. } => 4 + message.len(),
    }
}

fn policies() -> impl Strategy<Value = LayoutPolicy> {
    prop_oneof![
        Just(LayoutPolicy::RoundRobin),
        (1u64..=8).prop_map(|group| LayoutPolicy::Grouped { group }),
        (1u64..=8).prop_map(|group| LayoutPolicy::GroupedReplicated { group }),
    ]
}

fn dists() -> impl Strategy<Value = DistributionInfo> {
    (1usize..=1 << 20, 1u32..=16, policies(), any::<u64>()).prop_map(
        |(strip_size, servers, policy, file_len)| DistributionInfo {
            strip_size,
            servers,
            policy,
            file_len,
        },
    )
}

fn error_codes() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::NoSuchFile),
        Just(ErrorCode::OutOfBounds),
        Just(ErrorCode::StripNotLocal),
        Just(ErrorCode::Retryable),
    ]
}

/// Arbitrary strings stay under the `put_str` u16 length cap; byte
/// lengths (what the formulas count) exceed char counts for
/// non-ASCII, which is exactly the case worth sweeping.
fn names() -> impl Strategy<Value = String> {
    ".{0,48}"
}

fn blobs() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..4096)
}

fn messages() -> impl Strategy<Value = Message> {
    prop_oneof![
        (prop_oneof![Just(Role::Client), Just(Role::Server)], any::<u32>(), any::<u32>())
            .prop_map(|(role, peer_id, caps)| Message::Hello { role, peer_id, caps }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(server_id, caps)| Message::HelloOk { server_id, caps }),
        (names(), any::<u64>(), any::<u32>(), policies(), any::<u32>()).prop_map(
            |(name, file_len, strip_size, policy, servers)| Message::CreateFile {
                name,
                file_len,
                strip_size,
                policy,
                servers,
            }
        ),
        any::<u32>().prop_map(|file| Message::CreateFileOk { file }),
        (any::<u32>(), any::<u64>(), blobs())
            .prop_map(|(file, strip, payload)| Message::PutStrip { file, strip, payload }),
        Just(Message::PutStripOk),
        (any::<u32>(), any::<u64>()).prop_map(|(file, strip)| Message::GetStrip { file, strip }),
        blobs().prop_map(|payload| Message::StripData { payload }),
        names().prop_map(|name| Message::Lookup { name }),
        (any::<u32>(), dists()).prop_map(|(file, dist)| Message::LookupOk { file, dist }),
        any::<u32>().prop_map(|file| Message::GetDistribution { file }),
        dists().prop_map(|dist| Message::DistributionResp { dist }),
        (any::<u32>(), any::<u64>(), any::<u32>())
            .prop_map(|(file, first, count)| Message::GetStrips { file, first, count }),
        (any::<u32>(), policies())
            .prop_map(|(file, policy)| Message::RedistPrepare { file, policy }),
        (any::<u64>(), any::<u64>()).prop_map(|(fetched_strips, fetched_bytes)| {
            Message::RedistPrepareOk { fetched_strips, fetched_bytes }
        }),
        (any::<u32>(), policies())
            .prop_map(|(file, policy)| Message::RedistCommit { file, policy }),
        Just(Message::RedistCommitOk),
        ((any::<u32>(), any::<u32>(), names(), any::<u64>()), (any::<u32>(), any::<bool>(), any::<bool>()))
            .prop_map(|((file, out_file, kernel, img_width), (element_size, successive, force))| {
                Message::Execute { file, out_file, kernel, img_width, element_size, successive, force }
            }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(strips_computed, dep_fetches, dep_fetch_bytes)| Message::ExecuteOk {
                strips_computed,
                dep_fetches,
                dep_fetch_bytes,
            }
        ),
        prop_oneof![
            Just(Message::Stats),
            Just(Message::ResetStats),
            Just(Message::ResetStatsOk),
            Just(Message::MetricsDump),
            Just(Message::Ping),
            Just(Message::Pong),
            Just(Message::Shutdown),
            Just(Message::ShutdownOk),
        ],
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(client_in, client_out, server_in, server_out)| Message::StatsResp(WireStats {
                client_in,
                client_out,
                server_in,
                server_out,
            })
        ),
        names().prop_map(|text| Message::MetricsText { text }),
        any::<u64>().prop_map(|trace| Message::TraceDump { trace }),
        blobs().prop_map(|spans| Message::TraceDumpResp { spans }),
        any::<u32>().prop_map(|per_class| Message::SlowLog { per_class }),
        blobs().prop_map(|spans| Message::SlowLogResp { spans }),
        (error_codes(), names()).prop_map(|(code, message)| Message::Error { code, message }),
    ]
}

fn fields() -> impl Strategy<Value = (Option<u64>, Option<u32>)> {
    (
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        prop_oneof![Just(None), any::<u32>().prop_map(Some)],
    )
}

proptest! {
    // The payload-level formula: `encode_payload` produces exactly
    // the symbolic byte count for every variant and field values.
    #[test]
    fn encode_payload_matches_symbolic_formula(msg in messages()) {
        prop_assert_eq!(msg.encode_payload().len(), symbolic_payload_len(&msg));
    }

    // The frame-level formula: header + CRC + optional trace and
    // budget fields + payload, for every combination of the two — the
    // per-message term every DA812 sequence cost composes from.
    #[test]
    fn frame_len_matches_symbolic_formula(msg in messages(), (trace, budget) in fields()) {
        let overhead = 12 + 4
            + if trace.is_some() { 8 } else { 0 }
            + if budget.is_some() { 4 } else { 0 };
        let parts = frame_parts_opts(&msg, trace, budget);
        prop_assert_eq!(parts.len(), overhead + symbolic_payload_len(&msg));
        // The split encode is bit-identical to the owned encode: the
        // zero-copy path may never change what goes on the wire.
        let (prefix, body) = msg.split_payload();
        let mut joined = prefix;
        joined.extend_from_slice(body);
        prop_assert_eq!(joined, msg.encode_payload());
    }
}
