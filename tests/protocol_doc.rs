//! `docs/PROTOCOL.md` is the wire protocol's spec for humans: its RPC
//! table, its error table and its fault-injection grammar must name
//! what `das::net` implements. The wire behaviour itself (roundtrips,
//! refused opcodes and flag bits, the handshake) is held by das-net's
//! own tests.

use std::collections::BTreeMap;

use das::net::{ErrorCode, FaultClass, Message, KNOWN_OPCODES};

const DOC: &str = include_str!("../docs/PROTOCOL.md");

/// A markdown table cell like `` `0x01` `` or `` `Hello` `` with the
/// backticks stripped; `None` when the cell is not one code span.
fn code_span(cell: &str) -> Option<&str> {
    cell.trim().strip_prefix('`')?.strip_suffix('`')
}

/// The `(opcode, message)` rows of the RPC table and the
/// `(code, name)` rows of the error table.
fn doc_tables() -> (BTreeMap<u8, &'static str>, BTreeMap<u16, &'static str>) {
    let mut rpc = BTreeMap::new();
    let mut errors = BTreeMap::new();
    for line in DOC.lines().map(str::trim).filter(|l| l.starts_with('|')) {
        let cells: Vec<&str> = line.trim_matches('|').split('|').collect();
        let Some(name) = cells.get(1).and_then(|c| code_span(c)) else {
            continue;
        };
        if let Some(hex) = code_span(cells[0]).and_then(|op| op.strip_prefix("0x")) {
            let opcode =
                u8::from_str_radix(hex, 16).unwrap_or_else(|_| panic!("bad opcode in row {line}"));
            assert!(
                rpc.insert(opcode, name).is_none(),
                "opcode 0x{opcode:02x} documented twice"
            );
        } else if let Ok(code) = cells[0].trim().parse::<u16>() {
            assert!(
                errors.insert(code, name).is_none(),
                "error code {code} documented twice"
            );
        }
    }
    (rpc, errors)
}

/// The variant name of a message from its Debug rendering, e.g.
/// `Hello { .. }` → `Hello`: what the RPC table's `message` column
/// spells.
fn variant_name(msg: &Message) -> String {
    let dbg = format!("{msg:?}");
    dbg.split([' ', '{', '('])
        .next()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn every_message_has_an_rpc_table_row_naming_it() {
    let (rpc, _) = doc_tables();
    for msg in Message::samples() {
        let opcode = msg.opcode();
        let name = variant_name(&msg);
        assert_eq!(
            rpc.get(&opcode).copied(),
            Some(name.as_str()),
            "docs/PROTOCOL.md RPC table, opcode 0x{opcode:02x}"
        );
    }
}

#[test]
fn every_documented_opcode_is_implemented() {
    let (rpc, _) = doc_tables();
    for (opcode, name) in rpc {
        assert!(
            KNOWN_OPCODES.contains(&opcode),
            "docs/PROTOCOL.md documents `{name}` at opcode 0x{opcode:02x}, which the code does not implement"
        );
    }
}

#[test]
fn the_error_table_is_error_code_all_dense_from_one() {
    let (_, errors) = doc_tables();
    let documented: Vec<(u16, &str)> = errors.into_iter().collect();
    let implemented: Vec<(u16, &str)> = ErrorCode::ALL
        .iter()
        .map(|&c| (c as u16, c.name()))
        .collect();
    let dense: Vec<u16> = (1..=ErrorCode::ALL.len() as u16).collect();
    assert_eq!(
        implemented
            .iter()
            .map(|&(wire, _)| wire)
            .collect::<Vec<_>>(),
        dense,
        "ErrorCode::ALL wire values"
    );
    assert_eq!(documented, implemented, "docs/PROTOCOL.md error table");
}

#[test]
fn every_fault_class_is_documented() {
    for class in FaultClass::ALL {
        let span = format!("`{}`", class.name());
        assert!(
            DOC.contains(&span),
            "fault class {span} is accepted by `dasd --fault` but not documented"
        );
    }
}

#[test]
fn the_runs_section_documents_every_run_refusal() {
    let start = DOC.find("\n### Runs\n").expect("docs/PROTOCOL.md has a \"Runs\" section");
    let section = &DOC[start + 1..];
    let section = &section[..section[4..].find("\n#").map_or(section.len(), |end| end + 4)];
    for term in ["`GetStrips`", "`PutStrip`", "`StripData`", "checksum"] {
        assert!(section.contains(term), "the \"Runs\" section never mentions {term}");
    }
    // The refusal table: each row's second cell is the code a daemon
    // answers with (`tests/strip_runs.rs` provokes each one).
    let mut refusals: Vec<&str> = section
        .lines()
        .filter(|l| l.trim_start().starts_with('|'))
        .filter_map(|l| l.trim().trim_matches('|').split('|').nth(1).and_then(code_span))
        .collect();
    refusals.sort_unstable();
    refusals.dedup();
    assert_eq!(refusals, ["BadRequest", "OutOfBounds", "StripLengthMismatch", "StripNotLocal"]);
    for name in refusals {
        assert!(ErrorCode::ALL.iter().any(|c| c.name() == name), "`{name}` is no error code");
    }
}
