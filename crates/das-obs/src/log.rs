//! Leveled, targeted structured events.
//!
//! One global level gate (`DASD_LOG=error|warn|info|debug|trace|off`,
//! default `info`) and one global sink format: a compact
//! `[LEVEL target] msg key=value…` human line on stderr, or — with
//! `DASD_LOG_FORMAT=json` — one JSON object per line.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// Event severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed; somebody should look.
    Error = 1,
    /// Degraded but proceeding (failover, retry exhaustion nearby).
    Warn = 2,
    /// Lifecycle landmarks (listening, shutdown, decisions).
    Info = 3,
    /// Per-request detail (dispatch, retries, fault injection).
    Debug = 4,
    /// Per-frame detail (trace ids, byte counts).
    Trace = 5,
}

impl Level {
    /// Parse a level name, case-insensitively.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static JSON: AtomicBool = AtomicBool::new(false);

/// Set the global maximum level; events above it are dropped.
pub fn set_level(l: Level) {
    MAX_LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Silence every event, including errors.
pub fn disable() {
    MAX_LEVEL.store(0, Ordering::Relaxed);
}

/// Would an event at `l` currently be emitted?
pub fn enabled(l: Level) -> bool {
    l as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Switch between the human sink (false) and JSON lines (true).
pub fn set_json(on: bool) {
    JSON.store(on, Ordering::Relaxed);
}

/// Configure level and format from `DASD_LOG` / `DASD_LOG_FORMAT`.
/// Unknown values are ignored; `DASD_LOG=off` silences everything.
pub fn init_from_env() {
    if let Ok(v) = std::env::var("DASD_LOG") {
        if v.trim().eq_ignore_ascii_case("off") {
            disable();
        } else if let Some(l) = Level::parse(&v) {
            set_level(l);
        }
    }
    if let Ok(v) = std::env::var("DASD_LOG_FORMAT") {
        set_json(v.trim().eq_ignore_ascii_case("json"));
    }
}

/// Escape `s` as a JSON string literal, quotes included.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn field_needs_quoting(v: &str) -> bool {
    v.is_empty() || v.contains(|c: char| c.is_whitespace() || c == '"' || c == '=')
}

/// Emit one structured event if `level` passes the global gate.
///
/// `target` names the subsystem (`dasd`, `das-net::client`, …);
/// `fields` are key/value context rendered after the message.
pub fn event(level: Level, target: &str, msg: &str, fields: &[(&str, String)]) {
    if !enabled(level) {
        return;
    }
    let stderr = std::io::stderr();
    let mut w = stderr.lock();
    // das-lint: allow(DA711) format-mode flag — both branches render the same already-local data, no publication edge needed
    if JSON.load(Ordering::Relaxed) {
        let mut line = format!(
            "{{\"level\":\"{}\",\"target\":{},\"msg\":{}",
            level.as_str().to_ascii_lowercase(),
            json_string(target),
            json_string(msg)
        );
        for (k, v) in fields {
            line.push_str(&format!(",{}:{}", json_string(k), json_string(v)));
        }
        line.push('}');
        let _ = writeln!(w, "{line}");
    } else {
        let mut line = format!("[{:<5} {target}] {msg}", level.as_str());
        for (k, v) in fields {
            if field_needs_quoting(v) {
                line.push_str(&format!(" {k}={:?}", v));
            } else {
                line.push_str(&format!(" {k}={v}"));
            }
        }
        let _ = writeln!(w, "{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_and_gating() {
        assert_eq!(Level::parse("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
        set_level(Level::Warn);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_level(Level::Info);
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
    }

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
