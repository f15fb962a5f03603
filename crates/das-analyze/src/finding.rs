//! The finding model shared by every analysis pass: a typed code, a
//! severity, an entity anchor (`file:line` or a logical entity like a
//! message variant or grid cell), and a human-readable message. Findings are
//! machine-readable — the CLI renders them as aligned text or JSON
//! lines — and drive the exit code in `--deny` mode.

use std::fmt;

use das_obs::json_string;

/// How bad a finding is.
///
/// * [`Severity::Info`] — a proof or a summary the pass wants on the
///   record (a verified frame size, an allocation-free write path). Never
///   fails a build.
/// * [`Severity::Warning`] — a smell that deserves a look (a Relaxed
///   load feeding control flow). Fails `--deny`.
/// * [`Severity::Error`] — a correctness hazard (an unchecked wire
///   length, a lock-order inversion). Fails `--deny`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: proofs, summaries, canonical orders.
    Info,
    /// Suspicious but not provably wrong.
    Warning,
    /// A correctness hazard; `--deny` fails the build.
    Error,
}

impl Severity {
    /// Lower-case label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable finding code (`DA501`…); `docs/ANALYSIS.md` is the
    /// registry.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// The pass that produced it (`registry`, `taint`, `locks`, …).
    pub pass: &'static str,
    /// What the finding is about: `file:line` for source-anchored
    /// findings, otherwise a logical entity (message variant, grid
    /// cell).
    pub entity: String,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Build a finding.
    pub fn new(
        code: &'static str,
        severity: Severity,
        pass: &'static str,
        entity: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Finding { code, severity, pass, entity: entity.into(), message: message.into() }
    }

    /// Render as one JSON object (hand-rolled: the workspace is
    /// dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"pass\":\"{}\",\"entity\":{},\"message\":{}}}",
            self.code,
            self.severity.label(),
            self.pass,
            json_string(&self.entity),
            json_string(&self.message),
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:7} {} [{}] {}: {}",
            self.severity.label(),
            self.code,
            self.pass,
            self.entity,
            self.message
        )
    }
}

/// The result of running one or more passes.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, in pass order.
    pub findings: Vec<Finding>,
}

impl Report {
    /// The most severe finding present, if any.
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Whether `--deny` should fail: any warning- or error-level
    /// finding.
    pub fn denied(&self) -> bool {
        self.worst().is_some_and(|s| s >= Severity::Warning)
    }

    /// Findings at or above `min`.
    pub fn at_least(&self, min: Severity) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.severity >= min)
    }

    /// Count findings per severity: `(info, warning, error)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for f in &self.findings {
            match f.severity {
                Severity::Info => c.0 += 1,
                Severity::Warning => c.1 += 1,
                Severity::Error => c.2 += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_denies() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        let mut r = Report::default();
        assert!(!r.denied());
        r.findings.push(Finding::new("DA500", Severity::Info, "taint", "x", "ok"));
        assert!(!r.denied());
        assert_eq!(r.worst(), Some(Severity::Info));
        r.findings.push(Finding::new("DA711", Severity::Warning, "atomics", "k", "relaxed"));
        assert!(r.denied());
        assert_eq!(r.counts(), (1, 1, 0));
    }

    #[test]
    fn a_finding_is_one_json_object_with_its_strings_escaped() {
        let f = Finding::new("DA501", Severity::Error, "taint", "f:1", "bad \"x\"");
        let j = f.to_json();
        assert!(j.contains("\\\"x\\\""), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }
}
