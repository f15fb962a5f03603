//! Harness-side spans: one record around every call the benchmark makes
//! into a layer's public function. Spans stay in memory until the run
//! ends; nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed call. `parent` is the id of the span that caused it (0 for
/// a root); spans of one op share `op` (0 for probes outside any op).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans while `on`; costs one branch per call while off, so
/// the untraced and the traced run execute the same harness code.
pub struct Tracer {
    epoch: Instant,
    pub on: bool,
    op: u64,
    ops: u64,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on: false,
            op: 0,
            ops: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans recorded from now on belong to the next op (1, 2, …).
    pub fn next_op(&mut self) {
        self.ops += 1;
        self.op = self.ops;
    }

    /// Spans recorded from now on belong to no op: probes.
    pub fn probes(&mut self) {
        self.op = 0;
    }

    /// Run `f` inside a span named `name`, a child of whichever span is
    /// open. `f` receives the tracer back so it can open children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize - 1].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus
/// the durations of its direct children. One thread records the spans
/// through a stack, so children lie inside their parent, one after
/// another.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut in_children: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *in_children.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let children = in_children.get(&s.id).copied().unwrap_or(0);
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(children);
    }
    out
}

/// The span file: every span plus the self-time table derived from them.
pub fn trace_document(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let us = |ns: u64| Json::Num(ns as f64 / 1e3);
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        (
            "clock",
            Json::str("microseconds since the tracer was created; parent 0 = root; op 0 = probe"),
        ),
        (
            "self_time_us",
            Json::Obj(
                self_time_ns(spans)
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), us(v)))
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("id", Json::Num(f64::from(s.id))),
                            ("parent", Json::Num(f64::from(s.parent))),
                            ("op", Json::Num(s.op as f64)),
                            ("name", Json::str(s.name)),
                            ("start_us", us(s.start_ns)),
                            ("end_us", us(s.end_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "read", 10, 40),
            span(3, 1, "check", 50, 70),
            span(4, 2, "decode", 15, 25),
        ];
        let t = self_time_ns(&spans);
        assert_eq!(t["op"], 100 - 30 - 20);
        assert_eq!(t["read"], 30 - 10);
        assert_eq!(t["check"], 20);
        assert_eq!(t["decode"], 10);
    }

    #[test]
    fn tracer_nests_records_only_while_on_and_tags_the_op() {
        let mut t = Tracer::new();
        assert_eq!(t.span("ignored", |_| 7), 7);
        assert!(t.spans().is_empty());
        t.on = true;
        t.next_op();
        t.span("outer", |t| t.span("inner", |_| ()));
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", 0, 1));
        assert_eq!((s[1].name, s[1].parent), ("inner", s[0].id));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
