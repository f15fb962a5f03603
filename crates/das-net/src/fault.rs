//! Deterministic fault injection for `dasd`.
//!
//! A [`FaultPlan`] is a list of rules a daemon consults at two points:
//! when it accepts a connection, and when it is about to answer a
//! request. Each rule names a connection class, an action, and how
//! often to fire (a countdown and/or a probability). Probabilistic
//! rules draw from the in-tree seeded `rand` shim, so a chaos run with
//! a fixed seed replays **identically** — no wall clock or OS
//! randomness anywhere in the plan.
//!
//! The five actions cover the failure modes the fault-tolerance layer
//! must survive:
//!
//! | action      | wire effect                                        |
//! |-------------|----------------------------------------------------|
//! | `refuse`    | accept then immediately close (connect-level death) |
//! | `drop`      | send a *partial* reply frame, then close (mid-frame cut) |
//! | `delay=MS`  | sleep before answering (straggler / timeout path)  |
//! | `retryable` | answer `Error { code: Retryable }` (transient refusal) |
//! | `corrupt`   | answer with a flipped CRC trailer byte (corruption) |
//!
//! Plans are parsed from the `dasd --fault` flag / `DASD_FAULT` env
//! var; see [`FaultPlan::parse`] for the grammar.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::server::ConnClass;

/// Which connections a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The accept path, before any frame is exchanged.
    Accept,
    /// Requests on client↔server connections.
    Client,
    /// Requests on server↔server connections.
    Server,
    /// Requests on either connection class (not the accept path).
    AnyRequest,
    /// Redistribution requests (`RedistPrepare`/`RedistCommit`) from
    /// clients. Peer traffic is exempt so a chaos run stays
    /// deterministic at the request level.
    Redist,
    /// `Execute` requests from clients.
    Exec,
    /// Strip reads (`GetStrip`/`GetStrips`) from clients.
    Get,
}

impl FaultClass {
    /// Every fault class, in the order `docs/PROTOCOL.md` documents
    /// them. The root package's `tests/protocol_doc.rs` iterates this
    /// to prove the doc and the [`FaultPlan::parse`] grammar agree.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::Accept,
        FaultClass::Client,
        FaultClass::Server,
        FaultClass::AnyRequest,
        FaultClass::Redist,
        FaultClass::Exec,
        FaultClass::Get,
    ];

    /// The spelling [`FaultPlan::parse`] accepts for this class.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Accept => "accept",
            FaultClass::Client => "client",
            FaultClass::Server => "server",
            FaultClass::AnyRequest => "any",
            FaultClass::Redist => "redist",
            FaultClass::Exec => "exec",
            FaultClass::Get => "get",
        }
    }
}

/// What a firing rule does to the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Close the connection immediately after accepting it.
    RefuseAccept,
    /// Write roughly half of the reply frame, then close the socket.
    DropMidFrame,
    /// Sleep this many milliseconds before answering normally.
    Delay {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
    /// Answer with a typed transient error instead of the real reply.
    Retryable,
    /// Answer with the real reply but a corrupted CRC trailer.
    CorruptCrc,
}

/// One injection rule: class + action + firing budget.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Connections the rule matches.
    pub class: FaultClass,
    /// What happens when it fires.
    pub action: FaultAction,
    /// How many times the rule may fire (`u64::MAX` = unlimited).
    pub count: u64,
    /// Probability of firing when eligible (1.0 = always).
    pub prob: f64,
}

/// Where the daemon is when it consults the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// A connection was just accepted.
    Accept,
    /// A request is about to be answered.
    Request {
        /// The connection's traffic class.
        class: ConnClass,
        /// The request's opcode (drives the op-targeted classes).
        opcode: u8,
    },
}

/// A parsed, seeded fault plan. Cheap to share (`Arc`) between the
/// daemon's accept loop and its connection handlers; the per-rule
/// countdowns and the RNG are interior-mutable.
#[derive(Debug)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    remaining: Vec<AtomicU64>,
    fired: Vec<AtomicU64>,
    rng: Mutex<StdRng>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: never injects anything.
    pub fn none() -> Self {
        FaultPlan::from_rules(Vec::new(), 0)
    }

    /// Build a plan from explicit rules and an RNG seed (used only by
    /// probabilistic rules).
    pub fn from_rules(rules: Vec<FaultRule>, seed: u64) -> Self {
        let remaining = rules.iter().map(|r| AtomicU64::new(r.count)).collect();
        let fired = rules.iter().map(|_| AtomicU64::new(0)).collect();
        FaultPlan { rules, remaining, fired, rng: Mutex::new(StdRng::seed_from_u64(seed)) }
    }

    /// Parse a plan spec: comma-separated rules, each
    /// `class:action[:modifier]*`.
    ///
    /// * class — `accept`, `client`, `server`, `any`, or an
    ///   op-targeted class hitting only client requests of one kind:
    ///   `redist` (`RedistPrepare`/`RedistCommit`), `exec`
    ///   (`Execute`), `get` (`GetStrip`)
    /// * action — `refuse` (accept class only), `drop`, `delay=MS`,
    ///   `retryable`, `corrupt`
    /// * modifiers — `xN` (fire at most N times; default unlimited)
    ///   and `pF` (fire with probability F; default 1.0)
    ///
    /// Examples: `client:drop:x2`, `server:retryable:p0.25`,
    /// `accept:refuse`, `any:delay=50:x3`, `redist:retryable:x4`.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for rule_spec in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let mut parts = rule_spec.split(':');
            let class = match parts.next() {
                Some("accept") => FaultClass::Accept,
                Some("client") => FaultClass::Client,
                Some("server") => FaultClass::Server,
                Some("any") => FaultClass::AnyRequest,
                Some("redist") => FaultClass::Redist,
                Some("exec") => FaultClass::Exec,
                Some("get") => FaultClass::Get,
                other => return Err(format!("bad fault class {other:?} in {rule_spec:?}")),
            };
            let action = match parts.next() {
                Some("refuse") => FaultAction::RefuseAccept,
                Some("drop") => FaultAction::DropMidFrame,
                Some("retryable") => FaultAction::Retryable,
                Some("corrupt") => FaultAction::CorruptCrc,
                Some(a) if a.starts_with("delay=") => {
                    let millis = a["delay=".len()..]
                        .parse()
                        .map_err(|_| format!("bad delay in {rule_spec:?}"))?;
                    FaultAction::Delay { millis }
                }
                other => return Err(format!("bad fault action {other:?} in {rule_spec:?}")),
            };
            match (class, action) {
                (FaultClass::Accept, FaultAction::RefuseAccept | FaultAction::Delay { .. }) => {}
                (FaultClass::Accept, _) => {
                    return Err(format!(
                        "{rule_spec:?}: accept-class rules support only refuse/delay"
                    ))
                }
                (_, FaultAction::RefuseAccept) => {
                    return Err(format!("{rule_spec:?}: refuse applies only to the accept class"))
                }
                _ => {}
            }
            let mut count = u64::MAX;
            let mut prob = 1.0f64;
            for m in parts {
                if let Some(n) = m.strip_prefix('x') {
                    count = n.parse().map_err(|_| format!("bad count in {rule_spec:?}"))?;
                } else if let Some(p) = m.strip_prefix('p') {
                    prob = p.parse().map_err(|_| format!("bad probability in {rule_spec:?}"))?;
                    if !(0.0..=1.0).contains(&prob) {
                        return Err(format!("probability out of [0,1] in {rule_spec:?}"));
                    }
                } else {
                    return Err(format!("bad modifier {m:?} in {rule_spec:?}"));
                }
            }
            rules.push(FaultRule { class, action, count, prob });
        }
        Ok(FaultPlan::from_rules(rules, seed))
    }

    /// Whether the plan has no rules at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Consult the plan at `point`. The first matching rule with
    /// budget left (and a winning probability draw) fires and returns
    /// its action.
    pub fn decide(&self, point: FaultPoint) -> Option<FaultAction> {
        for (i, rule) in self.rules.iter().enumerate() {
            let matches = match (rule.class, point) {
                (FaultClass::Accept, FaultPoint::Accept) => true,
                (FaultClass::Client, FaultPoint::Request { class: ConnClass::Client, .. }) => true,
                (FaultClass::Server, FaultPoint::Request { class: ConnClass::Server, .. }) => true,
                (FaultClass::AnyRequest, FaultPoint::Request { .. }) => true,
                (FaultClass::Redist, FaultPoint::Request { class: ConnClass::Client, opcode }) => {
                    opcode == 0x20 || opcode == 0x22
                }
                (FaultClass::Exec, FaultPoint::Request { class: ConnClass::Client, opcode }) => {
                    opcode == 0x30
                }
                (FaultClass::Get, FaultPoint::Request { class: ConnClass::Client, opcode }) => {
                    opcode == 0x14 || opcode == 0x1A
                }
                _ => false,
            };
            if !matches {
                continue;
            }
            if rule.prob < 1.0 && !self.rng.lock().unwrap_or_else(|e| e.into_inner()).gen_bool(rule.prob)
            {
                continue;
            }
            // Claim one unit of budget; a concurrent handler may win
            // the last unit, in which case this rule is spent.
            let claimed = self.remaining[i]
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                    if left == 0 {
                        None
                    } else if left == u64::MAX {
                        Some(u64::MAX) // unlimited: never decrement
                    } else {
                        Some(left - 1)
                    }
                })
                .is_ok();
            if claimed {
                self.fired[i].fetch_add(1, Ordering::SeqCst);
                return Some(rule.action);
            }
        }
        None
    }

    /// How many times each rule has fired, in rule order.
    pub fn fired(&self) -> Vec<u64> {
        self.fired.iter().map(|f| f.load(Ordering::SeqCst)).collect()
    }

    /// Total injections across all rules.
    pub fn total_fired(&self) -> u64 {
        self.fired().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_enumerated_class_name_parses() {
        for class in FaultClass::ALL {
            // The accept path supports only refuse/delay actions.
            let action = if class == FaultClass::Accept { "refuse" } else { "retryable" };
            let plan = FaultPlan::parse(&format!("{}:{action}", class.name()), 0).unwrap();
            assert!(!plan.is_empty(), "class {:?}", class);
        }
    }

    #[test]
    fn parse_roundtrip_and_budget() {
        let plan = FaultPlan::parse("client:drop:x2,server:retryable,accept:refuse:x1", 7).unwrap();
        assert!(!plan.is_empty());
        // Client drops fire exactly twice.
        assert_eq!(plan.decide(FaultPoint::Request { class: ConnClass::Client, opcode: 0x12 }), Some(FaultAction::DropMidFrame));
        assert_eq!(plan.decide(FaultPoint::Request { class: ConnClass::Client, opcode: 0x12 }), Some(FaultAction::DropMidFrame));
        assert_eq!(plan.decide(FaultPoint::Request { class: ConnClass::Client, opcode: 0x12 }), None);
        // Server rule is unlimited.
        for _ in 0..10 {
            assert_eq!(
                plan.decide(FaultPoint::Request { class: ConnClass::Server, opcode: 0x12 }),
                Some(FaultAction::Retryable)
            );
        }
        // Accept refusal fires once.
        assert_eq!(plan.decide(FaultPoint::Accept), Some(FaultAction::RefuseAccept));
        assert_eq!(plan.decide(FaultPoint::Accept), None);
        assert_eq!(plan.fired(), vec![2, 10, 1]);
        assert_eq!(plan.total_fired(), 13);
    }

    #[test]
    fn any_matches_both_request_classes_but_not_accept() {
        let plan = FaultPlan::parse("any:delay=5", 0).unwrap();
        assert_eq!(
            plan.decide(FaultPoint::Request { class: ConnClass::Client, opcode: 0x12 }),
            Some(FaultAction::Delay { millis: 5 })
        );
        assert_eq!(
            plan.decide(FaultPoint::Request { class: ConnClass::Server, opcode: 0x12 }),
            Some(FaultAction::Delay { millis: 5 })
        );
        assert_eq!(plan.decide(FaultPoint::Accept), None);
    }

    #[test]
    fn op_targeted_classes_match_only_their_client_requests() {
        let plan = FaultPlan::parse("redist:retryable:x2,exec:drop:x1,get:delay=5", 0).unwrap();
        // Wrong opcode: nothing fires.
        assert_eq!(plan.decide(FaultPoint::Request { class: ConnClass::Client, opcode: 0x12 }), None);
        // Server-class traffic is exempt even on matching opcodes.
        assert_eq!(plan.decide(FaultPoint::Request { class: ConnClass::Server, opcode: 0x30 }), None);
        assert_eq!(plan.decide(FaultPoint::Request { class: ConnClass::Server, opcode: 0x14 }), None);
        // Both redistribution phases hit the redist budget.
        assert_eq!(
            plan.decide(FaultPoint::Request { class: ConnClass::Client, opcode: 0x20 }),
            Some(FaultAction::Retryable)
        );
        assert_eq!(
            plan.decide(FaultPoint::Request { class: ConnClass::Client, opcode: 0x22 }),
            Some(FaultAction::Retryable)
        );
        assert_eq!(plan.decide(FaultPoint::Request { class: ConnClass::Client, opcode: 0x20 }), None);
        assert_eq!(
            plan.decide(FaultPoint::Request { class: ConnClass::Client, opcode: 0x30 }),
            Some(FaultAction::DropMidFrame)
        );
        assert_eq!(
            plan.decide(FaultPoint::Request { class: ConnClass::Client, opcode: 0x14 }),
            Some(FaultAction::Delay { millis: 5 })
        );
        assert_eq!(plan.fired(), vec![2, 1, 1]);
    }

    #[test]
    fn probabilistic_rules_are_seed_deterministic() {
        let decide_all = |seed| {
            let plan = FaultPlan::parse("client:retryable:p0.5", seed).unwrap();
            (0..64)
                .map(|_| plan.decide(FaultPoint::Request { class: ConnClass::Client, opcode: 0x12 }).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(decide_all(42), decide_all(42), "same seed, same stream");
        assert_ne!(decide_all(42), decide_all(43), "different seed, different stream");
        let hits = decide_all(42).iter().filter(|&&h| h).count();
        assert!((10..=54).contains(&hits), "p=0.5 over 64 draws fired {hits} times");
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "bogus:drop",
            "client:refuse",          // refuse is accept-only
            "accept:corrupt",         // corrupt needs a reply to corrupt
            "client:drop:y3",         // unknown modifier
            "client:delay=abc",       // bad delay
            "client:retryable:p1.5",  // probability out of range
        ] {
            assert!(FaultPlan::parse(bad, 0).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn empty_spec_is_the_empty_plan() {
        let plan = FaultPlan::parse("", 0).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.decide(FaultPoint::Accept), None);
    }
}
