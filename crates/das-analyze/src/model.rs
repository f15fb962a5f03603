//! Pass — bounded protocol model checker (`DA6xx`).
//!
//! Exhaustively explores the client↔daemon session state machine —
//! Hello/HelloOk caps negotiation × CRC/trace framing × retry/backoff
//! × circuit-breaker open/half-open/closed × the DAS → NAS → TS
//! degradation ladder — by breadth-first search over a bounded
//! abstract state (logical clock, attempt counter, breaker deadline,
//! server-side create count). The abstraction covers the *ordering*;
//! the *artifacts* are real: every frame shape a session can put on
//! the wire is encoded and decoded through the production
//! [`das_net::codec`] (including legacy CRC-less framing and a
//! corrupted-CRC probe), and every retry step prices its clock
//! advance with the production [`RetryPolicy::backoff`], whose cap
//! and floor are asserted per call.
//!
//! Invariants checked on every transition (BFS ⇒ a violation's
//! counterexample trace is minimal):
//!
//! * `DA601` — **liveness**: no stuck non-terminal state below the
//!   clock bound, and the ladder never gives up without the
//!   guaranteed-success normal-I/O (TS) rung.
//! * `DA602` — **CreateFile idempotence**: a retransmitted
//!   `CreateFile` (ack lost) must not create a second file.
//! * `DA603` — **breaker recoverability**: once a breaker's cooldown
//!   expires, a half-open probe must be offered — a rebooted peer
//!   rejoins.
//! * `DA604` — **frame discipline**: every frame round-trips through
//!   the real codec; `FLAG_TRACE` is never sent to a peer that did
//!   not advertise `CAP_TRACE`; negotiated caps are monotone (never
//!   exceed either side's advertisement); a corrupted CRC frame is
//!   rejected.
//! * `DA605` — **ladder order**: degradation descends one rung at a
//!   time, DAS → NAS → TS.
//! * `DA606` — **retry discipline**: the retry loop never exceeds
//!   `max_attempts`, and each real backoff respects the configured
//!   cap and floor.
//!
//! `DA600` (info) reports the explored-state count. Seeded defects —
//! read from `<root>/analyze/model-defects.txt`, one name per line —
//! mutate the model the way a regression would mutate the code, and
//! each must produce a counterexample (reported as the matching
//! `DA60x` error); a defect that explores clean is `DA607` drift.
//! The real repository ships no defect file, so the pass is clean.

use std::collections::{HashMap, VecDeque};
use std::path::Path;

use das_net::codec::{encode_frame_opts, read_frame, FLAG_CRC};
use das_net::proto::{Message, Role, CAP_CRC, CAP_TRACE};
use das_net::RetryPolicy;
use das_pfs::LayoutPolicy;

use crate::finding::{Finding, Severity};

const PASS: &str = "model";

/// Logical-clock bound. States at the bound are exploration frontier,
/// exempt from the stuck-state check.
const CLOCK_MAX: u8 = 12;
/// Breaker cooldown in logical ticks.
const COOLDOWN: u8 = 3;
/// Trace id used for traced frames.
const TRACE_ID: u64 = 0xDA5_0BEEF;

/// Seeded defects: each mutates the model the way a code regression
/// would, and must be caught by exactly one invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Defect {
    /// Server assigns a fresh file id to a retransmitted CreateFile.
    DupCreate,
    /// Breaker never half-opens after its cooldown.
    NoHalfOpen,
    /// Sender attaches FLAG_TRACE without the negotiated capability.
    FlagUnnegotiated,
    /// Degradation jumps DAS → TS, skipping NAS.
    LadderSkip,
    /// Client gives up after NAS instead of falling back to TS.
    NoTsFallback,
    /// Retry loop ignores the attempt budget.
    RetryUnbounded,
}

impl Defect {
    fn parse(name: &str) -> Option<Defect> {
        Some(match name {
            "create-file-dup-id" => Defect::DupCreate,
            "breaker-no-half-open" => Defect::NoHalfOpen,
            "flag-unnegotiated" => Defect::FlagUnnegotiated,
            "ladder-skip" => Defect::LadderSkip,
            "no-ts-fallback" => Defect::NoTsFallback,
            "retry-unbounded" => Defect::RetryUnbounded,
            _ => return None,
        })
    }
}

/// One model configuration: advertised caps on each side, the retry
/// policy under test, and an optional seeded defect.
struct Cfg {
    ccaps: u32,
    scaps: u32,
    policy: RetryPolicy,
    defect: Option<Defect>,
}

impl Cfg {
    fn negotiated(&self) -> u32 {
        self.ccaps & self.scaps
    }
}

/// Degradation rung of the Fig. 3 ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Rung {
    Das,
    Nas,
    Ts,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    Run,
    Done,
    Failed,
}

/// Abstract session state. Small and hashable — BFS dedups on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct State {
    phase: Phase,
    /// 0 = Hello, 1 = CreateFile, 2 = PutStrip, 3 = execute ladder.
    op: u8,
    rung: Rung,
    attempt: u8,
    clock: u8,
    /// 0 = breaker closed; otherwise the tick the cooldown expires.
    breaker_until: u8,
    /// Server-side file count for the one name created (capped at 2).
    files: u8,
    create_acked: bool,
}

impl State {
    fn init() -> State {
        State {
            phase: Phase::Run,
            op: 0,
            rung: Rung::Das,
            attempt: 0,
            clock: 0,
            breaker_until: 0,
            files: 0,
            create_acked: false,
        }
    }
}

/// A violated invariant with its minimal counterexample.
#[derive(Debug)]
struct Violation {
    code: &'static str,
    message: String,
    trace: Vec<String>,
}

/// One transition out of a state.
struct Succ {
    label: String,
    next: State,
    violation: Option<(&'static str, String)>,
}

fn succ(label: impl Into<String>, next: State) -> Succ {
    Succ { label: label.into(), next, violation: None }
}

fn violation(label: impl Into<String>, next: State, code: &'static str, msg: String) -> Succ {
    Succ { label: label.into(), next, violation: Some((code, msg)) }
}

/// Exploration result for one configuration.
struct Explored {
    states: usize,
    transitions: usize,
    frames: usize,
    violation: Option<Violation>,
}

/// The exploration grid: the production default and the chaos-test
/// retry policy, each under three jitter seeds (distinct real
/// backoff streams), crossed with every caps combination.
fn grids() -> (Vec<RetryPolicy>, Vec<(u32, u32)>) {
    let policies: Vec<RetryPolicy> = [0x05ee_dda5u64, 0xDA5, 1]
        .iter()
        .flat_map(|&seed| {
            let fast = RetryPolicy { jitter_seed: seed, ..RetryPolicy::fast() };
            let def = RetryPolicy { jitter_seed: seed, ..RetryPolicy::default() };
            [fast, def]
        })
        .collect();
    let caps_grid: Vec<(u32, u32)> = (0..4u32)
        .flat_map(|c| (0..4u32).map(move |s| (c, s)))
        .collect();
    (policies, caps_grid)
}

/// Run the model checker against a repository root.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();

    let (policies, caps_grid) = grids();

    // Baseline: every caps combo × every policy, no defect. The real
    // protocol must hold every invariant.
    let mut states = 0usize;
    let mut transitions = 0usize;
    let mut frames = 0usize;
    let mut first_violation: Option<Violation> = None;
    for policy in &policies {
        for &(ccaps, scaps) in &caps_grid {
            let cfg = Cfg { ccaps, scaps, policy: policy.clone(), defect: None };
            let ex = explore(&cfg);
            states += ex.states;
            transitions += ex.transitions;
            frames += ex.frames;
            if first_violation.is_none() {
                first_violation = ex.violation;
            }
        }
    }
    match first_violation {
        None => out.push(Finding::new(
            "DA600",
            Severity::Info,
            PASS,
            "das-net session protocol",
            format!(
                "explored {states} states / {transitions} transitions across {} configurations ({} frame shapes through the real codec); all invariants hold",
                policies.len() * caps_grid.len(),
                frames
            ),
        )),
        Some(v) => out.push(Finding::new(
            v.code,
            Severity::Error,
            PASS,
            "das-net session protocol",
            format!("{} — counterexample: {}", v.message, render_trace(&v.trace)),
        )),
    }

    // Seeded defects: each must produce a counterexample.
    for name in read_defects(root) {
        let Some(defect) = Defect::parse(&name) else {
            out.push(Finding::new(
                "DA607",
                Severity::Warning,
                PASS,
                "analyze/model-defects.txt",
                format!("unknown defect `{name}` — the defect list and the model drifted"),
            ));
            continue;
        };
        let mut found = None;
        'search: for policy in &policies {
            for &(ccaps, scaps) in &caps_grid {
                let cfg = Cfg { ccaps, scaps, policy: policy.clone(), defect: Some(defect) };
                if let Some(v) = explore(&cfg).violation {
                    found = Some(v);
                    break 'search;
                }
            }
        }
        match found {
            Some(v) => out.push(Finding::new(
                v.code,
                Severity::Error,
                PASS,
                format!("model-defect:{name}"),
                format!("{} — counterexample: {}", v.message, render_trace(&v.trace)),
            )),
            None => out.push(Finding::new(
                "DA607",
                Severity::Warning,
                PASS,
                format!("model-defect:{name}"),
                "seeded defect produced no counterexample — an invariant stopped checking what it claims to".to_string(),
            )),
        }
    }
    out
}

/// The seeded-defect list at `<root>/analyze/model-defects.txt`:
/// trimmed lines, comments and blanks skipped.
fn read_defects(root: &Path) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(root.join("analyze/model-defects.txt")) else {
        return Vec::new();
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

fn render_trace(steps: &[String]) -> String {
    let mut s = String::new();
    for (i, step) in steps.iter().enumerate() {
        if i > 0 {
            s.push_str(" → ");
        }
        s.push_str(&format!("[{}] {}", i + 1, step));
    }
    s
}

/// BFS over one configuration's session state machine.
fn explore(cfg: &Cfg) -> Explored {
    let mut ex = Explored { states: 0, transitions: 0, frames: 0, violation: None };

    // The wire layer first: every frame shape this configuration can
    // produce goes through the real codec.
    match wire_checks(cfg) {
        Ok(n) => ex.frames = n,
        Err(v) => {
            ex.violation = Some(v);
            return ex;
        }
    }

    let init = State::init();
    let mut states: Vec<State> = vec![init];
    let mut ids: HashMap<State, usize> = HashMap::from([(init, 0)]);
    // parent[id] = (parent id, label of the arriving transition).
    let mut parent: Vec<Option<(usize, String)>> = vec![None];
    let mut queue: VecDeque<usize> = VecDeque::from([0]);

    let trace_to = |id: usize, parent: &[Option<(usize, String)>], last: Option<String>| {
        let mut steps = Vec::new();
        let mut cur = id;
        while let Some((p, label)) = &parent[cur] {
            steps.push(label.clone());
            cur = *p;
        }
        steps.reverse();
        steps.insert(
            0,
            format!(
                "connect: client caps {:#x}, server caps {:#x} → negotiated {:#x}",
                cfg.ccaps,
                cfg.scaps,
                cfg.negotiated()
            ),
        );
        if let Some(l) = last {
            steps.push(l);
        }
        steps
    };

    while let Some(id) = queue.pop_front() {
        let s = states[id];
        ex.states += 1;
        let succs = successors(&s, cfg);
        if succs.is_empty() && s.phase == Phase::Run && s.clock < CLOCK_MAX {
            ex.violation = Some(Violation {
                code: "DA601",
                message: format!("stuck non-terminal state below the clock bound: {s:?}"),
                trace: trace_to(id, &parent, None),
            });
            return ex;
        }
        for sc in succs {
            ex.transitions += 1;
            if let Some((code, msg)) = sc.violation {
                ex.violation = Some(Violation {
                    code,
                    message: msg,
                    trace: trace_to(id, &parent, Some(sc.label)),
                });
                return ex;
            }
            if let std::collections::hash_map::Entry::Vacant(v) = ids.entry(sc.next) {
                let nid = states.len();
                v.insert(nid);
                states.push(sc.next);
                parent.push(Some((id, sc.label)));
                queue.push_back(nid);
            }
        }
    }
    ex
}

/// All transitions out of `s` under `cfg`, with any violated
/// invariant attached to the offending transition.
fn successors(s: &State, cfg: &Cfg) -> Vec<Succ> {
    let mut out = Vec::new();
    if s.phase != Phase::Run {
        return out;
    }
    match s.op {
        // Hello → HelloOk.
        0 => {
            let mut ok = *s;
            ok.op = 1;
            ok.attempt = 0;
            out.push(succ("hello/hello-ok exchange", ok));
            push_retry(&mut out, s, cfg, "hello frame lost", Exhaust::AbortTyped);
        }
        // CreateFile: the idempotence op. Delivery applies the
        // server-side effect whether or not the ack survives.
        1 => {
            let applied = apply_create(s, cfg);
            let mut ok = applied;
            ok.op = 2;
            ok.attempt = 0;
            ok.create_acked = true;
            out.push(check_create(succ("create-file ok", ok), cfg));
            if let Some(mut retry) = retried(s, cfg) {
                retry.files = applied.files;
                out.push(check_create(
                    succ(
                        format!(
                            "create-file applied, ack lost; retransmit (attempt {})",
                            s.attempt + 1
                        ),
                        retry,
                    ),
                    cfg,
                ));
            }
            push_retry(&mut out, s, cfg, "create-file request lost", Exhaust::AbortTyped);
        }
        // PutStrip.
        2 => {
            let mut ok = *s;
            ok.op = 3;
            ok.attempt = 0;
            out.push(succ("put-strip ok", ok));
            push_retry(&mut out, s, cfg, "put-strip frame lost", Exhaust::AbortTyped);
        }
        // The execute ladder.
        3 => ladder(&mut out, s, cfg),
        _ => {}
    }
    out
}

/// Server-side effect of delivering CreateFile: idempotent dedup in
/// the real protocol; a fresh id per delivery under the seeded
/// defect. Count capped at 2 — past that the violation already fired.
fn apply_create(s: &State, cfg: &Cfg) -> State {
    let mut n = *s;
    n.files = if cfg.defect == Some(Defect::DupCreate) {
        (s.files + 1).min(2)
    } else {
        s.files.max(1)
    };
    n
}

/// Attach the idempotence invariant to a transition that delivered a
/// CreateFile.
fn check_create(mut sc: Succ, _cfg: &Cfg) -> Succ {
    if sc.next.files > 1 && sc.violation.is_none() {
        sc.violation = Some((
            "DA602",
            "retransmitted CreateFile created a second file — ids must be idempotent under retry"
                .to_string(),
        ));
    }
    sc
}

/// What happens when the attempt budget runs out.
enum Exhaust {
    /// The op surfaces a typed error and the session ends cleanly.
    AbortTyped,
    /// The ladder descends a rung.
    Degrade,
}

/// Retry bookkeeping: the state after one more attempt, pricing the
/// clock advance with the *real* backoff, or `None` when the budget
/// (or the clock bound) is exhausted.
fn retried(s: &State, cfg: &Cfg) -> Option<State> {
    let budget = cfg.policy.max_attempts.max(1) as u8;
    if s.attempt + 1 >= budget || s.clock + 1 > CLOCK_MAX {
        return None;
    }
    // Drive the production backoff and hold it to its contract.
    let d = cfg.policy.backoff(u32::from(s.attempt) + 1);
    debug_assert!(d <= cfg.policy.backoff_max);
    let mut n = *s;
    n.attempt += 1;
    n.clock += 1;
    Some(n)
}

/// Push the lost-frame outcome: retry within budget, then the
/// exhaustion behavior. Under the `retry-unbounded` defect the client
/// schedules an attempt past the budget — the `DA606` invariant.
fn push_retry(out: &mut Vec<Succ>, s: &State, cfg: &Cfg, what: &str, exhaust: Exhaust) {
    let budget = cfg.policy.max_attempts.max(1) as u8;
    if let Some(n) = retried(s, cfg) {
        let d = cfg.policy.backoff(u32::from(n.attempt));
        out.push(succ(format!("{what}; retry attempt {} after {d:?}", n.attempt), n));
        return;
    }
    if s.attempt + 1 >= budget && cfg.defect == Some(Defect::RetryUnbounded) {
        let mut n = *s;
        n.clock = (n.clock + 1).min(CLOCK_MAX);
        out.push(violation(
            format!("{what}; retry attempt {} scheduled", s.attempt + 1),
            n,
            "DA606",
            format!(
                "retry loop exceeded max_attempts={} — the budget must bound the loop",
                cfg.policy.max_attempts
            ),
        ));
        return;
    }
    if s.clock + 1 > CLOCK_MAX {
        return; // clock frontier: the path is truncated, not stuck
    }
    match exhaust {
        Exhaust::AbortTyped => {
            let mut n = *s;
            n.phase = Phase::Done;
            out.push(succ(format!("{what}; budget exhausted → typed error, session ends"), n));
        }
        Exhaust::Degrade => {
            out.push(degrade(s, cfg, &format!("{what}; budget exhausted")));
        }
    }
}

/// Descend one rung of the DAS → NAS → TS ladder (or violate the
/// ladder-order / TS-fallback invariants under a seeded defect).
fn degrade(s: &State, cfg: &Cfg, why: &str) -> Succ {
    let mut n = *s;
    n.attempt = 0;
    match s.rung {
        Rung::Das => {
            if cfg.defect == Some(Defect::LadderSkip) {
                n.rung = Rung::Ts;
                return violation(
                    format!("{why} → degrade DAS→TS (skipping NAS)"),
                    n,
                    "DA605",
                    "degradation skipped the NAS rung — the ladder must descend one rung at a time"
                        .to_string(),
                );
            }
            n.rung = Rung::Nas;
            succ(format!("{why} → degrade DAS→NAS"), n)
        }
        Rung::Nas => {
            if cfg.defect == Some(Defect::NoTsFallback) {
                n.phase = Phase::Failed;
                return violation(
                    format!("{why} → give up"),
                    n,
                    "DA601",
                    "session failed without trying the guaranteed normal-I/O (TS) fallback"
                        .to_string(),
                );
            }
            n.rung = Rung::Ts;
            succ(format!("{why} → degrade NAS→TS"), n)
        }
        Rung::Ts => {
            // TS is local normal I/O; it has nowhere to degrade to,
            // and it cannot fail in the model — unreachable.
            succ(format!("{why} (ts)"), n)
        }
    }
}

/// Transitions of op 3 — the execute ladder with the breaker woven
/// in.
fn ladder(out: &mut Vec<Succ>, s: &State, cfg: &Cfg) {
    match s.rung {
        Rung::Das => {
            let open = s.breaker_until > s.clock;
            let expired = s.breaker_until != 0 && !open;
            if open {
                // Fail-fast window: wait it out, or degrade now — the
                // real client does the latter when the daemon answers
                // with a typed fast-fail.
                if s.clock < CLOCK_MAX {
                    let mut n = *s;
                    n.clock += 1;
                    out.push(succ("breaker open: wait one tick", n));
                }
                out.push(degrade(s, cfg, "breaker open: daemon fails fast"));
                return;
            }
            if expired {
                if cfg.defect == Some(Defect::NoHalfOpen) {
                    let n = *s;
                    out.push(violation(
                        "breaker cooldown expired but no half-open probe is offered",
                        n,
                        "DA603",
                        "breaker never half-opens after its cooldown — a rebooted peer can never rejoin"
                            .to_string(),
                    ));
                    return;
                }
                let mut closed = *s;
                closed.breaker_until = 0;
                out.push(succ("breaker half-open: probe succeeds, breaker closes", closed));
                let mut reopen = *s;
                reopen.breaker_until = (s.clock + COOLDOWN).min(CLOCK_MAX);
                out.push(succ("breaker half-open: probe fails, breaker re-opens", reopen));
                return;
            }
            // Breaker closed: the offloaded execute itself.
            let mut ok = *s;
            ok.phase = Phase::Done;
            out.push(succ("execute (DAS) ok", ok));
            // A dependence peer dies: its breaker trips either way.
            // Replica failover can keep the op on DAS (the breaker
            // then governs when the dead peer is probed again), or
            // the daemon fails the op and the client degrades.
            let mut trip = *s;
            trip.breaker_until = (s.clock + COOLDOWN).min(CLOCK_MAX);
            trip.attempt = 0;
            out.push(succ(
                "execute: dependence peer dead, breaker trips; replica failover keeps DAS",
                trip,
            ));
            out.push({
                let mut sc = degrade(s, cfg, "execute: dependence peer dead, daemon fails the op");
                sc.next.breaker_until = trip.breaker_until;
                sc
            });
            push_retry(out, s, cfg, "execute reply lost", Exhaust::Degrade);
        }
        Rung::Nas => {
            let mut ok = *s;
            ok.phase = Phase::Done;
            out.push(succ("redistribute + execute (NAS) ok", ok));
            out.push(degrade(s, cfg, "NAS redistribution failed"));
            push_retry(out, s, cfg, "redist reply lost", Exhaust::Degrade);
        }
        Rung::Ts => {
            // Normal I/O: local reads, always succeeds.
            let mut ok = *s;
            ok.phase = Phase::Done;
            out.push(succ("normal-I/O (TS) read ok", ok));
        }
    }
}

/// Every message shape the modeled session can put on the wire.
fn script_messages(cfg: &Cfg) -> Vec<Message> {
    let policy = LayoutPolicy::GroupedReplicated { group: 2 };
    vec![
        Message::Hello { role: Role::Client, peer_id: 0, caps: cfg.ccaps },
        Message::HelloOk { server_id: 0, caps: cfg.scaps },
        Message::CreateFile {
            name: "model".to_string(),
            file_len: 4096,
            strip_size: 1024,
            policy,
            servers: 4,
        },
        Message::CreateFileOk { file: 1 },
        Message::PutStrip { file: 1, strip: 0, payload: vec![7u8; 64] },
        Message::PutStripOk,
        Message::GetStrip { file: 1, strip: 0 },
        Message::StripData { payload: vec![7u8; 64] },
        Message::RedistPrepare { file: 1, policy },
        Message::RedistPrepareOk { fetched_strips: 1, fetched_bytes: 64 },
        Message::RedistCommit { file: 1, policy },
        Message::RedistCommitOk,
        Message::Execute {
            file: 1,
            out_file: 2,
            kernel: "flow-routing".to_string(),
            img_width: 64,
            element_size: 4,
            successive: true,
            force: false,
        },
        Message::ExecuteOk { strips_computed: 1, dep_fetches: 2, dep_fetch_bytes: 128 },
    ]
}

/// Re-frame a real CRC'd frame as a legacy (CRC-less) one: clear
/// `FLAG_CRC` and drop the trailer — exactly the frames a pre-CRC
/// peer emits, which the decoder must keep accepting.
fn strip_crc(mut frame: Vec<u8>) -> Vec<u8> {
    frame[6] &= !(FLAG_CRC as u8);
    frame.truncate(frame.len() - 4);
    frame
}

/// Push every frame shape of this configuration through the real
/// codec. Returns the number of frames checked, or the violated
/// frame-discipline invariant.
fn wire_checks(cfg: &Cfg) -> Result<usize, Violation> {
    let negotiated = cfg.negotiated();
    // Caps monotonicity: what both sides use never exceeds what
    // either advertised.
    if negotiated & !cfg.ccaps != 0 || negotiated & !cfg.scaps != 0 {
        return Err(Violation {
            code: "DA604",
            message: "negotiated caps exceed an advertisement".to_string(),
            trace: vec![format!("caps {:#x} & {:#x}", cfg.ccaps, cfg.scaps)],
        });
    }
    let send_trace = negotiated & CAP_TRACE != 0 || cfg.defect == Some(Defect::FlagUnnegotiated);
    let legacy = negotiated & CAP_CRC == 0;
    let mut checked = 0usize;
    for msg in script_messages(cfg) {
        let trace = if send_trace { Some(TRACE_ID) } else { None };
        let mut frame = encode_frame_opts(&msg, trace, None);
        if legacy {
            frame = strip_crc(frame);
        }
        let fail = |detail: String| Violation {
            code: "DA604",
            message: detail,
            trace: vec![
                format!("negotiate caps {:#x}", negotiated),
                format!("frame: opcode {:#04x} ({} bytes)", msg.opcode(), frame.len()),
            ],
        };
        let (back, got_trace) = match read_frame(&mut &frame[..]) {
            Ok(Some(pair)) => pair,
            other => {
                return Err(fail(format!("frame failed to decode: {other:?}")));
            }
        };
        checked += 1;
        if back != msg {
            return Err(fail(format!(
                "roundtrip mismatch: sent opcode {:#04x}, got {:#04x}",
                msg.opcode(),
                back.opcode()
            )));
        }
        if got_trace.is_some() && negotiated & CAP_TRACE == 0 {
            return Err(fail(
                "FLAG_TRACE sent to a peer that did not advertise CAP_TRACE — legacy peers must see bit-identical frames".to_string(),
            ));
        }
        // A corrupted CRC'd frame must be rejected.
        if !legacy {
            let mut bad = encode_frame_opts(&msg, trace, None);
            let mid = bad.len() / 2;
            bad[mid] ^= 0x40;
            checked += 1;
            if let Ok(Some((m, _))) = read_frame(&mut &bad[..]) {
                return Err(fail(format!(
                    "corrupted frame accepted by the decoder as opcode {:#04x}",
                    m.opcode()
                )));
            }
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(ccaps: u32, scaps: u32, defect: Option<Defect>) -> Cfg {
        Cfg { ccaps, scaps, policy: RetryPolicy::fast(), defect }
    }

    #[test]
    fn baseline_is_clean_and_substantial() {
        for c in [0, CAP_CRC, CAP_TRACE, CAP_CRC | CAP_TRACE] {
            for s in [0, CAP_CRC, CAP_TRACE, CAP_CRC | CAP_TRACE] {
                let ex = explore(&cfg(c, s, None));
                assert!(ex.violation.is_none(), "caps {c:#x}/{s:#x}");
                assert!(ex.states > 100, "caps {c:#x}/{s:#x}: only {} states", ex.states);
            }
        }
    }

    #[test]
    fn every_defect_is_caught_with_its_code() {
        let expected = [
            (Defect::DupCreate, "DA602"),
            (Defect::NoHalfOpen, "DA603"),
            (Defect::FlagUnnegotiated, "DA604"),
            (Defect::LadderSkip, "DA605"),
            (Defect::NoTsFallback, "DA601"),
            (Defect::RetryUnbounded, "DA606"),
        ];
        for (d, code) in expected {
            let mut hit = None;
            'outer: for c in [0u32, 3] {
                for s in [0u32, 3] {
                    if let Some(v) = explore(&cfg(c, s, Some(d))).violation {
                        hit = Some(v);
                        break 'outer;
                    }
                }
            }
            let v = hit.unwrap_or_else(|| panic!("defect {d:?} produced no violation"));
            assert_eq!(v.code, code, "defect {d:?}: {}", v.message);
            assert!(v.trace.len() >= 2, "defect {d:?}: trace too short: {:?}", v.trace);
        }
    }

    #[test]
    fn counterexamples_are_minimal_and_readable() {
        let v = explore(&cfg(3, 3, Some(Defect::DupCreate))).violation.unwrap();
        // BFS: hello, then the first ack-lost delivery retransmitted
        // once — the second delivery dups the id. Connect + 3 steps.
        assert!(v.trace.len() <= 5, "not minimal: {:#?}", v.trace);
        let rendered = render_trace(&v.trace);
        assert!(rendered.contains("create-file"), "{rendered}");
    }

    #[test]
    fn legacy_and_corrupt_framing_paths_hold() {
        // CRC-less combos decode; CRC combos reject corruption.
        assert!(wire_checks(&cfg(0, 0, None)).unwrap() > 0);
        assert!(wire_checks(&cfg(3, 3, None)).unwrap() > 0);
        // The flag-unnegotiated defect is caught by the wire layer
        // whenever CAP_TRACE was not negotiated.
        let v = wire_checks(&cfg(CAP_CRC, CAP_CRC, Some(Defect::FlagUnnegotiated))).unwrap_err();
        assert_eq!(v.code, "DA604");
    }
}
