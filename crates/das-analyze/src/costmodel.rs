//! Pass — `costmodel`: symbolic wire-cost verification against
//! the paper's Eqs. 1–17 bookkeeping.
//!
//! The das-core predictors (`predict_file`, `predict_nas_fetches`,
//! `nas_fetch_plan`) promise byte counts that the das-net codec must
//! actually put on the wire, or every capacity/offload decision the
//! paper's equations drive is made against fiction. This pass closes
//! that loop without trusting either side:
//!
//! 1. **Extract** — parse `das-net/src/proto.rs` *as source* and
//!    derive a symbolic per-variant payload-size expression
//!    (`konst + Σ |blob|`) from the `encode_payload` match arms and
//!    the `put_*` primitive bodies. No hand-maintained size table:
//!    the formulas come from the same tokens the compiler sees.
//! 2. **Verify** — evaluate each expression against the *linked*
//!    codec: fixed-size variants against `Message::samples()`,
//!    variable-length ones against purpose-built messages over
//!    `n ∈ {0, 1, 7, 1024}`. Divergence is `DA811` (deny).
//! 3. **Compose** — for the paper's RPC sequences (peer dependence
//!    fetches from `nas_fetch_plan`, one strip each; client whole-file
//!    reads and writes and an Execute's replica forward wave, one
//!    frame per run of consecutive strips with the same holders)
//!    compose per-sequence wire-cost formulas from the verified
//!    per-message expressions plus frame overhead extracted from
//!    `codec.rs`, and cross-check the totals against measured
//!    `frame_parts_opts` byte counts over a (D, strip, policy) grid ×
//!    the per-frame trace/budget fields. Divergence is `DA812` (deny).
//!
//! Codes: `DA810` proof record (per-variant formula verified),
//! `DA811` symbolic/measured payload drift, `DA812` composed
//! sequence-cost drift or plan/predictor inconsistency, `DA813`
//! unextractable or unverifiable variant (completeness, gated on the
//! source declaring `KNOWN_OPCODES`), `DA814` frame-overhead
//! constant drift, `DA815` census. `DA811`/`DA813`/`DA814` honor
//! `// das-lint: allow(...)` waivers at the anchored source line;
//! grid findings (`DA812`) have no source line and cannot be waived.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;

use das_core::StripingParams;
use das_net::codec::frame_parts_opts;
use das_net::proto::{strip_runs, ErrorCode, Message};
use das_pfs::{Layout, LayoutPolicy, ServerId, StripeSpec};

use crate::finding::{Finding, Severity};
use crate::syntax::{self, TokKind, Token};

const PASS: &str = "costmodel";

/// Variable lengths to sweep when verifying a blob-carrying variant.
const BLOB_LENS: [usize; 4] = [0, 1, 7, 1024];

/// Cap at which individual `DA812` grid findings stop; the remainder
/// collapses into one summary so a single drifted constant does not
/// produce 72 near-identical findings.
const GRID_FINDING_CAP: usize = 6;

/// A symbolic payload size: a byte constant plus one `|name|` term
/// per variable-length (string/blob) field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SizeExpr {
    konst: u64,
    lens: Vec<String>,
}

impl SizeExpr {
    fn formula(&self) -> String {
        let mut s = self.konst.to_string();
        for l in &self.lens {
            s.push_str(&format!(" + |{l}|"));
        }
        s
    }
}

/// One extracted `encode_payload` arm: variant name, source line of
/// the arm pattern, and the derived size expression (`None` when the
/// arm resisted extraction).
struct Arm {
    variant: String,
    line: u32,
    expr: Option<SizeExpr>,
}

/// Frame overhead constants extracted from source: header and CRC
/// always present (every frame carries the trailer), trace and budget
/// lengths added per frame that carries them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Overhead {
    header: u64,
    crc: u64,
    trace: u64,
    budget: u64,
}

impl Overhead {
    fn of(&self, trace: bool, budget: bool) -> u64 {
        self.header
            + self.crc
            + if trace { self.trace } else { 0 }
            + if budget { self.budget } else { 0 }
    }
}

/// Run the costmodel pass against a repository root.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    let sources = syntax::workspace_sources(root);
    let proto = sources
        .iter()
        .find(|(rel, _)| syntax::crate_of(rel) == "das-net" && rel.ends_with("src/proto.rs"));
    let Some((proto_rel, proto_src)) = proto else {
        out.push(Finding::new(
            "DA815",
            Severity::Info,
            PASS,
            "costmodel",
            "no das-net/src/proto.rs under this root; nothing to model",
        ));
        return out;
    };
    let codec = sources
        .iter()
        .find(|(rel, _)| syntax::crate_of(rel) == "das-net" && rel.ends_with("src/codec.rs"));

    let lx = syntax::lex(proto_src);
    let toks = &lx.tokens;
    let fns = syntax::extract_fns(&lx);

    // The completeness contract (DA813) only binds the real protocol
    // module — recognized by its `KNOWN_OPCODES` table. Fixture
    // protos that model a handful of arms stay quiet.
    let full_proto = toks.iter().any(|t| t.kind == TokKind::Ident && t.text == "KNOWN_OPCODES");

    // ---- extraction --------------------------------------------------
    let helpers = extract_helpers(toks, &fns);
    let arms = extract_encode_arms(toks, &fns, &helpers);
    let opcodes = extract_opcode_map(toks, &fns);
    let mut used: Vec<(u32, String)> = Vec::new();

    // ---- per-variant verification against the linked codec -----------
    let mut samples_by_op: BTreeMap<u8, Message> = BTreeMap::new();
    for m in Message::samples() {
        samples_by_op.entry(m.opcode()).or_insert(m);
    }
    let mut exprs_by_op: BTreeMap<u8, SizeExpr> = BTreeMap::new();
    let mut verified = 0usize;
    let mut fixed = 0usize;
    let mut varlen = 0usize;

    for arm in &arms {
        let entity = format!("{proto_rel}:{}", arm.line);
        let Some(op) = opcodes.get(&arm.variant).copied() else {
            // `opcode()` is a total match over the enum, so a missing
            // entry means the extractor failed on that fn, not the
            // source — surface it only for the real module.
            if full_proto {
                emit_waivable(&lx, arm.line, &mut used, &mut out, Finding::new(
                    "DA813",
                    Severity::Error,
                    PASS,
                    entity,
                    format!(
                        "Message::{}: no opcode extracted from `opcode()`; cannot match the symbolic formula to the linked codec",
                        arm.variant
                    ),
                ));
            }
            continue;
        };
        let Some(expr) = &arm.expr else {
            if full_proto {
                emit_waivable(&lx, arm.line, &mut used, &mut out, Finding::new(
                    "DA813",
                    Severity::Error,
                    PASS,
                    entity,
                    format!(
                        "Message::{} (opcode {op:#04x}): encode arm resisted symbolic extraction; the Eqs. 1-17 cost model cannot cover it",
                        arm.variant
                    ),
                ));
            }
            continue;
        };
        exprs_by_op.insert(op, expr.clone());
        if expr.lens.is_empty() {
            fixed += 1;
            // Fixed-size variant: one linked instance settles it.
            let linked = samples_by_op
                .get(&op)
                .cloned()
                .or_else(|| builder(op, 0));
            let Some(msg) = linked else {
                if full_proto {
                    emit_waivable(&lx, arm.line, &mut used, &mut out, Finding::new(
                        "DA813",
                        Severity::Error,
                        PASS,
                        entity,
                        format!(
                            "Message::{} (opcode {op:#04x}): no linked sample or builder to verify the symbolic size against",
                            arm.variant
                        ),
                    ));
                }
                continue;
            };
            let measured = msg.encode_payload().len() as u64;
            if measured != expr.konst {
                emit_waivable(&lx, arm.line, &mut used, &mut out, Finding::new(
                    "DA811",
                    Severity::Error,
                    PASS,
                    entity,
                    format!(
                        "Message::{}: symbolic |payload| = {}, but the linked codec encodes {measured} B — the source formula has drifted from the wire",
                        arm.variant, expr.konst
                    ),
                ));
                continue;
            }
            verified += 1;
            out.push(Finding::new(
                "DA810",
                Severity::Info,
                PASS,
                entity,
                format!(
                    "Message::{}: |payload| ≡ {} — verified against the linked codec",
                    arm.variant,
                    expr.formula()
                ),
            ));
        } else {
            varlen += 1;
            let k = expr.lens.len() as u64;
            let Some(probe) = builder(op, 0) else {
                if full_proto {
                    emit_waivable(&lx, arm.line, &mut used, &mut out, Finding::new(
                        "DA813",
                        Severity::Error,
                        PASS,
                        entity,
                        format!(
                            "Message::{} (opcode {op:#04x}): variable-length variant with no in-analyzer builder; |payload| = {} is unverified",
                            arm.variant,
                            expr.formula()
                        ),
                    ));
                }
                continue;
            };
            drop(probe);
            let mut drifted = false;
            for n in BLOB_LENS {
                let msg = builder(op, n).expect("builder succeeded at n=0");
                let measured = msg.encode_payload().len() as u64;
                let symbolic = expr.konst + k * n as u64;
                if measured != symbolic {
                    emit_waivable(&lx, arm.line, &mut used, &mut out, Finding::new(
                        "DA811",
                        Severity::Error,
                        PASS,
                        entity.clone(),
                        format!(
                            "Message::{}: symbolic |payload| = {} gives {symbolic} at n = {n}, but the linked codec encodes {measured} B",
                            arm.variant,
                            expr.formula()
                        ),
                    ));
                    drifted = true;
                    break;
                }
            }
            if !drifted {
                verified += 1;
                out.push(Finding::new(
                    "DA810",
                    Severity::Info,
                    PASS,
                    entity,
                    format!(
                        "Message::{}: |payload| ≡ {} — verified against the linked codec for n ∈ {{0, 1, 7, 1024}}",
                        arm.variant,
                        expr.formula()
                    ),
                ));
            }
        }
    }

    // Completeness: every opcode-mapped variant must carry a size
    // expression, and the declared KNOWN_OPCODES count must match.
    if full_proto {
        let arm_names: Vec<&str> = arms.iter().map(|a| a.variant.as_str()).collect();
        for (variant, op) in &opcodes {
            if !arm_names.contains(&variant.as_str()) {
                out.push(Finding::new(
                    "DA813",
                    Severity::Error,
                    PASS,
                    format!("{proto_rel}:Message::{variant}"),
                    format!(
                        "Message::{variant} (opcode {op:#04x}) appears in `opcode()` but no encode arm was extracted for it"
                    ),
                ));
            }
        }
        if let Some(declared) = known_opcodes_len(toks) {
            if declared != opcodes.len() as u64 {
                out.push(Finding::new(
                    "DA813",
                    Severity::Error,
                    PASS,
                    format!("{proto_rel}:KNOWN_OPCODES"),
                    format!(
                        "KNOWN_OPCODES declares {declared} opcodes but `opcode()` maps {} variants — the table has drifted",
                        opcodes.len()
                    ),
                ));
            }
        }
    }

    // ---- frame overhead: extracted constants vs the linked framer ----
    let fields: [(Option<u64>, Option<u32>); 4] =
        [(None, None), (Some(0xD05E), None), (None, Some(250)), (Some(0xD05E), Some(250))];
    let measured_overhead = |trace: Option<u64>, budget: Option<u32>| -> u64 {
        let ping = Message::Ping;
        (frame_parts_opts(&ping, trace, budget).len() - ping.encode_payload().len()) as u64
    };
    let extracted_overhead = codec.and_then(|(codec_rel, codec_src)| {
        let clx = syntax::lex(codec_src);
        match extract_overhead(toks, &clx.tokens) {
            Some((oh, line)) => Some((oh, codec_rel.clone(), clx, line)),
            None => {
                out.push(Finding::new(
                    "DA814",
                    Severity::Error,
                    PASS,
                    format!("{codec_rel}:0"),
                    "could not extract frame overhead constants (HEADER_LEN / trace_len / budget_len / CRC_LEN) from source — the overhead model is unverifiable",
                ));
                None
            }
        }
    });
    let overhead = if let Some((oh, codec_rel, clx, line)) = &extracted_overhead {
        let mut codec_used: Vec<(u32, String)> = Vec::new();
        let mut ok = true;
        for (tr, bu) in fields {
            let want = oh.of(tr.is_some(), bu.is_some());
            let got = measured_overhead(tr, bu);
            if want != got {
                ok = false;
                emit_waivable(clx, *line, &mut codec_used, &mut out, Finding::new(
                    "DA814",
                    Severity::Error,
                    PASS,
                    format!("{codec_rel}:{line}"),
                    format!(
                        "frame overhead with trace={} budget={}: source constants give {want} B, the linked framer produces {got} B",
                        tr.is_some(),
                        bu.is_some()
                    ),
                ));
            }
        }
        if ok {
            out.push(Finding::new(
                "DA810",
                Severity::Info,
                PASS,
                format!("{codec_rel}:{line}"),
                format!(
                    "frame overhead ≡ {} (header) + {} (CRC) + {}·[trace] + {}·[budget] — verified over every trace/budget combination",
                    oh.header, oh.crc, oh.trace, oh.budget
                ),
            ));
        }
        syntax::stale_waivers(PASS, codec_rel, clx, &["DA814"], &codec_used, &mut out);
        *oh
    } else {
        // No codec source (fixture runs): trust the linked framer for
        // composition so DA812 still isolates payload-formula drift.
        Overhead {
            header: 12,
            crc: measured_overhead(None, None) - 12,
            trace: measured_overhead(Some(1), None) - measured_overhead(None, None),
            budget: measured_overhead(None, Some(1)) - measured_overhead(None, None),
        }
    };

    // ---- composed sequence costs over the layout grid ----------------
    let frames_measured =
        grid_check(&exprs_by_op, overhead, &fields, &mut out);

    syntax::stale_waivers(PASS, proto_rel, &lx, &["DA811", "DA813", "DA814"], &used, &mut out);

    out.push(Finding::new(
        "DA815",
        Severity::Info,
        PASS,
        "costmodel",
        format!(
            "{} encode arms extracted ({fixed} fixed, {varlen} variable-length), {verified} formulas verified against the linked codec; sequence grid: 24 layout cells × 4 trace/budget combinations, {frames_measured} frames measured",
            arms.len()
        ),
    ));
    out
}

/// Push `f` unless a waiver covers its line; track fired waivers.
fn emit_waivable(
    lx: &syntax::Lexed,
    line: u32,
    used: &mut Vec<(u32, String)>,
    out: &mut Vec<Finding>,
    f: Finding,
) {
    if !lx.waive(line, f.code, used) {
        out.push(f);
    }
}

// ---- grid composition ----------------------------------------------------

/// Sweep the (D, strip, policy) × trace/budget grid: compose symbolic
/// sequence costs from per-message formulas + overhead, measure the
/// same sequences through the linked codec, and compare. Also checks
/// `nas_fetch_plan` against `predict_nas_fetches` (the plan is the
/// itemization of the prediction). Returns the number of frames
/// measured.
fn grid_check(
    exprs: &BTreeMap<u8, SizeExpr>,
    oh: Overhead,
    fields: &[(Option<u64>, Option<u32>)],
    out: &mut Vec<Finding>,
) -> u64 {
    const OP_PUT: u8 = 0x12;
    const OP_PUT_OK: u8 = 0x13;
    const OP_GET: u8 = 0x14;
    const OP_DATA: u8 = 0x15;
    const OP_GETS: u8 = 0x1A;
    // Sequences need a *fixed* request formula and a blob reply
    // formula; skip composition when the extraction didn't yield them
    // (a doctored or partial proto).
    let fixed_k = |op: u8| exprs.get(&op).filter(|e| e.lens.is_empty()).map(|e| e.konst);
    let blob_k = |op: u8| exprs.get(&op).filter(|e| e.lens.len() == 1).map(|e| e.konst);
    let read_ks = fixed_k(OP_GET).zip(blob_k(OP_DATA));
    // A run of more than one strip is read with GetStrips; a proto
    // without it (a partial one) prices round-robin reads only.
    let k_gets = fixed_k(OP_GETS);
    let write_ks = blob_k(OP_PUT).zip(fixed_k(OP_PUT_OK));

    let offsets: [i64; 8] = [-9, -8, -7, -1, 1, 7, 8, 9];
    const FILE_LEN: u64 = 768;
    const ELEMENT: u64 = 4;
    let policies = [
        LayoutPolicy::RoundRobin,
        LayoutPolicy::Grouped { group: 2 },
        LayoutPolicy::GroupedReplicated { group: 2 },
        LayoutPolicy::GroupedHalo { group: 4, halo: 2 },
    ];

    let mut memo: BTreeMap<(u8, u64, bool, bool), u64> = BTreeMap::new();
    let mut frames = 0u64;
    let mut flen = |msg: &Message, tr: Option<u64>, bu: Option<u32>| -> u64 {
        let key = (msg.opcode(), msg.encode_payload().len() as u64, tr.is_some(), bu.is_some());
        if let Some(v) = memo.get(&key) {
            return *v;
        }
        frames += 1;
        let v = frame_parts_opts(msg, tr, bu).len() as u64;
        memo.insert(key, v);
        v
    };

    let mut grid_findings = 0usize;
    let mut suppressed = 0usize;
    let mut emit = |out: &mut Vec<Finding>, entity: String, msg: String| {
        if grid_findings < GRID_FINDING_CAP {
            out.push(Finding::new("DA812", Severity::Error, PASS, entity, msg));
        } else {
            suppressed += 1;
        }
        grid_findings += 1;
    };

    for d in [2u32, 3, 4] {
        for strip in [64u64, 256] {
            for policy in policies {
                let cell = format!("grid:D={d},strip={strip},policy={}", policy_name(policy));
                let params = StripingParams {
                    element_size: ELEMENT,
                    strip_size: strip,
                    layout: Layout::new(policy, d),
                };
                let plan = params.nas_fetch_plan(&offsets, FILE_LEN);
                let pred = params.predict_nas_fetches(&offsets, FILE_LEN);
                let plan_bytes: u64 = plan.iter().map(|f| f.len_bytes).sum();
                if plan.len() as u64 != pred.fetches || plan_bytes != pred.bytes {
                    emit(
                        out,
                        cell.clone(),
                        format!(
                            "nas_fetch_plan itemizes {} fetches / {} B but predict_nas_fetches promises {} / {} — the plan is not the prediction's itemization",
                            plan.len(),
                            plan_bytes,
                            pred.fetches,
                            pred.bytes
                        ),
                    );
                    continue;
                }
                let strips = (FILE_LEN / ELEMENT).div_ceil((strip / ELEMENT).max(1));
                let strip_len = |t: u64| strip.min(FILE_LEN - t * strip);
                let layout = Layout::new(policy, d);
                let spec = StripeSpec::new(strip as usize);
                // A client with no latency samples walks each strip's
                // holders primary first; each server forwards its own
                // primary strips to their replica holders.
                let runs: Vec<(Range<u64>, Vec<ServerId>)> =
                    strip_runs(&spec, FILE_LEN, 0..strips, |t| layout.holders(t))
                        .into_iter()
                        .map(|(run, _, holders)| (run, holders))
                        .collect();
                let run_len = |run: &Range<u64>| run.clone().map(strip_len).sum::<u64>();
                let forwards: Vec<(ServerId, Range<u64>)> = (0..d)
                    .flat_map(|s| {
                        let primaries = layout.primary_strips(ServerId(s), strips).into_iter().map(|t| t.0);
                        strip_runs(&spec, FILE_LEN, primaries, |t| layout.replicas(t))
                    })
                    .flat_map(|(run, _, holders)| holders.into_iter().map(move |h| (h, run.clone())))
                    .collect();
                for &(tr, bu) in fields {
                    let o = oh.of(tr.is_some(), bu.is_some());
                    let field_cell = format!(
                        "{cell},fields={}{}",
                        if tr.is_some() { "T" } else { "-" },
                        if bu.is_some() { "B" } else { "-" }
                    );
                    if let Some((k_get, k_data)) = read_ks {
                        // Peer dependence-fetch sequence: one
                        // GetStrip + StripData(len) per planned fetch
                        // — the wire realization of Eq. 16's Cdata.
                        let sym = pred.fetches * (2 * o + k_get + k_data) + pred.bytes;
                        let meas: u64 = plan
                            .iter()
                            .map(|f| {
                                flen(&Message::GetStrip { file: 1, strip: f.u }, tr, bu)
                                    + flen(
                                        &Message::StripData {
                                            payload: vec![0u8; f.len_bytes as usize],
                                        },
                                        tr,
                                        bu,
                                    )
                            })
                            .sum();
                        if sym != meas {
                            emit(out, field_cell.clone(), format!(
                                "peer-fetch sequence: symbolic cost {sym} B ({} fetches × (2·{o} + {k_get} + {k_data}) + {} B), codec produces {meas} B",
                                pred.fetches, pred.bytes
                            ));
                        }
                        // Client whole-file read, per run: GetStrip (a
                        // run of one) or GetStrips, + StripData(run).
                        let k_asks: Option<Vec<u64>> = runs
                            .iter()
                            .map(|(run, _)| if run.end - run.start == 1 { Some(k_get) } else { k_gets })
                            .collect();
                        if let Some(k_asks) = k_asks {
                            let sym_r: u64 = k_asks
                                .iter()
                                .zip(&runs)
                                .map(|(k_ask, (run, _))| 2 * o + k_ask + k_data + run_len(run))
                                .sum();
                            let meas_r: u64 = runs
                                .iter()
                                .map(|(run, _)| {
                                    let ask = match run.end - run.start {
                                        1 => Message::GetStrip { file: 1, strip: run.start },
                                        n => Message::GetStrips { file: 1, first: run.start, count: n as u32 },
                                    };
                                    let data = Message::StripData { payload: vec![0u8; run_len(run) as usize] };
                                    flen(&ask, tr, bu) + flen(&data, tr, bu)
                                })
                                .sum();
                            if sym_r != meas_r {
                                emit(out, field_cell.clone(), format!(
                                    "client-read sequence over {strips} strips in {} runs: symbolic cost {sym_r} B, codec produces {meas_r} B",
                                    runs.len()
                                ));
                            }
                        }
                    }
                    if let Some((k_put, k_put_ok)) = write_ks {
                        // One PutStrip(run) + PutStripOk per holder and
                        // run: a client whole-file write, and an
                        // Execute's forwards to each replica holder.
                        let mut put_runs = |sends: &mut dyn Iterator<Item = &Range<u64>>| -> (u64, u64) {
                            sends.fold((0, 0), |(sym, meas), run| {
                                let put = Message::PutStrip { file: 1, strip: run.start, payload: vec![0u8; run_len(run) as usize] };
                                let frames = flen(&put, tr, bu) + flen(&Message::PutStripOk, tr, bu);
                                (sym + 2 * o + k_put + run_len(run) + k_put_ok, meas + frames)
                            })
                        };
                        let (sym_w, meas_w) =
                            put_runs(&mut runs.iter().flat_map(|(run, holders)| holders.iter().map(move |_| run)));
                        if sym_w != meas_w {
                            emit(out, field_cell.clone(), format!(
                                "client-write sequence over {strips} strips in {} runs: symbolic cost {sym_w} B, codec produces {meas_w} B",
                                runs.len()
                            ));
                        }
                        let (sym_f, meas_f) = put_runs(&mut forwards.iter().map(|(_, run)| run));
                        if sym_f != meas_f {
                            emit(out, field_cell, format!(
                                "forward wave of {} runs: symbolic cost {sym_f} B, codec produces {meas_f} B",
                                forwards.len()
                            ));
                        }
                    }
                }
            }
        }
    }
    if suppressed > 0 {
        out.push(Finding::new(
            "DA812",
            Severity::Error,
            PASS,
            "grid:summary",
            format!("… and {suppressed} further grid cells diverge the same way"),
        ));
    }
    frames
}

fn policy_name(p: LayoutPolicy) -> String {
    match p {
        LayoutPolicy::RoundRobin => "RoundRobin".into(),
        LayoutPolicy::Grouped { group } => format!("Grouped{{{group}}}"),
        LayoutPolicy::GroupedReplicated { group } => format!("GroupedReplicated{{{group}}}"),
        LayoutPolicy::GroupedHalo { group, halo } => format!("GroupedHalo{{{group},{halo}}}"),
    }
}

/// Purpose-built messages for variable-length variants (and fixed
/// fallbacks), keyed by opcode. `n` sizes every blob/string field.
fn builder(op: u8, n: usize) -> Option<Message> {
    Some(match op {
        0x10 => Message::CreateFile {
            name: "x".repeat(n),
            file_len: 768,
            strip_size: 64,
            policy: LayoutPolicy::RoundRobin,
            servers: 3,
        },
        0x12 => Message::PutStrip { file: 1, strip: 0, payload: vec![0u8; n] },
        0x15 => Message::StripData { payload: vec![0u8; n] },
        0x16 => Message::Lookup { name: "x".repeat(n) },
        0x30 => Message::Execute {
            file: 1,
            out_file: 2,
            kernel: "k".repeat(n),
            img_width: 8,
            element_size: 4,
            successive: false,
            force: false,
        },
        0x45 => Message::MetricsText { text: "m".repeat(n) },
        0x47 => Message::TraceDumpResp { spans: vec![0u8; n] },
        0x49 => Message::SlowLogResp { spans: vec![0u8; n] },
        0x7F => Message::Error { code: ErrorCode::Retryable, message: "e".repeat(n) },
        _ => return None,
    })
}

// ---- source extraction ---------------------------------------------------

/// Sizes of the `put_*` encoding primitives, solved to a fixpoint so
/// helpers may call helpers (`put_dist` → `put_policy` → `put_u8`).
fn extract_helpers(toks: &[Token], fns: &[syntax::FnItem]) -> BTreeMap<String, SizeExpr> {
    let mut helpers: BTreeMap<String, SizeExpr> = BTreeMap::new();
    for _round in 0..5 {
        let mut changed = false;
        for f in fns {
            if !f.name.starts_with("put_") || helpers.contains_key(&f.name) {
                continue;
            }
            let params = param_types(toks, f.body.start);
            if let Some(expr) = size_of(toks, f.body.clone(), &helpers, &params) {
                helpers.insert(f.name.clone(), expr);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    helpers
}

/// Parse the `encode_payload` match into per-variant size arms.
fn extract_encode_arms(
    toks: &[Token],
    fns: &[syntax::FnItem],
    helpers: &BTreeMap<String, SizeExpr>,
) -> Vec<Arm> {
    let mut arms = Vec::new();
    let Some(f) = fns.iter().find(|f| f.name == "encode_payload") else {
        return arms;
    };
    let params = param_types(toks, f.body.start);
    let Some((open, close)) = first_match_block(toks, f.body.clone()) else {
        return arms;
    };
    for (pat, body) in split_arms(toks, open + 1..close) {
        let variants = pattern_variants(toks, pat.clone());
        if variants.is_empty() {
            continue;
        }
        let expr = size_of(toks, body, helpers, &params);
        let line = toks[pat.start].line;
        for v in variants {
            arms.push(Arm { variant: v, line, expr: expr.clone() });
        }
    }
    arms
}

/// Parse the `opcode()` match into a variant → opcode map.
fn extract_opcode_map(toks: &[Token], fns: &[syntax::FnItem]) -> BTreeMap<String, u8> {
    let mut map = BTreeMap::new();
    let Some(f) = fns.iter().find(|f| f.name == "opcode") else {
        return map;
    };
    let Some((open, close)) = first_match_block(toks, f.body.clone()) else {
        return map;
    };
    for (pat, body) in split_arms(toks, open + 1..close) {
        let Some(op) = toks[body].iter().find_map(|t| {
            if t.kind == TokKind::Num { num_value(&t.text) } else { None }
        }) else {
            continue;
        };
        for v in pattern_variants(toks, pat) {
            map.insert(v, op as u8);
        }
    }
    map
}

/// The declared length of `KNOWN_OPCODES: [u8; N]`, if present.
fn known_opcodes_len(toks: &[Token]) -> Option<u64> {
    let i = toks
        .iter()
        .position(|t| t.kind == TokKind::Ident && t.text == "KNOWN_OPCODES")?;
    // …: [u8; N] — the first Num within the type brackets.
    toks[i..].iter().take(8).find_map(|t| {
        if t.kind == TokKind::Num { num_value(&t.text) } else { None }
    })
}

/// Extract frame overhead constants: `HEADER_LEN` from the proto
/// source; `CRC_LEN` and the `trace_len`/`budget_len` bindings of
/// `FrameHeader::parse`, the one header check under both readers (the
/// first numeric literal inside each binding's conditional), from the
/// codec source. Returns the overhead and the codec line to anchor on.
fn extract_overhead(proto_toks: &[Token], codec_toks: &[Token]) -> Option<(Overhead, u32)> {
    let header = const_value(proto_toks, "HEADER_LEN")?;
    let crc = const_value(codec_toks, "CRC_LEN")?;
    let (trace, line) = flag_len(codec_toks, "trace_len")?;
    let (budget, _) = flag_len(codec_toks, "budget_len")?;
    Some((Overhead { header, crc, trace, budget }, line))
}

/// `const NAME: _ = N` — the first numeric literal after `NAME :`.
fn const_value(toks: &[Token], name: &str) -> Option<u64> {
    let i = toks.iter().position(|t| {
        t.kind == TokKind::Ident && t.text == name
    })?;
    if toks.get(i + 1).map(|t| t.text.as_str()) != Some(":") {
        return None;
    }
    toks[i..].iter().take(12).find_map(|t| {
        if t.kind == TokKind::Num { num_value(&t.text) } else { None }
    })
}

/// `let NAME = if flags & FLAG_X != 0 { N } else { 0 };` — the first
/// numeric literal inside the first brace block after `NAME`.
fn flag_len(toks: &[Token], name: &str) -> Option<(u64, u32)> {
    let i = toks.iter().position(|t| t.kind == TokKind::Ident && t.text == name)?;
    let line = toks[i].line;
    let open = (i..toks.len().min(i + 25)).find(|&j| toks[j].text == "{")?;
    let v = toks[open..toks.len().min(open + 4)]
        .iter()
        .find_map(|t| if t.kind == TokKind::Num { num_value(&t.text) } else { None })?;
    Some((v, line))
}

fn num_value(text: &str) -> Option<u64> {
    let t = text.replace('_', "");
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        t.parse().ok()
    }
}

/// Find the first `match` in `range` and return its brace block
/// `(open, close)`.
fn first_match_block(toks: &[Token], range: Range<usize>) -> Option<(usize, usize)> {
    let m = (range.start..range.end)
        .find(|&i| toks[i].kind == TokKind::Ident && toks[i].text == "match")?;
    let mut depth = 0i64;
    let mut j = m + 1;
    loop {
        if j >= range.end {
            return None;
        }
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    let close = syntax::matching(toks, j, "{", "}")?;
    Some((j, close.min(range.end)))
}

/// Split a match body (between its braces) into `(pattern, body)`
/// token ranges, one per arm. Handles `A | B =>` multi-patterns,
/// brace-block bodies with optional trailing commas, and expression
/// bodies terminated by a top-level comma.
fn split_arms(toks: &[Token], range: Range<usize>) -> Vec<(Range<usize>, Range<usize>)> {
    let mut arms = Vec::new();
    let mut i = range.start;
    while i < range.end {
        let pat_start = i;
        let mut depth = 0i64;
        let mut arrow = None;
        let mut j = i;
        while j < range.end {
            match toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=" if depth == 0
                    && toks.get(j + 1).is_some_and(|t| t.text == ">") =>
                {
                    arrow = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(a) = arrow else { break };
        let body_start = a + 2;
        if body_start >= range.end {
            break;
        }
        let (body_end, next) = if toks[body_start].text == "{" {
            let Some(close) = syntax::matching(toks, body_start, "{", "}") else { break };
            let mut nx = close + 1;
            if nx < range.end && toks[nx].text == "," {
                nx += 1;
            }
            (close + 1, nx)
        } else {
            let mut d = 0i64;
            let mut k = body_start;
            while k < range.end {
                match toks[k].text.as_str() {
                    "(" | "[" | "{" => d += 1,
                    ")" | "]" | "}" => d -= 1,
                    "," if d == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            (k, (k + 1).min(range.end))
        };
        arms.push((pat_start..a, body_start..body_end));
        i = next;
    }
    arms
}

/// Variant names in an arm pattern: every ident following `Message::`.
fn pattern_variants(toks: &[Token], range: Range<usize>) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i + 3 < range.end + 3 && i + 3 <= range.end {
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "Message"
            && toks[i + 1].text == ":"
            && toks[i + 2].text == ":"
            && toks[i + 3].kind == TokKind::Ident
        {
            out.push(toks[i + 3].text.clone());
            i += 4;
        } else {
            i += 1;
        }
    }
    out
}

/// Parameter name → type name for the fn whose body starts at
/// `body_start` (scan back to the `fn` keyword).
fn param_types(toks: &[Token], body_start: usize) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    let lo = body_start.saturating_sub(80);
    let Some(f) = (lo..body_start).rev().find(|&i| toks[i].text == "fn") else {
        return map;
    };
    let mut j = f;
    while j + 2 < body_start {
        if toks[j].kind == TokKind::Ident
            && toks[j + 1].text == ":"
            && toks[j + 2].text != ":"
            && (j == 0 || toks[j - 1].text != ":")
        {
            let mut k = j + 2;
            while k < body_start
                && (toks[k].text == "&"
                    || toks[k].text == "mut"
                    || toks[k].kind == TokKind::Lifetime)
            {
                k += 1;
            }
            if k < body_start && toks[k].kind == TokKind::Ident {
                map.insert(toks[j].text.clone(), toks[k].text.clone());
            }
        }
        j += 1;
    }
    map
}

fn int_width(ty: &str) -> Option<u64> {
    match ty {
        "u8" | "i8" => Some(1),
        "u16" | "i16" => Some(2),
        "u32" | "i32" | "f32" => Some(4),
        "u64" | "i64" | "f64" | "usize" | "isize" => Some(8),
        _ => None,
    }
}

/// Buffer mutators we do not model — their presence makes a body
/// unextractable rather than silently miscounted.
const OPAQUE_MUTATORS: [&str; 5] = ["extend", "append", "extend_from_within", "resize", "write_all"];

/// Derive the byte-size expression of a code range: recognized
/// contributions are `put_*` helper calls (sizes composed, blob args
/// becoming `|len|` terms), `.push(_)` (+1), and
/// `.extend_from_slice(..)` (int width when the arg is
/// `x.to_le_bytes()`, else a `|len|` term). A `match` contributes
/// only if all arms agree. Unknown `put_*` calls and opaque buffer
/// mutators abort extraction (`None`).
fn size_of(
    toks: &[Token],
    range: Range<usize>,
    helpers: &BTreeMap<String, SizeExpr>,
    params: &BTreeMap<String, String>,
) -> Option<SizeExpr> {
    let mut expr = SizeExpr::default();
    let mut i = range.start;
    while i < range.end {
        let t = &toks[i];
        if t.kind == TokKind::Ident && t.text == "match" {
            let (open, close) = first_match_block(toks, i..range.end)?;
            let arms = split_arms(toks, open + 1..close);
            if arms.is_empty() {
                return None;
            }
            let mut arm_exprs = Vec::new();
            for (_, body) in &arms {
                arm_exprs.push(size_of(toks, body.clone(), helpers, params)?);
            }
            let first = arm_exprs[0].clone();
            if !arm_exprs
                .iter()
                .all(|e| e.konst == first.konst && e.lens.len() == first.lens.len())
            {
                return None;
            }
            expr.konst += first.konst;
            expr.lens.extend(first.lens);
            i = close + 1;
            continue;
        }
        if t.kind == TokKind::Ident && toks.get(i + 1).is_some_and(|n| n.text == "(") {
            let close = syntax::matching(toks, i + 1, "(", ")")?;
            let dotted = i > range.start && toks[i - 1].text == ".";
            let name = t.text.as_str();
            if !dotted {
                if let Some(h) = helpers.get(name) {
                    expr.konst += h.konst;
                    if !h.lens.is_empty() {
                        let arg = second_arg_ident(toks, i + 2..close)
                            .unwrap_or_else(|| "len".to_string());
                        for _ in &h.lens {
                            expr.lens.push(arg.clone());
                        }
                    }
                    i = close + 1;
                    continue;
                }
                if name.starts_with("put_") {
                    // A primitive we have not sized yet — defer (the
                    // fixpoint will retry) rather than undercount.
                    return None;
                }
            } else {
                if name == "push" {
                    expr.konst += 1;
                    i = close + 1;
                    continue;
                }
                if name == "extend_from_slice" {
                    let args = i + 2..close;
                    if toks[args.clone()].iter().any(|t| t.text == "to_le_bytes") {
                        let recv = toks[args].iter().find(|t| t.kind == TokKind::Ident)?;
                        let ty = params.get(&recv.text)?;
                        expr.konst += int_width(ty)?;
                    } else {
                        let recv = toks[args]
                            .iter()
                            .find(|t| t.kind == TokKind::Ident)
                            .map(|t| t.text.clone())
                            .unwrap_or_else(|| "bytes".to_string());
                        expr.lens.push(recv);
                    }
                    i = close + 1;
                    continue;
                }
                if OPAQUE_MUTATORS.contains(&name) {
                    return None;
                }
            }
            // Unrecognized call: step into its args so nested helper
            // calls still count (asserts, casts, etc. contribute 0).
            i += 1;
            continue;
        }
        i += 1;
    }
    Some(expr)
}

/// The first ident of the second top-level argument in a call's
/// argument token range (`put_str(&mut b, name)` → `name`).
fn second_arg_ident(toks: &[Token], range: Range<usize>) -> Option<String> {
    let mut depth = 0i64;
    let mut comma = None;
    for i in range.clone() {
        match toks[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                comma = Some(i);
                break;
            }
            _ => {}
        }
    }
    let c = comma?;
    toks[c + 1..range.end]
        .iter()
        .find(|t| t.kind == TokKind::Ident && t.text != "mut")
        .map(|t| t.text.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run the pass against an in-memory mini-crate materialized
    /// under a temp dir.
    fn run_on(files: &[(&str, &str)]) -> Vec<Finding> {
        let dir = std::env::temp_dir().join(format!(
            "das-costmodel-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let src = dir.join("crates/das-net/src");
        std::fs::create_dir_all(&src).unwrap();
        for (name, body) in files {
            std::fs::write(src.join(name), body).unwrap();
        }
        let out = run(&dir);
        std::fs::remove_dir_all(&dir).ok();
        out
    }

    /// A minimal faithful proto: GetStrip/StripData arms matching the
    /// real codec byte-for-byte.
    const FAITHFUL: &str = "\
fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}
fn put_blob(b: &mut Vec<u8>, blob: &[u8]) {
    put_u32(b, blob.len() as u32);
    b.extend_from_slice(blob);
}
impl Message {
    pub fn opcode(&self) -> u8 {
        match self {
            Message::GetStrip { .. } => 0x14,
            Message::StripData { .. } => 0x15,
        }
    }
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            Message::GetStrip { file, strip } => {
                put_u32(&mut b, *file);
                put_u64(&mut b, *strip);
            }
            Message::StripData { payload } => put_blob(&mut b, payload),
        }
        b
    }
}
";

    #[test]
    fn faithful_proto_verifies_clean() {
        let out = run_on(&[("proto.rs", FAITHFUL)]);
        assert!(
            !out.iter().any(|f| f.severity >= Severity::Warning),
            "{out:?}"
        );
        let proofs: Vec<_> = out.iter().filter(|f| f.code == "DA810").collect();
        assert_eq!(proofs.len(), 2, "{out:?}");
        assert!(proofs.iter().any(|f| f.message.contains("|payload| ≡ 12")), "{proofs:?}");
        assert!(proofs.iter().any(|f| f.message.contains("4 + |payload|")), "{proofs:?}");
    }

    #[test]
    fn doctored_fixed_arm_is_da811_and_da812() {
        // An extra put_u64 in the GetStrip arm: symbolic 20 vs wire 12.
        let drifted = FAITHFUL.replace(
            "put_u64(&mut b, *strip);\n            }",
            "put_u64(&mut b, *strip);\n                put_u64(&mut b, 0);\n            }",
        );
        assert_ne!(drifted, FAITHFUL);
        let out = run_on(&[("proto.rs", drifted.as_str())]);
        let d811: Vec<_> = out.iter().filter(|f| f.code == "DA811").collect();
        assert_eq!(d811.len(), 1, "{out:?}");
        assert!(d811[0].message.contains("symbolic |payload| = 20"), "{d811:?}");
        assert!(out.iter().any(|f| f.code == "DA812"), "{out:?}");
    }

    #[test]
    fn doctored_blob_constant_is_da811() {
        // put_blob's length prefix misdeclared as u64: 8+len vs 4+len.
        let drifted = FAITHFUL.replace(
            "fn put_blob(b: &mut Vec<u8>, blob: &[u8]) {\n    put_u32(b, blob.len() as u32);",
            "fn put_blob(b: &mut Vec<u8>, blob: &[u8]) {\n    put_u64(b, blob.len() as u64);",
        );
        assert_ne!(drifted, FAITHFUL);
        let out = run_on(&[("proto.rs", drifted.as_str())]);
        let d811: Vec<_> = out.iter().filter(|f| f.code == "DA811").collect();
        assert!(
            d811.iter().any(|f| f.message.contains("8 + |payload|")),
            "{out:?}"
        );
    }

    #[test]
    fn waiver_suppresses_da811_and_stale_waiver_fires() {
        let drifted = FAITHFUL.replace(
            "            Message::StripData { payload } => put_blob(&mut b, payload),",
            "            // das-lint: allow(DA811) modelling a legacy u64-prefixed peer\n            Message::StripData { payload } => {\n                put_u64(&mut b, payload.len() as u64);\n                b.extend_from_slice(payload);\n            }",
        );
        assert_ne!(drifted, FAITHFUL);
        let out = run_on(&[("proto.rs", drifted.as_str())]);
        assert!(!out.iter().any(|f| f.code == "DA811"), "{out:?}");
        assert!(!out.iter().any(|f| f.code == "DA430"), "{out:?}");

        let stale = FAITHFUL.replace(
            "            Message::StripData { payload } => put_blob(&mut b, payload),",
            "            // das-lint: allow(DA811) nothing wrong here\n            Message::StripData { payload } => put_blob(&mut b, payload),",
        );
        let out = run_on(&[("proto.rs", stale.as_str())]);
        assert!(out.iter().any(|f| f.code == "DA430"), "{out:?}");
    }

    #[test]
    fn multi_variant_and_unit_group_arms_extract() {
        let src = "\
fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}
impl Message {
    pub fn opcode(&self) -> u8 {
        match self {
            Message::RedistPrepare { .. } => 0x20,
            Message::RedistCommit { .. } => 0x22,
            Message::Ping => 0x50,
            Message::Pong => 0x51,
        }
    }
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            Message::RedistPrepare { file, .. } | Message::RedistCommit { file, .. } => {
                put_u32(&mut b, *file);
                put_u32(&mut b, 0);
                put_u32(&mut b, 0);
                b.push(0);
            }
            Message::Ping | Message::Pong => {}
        }
        b
    }
}
";
        // RedistPrepare/RedistCommit really are 13 B on the wire
        // (u32 + 9-byte policy) — the mock mirrors that; Ping/Pong 0.
        let out = run_on(&[("proto.rs", src)]);
        assert!(!out.iter().any(|f| f.severity >= Severity::Warning), "{out:?}");
        assert_eq!(out.iter().filter(|f| f.code == "DA810").count(), 4, "{out:?}");
    }

    #[test]
    fn helper_match_with_equal_arms_composes() {
        // put_policy-style helper: a match whose arms all add 9 B.
        let src = "\
fn put_u8(b: &mut Vec<u8>, v: u8) {
    b.push(v);
}
fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}
fn put_policy(b: &mut Vec<u8>, p: LayoutPolicy) {
    match p {
        LayoutPolicy::RoundRobin => {
            put_u8(b, 0);
            put_u64(b, 0);
        }
        LayoutPolicy::Grouped { group } => {
            put_u8(b, 1);
            put_u64(b, group);
        }
    }
}
fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}
impl Message {
    pub fn opcode(&self) -> u8 {
        match self {
            Message::RedistPrepare { .. } => 0x20,
        }
    }
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            Message::RedistPrepare { file, policy } => {
                put_u32(&mut b, *file);
                put_policy(&mut b, *policy);
            }
        }
        b
    }
}
";
        let out = run_on(&[("proto.rs", src)]);
        let proofs: Vec<_> = out.iter().filter(|f| f.code == "DA810").collect();
        assert_eq!(proofs.len(), 1, "{out:?}");
        assert!(proofs[0].message.contains("|payload| ≡ 13"), "{proofs:?}");
    }

    #[test]
    fn overhead_constants_verified_from_codec_source() {
        let codec = "\
const CRC_LEN: usize = 4;
fn parse(flags: u16) {
    let trace_len = if flags & FLAG_TRACE != 0 { 8 } else { 0 };
    let budget_len = if flags & FLAG_DEADLINE != 0 { 4 } else { 0 };
}
";
        let proto = format!("pub const HEADER_LEN: usize = 12;\n{FAITHFUL}");
        let out = run_on(&[("proto.rs", proto.as_str()), ("codec.rs", codec)]);
        assert!(!out.iter().any(|f| f.severity >= Severity::Warning), "{out:?}");
        assert!(
            out.iter().any(|f| f.code == "DA810" && f.message.contains("frame overhead")),
            "{out:?}"
        );

        let bad = codec.replace("{ 8 }", "{ 6 }");
        let out = run_on(&[("proto.rs", proto.as_str()), ("codec.rs", bad.as_str())]);
        assert!(out.iter().any(|f| f.code == "DA814"), "{out:?}");
    }

    #[test]
    fn grid_findings_are_capped_with_summary() {
        // Every cell diverges (GetStrip symbolic 20 ≠ 12), so the cap
        // plus summary line must bound the emission.
        let drifted = FAITHFUL.replace(
            "put_u64(&mut b, *strip);\n            }",
            "put_u64(&mut b, *strip);\n                put_u64(&mut b, 0);\n            }",
        );
        let out = run_on(&[("proto.rs", drifted.as_str())]);
        let d812: Vec<_> = out.iter().filter(|f| f.code == "DA812").collect();
        assert!(d812.len() <= GRID_FINDING_CAP + 1, "{}", d812.len());
        assert!(d812.iter().any(|f| f.entity == "grid:summary"), "{d812:?}");
    }

    #[test]
    fn census_reports_extraction_counts() {
        let out = run_on(&[("proto.rs", FAITHFUL)]);
        let census = out.iter().find(|f| f.code == "DA815").unwrap();
        assert!(census.message.contains("2 encode arms"), "{census:?}");
        assert!(census.message.contains("1 fixed, 1 variable-length"), "{census:?}");
    }

    #[test]
    fn no_proto_source_is_a_quiet_skip() {
        let out = run_on(&[("engine.rs", "fn shard_loop() {}\n")]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, "DA815");
    }
}
