//! Pass 1 — descriptor validation (`descriptors/`).
//!
//! Finding codes:
//!
//! * `DA101` (error) — a descriptor file fails to parse.
//! * `DA102` (error) — an offset is not affine in `imgWidth`
//!   (`a·imgWidth + b`): it cannot describe a fixed stencil and the
//!   symbolic checks cannot reason about it.
//! * `DA103` (warning) — a kernel lists the same offset twice.
//! * `DA104` (warning) — a kernel lists offset `0` (an element
//!   "depends" on itself; every implementation reads its own element
//!   anyway, so this only inflates the predicted cost).
//! * `DA105` (error) — a kernel present in one of `kernels.txt` /
//!   `kernels.xml` is missing from the other.
//! * `DA106` (error) — the txt and XML forms disagree on a shared
//!   kernel's dependence pattern.
//! * `DA107` (warning) — a deployment in `layouts.txt` uses grouped
//!   replication whose radius (always one strip ring) does not cover
//!   the kernel's stencil reach: the layout silently pays peer
//!   fetches it was chosen to eliminate.
//! * `DA108` (warning) — a "dead" descriptor: the paper's Eqs. 1–13
//!   decision rejects offloading in every cell of a
//!   (D, strip, r, policy) grid, so the descriptor can never be
//!   offloaded on any supported layout.
//! * `DA110` (error) — `descriptors/layouts.txt` fails to parse or
//!   references unknown kernels / inconsistent geometry.

use std::path::Path;

use das_core::features::KernelFeatures;
use das_core::{decide, parse_kernel_xml, DecisionInput, PlanOptions, StripingParams};
use das_pfs::{DistributionInfo, Layout, LayoutPolicy, StripId};

use crate::finding::{Finding, Severity};

const PASS: &str = "descriptors";

/// Widths used to compare non-affine dependence patterns (affine ones
/// are compared symbolically, which covers every width at once).
const SAMPLE_WIDTHS: [u64; 3] = [16, 100, 2048];

/// Run the pass against `root`. A repository without a `descriptors/`
/// directory produces no findings.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    let dir = root.join("descriptors");
    if !dir.is_dir() {
        return out;
    }

    let txt_rel = "descriptors/kernels.txt";
    let txt = read_descriptor_text(&dir.join("kernels.txt"), txt_rel, &mut out);
    if let Some(records) = &txt {
        for (line, rec) in records {
            check_offsets(rec, &format!("{txt_rel}:{line}"), &mut out);
        }
    }

    let xml_rel = "descriptors/kernels.xml";
    let xml_path = dir.join("kernels.xml");
    let xml = if xml_path.is_file() {
        read_descriptor_xml(&xml_path, xml_rel, &mut out)
    } else {
        None
    };
    if let (Some(txt_records), Some(xml_records)) = (&txt, &xml) {
        cross_check(txt_records, xml_records, txt_rel, xml_rel, &mut out);
    }

    if let Some(records) = &txt {
        let layouts_path = dir.join("layouts.txt");
        if layouts_path.is_file() {
            check_layout_manifest(&layouts_path, records, &mut out);
        }
        for (line, rec) in records {
            check_dead_descriptor(rec, &format!("{txt_rel}:{line}"), &mut out);
        }
        out.push(Finding::new(
            "DA100",
            Severity::Info,
            PASS,
            txt_rel,
            format!(
                "{} kernel descriptors validated (symbolic offsets, txt/XML agreement, decision grid)",
                records.len()
            ),
        ));
    }
    out
}

fn read_descriptor_text(
    path: &Path,
    rel: &str,
    out: &mut Vec<Finding>,
) -> Option<Vec<(usize, KernelFeatures)>> {
    let src = match std::fs::read_to_string(path) {
        Ok(src) => src,
        Err(e) => {
            out.push(Finding::new(
                "DA101",
                Severity::Error,
                PASS,
                rel,
                format!("cannot read descriptor file: {e}"),
            ));
            return None;
        }
    };
    match KernelFeatures::parse_text_with_lines(&src) {
        Ok(records) => Some(records),
        Err(e) => {
            out.push(Finding::new(
                "DA101",
                Severity::Error,
                PASS,
                rel,
                format!("descriptor parse failed: {e}"),
            ));
            None
        }
    }
}

fn read_descriptor_xml(path: &Path, rel: &str, out: &mut Vec<Finding>) -> Option<Vec<KernelFeatures>> {
    let src = match std::fs::read_to_string(path) {
        Ok(src) => src,
        Err(e) => {
            out.push(Finding::new(
                "DA101",
                Severity::Error,
                PASS,
                rel,
                format!("cannot read descriptor file: {e}"),
            ));
            return None;
        }
    };
    match parse_kernel_xml(&src) {
        Ok(records) => Some(records),
        Err(e) => {
            out.push(Finding::new(
                "DA101",
                Severity::Error,
                PASS,
                rel,
                format!("descriptor parse failed: {e}"),
            ));
            None
        }
    }
}

/// Per-offset symbolic checks: affine form (DA102), duplicates
/// (DA103), self-dependence (DA104).
fn check_offsets(rec: &KernelFeatures, entity: &str, out: &mut Vec<Finding>) {
    let mut seen: Vec<(i64, i64)> = Vec::new();
    for expr in &rec.dependence {
        match expr.affine() {
            None => out.push(Finding::new(
                "DA102",
                Severity::Error,
                PASS,
                entity,
                format!(
                    "kernel {:?}: offset `{expr}` is not affine in imgWidth — it cannot describe a fixed stencil",
                    rec.name
                ),
            )),
            Some(ab) => {
                if ab == (0, 0) {
                    out.push(Finding::new(
                        "DA104",
                        Severity::Warning,
                        PASS,
                        entity,
                        format!(
                            "kernel {:?}: offset `{expr}` is 0 (self-dependence) — it only inflates predicted cost",
                            rec.name
                        ),
                    ));
                }
                if seen.contains(&ab) {
                    out.push(Finding::new(
                        "DA103",
                        Severity::Warning,
                        PASS,
                        entity,
                        format!(
                            "kernel {:?}: offset `{expr}` duplicates an earlier offset ({}·imgWidth{:+})",
                            rec.name, ab.0, ab.1
                        ),
                    ));
                }
                seen.push(ab);
            }
        }
    }
}

/// Canonical comparable form of a dependence pattern: the sorted
/// affine forms when every offset is affine (symbolic — covers every
/// width), otherwise the sorted concrete offsets at each sample
/// width.
fn pattern_key(rec: &KernelFeatures) -> Result<Vec<(i64, i64)>, Vec<Vec<i64>>> {
    let mut affine = Vec::with_capacity(rec.dependence.len());
    for e in &rec.dependence {
        match e.affine() {
            Some(ab) => affine.push(ab),
            None => {
                return Err(SAMPLE_WIDTHS
                    .iter()
                    .map(|&w| {
                        let mut v = rec.offsets(w);
                        v.sort_unstable();
                        v
                    })
                    .collect())
            }
        }
    }
    affine.sort_unstable();
    Ok(affine)
}

fn patterns_agree(a: &KernelFeatures, b: &KernelFeatures) -> bool {
    pattern_key(a) == pattern_key(b)
}

fn cross_check(
    txt: &[(usize, KernelFeatures)],
    xml: &[KernelFeatures],
    txt_rel: &str,
    xml_rel: &str,
    out: &mut Vec<Finding>,
) {
    for (line, rec) in txt {
        match xml.iter().find(|x| x.name == rec.name) {
            None => out.push(Finding::new(
                "DA105",
                Severity::Error,
                PASS,
                format!("{txt_rel}:{line}"),
                format!("kernel {:?} is in {txt_rel} but missing from {xml_rel}", rec.name),
            )),
            Some(x) if !patterns_agree(rec, x) => out.push(Finding::new(
                "DA106",
                Severity::Error,
                PASS,
                format!("{txt_rel}:{line}"),
                format!(
                    "kernel {:?}: {txt_rel} and {xml_rel} declare different dependence patterns",
                    rec.name
                ),
            )),
            Some(_) => {}
        }
    }
    for x in xml {
        if !txt.iter().any(|(_, rec)| rec.name == x.name) {
            out.push(Finding::new(
                "DA105",
                Severity::Error,
                PASS,
                xml_rel,
                format!("kernel {:?} is in {xml_rel} but missing from {txt_rel}", x.name),
            ));
        }
    }
}

/// One deployment row of `descriptors/layouts.txt`.
#[derive(Debug)]
struct Deployment {
    line: usize,
    name: String,
    kernel: String,
    policy: LayoutPolicy,
    servers: u32,
    strip: u64,
    element: u64,
    width: u64,
    rows: u64,
}

fn parse_manifest(src: &str, rel: &str, out: &mut Vec<Finding>) -> Vec<Deployment> {
    let mut deployments = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let entity = format!("{rel}:{lineno}");
        let mut fields = line.split_whitespace();
        let name = match fields.next() {
            Some(n) => n.to_string(),
            None => continue,
        };
        let mut kernel = None;
        let mut policy_name = None;
        let mut d = None;
        let mut r = None;
        let mut strip = None;
        let mut element = None;
        let mut width = None;
        let mut rows = None;
        let mut bad = false;
        for field in fields {
            let Some((key, value)) = field.split_once('=') else {
                out.push(Finding::new(
                    "DA110",
                    Severity::Error,
                    PASS,
                    entity.clone(),
                    format!("deployment {name:?}: field {field:?} is not key=value"),
                ));
                bad = true;
                continue;
            };
            let num = value.parse::<u64>();
            match key {
                "kernel" => kernel = Some(value.to_string()),
                "policy" => policy_name = Some(value.to_string()),
                "D" => d = num.ok(),
                "r" => r = num.ok(),
                "strip" => strip = num.ok(),
                "E" => element = num.ok(),
                "width" => width = num.ok(),
                "rows" => rows = num.ok(),
                other => {
                    out.push(Finding::new(
                        "DA110",
                        Severity::Error,
                        PASS,
                        entity.clone(),
                        format!("deployment {name:?}: unknown field {other:?}"),
                    ));
                    bad = true;
                }
            }
        }
        let (Some(kernel), Some(policy_name), Some(d), Some(r), Some(strip), Some(element), Some(width), Some(rows)) =
            (kernel, policy_name, d, r, strip, element, width, rows)
        else {
            out.push(Finding::new(
                "DA110",
                Severity::Error,
                PASS,
                entity,
                format!(
                    "deployment {name:?}: needs kernel=, policy=, and numeric D=, r=, strip=, E=, width=, rows="
                ),
            ));
            continue;
        };
        if bad {
            continue;
        }
        let policy = match policy_name.as_str() {
            "rr" => LayoutPolicy::RoundRobin,
            "grouped" => LayoutPolicy::Grouped { group: r },
            "grouped-rep" => LayoutPolicy::GroupedReplicated { group: r },
            other => {
                out.push(Finding::new(
                    "DA110",
                    Severity::Error,
                    PASS,
                    entity,
                    format!("deployment {name:?}: unknown policy {other:?} (want rr | grouped | grouped-rep)"),
                ));
                continue;
            }
        };
        if d == 0 || r == 0 || element == 0 || width == 0 || rows == 0 || strip == 0 {
            out.push(Finding::new(
                "DA110",
                Severity::Error,
                PASS,
                entity,
                format!("deployment {name:?}: every numeric field must be positive"),
            ));
            continue;
        }
        if strip % (element * width) != 0 {
            out.push(Finding::new(
                "DA110",
                Severity::Error,
                PASS,
                entity,
                format!(
                    "deployment {name:?}: strip={strip} is not a whole number of {width}-element rows (E={element})"
                ),
            ));
            continue;
        }
        deployments.push(Deployment {
            line: lineno,
            name,
            kernel,
            policy,
            servers: d.min(u64::from(u32::MAX)) as u32,
            strip,
            element,
            width,
            rows,
        });
    }
    deployments
}

/// The grouped-replication radius check (DA107): replication covers
/// a ring of `h` strips around each group boundary (the policy's
/// halo), so a kernel whose stencil reaches `ceil(reach_rows /
/// strip_rows) > h` strips still fetches from peers — on a layout
/// whose whole point is that it never does.
fn check_layout_manifest(path: &Path, txt: &[(usize, KernelFeatures)], out: &mut Vec<Finding>) {
    let rel = "descriptors/layouts.txt";
    let src = match std::fs::read_to_string(path) {
        Ok(src) => src,
        Err(e) => {
            out.push(Finding::new(
                "DA110",
                Severity::Error,
                PASS,
                rel,
                format!("cannot read layout manifest: {e}"),
            ));
            return;
        }
    };
    check_manifest_src(&src, rel, txt, out);
}

fn check_manifest_src(
    src: &str,
    rel: &str,
    txt: &[(usize, KernelFeatures)],
    out: &mut Vec<Finding>,
) {
    for dep in parse_manifest(src, rel, out) {
        let entity = format!("{rel}:{}", dep.line);
        let Some((_, rec)) = txt.iter().find(|(_, rec)| rec.name == dep.kernel) else {
            out.push(Finding::new(
                "DA110",
                Severity::Error,
                PASS,
                entity,
                format!("deployment {:?}: unknown kernel {:?}", dep.name, dep.kernel),
            ));
            continue;
        };
        let Some((reach_rows, _)) = rec.stencil_reach() else {
            continue; // non-affine: DA102 already fired
        };
        if !dep.policy.replicates() || reach_rows == 0 {
            continue;
        }
        let strip_rows = dep.strip / (dep.element * dep.width);
        let radius = reach_rows.div_ceil(strip_rows);
        let strip_count = (dep.rows * dep.width * dep.element).div_ceil(dep.strip);
        let layout = Layout::new(dep.policy, dep.servers);
        let uncovered = (0..strip_count)
            .map(StripId)
            .find_map(|t| {
                let u = layout.uncovered_neighbors(t, radius, strip_count);
                (!u.is_empty()).then_some((t, u))
            });
        if let Some((t, missing)) = uncovered {
            let file_len = dep.rows * dep.width * dep.element;
            let dist = DistributionInfo {
                strip_size: dep.strip as usize,
                servers: dep.servers,
                policy: dep.policy,
                file_len,
            };
            let offsets = rec.offsets(dep.width);
            let pred = StripingParams::from_distribution(&dist, dep.element)
                .predict_file(&offsets, file_len);
            out.push(Finding::new(
                "DA107",
                Severity::Warning,
                PASS,
                entity,
                format!(
                    "deployment {:?}: grouped replication (r={}) covers a {}-strip ring, but kernel {:?} reaches {reach_rows} rows = {radius} strips of {strip_rows} rows — strip {} must still fetch strip {} from a peer ({} B of dependence traffic predicted over the file)",
                    dep.name,
                    dep.policy.group_size(),
                    dep.policy.halo(),
                    dep.kernel,
                    t.0,
                    missing[0].0,
                    pred.remote_bytes
                ),
            ));
        }
    }
}

/// The dead-descriptor sweep (DA108): instantiate the paper's Fig. 3
/// decision (built on Eqs. 1–13) over a grid of supported layouts; a
/// descriptor rejected in every cell can never be offloaded.
///
/// The grid deliberately covers only non-replicated layouts
/// (round-robin and grouped): under the Eqs. 14–17 replicated
/// layouts, small `D` with boundary replication can make *every*
/// strip locally available (e.g. `D=2, r=1` replicates each strip to
/// the only other server), so every descriptor trivially offloads
/// there and the sweep would never flag anything. Replication
/// adequacy is DA107's job.
fn check_dead_descriptor(rec: &KernelFeatures, entity: &str, out: &mut Vec<Finding>) {
    const ELEMENT: u64 = 4;
    const WIDTH: u64 = 64;
    const ROWS: u64 = 256;
    let file_len = WIDTH * ROWS * ELEMENT;
    let mut cells = 0u32;
    let mut offloads = 0u32;
    for d in [2u32, 4, 8] {
        for strip_rows in [1u64, 2, 4] {
            let strip_size = (strip_rows * WIDTH * ELEMENT) as usize;
            let mut policies = vec![LayoutPolicy::RoundRobin];
            for r in [2u64, 4] {
                policies.push(LayoutPolicy::Grouped { group: r });
            }
            for policy in policies {
                cells += 1;
                let input = DecisionInput {
                    features: rec,
                    dist: DistributionInfo { strip_size, servers: d, policy, file_len },
                    element_size: ELEMENT,
                    img_width: WIDTH,
                    output_bytes: file_len,
                    successive: false,
                    plan_opts: PlanOptions::default(),
                };
                if decide(&input).is_offload() {
                    offloads += 1;
                }
            }
        }
    }
    if offloads == 0 {
        out.push(Finding::new(
            "DA108",
            Severity::Warning,
            PASS,
            entity,
            format!(
                "dead descriptor: kernel {:?} is rejected by the offload decision in all {cells} grid cells (D ∈ {{2,4,8}}, strip ∈ {{1,2,4}} rows, round-robin and grouped r ∈ {{2,4}}) — no non-replicated layout would ever offload it",
                rec.name
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_core::features::BUILTIN_DESCRIPTORS;
    use das_core::OffsetExpr;

    fn kernel(name: &str, offsets: &[&str]) -> KernelFeatures {
        KernelFeatures {
            name: name.into(),
            dependence: offsets.iter().map(|s| OffsetExpr::parse(s).unwrap()).collect(),
        }
    }

    #[test]
    fn offset_checks_fire_on_nonlinear_duplicate_and_zero() {
        let mut out = Vec::new();
        let rec = kernel("k", &["imgWidth*imgWidth", "1", "2-1", "0"]);
        check_offsets(&rec, "f:1", &mut out);
        let codes: Vec<&str> = out.iter().map(|f| f.code).collect();
        assert!(codes.contains(&"DA102"), "{codes:?}");
        assert!(codes.contains(&"DA103"), "{codes:?}"); // 1 vs 2-1
        assert!(codes.contains(&"DA104"), "{codes:?}"); // 0
    }

    #[test]
    fn pattern_comparison_is_order_insensitive_and_symbolic() {
        let a = kernel("k", &["-imgWidth", "imgWidth"]);
        let b = kernel("k", &["imgWidth", "-(imgWidth)"]);
        assert!(patterns_agree(&a, &b));
        let c = kernel("k", &["-imgWidth", "imgWidth+1"]);
        assert!(!patterns_agree(&a, &c));
    }

    #[test]
    fn manifest_parses_and_rejects_bad_rows() {
        let mut out = Vec::new();
        let src = "\
# comment
good kernel=flow-routing policy=grouped-rep D=4 r=4 strip=512 E=4 width=64 rows=256
badpolicy kernel=k policy=zigzag D=4 r=4 strip=512 E=4 width=64 rows=256
short kernel=k policy=rr D=4
raggedstrip kernel=k policy=rr D=4 r=1 strip=300 E=4 width=64 rows=256
";
        let deps = parse_manifest(src, "layouts.txt", &mut out);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].name, "good");
        assert_eq!(deps[0].policy, LayoutPolicy::GroupedReplicated { group: 4 });
        assert_eq!(out.iter().filter(|f| f.code == "DA110").count(), 3);
    }

    #[test]
    fn under_replicated_deployment_is_flagged() {
        let five = kernel("big", &["-2*imgWidth", "2*imgWidth"]);
        let txt = vec![(1usize, five)];
        // 1-row strips: a 2-row reach spans 2 strips, replication covers 1.
        let mut out = Vec::new();
        check_manifest_src(
            "bad kernel=big policy=grouped-rep D=4 r=2 strip=256 E=4 width=64 rows=64\n",
            "layouts.txt",
            &txt,
            &mut out,
        );
        assert!(out.iter().any(|f| f.code == "DA107"), "{out:?}");

        // 4-row strips cover the same reach: no finding.
        let mut out = Vec::new();
        check_manifest_src(
            "ok kernel=big policy=grouped-rep D=4 r=2 strip=1024 E=4 width=64 rows=64\n",
            "layouts.txt",
            &txt,
            &mut out,
        );
        assert!(!out.iter().any(|f| f.code == "DA107"), "{out:?}");
    }

    #[test]
    fn builtin_kernels_are_not_dead() {
        for rec in KernelFeatures::parse_text(BUILTIN_DESCRIPTORS).unwrap() {
            let mut out = Vec::new();
            check_dead_descriptor(&rec, "x", &mut out);
            assert!(out.is_empty(), "{} flagged dead: {out:?}", rec.name);
        }
    }

    #[test]
    fn absurd_stride_kernel_is_dead() {
        // Twenty prime row strides far past any replication radius:
        // in every grid cell the strip re-fetching exceeds shipping
        // the file to the clients, so no layout ever offloads it.
        let offsets: Vec<String> = [17i64, 19, 23, 29, 31, 37, 41, 43, 47, 53]
            .iter()
            .flat_map(|&p| [format!("-{p}*imgWidth"), format!("{p}*imgWidth")])
            .collect();
        let refs: Vec<&str> = offsets.iter().map(String::as_str).collect();
        let rec = kernel("wide", &refs);
        let mut out = Vec::new();
        check_dead_descriptor(&rec, "x", &mut out);
        assert!(out.iter().any(|f| f.code == "DA108"), "{out:?}");
    }
}
