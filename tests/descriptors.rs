//! The shipped descriptor files (`descriptors/`) must stay consistent
//! with the compiled kernels and with each other — they are the
//! user-facing configuration surface of the DAS prototype — and every
//! descriptor must be one the offload decision can actually take.

use das::core::xml::parse_kernel_xml;
use das::core::{decide, DecisionInput, FeatureRegistry, KernelFeatures, OffsetExpr, PlanOptions};
use das::kernels::{kernel_by_name, kernel_names};
use das::pfs::{DistributionInfo, LayoutPolicy};
use std::path::PathBuf;

/// Widths the symbolic offsets are instantiated at: a power of two, an
/// odd width, and a wide one.
const WIDTHS: [u64; 3] = [64, 777, 2048];

fn descriptor_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("descriptors")
        .join(name)
}

fn read_descriptor(name: &str) -> String {
    std::fs::read_to_string(descriptor_path(name))
        .unwrap_or_else(|e| panic!("descriptors/{name}: {e}"))
}

fn text_records() -> Vec<KernelFeatures> {
    KernelFeatures::parse_text(&read_descriptor("kernels.txt"))
        .expect("descriptors/kernels.txt parses")
}

fn xml_records() -> Vec<KernelFeatures> {
    parse_kernel_xml(&read_descriptor("kernels.xml")).expect("descriptors/kernels.xml parses")
}

fn sorted(mut v: Vec<i64>) -> Vec<i64> {
    v.sort_unstable();
    v
}

fn sorted_names(records: &[KernelFeatures]) -> Vec<&str> {
    let mut names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
    names.sort_unstable();
    names
}

#[test]
fn shipped_text_descriptors_cover_every_kernel() {
    let mut reg = FeatureRegistry::new();
    let n = reg
        .load_text_file(descriptor_path("kernels.txt"))
        .expect("descriptors/kernels.txt parses");
    assert_eq!(n, kernel_names().len(), "one record per registered kernel");

    for &name in kernel_names() {
        let kernel = kernel_by_name(name).unwrap();
        let features = reg
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing from file"));
        for w in WIDTHS {
            assert_eq!(
                sorted(features.offsets(w)),
                sorted(kernel.dependence_offsets(w)),
                "{name} at width {w}: file vs implementation"
            );
        }
    }
}

#[test]
fn shipped_xml_descriptors_agree_with_text() {
    let text = text_records();
    let xml = xml_records();
    let mut kernels = kernel_names().to_vec();
    kernels.sort_unstable();
    assert_eq!(
        sorted_names(&xml),
        sorted_names(&text),
        "XML and text name different kernel sets"
    );
    assert_eq!(
        sorted_names(&text),
        kernels,
        "text descriptors and compiled kernels differ"
    );

    for x in &xml {
        let t = text.iter().find(|t| t.name == x.name).unwrap();
        for w in WIDTHS {
            assert_eq!(
                sorted(x.offsets(w)),
                sorted(t.offsets(w)),
                "{} at width {w}: XML and text descriptors diverge",
                x.name
            );
        }
    }
}

#[test]
fn no_kernel_depends_on_itself_or_twice_on_one_element() {
    // The files must equal these offsets, so a self-offset or a repeat
    // would only inflate every predicted dependence cost.
    for &name in kernel_names() {
        let kernel = kernel_by_name(name).unwrap();
        for w in WIDTHS {
            let offsets = kernel.dependence_offsets(w);
            assert!(
                !offsets.contains(&0),
                "{name} at width {w}: offset 0 in {offsets:?}"
            );
            let mut unique = sorted(offsets.clone());
            unique.dedup();
            assert_eq!(
                unique.len(),
                offsets.len(),
                "{name} at width {w}: repeated offset in {offsets:?}"
            );
        }
    }
}

/// Whether the paper's Fig. 3 decision (Eqs. 1–13) offloads `features`
/// in at least one cell of a grid of non-replicated layouts: D ∈
/// {2,4,8} servers, strips of {1,2,4} rows of a 64×256 f32 raster,
/// round-robin and grouped r ∈ {2,4}. Replicated layouts are left out
/// on purpose: at small D, boundary replication makes every strip
/// local, so every descriptor would offload there.
fn offloads_somewhere(features: &KernelFeatures) -> bool {
    const ELEMENT: u64 = 4;
    const WIDTH: u64 = 64;
    const ROWS: u64 = 256;
    let file_len = WIDTH * ROWS * ELEMENT;
    let policies = [
        LayoutPolicy::RoundRobin,
        LayoutPolicy::Grouped { group: 2 },
        LayoutPolicy::Grouped { group: 4 },
    ];
    [2u32, 4, 8].into_iter().any(|servers| {
        [1u64, 2, 4].into_iter().any(|strip_rows| {
            let strip_size = (strip_rows * WIDTH * ELEMENT) as usize;
            policies.into_iter().any(|policy| {
                decide(&DecisionInput {
                    features,
                    dist: DistributionInfo {
                        strip_size,
                        servers,
                        policy,
                        file_len,
                    },
                    element_size: ELEMENT,
                    img_width: WIDTH,
                    output_bytes: file_len,
                    successive: false,
                    plan_opts: PlanOptions::default(),
                })
                .is_offload()
            })
        })
    })
}

#[test]
fn every_shipped_descriptor_offloads_on_some_layout() {
    for rec in text_records() {
        assert!(
            offloads_somewhere(&rec),
            "dead descriptor: {:?} is rejected in every grid cell, so no layout would offload it",
            rec.name
        );
    }

    // The sweep can say no: twenty prime row strides far past any strip
    // re-fetch the grid's layouts make cheap are rejected everywhere.
    let wide = KernelFeatures {
        name: "wide".into(),
        dependence: [17i64, 19, 23, 29, 31, 37, 41, 43, 47, 53]
            .iter()
            .flat_map(|&p| [format!("-{p}*imgWidth"), format!("{p}*imgWidth")])
            .map(|s| OffsetExpr::parse(&s).unwrap())
            .collect(),
    };
    assert!(
        !offloads_somewhere(&wide),
        "the dead-descriptor sweep accepts anything"
    );
}

#[test]
fn missing_descriptor_file_is_an_error_not_a_panic() {
    let mut reg = FeatureRegistry::new();
    let err = reg
        .load_text_file(descriptor_path("no-such-file.txt"))
        .unwrap_err();
    assert!(err.reason.contains("cannot read file"));
}
