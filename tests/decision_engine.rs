//! End-to-end tests of the Fig. 3 decision workflow: offload
//! acceptance, the dynamic rejection fallback, and the successive-
//! operation layout reuse the paper motivates in Section I.

use das::kernels::{workload, Kernel, Window};
use das::prelude::*;

/// A pathological operator: long vertical strides that no single-strip
/// replication can cover and whose strip-fetch cost dwarfs normal I/O.
#[derive(Debug, Clone, Copy)]
struct WideStride;

impl Kernel for WideStride {
    fn name(&self) -> &'static str {
        "wide-stride"
    }

    fn dependence_offsets(&self, img_width: u64) -> Vec<i64> {
        let w = img_width as i64;
        vec![-33 * w, -17 * w, -9 * w, 9 * w, 17 * w, 33 * w]
    }

    fn cost_per_element(&self) -> f64 {
        50.0
    }

    fn process_element(&self, src: &Window<'_>, row: u64, col: u64) -> f32 {
        let mut acc = src.get(row as i64, col as i64).expect("center in bounds");
        for dr in [-33i64, -17, -9, 9, 17, 33] {
            if let Some(v) = src.get(row as i64 + dr, col as i64) {
                acc += v;
            }
        }
        acc
    }

    fn process_interior(&self, rows: &[&[f32]], out: &mut [f32]) {
        for (j, slot) in out.iter_mut().enumerate() {
            let mut acc = rows[33][j];
            for dr in [-33i64, -17, -9, 9, 17, 33] {
                acc += rows[(33 + dr) as usize][j];
            }
            *slot = acc;
        }
    }
}

#[test]
fn rejected_offload_falls_back_to_traditional_service() {
    // Small strips (one 64-element row each) make the wide strides
    // unsatisfiable and the per-strip fetching ruinous, so the Fig. 3
    // workflow must reject and serve as normal I/O.
    let mut cfg = ClusterConfig::small_test();
    cfg.strip_size = 64 * 4;
    cfg.storage_nodes = 8;
    cfg.compute_nodes = 8;
    let input = workload::fbm_dem(64, 2048, 77);

    let report = run_scheme(&cfg, SchemeKind::Das, &WideStride, &input);
    let das = report.das.as_ref().expect("outcome recorded");
    assert!(!das.offloaded, "wide strides must be rejected");
    // Fallback means a TS-shaped data path: client traffic, no
    // server-to-server dependence storm.
    assert!(report.bytes.net_client_server >= 2 * input.byte_len());
    assert_eq!(report.bytes.net_server_server, 0);
    // And the output is still correct.
    assert_eq!(report.output_fingerprint, WideStride.apply(&input).fingerprint());
}

#[test]
fn accepted_offload_keeps_work_on_servers() {
    // Width 256 → the small_test 2 KiB strips hold two rows, so the
    // improved layout fully covers the stencil and the offload sticks.
    let cfg = ClusterConfig::small_test();
    let input = workload::fbm_dem(256, 1024, 78);
    let report = run_scheme(&cfg, SchemeKind::Das, &GaussianFilter, &input);
    let das = report.das.as_ref().unwrap();
    assert!(das.offloaded);
    assert_eq!(report.bytes.net_client_server, 0);
}

#[test]
fn successive_operations_reconfigure_once_and_reuse() {
    // The paper's Section I pipeline: flow-accumulation always follows
    // flow-routing with the same 8-neighbor pattern. The first request
    // (successive=true) pays one redistribution; the second finds the
    // layout already suitable and moves nothing.
    let width = 256u64;
    let dem = workload::fbm_dem(width, 512, 5);
    let mut pfs = PfsCluster::new(6);
    let file = pfs
        .create("dem", &dem.to_bytes(), StripeSpec::new(8 * 1024), LayoutPolicy::RoundRobin)
        .unwrap();

    let client = ActiveStorageClient::with_builtin_features();
    let opts = RequestOptions { img_width: width, successive: true, ..Default::default() };

    let (d1, t1) = client.decide_and_prepare(&mut pfs, file, "flow-routing", &opts).unwrap();
    assert!(d1.is_offload());
    assert!(t1.bytes_moved() > 0, "first request reconfigures");
    pfs.verify(file).unwrap();

    let (d2, t2) = client
        .decide_and_prepare(&mut pfs, file, "flow-accumulation", &opts)
        .unwrap();
    assert!(d2.is_offload());
    assert_eq!(t2.bytes_moved(), 0, "second request reuses the layout");

    // After reconfiguration the file still reads back identically.
    let (bytes, _) = pfs.read(file, 0, dem.byte_len()).unwrap();
    assert_eq!(bytes, dem.to_bytes());
}

#[test]
fn registry_loaded_from_descriptor_files_drives_decisions() {
    // Descriptors can come from user-provided files in either format;
    // a kernel registered via XML must decide identically to the
    // built-in text record.
    let width = 128u64;
    let dem = workload::fbm_dem(width, 256, 4);
    let mut pfs = PfsCluster::new(4);
    let file = pfs
        .create("img", &dem.to_bytes(), StripeSpec::new(4 * 1024), LayoutPolicy::RoundRobin)
        .unwrap();

    let mut custom = ActiveStorageClient::new(FeatureRegistry::new());
    custom
        .registry_mut()
        .load_xml(
            "<kernel><name>my-filter</name>\
             <dependence>-imgWidth+1, -imgWidth, -imgWidth-1, -1, 1, \
             imgWidth-1, imgWidth, imgWidth+1</dependence></kernel>",
        )
        .unwrap();

    let builtin = ActiveStorageClient::with_builtin_features();
    let opts = RequestOptions { img_width: width, ..Default::default() };

    let d_custom = custom.decide(&pfs, file, "my-filter", &opts).unwrap();
    let d_builtin = builtin.decide(&pfs, file, "gaussian-filter", &opts).unwrap();
    assert_eq!(d_custom.is_offload(), d_builtin.is_offload());
    assert_eq!(
        d_custom.predicted().nas.bytes,
        d_builtin.predicted().nas.bytes,
        "same pattern, same prediction"
    );
}

#[test]
fn planned_layouts_keep_servers_balanced() {
    // The planner promises the busiest server stays within ~15% of the
    // mean; verify against the file system's own balance report for a
    // range of file sizes (including awkward strip counts).
    use das_core::{plan_distribution, PlanOptions};
    let width = 2048u64;
    let strip = 64 * 1024usize;
    for rows in [1024u64, 1344, 2048, 3072] {
        let dem = workload::fbm_dem(width, rows, 3);
        let offsets = FlowRouting.dependence_offsets(width);
        let plan = plan_distribution(
            &offsets,
            4,
            strip as u64,
            12,
            dem.byte_len(),
            PlanOptions::default(),
        );
        let mut pfs = PfsCluster::new(12);
        let f = pfs
            .create("dem", &dem.to_bytes(), StripeSpec::new(strip), plan.policy)
            .unwrap();
        let report = pfs.balance_report(f).unwrap();
        assert!(
            report.imbalance() <= 1.16,
            "{rows} rows: imbalance {:.3} with {:?}",
            report.imbalance(),
            plan.policy
        );
        if let LayoutPolicy::GroupedReplicated { group } = plan.policy {
            let expected = 1.0 + 2.0 / group as f64;
            assert!(
                (report.storage_factor() - expected).abs() < 0.05,
                "{rows} rows: storage factor {:.3} vs 1 + 2/r = {expected:.3}",
                report.storage_factor()
            );
        }
    }
}

#[test]
fn decision_quality_predictor_picks_the_faster_side() {
    // Sweep stride lengths; wherever the predictor says "reject",
    // actually simulating both sides must show TS at least as fast as
    // a forced naive offload would have been — and vice versa. Here we
    // check the reject side (the offload side is covered by
    // fig11_ordering): a rejected stride served NAS-style must indeed
    // lose to TS.
    #[derive(Debug, Clone, Copy)]
    struct Stride(i64);
    impl Kernel for Stride {
        fn name(&self) -> &'static str {
            "stride"
        }
        fn dependence_offsets(&self, img_width: u64) -> Vec<i64> {
            let w = img_width as i64;
            vec![-self.0 * w, self.0 * w]
        }
        fn cost_per_element(&self) -> f64 {
            50.0
        }
        fn process_element(&self, src: &Window<'_>, row: u64, col: u64) -> f32 {
            let mut acc = src.get(row as i64, col as i64).expect("center");
            for dr in [-self.0, self.0] {
                if let Some(v) = src.get(row as i64 + dr, col as i64) {
                    acc += v;
                }
            }
            acc
        }
        fn process_interior(&self, rows: &[&[f32]], out: &mut [f32]) {
            let k = self.0 as usize;
            for (j, slot) in out.iter_mut().enumerate() {
                *slot = rows[k][j] + rows[0][j] + rows[2 * k][j];
            }
        }
    }

    let mut cfg = ClusterConfig::small_test();
    cfg.strip_size = 64 * 4; // one-row strips: strides cross strips
    let input = workload::fbm_dem(64, 1024, 11);

    for stride in [9i64, 21, 33] {
        let kernel = Stride(stride);
        let das = run_scheme(&cfg, SchemeKind::Das, &kernel, &input);
        let outcome = das.das.as_ref().unwrap();
        if !outcome.offloaded {
            let nas = run_scheme(&cfg, SchemeKind::Nas, &kernel, &input);
            let ts = run_scheme(&cfg, SchemeKind::Ts, &kernel, &input);
            assert!(
                ts.exec_time <= nas.exec_time,
                "stride {stride}: predictor rejected but NAS ({}) beat TS ({})",
                nas.exec_time,
                ts.exec_time
            );
        }
    }
}
