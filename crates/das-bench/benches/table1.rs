//! Table I — Description of Data Analysis Kernels.
//!
//! Regenerates the paper's kernel inventory, extended with the
//! dependence pattern (from the Kernel Features descriptors), the
//! calibrated per-element cost, a functional self-check of each kernel
//! on a small raster, and its measured speed.

use std::hint::black_box;
use std::time::Instant;

use das_bench::TABLE1_KERNELS;
use das_core::FeatureRegistry;
use das_kernels::{kernel_by_name, kernel_names, workload, RasterSource};

fn describe(name: &str) -> &'static str {
    match name {
        "flow-routing" => {
            "Basic operation of terrain analysis (GIS): spatial patterns from \
             the maximum number of downslope cells flow can be directed to"
        }
        "flow-accumulation" => {
            "Terrain analysis (GIS): accumulated weight of all cells flowing \
             into each downslope cell of the output raster"
        }
        "gaussian-filter" => {
            "Signal / medical image processing: smooths the raw input into a \
             same-size output raster"
        }
        "median-filter" => "Medical image processing: impulse-noise removal (extension)",
        "slope-analysis" => "Terrain analysis: steepest-descent surface slope (extension)",
        "sobel-edge" => "Image processing: Sobel gradient-magnitude edge detection (extension)",
        "gaussian-filter-5x5" => {
            "Image processing: radius-2 smoothing — 24 dependence offsets \
             spanning two rows each way (extension)"
        }
        "local-variance" => "Texture analysis: 3x3 windowed variance (extension)",
        "laplacian-4" => "4-neighbor (von Neumann) Laplacian — the paper's other common pattern (extension)",
        "pointwise-scale" => {
            "Dependence-free affine transform — the paper's ideal offloading case (extension)"
        }
        _ => "",
    }
}

fn main() {
    println!("\nTABLE I — DESCRIPTION OF DATA ANALYSIS KERNELS");
    println!("{}", "=".repeat(72));

    let registry = FeatureRegistry::with_builtin();
    let probe = workload::fbm_dem(64, 64, 1);
    let timed = workload::fbm_dem(512, 512, 2);

    for &name in kernel_names() {
        let kernel = kernel_by_name(name).expect("registered");
        let features = registry.get(name).expect("descriptor");
        let paper = if TABLE1_KERNELS.contains(&name) { "(paper Table I)" } else { "(extension)" };
        println!("\n{name} {paper}");
        println!("  {}", describe(name));
        println!(
            "  dependence: {} offsets, pattern {:?} at width 64",
            features.dependence.len(),
            features.offsets(64),
        );
        println!("  calibrated cost: {} ns/element", kernel.cost_per_element());

        // Self-check: the kernel runs and matches its descriptor.
        let out = kernel.apply(&probe);
        assert_eq!(out.cells(), probe.cells());
        let mut a = features.offsets(64);
        let mut b = kernel.dependence_offsets(64);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "{name}: descriptor matches implementation");
        println!("  self-check: output {}x{}, descriptor consistent ✔", out.width(), out.height());

        // Measured speed: `process_range` (the loop every scheme runs)
        // over a 512 × 512 DEM, best of 5.
        let mut cells = vec![0f32; timed.cells() as usize];
        let best = (0..5)
            .map(|_| {
                let t = Instant::now();
                kernel.process_range(&RasterSource(black_box(&timed)), 0, black_box(&mut cells));
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        println!(
            "  measured: {:.1} ns/element (process_range, 512x512, best of 5)",
            best * 1e9 / timed.cells() as f64
        );
    }
    println!();
}
