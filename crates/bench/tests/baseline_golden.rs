//! Golden-value regression for the baseline cost models: the committed
//! `results/golden_baseline_metrics.csv` pins PIXEL, DEAP-CNN, and the
//! reported electronic accelerators — costed through the shared
//! [`Accelerator`] trait — byte for byte. Any change to a baseline's
//! analytic model (or to the trait plumbing that feeds the serving
//! simulator) fails here before it silently shifts comparisons.
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p albireo-cli -- experiment csv
//! ```

use albireo_baselines::{reported_accelerators, Accelerator, DeapCnn, Pixel};
use albireo_bench::golden_baseline_metrics_csv;
use albireo_nn::zoo;
use std::path::PathBuf;

fn golden_csv() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
        .join("golden_baseline_metrics.csv");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn golden_baseline_metrics_reproduce_byte_exactly() {
    assert_eq!(
        golden_baseline_metrics_csv(),
        golden_csv(),
        "baseline costs diverged from results/golden_baseline_metrics.csv; \
         if the change is intentional, regenerate with \
         `cargo run --release -p albireo-cli -- experiment csv`"
    );
}

#[test]
fn golden_covers_every_baseline_and_supported_network() {
    let committed = golden_csv();
    for name in ["PIXEL", "DEAP-CNN", "Eyeriss", "ENVISION", "UNPU"] {
        assert!(committed.contains(name), "golden CSV lost {name}");
    }
    // Photonic baselines cost all four benchmarks; reported electronic
    // designs only the two they publish numbers for.
    let rows = committed.lines().count() - 1;
    let photonic = 2 * zoo::all_benchmarks().len();
    let reported: usize = reported_accelerators()
        .iter()
        .map(|a| {
            zoo::all_benchmarks()
                .iter()
                .filter(|m| a.supports(m))
                .count()
        })
        .sum();
    assert_eq!(rows, photonic + reported);
}

#[test]
fn trait_costs_match_bespoke_constructors() {
    // The trait path must agree with direct construction — `cost` is the
    // same arithmetic regardless of whether the caller holds a concrete
    // type or a `dyn Accelerator`.
    let vgg = zoo::vgg16();
    let pixel = Pixel::paper_60w();
    let deap = DeapCnn::paper_60w();
    let dyn_pixel: &dyn Accelerator = &pixel;
    let dyn_deap: &dyn Accelerator = &deap;
    assert_eq!(pixel.cost(&vgg), dyn_pixel.cost(&vgg));
    assert_eq!(deap.cost(&vgg), dyn_deap.cost(&vgg));
    assert_eq!(dyn_pixel.cost(&vgg).accelerator, "PIXEL");
    assert_eq!(dyn_deap.cost(&vgg).accelerator, "DEAP-CNN");
}
