//! Golden-value regression tests: the committed `results/*.csv` artifacts
//! pin the scheduler's cycle counts and the latency / energy / EDP numbers
//! for all four benchmark networks under all three technology estimates.
//! Any dataflow, power, or clock change that shifts the model's headline
//! numbers fails here before it silently rewrites the paper comparison.

use albireo_core::config::{ChipConfig, TechnologyEstimate};
use albireo_core::energy::NetworkEvaluation;
use albireo_core::sched::total_cycles;
use albireo_nn::{zoo, Model};
use std::path::PathBuf;

/// Relative tolerance absorbing the CSVs' printed precision (6 decimal
/// places) while still catching any real model drift.
const REL_TOL: f64 = 1e-4;

fn results_csv(name: &str) -> Vec<Vec<String>> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    text.lines()
        .skip(1) // header
        .filter(|line| !line.trim().is_empty())
        .map(|line| line.split(',').map(|f| f.trim().to_string()).collect())
        .collect()
}

fn model_named(name: &str) -> Model {
    match name {
        "AlexNet" => zoo::alexnet(),
        "VGG16" => zoo::vgg16(),
        "ResNet18" => zoo::resnet18(),
        "MobileNet" => zoo::mobilenet(),
        other => panic!("unknown golden network {other}"),
    }
}

fn estimate_tagged(tag: &str) -> TechnologyEstimate {
    match tag {
        "C" => TechnologyEstimate::Conservative,
        "M" => TechnologyEstimate::Moderate,
        "A" => TechnologyEstimate::Aggressive,
        other => panic!("unknown estimate tag {other}"),
    }
}

#[track_caller]
fn assert_close(label: &str, actual: f64, golden: f64) {
    let denom = golden.abs().max(1e-12);
    let rel = (actual - golden).abs() / denom;
    assert!(
        rel <= REL_TOL,
        "{label}: model = {actual}, golden = {golden} (rel err {rel:.2e})"
    );
}

fn chip_named(name: &str) -> ChipConfig {
    match name {
        "albireo_9" => ChipConfig::albireo_9(),
        "albireo_27" => ChipConfig::albireo_27(),
        other => panic!("unknown golden chip {other}"),
    }
}

/// The full golden grid — four networks × three estimates × two chips —
/// reproduces from the model: cycle counts exactly, latency / energy / EDP
/// within the artifact's printed precision.
#[test]
fn golden_grid_metrics_are_pinned() {
    let rows = results_csv("golden_network_metrics.csv");
    assert_eq!(rows.len(), 4 * 3 * 2, "expected the full evaluation grid");
    for row in rows {
        let (network, chip_name, tag) = (&row[0], &row[1], &row[2]);
        let chip = chip_named(chip_name);
        let model = model_named(network);
        let estimate = estimate_tagged(tag.strip_prefix("albireo_").unwrap());
        let label = format!("{network}/{chip_name}/{tag}");
        let golden_cycles: u64 = row[3].parse().unwrap();
        assert_eq!(
            total_cycles(&chip, &model),
            golden_cycles,
            "{label}: scheduler cycle count drifted"
        );
        let eval = NetworkEvaluation::evaluate(&chip, estimate, &model);
        assert_close(
            &format!("{label} latency_ms"),
            eval.latency_s * 1e3,
            row[4].parse().unwrap(),
        );
        assert_close(
            &format!("{label} energy_mj"),
            eval.energy_j * 1e3,
            row[5].parse().unwrap(),
        );
        assert_close(
            &format!("{label} edp_mj_ms"),
            eval.edp_mj_ms(),
            row[6].parse().unwrap(),
        );
    }
}

/// Every Albireo row of the Table IV artifact — the paper compares the
/// electronic baselines on AlexNet and VGG16, each under all three
/// estimates — reproduces from the model within tolerance.
#[test]
fn table4_albireo_rows_are_pinned() {
    let chip = ChipConfig::albireo_9();
    let mut albireo_rows = 0;
    for row in results_csv("table4_electronic_comparison.csv") {
        let Some(tag) = row[1].strip_prefix("albireo_") else {
            continue; // electronic baselines are reported, not modelled here
        };
        albireo_rows += 1;
        let network = &row[0];
        let eval = NetworkEvaluation::evaluate(&chip, estimate_tagged(tag), &model_named(network));
        let label = format!("{network}/albireo_{tag}");
        assert_close(
            &format!("{label} latency_ms"),
            eval.latency_s * 1e3,
            row[2].parse().unwrap(),
        );
        assert_close(
            &format!("{label} energy_mj"),
            eval.energy_j * 1e3,
            row[3].parse().unwrap(),
        );
        assert_close(
            &format!("{label} edp_mj_ms"),
            eval.edp_mj_ms(),
            row[4].parse().unwrap(),
        );
        assert_close(
            &format!("{label} gops_per_mm2"),
            eval.gops_per_mm2(),
            row[5].parse().unwrap(),
        );
        assert_close(
            &format!("{label} gops_per_mm2_active"),
            eval.gops_per_mm2_active(),
            row[6].parse().unwrap(),
        );
    }
    assert_eq!(
        albireo_rows,
        2 * 3,
        "expected both Table IV networks × every estimate"
    );
}

/// The Fig. 8 artifact pins both chip sizes (Albireo-9 and -27) under the
/// conservative estimate.
#[test]
fn fig8_both_chips_are_pinned() {
    let chip9 = ChipConfig::albireo_9();
    let chip27 = ChipConfig::albireo_27();
    let rows = results_csv("fig8_photonic_comparison.csv");
    assert_eq!(rows.len(), 4);
    for row in rows {
        let network = &row[0];
        let model = model_named(network);
        let e9 = NetworkEvaluation::evaluate(&chip9, TechnologyEstimate::Conservative, &model);
        let e27 = NetworkEvaluation::evaluate(&chip27, TechnologyEstimate::Conservative, &model);
        // Columns: 3/7/11 are albireo9 latency/energy/EDP, 4/8/12 albireo27.
        assert_close(
            &format!("{network} albireo9 latency"),
            e9.latency_s * 1e3,
            row[3].parse().unwrap(),
        );
        assert_close(
            &format!("{network} albireo27 latency"),
            e27.latency_s * 1e3,
            row[4].parse().unwrap(),
        );
        assert_close(
            &format!("{network} albireo9 energy"),
            e9.energy_j * 1e3,
            row[7].parse().unwrap(),
        );
        assert_close(
            &format!("{network} albireo27 energy"),
            e27.energy_j * 1e3,
            row[8].parse().unwrap(),
        );
        assert_close(
            &format!("{network} albireo9 EDP"),
            e9.edp_mj_ms(),
            row[11].parse().unwrap(),
        );
        assert_close(
            &format!("{network} albireo27 EDP"),
            e27.edp_mj_ms(),
            row[12].parse().unwrap(),
        );
    }
}

/// Scheduler cycle counts are pinned through the latency column: the
/// committed latency at each estimate's clock (5 GHz conservative /
/// moderate, 8 GHz aggressive) must equal the scheduler's cycle total.
#[test]
fn scheduler_cycle_counts_match_golden_latencies() {
    let chip = ChipConfig::albireo_9();
    for row in results_csv("table4_electronic_comparison.csv") {
        let Some(tag) = row[1].strip_prefix("albireo_") else {
            continue;
        };
        let estimate = estimate_tagged(tag);
        let model = model_named(&row[0]);
        let cycles = total_cycles(&chip, &model);
        let golden_latency_ms: f64 = row[2].parse().unwrap();
        let golden_cycles = golden_latency_ms * 1e-3 * estimate.clock_hz();
        assert_close(
            &format!("{}/albireo_{tag} cycles", row[0]),
            cycles as f64,
            golden_cycles,
        );
        // The evaluation's latency is exactly cycles/clock — no hidden
        // terms between the scheduler and the reported latency.
        let eval = NetworkEvaluation::evaluate(&chip, estimate, &model);
        let exact = cycles as f64 / estimate.clock_hz();
        let rel = (eval.latency_s - exact).abs() / exact;
        assert!(rel < 1e-9, "{}: latency drifted from cycle count", row[0]);
    }
}

/// The golden evaluations are invariant under the parallel engine: any
/// thread count reproduces the committed numbers bit-for-bit.
#[test]
fn golden_values_hold_under_parallel_evaluation() {
    use albireo_core::engine::{evaluate_grid, paper_grid};
    use albireo_parallel::Parallelism;
    let (chips, estimates, models) = paper_grid();
    let golden = results_csv("golden_network_metrics.csv");
    for threads in [1usize, 2, 8] {
        let grid = evaluate_grid(
            Parallelism::with_threads(threads),
            &chips,
            &estimates,
            &models,
        );
        for g in &grid {
            let tag = format!("albireo_{}", g.estimate.suffix());
            let row = golden
                .iter()
                .find(|r| r[0] == g.evaluation.network && r[1] == g.chip_name && r[2] == tag)
                .unwrap_or_else(|| {
                    panic!(
                        "no golden row for {}/{}/{tag}",
                        g.evaluation.network, g.chip_name
                    )
                });
            assert_close(
                &format!(
                    "{}/{}/{tag} at {threads} threads",
                    g.evaluation.network, g.chip_name
                ),
                g.evaluation.latency_s * 1e3,
                row[4].parse().unwrap(),
            );
        }
    }
}
