//! Golden-value regression for the serving simulator: the committed
//! `results/golden_serving_metrics.csv` pins the *entire* service report
//! of the fixed (seed × fleet × rate × policy) golden grid — latency
//! percentiles, shed rates, goodput, energy per request, and the
//! per-run digests — byte for byte. Any change to the event engine, the
//! batching policies, the service-time oracle, or the workload generator
//! that shifts serving behaviour fails here before it silently rewrites
//! the study artifacts. Regenerate with:
//!
//! ```text
//! cargo run --release -p albireo-cli -- bench serving
//! ```

use albireo_parallel::Parallelism;
use albireo_runtime::{run_serving_study, StudyOptions};
use std::path::PathBuf;

fn golden_csv() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join("golden_serving_metrics.csv");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn golden_serving_metrics_reproduce_byte_exactly() {
    let study = run_serving_study(&StudyOptions::golden(), Parallelism::default());
    let regenerated = study.to_csv();
    let committed = golden_csv();
    assert_eq!(
        regenerated, committed,
        "serving study diverged from results/golden_serving_metrics.csv; \
         if the change is intentional, regenerate with \
         `cargo run --release -p albireo-cli -- bench serving`"
    );
}

#[test]
fn golden_grid_covers_both_fleets_and_all_policies() {
    let committed = golden_csv();
    let options = StudyOptions::golden();
    assert_eq!(
        committed.lines().count(),
        options.cells() * options.replicas + 1,
        "row count must match the golden grid"
    );
    for key in [
        "albireo_9+albireo_27",
        "albireo_9_C",
        "immediate",
        "size4",
        "deadline200us_max8",
    ] {
        assert!(committed.contains(key), "golden CSV lost {key}");
    }
}

#[test]
fn study_digests_are_identical_at_one_and_eight_threads() {
    let options = StudyOptions::golden();
    let one = run_serving_study(&options, Parallelism::with_threads(1));
    let eight = run_serving_study(&options, Parallelism::with_threads(8));
    assert_eq!(
        one.combined_digest(),
        eight.combined_digest(),
        "serving study must be bit-deterministic at any thread count"
    );
    assert_eq!(one, eight);
    assert_eq!(one.to_json(), eight.to_json());
}
