//! Counting gate for the fan-out rule: a parallel region starts workers
//! only at a top-level fan-out, and a region opened inside a worker runs
//! inline. The gate counts regions that spawned threads
//! (`parallel.spawned_regions`) instead of timing anything.
//!
//! This is its own test binary, with one test, because it reads the
//! process-wide obs counters that any concurrently running test would
//! also bump.

use albireo_core::energy::NetworkEvaluation;
use albireo_core::engine::{evaluate_grid, paper_grid};
use albireo_obs::Obs;
use albireo_parallel::Parallelism;
use albireo_plan::{plan, PlanSpec, GOLDEN_PLAN_SPEC};
use albireo_tensor::conv::{conv2d, ConvSpec};
use albireo_tensor::{Tensor3, Tensor4};

/// How many regions started workers while `run` ran.
fn spawned_by(run: impl FnOnce()) -> u64 {
    let counter = albireo_obs::global().counter("parallel.spawned_regions");
    let before = counter.get();
    run();
    counter.get() - before
}

#[test]
fn only_top_level_fan_outs_start_workers() {
    albireo_obs::global().set_enabled(true);
    // Two workers by default, as on a multi-core host, so a leaf that
    // opened a region with the default policy would spawn.
    Parallelism::set_global(Parallelism::with_threads(2));

    // Leaves run serially even when called outside any worker.
    let (chips, estimates, models) = paper_grid();
    let leaf_regions = spawned_by(|| {
        NetworkEvaluation::evaluate(&chips[0].1, estimates[0], &models[0]);
        let input = Tensor3::filled(3, 12, 12, 0.5);
        let kernels = Tensor4::filled(8, 3, 3, 3, 0.25);
        conv2d(&input, &kernels, &ConvSpec::unit());
    });
    assert_eq!(
        leaf_regions, 0,
        "cost evaluation and reference conv are leaves"
    );

    // The planner fans out twice, screen then score; every cost
    // evaluation and simulation below them runs serially.
    let spec = PlanSpec::parse(GOLDEN_PLAN_SPEC).unwrap();
    let plan_regions = spawned_by(|| {
        let report = plan(&spec, Parallelism::with_threads(2), &Obs::disabled(), false).unwrap();
        assert!(
            report.screened > 1 && report.scored > 1,
            "both phases fan out"
        );
    });
    assert_eq!(
        plan_regions, 2,
        "a 2-thread plan spawns its screen and score regions"
    );

    // The evaluation grid is one region over its points.
    let grid_regions = spawned_by(|| {
        evaluate_grid(Parallelism::with_threads(2), &chips, &estimates, &models);
    });
    assert_eq!(grid_regions, 1, "a 2-thread grid spawns one region");

    // A region opened inside a worker runs inline on it.
    let nested_regions = spawned_by(|| {
        let sums = Parallelism::with_threads(2).map_indexed(2, |i| {
            let mut sum = 0;
            let inner = spawned_by(|| {
                sum = Parallelism::with_threads(4)
                    .map_indexed(8, |j| i * j)
                    .iter()
                    .sum::<usize>();
            });
            assert_eq!(inner, 0, "map_indexed inside a worker spawns nothing");
            sum
        });
        assert_eq!(sums, vec![0, 28]);
    });
    assert_eq!(nested_regions, 1, "only the outer region spawned");

    albireo_obs::global().set_enabled(false);
}
