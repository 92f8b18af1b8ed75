//! Golden-value regression for the capacity planner: the committed
//! `results/golden_plan_frontier.csv` pins the ranked feasible frontier
//! of the golden planning scenario ([`albireo_plan::GOLDEN_PLAN_SPEC`])
//! byte for byte — fleet rankings, energy per request, p99 latencies,
//! spin-up counts, and pareto flags. Any change to the planner's search
//! order, seeding, aggregation, or to the serving engine underneath
//! that shifts the plan fails here before it silently rewrites the
//! artifact. Regenerate with:
//!
//! ```text
//! cargo run --release -p albireo-cli -- bench plan
//! ```

use albireo_obs::Obs;
use albireo_parallel::Parallelism;
use albireo_plan::{plan, PlanSpec, GOLDEN_PLAN_SPEC};
use std::path::PathBuf;

fn golden_csv() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join("golden_plan_frontier.csv");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn golden_plan_frontier_reproduces_byte_exactly() {
    let spec = PlanSpec::parse(GOLDEN_PLAN_SPEC).expect("golden spec parses");
    let report = plan(&spec, Parallelism::default(), &Obs::disabled(), false).unwrap();
    assert_eq!(
        report.to_csv(),
        golden_csv(),
        "planner diverged from results/golden_plan_frontier.csv; \
         if the change is intentional, regenerate with \
         `cargo run --release -p albireo-cli -- bench plan`"
    );
}

#[test]
fn golden_frontier_pins_the_elastic_headline() {
    // The committed artifact itself must carry the planner's headline
    // result: rank 1 is an elastic fleet that spun up during the run,
    // and every static row costs more energy per request.
    let committed = golden_csv();
    let mut rows = committed.lines();
    let header = rows.next().expect("header row");
    assert!(header.starts_with("rank,fleet,chips,policy,autoscale,"));
    let parsed: Vec<Vec<&str>> = rows.map(|r| r.split(',').collect()).collect();
    assert!(!parsed.is_empty(), "golden frontier is empty");
    let energy = |row: &[&str]| row[9].parse::<f64>().expect("energy column");
    let winner = &parsed[0];
    assert!(winner[4].starts_with("elastic"), "rank 1 must be elastic");
    assert!(
        winner[11].parse::<u64>().unwrap() > 0,
        "winner never spun up"
    );
    for row in parsed.iter().filter(|r| r[4] == "static") {
        assert!(
            energy(winner) < energy(row),
            "elastic winner must beat static fleet {} on energy",
            row[1]
        );
    }
}
