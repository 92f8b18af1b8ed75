//! `albireo bench <study>` — the benchmark studies: parallel scaling,
//! the serving studies, planner throughput, and the paper-oracle
//! checklist.

use super::{write_file, CliError, Command, FILE, POSITIVE};
use crate::args::{flag, Args, Flag, Kind, Range};
use albireo_bench::sweep::{run_parallel_sweep, SweepOptions};
use albireo_parallel::Parallelism;
use std::path::Path;

#[rustfmt::skip]
const PARALLEL_FLAGS: &[Flag] = &[
    flag("thread-counts", Kind::Ints { min: 1 }, "thread counts to time (default 1, 2, 4, .., cores)"),
    flag("target-ms", POSITIVE, "budget per (workload, thread count), ms").or("60"),
    flag("out", FILE, "write the JSON here instead of stdout"),
];

#[rustfmt::skip]
const SERVING_FLAGS: &[Flag] = &[
    flag("out-dir", FILE, "directory for the study CSVs").or("results"),
    flag("out", FILE, "the study JSON").or("BENCH_serving.json"),
];

#[rustfmt::skip]
const PLAN_FLAGS: &[Flag] = &[
    flag("out-dir", FILE, "directory for the golden frontier CSV").or("results"),
    flag("out", FILE, "the throughput JSON").or("BENCH_plan.json"),
];

#[rustfmt::skip]
const ORACLES_FLAGS: &[Flag] = &[
    flag("tol-scale", Kind::Float(Range::at_least(0.0)), "multiply every relative tolerance").or("1"),
];

/// `albireo bench <study>` with a name no study has.
pub(super) const STUDY: Command = Command::new(
    "bench",
    &["<study>"],
    "one of the benchmark studies below",
    &[],
    |args| {
        Err(CliError::Unknown(format!(
            "unknown bench study `{}` (try: parallel, serving, plan, oracles)",
            args.positionals()[0]
        )))
    },
);

pub(super) const PARALLEL: Command = Command::new(
    "bench parallel",
    &[],
    "parallel-scaling benchmark (albireo.bench.parallel/v1)",
    &[PARALLEL_FLAGS],
    parallel,
);

pub(super) const SERVING: Command = Command::new(
    "bench serving",
    &[],
    "serving studies + golden serving CSVs",
    &[SERVING_FLAGS],
    serving,
);

pub(super) const PLAN: Command = Command::new(
    "bench plan",
    &[],
    "planner throughput + golden plan frontier",
    &[PLAN_FLAGS],
    plan,
);

pub(super) const ORACLES: Command = Command::new(
    "bench oracles",
    &[],
    "paper-oracle checklist (exit 3 on a failure)",
    &[ORACLES_FLAGS],
    oracles,
);

fn parallel(args: &Args) -> Result<String, CliError> {
    let mut options = SweepOptions::default();
    if let Some(counts) = args.ints("thread-counts") {
        options.thread_counts = counts;
    }
    options.target_ms = args.get::<f64>("target-ms");
    let report = run_parallel_sweep(&options);
    let json = report.to_json();
    let Some(path) = args.str("out") else {
        return Ok(json);
    };
    write_file(path, &json)?;
    let mut note = format!(
        "wrote {path}: {} workloads, best whole-sweep speedup {:.2}x on {} cores, \
         deterministic: {}\n",
        report.experiments.len(),
        report.best_total_speedup(),
        report.available_parallelism,
        report.all_deterministic()
    );
    if report.available_parallelism <= 1 {
        note.push_str(
            "warning: this machine exposes a single core; speedups sit at ~1.0x and the \
             sweep only demonstrates determinism, not scaling\n",
        );
    }
    Ok(note)
}

/// The output paths of a study that writes files.
fn paths(args: &Args) -> (&Path, &Path) {
    let path = |name| Path::new(args.str(name).unwrap_or_default());
    (path("out-dir"), path("out"))
}

fn serving(args: &Args) -> Result<String, CliError> {
    let (dir, json) = paths(args);
    albireo_bench::serving_bench::run_serving_bench(dir, json, Parallelism::default())
        .map_err(|e| CliError::Io(format!("cannot write the serving study: {e}")))
}

fn plan(args: &Args) -> Result<String, CliError> {
    let (dir, json) = paths(args);
    albireo_bench::plan_bench::run_plan_bench(dir, json, Parallelism::default())
        .map_err(|e| CliError::Io(format!("cannot write the plan study: {e}")))
}

fn oracles(args: &Args) -> Result<String, CliError> {
    let report = albireo_bench::oracles::validate_oracles(args.get::<f64>("tol-scale"));
    if report.failed == 0 {
        return Ok(report.text);
    }
    Err(CliError::Gate {
        message: format!(
            "{} of {} paper oracles failed",
            report.failed,
            report.passed + report.failed
        ),
        output: report.text,
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::cli;

    #[test]
    fn bench_parallel_emits_report_schema() {
        let out = cli("bench parallel --thread-counts 1,2 --target-ms 1").unwrap();
        for key in [
            "albireo.bench.parallel/v1",
            "\"paper_grid\"",
            "\"speedup\"",
            "\"deterministic\": true",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        assert!(cli("bench parallel --thread-counts 1,0").is_err());
        // `--threads` is the global worker count, not the sweep's list.
        assert!(cli("bench parallel --threads 1,2").is_err());
    }
}
