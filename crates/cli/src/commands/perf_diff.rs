//! `albireo perf-diff <old.json> <new.json>` — the perf-regression
//! gate: compares two performance JSON files (`BENCH_*.json` or
//! `albireo.profile/v1` reports) metric by metric and exits 3 when any
//! directional metric regresses past the threshold.

use super::{CliError, Command};
use crate::args::{flag, Args, Flag, Kind, Range};

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("threshold", Kind::Float(Range::at_least(0.0)), "allowed regression, percent").or("10"),
];

pub(super) const COMMAND: Command = Command::new(
    "perf-diff",
    &["<old.json>", "<new.json>"],
    "perf-regression gate over BENCH_*.json or profile reports (exit 3)",
    &[FLAGS],
    run,
);

fn run(args: &Args) -> Result<String, CliError> {
    let [old_path, new_path] = args.positionals() else {
        unreachable!("the table fixes two positionals")
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))
    };
    let diff = albireo_bench::perfdiff::PerfDiff::compare(
        &read(old_path)?,
        &read(new_path)?,
        args.get::<f64>("threshold"),
    )
    .map_err(CliError::Unknown)?;
    if diff.rows.is_empty() {
        return Err(CliError::Unknown(format!(
            "no comparable performance metrics between {old_path} and {new_path}"
        )));
    }
    let text = diff.render_text();
    if diff.regressions().next().is_some() {
        return Err(CliError::Gate {
            output: String::new(),
            message: format!("performance regression: {old_path} -> {new_path}\n{text}"),
        });
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cli, temp_path};

    #[test]
    fn perf_diff_exit_code_contract() {
        let old = temp_path("perf_old.json");
        let new = temp_path("perf_new.json");
        let o = old.to_str().unwrap().to_string();
        let n = new.to_str().unwrap().to_string();
        let row = |wall: f64| {
            format!(
                "{{\"rows\": [{{\"name\": \"analog_conv\", \"wall_ms\": {wall}, \
                 \"speedup\": 3.0}}]}}"
            )
        };
        std::fs::write(&old, row(100.0)).unwrap();
        std::fs::write(&new, row(100.0)).unwrap();
        // Identical inputs pass (exit 0).
        let out = cli(&format!("perf-diff {o} {n}")).unwrap();
        assert!(out.contains("0 regression(s)"), "{out}");
        // A 2x slowdown trips the gate with exit code 3.
        std::fs::write(&new, row(200.0)).unwrap();
        let err = cli(&format!("perf-diff {o} {n} --threshold 25")).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert!(!err.is_usage());
        assert!(err.to_string().contains("REGRESSION"), "{err}");
        assert!(err.to_string().contains("wall_ms"), "{err}");
        // Usage and I/O failures stay distinguishable.
        assert_eq!(cli(&format!("perf-diff {o}")).unwrap_err().exit_code(), 2);
        assert_eq!(
            cli(&format!("perf-diff {o} /nonexistent/x.json"))
                .unwrap_err()
                .exit_code(),
            1
        );
        std::fs::write(&new, "{}").unwrap();
        assert_eq!(
            cli(&format!("perf-diff {o} {n}")).unwrap_err().exit_code(),
            2
        );
        std::fs::remove_file(&old).ok();
        std::fs::remove_file(&new).ok();
    }
}
