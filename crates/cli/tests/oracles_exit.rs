//! Exit-code contract of `albireo bench oracles`: zero when every paper
//! oracle passes, nonzero as soon as any oracle fails. CI gates on this,
//! so the contract gets its own process-level test.

use std::process::Command;

fn run(args: &[&str]) -> (String, bool) {
    let (stdout, code) = run_code(args);
    (stdout, code == Some(0))
}

fn run_code(args: &[&str]) -> (String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_albireo"))
        .args(["bench", "oracles"])
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.code(),
    )
}

#[test]
fn healthy_checklist_exits_zero() {
    let (stdout, ok) = run(&[]);
    assert!(
        ok,
        "bench oracles must exit 0 when all oracles pass:\n{stdout}"
    );
    assert!(stdout.contains("PASS"));
    assert!(stdout.contains(", 0 failed"), "{stdout}");
    assert!(stdout.contains("20 passed, 0 failed"), "{stdout}");
    assert!(!stdout.contains("[FAIL]"), "{stdout}");
}

#[test]
fn forced_failures_exit_nonzero() {
    // Shrinking every tolerance to one millionth forces the relative
    // checks to fail against the real measured values — the genuine
    // failing path, not a mocked one.
    let (stdout, ok) = run(&["--tol-scale", "1e-6"]);
    assert!(
        !ok,
        "bench oracles must exit nonzero when oracles fail:\n{stdout}"
    );
    assert!(stdout.contains("[FAIL]"), "{stdout}");
    // A failing oracle is a tripped gate: exit 3, checklist on stdout.
    assert_eq!(run_code(&["--tol-scale", "1e-6"]).1, Some(3));
}

#[test]
fn loose_tolerances_still_pass() {
    let (stdout, ok) = run(&["--tol-scale", "10"]);
    assert!(ok, "{stdout}");
}

#[test]
fn bad_arguments_exit_with_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_albireo"))
        .args(["bench", "oracles", "--frobnicate"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(env!("CARGO_BIN_EXE_albireo"))
        .args(["bench", "oracles", "--tol-scale", "lots"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}
