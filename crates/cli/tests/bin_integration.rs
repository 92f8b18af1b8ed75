//! End-to-end tests of the `albireo` binary itself (spawned as a real
//! process, exercising argument parsing, exit codes, and output).

use std::process::Command;

/// Runs the binary on a whitespace-separated argument line.
fn run(line: &str) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_albireo"))
        .args(line.split_whitespace())
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn no_arguments_and_help_print_usage() {
    for line in ["", "help", "--help"] {
        let (stdout, _, ok) = run(line);
        assert!(ok);
        assert!(stdout.contains("USAGE"), "{line}: {stdout}");
        assert!(stdout.contains("COMMANDS"), "{line}: {stdout}");
    }
}

#[test]
fn commands_run_end_to_end() {
    for (line, markers) in [
        (
            "evaluate alexnet --estimate c",
            &["AlexNet", "latency", "EDP"][..],
        ),
        ("power", &["22.7"]),
        (
            "sweep --param ng --values 9,27 --network alexnet",
            &["Ng=9", "Ng=27"],
        ),
        (
            "precision --k2 0.03 --wavelengths 20",
            &["crosstalk-limited"],
        ),
        ("evaluate vgg16 --threads 4", &["VGG16"]),
    ] {
        let (stdout, _, ok) = run(line);
        assert!(ok, "{line}: {stdout}");
        for marker in markers {
            assert!(
                stdout.contains(marker),
                "{line}: missing {marker} in {stdout}"
            );
        }
    }
}

#[test]
fn experiment_fig9_end_to_end() {
    let (stdout, _, ok) = run("experiment fig9");
    assert!(ok);
    assert!(stdout.contains("AWG"));
    assert!(stdout.contains("124") || stdout.contains("125"));
}

#[test]
fn output_is_identical_at_any_thread_count() {
    let (serial, _, ok) = run("evaluate vgg16 --per-layer 99 --threads 1");
    assert!(ok);
    for threads in ["2", "8"] {
        let (parallel, _, ok) = run(&format!(
            "evaluate vgg16 --per-layer 99 --threads {threads}"
        ));
        assert!(ok);
        assert_eq!(parallel, serial, "output diverged at {threads} threads");
    }
}

#[test]
fn sweep_json_end_to_end() {
    let (stdout, _, ok) = run("sweep --param ng --values 9,27 --json --network alexnet");
    assert!(ok, "{stdout}");
    assert!(stdout.trim_start().starts_with('['));
    assert!(stdout.trim_end().ends_with(']'));
    for key in [
        "\"design\"",
        "\"power_w\"",
        "\"area_mm2\"",
        "\"latency_s\"",
        "\"edp_mj_ms\"",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
}

#[test]
fn bench_end_to_end_emits_schema() {
    let (stdout, _, ok) = run("bench parallel --thread-counts 1,2 --target-ms 1");
    assert!(ok, "{stdout}");
    for key in [
        "\"schema\": \"albireo.bench.parallel/v1\"",
        "\"thread_counts\": [1, 2]",
        "\"experiments\"",
        "\"paper_grid\"",
        "\"device_sweeps\"",
        "\"analog_conv\"",
        "\"wall_ms\"",
        "\"speedup\"",
        "\"total\"",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    assert!(stdout.contains("\"deterministic\": true"));
    assert!(!stdout.contains("\"deterministic\": false"));
}

#[test]
fn serve_end_to_end_prints_service_report() {
    let (stdout, _, ok) = run("serve --requests 200 --seed 7");
    assert!(ok, "{stdout}");
    for key in [
        "serving report",
        "p50",
        "p95",
        "p99",
        "shed",
        "goodput",
        "mJ/request",
        "util",
        "albireo_9",
        "albireo_27",
        "digest",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
}

#[test]
fn serve_same_seed_is_byte_identical_at_any_thread_count() {
    let (baseline, _, ok) = run("serve --requests 200 --seed 7 --threads 1");
    assert!(ok, "{baseline}");
    for threads in ["2", "8"] {
        let (other, _, ok) = run(&format!(
            "serve --requests 200 --seed 7 --threads {threads}"
        ));
        assert!(ok);
        assert_eq!(other, baseline, "serve diverged at {threads} threads");
    }
    // Replicated runs must also be thread-count invariant.
    let (rep1, _, ok1) = run("serve --requests 120 --replicas 3 --threads 1");
    let (rep8, _, ok8) = run("serve --requests 120 --replicas 3 --threads 8");
    assert!(ok1 && ok8);
    assert_eq!(rep1, rep8);
}

#[test]
fn serve_trace_is_byte_identical_across_thread_counts() {
    let dir = std::env::temp_dir().join("albireo_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_for = |threads: &str| {
        let path = dir.join(format!("trace_t{threads}.json"));
        let path_str = path.to_str().unwrap().to_string();
        let (stdout, _, ok) = run(&format!(
            "serve --requests 200 --seed 7 --threads {threads} --trace-out {path_str}"
        ));
        assert!(ok, "{stdout}");
        let digest = stdout
            .lines()
            .find(|l| l.contains("trace events"))
            .and_then(|l| l.split("digest ").nth(1))
            .expect("digest note in output")
            .trim()
            .to_string();
        let trace = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        (trace, digest)
    };
    let (baseline, base_digest) = trace_for("1");
    assert!(baseline.contains("\"traceEvents\""));
    assert!(baseline.contains("\"ph\": \"X\""), "no complete events");
    for threads in ["2", "4", "8"] {
        let (trace, digest) = trace_for(threads);
        assert_eq!(trace, baseline, "trace diverged at {threads} threads");
        assert_eq!(digest, base_digest, "digest diverged at {threads} threads");
    }
}

#[test]
fn serve_json_end_to_end() {
    let (stdout, _, ok) = run("serve --requests 100 --json");
    assert!(ok, "{stdout}");
    for key in [
        "\"schema\": \"albireo.bench.serving/v4\"",
        "\"latency_ms\"",
        "\"goodput_rps\"",
        "\"energy_per_request_mj\"",
        "\"chips\"",
        "\"digest\"",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
}

#[test]
fn serve_chip_failure_degrades_without_error() {
    let (stdout, _, ok) = run("serve --requests 300 --rate 4000 --faults fail:1@0.01");
    assert!(ok, "a mid-run chip failure must not error: {stdout}");
    assert!(stdout.contains("OFFLINE"), "{stdout}");
    assert!(!stdout.contains("completed 0 "), "{stdout}");
}

#[test]
fn plan_end_to_end_is_thread_count_invariant() {
    let run_at = |threads: &str| {
        run(&format!("plan --slo p99<5ms --rate 8000 --requests 400 --screen-requests 100 --json --threads {threads}"))
    };
    let (baseline, _, ok) = run_at("1");
    assert!(ok, "{baseline}");
    for key in [
        "\"schema\": \"albireo.plan/v1\"",
        "\"winner\"",
        "\"frontier\"",
        "\"energy_per_request_mj\"",
        "\"digest\"",
    ] {
        assert!(baseline.contains(key), "missing {key} in {baseline}");
    }
    for threads in ["2", "8"] {
        let (other, _, ok) = run_at(threads);
        assert!(ok);
        assert_eq!(other, baseline, "plan diverged at {threads} threads");
    }
}

#[test]
fn plan_writes_report_and_frontier_csv() {
    let dir = std::env::temp_dir().join("albireo_plan_test");
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("plan.json");
    let csv_path = dir.join("frontier.csv");
    let (stdout, _, ok) = run(&format!(
        "plan --slo p99<5ms --rate 8000 --requests 400 --screen-requests 100 --json \
         --out {} --csv-out {}",
        json_path.display(),
        csv_path.display()
    ));
    assert!(ok, "{stdout}");
    assert!(stdout.contains("wrote"), "{stdout}");
    assert!(stdout.contains("digest"), "{stdout}");
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("albireo.plan/v1"));
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    assert!(
        csv.starts_with("rank,fleet,chips,policy,autoscale,"),
        "{csv}"
    );
    assert!(csv.lines().count() >= 2, "{csv}");
    std::fs::remove_file(&json_path).ok();
    std::fs::remove_file(&csv_path).ok();
}

#[test]
fn bench_writes_json_file() {
    let dir = std::env::temp_dir().join("albireo_bench_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_parallel.json");
    let path_str = path.to_str().unwrap();
    let (stdout, _, ok) = run(&format!(
        "bench parallel --thread-counts 1 --target-ms 1 --out {path_str}"
    ));
    assert!(ok, "{stdout}");
    assert!(stdout.contains("wrote"));
    let written = std::fs::read_to_string(&path).unwrap();
    assert!(written.contains("albireo.bench.parallel/v1"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_command_lines_exit_2_with_typed_diagnostics() {
    for (line, needle) in [
        ("frobnicate", "frobnicate"),
        ("evaluate lenet", "lenet"),
        ("evaluate vgg16 --ng", "requires a value"),
        ("evaluate vgg16 --threads many", "many"),
        ("plan", "--slo"),
        ("serve --polcy size:4", "unknown flag --polcy"),
        ("serve --spike-mult 3", "unknown flag --spike-mult"),
        (
            "serve --requests 50 --requests 60",
            "--requests given more than once",
        ),
        ("serve extra", "unexpected argument `extra`"),
        ("serve --policy deadline:nan", "finite and positive"),
        ("serve --policy deadline:inf", "finite and positive"),
        ("serve --rate nan", "invalid value `nan` for --rate"),
        ("serve --arrival bursty", "missing its burst field"),
        (
            "serve --arrival diurnal:1.5:1",
            "amplitude must be in (0, 1]",
        ),
        (
            "serve --arrival flash:0.5:0.05:0.1",
            "spike must be finite and exceed 1",
        ),
        (
            "plan --slo p99<5ms --arrival warp",
            "unknown arrival `warp`",
        ),
        (
            "faults --dead-ring 9,9,9",
            "invalid value `9,9,9` for --dead-ring",
        ),
        ("faults --dead-ring 0,0,7", "output < 5"),
        ("faults --dead-channel 99", "column < 7"),
        ("faults --stuck-mzm 5,5,0.5", "row < 3, column < 3"),
        ("faults --stuck-mzm 0,0,7.5", "weight in [-1, 1]"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_albireo"))
            .args(line.split_whitespace())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(stderr.contains("error: "), "{line}: {stderr}");
        assert!(stderr.contains(needle), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line} ran anyway");
    }
}

#[test]
fn command_help_prints_help_and_runs_nothing() {
    let (stdout, _, ok) = run("serve --help");
    assert!(ok);
    assert!(stdout.contains("albireo serve"), "{stdout}");
    assert!(stdout.contains("--requests N"), "{stdout}");
    assert!(!stdout.contains("serving report"), "{stdout}");
    assert!(!stdout.contains("goodput"), "{stdout}");
    let (stdout, _, ok) = run("bench oracles -h");
    assert!(ok);
    assert!(stdout.contains("--tol-scale X"), "{stdout}");
    assert!(!stdout.contains("[PASS]"), "{stdout}");
}

#[test]
fn trace_jsonl_rejects_paths_that_are_not_regular_files() {
    let (_, stderr, ok) = run("serve --trace-jsonl /dev/null");
    assert!(!ok);
    assert!(stderr.contains("not a regular file"), "{stderr}");
    assert!(!stderr.contains("does not exist"), "{stderr}");
}

#[test]
fn trace_jsonl_bad_lines_exit_2_with_path_and_line() {
    let dir = std::env::temp_dir().join(format!("albireo_bad_traces_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // (file body, extra flags, the diagnostic after `path`)
    for (i, (body, extra, needle)) in [
        (
            r#"{"arrival_s": "x"}"#,
            "",
            r#":1: "arrival_s" must be a number"#,
        ),
        (
            r#"{"arrival_s": -1}"#,
            "",
            ":1: arrival_s -1 must be finite",
        ),
        (
            r#"{"arrival_s": 1e999}"#,
            "",
            ":1: arrival_s inf must be finite",
        ),
        (
            "{\"arrival_s\": 0.2}\n\n{\"arrival_s\": 0.1}",
            "",
            ":3: arrival_s 0.1 is before",
        ),
        (r#"{"t": 0.1}"#, "", r#":1: missing "arrival_s""#),
        (r#"{"arrival_s": 0.1,}"#, "", ":1: JSON parse error"),
        ("[0.1]", "", ":1: a trace line must be a JSON object"),
        (
            r#"{"arrival_s": 0.1, "network": 99}"#,
            "",
            r#":1: "network" must be an integer in 0..6"#,
        ),
        (
            r#"{"arrival_s": 0.1, "network": -3}"#,
            "",
            r#":1: "network" must be an integer"#,
        ),
        (
            r#"{"arrival_s": 0.1, "network": 1.7}"#,
            "",
            r#":1: "network" must be an integer"#,
        ),
        (
            r#"{"arrival_s": 0.1, "class": 7}"#,
            "--classes a:1,b:1",
            r#":1: "class" must be an integer in 0..2"#,
        ),
        (
            r#"{"arrival_s": 0.1, "class": 1}"#,
            "",
            r#":1: "class" given but no request classes"#,
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let path = dir.join(format!("case{i}.jsonl"));
        std::fs::write(&path, format!("{body}\n")).unwrap();
        let line = format!(
            "serve --trace-jsonl {} --requests 5 {extra}",
            path.display()
        );
        let out = Command::new(env!("CARGO_BIN_EXE_albireo"))
            .args(line.split_whitespace())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{body}: {stderr}");
        let at = format!("error: {}{needle}", path.display());
        assert!(stderr.contains(&at), "{body}: want `{at}` in {stderr}");
        assert!(out.stdout.is_empty(), "{body} ran anyway");
    }
    std::fs::remove_dir_all(&dir).ok();
}
