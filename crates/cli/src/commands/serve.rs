//! `albireo serve` — the multi-chip serving simulation, with
//! checkpoint/resume, trace and metrics exports, and burn-rate alerts.

use super::{
    parse_mix, trace_obs, write_file, write_metrics_out, write_trace_outputs, CliError, Command,
    COUNT, COUNT0, FILE, POSITIVE, TRACE_OUT, WORKLOAD,
};
use crate::args::{flag, ArgError, Args, Flag, Kind, Range};
use albireo_nn::zoo;
use albireo_obs::Obs;
use albireo_parallel::Parallelism;
use albireo_runtime::{
    replicate, simulate_with, trace_track_names, AdmissionControl, AlertPolicy, ArrivalProcess,
    AutoscalePolicy, BatchPolicy, ClassSpec, FaultScenario, FaultSpec, FleetConfig, OnCheckpoint,
    ServeConfig, ServeOutcome, SimSnapshot, Workload,
};

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("requests", COUNT, "requests to simulate").or("1000"),
    flag("fleet", Kind::Str("SPEC"), "chips, [alias=]kind[:C|M|A],..").or("albireo_9:C,albireo_27:C"),
    flag("policy", Kind::Str("SPEC"), "immediate | size:N | deadline:USEC[:MAX] | deadline_s:S:MAX").or("immediate"),
    flag("autoscale", Kind::Str("SPEC"), "none | static | elastic:UP:WARM[:MIN]").or("none"),
    flag("trace-jsonl", FILE, "replay arrivals from a JSONL trace instead of --arrival and --rate"),
    flag("slo", POSITIVE, "default latency SLO, ms (alone: one `default` class)"),
    flag("slo-target", Kind::Float(Range::between(0.0, false, 1.0, true)), "burn-rate alert objective").or("0.999"),
    flag("json", Kind::Bool, "emit the JSON report"),
    flag("out", FILE, "write the report here instead of stdout"),
];

/// Checkpoint/resume: `--checkpoint-every` runs the single simulation
/// through the checkpoint-boundary machinery; `--resume` restarts one
/// from a snapshot file written by `--checkpoint-out`.
#[rustfmt::skip]
const CHECKPOINT: &[Flag] = &[
    flag("checkpoint-every", POSITIVE, "snapshot every X simulated seconds"),
    flag("resume", FILE, "restart from a snapshot; the report matches the uninterrupted run"),
    flag("checkpoint-out", FILE, "snapshot file, overwritten at each checkpoint"),
    flag("halt-after-checkpoints", COUNT0, "stop cleanly after the Nth checkpoint"),
    flag("report-jsonl", FILE, "albireo.serve.progress/v1 + alert/v1 lines per checkpoint"),
];

pub(super) const COMMAND: Command = Command {
    details: Some(chip_kinds),
    ..Command::new(
        "serve",
        &[],
        "multi-chip serving simulation",
        &[FLAGS, WORKLOAD, CHECKPOINT, TRACE_OUT],
        run,
    )
};

/// The fleet grammar's chip kinds (`serve --fleet`, `plan --chips`).
pub(super) fn chip_kinds() -> String {
    "FLEET CHIP KINDS (serve --fleet, plan --chips):
    albireo_9, albireo_27      direct Albireo dataflow
    winograd[_9|_27]           F(2x2,3x3) transform-domain convolution
    gemm[_9|_27]               incoherent weight-stationary GEMM (dense networks only)
    pixel, deap, ngN           photonic baselines / custom PLCG count
    eyeriss, envision, unpu    reported numbers (no estimate tag)
"
    .to_string()
}

/// Parses the bytes of the `--resume` snapshot at `path`: any content
/// that is not a valid snapshot (cut short, edited, not UTF-8) is a typed
/// usage error.
fn parse_snapshot(path: &str, bytes: &[u8]) -> Result<SimSnapshot, CliError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| CliError::Unknown(format!("{path}: not a snapshot: {e}")))?;
    SimSnapshot::parse(text).map_err(|e| CliError::Unknown(format!("{path}: {e}")))
}

fn run(args: &Args) -> Result<String, CliError> {
    let replicas = args.get::<usize>("replicas");

    // The serving model table: the paper's four benchmarks at indices
    // 0–3 (so existing mixes, goldens, and digests are unchanged) plus
    // the dense extension workloads the winograd/gemm chips open up.
    let fleet = FleetConfig::parse(args.str("fleet").unwrap_or_default(), zoo::serving_models())
        .map_err(CliError::Unknown)?;
    let policy = BatchPolicy::parse(args.str("policy").unwrap_or_default())
        .map_err(|e| CliError::Unknown(format!("--policy: {e}")))?;
    let admission = match args.get::<usize>("queue-cap") {
        0 => AdmissionControl::unbounded(),
        cap => AdmissionControl::bounded(cap),
    };
    let mix = parse_mix(args, &fleet.models)?;
    let names = args.list("networks", &[',']);
    if let Some((name, _)) = names
        .iter()
        .zip(&mix)
        .find(|(_, &(idx, _))| !fleet.supports(&fleet.models[idx]))
    {
        return Err(CliError::Unknown(format!(
            "no chip in fleet `{}` supports network `{name}` \
             (reported-number chips only serve their published benchmarks; \
             gemm chips only serve dense/pointwise networks)",
            fleet.label()
        )));
    }

    let process = match args.str("trace-jsonl") {
        Some(path) => {
            // The trace's timestamps are the arrivals: a shape or a rate
            // beside it would be silently ignored.
            if let Some(shaping) = ["arrival", "rate"]
                .into_iter()
                .find(|f| args.given(f).is_some())
            {
                return Err(ArgError::Conflict(format!(
                    "--trace-jsonl replays recorded arrivals; drop --{shaping}"
                ))
                .into());
            }
            let meta = std::fs::metadata(path)
                .map_err(|e| CliError::Unknown(format!("--trace-jsonl file `{path}`: {e}")))?;
            if !meta.is_file() {
                return Err(CliError::Unknown(format!(
                    "--trace-jsonl path `{path}` is not a regular file"
                )));
            }
            ArrivalProcess::TraceFile { path: path.into() }
        }
        None => ArrivalProcess::parse(args.str("arrival").unwrap_or_default(), args.get("rate"))
            .map_err(|e| CliError::Unknown(format!("--arrival: {e}")))?,
    };

    // Multi-tenant request classes: `--classes name:weight[:slo_ms],...`
    // plus `--slo MS` as the default target (alone it wraps all traffic
    // in one `default` class).
    let default_slo = args.num::<f64>("slo");
    let classes = match (args.str("classes"), default_slo) {
        (Some(list), _) => ClassSpec::parse_list(list, default_slo)
            .map_err(|e| CliError::Unknown(format!("--classes: {e}")))?,
        (None, Some(slo)) => vec![ClassSpec::with_slo("default", 1.0, slo)],
        (None, None) => Vec::new(),
    };
    let autoscale = AutoscalePolicy::parse(args.str("autoscale").unwrap_or_default())
        .map_err(CliError::Unknown)?;
    let faults = match args.str("faults") {
        Some(spec) => {
            let spec = FaultSpec::parse(spec).map_err(CliError::Unknown)?;
            spec.check_fleet(fleet.chips.len())
                .map_err(|e| CliError::Unknown(format!("--faults: {e}")))?;
            spec.compile(fleet.chips.len())
        }
        None => FaultScenario::none(),
    };

    let cfg = ServeConfig {
        workload: Workload {
            process,
            mix,
            classes,
        },
        requests: args.get("requests"),
        seed: args.get("seed"),
        policy,
        admission,
        faults,
        // Reports never render the per-request sample, so keep none.
        record_cap: 0,
        autoscale,
        // Burn-rate alerting objective: inert unless the workload
        // defines SLO classes.
        alert: AlertPolicy::with_target(args.get::<f64>("slo-target")),
    };
    // A bad trace line is a usage error before the run, not a panic in it.
    cfg.workload
        .check_trace(fleet.models.len())
        .map_err(CliError::Unknown)?;
    let checkpoint_every = args.num::<f64>("checkpoint-every");
    let resume_path = args.str("resume");
    // Self-describing diagnostic header for traced/exported runs: the
    // full `ServeConfig` display line plus the checkpoint cadence,
    // which is a CLI-level knob living outside the config proper.
    let config_header = match checkpoint_every {
        Some(every) => format!("config: {cfg}, checkpoint every {every}s\n"),
        None => format!("config: {cfg}\n"),
    };
    let checkpointing = checkpoint_every.is_some() || resume_path.is_some();
    let conflict = |msg: String| Err(CliError::Args(ArgError::Conflict(msg)));
    if checkpointing {
        if replicas != 1 {
            return conflict(
                "checkpoint/resume drives a single simulation; drop --replicas".into(),
            );
        }
        if let Some(export) = ["trace-out", "events-out"]
            .into_iter()
            .find(|f| args.given(f).is_some())
        {
            return conflict(format!(
                "a trace covers one uninterrupted run, and a checkpointed run can halt or \
                 resume at a boundary; drop --{export}"
            ));
        }
    } else if let Some(dependent) = ["checkpoint-out", "report-jsonl", "halt-after-checkpoints"]
        .into_iter()
        .find(|f| args.given(f).is_some())
    {
        return conflict(format!(
            "--{dependent} needs --checkpoint-every (or --resume)"
        ));
    }

    let (reports, trace_note) = if checkpointing {
        use std::io::Write as _;
        let checkpoint_out = args.str("checkpoint-out");
        let metrics_out = args.str("metrics-out");
        let halt_after = args.num::<u64>("halt-after-checkpoints").unwrap_or(0);
        let mut jsonl = match args.str("report-jsonl") {
            Some(path) => {
                // A resumed run appends: the stream is the continuation
                // of the interrupted run's progress log.
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(resume_path.is_some())
                    .truncate(resume_path.is_none())
                    .write(true)
                    .open(path)
                    .map_err(|e| CliError::Io(format!("cannot open {path}: {e}")))?;
                Some(file)
            }
            None => None,
        };
        // Resume snapshots are parsed before the checkpoint callback is
        // built: the alert-transition JSONL stream must continue from
        // the count already written by the interrupted run, not replay
        // the log from the top.
        let resume_snapshot = match resume_path {
            Some(path) => {
                let bytes = std::fs::read(path)
                    .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
                Some(parse_snapshot(path, &bytes)?)
            }
            None => None,
        };
        let mut alerts_written = resume_snapshot
            .as_ref()
            .map_or(0, |s| s.alert_events().len());
        let mut metric_points: Vec<(f64, albireo_obs::MetricsSnapshot)> = Vec::new();
        let mut io_err: Option<String> = None;
        let mut on_checkpoint = |snap: &SimSnapshot| -> bool {
            if let Some(path) = checkpoint_out {
                if let Err(e) = std::fs::write(path, snap.to_text()) {
                    io_err = Some(format!("cannot write {path}: {e}"));
                    return false;
                }
            }
            if let Some(file) = jsonl.as_mut() {
                if let Err(e) = writeln!(file, "{}", snap.progress_json()) {
                    io_err = Some(format!("cannot write progress line: {e}"));
                    return false;
                }
                for line in snap.alert_json_lines(alerts_written) {
                    if let Err(e) = writeln!(file, "{line}") {
                        io_err = Some(format!("cannot write alert line: {e}"));
                        return false;
                    }
                }
            }
            alerts_written = snap.alert_events().len();
            if metrics_out.is_some() {
                metric_points.push((snap.at_s(), snap.metrics_snapshot()));
            }
            halt_after == 0 || snap.checkpoints() < halt_after
        };
        let outcome = simulate_with(
            &fleet,
            &cfg,
            &Obs::disabled(),
            resume_snapshot.as_ref(),
            checkpoint_every.map(|every| (every, &mut on_checkpoint as OnCheckpoint)),
        )
        .map_err(CliError::Unknown)?;
        if let Some(msg) = io_err {
            return Err(CliError::Io(msg));
        }
        let metrics_note = match metrics_out {
            Some(path) => {
                write_file(
                    path,
                    &albireo_obs::openmetrics::render_series(&metric_points),
                )?;
                Some((
                    format!(
                        "{config_header}wrote {path}: OpenMetrics series, {} point(s)\n",
                        metric_points.len()
                    ),
                    metric_points
                        .last()
                        .map(|(_, s)| s.clone())
                        .unwrap_or_default(),
                ))
            }
            None => None,
        };
        match outcome {
            ServeOutcome::Completed(report) => (vec![*report], metrics_note),
            ServeOutcome::Halted { checkpoints, at_s } => {
                let note = checkpoint_out
                    .map(|p| format!("; resume with --resume {p}"))
                    .unwrap_or_default();
                return Ok(format!(
                    "{config_header}halted after checkpoint {checkpoints} (t={at_s}s){note}\n"
                ));
            }
        }
    } else {
        // Replica 0 runs under the observer: the traced run is the one
        // reported, and observing it changes no report byte.
        let obs = trace_obs(args);
        let reports = replicate(&fleet, &cfg, replicas, Parallelism::default(), &obs);
        let trace_note = if obs.is_enabled() {
            let snapshot = obs.snapshot();
            let mut note = config_header.clone();
            note.push_str(&write_trace_outputs(
                args,
                &obs,
                &trace_track_names(&fleet),
            )?);
            note.push_str(&write_metrics_out(args, &obs)?);
            Some((note, snapshot))
        } else {
            None
        };
        (reports, trace_note)
    };

    let out = if args.flag("json") {
        if reports.len() == 1 {
            match &trace_note {
                Some((_, snapshot)) => reports[0].to_json_with_metrics(snapshot),
                None => reports[0].to_json(),
            }
        } else {
            let items: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
            let items: Vec<&str> = items.iter().map(|j| j.trim_end()).collect();
            format!("[\n{}\n]\n", items.join(",\n"))
        }
    } else {
        let mut s = String::new();
        for (i, r) in reports.iter().enumerate() {
            if reports.len() > 1 {
                s.push_str(&format!("replica {i} (seed {}):\n", r.seed));
            }
            s.push_str(&r.render_text());
        }
        if reports.len() > 1 {
            let combined = reports
                .iter()
                .fold(0xC0FF_EE00u64, |acc, r| acc.rotate_left(13) ^ r.digest());
            s.push_str(&format!("combined digest {combined:016x}\n"));
        }
        if let Some((note, _)) = &trace_note {
            s.push_str(note);
        }
        s
    };
    match args.str("out") {
        Some(path) => {
            write_file(path, &out)?;
            Ok(format!(
                "wrote {path}: {} replica(s), digest {}\n",
                reports.len(),
                reports[0].digest_hex()
            ))
        }
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cli, temp_path};
    use super::super::CliError;

    fn serve(line: &str) -> Result<String, CliError> {
        cli(&format!("serve {line}"))
    }

    #[test]
    fn serve_rejects_fleet_that_cannot_serve_the_mix() {
        // A gemm-only fleet has no chip that can schedule AlexNet's
        // spatial convolutions: a typed usage error (exit 2), no panic.
        let err = serve("--fleet gemm:C --networks alexnet --requests 10").unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("supports network"), "{err}");
    }
    #[test]
    fn serve_heterogeneous_mode_fleet_serves_mixed_networks() {
        let out = serve("--fleet albireo_9:C,winograd:C,gemm:C --networks vgg16,mlp-mixer --requests 60 --seed 7")
        .unwrap();
        assert!(out.contains("goodput"), "{out}");
    }
    #[test]
    fn serve_reports_service_metrics() {
        let out = serve("--requests 150 --seed 7").unwrap();
        for key in [
            "p50",
            "p95",
            "p99",
            "shed",
            "goodput",
            "mJ/request",
            "util",
            "digest",
            "albireo_9",
            "albireo_27",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        // Same seed, same report.
        assert_eq!(out, serve("--requests 150 --seed 7").unwrap());
    }
    #[test]
    fn serve_json_carries_schema_and_digest() {
        let out = serve("--requests 80 --json").unwrap();
        assert!(out.contains("albireo.bench.serving/v4"));
        assert!(out.contains("\"digest\""));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }
    #[test]
    fn serve_survives_chip_failure_mid_run() {
        let out =
            serve("--requests 200 --rate 4000 --faults fail:1@0.005,degrade:0@0.002:4").unwrap();
        assert!(out.contains("OFFLINE"), "{out}");
        assert!(out.contains("PLCGs down"), "{out}");
        assert!(
            !out.contains("completed 0 "),
            "goodput must be nonzero: {out}"
        );
    }
    #[test]
    fn serve_validates_inputs() {
        assert!(serve("--policy fifo").is_err());
        assert!(serve("--fleet tpu").is_err());
        assert!(serve("--networks lenet").is_err());
        assert!(serve("--rate 0").is_err());
        assert!(serve("--faults fail:0").is_err());
        assert!(serve("--faults degrade:0@0.1:0").is_err());
        // A clause past the 2-chip default fleet would fault nothing, and
        // an empty fleet entry would add no chip: both are typed errors.
        for (line, needle) in [
            ("--faults fail:99@0.01", "names no chip"),
            ("--faults rack:5-9@0.01", "names no chip"),
            ("--fleet albireo_9:C,,albireo_27:C", "empty entry"),
        ] {
            let err = serve(line).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{line}: {err}");
            assert!(err.to_string().contains(needle), "{line}: {err}");
        }
        assert!(serve("--arrival fractal").is_err());
        for shape in [
            "diurnal:1.5:1",
            "flash:0.5:0.05:0.1",
            "bursty:1:0.01:0.04",
            "bursty:4:0.01",
            "poisson:1",
            "diurnal:0.5:inf",
        ] {
            let err = serve(&format!("--arrival {shape}")).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{shape}: {err}");
            assert!(err.to_string().contains("--arrival"), "{shape}: {err}");
        }
        assert!(serve("--trace-jsonl /no/such/file.jsonl").is_err());
        // A path that exists but is not a regular file names that problem.
        let dir = std::env::temp_dir();
        let err = serve(&format!("--trace-jsonl {}", dir.display())).unwrap_err();
        assert!(err.to_string().contains("not a regular file"), "{err}");
        let err = serve("--trace-jsonl /tmp/x.jsonl --arrival bursty:4:0.01:0.04").unwrap_err();
        assert!(err.to_string().contains("drop --arrival"), "{err}");
        for policy in ["deadline:nan", "deadline:inf", "deadline_s:inf:4"] {
            assert_eq!(
                serve(&format!("--policy {policy}"))
                    .unwrap_err()
                    .exit_code(),
                2
            );
        }
        assert!(serve("--classes vip").is_err());
        assert!(serve("--classes vip:-1").is_err());
        assert!(serve("--classes vip:1:0").is_err());
        assert!(serve("--slo -3").is_err());
        // A fleet of reported-number chips cannot serve a network outside
        // their published benchmark set.
        let err = serve("--fleet eyeriss --networks resnet18").unwrap_err();
        assert!(err.to_string().contains("resnet18"), "{err}");
    }
    #[test]
    fn serve_production_arrival_shapes_run() {
        for shape in [
            "--arrival diurnal:0.8:0.5",
            "--arrival flash:6:0.02:0.1",
            "--arrival bursty:4:0.01:0.04",
        ] {
            let line = format!("--requests 200 --seed 3 --json {shape}");
            let out = serve(&line).unwrap();
            assert!(out.contains("\"offered\": 200"), "{out}");
            // Same seed reproduces byte-for-byte.
            assert_eq!(out, serve(&line).unwrap());
        }
    }
    #[test]
    fn serve_classes_report_slo_attainment() {
        let out =
            serve("--requests 300 --rate 4000 --classes interactive:3:5,batch:1 --json").unwrap();
        assert!(out.contains("\"interactive\""), "{out}");
        assert!(out.contains("\"batch\""), "{out}");
        assert!(out.contains("\"slo_attainment\""), "{out}");
        // Best-effort classes report null SLO fields.
        assert!(out.contains("\"slo_ms\": null"), "{out}");
        // --slo alone wraps all traffic in one `default` class.
        let out = serve("--requests 100 --slo 5 --json").unwrap();
        assert!(out.contains("\"default\""), "{out}");
    }
    #[test]
    fn serve_trace_jsonl_replays_a_file() {
        let path =
            std::env::temp_dir().join(format!("albireo_cli_trace_{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            "{\"arrival_s\": 0.001}\n{\"arrival_s\": 0.002, \"network\": 0}\n{\"arrival_s\": 0.004}\n",
        )
        .unwrap();
        let path_s = path.to_str().unwrap().to_string();
        let out = serve(&format!("--trace-jsonl {path_s} --requests 3 --json")).unwrap();
        // The trace sets the arrival times, so a rate beside it is a
        // conflict, not a silently ignored flag.
        let err = serve(&format!("--trace-jsonl {path_s} --requests 3 --rate 9999")).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("\"offered\": 3"), "{out}");
        assert!(out.contains("trace_file"), "{out}");
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("drop --rate"), "{err}");
    }
    #[test]
    fn serve_trace_jsonl_checks_every_line_before_the_run() {
        let path = temp_path("serve_bad_trace.jsonl");
        let p = path.display();
        // The bad line lies past the requests the run would replay: the
        // whole file is checked up front all the same.
        std::fs::write(
            &path,
            "{\"arrival_s\": 0.001}\n{\"arrival_s\": 0.002}\n{\"arrival_s\": 0.003, \"network\": 6}\n",
        )
        .unwrap();
        let err = serve(&format!("--trace-jsonl {p} --requests 1")).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().starts_with(&format!("{p}:3: ")), "{err}");
        std::fs::remove_file(&path).ok();
    }
    #[test]
    fn serve_heterogeneous_fleet_end_to_end() {
        let run = |extra: &str| {
            let fleet = "--fleet albireo_27:A,deap:M,eyeriss --networks alexnet,vgg16";
            serve(&format!("{fleet} --requests 200 --seed 11 {extra}")).unwrap()
        };
        let out = run("");
        for key in ["albireo_27_A", "deap_M", "eyeriss", "digest"] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        // Deterministic across repeat runs.
        assert_eq!(out, run(""));
        let json = run("--json");
        assert!(json.contains("albireo.bench.serving/v4"));
    }
    #[test]
    fn serve_replicas_and_policies_run() {
        let out =
            serve("--requests 60 --replicas 2 --policy size:4 --networks alexnet,vgg16").unwrap();
        assert!(out.contains("replica 0"));
        assert!(out.contains("replica 1"));
        assert!(out.contains("combined digest"));
        assert!(out.contains("size4"));
    }

    #[test]
    fn serve_trace_out_writes_deterministic_chrome_trace() {
        let path = temp_path("serve_trace.json");
        let path_str = path.display();
        let run = || {
            let out = serve(&format!("--requests 120 --seed 7 --trace-out {path_str}")).unwrap();
            assert!(out.contains("trace events"), "{out}");
            assert!(out.contains("digest"), "{out}");
            std::fs::read_to_string(&path).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must give byte-identical traces");
        assert!(a.starts_with("{\"traceEvents\": ["));
        assert!(a.contains("\"ph\": \"X\""), "needs complete events");
        assert!(a.contains("\"thread_name\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        std::fs::remove_file(&path).ok();
    }
    #[test]
    fn serve_events_out_writes_jsonl_stream() {
        let path = temp_path("serve_events.jsonl");
        let path_str = path.display();
        let out = serve(&format!("--requests 100 --seed 9 --events-out {path_str}")).unwrap();
        assert!(out.contains("JSONL"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().count() > 0);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"phase\": \"B\""));
        std::fs::remove_file(&path).ok();
    }
    #[test]
    fn serve_json_with_trace_embeds_metrics_snapshot() {
        let path = temp_path("serve_trace_json.json");
        let path_str = path.display();
        let out = serve(&format!("--requests 80 --json --trace-out {path_str}")).unwrap();
        assert!(out.contains("\"obs\": {"), "{out}");
        assert!(out.contains("albireo.obs/v1"));
        assert!(out.contains("serve.completed"));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        // Without the trace flag the JSON stays unchanged.
        let plain = serve("--requests 80 --json").unwrap();
        assert!(!plain.contains("\"obs\""));
        std::fs::remove_file(&path).ok();
    }
    #[test]
    fn serve_wall_clock_flag_keeps_trace_digest_stable() {
        let path = temp_path("serve_wall.json");
        let path_str = path.display();
        let digest_line = |extra: &str| {
            let out = serve(&format!(
                "--requests 60 --seed 3 --trace-out {path_str} {extra}"
            ))
            .unwrap();
            let line = out
                .lines()
                .find(|l| l.contains("trace events"))
                .unwrap()
                .to_string();
            line.split("digest ").nth(1).unwrap().to_string()
        };
        assert_eq!(digest_line(""), digest_line("--wall-clock"));
        std::fs::remove_file(&path).ok();
    }
    #[test]
    fn serve_checkpoint_resume_reproduces_the_report() {
        let ckpt = temp_path("serve_ckpt.snapshot");
        let ckpt_s = ckpt.display();
        let base = "--requests 300 --rate 4000 --seed 7 --faults fail:1@0.01 --json";
        let baseline = serve(base).unwrap();
        // Checkpointing to completion changes nothing in the report.
        let every = format!("--checkpoint-every 0.01 --checkpoint-out {ckpt_s}");
        assert_eq!(baseline, serve(&format!("{base} {every}")).unwrap());
        // Halt mid-run, then resume from the snapshot: byte-identical.
        let halted = serve(&format!("{base} {every} --halt-after-checkpoints 2")).unwrap();
        assert!(halted.contains("halted after checkpoint 2"), "{halted}");
        assert!(halted.contains("--resume"), "{halted}");
        let resumed = serve(&format!("{base} --resume {ckpt_s}")).unwrap();
        assert_eq!(baseline, resumed);
        std::fs::remove_file(&ckpt).ok();
    }
    #[test]
    fn serve_report_jsonl_streams_progress() {
        let path = temp_path("serve_progress.jsonl");
        let p = path.display();
        serve(&format!(
            "--requests 200 --rate 4000 --checkpoint-every 0.01 --report-jsonl {p}"
        ))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().count() >= 2, "{text}");
        for line in text.lines() {
            assert!(line.contains("albireo.serve.progress/v1"), "{line}");
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"offered\""), "{line}");
        }
        std::fs::remove_file(&path).ok();
    }
    #[test]
    fn serve_faults_spec_runs_correlated_clauses() {
        // Correlated clauses (rack + repair crews) run end to end.
        let out = serve("--requests 200 --rate 4000 --faults rack:0-1@0.005,crews:1:0.01:7 --json")
            .unwrap();
        assert!(out.contains("\"offered\": 200"), "{out}");
    }
    #[test]
    fn serve_checkpoint_flags_validate() {
        assert!(serve("--checkpoint-every 0").is_err());
        assert!(serve("--checkpoint-every 0.01 --replicas 2").is_err());
        // The dependent flags are rejected without a checkpoint cadence.
        assert!(serve("--checkpoint-out /tmp/x").is_err());
        assert!(serve("--report-jsonl /tmp/x").is_err());
        assert!(serve("--halt-after-checkpoints 1").is_err());
        assert!(serve("--resume /no/such/snapshot").is_err());
        assert!(serve("--faults melt:0@1").is_err());
        let tr = temp_path("ckpt_trace.json");
        let trs = tr.display();
        assert!(serve(&format!("--checkpoint-every 0.01 --trace-out {trs}")).is_err());
    }
    #[test]
    fn serve_rejects_duplicate_aliases_and_class_names() {
        let err = serve("--fleet edge=albireo_9:C,edge=albireo_27:C").unwrap_err();
        assert!(err.to_string().contains("duplicate chip alias"), "{err}");
        assert_eq!(err.exit_code(), 2);
        let err = serve("--classes vip:2:5,vip:1").unwrap_err();
        assert!(err.to_string().contains("duplicate class name"), "{err}");
        assert_eq!(err.exit_code(), 2);
    }
    #[test]
    fn serve_slo_target_validates_and_reports_alerts() {
        for bad in ["1.0", "-0.1", "nan", "many"] {
            let err = serve(&format!("--slo-target {bad}")).unwrap_err();
            assert!(err.to_string().contains("--slo-target"), "{err}");
        }
        // An overloaded bounded queue sheds SLO traffic: alerts fire and
        // the v4 report carries the transition log.
        let line =
            "--requests 600 --rate 60000 --seed 7 --queue-cap 16 --classes vip:3:5,batch:1 --json";
        let out = serve(line).unwrap();
        assert!(out.contains("\"alerts\": {"), "{out}");
        assert!(out.contains("\"type\": \"fire\""), "{out}");
        assert!(out.contains("\"alerts_fired\""), "{out}");
        // The alert objective never moves the run digest.
        let digest_of = |extra: &str| {
            let out = serve(&format!("{line} {extra}")).unwrap();
            let at = out.find("\"digest\"").unwrap();
            out[at..].lines().next().unwrap().to_string()
        };
        assert_eq!(digest_of(""), digest_of("--slo-target 0.9"));
    }
    #[test]
    fn serve_report_jsonl_streams_alert_transitions_once() {
        let path = temp_path("serve_alerts.jsonl");
        let p = path.display();
        serve(&format!("--requests 600 --rate 60000 --seed 7 --queue-cap 16 --classes vip:3:5,batch:1 --checkpoint-every 0.002 --report-jsonl {p}"))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let alert_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("albireo.serve.alert/v1"))
            .collect();
        assert!(!alert_lines.is_empty(), "{text}");
        assert!(alert_lines[0].contains("\"class\": \"vip\""), "{text}");
        assert!(alert_lines[0].contains("\"type\": \"fire\""), "{text}");
        // Each transition appears exactly once even though every
        // snapshot carries the full log.
        let mut seen = std::collections::HashSet::new();
        for line in &alert_lines {
            let key = line.split("\"checkpoint\"").nth(1).map(|rest| {
                let tail = rest.split_once(',').map(|(_, t)| t).unwrap_or(rest);
                tail.to_string()
            });
            assert!(seen.insert(key), "duplicate transition: {line}");
        }
        std::fs::remove_file(&path).ok();
    }
    #[test]
    fn serve_metrics_out_writes_openmetrics() {
        let path = temp_path("serve_metrics.txt");
        let p = path.display();
        let base = "--requests 200 --rate 4000 --seed 7";
        let out = serve(&format!("{base} --metrics-out {p}")).unwrap();
        assert!(out.contains("config: poisson arrivals"), "{out}");
        assert!(out.contains("OpenMetrics"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("# TYPE serve_completed counter"), "{text}");
        assert!(text.ends_with("# EOF\n"), "{text}");
        // The exported file never perturbs the report itself.
        let baseline = serve(base).unwrap();
        let again = serve(&format!("{base} --metrics-out {p}")).unwrap();
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("config:") && !l.starts_with("wrote "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&baseline), strip(&again));
        // Checkpointed runs export a timestamped series instead.
        let out = serve(&format!("{base} --checkpoint-every 0.01 --metrics-out {p}")).unwrap();
        assert!(out.contains("OpenMetrics series"), "{out}");
        assert!(out.contains("checkpoint every 0.01s"), "{out}");
        let series = std::fs::read_to_string(&path).unwrap();
        assert!(series.contains("serve_offered_total"), "{series}");
        // Timestamped samples: `name value ts` triplets.
        assert!(
            series
                .lines()
                .any(|l| l.starts_with("serve_offered_total ")
                    && l.split_whitespace().count() == 3),
            "{series}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A valid `albireo.snapshot/v1` from a run with faults, classes and
    /// alerts, so every section of the format is present; made once.
    fn valid_snapshot() -> &'static [u8] {
        static SNAPSHOT: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        SNAPSHOT.get_or_init(|| {
            let path = temp_path("serve_damage_base.snapshot");
            serve(&format!(
                "{DAMAGE_RUN} --checkpoint-every 0.01 --checkpoint-out {} \
                 --halt-after-checkpoints 2",
                path.display()
            ))
            .unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            bytes
        })
    }

    const DAMAGE_RUN: &str = "--requests 400 --rate 60000 --seed 7 --queue-cap 16 \
                              --faults fail:1@0.001 --classes vip:3:5,batch:1";

    /// Resumes from `bytes`: the error a damaged snapshot must give.
    fn resume_error(bytes: &[u8]) -> CliError {
        match super::parse_snapshot("damaged.snapshot", bytes) {
            Ok(_) => panic!("a damaged snapshot was accepted"),
            Err(err) => err,
        }
    }

    #[test]
    fn every_cut_of_a_snapshot_resumes_to_a_typed_error() {
        let valid = valid_snapshot();
        assert!(super::parse_snapshot("valid.snapshot", valid).is_ok());
        for cut in 0..valid.len() {
            let err = resume_error(&valid[..cut]);
            assert_eq!(err.exit_code(), 2, "cut at {cut}: {err}");
        }
        // End to end: the damaged file on disk exits 2 through `serve`.
        let path = temp_path("serve_cut.snapshot");
        std::fs::write(&path, &valid[..valid.len() - 1]).unwrap();
        let err = serve(&format!("{DAMAGE_RUN} --resume {}", path.display())).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("newline"), "{err}");
    }

    #[test]
    fn every_case_flip_of_a_snapshot_resumes_to_a_typed_error() {
        // Flipping bit 5 turns hex digits `a-f` into `A-F`, the edit a
        // numeric digest comparison would have forgiven.
        let valid = valid_snapshot();
        for pos in 0..valid.len() {
            let mut edited = valid.to_vec();
            edited[pos] ^= 0x20;
            let err = resume_error(&edited);
            assert_eq!(err.exit_code(), 2, "flip at {pos}: {err}");
        }
    }

    proptest::proptest! {
        /// Any single-byte edit that changes a byte, UTF-8 or not.
        #[test]
        fn single_byte_edits_of_a_snapshot_resume_to_typed_errors(
            at in 0.0f64..1.0,
            byte in 0u8..=255,
        ) {
            let valid = valid_snapshot();
            let pos = ((at * valid.len() as f64) as usize).min(valid.len() - 1);
            proptest::prop_assume!(valid[pos] != byte);
            let mut edited = valid.to_vec();
            edited[pos] = byte;
            proptest::prop_assert_eq!(resume_error(&edited).exit_code(), 2);
        }
    }
}
