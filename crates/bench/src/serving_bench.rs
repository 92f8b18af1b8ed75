//! The serving studies behind `albireo bench serving`, writing three
//! artifacts:
//!
//! * `serving_study.csv` — one row per (cell × replica), covering the
//!   pinned golden grid ([`StudyOptions::golden`]) followed by the mixed
//!   photonic/electronic grid ([`StudyOptions::heterogeneous`]);
//! * `golden_serving_metrics.csv` — the golden grid alone, compared
//!   byte-exactly by `tests/serving_golden.rs`;
//! * `BENCH_serving.json` — the machine-readable study digest over both
//!   grids (schema `albireo.bench.serving_study/v1`).
//!
//! ```text
//! albireo bench serving [--out-dir results] [--out BENCH_serving.json] [--threads N]
//! ```
//!
//! The study is bit-deterministic at any `--threads` value; the combined
//! digest printed at the end is the value to compare across runs.

use albireo_obs::Obs;
use albireo_parallel::Parallelism;
use albireo_runtime::{
    run_serving_study, simulate, simulate_with, ArrivalProcess, FaultScenario, FaultSpec,
    ServeConfig, StudyOptions, Workload,
};
use std::path::Path;

/// One extra row of the serving bench: a JSON member for
/// `BENCH_serving.json` and a line for the printed summary.
struct Row {
    json: String,
    line: String,
}

/// Wall-clock medians for the golden grid's heaviest cell (paper fleet,
/// top offered rate, deadline batching) run with observability disabled
/// (the default path — one relaxed atomic load per site) and fully
/// enabled (spans + metrics recorded). Medians over odd `reps` keep
/// scheduler noise out of the row.
fn measure_obs_overhead(options: &StudyOptions) -> Row {
    let fleet = &options.fleets[0];
    let cfg = ServeConfig {
        workload: Workload {
            process: ArrivalProcess::Poisson {
                rate_rps: options.rates_rps.iter().copied().fold(0.0, f64::max),
            },
            mix: options.mix.clone(),
            classes: Vec::new(),
        },
        requests: options.requests,
        seed: options.base_seed,
        policy: *options.policies.last().expect("golden grid has policies"),
        admission: options.admission,
        faults: FaultScenario::none(),
        record_cap: usize::MAX,
        autoscale: albireo_runtime::AutoscalePolicy::None,
        alert: albireo_runtime::AlertPolicy::standard(),
    };
    let reps = 9;
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let time_ms = |f: &dyn Fn()| {
        let t0 = std::time::Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e3
    };
    let disabled_ms = median(
        (0..reps)
            .map(|_| time_ms(&|| drop(simulate(fleet, &cfg))))
            .collect(),
    );
    let obs = Obs::enabled();
    let enabled_ms = median(
        (0..reps)
            .map(|_| time_ms(&|| drop(simulate_with(fleet, &cfg, &obs, None, None))))
            .collect(),
    );
    let events = obs.drain_events().len() / reps;
    let ratio = enabled_ms / disabled_ms;
    Row {
        json: format!(
            "  \"obs_overhead\": {{\"reps\": {reps}, \"disabled_ms\": {disabled_ms:.3}, \
             \"enabled_ms\": {enabled_ms:.3}, \"enabled_over_disabled\": {ratio:.4}, \
             \"trace_events_per_run\": {events}}},\n"
        ),
        line: format!(
            "obs overhead: disabled {disabled_ms:.3} ms, enabled {enabled_ms:.3} ms \
             ({ratio:.2}x, {events} trace events/run, median of {reps})\n"
        ),
    }
}

/// One million-request run on the paper fleet, proving the streamed
/// engine's scale contract: bounded event-queue depth, O(1)-memory
/// percentiles, and a wall clock in seconds.
fn measure_serving_scale(options: &StudyOptions) -> Row {
    let fleet = &options.fleets[0];
    let mut cfg = ServeConfig::poisson(4000.0, 1_000_000, options.base_seed, 0);
    cfg.workload.mix = options.mix.clone();
    cfg.record_cap = 0;
    let t0 = std::time::Instant::now();
    let r = simulate(fleet, &cfg);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (requests, digest) = (cfg.requests, r.digest_hex());
    let rate = requests as f64 / (wall_ms / 1e3);
    Row {
        json: format!(
            "  \"serving_scale\": {{\"requests\": {requests}, \"completed\": {}, \"shed\": {}, \
             \"wall_ms\": {wall_ms:.1}, \"sim_requests_per_s\": {rate:.0}, \"peak_event_queue\": {}, \
             \"sketch_buckets\": {}, \"p50_ms\": {:.4}, \"p999_ms\": {:.4}, \
             \"digest\": \"{digest}\"}},\n",
            r.completed, r.shed, r.peak_event_queue, r.sketch_buckets, r.p50_ms, r.p999_ms,
        ),
        line: format!(
            "serving scale: {requests} requests in {wall_ms:.1} ms ({rate:.0} req/s sim), \
             peak event queue {}, sketch buckets {}, digest {digest}\n",
            r.peak_event_queue, r.sketch_buckets,
        ),
    }
}

/// The correlated-fault scenario the fault-scale row runs under: a rack
/// outage at t=30 s, a thermal epoch halving chip throughput over
/// t=60..90 s, and two repair crews with a 20 s mean time-to-repair.
/// Ranges are written generously and clipped to the fleet at compile
/// time, so the clause string is fleet-size independent.
const FAULT_SCALE_SPEC: &str = "rack:0-0@30,thermal:0-3@60-90:2,crews:2:20:11";

/// One million requests through the correlated-fault scenario above —
/// the availability row: what fraction of offered load completes when
/// chips fail and recover mid-run, and what the tail looks like while
/// the fleet is degraded. The offered rate is one the healthy fleet can
/// sustain (unlike the throughput-oriented scale row, which runs into
/// overload on purpose), so the availability loss here is attributable
/// to the fault scenario; the healthy run at the same rate is reported
/// alongside as the baseline. Memory stays bounded exactly as in the
/// healthy scale row (the event queue also carries the fault events,
/// whose count is fixed up front).
fn measure_fault_scale(options: &StudyOptions) -> Row {
    let fleet = &options.fleets[0];
    let rate_rps = 2000.0;
    let mut cfg = ServeConfig::poisson(rate_rps, 1_000_000, options.base_seed, 0);
    cfg.workload.mix = options.mix.clone();
    cfg.record_cap = 0;
    let healthy = simulate(fleet, &cfg);
    let spec = FaultSpec::parse(FAULT_SCALE_SPEC).expect("fault-scale spec parses");
    cfg.faults = spec.compile(fleet.chips.len());
    let fault_events = cfg.faults.events().len();
    let t0 = std::time::Instant::now();
    let r = simulate(fleet, &cfg);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (requests, digest) = (cfg.requests, r.digest_hex());
    let availability = r.completed as f64 / requests as f64;
    let healthy_availability = healthy.completed as f64 / requests as f64;
    Row {
        json: format!(
            "  \"fault_scale\": {{\"requests\": {requests}, \"rate_rps\": {rate_rps}, \
             \"faults\": \"{FAULT_SCALE_SPEC}\", \"fault_events\": {fault_events}, \
             \"completed\": {}, \"shed\": {}, \"availability\": {availability:.6}, \
             \"healthy_availability\": {healthy_availability:.6}, \"wall_ms\": {wall_ms:.1}, \
             \"peak_event_queue\": {}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \
             \"p999_ms\": {:.4}, \"healthy_p99_ms\": {:.4}, \"digest\": \"{digest}\"}},\n",
            r.completed, r.shed, r.peak_event_queue, r.p50_ms, r.p99_ms, r.p999_ms, healthy.p99_ms,
        ),
        line: format!(
            "fault scale: {requests} requests at {rate_rps} rps under `{FAULT_SCALE_SPEC}` \
             ({fault_events} fault events) in {wall_ms:.1} ms — availability {availability:.4} \
             (healthy {healthy_availability:.4}), shed {}, p99 {:.4} ms (healthy {:.4}), \
             peak event queue {}, digest {digest}\n",
            r.shed, r.p99_ms, healthy.p99_ms, r.peak_event_queue,
        ),
    }
}

/// Runs both study grids plus the overhead, scale and fault-scale rows,
/// writes the CSVs into `out_dir` and the JSON to `json_path`, and
/// returns the printable summary.
pub fn run_serving_bench(
    out_dir: &Path,
    json_path: &Path,
    par: Parallelism,
) -> std::io::Result<String> {
    let golden_options = StudyOptions::golden();
    let golden = run_serving_study(&golden_options, par);
    let hetero = run_serving_study(&StudyOptions::heterogeneous(), par);

    // The combined report: golden rows first (so the pinned artifact is a
    // prefix of the full study), then the mixed-backend rows.
    let mut runs = golden.runs.clone();
    runs.extend(hetero.runs.iter().cloned());
    let study = albireo_runtime::ServingStudyReport {
        replicas: golden.replicas,
        runs,
    };

    // The before/after instrumentation row (disabled observability is
    // the default serve path), the scale row (one million requests
    // through the streamed engine), and the availability row (the same
    // million under correlated faults with repair crews).
    let rows = [
        measure_obs_overhead(&golden_options),
        measure_serving_scale(&golden_options),
        measure_fault_scale(&golden_options),
    ];

    std::fs::create_dir_all(out_dir)?;
    let study_csv = out_dir.join("serving_study.csv");
    let golden_csv = out_dir.join("golden_serving_metrics.csv");
    std::fs::write(&study_csv, study.to_csv())?;
    std::fs::write(&golden_csv, golden.to_csv())?;
    let mut json = study.to_json();
    let at = json
        .rfind("  \"combined_digest\"")
        .expect("study JSON has a combined digest");
    json.insert_str(
        at,
        &rows.iter().map(|r| r.json.as_str()).collect::<String>(),
    );
    std::fs::write(json_path, json)?;

    let mut out = format!(
        "serving study: {} golden + {} heterogeneous runs = {} total\n",
        golden.runs.len(),
        hetero.runs.len(),
        study.runs.len()
    );
    for run in &study.runs {
        let r = &run.report;
        out.push_str(&format!(
            "  {:<28} {:>6.0} rps {:<16} replica {}  p50 {:.4} ms  p99 {:.4} ms  shed {:.1}%  {:.3} mJ/req\n",
            r.fleet_label,
            r.offered_rate_rps,
            r.policy_label,
            run.replica,
            r.p50_ms,
            r.p99_ms,
            r.shed_rate * 100.0,
            r.energy_per_request_j * 1e3
        ));
    }
    for row in &rows {
        out.push_str(&row.line);
    }
    out.push_str(&format!(
        "wrote {}, {}, {}\ncombined digest {}\n",
        study_csv.display(),
        golden_csv.display(),
        json_path.display(),
        study.combined_digest_hex()
    ));
    Ok(out)
}
