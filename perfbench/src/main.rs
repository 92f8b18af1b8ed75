//! Host-time benchmark of the Albireo simulator: four seeded workloads,
//! end-to-end metrics with tracing off, per-layer metrics from a traced
//! run. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <analog_conv|serve_healthy|serve_faults|plan_modes|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Standard output ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the full report, with host-clock figures under `host` and simulated
//! (virtual-clock) outputs under `sim`.

mod probes;
mod speed;
mod stats;
mod trace;
mod workloads;

use albireo_parallel::Parallelism;
use speed::Calibration;
use stats::{median, tail};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::Recorder;
use workloads::{Workload, DEFAULT_SEED, NAMES};

/// Threads every workload runs on (the host has at least this many).
const THREADS: usize = 1;
/// Set-up batches per run; `setup_s` is the median batch mean.
const SETUP_BATCHES: usize = 15;
/// Target host time of one set-up batch, s (short set-ups repeat within a
/// batch so brief interruptions wash out of the batch mean).
const SETUP_BATCH_S: f64 = 0.005;
/// Fewest timed passes per measured phase, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Calls the tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;
/// Failure notes kept in the report.
const MAX_NOTES: usize = 5;
/// Where the traced run writes its spans (relative to the working directory).
const SPANS_DIR: &str = ".bench_out";

/// End-to-end metrics (host clock, tracing off): name and unit.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("call_ms_p50", "ms"),
    ("call_ms_tail", "ms"),
    ("macs_per_s", "GMAC/s"),
    ("sim_requests_per_s", "1/s"),
    ("candidates_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("correct_frac", "frac"),
];

/// Analog layers with their own `core.analog.conv_ms.<layer>` metric.
const ANALOG_LAYERS: [&str; 5] = ["k3s1", "k3s2", "k5", "k1", "g2"];

/// Per-layer metrics (traced run): name and unit.
const PER_LAYER: [(&str, &str); 46] = [
    ("photonics.mrr.drop_ns", "ns"),
    ("photonics.mrr.drops", "count"),
    ("photonics.pd.detect_ns", "ns"),
    ("tensor.conv2d_ms", "ms"),
    ("core.analog.new_ms", "ms"),
    ("core.analog.conv_ms", "ms"),
    ("core.analog.conv_ms.k3s1", "ms"),
    ("core.analog.conv_ms.k3s2", "ms"),
    ("core.analog.conv_ms.k5", "ms"),
    ("core.analog.conv_ms.k1", "ms"),
    ("core.analog.conv_ms.g2", "ms"),
    ("core.analog.macs", "count"),
    ("core.analog.issued_macs", "count"),
    ("core.analog.useful_mac_frac", "frac"),
    ("core.cost.eval_us", "us"),
    ("core.cost.evals", "count"),
    ("modes.winograd.eval_us", "us"),
    ("modes.gemm.eval_us", "us"),
    ("nn.zoo_ms", "ms"),
    ("runtime.fleet.parse_ms", "ms"),
    ("runtime.fault.compile_ms", "ms"),
    ("runtime.workload.stream_ms", "ms"),
    ("runtime.queue.op_ns", "ns"),
    ("runtime.simulate_ms", "ms"),
    ("runtime.simulate_self_ms", "ms"),
    ("runtime.completed", "count"),
    ("runtime.shed", "count"),
    ("runtime.shed_frac", "frac"),
    ("runtime.batches", "count"),
    ("runtime.peak_event_queue", "count"),
    ("runtime.sketch_buckets", "count"),
    ("runtime.fault_events", "count"),
    ("runtime.alerts_fired", "count"),
    ("obs.sketch.observe_ns", "ns"),
    ("obs.sketch.observes", "count"),
    ("plan.spec_parse_ms", "ms"),
    ("plan.plan_ms", "ms"),
    ("plan.candidates", "count"),
    ("plan.screened", "count"),
    ("plan.pruned", "count"),
    ("plan.scored", "count"),
    ("plan.feasible", "count"),
    ("plan.prune_frac", "frac"),
    ("bench.check_ms", "ms"),
    ("bench.probe_ms", "ms"),
    ("bench.trace_overhead_frac", "frac"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required ({}, all)",
            NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// Calls made in one measured phase.
#[derive(Default)]
struct Samples {
    /// Raw host time of each call, ms.
    call_ms: Vec<f64>,
    /// Each call's host time scaled to the reference host by the mean of
    /// the calibration loops just before and just after it, ms.
    ref_call_ms: Vec<f64>,
    /// The latest calibration loop time, ms (the next call's "before").
    last_cal_ms: Option<f64>,
    passes: usize,
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl Samples {
    /// Runs and checks one whole pass, timing each call between two
    /// calibration loops.
    fn pass(&mut self, w: &mut dyn Workload, tr: &mut Recorder, cal: &mut Calibration) {
        for i in 0..w.pass_len() {
            let before = match self.last_cal_ms {
                Some(ms) => ms,
                None => cal.sample(),
            };
            let t = Instant::now();
            let verdict = catch_unwind(AssertUnwindSafe(|| w.call(i, tr)));
            let dt = t.elapsed().as_secs_f64();
            self.attempted += 1;
            let note = match verdict {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(e),
                Err(_) => {
                    tr.unwind();
                    Some(format!("call {i} panicked"))
                }
            };
            if let Some(note) = note {
                self.failed += 1;
                if self.notes.len() < MAX_NOTES {
                    self.notes.push(note);
                }
            }
            let after = cal.sample();
            self.last_cal_ms = Some(after);
            self.call_ms.push(dt * 1e3);
            self.ref_call_ms
                .push(dt * 1e3 * speed::REFERENCE_MS / ((before + after) / 2.0));
        }
        self.passes += 1;
    }

    /// Whole passes until `seconds` have elapsed (at least `MIN_PASSES`).
    fn measure(
        w: &mut dyn Workload,
        tr: &mut Recorder,
        seconds: f64,
        cal: &mut Calibration,
    ) -> Samples {
        let mut s = Samples::default();
        let start = Instant::now();
        while s.passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
            s.pass(w, tr, cal);
        }
        s
    }

    /// Host time of the timed calls per pass, s: the total, not a median,
    /// so throughputs are work per host second of the run.
    fn wall_s(calls_ms: &[f64], passes: usize) -> f64 {
        calls_ms.iter().sum::<f64>() / 1e3 / passes as f64
    }

    fn absorb(&mut self, other: Samples) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < MAX_NOTES {
                self.notes.push(note);
            }
        }
    }
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A finite number always printed as a float (`1.0`, `2.5e16`), never as
/// an integer literal; non-finite values print as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, ...}`.
fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// One workload's result.
struct Outcome {
    attempted: usize,
    failed: usize,
    /// The metrics of the final line (end-to-end, or per-layer when traced).
    metrics: Vec<(String, f64, &'static str)>,
}

/// The workloads whose layers a traced run of `name` covers with one
/// extra pass each, so every per-layer metric is measured.
fn coverage(name: &str) -> [&'static str; 2] {
    match name {
        "analog_conv" => ["serve_healthy", "plan_modes"],
        "plan_modes" => ["analog_conv", "serve_healthy"],
        _ => ["analog_conv", "plan_modes"],
    }
}

/// Builds workload `name` repeatedly; returns the median per-set-up host
/// time over `SETUP_BATCHES` batches, raw and scaled to the reference
/// host by the calibration loops either side of each batch, and the last
/// workload built. Each build is dropped outside the clock before the
/// next one starts, so every build reuses warm memory and peak memory
/// stays one workload.
fn measure_setup(
    name: &str,
    seed: u64,
    cal: &mut Calibration,
) -> Result<(f64, f64, Box<dyn Workload>), String> {
    let timed = || -> Result<(f64, Box<dyn Workload>), String> {
        let t = Instant::now();
        let w = workloads::setup(name, seed)?;
        Ok((t.elapsed().as_secs_f64(), w))
    };
    // A cold build, then a warm one to size the batches.
    let (_, mut last) = timed()?;
    drop(last);
    let (warm, w) = timed()?;
    last = w;
    let per_batch = ((SETUP_BATCH_S / warm.max(1e-9)).ceil() as usize).clamp(1, 10_000);
    let (mut raw, mut scaled) = (Vec::new(), Vec::new());
    let mut before = cal.sample();
    for _ in 0..SETUP_BATCHES {
        let mut total = 0.0;
        for _ in 0..per_batch {
            drop(last);
            let (dt, w) = timed()?;
            total += dt;
            last = w;
        }
        let after = cal.sample();
        let mean = total / per_batch as f64;
        raw.push(mean);
        scaled.push(mean * speed::REFERENCE_MS / ((before + after) / 2.0));
        before = after;
    }
    Ok((median(&raw), median(&scaled), last))
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    let mut cal = Calibration::new();
    let (setup_s, ref_setup_s, mut w) = measure_setup(name, args.seed, &mut cal)?;
    w.prepare();

    let mut untraced = Recorder::new(false);
    // Warm-up: one checked pass, not timed.
    let mut all = Samples::default();
    all.pass(w.as_mut(), &mut untraced, &mut cal);

    let phase_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let host = Samples::measure(w.as_mut(), &mut untraced, phase_s, &mut cal);
    let wall_s = Samples::wall_s(&host.call_ms, host.passes);
    let ref_wall_s = Samples::wall_s(&host.ref_call_ms, host.passes);
    let pass_work = w.work();
    let sim_json = w.sim_json();

    let mut per_layer = Vec::new();
    let mut spans_json = String::from("{}");
    if args.trace {
        let mut tr = Recorder::new(true);
        let traced = Samples::measure(w.as_mut(), &mut tr, phase_s, &mut cal);
        let overhead = Samples::wall_s(&traced.ref_call_ms, traced.passes) / ref_wall_s - 1.0;
        all.absorb(traced);
        let mut sources = vec![(name, w.counts())];
        drop(w);
        for other in coverage(name) {
            let mut cw = workloads::setup(other, args.seed)?;
            cw.prepare();
            all.pass(cw.as_mut(), &mut tr, &mut cal);
            sources.push((other, cw.counts()));
        }
        let stream_cfg = workloads::serve_config(args.seed, name == "serve_faults", 2);
        let probe_start = Instant::now();
        let probes = probes::run(&mut tr, &stream_cfg, args.seed);
        let probe_ms = probe_start.elapsed().as_secs_f64() * 1e3;
        per_layer = layer_metrics(&tr, &sources, &probes, overhead, probe_ms)?;
        spans_json = span_summary(&tr);
        std::fs::create_dir_all(SPANS_DIR).map_err(|e| format!("{SPANS_DIR}: {e}"))?;
        let path = format!("{SPANS_DIR}/spans-{name}-seed{}.jsonl", args.seed);
        std::fs::write(&path, tr.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }

    let (tail_pct, tail_ms, beyond) = tail(&host.call_ms, TAIL_BEYOND);
    let (_, ref_tail_ms, _) = tail(&host.ref_call_ms, TAIL_BEYOND);
    let call_ms_p50 = median(&host.call_ms);
    let ref_call_ms_p50 = median(&host.ref_call_ms);
    let host_call_ms = host.call_ms.clone();
    all.absorb(host);
    let failed_frac = all.failed as f64 / all.attempted as f64;
    // Peak memory is read last, after everything the run allocated.
    let peak_rss = peak_rss_mib()?;
    // The raw host-clock values, and the same scaled to the reference
    // host (call by call, and set-up batch by batch).
    let metrics = |scaled: bool| -> Vec<(String, f64, &'static str)> {
        let (setup, wall, p50, tail) = if scaled {
            (ref_setup_s, ref_wall_s, ref_call_ms_p50, ref_tail_ms)
        } else {
            (setup_s, wall_s, call_ms_p50, tail_ms)
        };
        END_TO_END
            .iter()
            .map(|&(metric, unit)| {
                let v = match metric {
                    "setup_s" => setup,
                    "wall_s" => wall,
                    "call_ms_p50" => p50,
                    "call_ms_tail" => tail,
                    "macs_per_s" => pass_work.macs / 1e9 / wall,
                    "sim_requests_per_s" => pass_work.sim_requests / wall,
                    "candidates_per_s" => pass_work.configs / wall,
                    "peak_rss_mib" => peak_rss,
                    "correct_frac" => 1.0 - failed_frac,
                    _ => unreachable!("every end-to-end metric is computed"),
                };
                (metric.to_string(), v, unit)
            })
            .collect()
    };
    let e2e = metrics(true);
    let raw_e2e = metrics(false);

    let mut host_json = metrics_json(&e2e);
    host_json.pop();
    let _ = write!(
        host_json,
        ", \"failed_frac\": {{\"value\": {}, \"unit\": \"frac\"}}, \"raw\": {}, \
         \"calibration\": {{\"reference_ms\": {}, \"median_ms\": {}, \"samples\": {}}}, \
         \"call_ms_tail_detail\": {{\"percentile\": {tail_pct}, \"calls_beyond\": {beyond}, \"calls\": {}}}, \
         \"call_ms\": [{}]}}",
        json_num(failed_frac),
        metrics_json(&raw_e2e),
        json_num(speed::REFERENCE_MS),
        json_num(cal.median_ms()),
        cal.samples(),
        host_call_ms.len(),
        host_call_ms.iter().map(|v| json_num(*v)).collect::<Vec<_>>().join(", ")
    );
    let notes: Vec<String> = all.notes.iter().map(|n| json_str(n)).collect();
    println!(
        "{{\"schema\": \"albireo.perfbench/v1\", \"workload\": {}, \"seed\": {}, \"threads\": {THREADS}, \
         \"host_threads\": {}, \
         \"trace\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"host\": {host_json}, \
         \"sim\": {sim_json}, \"per_layer\": {}, \"spans\": {spans_json}}}",
        json_str(name),
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.trace as u8,
        all.attempted,
        all.failed,
        notes.join(", "),
        metrics_json(&per_layer),
    );
    Ok(Outcome {
        attempted: all.attempted,
        failed: all.failed,
        metrics: if args.trace { per_layer } else { e2e },
    })
}

/// `{"span name": {"count", "total_ms", "self_ms", "median_ms"}}`.
fn span_summary(tr: &Recorder) -> String {
    let body: Vec<String> = tr
        .stats()
        .iter()
        .map(|(name, s)| {
            let total: u64 = s.durations_ns.iter().sum();
            let ms: Vec<f64> = s.durations_ns.iter().map(|&d| d as f64 / 1e6).collect();
            format!(
                "{}: {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}, \"median_ms\": {}}}",
                json_str(name),
                ms.len(),
                json_num(total as f64 / 1e6),
                json_num(s.self_ns as f64 / 1e6),
                json_num(median(&ms))
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Assembles every per-layer metric from the traced spans, the counts of
/// the workloads that ran, and the probes.
fn layer_metrics(
    tr: &Recorder,
    sources: &[(&str, Vec<(&'static str, f64)>)],
    probes: &[(&'static str, f64)],
    overhead: f64,
    probe_ms: f64,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let stats = tr.stats();
    let med_ms = |span: &str| -> Option<f64> {
        stats.get(span).map(|s| {
            let ms: Vec<f64> = s.durations_ns.iter().map(|&d| d as f64 / 1e6).collect();
            median(&ms)
        })
    };
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    // Counts: the measured workload first, then the coverage passes.
    for (_, counts) in sources {
        for &(k, v) in counts {
            values.entry(k.to_string()).or_insert(v);
        }
    }
    for &(k, v) in probes {
        values.insert(k.to_string(), v);
    }
    let (mut conv, mut reference) = (0.0, 0.0);
    for layer in ANALOG_LAYERS {
        let c = med_ms(&format!("core.analog.conv.{layer}")).ok_or("no analog spans")?;
        reference += med_ms(&format!("tensor.conv2d.{layer}")).ok_or("no reference spans")?;
        conv += c;
        values.insert(format!("core.analog.conv_ms.{layer}"), c);
    }
    values.insert("core.analog.conv_ms".into(), conv);
    values.insert("tensor.conv2d_ms".into(), reference);
    let simulate_ms = med_ms("runtime.simulate").ok_or("no simulate spans")?;
    values.insert("runtime.simulate_ms".into(), simulate_ms);
    values.insert(
        "plan.plan_ms".into(),
        med_ms("plan.plan").ok_or("no plan spans")?,
    );
    values.insert(
        "bench.check_ms".into(),
        med_ms("bench.check").ok_or("no check spans")?,
    );
    values.insert("bench.probe_ms".into(), probe_ms);
    values.insert("bench.trace_overhead_frac".into(), overhead);

    // simulate self time: the simulate span minus the probe-estimated
    // cost of its stream, sketch, queue and cost-model work, all at the
    // volume of the serve workload that produced the span.
    let serve = &sources
        .iter()
        .find(|(n, _)| n.starts_with("serve"))
        .ok_or("no serve workload ran")?
        .1;
    let count = |k: &str| serve.iter().find(|(n, _)| *n == k).map(|&(_, v)| v);
    let need = |k: &str| values.get(k).copied().ok_or(format!("missing {k}"));
    let queue_pairs =
        count("runtime.batches").unwrap_or(0.0) + count("runtime.fault_events").unwrap_or(0.0);
    let self_ms = simulate_ms
        - need("runtime.workload.stream_ms")?
        - need("obs.sketch.observe_ns")? * count("obs.sketch.observes").unwrap_or(0.0) / 1e6
        - need("runtime.queue.op_ns")? * queue_pairs / 1e6
        - need("core.cost.eval_us")? * count("core.cost.evals").unwrap_or(0.0) / 1e3;
    values.insert("runtime.simulate_self_ms".into(), self_ms);

    PER_LAYER
        .iter()
        .map(|&(metric, unit)| {
            values
                .get(metric)
                .map(|&v| (metric.to_string(), v, unit))
                .ok_or(format!("per-layer metric {metric} was not measured"))
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    Parallelism::set_global(Parallelism::with_threads(THREADS));
    let names: Vec<&str> = if args.workload == "all" {
        NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for name in &names {
        match run_workload(name, &args) {
            Ok(o) => {
                attempted += o.attempted;
                failed += o.failed;
                for (m, v, u) in o.metrics {
                    let m = if names.len() > 1 {
                        format!("{name}.{m}")
                    } else {
                        m
                    };
                    metrics.push((m, v, u));
                }
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                std::process::exit(1);
            }
        }
    }
    let correct = failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    );
}
