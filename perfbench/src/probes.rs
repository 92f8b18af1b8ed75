//! Per-layer probes: timed calls of one layer's public functions, on the
//! inputs the workloads feed them. Each probe runs a fixed number of
//! operations `REPS` times inside a span and reports the median per op.

use crate::stats::median;
use crate::trace::Recorder;
use crate::workloads::{ALL_CHIP_KINDS, PLAN_SPEC, SERVE_FAULTS};
use albireo_core::analog::{AnalogEngine, AnalogSimConfig};
use albireo_core::config::ChipConfig;
use albireo_nn::zoo;
use albireo_obs::QuantileSketch;
use albireo_photonics::mrr::Microring;
use albireo_photonics::photodiode::BalancedPd;
use albireo_plan::PlanSpec;
use albireo_runtime::{EventKey, EventQueue, FaultSpec, FleetConfig, ServeConfig};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per probe (the median is reported).
const REPS: usize = 5;
/// Repetitions of the sub-millisecond set-up probes.
const SETUP_REPS: usize = 9;

/// Times `reps` runs of `f` (each doing `ops` operations) in spans named
/// `name`; returns the median host time per op in ns.
fn per_op_ns(tr: &mut Recorder, name: &str, reps: usize, ops: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        tr.span(name, &mut f);
        samples.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&samples)
}

/// Deterministic values in `[0, 1)` (a 64-bit LCG; probe inputs only).
fn unit_values(n: usize, seed: u64) -> Vec<f64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// Runs every probe; returns `(metric, value)` pairs. `stream_cfg` is the
/// serve configuration whose request stream the stream probe drains.
pub fn run(tr: &mut Recorder, stream_cfg: &ServeConfig, seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let chip = ChipConfig::albireo_9();
    let params = chip.optical_params();

    // photonics: the rail-accumulation inner step at the PLCU's channel
    // detunings (every offset within one row of multicast channels).
    let ring = Microring::from_params(&params);
    let n = chip.wavelengths_per_plcu();
    let spacing = ring.fsr() / n as f64;
    let detunings: Vec<f64> = (-(n as isize - 1)..n as isize)
        .map(|o| o as f64 * spacing)
        .collect();
    const DROPS: usize = 400_000;
    out.push((
        "photonics.mrr.drop_ns",
        per_op_ns(tr, "photonics.mrr.drop", REPS, DROPS, || {
            let mut acc = 0.0;
            for i in 0..DROPS {
                let dl = black_box(detunings[i % detunings.len()]);
                acc += ring.drop_at_phase(ring.phase_detuning(dl));
            }
            black_box(acc);
        }),
    ));

    let pd = BalancedPd::from_params(&params);
    let rails: Vec<f64> = unit_values(1024, seed).iter().map(|u| u * 2e-3).collect();
    const DETECTS: usize = 1_000_000;
    out.push((
        "photonics.pd.detect_ns",
        per_op_ns(tr, "photonics.pd.detect", REPS, DETECTS, || {
            let mut acc = 0.0;
            for i in 0..DETECTS {
                let p = black_box(rails[i % 1024]);
                let q = black_box(rails[(i * 7 + 3) % 1024]);
                acc += pd.output_current_total(p, q);
            }
            black_box(acc);
        }),
    ));

    // obs: latency observations, log-uniform over 1..50 ms (the serve
    // workloads' p50..p99.9 span).
    let latencies: Vec<f64> = unit_values(4096, seed ^ 0x5EED)
        .iter()
        .map(|u| 50f64.powf(*u))
        .collect();
    const OBSERVES: usize = 1_000_000;
    out.push((
        "obs.sketch.observe_ns",
        per_op_ns(tr, "obs.sketch.observe", REPS, OBSERVES, || {
            let mut sketch = QuantileSketch::new();
            for i in 0..OBSERVES {
                sketch.observe(black_box(latencies[i % 4096]));
            }
            black_box(sketch.count());
        }),
    ));

    // runtime: event-queue push/pop pairs at the DES's shallow depth,
    // with completions landing a little ahead of the clock.
    let gaps: Vec<f64> = unit_values(4096, seed ^ 0x0E0E)
        .iter()
        .map(|u| u * 1e-3)
        .collect();
    const PAIRS: usize = 1_000_000;
    out.push((
        "runtime.queue.op_ns",
        per_op_ns(tr, "runtime.queue.op", REPS, PAIRS, || {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut now: f64 = 0.0;
            q.push(EventKey::new(now.to_bits(), 0, 0), 0);
            for i in 0..PAIRS {
                let at: f64 = now + gaps[i % 4096];
                q.push(EventKey::new(at.to_bits(), 0, i as u64 + 1), i as u32);
                let (key, _) = q.pop().expect("queue holds an event");
                now = key.time_s();
            }
            black_box(q.len());
        }),
    ));

    out.push((
        "runtime.workload.stream_ms",
        per_op_ns(tr, "runtime.workload.stream", 3, 1, || {
            let drained = stream_cfg
                .workload
                .stream(stream_cfg.requests, stream_cfg.seed)
                .count();
            black_box(drained);
        }) / 1e6,
    ));

    // core and modes: cost-model evaluations on the serving mix.
    let models = zoo::serving_models();
    let fleet = FleetConfig::parse(ALL_CHIP_KINDS, models.clone()).expect("chip kinds parse");
    let (alexnet, vgg16, mixer) = (&models[0], &models[1], &models[4]);
    let eval = |tr: &mut Recorder, name: &str, chip: usize, nets: &[&albireo_nn::Model]| {
        let accel = fleet.chips[chip].accel.clone();
        let groups = accel.compute_groups();
        per_op_ns(tr, name, REPS, nets.len(), || {
            for m in nets {
                black_box(accel.cost_with_groups(m, groups));
            }
        }) / 1e3
    };
    // Chip order in ALL_CHIP_KINDS: albireo_9, winograd_9, gemm_9, albireo_27.
    let albireo_9 = eval(tr, "core.cost.eval", 0, &[alexnet, vgg16]);
    let albireo_27 = eval(tr, "core.cost.eval", 3, &[alexnet, vgg16]);
    out.push(("core.cost.eval_us", (albireo_9 + albireo_27) / 2.0));
    out.push((
        "modes.winograd.eval_us",
        eval(tr, "modes.winograd.eval", 1, &[vgg16, mixer]),
    ));
    out.push((
        "modes.gemm.eval_us",
        eval(tr, "modes.gemm.eval", 2, &[mixer]),
    ));

    // Set-up layers: one construction or parse per op.
    out.push((
        "core.analog.new_ms",
        per_op_ns(tr, "core.analog.new", SETUP_REPS, 1, || {
            black_box(AnalogEngine::new(&chip, AnalogSimConfig::default()));
        }) / 1e6,
    ));
    out.push((
        "nn.zoo_ms",
        per_op_ns(tr, "nn.zoo", SETUP_REPS, 1, || {
            black_box(zoo::serving_models());
        }) / 1e6,
    ));
    let mut parse_ns = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let owned = models.clone();
        let t = Instant::now();
        black_box(tr.span("runtime.fleet.parse", || {
            FleetConfig::parse(ALL_CHIP_KINDS, owned)
        }))
        .expect("chip kinds parse");
        parse_ns.push(t.elapsed().as_nanos() as f64);
    }
    out.push(("runtime.fleet.parse_ms", median(&parse_ns) / 1e6));
    out.push((
        "runtime.fault.compile_ms",
        per_op_ns(tr, "runtime.fault.compile", SETUP_REPS, 1, || {
            let spec = FaultSpec::parse(SERVE_FAULTS).expect("fault spec parses");
            black_box(spec.compile(2));
        }) / 1e6,
    ));
    let plan_line = format!("{PLAN_SPEC};seed={seed}");
    out.push((
        "plan.spec_parse_ms",
        per_op_ns(tr, "plan.spec_parse", SETUP_REPS, 1, || {
            black_box(PlanSpec::parse(&plan_line)).expect("plan spec parses");
        }) / 1e6,
    ));
    out
}
