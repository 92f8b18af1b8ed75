//! The four benchmark workloads, built from a seed.
//!
//! Every workload is a sequence of *calls* into the simulator's public
//! API; one *pass* is the unit of end-to-end work a user starts (the five
//! analog layers, one `simulate`, one `plan`). Calls are checked as they
//! run: at the default seed against pinned digests, at any other seed
//! against invariants that hold for every seed.

use crate::json_num;
use crate::trace::Recorder;
use albireo_core::accel::{Accelerator, NetworkCost};
use albireo_core::analog::{AnalogEngine, AnalogSimConfig};
use albireo_core::config::ChipConfig;
use albireo_nn::{zoo, Model};
use albireo_obs::Obs;
use albireo_parallel::{split_seed, Parallelism};
use albireo_plan::{plan, PlanReport, PlanSpec};
use albireo_runtime::{
    simulate, AutoscalePolicy, ChipSpec, ClassSpec, FaultSpec, FleetConfig, ServeConfig,
    ServiceReport,
};
use albireo_tensor::conv::{conv2d, conv2d_grouped, ConvSpec};
use albireo_tensor::{output_extent, Tensor3, Tensor4};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The seed the pinned digests were recorded at.
pub const DEFAULT_SEED: u64 = 42;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["analog_conv", "serve_healthy", "serve_faults", "plan_modes"];

/// Requests offered by one serve call.
const SERVE_REQUESTS: usize = 1_000_000;
/// The AlexNet+VGG16 study mix (serving-model indices 0 and 1).
const SERVE_MIX: [(usize, f64); 2] = [(0, 1.0), (1, 1.0)];
/// The correlated-fault scenario of `serve_faults`.
pub const SERVE_FAULTS: &str = "rack:0-0@30,thermal:0-3@60-90:2,crews:2:20:11";
/// The request classes of `serve_faults`.
const SERVE_CLASSES: &str = "interactive:3:5,batch:1";
/// The planner spec of `plan_modes`, without its seed.
pub const PLAN_SPEC: &str = "arrival=poisson;rate=400;mix=1:1,4:1;requests=3200;screen=400;\
     replicas=1;slo=p99<20ms;chips=albireo_9:C|winograd_9:C|gemm_9:C|albireo_27:C;\
     max-chips=4;policies=immediate|size:4|deadline:200:8;\
     autoscale=static|elastic:8:0.001:1";
/// Every chip kind the workloads name, as one fleet spec (setup probes).
pub const ALL_CHIP_KINDS: &str = "albireo_9:C, winograd_9:C, gemm_9:C, albireo_27:C";
/// Largest relative RMS error an analog layer may show at any seed.
const REL_RMSE_CEILING: f64 = 0.5;
/// Noise-stream tag deriving the analog engine's noise seed.
const ANALOG_NOISE_STREAM: u64 = 0xBE7C;

/// Host-independent work done by one pass, for the throughput metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassWork {
    /// Useful MACs simulated (analog MACs computed, or MACs of the
    /// offered requests' networks).
    pub macs: f64,
    /// Simulated requests offered (one per layer call on `analog_conv`).
    pub sim_requests: f64,
    /// Configurations evaluated (planner candidates, or one per call).
    pub configs: f64,
}

pub trait Workload {
    /// Benchmark bookkeeping after the timed set-up (stream drains for
    /// the work counts); not part of `setup_s`.
    fn prepare(&mut self) {}
    /// Calls in one pass.
    fn pass_len(&self) -> usize;
    /// Runs and checks call `i` of a pass.
    fn call(&mut self, i: usize, tr: &mut Recorder) -> Result<(), String>;
    /// Work done by one pass.
    fn work(&self) -> PassWork;
    /// Simulated (virtual-clock and digest) outputs of the latest calls,
    /// as a JSON object.
    fn sim_json(&self) -> String;
    /// Per-layer counts of the latest calls (repeat exactly per seed).
    fn counts(&self) -> Vec<(&'static str, f64)>;
}

/// Builds workload `name`'s inputs and program objects from `seed`.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        "analog_conv" => Ok(Box::new(AnalogConv::new(seed))),
        "serve_healthy" => Ok(Box::new(Serve::new(seed, false))),
        "serve_faults" => Ok(Box::new(Serve::new(seed, true))),
        "plan_modes" => Ok(Box::new(Plan::new(seed)?)),
        other => Err(format!(
            "unknown workload `{other}` (try: {}, all)",
            NAMES.join(", ")
        )),
    }
}

/// The serve configuration of a `serve_*` workload (also drained by the
/// request-stream probe).
pub fn serve_config(seed: u64, faults: bool, fleet_size: usize) -> ServeConfig {
    let rate = if faults { 2000.0 } else { 4000.0 };
    let mut cfg = ServeConfig::poisson(rate, SERVE_REQUESTS, seed, 0);
    cfg.workload.mix = SERVE_MIX.to_vec();
    cfg.record_cap = 0;
    if faults {
        cfg.faults = FaultSpec::parse(SERVE_FAULTS)
            .expect("fault spec parses")
            .compile(fleet_size);
        cfg.workload.classes =
            ClassSpec::parse_list(SERVE_CLASSES, None).expect("class list parses");
    }
    cfg
}

/// FNV-1a over the bit patterns of `values`.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

// ---------------------------------------------------------------- analog_conv

#[derive(Debug, Clone, Copy, PartialEq)]
enum ConvPath {
    Direct,
    Large,
    Grouped(usize),
}

impl ConvPath {
    fn groups(self) -> usize {
        match self {
            ConvPath::Grouped(g) => g,
            _ => 1,
        }
    }
}

/// One seeded convolution layer of `analog_conv`.
struct Layer {
    name: &'static str,
    input: Tensor3,
    kernels: Tensor4,
    spec: ConvSpec,
    path: ConvPath,
    /// Default-seed output digest and relative RMS error.
    pin: (u64, f64),
    /// Latest output digest and relative RMS error.
    last: Option<(u64, f64)>,
}

/// (name, in, out, height=width, kernel, stride, path, pinned digest, pinned rel_rmse)
type LayerShape = (
    &'static str,
    usize,
    usize,
    usize,
    usize,
    usize,
    ConvPath,
    u64,
    f64,
);

#[rustfmt::skip]
const LAYERS: [LayerShape; 5] = [
    ("k3s1", 32, 32, 14, 3, 1, ConvPath::Direct, 0xe36c1f69747a0430, 0.1012918555990155),
    ("k3s2", 32, 32, 28, 3, 2, ConvPath::Direct, 0xccd63c4625f69869, 0.11360669219230672),
    ("k5", 16, 32, 13, 5, 1, ConvPath::Large, 0x1f20574e11c6be0b, 0.2729403346288937),
    ("k1", 64, 64, 14, 1, 1, ConvPath::Direct, 0xdf783ad0fe4837ad, 0.28963471596766655),
    ("g2", 32, 32, 14, 3, 1, ConvPath::Grouped(2), 0xdbe4aa994a80ef7e, 0.08873035346127085),
];

impl Layer {
    fn out_dims(&self) -> (usize, usize, usize) {
        let (_, ay, ax) = self.input.dims();
        let (wm, _, wy, wx) = self.kernels.dims();
        (
            wm,
            output_extent(ay, wy, self.spec.padding, self.spec.stride),
            output_extent(ax, wx, self.spec.padding, self.spec.stride),
        )
    }

    /// Useful MACs: every output times its kernel volume.
    fn macs(&self) -> u64 {
        let (wm, by, bx) = self.out_dims();
        let (_, wz, wy, wx) = self.kernels.dims();
        (wm * by * bx * wz * wy * wx) as u64
    }

    /// Masked passes the engine issues: kernels wider than the PLCU's
    /// `nm` MZMs are split into row bands of `⌊nm/Wx⌋` rows (or column
    /// chunks when a row does not fit), each a full convolution.
    fn passes(&self, nm: usize) -> u64 {
        let (_, _, wy, wx) = self.kernels.dims();
        if wy * wx <= nm {
            return 1;
        }
        let (rows, cols) = if wx <= nm {
            ((nm / wx).max(1), wx)
        } else {
            (1, nm)
        };
        (wy.div_ceil(rows) * wx.div_ceil(cols)) as u64
    }

    /// Ring drop evaluations of the rail accumulation: per output row
    /// and column group of `nd` receptive fields, every channel and
    /// non-zero weight evaluates one drop per (output column, multicast
    /// column) pair.
    fn drops(&self, nd: usize) -> u64 {
        let (wm, by, bx) = self.out_dims();
        let (_, wz, wy, wx) = self.kernels.dims();
        let nd_eff = if self.spec.stride == 1 { nd } else { 1 };
        let mut per_row = 0;
        let mut xb = 0;
        while xb < bx {
            let cols = nd_eff.min(bx - xb);
            per_row += cols * (cols + wx - 1);
            xb += cols;
        }
        (wm * by * per_row * wz * wy * wx) as u64
    }
}

struct AnalogConv {
    engine: AnalogEngine,
    chip: ChipConfig,
    layers: Vec<Layer>,
    pinned: bool,
}

impl AnalogConv {
    fn new(seed: u64) -> AnalogConv {
        let chip = ChipConfig::albireo_9();
        let cfg = AnalogSimConfig {
            seed: split_seed(seed, ANALOG_NOISE_STREAM),
            ..AnalogSimConfig::default()
        };
        let engine = AnalogEngine::new(&chip, cfg).with_parallelism(Parallelism::serial());
        let layers = LAYERS
            .iter()
            .enumerate()
            .map(
                |(i, &(name, cin, cout, hw, k, stride, path, pin_digest, pin_rel))| {
                    let mut rng = StdRng::seed_from_u64(split_seed(seed, i as u64));
                    let input = Tensor3::random_uniform(cin, hw, hw, 0.0, 1.0, &mut rng);
                    let kernels =
                        Tensor4::random_gaussian(cout, cin / path.groups(), k, k, 0.5, &mut rng);
                    Layer {
                        name,
                        input,
                        kernels,
                        spec: ConvSpec::new(stride, k / 2),
                        path,
                        pin: (pin_digest, pin_rel),
                        last: None,
                    }
                },
            )
            .collect();
        AnalogConv {
            engine,
            chip,
            layers,
            pinned: seed == DEFAULT_SEED,
        }
    }
}

impl Workload for AnalogConv {
    fn pass_len(&self) -> usize {
        self.layers.len()
    }

    fn call(&mut self, i: usize, tr: &mut Recorder) -> Result<(), String> {
        let AnalogConv {
            engine,
            layers,
            pinned,
            ..
        } = self;
        let layer = &mut layers[i];
        let name = layer.name;
        tr.enter("bench.call");
        let out = tr.span(&format!("core.analog.conv.{name}"), || match layer.path {
            ConvPath::Direct => engine.conv2d(&layer.input, &layer.kernels, &layer.spec),
            ConvPath::Large => engine.conv2d_large(&layer.input, &layer.kernels, &layer.spec),
            ConvPath::Grouped(g) => {
                engine.conv2d_grouped(&layer.input, &layer.kernels, &layer.spec, g)
            }
        });
        let groups = layer.path.groups();
        let reference = tr.span(&format!("tensor.conv2d.{name}"), || {
            if groups > 1 {
                conv2d_grouped(&layer.input, &layer.kernels, &layer.spec, groups)
            } else {
                conv2d(&layer.input, &layer.kernels, &layer.spec)
            }
        });
        tr.enter("bench.check");
        let digest = fnv1a(out.as_slice());
        let (mut err2, mut ref2) = (0.0, 0.0);
        for (a, r) in out.as_slice().iter().zip(reference.as_slice()) {
            err2 += (a - r) * (a - r);
            ref2 += r * r;
        }
        let rel = (err2 / ref2).sqrt();
        layer.last = Some((digest, rel));
        let verdict = if out.dims() != layer.out_dims() || out.dims() != reference.dims() {
            Err(format!("{name}: output shape {:?}", out.dims()))
        } else if !out.as_slice().iter().all(|v| v.is_finite()) {
            Err(format!("{name}: non-finite output"))
        } else if !(rel.is_finite() && rel <= REL_RMSE_CEILING) {
            Err(format!("{name}: rel_rmse {rel}"))
        } else if *pinned && (digest, rel.to_bits()) != (layer.pin.0, layer.pin.1.to_bits()) {
            Err(format!(
                "{name}: digest {digest:016x} rel_rmse {rel} != pinned {:016x} {}",
                layer.pin.0, layer.pin.1
            ))
        } else {
            Ok(())
        };
        tr.exit();
        tr.exit();
        verdict
    }

    fn work(&self) -> PassWork {
        PassWork {
            macs: self.layers.iter().map(|l| l.macs() as f64).sum(),
            sim_requests: self.layers.len() as f64,
            configs: self.layers.len() as f64,
        }
    }

    fn sim_json(&self) -> String {
        let mut s = String::from("{\"layers\": {");
        for (i, l) in self.layers.iter().enumerate() {
            let (digest, rel) = l.last.unwrap_or((0, f64::NAN));
            let _ = write!(
                s,
                "{}\"{}\": {{\"digest\": \"{digest:016x}\", \"rel_rmse\": {}, \"passes\": {}}}",
                if i > 0 { ", " } else { "" },
                l.name,
                json_num(rel),
                l.passes(self.chip.plcu.nm)
            );
        }
        s.push_str("}}");
        s
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let nm = self.chip.plcu.nm;
        let macs: u64 = self.layers.iter().map(Layer::macs).sum();
        let issued: u64 = self.layers.iter().map(|l| l.macs() * l.passes(nm)).sum();
        let drops: u64 = self.layers.iter().map(|l| l.drops(self.chip.plcu.nd)).sum();
        vec![
            ("core.analog.macs", macs as f64),
            ("core.analog.issued_macs", issued as f64),
            ("core.analog.useful_mac_frac", macs as f64 / issued as f64),
            ("photonics.mrr.drops", drops as f64),
        ]
    }
}

// ---------------------------------------------------------------- serve_*

/// An accelerator that counts cost-model evaluations and otherwise
/// delegates every method unchanged (traced runs only).
struct Counted {
    inner: Arc<dyn Accelerator>,
    evals: Arc<AtomicU64>,
}

impl Accelerator for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn description(&self) -> String {
        self.inner.description()
    }
    fn compute_groups(&self) -> usize {
        self.inner.compute_groups()
    }
    fn supports(&self, model: &Model) -> bool {
        self.inner.supports(model)
    }
    fn cost_with_groups(&self, model: &Model, active_groups: usize) -> NetworkCost {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.cost_with_groups(model, active_groups)
    }
    fn cost(&self, model: &Model) -> NetworkCost {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.cost(model)
    }
    fn idle_power_w(&self) -> f64 {
        self.inner.idle_power_w()
    }
}

/// Default-seed outputs of a serve workload: report digest, and per
/// class (name, completed, shed, alerts fired).
struct ServePin {
    digest: &'static str,
    classes: &'static [(&'static str, u64, u64, u64)],
}

const HEALTHY_PIN: ServePin = ServePin {
    digest: "6f3e124e1271b373",
    classes: &[],
};
const FAULTS_PIN: ServePin = ServePin {
    digest: "22e843bce8371605",
    classes: &[("interactive", 747540, 3057, 4), ("batch", 248323, 1080, 0)],
};

struct Serve {
    fleet: FleetConfig,
    cfg: ServeConfig,
    pin: Option<&'static ServePin>,
    /// The fleet with counting accelerators, built at the first traced call.
    counted: Option<(FleetConfig, Arc<AtomicU64>)>,
    /// MACs of the offered requests' networks (set by `prepare`).
    offered_macs: f64,
    last: Option<ServiceReport>,
    last_evals: Option<u64>,
}

impl Serve {
    fn new(seed: u64, faults: bool) -> Serve {
        let fleet = FleetConfig::paper_pair();
        let cfg = serve_config(seed, faults, fleet.chips.len());
        let pin = (seed == DEFAULT_SEED).then_some(if faults { &FAULTS_PIN } else { &HEALTHY_PIN });
        Serve {
            fleet,
            cfg,
            pin,
            counted: None,
            offered_macs: 0.0,
            last: None,
            last_evals: None,
        }
    }

    fn check(&self, r: &ServiceReport) -> Result<(), String> {
        let requests = self.cfg.requests as u64;
        if r.offered != requests || r.completed + r.shed != requests {
            return Err(format!(
                "offered {} completed {} shed {} != {requests} requests",
                r.offered, r.completed, r.shed
            ));
        }
        if !r.classes.is_empty() {
            let completed: u64 = r.classes.iter().map(|c| c.completed).sum();
            let shed: u64 = r.classes.iter().map(|c| c.shed).sum();
            if (completed, shed) != (r.completed, r.shed) {
                return Err(format!(
                    "class totals {completed}/{shed} != {}/{}",
                    r.completed, r.shed
                ));
            }
        }
        if let Some(pin) = self.pin {
            if r.digest_hex() != pin.digest {
                return Err(format!(
                    "digest {} != pinned {}",
                    r.digest_hex(),
                    pin.digest
                ));
            }
            let classes: Vec<(&str, u64, u64, u64)> = r
                .classes
                .iter()
                .map(|c| (c.name.as_str(), c.completed, c.shed, c.alerts_fired))
                .collect();
            if classes != pin.classes {
                return Err(format!("classes {classes:?} != pinned {:?}", pin.classes));
            }
        }
        Ok(())
    }
}

impl Workload for Serve {
    fn prepare(&mut self) {
        let macs: Vec<u64> = self.fleet.models.iter().map(Model::total_macs).collect();
        let total: u64 = self
            .cfg
            .workload
            .stream(self.cfg.requests, self.cfg.seed)
            .map(|r| macs[r.network])
            .sum();
        self.offered_macs = total as f64;
    }

    fn pass_len(&self) -> usize {
        1
    }

    fn call(&mut self, _i: usize, tr: &mut Recorder) -> Result<(), String> {
        if tr.enabled() && self.counted.is_none() {
            let evals = Arc::new(AtomicU64::new(0));
            let chips = self
                .fleet
                .chips
                .iter()
                .map(|c| ChipSpec {
                    name: c.name.clone(),
                    accel: Arc::new(Counted {
                        inner: c.accel.clone(),
                        evals: evals.clone(),
                    }),
                })
                .collect();
            let fleet = FleetConfig {
                chips,
                models: self.fleet.models.clone(),
            };
            self.counted = Some((fleet, evals));
        }
        let (fleet, evals) = match (&self.counted, tr.enabled()) {
            (Some((fleet, evals)), true) => (fleet, Some(evals)),
            _ => (&self.fleet, None),
        };
        let before = evals.map(|e| e.load(Ordering::Relaxed));
        tr.enter("bench.call");
        let report = tr.span("runtime.simulate", || simulate(fleet, &self.cfg));
        if let (Some(e), Some(b)) = (evals, before) {
            self.last_evals = Some(e.load(Ordering::Relaxed) - b);
        }
        let verdict = tr.span("bench.check", || self.check(&report));
        tr.exit();
        self.last = Some(report);
        verdict
    }

    fn work(&self) -> PassWork {
        PassWork {
            macs: self.offered_macs,
            sim_requests: self.cfg.requests as f64,
            configs: 1.0,
        }
    }

    fn sim_json(&self) -> String {
        let Some(r) = &self.last else {
            return "{}".to_string();
        };
        let mut classes = String::new();
        for (i, c) in r.classes.iter().enumerate() {
            let _ = write!(
                classes,
                "{}{{\"name\": \"{}\", \"completed\": {}, \"shed\": {}, \"alerts_fired\": {}, \"p99_ms\": {}}}",
                if i > 0 { ", " } else { "" },
                c.name,
                c.completed,
                c.shed,
                c.alerts_fired,
                json_num(c.p99_ms)
            );
        }
        format!(
            "{{\"digest\": \"{}\", \"requests\": {}, \"completed\": {}, \"shed\": {}, \
             \"shed_rate\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \"makespan_s\": {}, \
             \"fault_events\": {}, \"classes\": [{classes}]}}",
            r.digest_hex(),
            self.cfg.requests,
            r.completed,
            r.shed,
            json_num(r.shed_rate),
            json_num(r.p50_ms),
            json_num(r.p99_ms),
            json_num(r.makespan_s),
            self.cfg.faults.events().len(),
        )
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let Some(r) = &self.last else {
            return Vec::new();
        };
        let mut out = vec![
            ("runtime.completed", r.completed as f64),
            ("runtime.shed", r.shed as f64),
            ("runtime.shed_frac", r.shed as f64 / r.offered as f64),
            (
                "runtime.batches",
                r.per_chip.iter().map(|c| c.batches).sum::<u64>() as f64,
            ),
            ("runtime.peak_event_queue", r.peak_event_queue as f64),
            ("runtime.sketch_buckets", r.sketch_buckets as f64),
            (
                "runtime.fault_events",
                self.cfg.faults.events().len() as f64,
            ),
            (
                "runtime.alerts_fired",
                r.classes.iter().map(|c| c.alerts_fired).sum::<u64>() as f64,
            ),
            (
                "obs.sketch.observes",
                (r.completed + r.classes.iter().map(|c| c.completed).sum::<u64>()) as f64,
            ),
        ];
        if let Some(evals) = self.last_evals {
            out.push(("core.cost.evals", evals as f64));
        }
        out
    }
}

// ---------------------------------------------------------------- plan_modes

/// Default-seed plan outputs: candidates, pruned, scored, feasible, digest.
const PLAN_PIN: (usize, usize, usize, usize, &str) = (402, 21, 381, 240, "0xac4004aa85eb0bb4");

struct Plan {
    spec: PlanSpec,
    pinned: bool,
    /// Enumerated candidates (mirrors the planner's enumeration).
    candidates: usize,
    /// Candidates whose fleet serves the whole mix.
    supported: usize,
    /// Memo keys (chip × served network) summed over supported candidates.
    supported_keys: f64,
    /// MACs of the screening and scoring request streams.
    stream_macs: Option<(f64, f64)>,
    last: Option<PlanReport>,
}

/// Chip-kind multisets of size 1..=max, as the planner enumerates them.
fn multisets(kinds: usize, max: usize) -> Vec<Vec<usize>> {
    fn rec(
        kinds: usize,
        max: usize,
        start: usize,
        cur: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if !cur.is_empty() {
            out.push(cur.clone());
        }
        if cur.len() == max {
            return;
        }
        for k in start..kinds {
            cur.push(k);
            rec(kinds, max, k, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    rec(kinds, max, 0, &mut Vec::new(), &mut out);
    out
}

impl Plan {
    fn new(seed: u64) -> Result<Plan, String> {
        let spec = PlanSpec::parse(&format!("{PLAN_SPEC};seed={seed}"))?;
        Ok(Plan {
            spec,
            pinned: seed == DEFAULT_SEED,
            candidates: 0,
            supported: 0,
            supported_keys: 0.0,
            stream_macs: None,
            last: None,
        })
    }

    /// Simulation runs of one plan: (screening runs, scoring runs).
    fn runs(&self, r: &PlanReport) -> (f64, f64) {
        let screen = if r.screened > 0 { self.supported } else { 0 };
        (screen as f64, (r.scored * r.replicas) as f64)
    }

    fn check(&self, r: &PlanReport) -> Result<(), String> {
        if r.candidates_total != self.candidates {
            return Err(format!(
                "{} candidates, enumeration gives {}",
                r.candidates_total, self.candidates
            ));
        }
        if r.pruned + r.scored != r.candidates_total
            || (r.screened != 0 && r.screened != r.candidates_total)
            || r.scored > self.supported
            || r.frontier.len() > r.scored
            || r.frontier.iter().any(|c| !c.feasible)
        {
            return Err(format!(
                "inconsistent counts: candidates {} screened {} pruned {} scored {} feasible {}",
                r.candidates_total,
                r.screened,
                r.pruned,
                r.scored,
                r.frontier.len()
            ));
        }
        if self.pinned {
            let got = (
                r.candidates_total,
                r.pruned,
                r.scored,
                r.frontier.len(),
                r.digest_hex(),
            );
            let (c, p, s, f, d) = PLAN_PIN;
            if got != (c, p, s, f, d.to_string()) {
                return Err(format!("plan {got:?} != pinned {PLAN_PIN:?}"));
            }
        }
        Ok(())
    }
}

impl Workload for Plan {
    /// Candidate and stream bookkeeping: mirrors the planner's
    /// enumeration and support filter, and drains both request streams.
    fn prepare(&mut self) {
        let models = zoo::serving_models();
        let mix: Vec<&Model> = self
            .spec
            .workload
            .mix
            .iter()
            .map(|&(n, _)| &models[n])
            .collect();
        let (mut candidates, mut supported, mut keys) = (0, 0, 0.0);
        for fleet in multisets(self.spec.chip_kinds.len(), self.spec.max_chips) {
            let fleet_spec: Vec<&str> = fleet
                .iter()
                .map(|&k| self.spec.chip_kinds[k].as_str())
                .collect();
            let parsed = FleetConfig::parse(&fleet_spec.join(","), models.clone())
                .expect("chip kinds parse");
            let serves_mix = mix.iter().all(|m| parsed.supports(m));
            let fleet_keys: usize = parsed
                .chips
                .iter()
                .map(|c| mix.iter().filter(|m| c.accel.supports(m)).count())
                .sum();
            for _ in &self.spec.policies {
                for autoscale in &self.spec.autoscale {
                    if let AutoscalePolicy::Elastic { min_chips, .. } = autoscale {
                        if *min_chips >= fleet.len() {
                            continue;
                        }
                    }
                    candidates += 1;
                    if serves_mix {
                        supported += 1;
                        keys += fleet_keys as f64;
                    }
                }
            }
        }
        let stream_macs = |n: usize| -> f64 {
            self.spec
                .workload
                .stream(n, self.spec.seed)
                .map(|r| models[r.network].total_macs() as f64)
                .sum()
        };
        self.stream_macs = Some((
            stream_macs(self.spec.screen_requests),
            stream_macs(self.spec.requests),
        ));
        self.candidates = candidates;
        self.supported = supported;
        self.supported_keys = keys;
    }

    fn pass_len(&self) -> usize {
        1
    }

    fn call(&mut self, _i: usize, tr: &mut Recorder) -> Result<(), String> {
        tr.enter("bench.call");
        let report = tr.span("plan.plan", || {
            plan(&self.spec, Parallelism::serial(), &Obs::disabled(), false)
        });
        let verdict = tr.span("bench.check", || match &report {
            Ok(r) => self.check(r),
            Err(e) => Err(format!("plan failed: {e}")),
        });
        tr.exit();
        self.last = report.ok();
        verdict
    }

    fn work(&self) -> PassWork {
        let (Some(r), Some((screen_macs, score_macs))) = (&self.last, self.stream_macs) else {
            return PassWork::default();
        };
        let (screen_runs, score_runs) = self.runs(r);
        PassWork {
            macs: screen_runs * screen_macs + score_runs * score_macs,
            sim_requests: screen_runs * self.spec.screen_requests as f64
                + score_runs * self.spec.requests as f64,
            configs: r.candidates_total as f64,
        }
    }

    fn sim_json(&self) -> String {
        let Some(r) = &self.last else {
            return "{}".to_string();
        };
        let winner = r.winner().map_or("null".to_string(), |w| {
            format!(
                "{{\"fleet\": \"{}\", \"policy\": \"{}\", \"autoscale\": \"{}\", \
                 \"energy_per_request_mj\": {}, \"p99_ms\": {}}}",
                w.fleet_spec,
                w.policy_label,
                w.autoscale_label,
                json_num(w.energy_per_request_mj()),
                json_num(w.p99_ms)
            )
        });
        format!(
            "{{\"digest\": \"{}\", \"candidates\": {}, \"screened\": {}, \"pruned\": {}, \
             \"scored\": {}, \"feasible\": {}, \"winner\": {winner}}}",
            r.digest_hex(),
            r.candidates_total,
            r.screened,
            r.pruned,
            r.scored,
            r.frontier.len()
        )
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let Some(r) = &self.last else {
            return Vec::new();
        };
        let (screen_runs, score_runs) = self.runs(r);
        // Every run builds a fresh oracle, which evaluates each (chip,
        // network) memo key at most once: an upper bound from the mean
        // key count of the candidates that run at all.
        let mean_keys = self.supported_keys / self.supported.max(1) as f64;
        vec![
            ("plan.candidates", r.candidates_total as f64),
            ("plan.screened", r.screened as f64),
            ("plan.pruned", r.pruned as f64),
            ("plan.scored", r.scored as f64),
            ("plan.feasible", r.frontier.len() as f64),
            (
                "plan.prune_frac",
                r.pruned as f64 / r.candidates_total as f64,
            ),
            ("core.cost.evals", (screen_runs + score_runs) * mean_keys),
        ]
    }
}
