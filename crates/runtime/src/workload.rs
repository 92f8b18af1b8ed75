//! Seeded request-stream generation: the arrival side of the serving
//! simulator.
//!
//! A [`Workload`] turns `(seed, request count)` into a deterministic
//! request stream. [`Workload::stream`] yields requests **lazily** — one
//! at a time, in arrival order, with O(1) state — so the simulator can
//! serve 10⁶–10⁷ requests without ever materializing them;
//! [`Workload::generate`] is the eager wrapper that collects the same
//! stream into a vector (it produces byte-identical requests: the two
//! paths share one generator). Six arrival processes are provided:
//!
//! * **Poisson** — i.i.d. exponential interarrival gaps at a fixed mean
//!   rate, the standard open-loop service model;
//! * **Bursty** — a two-phase modulated Poisson process (an MMPP-2): the
//!   generator alternates between an *on* phase at `burst × rate` and an
//!   *off* phase at a compensating low rate, so the long-run mean rate is
//!   preserved while arrivals cluster — the tail-latency stressor;
//! * **Diurnal** — a sinusoidally rate-modulated Poisson process
//!   (thinning / Lewis–Shedler sampling against the peak rate):
//!   `rate(t) = rate × (1 + amplitude·sin(2πt/period))`, the classic
//!   daily traffic curve compressed onto the simulation clock;
//! * **FlashCrowd** — baseline Poisson until `at_s`, then an
//!   exponentially decaying overload
//!   `rate(t) = rate × (1 + (spike−1)·e^{−(t−at)/decay})` — the
//!   breaking-news shape that stresses admission control;
//! * **Trace** — explicit in-memory arrival instants, for replaying
//!   short measured traffic snippets;
//! * **TraceFile** — bounded-memory replay of a JSONL trace from disk:
//!   one object per line, `{"arrival_s": 0.0123}` with optional
//!   `"network"` and `"class"` members overriding the mix/class draw.
//!   Lines must be sorted by `arrival_s` (the reader streams; it cannot
//!   sort) and blank lines are skipped. [`Workload::check_trace`] checks
//!   a whole file up front and names the first bad line as `path:line`;
//!   the stream itself panics on one.
//!
//! The four generated processes share one spec grammar,
//! [`ArrivalProcess::parse`] and its inverse `Display`:
//! `poisson | bursty:B:ON_S:OFF_S | diurnal:A:PERIOD_S |
//! flash:SPIKE:AT_S:DECAY_S`, with the mean rate given separately.
//!
//! Requests optionally carry a **class** — a multi-tenant label drawn
//! from [`Workload::classes`] ([`ClassSpec`]: name, traffic weight,
//! optional SLO target) — so reports can break latency and SLO
//! attainment out per tenant. With no classes configured every request
//! is class 0 and no class randomness is consumed.
//!
//! Determinism contract: generation draws from a `StdRng` seeded with
//! `split_seed(seed, stream)` per concern (one stream for gaps, one for
//! network choice, one for class choice), so a workload is a pure
//! function of `(spec, seed)` — independent of thread count, host, call
//! site, or whether the stream is consumed lazily or collected.

use albireo_obs::jsonv;
use albireo_parallel::{split_seed, stream_id};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader};

/// Stream-id pass tag for interarrival-gap draws.
const GAP_PASS: u64 = 0x5E1;
/// Stream-id pass tag for network-mix draws.
const MIX_PASS: u64 = 0x5E2;
/// Stream-id pass tag for request-class draws.
const CLASS_PASS: u64 = 0x5E3;

/// One inference request offered to the service.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Monotone request id (arrival order).
    pub id: u64,
    /// Index into the workload's network mix.
    pub network: usize,
    /// Arrival instant on the virtual clock, s.
    pub arrival_s: f64,
    /// Index into the workload's class table (0 when no classes are
    /// configured).
    pub class: usize,
}

/// A multi-tenant request class: a label, its share of the traffic, and
/// an optional latency SLO the report scores attainment against.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Tenant label (e.g. `interactive`, `batch`).
    pub name: String,
    /// Traffic weight (need not sum to one across classes).
    pub weight: f64,
    /// End-to-end latency target, ms; `None` = best-effort.
    pub slo_ms: Option<f64>,
}

impl ClassSpec {
    /// A named class with `weight` share and no SLO.
    pub fn best_effort(name: &str, weight: f64) -> ClassSpec {
        ClassSpec {
            name: name.to_string(),
            weight,
            slo_ms: None,
        }
    }

    /// A named class with `weight` share and a latency SLO in ms.
    pub fn with_slo(name: &str, weight: f64, slo_ms: f64) -> ClassSpec {
        ClassSpec {
            name: name.to_string(),
            weight,
            slo_ms: Some(slo_ms),
        }
    }

    /// Parses a class list `NAME:WEIGHT[:SLO_MS],...` (the CLI
    /// `--classes` grammar). Entries without an SLO inherit
    /// `default_slo_ms`. Duplicate class names are rejected — per-class
    /// attainment reports would silently merge tenants otherwise.
    pub fn parse_list(list: &str, default_slo_ms: Option<f64>) -> Result<Vec<ClassSpec>, String> {
        let mut classes: Vec<ClassSpec> = Vec::new();
        for entry in list.split(',').filter(|e| !e.trim().is_empty()) {
            let mut parts = entry.trim().splitn(3, ':');
            let name = parts.next().unwrap_or("").trim();
            if name.is_empty() {
                return Err(format!("class entry `{entry}` needs NAME:WEIGHT[:SLO_MS]"));
            }
            if classes.iter().any(|c| c.name == name) {
                return Err(format!(
                    "duplicate class name `{name}` (each tenant class may appear once)"
                ));
            }
            let weight: f64 = parts
                .next()
                .ok_or_else(|| format!("class entry `{entry}` needs a weight"))?
                .trim()
                .parse()
                .map_err(|_| format!("bad weight in `{entry}`"))?;
            if !(weight.is_finite() && weight > 0.0) {
                return Err(format!("class weight must be positive in `{entry}`"));
            }
            let slo_ms = match parts.next() {
                Some(s) => {
                    let slo: f64 = s
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad SLO in `{entry}`"))?;
                    if !(slo.is_finite() && slo > 0.0) {
                        return Err(format!("class SLO must be positive in `{entry}`"));
                    }
                    Some(slo)
                }
                None => default_slo_ms,
            };
            classes.push(ClassSpec {
                name: name.to_string(),
                weight,
                slo_ms,
            });
        }
        if classes.is_empty() {
            return Err("class list names no class".to_string());
        }
        Ok(classes)
    }
}

/// The arrival process shaping request interarrival times.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Exponential interarrival gaps at `rate_rps` requests per second.
    Poisson {
        /// Mean arrival rate, requests/s.
        rate_rps: f64,
    },
    /// Two-phase modulated Poisson: `on_s` seconds at `burst × rate_rps`,
    /// then `off_s` seconds at the compensating low rate that keeps the
    /// long-run mean at `rate_rps`.
    Bursty {
        /// Long-run mean arrival rate, requests/s.
        rate_rps: f64,
        /// On-phase rate multiplier (> 1).
        burst: f64,
        /// On-phase duration, s.
        on_s: f64,
        /// Off-phase duration, s.
        off_s: f64,
    },
    /// Sinusoidal rate modulation
    /// `rate(t) = rate_rps × (1 + amplitude·sin(2πt/period_s))`, sampled
    /// by thinning against the peak rate. The long-run mean stays
    /// `rate_rps`.
    Diurnal {
        /// Long-run mean arrival rate, requests/s.
        rate_rps: f64,
        /// Peak-to-mean swing, in `(0, 1]`.
        amplitude: f64,
        /// Cycle period, s (a "day" on the simulation clock).
        period_s: f64,
    },
    /// Baseline Poisson until `at_s`, then a spike decaying as
    /// `rate(t) = rate_rps × (1 + (spike−1)·e^{−(t−at_s)/decay_s})`.
    FlashCrowd {
        /// Baseline arrival rate, requests/s.
        rate_rps: f64,
        /// Instantaneous rate multiplier at the spike front (> 1).
        spike: f64,
        /// Spike onset, s.
        at_s: f64,
        /// Exponential decay constant of the overload, s.
        decay_s: f64,
    },
    /// Explicit arrival instants (need not be sorted; they are sorted
    /// when the stream opens).
    Trace {
        /// Arrival times, s.
        times_s: Vec<f64>,
    },
    /// Bounded-memory JSONL replay from disk (see module docs for the
    /// line format). Lines must already be sorted by `arrival_s`.
    TraceFile {
        /// Path to the JSONL trace.
        path: String,
    },
}

impl ArrivalProcess {
    /// Parses an arrival spec at mean rate `rate_rps`:
    ///
    /// ```text
    /// poisson | bursty:<BURST>:<ON_S>:<OFF_S> | diurnal:<AMPLITUDE>:<PERIOD_S>
    ///         | flash:<SPIKE>:<AT_S>:<DECAY_S>
    /// ```
    ///
    /// Parameters are in the variants' units; the result passes
    /// [`ArrivalProcess::validate`]. `Display` renders the same grammar
    /// and `parse(x.to_string(), rate) == x` exactly. Traces are outside
    /// the grammar: they carry data, not parameters.
    pub fn parse(spec: &str, rate_rps: f64) -> Result<ArrivalProcess, String> {
        let mut fields = spec.split(':');
        let shape = fields.next().unwrap_or_default();
        let mut field = |name: &str| -> Result<f64, String> {
            fields
                .next()
                .ok_or_else(|| format!("arrival `{spec}` is missing its {name} field"))?
                .parse::<f64>()
                .map_err(|_| format!("bad {name} in arrival `{spec}`"))
        };
        let process = match shape {
            "poisson" => ArrivalProcess::Poisson { rate_rps },
            "bursty" => ArrivalProcess::Bursty {
                rate_rps,
                burst: field("burst")?,
                on_s: field("on_s")?,
                off_s: field("off_s")?,
            },
            "diurnal" => ArrivalProcess::Diurnal {
                rate_rps,
                amplitude: field("amplitude")?,
                period_s: field("period_s")?,
            },
            "flash" => ArrivalProcess::FlashCrowd {
                rate_rps,
                spike: field("spike")?,
                at_s: field("at_s")?,
                decay_s: field("decay_s")?,
            },
            _ => {
                return Err(format!(
                    "unknown arrival `{spec}` (try: poisson, bursty:<BURST>:<ON_S>:<OFF_S>, \
                     diurnal:<AMPLITUDE>:<PERIOD_S>, flash:<SPIKE>:<AT_S>:<DECAY_S>)"
                ))
            }
        };
        if fields.next().is_some() {
            return Err(format!("too many fields in arrival `{spec}`"));
        }
        process
            .validate()
            .map_err(|e| format!("{e} in arrival `{spec}`"))?;
        Ok(process)
    }

    /// The range checks every process must pass before it can generate
    /// a stream: a positive finite rate, a burst or spike above 1,
    /// positive finite phase lengths, period and decay, an amplitude in
    /// `(0, 1]`, a finite non-negative spike onset, and finite
    /// non-negative trace times. [`ArrivalProcess::parse`] and
    /// [`Workload::stream`] both go through it.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let above_one = |x: f64| x.is_finite() && x > 1.0;
        let rate = "arrival rate must be positive and finite";
        let checks = match *self {
            ArrivalProcess::Poisson { rate_rps } => vec![(positive(rate_rps), rate)],
            ArrivalProcess::Bursty {
                rate_rps,
                burst,
                on_s,
                off_s,
            } => vec![
                (positive(rate_rps), rate),
                (above_one(burst), "burst must be finite and exceed 1"),
                (
                    positive(on_s) && positive(off_s),
                    "phase durations must be positive and finite",
                ),
            ],
            ArrivalProcess::Diurnal {
                rate_rps,
                amplitude,
                period_s,
            } => vec![
                (positive(rate_rps), rate),
                (
                    amplitude > 0.0 && amplitude <= 1.0,
                    "amplitude must be in (0, 1]",
                ),
                (positive(period_s), "period must be positive and finite"),
            ],
            ArrivalProcess::FlashCrowd {
                rate_rps,
                spike,
                at_s,
                decay_s,
            } => vec![
                (positive(rate_rps), rate),
                (above_one(spike), "spike must be finite and exceed 1"),
                (
                    at_s.is_finite() && at_s >= 0.0,
                    "spike onset must be finite and non-negative",
                ),
                (positive(decay_s), "decay must be positive and finite"),
            ],
            ArrivalProcess::Trace { ref times_s } => vec![(
                times_s.iter().all(|t| t.is_finite() && *t >= 0.0),
                "trace times must be finite and non-negative",
            )],
            ArrivalProcess::TraceFile { .. } => Vec::new(),
        };
        match checks.into_iter().find(|&(ok, _)| !ok) {
            Some((_, what)) => Err(what.to_string()),
            None => Ok(()),
        }
    }

    /// The long-run mean arrival rate this process aims at, requests/s
    /// (for in-memory traces, the empirical rate over the trace span;
    /// for on-disk traces, 0.0 — unknown until replayed).
    pub fn mean_rate_rps(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_rps } => *rate_rps,
            ArrivalProcess::Bursty { rate_rps, .. } => *rate_rps,
            ArrivalProcess::Diurnal { rate_rps, .. } => *rate_rps,
            ArrivalProcess::FlashCrowd { rate_rps, .. } => *rate_rps,
            ArrivalProcess::Trace { times_s } => {
                let span = times_s
                    .iter()
                    .cloned()
                    .fold(0.0f64, f64::max)
                    .max(f64::MIN_POSITIVE);
                times_s.len() as f64 / span
            }
            ArrivalProcess::TraceFile { .. } => 0.0,
        }
    }

    /// A short label for reports (`poisson`, `bursty`, `diurnal`,
    /// `flash`, `trace`, `trace_file`).
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::Diurnal { .. } => "diurnal",
            ArrivalProcess::FlashCrowd { .. } => "flash",
            ArrivalProcess::Trace { .. } => "trace",
            ArrivalProcess::TraceFile { .. } => "trace_file",
        }
    }
}

impl fmt::Display for ArrivalProcess {
    /// The canonical spec string [`ArrivalProcess::parse`] inverts
    /// (floats via `{}`, so every bit round-trips; the rate is not part
    /// of it). Traces render as `trace` and `trace_file:<PATH>`, which
    /// `parse` rejects.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrivalProcess::Poisson { .. } => write!(f, "poisson"),
            ArrivalProcess::Bursty {
                burst, on_s, off_s, ..
            } => write!(f, "bursty:{burst}:{on_s}:{off_s}"),
            ArrivalProcess::Diurnal {
                amplitude,
                period_s,
                ..
            } => write!(f, "diurnal:{amplitude}:{period_s}"),
            ArrivalProcess::FlashCrowd {
                spike,
                at_s,
                decay_s,
                ..
            } => write!(f, "flash:{spike}:{at_s}:{decay_s}"),
            ArrivalProcess::Trace { .. } => write!(f, "trace"),
            ArrivalProcess::TraceFile { path } => write!(f, "trace_file:{path}"),
        }
    }
}

/// A request stream specification: the arrival process, the network mix
/// requests draw from, and the (optional) multi-tenant class table.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The arrival process.
    pub process: ArrivalProcess,
    /// Weighted network mix: `(network index, weight)`. Weights need not
    /// sum to one; they are normalized at draw time. Network indices refer
    /// to the fleet's model table.
    pub mix: Vec<(usize, f64)>,
    /// Multi-tenant request classes; empty = one anonymous class and no
    /// class randomness consumed (so class-free configs keep their
    /// historical digests).
    pub classes: Vec<ClassSpec>,
}

impl Workload {
    /// A single-network Poisson workload — the common case.
    pub fn poisson(rate_rps: f64, network: usize) -> Workload {
        Workload {
            process: ArrivalProcess::Poisson { rate_rps },
            mix: vec![(network, 1.0)],
            classes: Vec::new(),
        }
    }

    /// This workload with a class table.
    pub fn with_classes(mut self, classes: Vec<ClassSpec>) -> Workload {
        self.classes = classes;
        self
    }

    /// Opens the lazy request stream: at most `n` requests in arrival
    /// order, deterministically from `seed`, with O(1) generator state
    /// (plus the in-memory trace, if that process is used).
    pub fn stream(&self, n: usize, seed: u64) -> RequestStream {
        if let Err(e) = self.process.validate() {
            panic!("{e}");
        }
        assert!(
            !self.mix.is_empty() && self.mix.iter().all(|&(_, w)| w >= 0.0),
            "network mix must be non-empty with non-negative weights"
        );
        let total_weight: f64 = self.mix.iter().map(|&(_, w)| w).sum();
        assert!(total_weight > 0.0, "network mix weights must not all be 0");
        let class_weight: f64 = self.classes.iter().map(|c| c.weight).sum();
        assert!(
            self.classes.is_empty()
                || (class_weight > 0.0 && self.classes.iter().all(|c| c.weight >= 0.0)),
            "class weights must be non-negative and not all 0"
        );
        let source = match self.process {
            ArrivalProcess::Poisson { rate_rps } => Source::Poisson { rate: rate_rps },
            ArrivalProcess::Bursty {
                rate_rps,
                burst,
                on_s,
                off_s,
            } => {
                // Low rate chosen so the duty-cycle-weighted mean is rate_rps;
                // clamped at a trickle so the off phase still terminates.
                let period = on_s + off_s;
                let low =
                    ((rate_rps * period - burst * rate_rps * on_s) / off_s).max(rate_rps * 1e-3);
                Source::Bursty {
                    rate: rate_rps,
                    burst,
                    on_s,
                    off_s,
                    low,
                    in_on: true,
                    phase_end: on_s,
                }
            }
            ArrivalProcess::Diurnal {
                rate_rps,
                amplitude,
                period_s,
            } => Source::Diurnal {
                rate: rate_rps,
                amplitude,
                period_s,
            },
            ArrivalProcess::FlashCrowd {
                rate_rps,
                spike,
                at_s,
                decay_s,
            } => Source::Flash {
                rate: rate_rps,
                spike,
                at_s,
                decay_s,
            },
            ArrivalProcess::Trace { ref times_s } => {
                let mut t: Vec<f64> = times_s.iter().take(n).cloned().collect();
                t.sort_by(|a, b| a.partial_cmp(b).expect("validated finite"));
                Source::Trace {
                    times: t.into_iter(),
                }
            }
            ArrivalProcess::TraceFile { ref path } => {
                Source::TraceFile(TraceReader::open(path).unwrap_or_else(|e| panic!("{e}")))
            }
        };
        RequestStream {
            source,
            t: 0.0,
            gap_rng: StdRng::seed_from_u64(split_seed(seed, stream_id(GAP_PASS, 0, 0))),
            mix_rng: StdRng::seed_from_u64(split_seed(seed, stream_id(MIX_PASS, 0, 0))),
            class_rng: StdRng::seed_from_u64(split_seed(seed, stream_id(CLASS_PASS, 0, 0))),
            mix: self.mix.clone(),
            total_weight,
            classes: self.classes.clone(),
            class_weight,
            remaining: n,
            next_id: 0,
        }
    }

    /// Generates the first `n` requests of the stream, deterministically
    /// from `seed` — [`Workload::stream`] collected eagerly. Returned
    /// requests are sorted by arrival time; ids are assigned in arrival
    /// order.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<Request> {
        self.stream(n, seed).collect()
    }

    /// Checks every line of a [`ArrivalProcess::TraceFile`] trace in one
    /// bounded-memory pass, before a run starts: `arrival_s` must be a
    /// finite, non-negative number that never decreases, `network` (if
    /// present) an integer in `0..models`, and `class` (if present) an
    /// integer in `0..classes` — rejected when no classes are
    /// configured. The first bad line is reported as `path:line:
    /// reason`. Other processes have no file to check.
    pub fn check_trace(&self, models: usize) -> Result<(), String> {
        let ArrivalProcess::TraceFile { path } = &self.process else {
            return Ok(());
        };
        let mut reader = TraceReader::open(path)?;
        while let Some(line) = reader.next_line(models, self.classes.len()) {
            line?;
        }
        Ok(())
    }
}

/// One checked trace line: the arrival instant plus the optional
/// network and class overrides.
type TraceLine = (f64, Option<usize>, Option<usize>);

/// Line-at-a-time reader of a JSONL arrival trace — the one parser
/// behind both the lazy stream and [`Workload::check_trace`].
#[derive(Debug)]
struct TraceReader {
    lines: std::io::Lines<BufReader<File>>,
    path: String,
    line_no: usize,
    last_s: f64,
}

impl TraceReader {
    fn open(path: &str) -> Result<TraceReader, String> {
        let file =
            File::open(path).map_err(|e| format!("cannot open arrival trace {path}: {e}"))?;
        Ok(TraceReader {
            lines: BufReader::new(file).lines(),
            path: path.to_string(),
            line_no: 0,
            last_s: 0.0,
        })
    }

    /// The next non-blank line, checked against the rules on
    /// [`Workload::check_trace`]; errors carry `path:line`.
    fn next_line(&mut self, models: usize, classes: usize) -> Option<Result<TraceLine, String>> {
        loop {
            let line = match self.lines.next()? {
                Ok(line) => line,
                Err(e) => return Some(Err(format!("{}: read error: {e}", self.path))),
            };
            self.line_no += 1;
            if line.trim().is_empty() {
                continue;
            }
            let checked = self.check_line(&line, models, classes);
            return Some(checked.map_err(|e| format!("{}:{}: {e}", self.path, self.line_no)));
        }
    }

    fn check_line(
        &mut self,
        line: &str,
        models: usize,
        classes: usize,
    ) -> Result<TraceLine, String> {
        let value = jsonv::parse(line).map_err(|e| e.to_string())?;
        if value.as_obj().is_none() {
            return Err("a trace line must be a JSON object".to_string());
        }
        let t = value
            .get("arrival_s")
            .ok_or("missing \"arrival_s\"")?
            .as_f64()
            .ok_or("\"arrival_s\" must be a number")?;
        if !(t.is_finite() && t.is_sign_positive()) {
            return Err(format!("arrival_s {t} must be finite and non-negative"));
        }
        if t < self.last_s {
            return Err(format!(
                "arrival_s {t} is before the previous line's {}: the trace must be sorted by \
                 arrival_s (bounded-memory replay cannot sort)",
                self.last_s
            ));
        }
        self.last_s = t;
        if classes == 0 && value.get("class").is_some() {
            return Err("\"class\" given but no request classes are configured".to_string());
        }
        Ok((
            t,
            index_member(&value, "network", models)?,
            index_member(&value, "class", classes)?,
        ))
    }
}

/// Member `key` of a trace line as an index in `0..bound`, if present.
fn index_member(value: &jsonv::Value, key: &str, bound: usize) -> Result<Option<usize>, String> {
    let Some(v) = value.get(key) else {
        return Ok(None);
    };
    match v.as_f64() {
        Some(x) if x >= 0.0 && x.fract() == 0.0 && x < bound as f64 => Ok(Some(x as usize)),
        _ => Err(format!("\"{key}\" must be an integer in 0..{bound}")),
    }
}

/// Per-process generator state for [`RequestStream`].
#[derive(Debug)]
enum Source {
    Poisson {
        rate: f64,
    },
    Bursty {
        rate: f64,
        burst: f64,
        on_s: f64,
        off_s: f64,
        low: f64,
        in_on: bool,
        phase_end: f64,
    },
    Diurnal {
        rate: f64,
        amplitude: f64,
        period_s: f64,
    },
    Flash {
        rate: f64,
        spike: f64,
        at_s: f64,
        decay_s: f64,
    },
    Trace {
        times: std::vec::IntoIter<f64>,
    },
    TraceFile(TraceReader),
}

/// The lazy arrival iterator [`Workload::stream`] returns: O(1) state,
/// yields [`Request`]s in nondecreasing arrival order.
#[derive(Debug)]
pub struct RequestStream {
    source: Source,
    /// Current virtual time of the generator, s.
    t: f64,
    gap_rng: StdRng,
    mix_rng: StdRng,
    class_rng: StdRng,
    mix: Vec<(usize, f64)>,
    total_weight: f64,
    classes: Vec<ClassSpec>,
    class_weight: f64,
    remaining: usize,
    next_id: u64,
}

impl RequestStream {
    /// The workload's class table (empty = one anonymous class).
    pub fn classes(&self) -> &[ClassSpec] {
        &self.classes
    }

    /// Next arrival instant plus any per-arrival overrides a trace file
    /// carries: `(time, network override, class override)`.
    fn next_arrival(&mut self) -> Option<(f64, Option<usize>, Option<usize>)> {
        match &mut self.source {
            Source::Poisson { rate } => {
                self.t += exp_gap(&mut self.gap_rng, *rate);
                Some((self.t, None, None))
            }
            Source::Bursty {
                rate,
                burst,
                on_s,
                off_s,
                low,
                in_on,
                phase_end,
            } => {
                loop {
                    let r = if *in_on { *burst * *rate } else { *low };
                    let gap = exp_gap(&mut self.gap_rng, r);
                    if self.t + gap <= *phase_end {
                        self.t += gap;
                        break;
                    }
                    // The gap crosses the phase boundary: jump to the
                    // boundary and re-draw at the new phase's rate, which
                    // keeps the process properly modulated. The boundary
                    // advances by a full phase each redraw, so the loop
                    // always terminates.
                    self.t = *phase_end;
                    *in_on = !*in_on;
                    *phase_end += if *in_on { *on_s } else { *off_s };
                }
                Some((self.t, None, None))
            }
            Source::Diurnal {
                rate,
                amplitude,
                period_s,
            } => {
                // Thinning against the peak rate: candidate gaps at
                // rate×(1+amplitude), accepted with probability
                // rate(t)/peak. Acceptance ≥ 1/(1+amplitude) ≥ ½.
                let peak = *rate * (1.0 + *amplitude);
                loop {
                    self.t += exp_gap(&mut self.gap_rng, peak);
                    let r = *rate
                        * (1.0 + *amplitude * (std::f64::consts::TAU * self.t / *period_s).sin());
                    let u: f64 = self.gap_rng.random();
                    if u * peak <= r {
                        return Some((self.t, None, None));
                    }
                }
            }
            Source::Flash {
                rate,
                spike,
                at_s,
                decay_s,
            } => loop {
                let before = self.t < *at_s;
                let bound = if before { *rate } else { *rate * *spike };
                let gap = exp_gap(&mut self.gap_rng, bound);
                if before && self.t + gap > *at_s {
                    // The candidate crosses the spike front, where the
                    // baseline bound stops dominating: restart the
                    // (memoryless) draw at the front.
                    self.t = *at_s;
                    continue;
                }
                self.t += gap;
                if before {
                    // rate(t) equals the bound exactly here: always accept.
                    return Some((self.t, None, None));
                }
                let r = *rate * (1.0 + (*spike - 1.0) * (-(self.t - *at_s) / *decay_s).exp());
                let u: f64 = self.gap_rng.random();
                if u * bound <= r {
                    return Some((self.t, None, None));
                }
            },
            Source::Trace { times } => times.next().map(|t| (t, None, None)),
            // The stream knows no model table: network overrides are
            // bounded by the fleet when the simulator pulls them.
            Source::TraceFile(reader) => reader
                .next_line(usize::MAX, self.classes.len())
                .map(|line| line.unwrap_or_else(|e| panic!("{e}"))),
        }
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        let (arrival_s, net_override, class_override) = self.next_arrival()?;
        self.remaining -= 1;
        let network = net_override
            .unwrap_or_else(|| pick_weighted(&mut self.mix_rng, &self.mix, self.total_weight));
        let class = match class_override {
            Some(c) => c,
            // A single configured class needs no draw; two or more share
            // the class randomness stream.
            None if self.classes.len() >= 2 => {
                pick_class(&mut self.class_rng, &self.classes, self.class_weight)
            }
            None => 0,
        };
        let id = self.next_id;
        self.next_id += 1;
        Some(Request {
            id,
            network,
            arrival_s,
            class,
        })
    }
}

/// Weighted draw from the network mix (one uniform per call).
fn pick_weighted(rng: &mut StdRng, mix: &[(usize, f64)], total_weight: f64) -> usize {
    let mut u: f64 = rng.random::<f64>() * total_weight;
    for &(network, w) in mix {
        if u < w {
            return network;
        }
        u -= w;
    }
    mix.last().expect("mix is non-empty").0
}

/// Weighted draw of a class index (one uniform per call).
fn pick_class(rng: &mut StdRng, classes: &[ClassSpec], total_weight: f64) -> usize {
    let mut u: f64 = rng.random::<f64>() * total_weight;
    for (i, c) in classes.iter().enumerate() {
        if u < c.weight {
            return i;
        }
        u -= c.weight;
    }
    classes.len() - 1
}

/// One exponential interarrival gap at `rate` (inverse-CDF sampling).
fn exp_gap(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.random();
    // 1 - u ∈ (0, 1], so the log is finite.
    -(1.0 - u).ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_list_parses_and_rejects_duplicates() {
        let classes = ClassSpec::parse_list("vip:3:5, batch:1", Some(20.0)).unwrap();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0], ClassSpec::with_slo("vip", 3.0, 5.0));
        assert_eq!(classes[1], ClassSpec::with_slo("batch", 1.0, 20.0));
        let best_effort = ClassSpec::parse_list("solo:2", None).unwrap();
        assert_eq!(best_effort[0], ClassSpec::best_effort("solo", 2.0));

        let err = ClassSpec::parse_list("vip:1, vip:2:9", None).unwrap_err();
        assert!(
            err.contains("duplicate class name `vip`"),
            "unexpected message: {err}"
        );
        assert!(ClassSpec::parse_list("", None).is_err());
        assert!(ClassSpec::parse_list("vip", None).is_err());
        assert!(ClassSpec::parse_list("vip:-1", None).is_err());
        assert!(ClassSpec::parse_list("vip:1:0", None).is_err());
        assert!(ClassSpec::parse_list(":1", None).is_err());
    }

    #[test]
    fn poisson_is_deterministic_and_sorted() {
        let w = Workload::poisson(1000.0, 0);
        let a = w.generate(500, 42);
        let b = w.generate(500, 42);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|p| p[0].arrival_s <= p[1].arrival_s));
        assert!(a.iter().all(|r| r.arrival_s > 0.0));
        assert!(a.iter().all(|r| r.class == 0));
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn different_seeds_differ() {
        let w = Workload::poisson(1000.0, 0);
        assert_ne!(w.generate(100, 1), w.generate(100, 2));
    }

    #[test]
    fn poisson_mean_rate_is_close() {
        let w = Workload::poisson(2000.0, 0);
        let reqs = w.generate(4000, 7);
        let span = reqs.last().unwrap().arrival_s;
        let rate = reqs.len() as f64 / span;
        assert!((rate / 2000.0 - 1.0).abs() < 0.1, "empirical rate {rate}");
    }

    #[test]
    fn bursty_preserves_mean_rate_and_clusters() {
        let w = Workload {
            process: ArrivalProcess::Bursty {
                rate_rps: 1000.0,
                burst: 4.0,
                on_s: 0.01,
                off_s: 0.04,
            },
            mix: vec![(0, 1.0)],
            classes: Vec::new(),
        };
        let reqs = w.generate(4000, 11);
        let span = reqs.last().unwrap().arrival_s;
        let rate = reqs.len() as f64 / span;
        assert!((rate / 1000.0 - 1.0).abs() < 0.25, "empirical rate {rate}");
        // Burstiness: the gap distribution has a higher coefficient of
        // variation than exponential (CV = 1).
        let gaps: Vec<f64> = reqs
            .windows(2)
            .map(|p| p[1].arrival_s - p[0].arrival_s)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!(var.sqrt() / mean > 1.1, "CV = {}", var.sqrt() / mean);
    }

    #[test]
    fn trace_replays_sorted() {
        let w = Workload {
            process: ArrivalProcess::Trace {
                times_s: vec![0.3, 0.1, 0.2],
            },
            mix: vec![(0, 1.0)],
            classes: Vec::new(),
        };
        let reqs = w.generate(3, 0);
        let times: Vec<f64> = reqs.iter().map(|r| r.arrival_s).collect();
        assert_eq!(times, vec![0.1, 0.2, 0.3]);
    }

    #[test]
    fn mix_draws_all_networks() {
        let w = Workload {
            process: ArrivalProcess::Poisson { rate_rps: 100.0 },
            mix: vec![(0, 1.0), (3, 1.0)],
            classes: Vec::new(),
        };
        let reqs = w.generate(200, 9);
        assert!(reqs.iter().any(|r| r.network == 0));
        assert!(reqs.iter().any(|r| r.network == 3));
        assert!(reqs.iter().all(|r| r.network == 0 || r.network == 3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        Workload::poisson(0.0, 0).generate(1, 0);
    }

    #[test]
    fn stream_matches_generate_for_every_process() {
        for process in [
            ArrivalProcess::Poisson { rate_rps: 3000.0 },
            ArrivalProcess::Bursty {
                rate_rps: 1000.0,
                burst: 4.0,
                on_s: 0.01,
                off_s: 0.04,
            },
            ArrivalProcess::Diurnal {
                rate_rps: 2000.0,
                amplitude: 0.5,
                period_s: 0.5,
            },
            ArrivalProcess::FlashCrowd {
                rate_rps: 1000.0,
                spike: 8.0,
                at_s: 0.05,
                decay_s: 0.02,
            },
            ArrivalProcess::Trace {
                times_s: vec![0.5, 0.25, 0.125, 0.75],
            },
        ] {
            let w = Workload {
                process,
                mix: vec![(0, 3.0), (1, 1.0)],
                classes: Vec::new(),
            };
            let eager = w.generate(300, 42);
            let lazy: Vec<Request> = w.stream(300, 42).collect();
            assert_eq!(eager, lazy, "lazy and eager paths must agree");
        }
    }

    #[test]
    fn diurnal_modulates_density_within_a_period() {
        let w = Workload {
            process: ArrivalProcess::Diurnal {
                rate_rps: 10_000.0,
                amplitude: 0.9,
                period_s: 1.0,
            },
            mix: vec![(0, 1.0)],
            classes: Vec::new(),
        };
        let reqs = w.generate(25_000, 13);
        assert!(reqs.windows(2).all(|p| p[0].arrival_s <= p[1].arrival_s));
        // First half-period (sin > 0) must be denser than the second.
        let first: usize = reqs
            .iter()
            .filter(|r| r.arrival_s.rem_euclid(1.0) < 0.5)
            .count();
        let second = reqs.len() - first;
        assert!(
            first as f64 > 1.5 * second as f64,
            "peak half {first} vs trough half {second}"
        );
        // The mean rate matches rate_rps when measured over whole
        // periods (a fractional period over-samples one half).
        let span = reqs.last().unwrap().arrival_s;
        assert!(span > 2.0, "stream must cover two full periods, got {span}");
        let in_two = reqs.iter().filter(|r| r.arrival_s < 2.0).count() as f64;
        let rate = in_two / 2.0;
        assert!((rate / 10_000.0 - 1.0).abs() < 0.1, "empirical rate {rate}");
    }

    #[test]
    fn flash_crowd_spikes_after_onset() {
        let w = Workload {
            process: ArrivalProcess::FlashCrowd {
                rate_rps: 1000.0,
                spike: 10.0,
                at_s: 0.1,
                decay_s: 0.05,
            },
            mix: vec![(0, 1.0)],
            classes: Vec::new(),
        };
        let reqs = w.generate(2000, 17);
        assert!(reqs.windows(2).all(|p| p[0].arrival_s <= p[1].arrival_s));
        let in_window = |lo: f64, hi: f64| {
            reqs.iter()
                .filter(|r| r.arrival_s >= lo && r.arrival_s < hi)
                .count() as f64
                / (hi - lo)
        };
        let before = in_window(0.0, 0.1);
        let during = in_window(0.1, 0.15);
        assert!(
            during > 3.0 * before,
            "spike density {during:.0} vs baseline {before:.0}"
        );
    }

    #[test]
    fn classes_split_traffic_by_weight() {
        let w = Workload::poisson(1000.0, 0).with_classes(vec![
            ClassSpec::with_slo("interactive", 3.0, 10.0),
            ClassSpec::best_effort("batch", 1.0),
        ]);
        let reqs = w.generate(2000, 21);
        let interactive = reqs.iter().filter(|r| r.class == 0).count();
        let batch = reqs.iter().filter(|r| r.class == 1).count();
        assert_eq!(interactive + batch, 2000);
        let share = interactive as f64 / 2000.0;
        assert!((share - 0.75).abs() < 0.05, "interactive share {share}");
    }

    #[test]
    fn classless_workload_consumes_no_class_randomness() {
        // Adding a single class (no draw needed) must not perturb the
        // request stream relative to no classes at all.
        let bare = Workload::poisson(1000.0, 0).generate(200, 5);
        let one = Workload::poisson(1000.0, 0)
            .with_classes(vec![ClassSpec::with_slo("all", 1.0, 5.0)])
            .generate(200, 5);
        assert_eq!(
            bare,
            one.iter()
                .map(|r| Request {
                    class: 0,
                    ..r.clone()
                })
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn trace_file_replays_with_overrides() {
        let path = std::env::temp_dir().join(format!(
            "albireo_trace_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(
            &path,
            "{\"arrival_s\": 0.001}\n\
             \n\
             {\"arrival_s\": 0.002, \"network\": 1}\n\
             {\"arrival_s\": 0.004, \"network\": 0, \"class\": 1}\n",
        )
        .unwrap();
        let w = Workload {
            process: ArrivalProcess::TraceFile {
                path: path.to_string_lossy().into_owned(),
            },
            mix: vec![(0, 1.0)],
            classes: vec![
                ClassSpec::best_effort("a", 1.0),
                ClassSpec::best_effort("b", 1.0),
            ],
        };
        let reqs = w.generate(10, 3);
        std::fs::remove_file(&path).ok();
        assert_eq!(reqs.len(), 3, "blank lines are skipped");
        assert_eq!(reqs[0].arrival_s, 0.001);
        assert_eq!(reqs[1].network, 1, "network override honored");
        assert_eq!(reqs[2].class, 1, "class override honored");
        assert_eq!(reqs[2].network, 0);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival_s")]
    fn unsorted_trace_file_rejected() {
        let path = std::env::temp_dir().join(format!(
            "albireo_trace_unsorted_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, "{\"arrival_s\": 0.2}\n{\"arrival_s\": 0.1}\n").unwrap();
        let w = Workload {
            process: ArrivalProcess::TraceFile {
                path: path.to_string_lossy().into_owned(),
            },
            mix: vec![(0, 1.0)],
            classes: Vec::new(),
        };
        let result = std::panic::catch_unwind(|| w.generate(10, 0));
        std::fs::remove_file(&path).ok();
        std::panic::resume_unwind(result.unwrap_err());
    }

    #[test]
    fn trace_check_and_stream_share_one_line_parser() {
        let path = std::env::temp_dir().join(format!(
            "albireo_trace_check_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let w = |classes: Vec<ClassSpec>| Workload {
            process: ArrivalProcess::TraceFile {
                path: path.to_string_lossy().into_owned(),
            },
            mix: vec![(0, 1.0)],
            classes,
        };
        let two = || {
            vec![
                ClassSpec::best_effort("a", 1.0),
                ClassSpec::best_effort("b", 1.0),
            ]
        };
        std::fs::write(
            &path,
            "{\"arrival_s\": 0.1, \"network\": 1, \"class\": 1}\n",
        )
        .unwrap();
        assert_eq!(w(two()).check_trace(2), Ok(()));
        let err = w(two()).check_trace(1).unwrap_err();
        assert!(
            err.ends_with(":1: \"network\" must be an integer in 0..1"),
            "{err}"
        );
        let err = w(Vec::new()).check_trace(2).unwrap_err();
        assert!(err.contains("no request classes are configured"), "{err}");
        // The stream rejects the same line with the same words.
        let panic = std::panic::catch_unwind(|| w(Vec::new()).generate(1, 0)).unwrap_err();
        let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, err);
        // Non-trace processes have no file to check.
        assert_eq!(Workload::poisson(10.0, 0).check_trace(0), Ok(()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_state_is_o1_for_generated_processes() {
        // The stream must not buffer requests: pulling one at a time from
        // a million-request stream touches only generator state.
        let w = Workload::poisson(1_000_000.0, 0);
        let mut s = w.stream(1_000_000, 42);
        let first = s.next().unwrap();
        assert_eq!(first.id, 0);
        let hundredth = s.nth(98).unwrap();
        assert_eq!(hundredth.id, 99);
        assert!(hundredth.arrival_s > first.arrival_s);
    }
}
