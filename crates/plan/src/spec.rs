//! Plan specifications: what workload the fleet must carry and what
//! service level it must hit.
//!
//! [`PlanSpec`] is the planner's single input. It reuses the runtime's
//! workload vocabulary (arrival processes, network mixes, multi-tenant
//! classes) and adds the search axes: which chip kinds may appear in a
//! fleet, how many chips a fleet may have, which batching policies and
//! [`AutoscalePolicy`] variants to consider, and the [`SloSpec`] every
//! candidate is judged against.
//!
//! Both types follow the workspace's `Display`/`parse` convention: the
//! `Display` form is canonical and `parse(display(x)) == x` **exactly**
//! (floats are rendered with `{}`, Rust's shortest round-trip
//! representation, so no precision is lost). Trace-backed arrival
//! processes are intentionally outside the grammar — a plan must be
//! reproducible from its one-line spec alone.

use albireo_runtime::{
    ArrivalProcess, AutoscalePolicy, BatchPolicy, ClassSpec, FaultSpec, Workload,
};
use std::fmt;

/// The service-level objective candidates must meet to be feasible.
///
/// Grammar (comma-separated, `p99` required, any order):
///
/// ```text
/// p99<5ms[,attain>=0.95][,shed<=0.01]
/// ```
///
/// * `p99<T ms` — the run's 99th-percentile latency must not exceed `T`.
/// * `attain>=A` — every SLO-carrying tenant class must finish at least
///   fraction `A` of its *offered* requests within its own per-class
///   SLO (shed requests count as misses). Vacuous when the workload
///   declares no SLO classes.
/// * `shed<=S` — the run's shed rate must not exceed `S`. Defaults to
///   `0` (a feasible fleet completes everything it is offered), and the
///   canonical `Display` form omits the clause at the default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// 99th-percentile latency ceiling, ms.
    pub p99_ms: f64,
    /// Per-class SLO-attainment floor (`None` = not enforced).
    pub min_attainment: Option<f64>,
    /// Shed-rate ceiling (default 0.0).
    pub max_shed_rate: f64,
}

impl SloSpec {
    /// An SLO that only bounds p99 latency (and forbids shedding).
    pub fn p99(p99_ms: f64) -> SloSpec {
        SloSpec {
            p99_ms,
            min_attainment: None,
            max_shed_rate: 0.0,
        }
    }

    /// Parses the `p99<..` grammar documented on the type.
    pub fn parse(spec: &str) -> Result<SloSpec, String> {
        let mut p99_ms = None;
        let mut min_attainment = None;
        let mut max_shed_rate = None;
        for part in spec.split(',') {
            let part = part.trim();
            if let Some(v) = part.strip_prefix("p99<") {
                let v = v.strip_suffix("ms").unwrap_or(v);
                let t: f64 = v
                    .parse()
                    .map_err(|_| format!("bad p99 bound in SLO `{spec}`"))?;
                if !(t.is_finite() && t > 0.0) {
                    return Err(format!("p99 bound must be positive in SLO `{spec}`"));
                }
                if p99_ms.replace(t).is_some() {
                    return Err(format!("duplicate p99 clause in SLO `{spec}`"));
                }
            } else if let Some(v) = part.strip_prefix("attain>=") {
                let a: f64 = v
                    .parse()
                    .map_err(|_| format!("bad attainment floor in SLO `{spec}`"))?;
                if !(a.is_finite() && a > 0.0 && a <= 1.0) {
                    return Err(format!(
                        "attainment floor must be in (0, 1] in SLO `{spec}`"
                    ));
                }
                if min_attainment.replace(a).is_some() {
                    return Err(format!("duplicate attain clause in SLO `{spec}`"));
                }
            } else if let Some(v) = part.strip_prefix("shed<=") {
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("bad shed bound in SLO `{spec}`"))?;
                if !(s.is_finite() && (0.0..1.0).contains(&s)) {
                    return Err(format!("shed bound must be in [0, 1) in SLO `{spec}`"));
                }
                if max_shed_rate.replace(s).is_some() {
                    return Err(format!("duplicate shed clause in SLO `{spec}`"));
                }
            } else {
                return Err(format!(
                    "unknown SLO clause `{part}` (try: p99<5ms, attain>=0.95, shed<=0.01)"
                ));
            }
        }
        Ok(SloSpec {
            p99_ms: p99_ms.ok_or_else(|| format!("SLO `{spec}` needs a p99<..ms clause"))?,
            min_attainment,
            max_shed_rate: max_shed_rate.unwrap_or(0.0),
        })
    }
}

impl fmt::Display for SloSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p99<{}ms", self.p99_ms)?;
        if let Some(a) = self.min_attainment {
            write!(f, ",attain>={a}")?;
        }
        if self.max_shed_rate != 0.0 {
            write!(f, ",shed<={}", self.max_shed_rate)?;
        }
        Ok(())
    }
}

/// The planner's input: the workload to carry, the SLO to meet, and the
/// search space of candidate fleets.
///
/// Grammar — `;`-separated `key=value` pairs. `rate`, `slo`, and `chips`
/// are required; everything else has the default shown:
///
/// ```text
/// arrival=poisson;rate=2000;mix=0:1;requests=2000;screen=300;seed=42;
/// replicas=1;slo=p99<5ms;chips=albireo_9:C;max-chips=3;
/// policies=immediate;queue-cap=64;autoscale=static
/// ```
///
/// `autoscale` defaults to `static` (not `none`): a capacity planner
/// must charge idle power, or every fleet size reports the same energy
/// per request and "more chips" is free. `none` remains available for
/// comparing against the legacy no-idle-accounting engine.
///
/// * `arrival` — an [`ArrivalProcess::parse`] spec: `poisson`,
///   `bursty:<BURST>:<ON_S>:<OFF_S>`, `diurnal:<AMPLITUDE>:<PERIOD_S>`,
///   or `flash:<SPIKE>:<AT_S>:<DECAY_S>` (the mean rate comes from
///   `rate`).
/// * `mix` — comma list of `NETWORK_INDEX:WEIGHT` over the model zoo.
/// * `classes` — optional comma list of `NAME:WEIGHT[:SLO_MS]` tenant
///   classes ([`ClassSpec::parse_list`] grammar).
/// * `requests` / `screen` — full scoring run length and the shorter
///   screening prefix used to prune hopeless candidates.
/// * `replicas` — scoring runs per candidate (split-seed replicas).
/// * `chips` — `|`-separated fleet entries (e.g. `albireo_9:C`), the
///   chip kinds fleets are composed from.
/// * `max-chips` — largest fleet size searched.
/// * `policies` — `|`-separated batching policies: `immediate`,
///   `size:<N>`, `deadline:<USEC>[:<MAX>]`, or the canonical exact form
///   `deadline_s:<SECONDS>:<MAX>`.
/// * `queue-cap` — shared queue capacity, or `unbounded`.
/// * `autoscale` — `|`-separated [`AutoscalePolicy`] specs.
/// * `faults` — optional correlated-fault scenario every candidate is
///   scored under ([`FaultSpec`] grammar: `fail:`, `recover:`,
///   `degrade:`, `rack:`, `thermal:`, `crews:` clauses), compiled per
///   candidate fleet size. Omitted = healthy fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpec {
    /// The request stream every candidate serves.
    pub workload: Workload,
    /// Full-length scoring run, requests.
    pub requests: usize,
    /// Screening-run prefix length, requests.
    pub screen_requests: usize,
    /// Master seed; replica `r` runs with a split of it.
    pub seed: u64,
    /// Scoring replicas per candidate.
    pub replicas: usize,
    /// The SLO candidates must meet.
    pub slo: SloSpec,
    /// Chip kinds (fleet-entry specs) fleets are composed from.
    pub chip_kinds: Vec<String>,
    /// Largest fleet size searched.
    pub max_chips: usize,
    /// Batching policies searched.
    pub policies: Vec<BatchPolicy>,
    /// Shared queue capacity (`usize::MAX` = unbounded).
    pub queue_capacity: usize,
    /// Autoscaling policies searched.
    pub autoscale: Vec<AutoscalePolicy>,
    /// Correlated-fault scenario candidates are scored under (empty =
    /// healthy fleet), compiled against each candidate's fleet size.
    pub faults: FaultSpec,
}

impl PlanSpec {
    /// A p99-only plan over Poisson arrivals of network 0, searching
    /// fleets of up to `max_chips` copies of one chip kind under
    /// immediate dispatch with no autoscaling.
    pub fn poisson(rate_rps: f64, p99_ms: f64, chip_kind: &str, max_chips: usize) -> PlanSpec {
        PlanSpec {
            workload: Workload::poisson(rate_rps, 0),
            requests: 2000,
            screen_requests: 300,
            seed: 42,
            replicas: 1,
            slo: SloSpec::p99(p99_ms),
            chip_kinds: vec![chip_kind.to_string()],
            max_chips,
            policies: vec![BatchPolicy::Immediate],
            queue_capacity: 64,
            autoscale: vec![AutoscalePolicy::Static],
            faults: FaultSpec::none(),
        }
    }

    /// Parses the `key=value;...` grammar documented on the type.
    pub fn parse(spec: &str) -> Result<PlanSpec, String> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("plan spec entry `{part}` is not key=value"))?;
            let k = k.trim().to_string();
            if pairs.iter().any(|(seen, _)| *seen == k) {
                return Err(format!("duplicate key `{k}` in plan spec"));
            }
            pairs.push((k, v.trim().to_string()));
        }
        let mut take = |key: &str| -> Option<String> {
            let at = pairs.iter().position(|(k, _)| k == key)?;
            Some(pairs.remove(at).1)
        };

        let rate_rps: f64 = take("rate")
            .ok_or("plan spec needs rate=<RPS>")?
            .parse()
            .map_err(|_| "bad rate in plan spec".to_string())?;
        if !(rate_rps.is_finite() && rate_rps > 0.0) {
            return Err("rate must be positive".to_string());
        }
        let process =
            ArrivalProcess::parse(take("arrival").as_deref().unwrap_or("poisson"), rate_rps)?;

        let mut mix: Vec<(usize, f64)> = Vec::new();
        for entry in take("mix").as_deref().unwrap_or("0:1").split(',') {
            let entry = entry.trim();
            let (idx, weight) = entry
                .split_once(':')
                .ok_or_else(|| format!("mix entry `{entry}` needs NETWORK:WEIGHT"))?;
            let idx: usize = idx
                .parse()
                .map_err(|_| format!("bad network index in mix entry `{entry}`"))?;
            let weight: f64 = weight
                .parse()
                .map_err(|_| format!("bad weight in mix entry `{entry}`"))?;
            if !(weight.is_finite() && weight > 0.0) {
                return Err(format!("mix weight must be positive in entry `{entry}`"));
            }
            if mix.iter().any(|&(seen, _)| seen == idx) {
                return Err(format!("duplicate network {idx} in mix"));
            }
            mix.push((idx, weight));
        }

        let classes = match take("classes") {
            Some(list) => ClassSpec::parse_list(&list, None)?,
            None => Vec::new(),
        };

        let parse_usize = |key: &str, value: Option<String>, default: usize| match value {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| format!("bad {key} in plan spec")),
            None => Ok(default),
        };
        let requests = parse_usize("requests", take("requests"), 2000)?;
        let screen_requests = parse_usize("screen", take("screen"), 300)?;
        let seed: u64 = match take("seed") {
            Some(v) => v.parse().map_err(|_| "bad seed in plan spec".to_string())?,
            None => 42,
        };
        let replicas = parse_usize("replicas", take("replicas"), 1)?;
        let slo = SloSpec::parse(&take("slo").ok_or("plan spec needs slo=p99<..ms")?)?;

        let mut chip_kinds: Vec<String> = Vec::new();
        for kind in take("chips")
            .ok_or("plan spec needs chips=<ENTRY>|..")?
            .split('|')
        {
            let kind = kind.trim();
            if kind.is_empty() {
                return Err("empty chip kind in plan spec".to_string());
            }
            if chip_kinds.iter().any(|seen| seen == kind) {
                return Err(format!("duplicate chip kind `{kind}` in plan spec"));
            }
            chip_kinds.push(kind.to_string());
        }
        let max_chips = parse_usize("max-chips", take("max-chips"), 3)?;

        let mut policies: Vec<BatchPolicy> = Vec::new();
        for p in take("policies")
            .as_deref()
            .unwrap_or("immediate")
            .split('|')
        {
            let policy = BatchPolicy::parse(p)?;
            if policies.contains(&policy) {
                return Err(format!(
                    "duplicate policy `{}` in plan spec",
                    policy.label()
                ));
            }
            policies.push(policy);
        }

        let queue_capacity = match take("queue-cap").as_deref() {
            None => 64,
            Some("unbounded") => usize::MAX,
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| "bad queue-cap in plan spec (try an integer or `unbounded`)")?,
        };

        let mut autoscale: Vec<AutoscalePolicy> = Vec::new();
        for a in take("autoscale").as_deref().unwrap_or("static").split('|') {
            let policy = AutoscalePolicy::parse(a)?;
            if autoscale.contains(&policy) {
                return Err(format!(
                    "duplicate autoscale policy `{policy}` in plan spec"
                ));
            }
            autoscale.push(policy);
        }

        let faults = match take("faults") {
            Some(v) => FaultSpec::parse(&v)?,
            None => FaultSpec::none(),
        };

        if let Some((k, _)) = pairs.first() {
            return Err(format!("unknown plan spec key `{k}`"));
        }

        let plan = PlanSpec {
            workload: Workload {
                process,
                mix,
                classes,
            },
            requests,
            screen_requests,
            seed,
            replicas,
            slo,
            chip_kinds,
            max_chips,
            policies,
            queue_capacity,
            autoscale,
            faults,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// Checks the invariants the search relies on. `parse` calls this;
    /// hand-built specs should too before planning.
    pub fn validate(&self) -> Result<(), String> {
        match self.workload.process {
            ArrivalProcess::Trace { .. } | ArrivalProcess::TraceFile { .. } => {
                return Err(
                    "trace arrivals are not plannable (a plan must be reproducible from its \
                     spec line alone)"
                        .to_string(),
                )
            }
            _ => {}
        }
        if self.workload.mix.is_empty() {
            return Err("plan workload mix is empty".to_string());
        }
        if self.requests == 0 {
            return Err("requests must be at least 1".to_string());
        }
        if self.screen_requests == 0 || self.screen_requests > self.requests {
            return Err("screen run length must be in 1..=requests".to_string());
        }
        if self.replicas == 0 {
            return Err("replicas must be at least 1".to_string());
        }
        if self.chip_kinds.is_empty() {
            return Err("plan spec names no chip kinds".to_string());
        }
        for kind in &self.chip_kinds {
            // Candidate fleets repeat kinds (2, 3, ... copies); a fixed
            // alias would collide with itself on the second copy.
            if kind.contains('=') {
                return Err(format!(
                    "chip kind `{kind}` carries an alias; the planner sizes fleets by \
                     repeating kinds, so aliases would collide — use the bare \
                     `<chip>[:<estimate>]` form"
                ));
            }
        }
        if self.max_chips == 0 {
            return Err("max-chips must be at least 1".to_string());
        }
        if self.policies.is_empty() {
            return Err("plan spec names no batching policies".to_string());
        }
        if self.autoscale.is_empty() {
            return Err("plan spec names no autoscale policies".to_string());
        }
        if self.queue_capacity == 0 {
            return Err("queue-cap must be at least 1 (or `unbounded`)".to_string());
        }
        // Smaller candidates clip the scenario to their chips, but a
        // clause past even the largest fleet would fault nothing at all.
        self.faults
            .check_fleet(self.max_chips)
            .map_err(|e| format!("faults: {e}, the largest max-chips allows"))
    }
}

impl fmt::Display for PlanSpec {
    /// The canonical spec line: every key emitted (except `classes` when
    /// empty), floats via `{}` so `parse` reproduces the value exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "arrival={};rate={}",
            self.workload.process,
            self.workload.process.mean_rate_rps()
        )?;
        write!(f, ";mix=")?;
        for (i, (idx, weight)) in self.workload.mix.iter().enumerate() {
            write!(f, "{}{idx}:{weight}", if i > 0 { "," } else { "" })?;
        }
        if !self.workload.classes.is_empty() {
            write!(f, ";classes=")?;
            for (i, c) in self.workload.classes.iter().enumerate() {
                write!(f, "{}{}:{}", if i > 0 { "," } else { "" }, c.name, c.weight)?;
                if let Some(slo) = c.slo_ms {
                    write!(f, ":{slo}")?;
                }
            }
        }
        write!(
            f,
            ";requests={};screen={};seed={};replicas={};slo={}",
            self.requests, self.screen_requests, self.seed, self.replicas, self.slo
        )?;
        write!(f, ";chips={}", self.chip_kinds.join("|"))?;
        write!(f, ";max-chips={};policies=", self.max_chips)?;
        for (i, p) in self.policies.iter().enumerate() {
            write!(f, "{}{p}", if i > 0 { "|" } else { "" })?;
        }
        if self.queue_capacity == usize::MAX {
            write!(f, ";queue-cap=unbounded")?;
        } else {
            write!(f, ";queue-cap={}", self.queue_capacity)?;
        }
        write!(f, ";autoscale=")?;
        for (i, a) in self.autoscale.iter().enumerate() {
            write!(f, "{}{a}", if i > 0 { "|" } else { "" })?;
        }
        // Appended last, and only when present, so fault-free spec lines
        // (and their digests) are byte-identical to the pre-fault era.
        if !self.faults.is_empty() {
            write!(f, ";faults={}", self.faults)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_parses_and_round_trips() {
        let slo = SloSpec::parse("p99<5ms").unwrap();
        assert_eq!(slo, SloSpec::p99(5.0));
        assert_eq!(slo.to_string(), "p99<5ms");

        let full = SloSpec::parse("p99<2.5ms,attain>=0.95,shed<=0.01").unwrap();
        assert_eq!(full.p99_ms, 2.5);
        assert_eq!(full.min_attainment, Some(0.95));
        assert_eq!(full.max_shed_rate, 0.01);
        assert_eq!(SloSpec::parse(&full.to_string()).unwrap(), full);

        // Order-insensitive on input; canonical on output.
        let swapped = SloSpec::parse("shed<=0.01,p99<2.5,attain>=0.95").unwrap();
        assert_eq!(swapped, full);

        for bad in [
            "attain>=0.9",       // p99 missing
            "p99<0ms",           // non-positive bound
            "p99<5ms,p99<6ms",   // duplicate clause
            "p99<5ms,attain>=2", // out of range
            "p99<5ms,shed<=1",   // shed must stay below 1
            "p99<5ms,foo=bar",   // unknown clause
        ] {
            assert!(SloSpec::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn plan_spec_round_trips_through_display() {
        let line = "arrival=bursty:8:0.01:0.04;rate=1500;mix=0:3,3:1;\
                    classes=interactive:3:5,batch:1;requests=1200;screen=200;seed=7;\
                    replicas=2;slo=p99<5ms,shed<=0.02;chips=albireo_9:C|albireo_27:C;\
                    max-chips=3;policies=immediate|size:4|deadline_s:0.0001:6;\
                    queue-cap=128;autoscale=none|static|elastic:8:0.002:1";
        let spec = PlanSpec::parse(line).unwrap();
        assert_eq!(PlanSpec::parse(&spec.to_string()).unwrap(), spec);
        assert_eq!(spec.chip_kinds.len(), 2);
        assert_eq!(spec.policies.len(), 3);
        assert_eq!(spec.autoscale.len(), 3);
        assert_eq!(spec.workload.classes[0].slo_ms, Some(5.0));
        assert_eq!(spec.workload.classes[1].slo_ms, None);
        assert!(spec.faults.is_empty());
        // A fault-free spec line never mentions faults (byte-compatible
        // with pre-fault spec lines and their golden digests).
        assert!(!spec.to_string().contains("faults"));
    }

    #[test]
    fn plan_spec_faults_round_trip_and_sit_last() {
        let line = "rate=2000;slo=p99<5ms;chips=albireo_9:C;\
                    faults=thermal:0-2@0.01-0.03:2,fail:1@0.02,crews:2:0.05:7";
        let spec = PlanSpec::parse(line).unwrap();
        assert!(!spec.faults.is_empty());
        let canon = spec.to_string();
        assert!(
            canon.ends_with(";faults=thermal:0-2@0.01-0.03:2,fail:1@0.02,crews:2:0.05:7"),
            "faults must be the final key: {canon}"
        );
        assert_eq!(PlanSpec::parse(&canon).unwrap(), spec);
        // The compiled scenario tracks the candidate fleet size.
        assert!(spec.faults.compile(3).events().len() > spec.faults.compile(1).events().len());
    }

    #[test]
    fn plan_spec_defaults_fill_in() {
        let spec = PlanSpec::parse("rate=2000;slo=p99<5ms;chips=albireo_9:C").unwrap();
        assert_eq!(
            spec.workload.process,
            ArrivalProcess::Poisson { rate_rps: 2000.0 }
        );
        assert_eq!(spec.workload.mix, vec![(0, 1.0)]);
        assert!(spec.workload.classes.is_empty());
        assert_eq!(spec.requests, 2000);
        assert_eq!(spec.screen_requests, 300);
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.replicas, 1);
        assert_eq!(spec.max_chips, 3);
        assert_eq!(spec.policies, vec![BatchPolicy::Immediate]);
        assert_eq!(spec.queue_capacity, 64);
        assert_eq!(spec.autoscale, vec![AutoscalePolicy::Static]);
        // The default-filled spec still round-trips.
        assert_eq!(PlanSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn plan_spec_rejects_malformed_input() {
        for bad in [
            "slo=p99<5ms;chips=albireo_9:C",                       // rate missing
            "rate=2000;chips=albireo_9:C",                         // slo missing
            "rate=2000;slo=p99<5ms",                               // chips missing
            "rate=0;slo=p99<5ms;chips=albireo_9:C",                // bad rate
            "rate=2000;slo=p99<5ms;chips=albireo_9:C|albireo_9:C", // duplicate chip kind
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;rate=3000",   // duplicate key
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;bogus=1",     // unknown key
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;mix=0:1,0:2", // duplicate network
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;screen=0",    // screen too short
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;screen=9999", // screen > requests
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;queue-cap=0", // zero queue
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;policies=immediate|immediate",
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;autoscale=none|none",
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;arrival=bursty:8:0.01", // missing field
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;arrival=warp",          // unknown shape
            "rate=2000;slo=p99<5ms;chips=edge=albireo_9:C",                  // aliased kind
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;faults=melt:0@1",       // unknown clause
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;faults=fail:0@-1",      // negative time
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;max-chips=2;faults=fail:99@0.01", // no chip
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;max-chips=2;faults=rack:2-5@0.01", // no chip
        ] {
            assert!(PlanSpec::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }
}
