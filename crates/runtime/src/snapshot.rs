//! Checkpoint snapshots of an in-flight serving run.
//!
//! A [`SimSnapshot`] captures *everything* the engine holds between two
//! event instants: the virtual clock boundary, the pending event queue
//! (in pop order), the bounded request queue, per-chip state, the
//! streaming accumulators (`RunTotals`, including the latency quantile
//! sketch and the incremental record-digest fold), and the arrival
//! lookahead. The one thing it does **not** store is the workload RNG —
//! the stream is a pure function of `(workload, requests, seed)`, so
//! resume re-seeds it and fast-forwards exactly `offered` draws, then
//! cross-checks the regenerated lookahead request against the stored
//! one bit for bit. A resumed run therefore produces a report
//! byte-identical to the uninterrupted run (same digest, same JSON).
//!
//! ## Wire format — `albireo.snapshot/v1`
//!
//! Line-oriented text, one record per line, `f64`s as 16-hex-digit
//! IEEE-754 bit patterns (exact round-trip, no shortest-float
//! ambiguity). The final line is `digest <16-hex>`: an FNV-1a hash of
//! every preceding byte, so torn writes and hand edits are rejected at
//! parse time. A `fingerprint` line hashes the fleet label and the
//! full `ServeConfig`; resume refuses a snapshot whose fingerprint does
//! not match the offered configuration. The format is documented in
//! DESIGN.md §13.

use crate::alerts::{
    AlertBook, AlertEvent, AlertPolicy, AlertRule, BurnRule, ClassAlertState, WindowCounts,
};
use crate::fault::FaultKind;
use crate::report::{ClassTotals, RequestRecord, RunTotals};
use crate::sim::{ChipState, EventKind};
use crate::workload::Request;
use albireo_core::report::json;
use albireo_obs::sketch::MAX_BUCKETS;
use albireo_obs::{fnv1a, QuantileSketch};
use std::fmt::Write as _;

/// Schema tag on the first line of every snapshot file.
pub const SNAPSHOT_SCHEMA: &str = "albireo.snapshot/v1";

/// A complete, serializable capture of an in-flight serving run at a
/// checkpoint boundary. Produce one with
/// [`crate::sim::simulate_with`] at each checkpoint; pass it back as
/// that function's `resume` argument to continue the run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// FNV-1a over the fleet label and the full `ServeConfig` debug
    /// rendering — resume refuses a mismatched configuration.
    pub(crate) fingerprint: u64,
    /// Configured request count (replay cross-check).
    pub(crate) requests: usize,
    /// Master seed (replay cross-check).
    pub(crate) seed: u64,
    /// The checkpoint boundary on the virtual clock, s. Every event
    /// strictly before this instant has been applied.
    pub(crate) at_s: f64,
    /// How many checkpoints (including this one) the run has emitted.
    pub(crate) checkpoints: u64,
    /// Event insertion counter (keeps the total order stable on resume).
    pub(crate) seq: u64,
    /// The arrival lookahead — the next stream request not yet merged.
    pub(crate) next_arrival: Option<Request>,
    /// Streaming accumulators, including the capped record sample.
    pub(crate) totals: RunTotals,
    /// The bounded dispatch queue, front to back.
    pub(crate) queue: Vec<Request>,
    /// Pending events as `(time_bits, class, seq, kind)`, in pop order.
    pub(crate) events: Vec<(u64, u8, u64, EventKind)>,
    /// Event-queue high-water mark at capture time.
    pub(crate) peak_event_queue: usize,
    /// Per-chip engine state, in fleet order.
    pub(crate) chips: Vec<ChipState>,
}

impl SimSnapshot {
    /// The checkpoint boundary on the virtual clock, s.
    pub fn at_s(&self) -> f64 {
        self.at_s
    }

    /// Checkpoints emitted so far, including this one.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Requests offered (streamed) before the boundary.
    pub fn offered(&self) -> u64 {
        self.totals.offered
    }

    /// Requests completed before the boundary.
    pub fn completed(&self) -> u64 {
        self.totals.rec_count
    }

    /// Requests shed before the boundary.
    pub fn shed(&self) -> u64 {
        self.totals.shed
    }

    /// Requests waiting in the dispatch queue at the boundary.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Events pending in the DES queue at the boundary.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Median end-to-end latency so far, ms (sketch estimate).
    pub fn p50_ms(&self) -> f64 {
        self.totals.latency_ms.quantile(0.50)
    }

    /// 99th-percentile latency so far, ms (sketch estimate).
    pub fn p99_ms(&self) -> f64 {
        self.totals.latency_ms.quantile(0.99)
    }

    /// The configuration fingerprint this snapshot was captured under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Burn-rate alert transitions recorded up to this boundary, in
    /// fire order (empty when the workload has no SLO classes).
    pub fn alert_events(&self) -> &[AlertEvent] {
        &self.totals.alerts.events
    }

    /// `albireo.serve.alert/v1` JSON lines (no trailing newlines) for
    /// every alert transition with index `>= from`, each tagged with
    /// this boundary's checkpoint number. Streaming callers pass the
    /// count they have already written, so a transition is emitted
    /// exactly once even though the snapshot carries the full log.
    pub fn alert_json_lines(&self, from: usize) -> Vec<String> {
        let name = |class: usize| -> &str {
            self.totals
                .classes
                .get(class)
                .map_or("?", |ct| ct.name.as_str())
        };
        self.totals
            .alerts
            .events
            .iter()
            .skip(from)
            .map(|e| {
                format!(
                    "{{\"schema\": \"albireo.serve.alert/v1\", \"checkpoint\": {}, \
                     \"class\": \"{}\", \"rule\": \"{}\", \"type\": \"{}\", \
                     \"at_s\": {}, \"burn_short\": {}, \"burn_long\": {}}}",
                    self.checkpoints,
                    name(e.class),
                    e.rule.label(),
                    if e.fire { "fire" } else { "resolve" },
                    json::num(e.at_s),
                    json::num(e.burn_short),
                    json::num(e.burn_long),
                )
            })
            .collect()
    }

    /// Derives an obs [`albireo_obs::MetricsSnapshot`] from the
    /// snapshot's streaming accumulators — the OpenMetrics view of the
    /// run at this checkpoint boundary. Counters are cumulative since
    /// the start of the run; gauges are point-in-time.
    pub fn metrics_snapshot(&self) -> albireo_obs::MetricsSnapshot {
        let r = albireo_obs::Registry::new();
        r.counter("serve.offered").add(self.totals.offered);
        r.counter("serve.completed").add(self.totals.rec_count);
        r.counter("serve.shed").add(self.totals.shed);
        r.gauge("serve.at_s").set(self.at_s);
        r.gauge("serve.queue_depth").set(self.queue.len() as f64);
        r.gauge("serve.pending_events")
            .set(self.events.len() as f64);
        r.sketch("serve.latency_ms")
            .merge_from(&self.totals.latency_ms);
        for (ci, ct) in self.totals.classes.iter().enumerate() {
            if ct.slo_ms.is_none() {
                continue;
            }
            r.counter(&format!("serve.class.{}.alerts_fired", ct.name))
                .add(self.totals.alerts.fired(ci));
            r.gauge(&format!("serve.class.{}.alert_active", ct.name))
                .set(if self.totals.alerts.active(ci) {
                    1.0
                } else {
                    0.0
                });
        }
        r.snapshot()
    }

    /// One `albireo.serve.progress/v1` JSON line summarizing the run at
    /// this boundary — the incremental-report record streamed to
    /// `--report-jsonl` (no trailing newline).
    pub fn progress_json(&self) -> String {
        format!(
            "{{\"schema\": \"albireo.serve.progress/v1\", \"checkpoint\": {}, \
             \"at_s\": {}, \"offered\": {}, \"completed\": {}, \"shed\": {}, \
             \"queued\": {}, \"events\": {}, \"p50_ms\": {}, \"p99_ms\": {}}}",
            self.checkpoints,
            json::num(self.at_s),
            self.totals.offered,
            self.totals.rec_count,
            self.totals.shed,
            self.queue.len(),
            self.events.len(),
            json::num(self.p50_ms()),
            json::num(self.p99_ms()),
        )
    }

    /// Serializes the snapshot to its `albireo.snapshot/v1` text form,
    /// ending with the self-digest line.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(SNAPSHOT_SCHEMA);
        out.push('\n');
        let _ = writeln!(out, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(out, "requests {}", self.requests);
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "at {:016x}", self.at_s.to_bits());
        let _ = writeln!(out, "checkpoints {}", self.checkpoints);
        let _ = writeln!(out, "seq {}", self.seq);
        let _ = writeln!(out, "peak_events {}", self.peak_event_queue);
        match &self.next_arrival {
            Some(r) => {
                let _ = writeln!(
                    out,
                    "next_arrival {} {:016x} {} {}",
                    r.id,
                    r.arrival_s.to_bits(),
                    r.network,
                    r.class
                );
            }
            None => out.push_str("next_arrival none\n"),
        }
        let t = &self.totals;
        let _ = writeln!(
            out,
            "totals {} {} {:016x} {} {:016x} {:016x} {:016x} {:016x} {}",
            t.offered,
            t.shed,
            t.rec_fold,
            t.rec_count,
            t.latency_sum_ms.to_bits(),
            t.wait_sum_ms.to_bits(),
            t.max_finish_s.to_bits(),
            t.last_arrival_s.to_bits(),
            t.max_queue_depth,
        );
        write_sketch(&mut out, &t.latency_ms);
        let _ = writeln!(out, "classes {}", t.classes.len());
        for c in &t.classes {
            let slo = match c.slo_ms {
                Some(s) => format!("{:016x}", s.to_bits()),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "class {} {} {} {:016x} {} {}",
                c.completed,
                c.shed,
                c.slo_hits,
                c.latency_sum_ms.to_bits(),
                slo,
                c.name,
            );
            write_sketch(&mut out, &c.latency_ms);
        }
        let _ = writeln!(out, "records {}", t.records.len());
        for r in &t.records {
            let _ = writeln!(
                out,
                "record {} {} {} {:016x} {:016x} {:016x}",
                r.id,
                r.network,
                r.chip,
                r.arrival_s.to_bits(),
                r.start_s.to_bits(),
                r.finish_s.to_bits(),
            );
        }
        let _ = writeln!(out, "queued {}", self.queue.len());
        for r in &self.queue {
            let _ = writeln!(
                out,
                "req {} {:016x} {} {}",
                r.id,
                r.arrival_s.to_bits(),
                r.network,
                r.class
            );
        }
        let _ = writeln!(out, "events {}", self.events.len());
        for (time_bits, class, seq, kind) in &self.events {
            let _ = write!(out, "event {time_bits:016x} {class} {seq} ");
            match kind {
                EventKind::Fault(FaultKind::ChipOffline { chip }) => {
                    let _ = write!(out, "fault chip_offline {chip}");
                }
                EventKind::Fault(FaultKind::ChipOnline { chip }) => {
                    let _ = write!(out, "fault chip_online {chip}");
                }
                EventKind::Fault(FaultKind::PlcgOffline { chip, count }) => {
                    let _ = write!(out, "fault plcg_offline {chip} {count}");
                }
                EventKind::Fault(FaultKind::PlcgRestore { chip, count }) => {
                    let _ = write!(out, "fault plcg_restore {chip} {count}");
                }
                EventKind::Completion { chip } => {
                    let _ = write!(out, "completion {chip}");
                }
                EventKind::WarmedUp { chip } => {
                    let _ = write!(out, "warmed {chip}");
                }
                EventKind::Timer => out.push_str("timer"),
            }
            out.push('\n');
        }
        let _ = writeln!(out, "chips {}", self.chips.len());
        for c in &self.chips {
            let _ = writeln!(
                out,
                "chip {} {} {} {:016x} {:016x} {} {} {} {} {:016x} {:016x} {}",
                c.online as u8,
                c.plcgs_down,
                c.busy as u8,
                c.busy_s.to_bits(),
                c.energy_j.to_bits(),
                c.served,
                c.batches,
                c.parked as u8,
                c.warming as u8,
                c.provisioned_s.to_bits(),
                c.provisioned_at_s.to_bits(),
                c.spin_ups,
            );
        }
        // Burn-rate alert state — present only when the run tracks an
        // SLO class, so classless snapshots stay byte-identical to the
        // pre-alerting format (still `albireo.snapshot/v1`; parsers
        // treat the section as optional).
        if self.totals.alerts.is_active() {
            let b = &self.totals.alerts;
            let p = &b.policy;
            let active: Vec<(usize, &ClassAlertState)> = b
                .states
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().map(|st| (i, st)))
                .collect();
            let _ = writeln!(
                out,
                "alerts {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {} {} {}",
                p.target.to_bits(),
                p.fast.short_s.to_bits(),
                p.fast.long_s.to_bits(),
                p.fast.factor.to_bits(),
                p.slow.short_s.to_bits(),
                p.slow.long_s.to_bits(),
                p.slow.factor.to_bits(),
                active.len(),
                b.events.len(),
                b.dropped,
            );
            for (class, st) in active {
                let _ = writeln!(
                    out,
                    "astate {} {} {}",
                    class, st.fast_firing as u8, st.slow_firing as u8
                );
                for w in [&st.fast_short, &st.fast_long, &st.slow_short, &st.slow_long] {
                    write_window(&mut out, w);
                }
            }
            for e in &b.events {
                let _ = writeln!(
                    out,
                    "aevent {} {} {} {:016x} {:016x} {:016x}",
                    e.class,
                    e.rule.label(),
                    e.fire as u8,
                    e.at_s.to_bits(),
                    e.burn_short.to_bits(),
                    e.burn_long.to_bits(),
                );
            }
        }
        let digest = fnv1a(out.as_bytes());
        let _ = writeln!(out, "digest {digest:016x}");
        out
    }

    /// Parses an `albireo.snapshot/v1` text snapshot, verifying the
    /// trailing self-digest before interpreting a single field.
    pub fn parse(text: &str) -> Result<SimSnapshot, String> {
        let stripped = text
            .strip_suffix('\n')
            .ok_or_else(|| "snapshot does not end with a newline (truncated write)".to_string())?;
        let (head, last) = stripped
            .rsplit_once('\n')
            .ok_or_else(|| "snapshot too short".to_string())?;
        let digest_hex = last
            .strip_prefix("digest ")
            .ok_or_else(|| format!("last line must be `digest <hex>`, found `{last}`"))?;
        let body = &text[..head.len() + 1];
        let got = fnv1a(body.as_bytes());
        // Compared as text: `{:016x}` is the writer's only spelling, so an
        // upper-cased or `+`-prefixed digest is an edit like any other.
        if digest_hex != format!("{got:016x}") {
            return Err(format!(
                "snapshot digest mismatch: file says {digest_hex}, content hashes to {got:016x} \
                 (truncated write or edited file)"
            ));
        }

        let mut cur = Cursor {
            lines: body.lines(),
            lineno: 0,
        };
        let schema = cur.next_line()?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(format!(
                "unsupported snapshot schema `{schema}` (this build reads {SNAPSHOT_SCHEMA})"
            ));
        }
        let fingerprint = p_hex(cur.tagged("fingerprint")?)?;
        let requests = p_usize(cur.tagged("requests")?)?;
        let seed = p_u64(cur.tagged("seed")?)?;
        let at_s = f64::from_bits(p_hex(cur.tagged("at")?)?);
        let checkpoints = p_u64(cur.tagged("checkpoints")?)?;
        let seq = p_u64(cur.tagged("seq")?)?;
        let peak_event_queue = p_usize(cur.tagged("peak_events")?)?;
        let arrival_rest = cur.tagged("next_arrival")?;
        let next_arrival = if arrival_rest == "none" {
            None
        } else {
            let mut t = arrival_rest.split_whitespace();
            Some(Request {
                id: p_u64(tok(&mut t, "arrival id")?)?,
                arrival_s: f64::from_bits(p_hex(tok(&mut t, "arrival time")?)?),
                network: p_usize(tok(&mut t, "arrival network")?)?,
                class: p_usize(tok(&mut t, "arrival class")?)?,
            })
        };
        let totals_rest = cur.tagged("totals")?;
        let mut t = totals_rest.split_whitespace();
        let mut totals = RunTotals::new(Vec::new());
        totals.offered = p_u64(tok(&mut t, "offered")?)?;
        totals.shed = p_u64(tok(&mut t, "shed")?)?;
        totals.rec_fold = p_hex(tok(&mut t, "rec_fold")?)?;
        totals.rec_count = p_u64(tok(&mut t, "rec_count")?)?;
        totals.latency_sum_ms = f64::from_bits(p_hex(tok(&mut t, "latency_sum")?)?);
        totals.wait_sum_ms = f64::from_bits(p_hex(tok(&mut t, "wait_sum")?)?);
        totals.max_finish_s = f64::from_bits(p_hex(tok(&mut t, "max_finish")?)?);
        totals.last_arrival_s = f64::from_bits(p_hex(tok(&mut t, "last_arrival")?)?);
        totals.max_queue_depth = p_usize(tok(&mut t, "max_queue_depth")?)?;
        totals.latency_ms = parse_sketch(cur.tagged("sketch")?)?;
        let n_classes = p_usize(cur.tagged("classes")?)?;
        for _ in 0..n_classes {
            let rest = cur.tagged("class")?;
            let mut parts = rest.splitn(6, ' ');
            let completed = p_u64(tok(&mut parts, "class completed")?)?;
            let shed = p_u64(tok(&mut parts, "class shed")?)?;
            let slo_hits = p_u64(tok(&mut parts, "class slo_hits")?)?;
            let latency_sum_ms = f64::from_bits(p_hex(tok(&mut parts, "class latency_sum")?)?);
            let slo_tok = tok(&mut parts, "class slo")?;
            let slo_ms = if slo_tok == "-" {
                None
            } else {
                Some(f64::from_bits(p_hex(slo_tok)?))
            };
            let name = tok(&mut parts, "class name")?;
            let mut c = ClassTotals::new(name, slo_ms);
            c.completed = completed;
            c.shed = shed;
            c.slo_hits = slo_hits;
            c.latency_sum_ms = latency_sum_ms;
            c.latency_ms = parse_sketch(cur.tagged("sketch")?)?;
            totals.classes.push(c);
        }
        let n_records = p_usize(cur.tagged("records")?)?;
        for _ in 0..n_records {
            let rest = cur.tagged("record")?;
            let mut t = rest.split_whitespace();
            totals.records.push(RequestRecord {
                id: p_u64(tok(&mut t, "record id")?)?,
                network: p_usize(tok(&mut t, "record network")?)?,
                chip: p_usize(tok(&mut t, "record chip")?)?,
                arrival_s: f64::from_bits(p_hex(tok(&mut t, "record arrival")?)?),
                start_s: f64::from_bits(p_hex(tok(&mut t, "record start")?)?),
                finish_s: f64::from_bits(p_hex(tok(&mut t, "record finish")?)?),
            });
        }
        let n_queued = p_usize(cur.tagged("queued")?)?;
        let mut queue = Vec::new();
        for _ in 0..n_queued {
            let rest = cur.tagged("req")?;
            let mut t = rest.split_whitespace();
            queue.push(Request {
                id: p_u64(tok(&mut t, "queued id")?)?,
                arrival_s: f64::from_bits(p_hex(tok(&mut t, "queued arrival")?)?),
                network: p_usize(tok(&mut t, "queued network")?)?,
                class: p_usize(tok(&mut t, "queued class")?)?,
            });
        }
        let n_events = p_usize(cur.tagged("events")?)?;
        let mut events = Vec::new();
        for _ in 0..n_events {
            let rest = cur.tagged("event")?;
            let mut t = rest.split_whitespace();
            let time_bits = p_hex(tok(&mut t, "event time")?)?;
            let class = p_u64(tok(&mut t, "event class")?)? as u8;
            let ev_seq = p_u64(tok(&mut t, "event seq")?)?;
            let kind = match tok(&mut t, "event kind")? {
                "fault" => {
                    let which = tok(&mut t, "fault kind")?;
                    let chip = p_usize(tok(&mut t, "fault chip")?)?;
                    match which {
                        "chip_offline" => EventKind::Fault(FaultKind::ChipOffline { chip }),
                        "chip_online" => EventKind::Fault(FaultKind::ChipOnline { chip }),
                        "plcg_offline" => EventKind::Fault(FaultKind::PlcgOffline {
                            chip,
                            count: p_usize(tok(&mut t, "fault count")?)?,
                        }),
                        "plcg_restore" => EventKind::Fault(FaultKind::PlcgRestore {
                            chip,
                            count: p_usize(tok(&mut t, "fault count")?)?,
                        }),
                        other => return Err(format!("unknown fault kind `{other}`")),
                    }
                }
                "completion" => EventKind::Completion {
                    chip: p_usize(tok(&mut t, "completion chip")?)?,
                },
                "warmed" => EventKind::WarmedUp {
                    chip: p_usize(tok(&mut t, "warmed chip")?)?,
                },
                "timer" => EventKind::Timer,
                other => return Err(format!("unknown event kind `{other}`")),
            };
            events.push((time_bits, class, ev_seq, kind));
        }
        let n_chips = p_usize(cur.tagged("chips")?)?;
        let mut chips = Vec::new();
        for _ in 0..n_chips {
            let rest = cur.tagged("chip")?;
            let mut t = rest.split_whitespace();
            chips.push(ChipState {
                online: p_u64(tok(&mut t, "chip online")?)? != 0,
                plcgs_down: p_usize(tok(&mut t, "chip plcgs_down")?)?,
                busy: p_u64(tok(&mut t, "chip busy")?)? != 0,
                busy_s: f64::from_bits(p_hex(tok(&mut t, "chip busy_s")?)?),
                energy_j: f64::from_bits(p_hex(tok(&mut t, "chip energy")?)?),
                served: p_u64(tok(&mut t, "chip served")?)?,
                batches: p_u64(tok(&mut t, "chip batches")?)?,
                parked: p_u64(tok(&mut t, "chip parked")?)? != 0,
                warming: p_u64(tok(&mut t, "chip warming")?)? != 0,
                provisioned_s: f64::from_bits(p_hex(tok(&mut t, "chip provisioned_s")?)?),
                provisioned_at_s: f64::from_bits(p_hex(tok(&mut t, "chip provisioned_at")?)?),
                spin_ups: p_u64(tok(&mut t, "chip spin_ups")?)?,
            });
        }
        // Optional burn-rate alert section (absent on classless runs
        // and on snapshots from pre-alerting builds).
        if let Some(rest) = cur.maybe_tagged("alerts") {
            let mut t = rest.split_whitespace();
            let policy = AlertPolicy {
                target: f64::from_bits(p_hex(tok(&mut t, "alert target")?)?),
                fast: BurnRule {
                    short_s: f64::from_bits(p_hex(tok(&mut t, "fast short")?)?),
                    long_s: f64::from_bits(p_hex(tok(&mut t, "fast long")?)?),
                    factor: f64::from_bits(p_hex(tok(&mut t, "fast factor")?)?),
                },
                slow: BurnRule {
                    short_s: f64::from_bits(p_hex(tok(&mut t, "slow short")?)?),
                    long_s: f64::from_bits(p_hex(tok(&mut t, "slow long")?)?),
                    factor: f64::from_bits(p_hex(tok(&mut t, "slow factor")?)?),
                },
            };
            let n_states = p_usize(tok(&mut t, "alert states")?)?;
            let n_events = p_usize(tok(&mut t, "alert events")?)?;
            let dropped = p_u64(tok(&mut t, "alert dropped")?)?;
            let mut states: Vec<Option<ClassAlertState>> = vec![None; totals.classes.len()];
            for _ in 0..n_states {
                let rest = cur.tagged("astate")?;
                let mut t = rest.split_whitespace();
                let class = p_usize(tok(&mut t, "astate class")?)?;
                if class >= states.len() {
                    return Err(format!(
                        "alert state for class {class} outside the {}-class table",
                        states.len()
                    ));
                }
                let mut st = ClassAlertState::new(&policy);
                st.fast_firing = p_u64(tok(&mut t, "astate fast")?)? != 0;
                st.slow_firing = p_u64(tok(&mut t, "astate slow")?)? != 0;
                for w in [
                    &mut st.fast_short,
                    &mut st.fast_long,
                    &mut st.slow_short,
                    &mut st.slow_long,
                ] {
                    parse_window(cur.tagged("awin")?, w)?;
                }
                states[class] = Some(st);
            }
            let mut events = Vec::new();
            for _ in 0..n_events {
                let rest = cur.tagged("aevent")?;
                let mut t = rest.split_whitespace();
                events.push(AlertEvent {
                    class: p_usize(tok(&mut t, "aevent class")?)?,
                    rule: match tok(&mut t, "aevent rule")? {
                        "fast" => AlertRule::Fast,
                        "slow" => AlertRule::Slow,
                        other => return Err(format!("unknown alert rule `{other}`")),
                    },
                    fire: p_u64(tok(&mut t, "aevent fire")?)? != 0,
                    at_s: f64::from_bits(p_hex(tok(&mut t, "aevent at")?)?),
                    burn_short: f64::from_bits(p_hex(tok(&mut t, "aevent burn_short")?)?),
                    burn_long: f64::from_bits(p_hex(tok(&mut t, "aevent burn_long")?)?),
                });
            }
            totals.alerts = AlertBook {
                policy,
                states,
                events,
                dropped,
            };
        }
        Ok(SimSnapshot {
            fingerprint,
            requests,
            seed,
            at_s,
            checkpoints,
            seq,
            next_arrival,
            totals,
            queue,
            events,
            peak_event_queue,
            chips,
        })
    }
}

/// One trailing-window ring as `awin <cur> <k> slot:total:miss ...`
/// (nonzero slots only; bucket width is derived from the policy).
fn write_window(out: &mut String, w: &WindowCounts) {
    let nonzero: Vec<(usize, u64, u64)> = w
        .total
        .iter()
        .zip(&w.miss)
        .enumerate()
        .filter(|(_, (&t, _))| t > 0)
        .map(|(i, (&t, &m))| (i, t, m))
        .collect();
    let _ = write!(out, "awin {} {}", w.cur, nonzero.len());
    for (slot, total, miss) in nonzero {
        let _ = write!(out, " {slot}:{total}:{miss}");
    }
    out.push('\n');
}

/// Fills a policy-initialized [`WindowCounts`] from its `awin` line.
fn parse_window(rest: &str, w: &mut WindowCounts) -> Result<(), String> {
    let mut t = rest.split_whitespace();
    w.cur = p_u64(tok(&mut t, "awin cur")?)?;
    let n = p_usize(tok(&mut t, "awin slots")?)?;
    for _ in 0..n {
        let triple = tok(&mut t, "awin slot")?;
        let mut parts = triple.split(':');
        let slot = p_usize(tok(&mut parts, "awin slot index")?)?;
        if slot >= w.total.len() {
            return Err(format!("awin slot {slot} outside the ring"));
        }
        let total = p_u64(tok(&mut parts, "awin total")?)?;
        let miss = p_u64(tok(&mut parts, "awin miss")?)?;
        if miss > total {
            return Err(format!(
                "awin slot {slot}: {miss} misses of {total} observations"
            ));
        }
        w.total[slot] = total;
        w.miss[slot] = miss;
    }
    if w.total
        .iter()
        .try_fold(0u64, |a, &b| a.checked_add(b))
        .is_none()
    {
        return Err("awin slot totals overflow u64".to_string());
    }
    w.resum();
    Ok(())
}

fn write_sketch(out: &mut String, s: &QuantileSketch) {
    let buckets = s.nonzero_buckets();
    let _ = write!(
        out,
        "sketch {} {} {:016x} {:016x} {}",
        s.zeros(),
        s.invalid(),
        s.min_bits(),
        s.max_bits(),
        buckets.len(),
    );
    for (idx, count) in &buckets {
        let _ = write!(out, " {idx}:{count}");
    }
    out.push('\n');
}

fn parse_sketch(rest: &str) -> Result<QuantileSketch, String> {
    let mut t = rest.split_whitespace();
    let zeros = p_u64(tok(&mut t, "sketch zeros")?)?;
    let invalid = p_u64(tok(&mut t, "sketch invalid")?)?;
    let min_bits = p_hex(tok(&mut t, "sketch min")?)?;
    let max_bits = p_hex(tok(&mut t, "sketch max")?)?;
    let n = p_usize(tok(&mut t, "sketch buckets")?)?;
    let mut buckets: Vec<(u16, u64)> = Vec::new();
    let mut total = zeros;
    for _ in 0..n {
        let pair = tok(&mut t, "sketch bucket")?;
        let (idx, count) = pair
            .split_once(':')
            .ok_or_else(|| format!("bad sketch bucket `{pair}`"))?;
        let idx: u16 = idx.parse().map_err(|e| format!("bad bucket index: {e}"))?;
        let count = p_u64(count)?;
        if idx as usize >= MAX_BUCKETS {
            return Err(format!(
                "sketch bucket index {idx} outside the {MAX_BUCKETS}-bucket space"
            ));
        }
        if let Some(&(prev, _)) = buckets.last() {
            if idx <= prev {
                return Err(format!(
                    "sketch bucket index {idx} after {prev}: indices must be strictly ascending"
                ));
            }
        }
        if count == 0 {
            return Err(format!("sketch bucket {idx} has a zero count"));
        }
        total = total
            .checked_add(count)
            .ok_or_else(|| "sketch counts overflow u64".to_string())?;
        buckets.push((idx, count));
    }
    Ok(QuantileSketch::from_parts(
        &buckets, zeros, invalid, min_bits, max_bits,
    ))
}

struct Cursor<'a> {
    lines: std::str::Lines<'a>,
    lineno: usize,
}

impl<'a> Cursor<'a> {
    fn next_line(&mut self) -> Result<&'a str, String> {
        self.lineno += 1;
        self.lines
            .next()
            .ok_or_else(|| format!("line {}: unexpected end of snapshot", self.lineno))
    }

    /// The next line, stripped of its expected `tag ` prefix.
    fn tagged(&mut self, tag: &str) -> Result<&'a str, String> {
        let line = self.next_line()?;
        if line == tag {
            return Ok("");
        }
        line.strip_prefix(tag)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| format!("line {}: expected `{tag} ...`, found `{line}`", self.lineno))
    }

    /// Consumes the next line only if it carries `tag` — for optional
    /// trailing sections. Returns `None` (without advancing) at end of
    /// input or on a different tag.
    fn maybe_tagged(&mut self, tag: &str) -> Option<&'a str> {
        let mut ahead = self.lines.clone();
        let line = ahead.next()?;
        let rest = if line == tag {
            Some("")
        } else {
            line.strip_prefix(tag).and_then(|r| r.strip_prefix(' '))
        }?;
        self.lines = ahead;
        self.lineno += 1;
        Some(rest)
    }
}

fn tok<'a>(t: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<&'a str, String> {
    t.next().ok_or_else(|| format!("missing {what}"))
}

fn p_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|e| format!("bad integer `{s}`: {e}"))
}

fn p_usize(s: &str) -> Result<usize, String> {
    s.parse().map_err(|e| format!("bad integer `{s}`: {e}"))
}

fn p_hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex `{s}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> SimSnapshot {
        let mut interactive = ClassTotals::new("interactive", Some(5.0));
        interactive.completed = 7;
        interactive.slo_hits = 6;
        interactive.latency_sum_ms = 12.5;
        interactive.latency_ms.observe(1.25);
        interactive.latency_ms.observe(3.5);
        let mut batch = ClassTotals::new("batch", None);
        batch.shed = 2;
        let mut totals = RunTotals::new(vec![interactive, batch]);
        totals.offered = 10;
        totals.shed = 2;
        totals.rec_fold = 0xDEAD_BEEF;
        totals.rec_count = 7;
        totals.latency_ms.observe(1.25);
        totals.latency_ms.observe(3.5);
        totals.latency_sum_ms = 12.5;
        totals.wait_sum_ms = 0.5;
        totals.max_finish_s = 0.012;
        totals.last_arrival_s = 0.011;
        totals.max_queue_depth = 4;
        totals.records.push(RequestRecord {
            id: 3,
            network: 1,
            chip: 0,
            arrival_s: 0.001,
            start_s: 0.0015,
            finish_s: 0.003,
        });
        SimSnapshot {
            fingerprint: 0x1234_5678_9ABC_DEF0,
            requests: 100,
            seed: 42,
            at_s: 0.0105,
            checkpoints: 3,
            seq: 17,
            next_arrival: Some(Request {
                id: 10,
                network: 0,
                arrival_s: 0.0107,
                class: 1,
            }),
            totals,
            queue: vec![Request {
                id: 9,
                network: 1,
                arrival_s: 0.0101,
                class: 0,
            }],
            events: vec![
                (
                    0.0108f64.to_bits(),
                    0,
                    5,
                    EventKind::Fault(FaultKind::PlcgRestore { chip: 1, count: 2 }),
                ),
                (
                    0.0110f64.to_bits(),
                    1,
                    12,
                    EventKind::Completion { chip: 0 },
                ),
                (0.0111f64.to_bits(), 1, 14, EventKind::WarmedUp { chip: 1 }),
                (0.0120f64.to_bits(), 3, 15, EventKind::Timer),
            ],
            peak_event_queue: 9,
            chips: vec![ChipState {
                online: true,
                plcgs_down: 2,
                busy: true,
                busy_s: 0.004,
                energy_j: 1.5,
                served: 7,
                batches: 3,
                parked: false,
                warming: false,
                provisioned_s: 0.0,
                provisioned_at_s: 0.0,
                spin_ups: 1,
            }],
        }
    }

    /// Nondecreasing `(at_s, miss)` sequences: mostly steps inside one
    /// bucket, some that skip buckets or the whole window.
    fn observations() -> impl Strategy<Value = Vec<(f64, bool)>> {
        prop::collection::vec(
            (
                prop_oneof![3 => 0.0f64..20.0, 1 => 0.0f64..4000.0],
                prop::bool::ANY,
            ),
            0..120,
        )
        .prop_map(|steps| {
            let mut t = 0.0;
            steps
                .into_iter()
                .map(|(dt, miss)| {
                    t += dt;
                    (t, miss)
                })
                .collect()
        })
    }

    proptest! {
        /// The running sums equal a fresh re-sum of the slots after every
        /// observe, and a `write_window` → `parse_window` round trip
        /// rebuilds them (they are derived, not serialized).
        #[test]
        fn window_running_sums_match_a_fresh_resum(
            obs in observations(),
            window_s in prop_oneof![Just(300.0), Just(3600.0), Just(21_600.0)],
        ) {
            let resum = |w: &WindowCounts| {
                (w.total.iter().sum::<u64>(), w.miss.iter().sum::<u64>())
            };
            let mut w = WindowCounts::new(window_s);
            for &(at_s, miss) in &obs {
                w.observe(at_s, miss);
                prop_assert_eq!((w.sum_total, w.sum_miss), resum(&w));
                let mut line = String::new();
                write_window(&mut line, &w);
                let mut back = WindowCounts::new(window_s);
                let rest = line.trim_end().strip_prefix("awin ").expect("awin tag");
                parse_window(rest, &mut back).expect("round trip parses");
                prop_assert_eq!((back.sum_total, back.sum_miss), resum(&back));
                prop_assert_eq!(&back, &w);
            }
        }
    }

    #[test]
    fn snapshot_round_trips_byte_exactly() {
        let snap = sample();
        let text = snap.to_text();
        assert!(text.starts_with("albireo.snapshot/v1\n"));
        let parsed = SimSnapshot::parse(&text).expect("parse");
        assert_eq!(parsed, snap);
        assert_eq!(parsed.to_text(), text, "re-serialization is byte-stable");
    }

    #[test]
    fn snapshot_with_drained_stream_round_trips() {
        let mut snap = sample();
        snap.next_arrival = None;
        let text = snap.to_text();
        let parsed = SimSnapshot::parse(&text).expect("parse");
        assert_eq!(parsed.next_arrival, None);
        assert_eq!(parsed, snap);
    }

    #[test]
    fn tampered_snapshots_are_rejected() {
        let text = sample().to_text();
        // Flip one content byte: the digest no longer matches.
        let tampered = text.replacen("seed 42", "seed 43", 1);
        let err = SimSnapshot::parse(&tampered).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
        // Truncate mid-file: the digest line is gone entirely.
        let truncated = &text[..text.len() / 2];
        assert!(SimSnapshot::parse(truncated).is_err());
        // Wrong schema tag fails even with a correct digest.
        let mut body = text
            .rsplit_once("digest ")
            .map(|(b, _)| b.to_string())
            .unwrap();
        body = body.replacen("albireo.snapshot/v1", "albireo.snapshot/v9", 1);
        let digest = albireo_obs::fnv1a(body.as_bytes());
        let rewritten = format!("{body}digest {digest:016x}\n");
        let err = SimSnapshot::parse(&rewritten).unwrap_err();
        assert!(err.contains("unsupported snapshot schema"), "{err}");
    }

    /// `text` with the first `from` replaced by `to` and the trailing
    /// digest recomputed, so only the edited field can fail the parse.
    fn resealed(text: &str, from: &str, to: &str) -> String {
        assert!(text.contains(from), "`{from}` not in the snapshot");
        let (body, _) = text.rsplit_once("digest ").expect("digest line");
        let body = body.replacen(from, to, 1);
        let digest = albireo_obs::fnv1a(body.as_bytes());
        format!("{body}digest {digest:016x}\n")
    }

    /// The run sketch of [`sample`]: 1.25 lands in bucket 2056 and 3.5
    /// in bucket 2104.
    const SKETCH_BUCKETS: &str = " 2 2056:1 2104:1\n";

    #[test]
    fn sketch_bucket_index_outside_the_bucket_space_is_an_error() {
        let text = resealed(&sample().to_text(), SKETCH_BUCKETS, " 2 2056:1 5000:1\n");
        let err = SimSnapshot::parse(&text).unwrap_err();
        assert!(err.contains("bucket index 5000 outside"), "{err}");
    }

    #[test]
    fn repeated_or_descending_sketch_buckets_are_an_error() {
        for bad in [" 2 2056:1 2056:1\n", " 2 2104:1 2056:1\n"] {
            let text = resealed(&sample().to_text(), SKETCH_BUCKETS, bad);
            let err = SimSnapshot::parse(&text).unwrap_err();
            assert!(err.contains("strictly ascending"), "{bad}: {err}");
        }
    }

    #[test]
    fn zero_sketch_bucket_count_is_an_error() {
        let text = resealed(&sample().to_text(), SKETCH_BUCKETS, " 2 2056:0 2104:1\n");
        let err = SimSnapshot::parse(&text).unwrap_err();
        assert!(err.contains("zero count"), "{err}");
    }

    #[test]
    fn overflowing_sketch_counts_are_an_error() {
        let max = u64::MAX;
        let text = resealed(
            &sample().to_text(),
            SKETCH_BUCKETS,
            &format!(" 2 2056:{max} 2104:{max}\n"),
        );
        let err = SimSnapshot::parse(&text).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn huge_header_counts_fail_without_preallocating() {
        let huge = "99999999999999999";
        for (from, to) in [
            (
                SKETCH_BUCKETS.to_string(),
                format!(" {huge} 2056:1 2104:1\n"),
            ),
            ("\nqueued 1\n".to_string(), format!("\nqueued {huge}\n")),
            ("\nevents 4\n".to_string(), format!("\nevents {huge}\n")),
            ("\nchips 1\n".to_string(), format!("\nchips {huge}\n")),
        ] {
            let text = resealed(&sample().to_text(), &from, &to);
            assert!(SimSnapshot::parse(&text).is_err(), "{to:?} parsed");
        }
        // The alert section's event count is a header count too.
        let mut snap = sample();
        snap.totals.alerts = AlertBook::for_classes(AlertPolicy::standard(), &[Some(5.0), None]);
        let text = snap.to_text();
        let line = text
            .lines()
            .find(|l| l.starts_with("alerts "))
            .expect("alerts line");
        let mut fields: Vec<&str> = line.split(' ').collect();
        fields[9] = huge; // alerts <7 policy words> <states> <events> <dropped>
        let text = resealed(&text, line, &fields.join(" "));
        assert!(
            SimSnapshot::parse(&text).is_err(),
            "huge alert event count parsed"
        );
    }

    #[test]
    fn progress_json_reports_the_boundary() {
        let line = sample().progress_json();
        assert!(line.starts_with("{\"schema\": \"albireo.serve.progress/v1\""));
        assert!(line.contains("\"checkpoint\": 3"));
        assert!(line.contains("\"offered\": 10"));
        assert!(line.contains("\"queued\": 1"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn accessors_summarize_the_totals() {
        let snap = sample();
        assert_eq!(snap.offered(), 10);
        assert_eq!(snap.completed(), 7);
        assert_eq!(snap.shed(), 2);
        assert_eq!(snap.queue_len(), 1);
        assert_eq!(snap.pending_events(), 4);
        assert_eq!(snap.checkpoints(), 3);
        assert!(snap.p50_ms() > 0.0);
        assert!(snap.p99_ms() >= snap.p50_ms());
    }
}
