//! # albireo-obs — deterministic instrumentation layer
//!
//! Metrics (counters, gauges, exactly-mergeable log-scale histograms)
//! and span tracing for the Albireo workspace, with zero external
//! dependencies.
//!
//! ## Determinism contract
//!
//! Everything that reaches an exporter or a digest is a function of the
//! run's inputs, never of wall time or thread interleaving:
//!
//! * Timestamps are **virtual** — the DES clock in `albireo-runtime`
//!   or the cumulative-latency clock in the core engine. Wall-clock
//!   nanoseconds are opt-in ([`Obs::set_wall_clock`]) and excluded
//!   from digests and event ordering. The second clock lives in
//!   [`profile`]: an opt-in wall-clock phase profiler whose output is
//!   likewise never folded into a digest (DESIGN.md §15).
//! * The trace buffer drains in a total order keyed by
//!   `(ts_bits, track, phase rank, seq)`; counters commute; snapshots
//!   iterate by name. Same seed ⇒ byte-identical exports at any
//!   thread count.
//! * Digests use the workspace fold convention
//!   `d.rotate_left(7) ^ bits` (see [`fold`]), matching
//!   `runtime::report`.
//!
//! ## Cost when disabled
//!
//! An [`Obs`] starts life either enabled or disabled; every recording
//! path is guarded by [`Obs::is_enabled`], a single relaxed atomic
//! load, so instrumented hot loops pay ≤ one branch when observability
//! is off. The process-wide [`global`] handle is **disabled** by
//! default and is only used for ambient counters (e.g. the parallel
//! crate's per-worker op counts); traces always go through an explicit
//! per-run `Obs` so concurrent runs never interleave events.
//!
//! ## Example
//!
//! ```
//! use albireo_obs::Obs;
//!
//! let obs = Obs::enabled();
//! obs.counter("engine.ops").add(10);
//! albireo_obs::span!(obs, track = 0, begin = 0.0, end = 0.5e-3, "layer",
//!     idx = 0usize);
//! let events = obs.drain_events();
//! assert_eq!(events.len(), 2);
//! let digest = albireo_obs::events_digest(&events);
//! assert_ne!(digest, 0);
//! ```

pub mod export;
pub mod jsonv;
pub mod metrics;
pub mod openmetrics;
pub mod profile;
pub mod sketch;
pub mod span;

pub use export::{json_escape, to_chrome_trace, to_jsonl};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramData, MetricsSnapshot, Registry, SketchCell,
};
pub use profile::{PhaseStat, ProfileReport, PROFILE_SCHEMA};
pub use sketch::{QuantileSketch, RELATIVE_ERROR_BOUND};
pub use span::{events_digest, ArgValue, Event, Phase, TraceBuffer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Schema identifier stamped on every obs JSON export.
pub const SCHEMA: &str = "albireo.obs/v1";

/// The workspace's order-sensitive digest fold:
/// `digest.rotate_left(7) ^ bits` (same convention as
/// `runtime::report`).
pub fn fold(digest: u64, bits: u64) -> u64 {
    digest.rotate_left(7) ^ bits
}

/// FNV-1a hash of a byte string, used to fold names into digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Reserved trace tracks. Chip and worker tracks start at
/// [`track::CHIP_BASE`] / [`track::WORKER_BASE`]; the low tracks carry
/// cross-cutting streams.
pub mod track {
    /// Dispatcher / scheduler control events (batch formation, sheds,
    /// faults, queue-depth samples).
    pub const DISPATCH: u32 = 0;
    /// Core engine per-layer spans.
    pub const ENGINE: u32 = 1;
    /// First per-chip track: chip `i` records on `CHIP_BASE + i`.
    pub const CHIP_BASE: u32 = 16;
    /// First per-worker track for the parallel crate.
    pub const WORKER_BASE: u32 = 1024;
}

/// Handle bundling a metrics [`Registry`] and a [`TraceBuffer`] behind
/// a cheap enabled check.
#[derive(Debug)]
pub struct Obs {
    enabled: AtomicBool,
    wall_clock: AtomicBool,
    epoch: Instant,
    registry: Registry,
    tracer: TraceBuffer,
}

impl Obs {
    /// A new handle in the given state.
    pub fn new(enabled: bool) -> Obs {
        Obs {
            enabled: AtomicBool::new(enabled),
            wall_clock: AtomicBool::new(false),
            epoch: Instant::now(),
            registry: Registry::new(),
            tracer: TraceBuffer::default(),
        }
    }

    /// An enabled handle.
    pub fn enabled() -> Obs {
        Obs::new(true)
    }

    /// A disabled handle: every record call is a single branch.
    pub fn disabled() -> Obs {
        Obs::new(false)
    }

    /// Whether recording is on. Inline-cheap; instrument hot paths as
    /// `if obs.is_enabled() { ... }`.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Opts events into carrying wall-clock nanoseconds (diagnostic
    /// only; never part of digests or ordering).
    pub fn set_wall_clock(&self, on: bool) {
        self.wall_clock.store(on, Ordering::Relaxed);
    }

    /// Whether wall-clock stamping is on.
    pub fn wall_clock(&self) -> bool {
        self.wall_clock.load(Ordering::Relaxed)
    }

    fn wall_ns(&self) -> Option<u64> {
        if self.wall_clock() {
            Some(self.epoch.elapsed().as_nanos() as u64)
        } else {
            None
        }
    }

    /// The counter named `name` (always usable; callers guard the hot
    /// path with [`Obs::is_enabled`]).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(name)
    }

    /// The gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(name)
    }

    /// The histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(name)
    }

    /// The quantile sketch named `name`.
    pub fn sketch(&self, name: &str) -> Arc<SketchCell> {
        self.registry.sketch(name)
    }

    /// A point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Records a complete span `[begin_s, end_s]` on `track` as a
    /// Begin/End pair (no-op when disabled).
    pub fn record_span(
        &self,
        track: u32,
        begin_s: f64,
        end_s: f64,
        name: &str,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        let wall = self.wall_ns();
        self.tracer
            .record(track, begin_s, Phase::Begin, name, args, wall);
        self.tracer
            .record(track, end_s, Phase::End, name, Vec::new(), wall);
    }

    /// Records a point event (no-op when disabled).
    pub fn record_instant(
        &self,
        track: u32,
        ts_s: f64,
        name: &str,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        let wall = self.wall_ns();
        self.tracer
            .record(track, ts_s, Phase::Instant, name, args, wall);
    }

    /// Records a sampled counter value (Chrome `ph: "C"`) — e.g. the
    /// serving queue depth over virtual time (no-op when disabled).
    pub fn record_counter_sample(&self, track: u32, ts_s: f64, name: &str, value: ArgValue) {
        if !self.is_enabled() {
            return;
        }
        let wall = self.wall_ns();
        self.tracer.record(
            track,
            ts_s,
            Phase::Counter,
            name,
            vec![("value", value)],
            wall,
        );
    }

    /// Drains every buffered event in the deterministic total order.
    pub fn drain_events(&self) -> Vec<Event> {
        self.tracer.drain_sorted()
    }
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::disabled()
    }
}

/// The process-wide handle: disabled by default, used for ambient
/// counters (parallel-crate op counts). Enable explicitly via
/// `global().set_enabled(true)`.
pub fn global() -> &'static Obs {
    static GLOBAL: OnceLock<Obs> = OnceLock::new();
    GLOBAL.get_or_init(Obs::disabled)
}

/// Records a complete span with explicit virtual begin/end timestamps:
///
/// ```
/// # let obs = albireo_obs::Obs::enabled();
/// albireo_obs::span!(obs, track = 3, begin = 0.0, end = 1.0e-3,
///     "plcg_dispatch", chip = 3usize, batch = 8usize);
/// ```
#[macro_export]
macro_rules! span {
    ($obs:expr, track = $track:expr, begin = $begin:expr, end = $end:expr,
     $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $obs.record_span(
            $track,
            $begin,
            $end,
            $name,
            vec![$((stringify!($key), $crate::ArgValue::from($value))),*],
        )
    };
}

/// Records a point event at a virtual timestamp:
///
/// ```
/// # let obs = albireo_obs::Obs::enabled();
/// albireo_obs::instant!(obs, track = 0, ts = 0.5, "shed", queue = 4usize);
/// ```
#[macro_export]
macro_rules! instant {
    ($obs:expr, track = $track:expr, ts = $ts:expr,
     $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $obs.record_instant(
            $track,
            $ts,
            $name,
            vec![$((stringify!($key), $crate::ArgValue::from($value))),*],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = Obs::disabled();
        span!(obs, track = 0, begin = 0.0, end = 1.0, "s");
        instant!(obs, track = 0, ts = 0.5, "i");
        obs.record_counter_sample(0, 0.5, "q", ArgValue::U64(1));
        assert!(obs.drain_events().is_empty());
    }

    #[test]
    fn span_macro_records_begin_end_pair_with_args() {
        let obs = Obs::enabled();
        span!(
            obs,
            track = 2,
            begin = 1.0,
            end = 2.0,
            "layer",
            idx = 4usize,
            macs = 100u64
        );
        let events = obs.drain_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].phase, Phase::Begin);
        assert_eq!(events[0].args[0], ("idx", ArgValue::U64(4)));
        assert_eq!(events[0].args[1], ("macs", ArgValue::U64(100)));
        assert_eq!(events[1].phase, Phase::End);
    }

    #[test]
    fn wall_clock_opt_in_does_not_change_digest() {
        let run = |wall: bool| {
            let obs = Obs::enabled();
            obs.set_wall_clock(wall);
            span!(obs, track = 0, begin = 0.0, end = 1.0, "s", k = 1u64);
            let events = obs.drain_events();
            assert_eq!(events[0].wall_ns.is_some(), wall);
            events_digest(&events)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn global_is_disabled_by_default() {
        assert!(!global().is_enabled());
    }

    #[test]
    fn fold_matches_runtime_convention() {
        assert_eq!(fold(0, 5), 5);
        assert_eq!(fold(1, 0), 1u64.rotate_left(7));
    }
}
