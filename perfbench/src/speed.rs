//! Host-speed calibration.
//!
//! On a shared host the CPU's speed drifts between regimes about 1.5–2×
//! apart that last seconds to minutes and hit both cores together, which
//! moves a whole run's median by up to a quarter. A fixed loop of the
//! benchmark's own code (no simulator code, so no simulator change can
//! move it) is timed between calls. Each call's host time is scaled by
//! the loop times either side of it to a host on which the loop takes
//! `REFERENCE_MS`; the raw host times stay in the report.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Host time of one calibration loop on the reference host, ms.
pub const REFERENCE_MS: f64 = 1.0;

/// Iterations of the calibration loop (about 0.75 ms on a 2-vCPU Xeon
/// guest in its fast regime).
const LOOP_ITERS: usize = 25_000;

#[derive(Default)]
pub struct Calibration {
    samples_ms: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration::default()
    }

    /// Times one calibration loop, ms. The loop builds, clones and drops
    /// small vectors of floats, the allocation-heavy pattern that
    /// dominates the simulator's own hot paths. Of the loops tried
    /// (transcendental floating point, hashed scatter, pointer chasing,
    /// small allocations), its time tracked the simulator's per-call host
    /// time across speed regimes most closely.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0.0;
        for i in 0..LOOP_ITERS {
            let v: Vec<f64> = (0..8 + i % 16).map(|k| k as f64).collect();
            // The heap-allocated outer vector is part of the pattern.
            #[allow(clippy::useless_vec)]
            let rows = vec![v.clone(), v];
            acc += rows[1][3];
        }
        black_box(acc);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        ms
    }

    pub fn median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }
}
