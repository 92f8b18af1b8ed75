//! Golden values for what the serving report digest does not cover.
//!
//! The run digest folds per-request records only, so per-class counts,
//! class percentiles, the sketch's size and the burn-rate alert log
//! could all drift without moving it. This test pins each of them
//! exactly for one run under correlated faults and two classes. The
//! values were recorded on the map-based sketch with re-summed alert
//! windows; the dense sketch and running window sums must reproduce
//! them bit for bit.
//!
//! Config: AlexNet+VGG16 mix at 2000 rps on the paper pair, faults
//! `rack:0-0@30,thermal:0-3@60-90:2,crews:2:20:11`, classes
//! `interactive:3:5,batch:1`, seed 42, 80,000 requests. That is long
//! enough for the rack fault at 30 s to shed work, and all four alert
//! fires land before virtual time 0.35 s.

use albireo_runtime::{simulate, AlertRule, ClassSpec, FaultSpec, FleetConfig, ServeConfig};

const REQUESTS: usize = 80_000;

fn golden_config() -> ServeConfig {
    let mut cfg = ServeConfig::poisson(2000.0, REQUESTS, 42, 0);
    cfg.workload.mix = vec![(0, 1.0), (1, 1.0)];
    cfg.faults = FaultSpec::parse("rack:0-0@30,thermal:0-3@60-90:2,crews:2:20:11")
        .expect("fault spec parses")
        .compile(2);
    cfg.workload.classes =
        ClassSpec::parse_list("interactive:3:5,batch:1", None).expect("class list parses");
    cfg
}

/// `(name, completed, shed, slo_hits, slo_attainment bits, p99_ms bits)`.
type ClassPin = (&'static str, u64, u64, Option<u64>, Option<u64>, u64);

const CLASSES: [ClassPin; 2] = [
    (
        "interactive",
        58_479,
        1_514,
        Some(40_705),
        Some(0x3fe5_b63c_e018_2b52),
        0x4044_3f9a_dc3f_79ce,
    ),
    ("batch", 19_525, 482, None, None, 0x4044_3f9a_dc3f_79ce),
];

/// `(class, rule, fire, at_s bits, burn_short bits, burn_long bits)`.
const ALERTS: [(usize, AlertRule, bool, u64, u64, u64); 6] = [
    (
        0,
        AlertRule::Slow,
        true,
        0x3fb2ee2d2ab792b8,
        0x402638e38e38e389,
        0x402638e38e38e389,
    ),
    (
        0,
        AlertRule::Slow,
        false,
        0x3fbfe9ce0cdc3b4f,
        0x4017f3bc8d07aa22,
        0x4017f3bc8d07aa22,
    ),
    (
        0,
        AlertRule::Slow,
        true,
        0x3fc753824a831908,
        0x40213dcb08d3dcac,
        0x40213dcb08d3dcac,
    ),
    (
        0,
        AlertRule::Slow,
        false,
        0x3fd01d7b0e9ccc25,
        0x4017f3bc8d07aa22,
        0x4017f3bc8d07aa22,
    ),
    (
        0,
        AlertRule::Slow,
        true,
        0x3fd03e9fcaff2da4,
        0x4021cddd0e6ee86f,
        0x4021cddd0e6ee86f,
    ),
    (
        0,
        AlertRule::Fast,
        true,
        0x3fd630cefc4c9288,
        0x402db95781e6ff6e,
        0x402db95781e6ff6e,
    ),
];

#[test]
fn faulted_two_class_run_pins_classes_sketch_and_alert_log() {
    let r = simulate(&FleetConfig::paper_pair(), &golden_config());
    assert_eq!(r.digest_hex(), "483497642b102256");
    assert_eq!((r.completed, r.shed), (78_004, 1_996));
    assert_eq!(r.sketch_buckets, 293);

    assert_eq!(r.classes.len(), CLASSES.len());
    for (c, &(name, completed, shed, hits, attainment, p99)) in r.classes.iter().zip(&CLASSES) {
        assert_eq!(c.name, name);
        assert_eq!((c.completed, c.shed), (completed, shed), "{name} counts");
        // The report carries hits as attainment = hits / (completed +
        // shed); for a fixed denominator the quotient's bits identify
        // the integer numerator exactly.
        assert_eq!(
            c.slo_attainment.map(f64::to_bits),
            attainment,
            "{name} attainment"
        );
        let derived = c
            .slo_attainment
            .map(|a| (a * (c.completed + c.shed) as f64).round() as u64);
        assert_eq!(derived, hits, "{name} slo_hits");
        assert_eq!(c.p99_ms.to_bits(), p99, "{name} p99 {}", c.p99_ms);
    }
    assert_eq!(r.classes[0].alerts_fired, 4);
    assert_eq!(r.classes[1].alerts_fired, 0);

    assert_eq!(r.alert_events_dropped, 0);
    assert_eq!(r.alert_events.len(), ALERTS.len());
    for (i, (e, &(class, rule, fire, at, short, long))) in
        r.alert_events.iter().zip(&ALERTS).enumerate()
    {
        assert_eq!((e.class, e.rule, e.fire), (class, rule, fire), "alert {i}");
        assert_eq!(
            (
                e.at_s.to_bits(),
                e.burn_short.to_bits(),
                e.burn_long.to_bits()
            ),
            (at, short, long),
            "alert {i}: {e:?}"
        );
    }
}
