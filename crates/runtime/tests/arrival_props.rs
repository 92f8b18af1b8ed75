//! Property tests for the arrival-process grammar: every valid process
//! renders to a spec that [`ArrivalProcess::parse`] turns back into the
//! identical value (every `f64` bit included), and no input string —
//! grammar-shaped or raw bytes — makes `parse` panic.

use albireo_runtime::ArrivalProcess;
use proptest::prelude::*;

/// Positive floats spread over eighteen decades, so `{}` rendering is
/// exercised on tiny, ordinary and huge magnitudes.
fn magnitude() -> impl Strategy<Value = f64> {
    (1.0f64..10.0, -9i32..9).prop_map(|(m, e)| m * 10f64.powi(e))
}

fn process() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        magnitude().prop_map(|rate_rps| ArrivalProcess::Poisson { rate_rps }),
        (magnitude(), magnitude(), magnitude(), magnitude()).prop_map(
            |(rate_rps, extra, on_s, off_s)| ArrivalProcess::Bursty {
                rate_rps,
                burst: 1.0 + extra,
                on_s,
                off_s,
            }
        ),
        (magnitude(), 1e-6f64..=1.0, magnitude()).prop_map(|(rate_rps, amplitude, period_s)| {
            ArrivalProcess::Diurnal {
                rate_rps,
                amplitude,
                period_s,
            }
        }),
        (
            magnitude(),
            magnitude(),
            prop_oneof![Just(0.0f64), magnitude()],
            magnitude()
        )
            .prop_map(
                |(rate_rps, extra, at_s, decay_s)| ArrivalProcess::FlashCrowd {
                    rate_rps,
                    spike: 1.0 + extra,
                    at_s,
                    decay_s,
                }
            ),
    ]
}

/// Strings assembled from the grammar's own pieces plus near misses.
fn grammar_soup() -> impl Strategy<Value = String> {
    const TOKENS: &[&str] = &[
        "poisson", "bursty", "diurnal", "flash", "trace", ":", ":", ":", "0", "1", "4", "0.5",
        "-1", "1e309", "nan", "inf", "-0", ".", "e", " ", "", "x", "\u{e9}",
    ];
    prop::collection::vec(0usize..TOKENS.len(), 0..8)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

fn raw_bytes() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..=255, 0..24)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

proptest! {
    #[test]
    fn display_parse_round_trips_exactly(p in process()) {
        prop_assert!(p.validate().is_ok(), "generated process must be valid: {p:?}");
        let spec = p.to_string();
        let back = ArrivalProcess::parse(&spec, p.mean_rate_rps());
        prop_assert_eq!(back, Ok(p));
    }

    #[test]
    fn parse_never_panics_on_grammar_soup(spec in grammar_soup(), rate in magnitude()) {
        // Whatever it returns, an accepted process passes the one range check.
        if let Ok(p) = ArrivalProcess::parse(&spec, rate) {
            prop_assert!(p.validate().is_ok());
            prop_assert_eq!(ArrivalProcess::parse(&p.to_string(), rate), Ok(p));
        }
    }

    #[test]
    fn parse_never_panics_on_raw_bytes(spec in raw_bytes(), rate in -1.0f64..1e6) {
        let _ = ArrivalProcess::parse(&spec, rate);
    }
}

#[test]
fn grammar_examples_parse_and_reject() {
    let bursty = ArrivalProcess::parse("bursty:4:0.01:0.04", 2000.0).unwrap();
    assert_eq!(
        bursty,
        ArrivalProcess::Bursty {
            rate_rps: 2000.0,
            burst: 4.0,
            on_s: 0.01,
            off_s: 0.04
        }
    );
    assert_eq!(bursty.to_string(), "bursty:4:0.01:0.04");
    for bad in [
        "",
        "warp",
        "poisson:1",
        "bursty",
        "bursty:4:0.01",
        "bursty:4:0.01:0.04:1",
        "bursty:1:0.01:0.04",
        "bursty:4:0:0.04",
        "diurnal:1.5:1",
        "diurnal:0:1",
        "diurnal:0.5:inf",
        "flash:0.5:0.05:0.1",
        "flash:8:-1:0.1",
        "flash:8:0.05:nan",
        "trace",
        "trace_file:/tmp/x.jsonl",
    ] {
        assert!(
            ArrivalProcess::parse(bad, 1000.0).is_err(),
            "`{bad}` should be rejected"
        );
    }
    // The rate is range-checked too.
    assert!(ArrivalProcess::parse("poisson", 0.0).is_err());
    assert!(ArrivalProcess::parse("poisson", f64::INFINITY).is_err());
}
