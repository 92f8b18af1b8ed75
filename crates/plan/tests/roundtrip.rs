//! Property tests pinning the planner grammar's round-trip contract:
//! for every [`PlanSpec`], [`SloSpec`], and
//! [`AutoscalePolicy`](albireo_runtime::AutoscalePolicy) the canonical
//! `Display` form parses back to the *identical* value — including
//! every `f64` bit, because `Display` uses `{}` (Rust's shortest
//! round-trip float representation) throughout. This is what makes a
//! plan reproducible from its one-line spec echo alone.

use albireo_plan::{PlanSpec, SloSpec};
use albireo_runtime::{
    ArrivalProcess, AutoscalePolicy, BatchPolicy, ClassSpec, FaultSpec, Workload,
};
use proptest::prelude::*;

fn slo_strategy() -> impl Strategy<Value = SloSpec> {
    (
        0.05f64..100.0,
        prop_oneof![1 => Just(None), 2 => (0.5f64..1.0).prop_map(Some)],
        prop_oneof![1 => Just(0.0f64), 2 => 1e-4f64..0.5],
    )
        .prop_map(|(p99_ms, min_attainment, max_shed_rate)| SloSpec {
            p99_ms,
            min_attainment,
            max_shed_rate,
        })
}

fn autoscale_strategy() -> impl Strategy<Value = AutoscalePolicy> {
    prop_oneof![
        1 => Just(AutoscalePolicy::None),
        1 => Just(AutoscalePolicy::Static),
        3 => (1usize..64, 0.0f64..0.05, 1usize..8).prop_map(|(up_depth, warmup_s, min_chips)| {
            AutoscalePolicy::Elastic { up_depth, warmup_s, min_chips }
        }),
    ]
}

fn arrival_strategy() -> impl Strategy<Value = ArrivalProcess> {
    let rate = 1.0f64..20_000.0;
    prop_oneof![
        2 => rate.clone().prop_map(|rate_rps| ArrivalProcess::Poisson { rate_rps }),
        1 => (rate.clone(), 1.001f64..20.0, 1e-3f64..0.1, 1e-3f64..0.5).prop_map(
            |(rate_rps, burst, on_s, off_s)| ArrivalProcess::Bursty { rate_rps, burst, on_s, off_s }
        ),
        1 => (rate.clone(), 1e-3f64..1.0, 0.01f64..100.0).prop_map(
            |(rate_rps, amplitude, period_s)| ArrivalProcess::Diurnal { rate_rps, amplitude, period_s }
        ),
        1 => (rate, 1.001f64..20.0, 0.0f64..1.0, 1e-3f64..1.0).prop_map(
            |(rate_rps, spike, at_s, decay_s)| ArrivalProcess::FlashCrowd { rate_rps, spike, at_s, decay_s }
        ),
    ]
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (
        arrival_strategy(),
        prop::collection::vec(0.001f64..100.0, 1..4),
        prop::collection::vec(
            (
                0.001f64..100.0,
                prop_oneof![1 => Just(None), 1 => (0.1f64..50.0).prop_map(Some)],
            ),
            0..3,
        ),
    )
        .prop_map(|(process, mix_weights, class_params)| {
            let names = ["interactive", "batch", "bulk"];
            Workload {
                process,
                mix: mix_weights.into_iter().enumerate().collect(),
                classes: class_params
                    .into_iter()
                    .enumerate()
                    .map(|(i, (weight, slo_ms))| match slo_ms {
                        Some(slo) => ClassSpec::with_slo(names[i], weight, slo),
                        None => ClassSpec::best_effort(names[i], weight),
                    })
                    .collect(),
            }
        })
}

/// Fault scenarios built from generated clause strings (the grammar is
/// the canonical form, so parse(join(clauses)) both constructs the spec
/// and exercises the parser). Times render via `{}` — bit-exact through
/// a Display/parse cycle like every other float in the spec line.
fn faults_strategy() -> impl Strategy<Value = FaultSpec> {
    let clause = prop_oneof![
        (0usize..8, 0.0f64..5.0).prop_map(|(c, t)| format!("fail:{c}@{t}")),
        (0usize..8, 0.0f64..5.0).prop_map(|(c, t)| format!("recover:{c}@{t}")),
        (0usize..8, 0.0f64..5.0, 1usize..4).prop_map(|(c, t, n)| format!("degrade:{c}@{t}:{n}")),
        (0usize..4, 0usize..4, 0.0f64..5.0)
            .prop_map(|(a, b, t)| { format!("rack:{}-{}@{t}", a.min(b), a.max(b)) }),
        (0usize..4, 0usize..4, 0.0f64..5.0, 1e-3f64..5.0, 1usize..4).prop_map(
            |(a, b, start, len, n)| {
                format!(
                    "thermal:{}-{}@{start}-{}:{n}",
                    a.min(b),
                    a.max(b),
                    start + len
                )
            }
        ),
    ];
    (
        prop::collection::vec(clause, 0..4),
        prop_oneof![
            2 => Just(None),
            1 => (1usize..4, 1e-3f64..1.0, 0u64..1_000_000).prop_map(Some),
        ],
    )
        .prop_map(|(mut clauses, crews)| {
            if let Some((k, mean_s, seed)) = crews {
                clauses.push(format!("crews:{k}:{mean_s}:{seed}"));
            }
            if clauses.is_empty() {
                FaultSpec::none()
            } else {
                FaultSpec::parse(&clauses.join(",")).expect("generated clauses are valid")
            }
        })
}

fn plan_strategy() -> impl Strategy<Value = PlanSpec> {
    let search_axes = (
        // (kinds bitmask over 3 choices, max_chips)
        (1usize..8, 1usize..5),
        // policies: immediate always; optionally size:N and deadline
        (
            prop::bool::ANY,
            2usize..16,
            prop::bool::ANY,
            (1e-6f64..1e-2, 1usize..16),
        ),
        // autoscale: static always; optionally none and elastic
        (
            prop::bool::ANY,
            prop::bool::ANY,
            (1usize..32, 0.0f64..0.01, 1usize..4),
        ),
        // queue capacity
        prop_oneof![3 => (1usize..4096).prop_map(Some), 1 => Just(None)],
    );
    let run_shape = (
        10usize..2000,
        0.0f64..1.0, // screen fraction of requests
        0u64..u64::MAX,
        1usize..4,
    );
    (
        workload_strategy(),
        slo_strategy(),
        search_axes,
        run_shape,
        faults_strategy(),
    )
        .prop_map(|(workload, slo, axes, shape, faults)| {
            let ((kind_mask, max_chips), policy_axes, scale_axes, queue) = axes;
            let (requests, screen_frac, seed, replicas) = shape;
            let all_kinds = ["albireo_9:C", "albireo_27:C", "albireo_9:A"];
            let chip_kinds: Vec<String> = all_kinds
                .iter()
                .enumerate()
                .filter(|(i, _)| kind_mask & (1 << i) != 0)
                .map(|(_, k)| k.to_string())
                .collect();
            let (with_size, size, with_deadline, (max_wait_s, max_size)) = policy_axes;
            let mut policies = vec![BatchPolicy::Immediate];
            if with_size {
                policies.push(BatchPolicy::SizeN { size });
            }
            if with_deadline {
                policies.push(BatchPolicy::Deadline {
                    max_wait_s,
                    max_size,
                });
            }
            let (with_none, with_elastic, (up_depth, warmup_s, min_chips)) = scale_axes;
            let mut autoscale = vec![AutoscalePolicy::Static];
            if with_none {
                autoscale.push(AutoscalePolicy::None);
            }
            if with_elastic {
                autoscale.push(AutoscalePolicy::Elastic {
                    up_depth,
                    warmup_s,
                    min_chips,
                });
            }
            let screen_requests = 1 + (screen_frac * (requests - 1) as f64) as usize;
            // Every fault clause must name a chip of the largest fleet;
            // generated chip indices are all below 8.
            let max_chips = if faults.check_fleet(max_chips).is_ok() {
                max_chips
            } else {
                8
            };
            PlanSpec {
                workload,
                requests,
                screen_requests: screen_requests.min(requests),
                seed,
                replicas,
                slo,
                chip_kinds,
                max_chips,
                policies,
                queue_capacity: queue.unwrap_or(usize::MAX),
                autoscale,
                faults,
            }
        })
}

proptest! {
    /// `SloSpec`: parse(display(x)) == x, bit-exact.
    #[test]
    fn slo_round_trips(slo in slo_strategy()) {
        let line = slo.to_string();
        let back = SloSpec::parse(&line).unwrap();
        prop_assert_eq!(back, slo);
    }

    /// `AutoscalePolicy`: parse(display(x)) == x, bit-exact (warm-up
    /// seconds are stored and rendered in the same unit, so no
    /// conversion can lose bits).
    #[test]
    fn autoscale_round_trips(policy in autoscale_strategy()) {
        let line = policy.to_string();
        let back = AutoscalePolicy::parse(&line).unwrap();
        prop_assert_eq!(back, policy);
    }

    /// `PlanSpec`: the full grammar — workload, SLO, and every search
    /// axis — survives a Display/parse cycle exactly.
    #[test]
    fn plan_spec_round_trips(spec in plan_strategy()) {
        prop_assert!(spec.validate().is_ok());
        let line = spec.to_string();
        let back = PlanSpec::parse(&line).unwrap();
        prop_assert_eq!(back, spec);
    }

    /// The canonical form is a fixed point: display(parse(display(x)))
    /// == display(x).
    #[test]
    fn display_is_canonical(spec in plan_strategy()) {
        let line = spec.to_string();
        let reparsed = PlanSpec::parse(&line).unwrap();
        prop_assert_eq!(reparsed.to_string(), line);
    }
}
