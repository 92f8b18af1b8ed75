//! Bit-identity golden for the analog engine.
//!
//! Every case pushes seeded data through one analog entry point
//! (`conv2d`, `conv2d_large`, `conv2d_grouped` or `dot`) and pins an
//! FNV-1a digest over the bit patterns of the output. The matrix walks
//! every branch of the kernel: noise and crosstalk on/off, digital
//! crosstalk compensation, row-interleaved allocation, strides and
//! padding, each fault kind alone and combined, the large-kernel
//! decompositions, grouped convolution and a non-paper chip geometry.
//! Each case runs at one and at four threads; both must hit the pin.
//!
//! The digests were taken from a direct evaluation of the signal chain
//! (one ring transfer-function call per row, column, output and channel);
//! any rewrite of the analog inner loop must reproduce them exactly.

use albireo_core::analog::{AnalogEngine, AnalogSimConfig, ChannelAllocation, Fault, FaultSet};
use albireo_core::config::{ChipConfig, PlcuConfig};
use albireo_parallel::Parallelism;
use albireo_tensor::conv::ConvSpec;
use albireo_tensor::{Tensor3, Tensor4};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over the little-endian bit patterns of `values`.
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

#[derive(Clone, Copy)]
enum Op {
    Conv,
    Large,
    Grouped(usize),
    Dot,
}

struct Case {
    name: &'static str,
    chip: ChipConfig,
    cfg: AnalogSimConfig,
    faults: &'static [Fault],
    op: Op,
    /// (input depth, height = width, kernels, kernel rows, kernel cols)
    shape: (usize, usize, usize, usize, usize),
    spec: ConvSpec,
}

fn noise_only() -> AnalogSimConfig {
    AnalogSimConfig {
        enable_crosstalk: false,
        ..AnalogSimConfig::default()
    }
}

fn crosstalk_only() -> AnalogSimConfig {
    AnalogSimConfig {
        enable_noise: false,
        ..AnalogSimConfig::default()
    }
}

const DEAD_RING: &[Fault] = &[Fault::DeadRing {
    row: 1,
    col: 2,
    output: 3,
}];
const STUCK_MZM: &[Fault] = &[Fault::StuckMzm {
    row: 2,
    col: 0,
    weight: -0.75,
}];
const DEAD_CHANNEL: &[Fault] = &[Fault::DeadChannel { column: 4 }];
const COMBINED: &[Fault] = &[
    Fault::DeadRing {
        row: 0,
        col: 1,
        output: 0,
    },
    Fault::StuckMzm {
        row: 1,
        col: 1,
        weight: 0.5,
    },
    // A second override of the same MZM: the first one wins.
    Fault::StuckMzm {
        row: 1,
        col: 1,
        weight: -1.0,
    },
    Fault::StuckMzm {
        row: 0,
        col: 2,
        weight: 0.0,
    },
    Fault::DeadChannel { column: 0 },
    Fault::DeadChannel { column: 6 },
    Fault::DeadRing {
        row: 2,
        col: 2,
        output: 4,
    },
];

fn cases() -> Vec<Case> {
    let a9 = ChipConfig::albireo_9();
    let wide = ChipConfig {
        plcu: PlcuConfig { nm: 16, nd: 7 },
        nu: 2,
        ..ChipConfig::albireo_9()
    };
    let unit = ConvSpec::unit();
    let base = |name, cfg| Case {
        name,
        chip: a9,
        cfg,
        faults: &[],
        op: Op::Conv,
        shape: (7, 11, 4, 3, 3),
        spec: unit,
    };
    let def = AnalogSimConfig::default();
    vec![
        base("default", def),
        base("ideal", AnalogSimConfig::ideal()),
        base("noise_only", noise_only()),
        base("crosstalk_only", crosstalk_only()),
        base(
            "compensated_noisy",
            AnalogSimConfig {
                crosstalk_compensation: true,
                ..def
            },
        ),
        base(
            "compensated_quiet",
            AnalogSimConfig {
                crosstalk_compensation: true,
                ..crosstalk_only()
            },
        ),
        base(
            "interleaved",
            AnalogSimConfig {
                allocation: ChannelAllocation::RowInterleaved,
                ..def
            },
        ),
        Case {
            spec: ConvSpec::new(1, 1),
            ..base("padded", def)
        },
        Case {
            spec: ConvSpec::new(2, 1),
            ..base("stride2", def)
        },
        Case {
            faults: DEAD_RING,
            ..base("dead_ring", def)
        },
        Case {
            faults: STUCK_MZM,
            ..base("stuck_mzm", def)
        },
        Case {
            faults: DEAD_CHANNEL,
            ..base("dead_channel", def)
        },
        Case {
            faults: COMBINED,
            ..base("combined_faults", def)
        },
        Case {
            faults: COMBINED,
            ..base(
                "combined_faults_compensated",
                AnalogSimConfig {
                    crosstalk_compensation: true,
                    ..def
                },
            )
        },
        Case {
            op: Op::Large,
            shape: (3, 12, 3, 5, 5),
            spec: ConvSpec::new(1, 2),
            ..base("large_5x5", def)
        },
        Case {
            op: Op::Large,
            shape: (3, 23, 2, 11, 11),
            spec: ConvSpec::new(4, 0),
            ..base("large_11x11_s4", def)
        },
        Case {
            op: Op::Large,
            shape: (2, 16, 2, 1, 11),
            ..base("large_1x11", def)
        },
        Case {
            op: Op::Large,
            shape: (3, 12, 3, 5, 5),
            faults: COMBINED,
            ..base("large_5x5_faults", def)
        },
        Case {
            op: Op::Grouped(2),
            shape: (8, 10, 4, 3, 3),
            spec: ConvSpec::new(1, 1),
            ..base("grouped2", def)
        },
        Case {
            chip: ChipConfig::albireo_27(),
            ..base("albireo_27", def)
        },
        Case {
            chip: wide,
            shape: (5, 12, 3, 3, 3),
            ..base("nd7_nm16", def)
        },
        Case {
            chip: wide,
            shape: (5, 12, 3, 4, 4),
            faults: COMBINED,
            ..base(
                "nd7_nm16_4x4_compensated",
                AnalogSimConfig {
                    crosstalk_compensation: true,
                    ..def
                },
            )
        },
        Case {
            op: Op::Dot,
            shape: (200, 0, 0, 0, 0),
            ..base("dot", def)
        },
        Case {
            op: Op::Dot,
            shape: (200, 0, 0, 0, 0),
            ..base("dot_ideal", AnalogSimConfig::ideal())
        },
    ]
}

fn run(case: &Case, threads: usize) -> Vec<f64> {
    let mut engine = AnalogEngine::new(&case.chip, case.cfg)
        .with_parallelism(Parallelism::with_threads(threads));
    let mut faults = FaultSet::new();
    for f in case.faults {
        faults.push(*f);
    }
    engine.inject_faults(faults);
    let mut rng = StdRng::seed_from_u64(fnv1a(&[case.shape.0 as f64, case.shape.1 as f64]));
    let (z, n, m, wy, wx) = case.shape;
    if let Op::Dot = case.op {
        let a: Vec<f64> = (0..z).map(|_| rng.random::<f64>()).collect();
        let w: Vec<f64> = (0..z).map(|_| rng.random::<f64>() - 0.5).collect();
        return vec![engine.dot(&a, &w)];
    }
    let groups = match case.op {
        Op::Grouped(g) => g,
        _ => 1,
    };
    let input = Tensor3::random_uniform(z, n, n, 0.0, 1.0, &mut rng);
    let kernels = Tensor4::random_gaussian(m, z / groups, wy, wx, 0.4, &mut rng);
    let out = match case.op {
        Op::Conv => engine.conv2d(&input, &kernels, &case.spec),
        Op::Large => engine.conv2d_large(&input, &kernels, &case.spec),
        Op::Grouped(g) => engine.conv2d_grouped(&input, &kernels, &case.spec, g),
        Op::Dot => unreachable!(),
    };
    out.into_vec()
}

/// Pinned digests, one per case name.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("default", 0x3464c29429904b03),
    ("ideal", 0x68fae34d90ff31bc),
    ("noise_only", 0x2fbfb9f9cfcf3add),
    ("crosstalk_only", 0xf4f6eb2c56713481),
    ("compensated_noisy", 0x958457d1a1b8ec28),
    ("compensated_quiet", 0xf4ab21714663fdc3),
    ("interleaved", 0x4910ac688b294805),
    ("padded", 0x059794ccc845898e),
    ("stride2", 0x92659dc0d4f39556),
    ("dead_ring", 0x405beaae86be0d7f),
    ("stuck_mzm", 0xb439b0ba168e80ce),
    ("dead_channel", 0xf252260ec41f8daa),
    ("combined_faults", 0x710f215cfbad5630),
    ("combined_faults_compensated", 0x31e5d03abc603c66),
    ("large_5x5", 0x5f924e95f9495de7),
    ("large_11x11_s4", 0x68e7225f5f62a5eb),
    ("large_1x11", 0xe95c2f216a5588ba),
    ("large_5x5_faults", 0x3383bbf4073669bc),
    ("grouped2", 0x07c3d88a2585b780),
    ("albireo_27", 0x4f79e28374f3b389),
    ("nd7_nm16", 0x642ab643c9061f68),
    ("nd7_nm16_4x4_compensated", 0x58a2cf076c330005),
    ("dot", 0x4786ceae11eb437d),
    ("dot_ideal", 0x1d608c59ad675b85),
];

#[test]
fn analog_outputs_match_the_pinned_digests() {
    let mut mismatches = Vec::new();
    for case in cases() {
        let want = GOLDEN.iter().find(|(n, _)| *n == case.name).map(|g| g.1);
        for threads in [1, 4] {
            let got = fnv1a(&run(&case, threads));
            if want != Some(got) {
                mismatches.push(format!(
                    "    (\"{}\", 0x{got:016x}), // threads {threads}",
                    case.name
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "analog digests moved:\n{}",
        mismatches.join("\n")
    );
}
