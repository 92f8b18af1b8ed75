//! Integration tests asserting the reproduction against the numbers the
//! paper itself reports — the cross-crate oracle suite.

use albireo::baselines::{reported_accelerators, Accelerator, DeapCnn, Pixel};
use albireo::core::area::AreaBreakdown;
use albireo::core::config::{ChipConfig, TechnologyEstimate};
use albireo::core::energy::NetworkEvaluation;
use albireo::core::inventory::DeviceInventory;
use albireo::core::power::PowerBreakdown;
use albireo::nn::zoo;
use albireo::photonics::mrr::Microring;
use albireo::photonics::precision::PrecisionModel;
use albireo::photonics::OpticalParams;

#[test]
fn table_ii_fsr_anchor() {
    let ring = Microring::from_params(&OpticalParams::paper());
    assert!((ring.fsr() * 1e9 - 16.1).abs() < 0.4);
}

#[test]
fn section_v_device_count_anchors() {
    let inv = DeviceInventory::for_chip(&ChipConfig::albireo_9());
    assert_eq!(inv.dacs, 306, "paper: Albireo uses only 306 DACs");
    assert_eq!(inv.tias, 45, "paper: Albireo uses only 45 TIAs");
    // DEAP-CNN uses 6.6 X more DACs (2034) and 113 TIAs.
    assert!((2034.0 / inv.dacs as f64 - 6.6).abs() < 0.1);
}

#[test]
fn table_iii_totals() {
    let chip = ChipConfig::albireo_9();
    let expectations = [
        (TechnologyEstimate::Conservative, 22.7),
        (TechnologyEstimate::Moderate, 6.19),
        (TechnologyEstimate::Aggressive, 1.64),
    ];
    for (estimate, expected) in expectations {
        let total = PowerBreakdown::for_chip(&chip, estimate).total_w();
        assert!(
            (total - expected).abs() / expected < 0.02,
            "Albireo-{}: {total} W vs paper {expected} W",
            estimate.suffix()
        );
    }
}

#[test]
fn albireo_27_fits_60w() {
    let total =
        PowerBreakdown::for_chip(&ChipConfig::albireo_27(), TechnologyEstimate::Conservative)
            .total_w();
    assert!((total - 58.8).abs() < 0.6, "paper: 58.8 W, got {total}");
}

#[test]
fn fig9_area_anchors() {
    let area = AreaBreakdown::for_chip(&ChipConfig::albireo_9());
    assert!((area.total_mm2() - 124.6).abs() / 124.6 < 0.01);
    let rows = area.rows();
    let awg = rows.iter().find(|r| r.0 == "AWG").unwrap();
    assert!((awg.2 - 0.72).abs() < 0.02, "AWG share {}", awg.2);
    let star = rows.iter().find(|r| r.0 == "Star coupler").unwrap();
    assert!((star.2 - 0.17).abs() < 0.01, "star share {}", star.2);
    let mzm = rows.iter().find(|r| r.0 == "MZM").unwrap();
    assert!((mzm.2 - 0.037).abs() < 0.003, "MZM share {}", mzm.2);
}

#[test]
fn section_ii_precision_anchors() {
    let model = PrecisionModel::paper();
    // Fig. 3: 10 bits @ 2 mW laser, 20 wavelengths.
    let noise_bits = model.noise_limited_bits(20, 2e-3);
    assert!((9.0..11.0).contains(&noise_bits), "bits = {noise_bits}");
    // §II-C2: 6 bits positive-only, 7 with the negative rail.
    let ring = Microring::from_params(&OpticalParams::paper());
    let levels = model.crosstalk_limited_levels(&ring, 20);
    assert!((5.5..6.6).contains(&levels.log2()));
    let with_neg = PrecisionModel::with_negative_rail(levels).log2();
    assert!((6.5..7.6).contains(&with_neg));
}

#[test]
fn table_iv_latency_shape() {
    let chip = ChipConfig::albireo_9();
    let vgg = NetworkEvaluation::evaluate(&chip, TechnologyEstimate::Conservative, &zoo::vgg16());
    let alex =
        NetworkEvaluation::evaluate(&chip, TechnologyEstimate::Conservative, &zoo::alexnet());
    // Paper: 2.55 ms VGG16, 0.13 ms AlexNet on Albireo-C. Bounds are the
    // measured errors (12.9%, 58.3%) plus about two points, as in
    // `albireo bench oracles`.
    assert!(
        (vgg.latency_s * 1e3 - 2.55).abs() / 2.55 < 0.15,
        "{}",
        vgg.latency_s * 1e3
    );
    assert!(
        (alex.latency_s * 1e3 - 0.13).abs() / 0.13 < 0.61,
        "{}",
        alex.latency_s * 1e3
    );
    // VGG16 : AlexNet latency ratio ≈ 20 X in the paper.
    let ratio = vgg.latency_s / alex.latency_s;
    assert!((10.0..25.0).contains(&ratio), "ratio = {ratio}");
}

#[test]
fn table_iv_every_albireo_estimate_beats_every_electronic_latency() {
    let chip = ChipConfig::albireo_9();
    for model in [zoo::alexnet(), zoo::vgg16()] {
        for estimate in TechnologyEstimate::all() {
            let e = NetworkEvaluation::evaluate(&chip, estimate, &model);
            for acc in reported_accelerators() {
                let r = acc.results[model.name()];
                assert!(
                    e.latency_s < r.latency_s,
                    "Albireo-{} should beat {} on {}",
                    estimate.suffix(),
                    acc.name,
                    model.name()
                );
            }
        }
    }
}

#[test]
fn abstract_headline_ratios_hold_in_order_of_magnitude() {
    let chip = ChipConfig::albireo_9();
    let electronic = reported_accelerators();
    let mut latency_ratios = Vec::new();
    let mut edp_ratios_c = Vec::new();
    for model in [zoo::alexnet(), zoo::vgg16()] {
        let c = NetworkEvaluation::evaluate(&chip, TechnologyEstimate::Conservative, &model);
        for acc in &electronic {
            let r = acc.results[model.name()];
            latency_ratios.push(r.latency_s / c.latency_s);
            edp_ratios_c.push(r.edp_mj_ms() / c.edp_mj_ms());
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    // Paper abstract: 110 X throughput, 74 X EDP on average for Albireo-C.
    let lat = mean(&latency_ratios);
    assert!((40.0..400.0).contains(&lat), "mean latency ratio {lat}");
    let edp = mean(&edp_ratios_c);
    assert!(edp > 30.0, "mean EDP ratio {edp}");
}

#[test]
fn fig8_photonic_ordering_on_all_networks() {
    let pixel = Pixel::paper_60w();
    let deap = DeapCnn::paper_60w();
    let a27 = ChipConfig::albireo_27();
    for model in zoo::all_benchmarks() {
        let p = pixel.cost(&model);
        let d = deap.cost(&model);
        let a = NetworkEvaluation::evaluate(&a27, TechnologyEstimate::Conservative, &model);
        assert!(p.latency_s > d.latency_s, "{}: PIXEL slowest", model.name());
        assert!(
            d.latency_s > a.latency_s,
            "{}: Albireo fastest",
            model.name()
        );
        assert!(p.edp_mj_ms() > d.edp_mj_ms());
        assert!(d.edp_mj_ms() > a.edp_mj_ms());
    }
}

#[test]
fn all_designs_within_power_budget() {
    // Every design in the 60 W comparison respects the budget.
    assert!(Pixel::paper_60w().power_w <= 60.0);
    assert!(DeapCnn::paper_60w().power_w <= 60.0);
    let a27 = PowerBreakdown::for_chip(&ChipConfig::albireo_27(), TechnologyEstimate::Conservative);
    assert!(a27.total_w() <= 60.0);
}

#[test]
fn mzm_area_efficiency_claim() {
    // §IV-B: an MZM achieves 333 GOPS/mm² multiplying one input at 5 GHz
    // (5e9 ops / 0.015 mm²), 46 X better than a 7.3 GOPS/mm² electronic
    // approximate multiplier.
    let p = OpticalParams::paper();
    let mzm_gops_per_mm2 = 5e9 / 1e9 / (p.mzm.area_m2 * 1e6);
    assert!(
        (mzm_gops_per_mm2 - 333.0).abs() / 333.0 < 0.01,
        "{mzm_gops_per_mm2}"
    );
    assert!((mzm_gops_per_mm2 / 7.3 - 46.0).abs() < 1.0);
}
