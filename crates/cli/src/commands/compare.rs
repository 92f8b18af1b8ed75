//! `albireo compare` — every backend flows through the same
//! [`Accelerator`] trait, so adding a backend adds a row here for free.

use super::{parse_network, CliError, Command};
use crate::args::{flag, Args, Flag, Kind};
use albireo_baselines::{reported_accelerators, Accelerator, DeapCnn, Pixel};
use albireo_core::accel::AlbireoAccelerator;
use albireo_core::config::TechnologyEstimate;
use albireo_core::report::{format_joules, format_seconds, format_table};
use albireo_modes::{GemmMode, WinogradAccelerator};

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("network", Kind::Str("NAME"), "benchmark network").or("vgg16"),
];

pub(super) const COMMAND: Command = Command::new(
    "compare",
    &[],
    "baselines + winograd/gemm modes",
    &[FLAGS],
    run,
);

fn run(args: &Args) -> Result<String, CliError> {
    let network = parse_network(args.str("network").unwrap_or_default())?;
    let c = TechnologyEstimate::Conservative;
    let mut accels: Vec<Box<dyn Accelerator>> = vec![
        Box::new(Pixel::paper_60w()),
        Box::new(DeapCnn::paper_60w()),
        Box::new(AlbireoAccelerator::albireo_27(c)),
        Box::new(WinogradAccelerator::winograd_27(c)),
        Box::new(GemmMode::gemm_27(c)),
    ];
    for acc in reported_accelerators() {
        accels.push(Box::new(acc));
    }
    let rows: Vec<Vec<String>> = accels
        .iter()
        .filter(|a| a.supports(&network))
        .map(|a| {
            let c = a.cost(&network);
            vec![
                a.description(),
                format_seconds(c.latency_s),
                format_joules(c.energy_j),
                format!("{:.3}", c.edp_mj_ms()),
            ]
        })
        .collect();
    Ok(format!(
        "{}:\n{}",
        network.name(),
        format_table(&["accelerator", "latency", "energy", "EDP (mJ·ms)"], &rows)
    ))
}

#[cfg(test)]
mod tests {
    use super::super::tests::cli;

    #[test]
    fn compare_includes_all_baselines() {
        let out = cli("compare --network alexnet").unwrap();
        for name in [
            "PIXEL",
            "DEAP-CNN",
            "Albireo-27",
            "Eyeriss",
            "ENVISION",
            "UNPU",
        ] {
            assert!(out.contains(name), "missing {name} in {out}");
        }
    }

    #[test]
    fn compare_includes_operating_modes() {
        // Winograd supports every network (direct fallback); the GEMM
        // mode only appears for dense/pointwise networks — compare's
        // supports() filter hides it on spatial CNNs.
        let cnn = cli("compare --network vgg16").unwrap();
        assert!(cnn.contains("Winograd"), "{cnn}");
        assert!(!cnn.contains("GEMM"), "{cnn}");
        let dense = cli("compare --network mlp-mixer").unwrap();
        assert!(dense.contains("GEMM"), "{dense}");
        assert!(dense.contains("Winograd"), "{dense}");
    }
}
