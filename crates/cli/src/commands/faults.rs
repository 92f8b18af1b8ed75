//! `albireo faults` — inject hardware faults into the analog engine and
//! report the error impact on a reference convolution.

use super::{chip_from, CliError, Command, COUNT0, NG};
use crate::args::{flag, ArgError, Args, Flag, Kind};
use albireo_core::analog::{AnalogEngine, AnalogSimConfig, Fault, FaultSet};
use albireo_tensor::conv::{conv2d, ConvSpec};
use albireo_tensor::{Tensor3, Tensor4};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("dead-ring", Kind::Ints { min: 0 }, "kill the ring at row,column,output R,C,O"),
    flag("dead-channel", COUNT0, "kill one wavelength channel (column index)"),
    flag("stuck-mzm", Kind::List("R,C,W"), "stick one MZM at weight W"),
];

pub(super) const COMMAND: Command = Command::new(
    "faults",
    &[],
    "analog-engine fault injection",
    &[FLAGS, NG],
    run,
);

fn run(args: &Args) -> Result<String, CliError> {
    let mut set = FaultSet::new();
    if let Some(parts) = args.ints("dead-ring") {
        let [row, col, output] = parts[..] else {
            return Err(CliError::Unknown("--dead-ring needs R,C,O".into()));
        };
        set.push(Fault::DeadRing { row, col, output });
    }
    if let Some(column) = args.num("dead-channel") {
        set.push(Fault::DeadChannel { column });
    }
    if let Some(raw) = args.str("stuck-mzm") {
        let bad = || CliError::Unknown(format!("--stuck-mzm needs R,C,W, got `{raw}`"));
        let [row, col, weight] = raw.split(',').map(str::trim).collect::<Vec<_>>()[..] else {
            return Err(bad());
        };
        set.push(Fault::StuckMzm {
            row: row.parse().map_err(|_| bad())?,
            col: col.parse().map_err(|_| bad())?,
            weight: weight
                .parse()
                .ok()
                .filter(|w: &f64| w.is_finite())
                .ok_or_else(bad)?,
        });
    }

    let chip = chip_from(args);
    set.check(&chip).map_err(|e| {
        let (flag, value) = match e.fault {
            Fault::DeadRing { row, col, output } => ("dead-ring", format!("{row},{col},{output}")),
            Fault::StuckMzm { row, col, weight } => ("stuck-mzm", format!("{row},{col},{weight}")),
            Fault::DeadChannel { column } => ("dead-channel", column.to_string()),
        };
        CliError::Args(ArgError::Invalid(flag, value, e.expected))
    })?;
    let mut rng = StdRng::seed_from_u64(1550);
    let input = Tensor3::random_uniform(3, 12, 12, 0.0, 1.0, &mut rng);
    let kernels = Tensor4::random_gaussian(2, 3, 3, 3, 0.3, &mut rng);
    let spec = ConvSpec::unit();
    let reference = conv2d(&input, &kernels, &spec);
    let fs = input.max_abs() * kernels.max_abs() * 27.0;

    let healthy = {
        let mut e = AnalogEngine::new(&chip, AnalogSimConfig::default());
        e.conv2d(&input, &kernels, &spec).max_abs_diff(&reference) / fs
    };
    let injected = set.len();
    let faulty = {
        let mut e = AnalogEngine::new(&chip, AnalogSimConfig::default());
        e.inject_faults(set);
        e.conv2d(&input, &kernels, &spec).max_abs_diff(&reference) / fs
    };
    Ok(format!(
        "reference 3x3x3 convolution, {injected} fault(s) injected:\n  healthy error: {:.3e} of full scale ({:.1} effective bits)\n  faulty  error: {:.3e} of full scale ({:.1} effective bits)\n  degradation:   {:.1}x\n",
        healthy,
        -healthy.log2(),
        faulty,
        -faulty.log2(),
        faulty / healthy,
    ))
}

#[cfg(test)]
mod tests {
    use super::super::tests::cli;

    #[test]
    fn faults_command_reports_degradation() {
        let healthy = cli("faults").unwrap();
        assert!(healthy.contains("0 fault(s)"));
        let broken = cli("faults --dead-channel 1").unwrap();
        assert!(broken.contains("1 fault(s)"));
        assert!(broken.contains("degradation"));
    }

    #[test]
    fn faults_command_validates_triples() {
        assert!(cli("faults --dead-ring 1,2").is_err());
        assert!(cli("faults --stuck-mzm 1,2").is_err());
        assert!(cli("faults --dead-ring 1,2,3").is_ok());
        assert!(cli("faults --stuck-mzm 0,0,0.5").is_ok());
    }

    #[test]
    fn faults_command_rejects_faults_outside_the_plcu() {
        for line in [
            "faults --dead-ring 9,9,9",
            "faults --dead-ring 0,0,5",
            "faults --dead-channel 7",
            "faults --stuck-mzm 3,0,0.5",
            "faults --stuck-mzm 0,0,1.5",
        ] {
            let err = cli(line).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{line}: {err}");
        }
        assert!(cli("faults --dead-ring 2,2,4 --dead-channel 6 --stuck-mzm 2,2,-1").is_ok());
    }

    #[test]
    fn faults_command_rejects_bad_dead_channel() {
        let err = cli("faults --dead-channel broken").unwrap_err();
        assert!(err.to_string().contains("dead-channel"), "{err}");
        assert_eq!(err.exit_code(), 2);
    }
}
