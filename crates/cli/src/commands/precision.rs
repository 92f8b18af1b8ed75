//! `albireo precision` — the Figs. 3/4 precision analysis.

use super::{CliError, Command, COUNT, POSITIVE};
use crate::args::{flag, Args, Flag, Kind, Range};
use albireo_photonics::mrr::Microring;
use albireo_photonics::precision::PrecisionModel;
use albireo_photonics::OpticalParams;

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("k2", Kind::Float(Range::between(0.0, true, 1.0, true)), "ring power coupling k²").or("0.03"),
    flag("wavelengths", COUNT, "WDM channels").or("21"),
    flag("laser-mw", POSITIVE, "optical power per channel at the PD, mW").or("2"),
];

pub(super) const COMMAND: Command = Command::new(
    "precision",
    &[],
    "Figs. 3/4 precision analysis",
    &[FLAGS],
    run,
);

fn run(args: &Args) -> Result<String, CliError> {
    let k2 = args.get::<f64>("k2");
    let n = args.get::<usize>("wavelengths");
    let laser_mw = args.get::<f64>("laser-mw");
    let params = OpticalParams::paper();
    let ring = Microring::with_k2(&params, k2);
    let model = PrecisionModel::paper();
    let noise_bits = model.noise_limited_bits(n, laser_mw * 1e-3);
    let xtalk = model.crosstalk_limited_levels(&ring, n);
    let combined = model.combined_levels(&ring, n, laser_mw * 1e-3);
    Ok(format!(
        "ring: k²={k2}, FSR {:.2} nm, FWHM {:.3} nm, finesse {:.0}, bandwidth {:.1} GHz\n\
         at {n} wavelengths, {laser_mw} mW/channel at the PD:\n\
           noise-limited:     {:.2} bits\n\
           crosstalk-limited: {:.2} bits ({:.2} with negative rail)\n\
           combined:          {:.2} bits ({:.2} with negative rail)\n",
        ring.fsr() * 1e9,
        ring.fwhm() * 1e9,
        ring.finesse(),
        ring.bandwidth_hz() / 1e9,
        noise_bits,
        xtalk.log2(),
        PrecisionModel::with_negative_rail(xtalk).log2(),
        combined.log2(),
        PrecisionModel::with_negative_rail(combined).log2(),
    ))
}

#[cfg(test)]
mod tests {
    use super::super::tests::cli;

    #[test]
    fn precision_defaults_to_paper_point() {
        let out = cli("precision").unwrap();
        assert!(out.contains("k²=0.03"));
        assert!(out.contains("crosstalk-limited"));
    }

    #[test]
    fn precision_rejects_bad_k2() {
        assert!(cli("precision --k2 2.0").is_err());
        assert!(cli("precision --wavelengths 0").is_err());
    }
}
