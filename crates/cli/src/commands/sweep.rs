//! `albireo sweep` — one-axis design-space sweep (ablations).

use super::{parse_estimate, parse_network, CliError, Command, ESTIMATE};
use crate::args::{flag, ArgError, Args, Flag, Kind};
use albireo_core::ablation::{sweep_nd, sweep_ng, sweep_nu};
use albireo_core::report::{format_seconds, format_table};

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("param", Kind::Str("ng|nd|nu"), "the swept parameter (required)"),
    flag("values", Kind::Ints { min: 1 }, "the swept values (required)"),
    flag("network", Kind::Str("NAME"), "benchmark network").or("vgg16"),
    flag("json", Kind::Bool, "emit JSON"),
];

pub(super) const COMMAND: Command = Command::new(
    "sweep",
    &[],
    "design-space sweep over Ng, Nd or Nu",
    &[FLAGS, ESTIMATE],
    run,
);

fn run(args: &Args) -> Result<String, CliError> {
    let param = args.required("param")?;
    let values = args
        .ints("values")
        .ok_or(ArgError::MissingOption("values"))?;
    let network = parse_network(args.str("network").unwrap_or_default())?;
    let estimate = parse_estimate(args)?;
    let points = match param {
        "ng" => sweep_ng(&values, estimate, &network),
        "nd" => sweep_nd(&values, estimate, &network),
        "nu" => sweep_nu(&values, estimate, &network),
        other => {
            return Err(CliError::Unknown(format!(
                "unknown sweep parameter `{other}` (try: ng, nd, nu)"
            )))
        }
    };
    if args.flag("json") {
        let mut out = String::from("[\n");
        for (i, p) in points.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"design\": \"{}\", \"power_w\": {:.6}, \"area_mm2\": {:.6}, \
                 \"latency_s\": {:.9}, \"edp_mj_ms\": {:.6}, \"precision_bits\": {:.6}}}{}\n",
                p.label,
                p.power_w,
                p.area_mm2,
                p.latency_s,
                p.edp_mj_ms,
                p.precision_bits,
                if i + 1 < points.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        return Ok(out);
    }
    let rows: Vec<Vec<String>> = points
        .into_iter()
        .map(|p| {
            vec![
                p.label,
                format!("{:.2}", p.power_w),
                format!("{:.0}", p.area_mm2),
                format_seconds(p.latency_s),
                format!("{:.2}", p.edp_mj_ms),
                format!("{:.2}", p.precision_bits),
            ]
        })
        .collect();
    Ok(format_table(
        &[
            "design",
            "power (W)",
            "area (mm²)",
            "latency",
            "EDP (mJ·ms)",
            "bits",
        ],
        &rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::super::tests::cli;

    #[test]
    fn sweep_requires_param_and_values() {
        assert!(cli("sweep --values 3,9").is_err());
        assert!(cli("sweep --param ng").is_err());
        let out = cli("sweep --param ng --values 3,9").unwrap();
        assert!(out.contains("Ng=3"));
        assert!(out.contains("Ng=9"));
    }

    #[test]
    fn sweep_rejects_unknown_param() {
        let err = cli("sweep --param nz --values 1").unwrap_err();
        assert!(err.to_string().contains("nz"));
    }

    #[test]
    fn sweep_json_emits_machine_readable_points() {
        let out = cli("sweep --param ng --values 3,9 --json").unwrap();
        assert!(out.trim_start().starts_with('['));
        assert!(out.trim_end().ends_with(']'));
        for key in [
            "\"design\"",
            "\"power_w\"",
            "\"latency_s\"",
            "\"edp_mj_ms\"",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        assert_eq!(out.matches("\"design\"").count(), 2);
    }
}
