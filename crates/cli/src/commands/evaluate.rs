//! `albireo evaluate <network>` — one network on the chip model, with a
//! depth-first vs weight-stationary dataflow diagnostic.

use super::{
    chip_from, parse_estimate, parse_network, trace_obs, write_metrics_out, write_trace_outputs,
    CliError, Command, COUNT0, ESTIMATE, NG, TRACE_OUT,
};
use crate::args::{flag, Args, Flag, Kind};
use albireo_core::energy::NetworkEvaluation;
use albireo_core::report::{format_joules, format_seconds, format_table, format_watts};

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("no-stride-penalty", Kind::Bool, "ignore the strided-layer schedule penalty"),
    flag("per-layer", COUNT0, "list the N slowest layers").or("0"),
];

pub(super) const COMMAND: Command = Command::new(
    "evaluate",
    &["<network>"],
    "run a network on the chip model",
    &[FLAGS, NG, ESTIMATE, TRACE_OUT],
    run,
);

fn run(args: &Args) -> Result<String, CliError> {
    let model = parse_network(&args.positionals()[0])?;
    let estimate = parse_estimate(args)?;
    let mut chip = chip_from(args);
    chip.model_stride_penalty = !args.flag("no-stride-penalty");
    let obs = trace_obs(args);
    let eval = NetworkEvaluation::evaluate_observed(&chip, estimate, &model, &obs);
    let mut out = format!(
        "{} on Albireo-{} (Ng={}):\n  latency {}  energy {}  EDP {:.3} mJ·ms\n  power {}  {:.0} GOPS  {:.1} GOPS/mm² ({:.0} active)  utilization {:.1}%\n",
        eval.network,
        estimate.suffix(),
        chip.ng,
        format_seconds(eval.latency_s),
        format_joules(eval.energy_j),
        eval.edp_mj_ms(),
        format_watts(eval.power_w),
        eval.gops(),
        eval.gops_per_mm2(),
        eval.gops_per_mm2_active(),
        eval.mean_utilization() * 100.0,
    );
    let show = args.get::<usize>("per-layer");
    if show > 0 {
        let mut layers: Vec<_> = eval.per_layer.iter().filter(|l| l.cycles > 0).collect();
        layers.sort_by_key(|l| std::cmp::Reverse(l.cycles));
        let rows: Vec<Vec<String>> = layers
            .iter()
            .take(show)
            .map(|l| {
                vec![
                    l.name.clone(),
                    l.cycles.to_string(),
                    format_seconds(l.latency_s),
                    format!("{:.1}%", l.utilization * 100.0),
                ]
            })
            .collect();
        out.push_str(&format_table(
            &["layer", "cycles", "latency", "utilization"],
            &rows,
        ));
    }
    // Dataflow diagnostic: the depth-first schedule the paper argues for
    // vs a weight-stationary alternative, in converter updates and
    // partial-sum traffic (see core::dataflow_alt).
    let (df, ws) = albireo_core::dataflow_alt::compare_dataflows(&chip, estimate, &model);
    let dataflow_rows: Vec<Vec<String>> = [("depth-first", &df), ("weight-stationary", &ws)]
        .into_iter()
        .map(|(name, d)| {
            vec![
                name.to_string(),
                d.weight_dac_updates.to_string(),
                d.input_dac_updates.to_string(),
                d.partial_bytes.to_string(),
                format_joules(d.energy_j),
            ]
        })
        .collect();
    out.push_str("\nDataflow comparison (converter + partial-sum traffic):\n");
    out.push_str(&format_table(
        &[
            "dataflow",
            "weight DAC updates",
            "input DAC updates",
            "partial bytes",
            "energy",
        ],
        &dataflow_rows,
    ));
    out.push_str(&format!(
        "  weight-stationary energy delta: {:+.1}% vs depth-first\n",
        (ws.energy_j - df.energy_j) / df.energy_j * 100.0
    ));
    out.push_str(&write_trace_outputs(
        args,
        &obs,
        &[(albireo_obs::track::ENGINE, "engine".to_string())],
    )?);
    out.push_str(&write_metrics_out(args, &obs)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cli, temp_path};

    #[test]
    fn evaluate_prints_dataflow_comparison() {
        let out = cli("evaluate alexnet").unwrap();
        assert!(out.contains("Dataflow comparison"), "{out}");
        assert!(out.contains("depth-first"), "{out}");
        assert!(out.contains("weight-stationary"), "{out}");
        assert!(out.contains("energy delta"), "{out}");
    }

    #[test]
    fn evaluate_happy_path() {
        let out = cli("evaluate vgg16 --estimate m --ng 27").unwrap();
        assert!(out.contains("VGG16"));
        assert!(out.contains("Albireo-M"));
        assert!(out.contains("Ng=27"));
    }

    #[test]
    fn evaluate_per_layer_listing() {
        let out = cli("evaluate alexnet --per-layer 3").unwrap();
        assert!(out.contains("layer"));
        assert!(out.lines().count() > 5);
    }

    #[test]
    fn evaluate_unknown_network() {
        let err = cli("evaluate lenet").unwrap_err();
        assert!(err.to_string().contains("lenet"));
        let err = cli("evaluate").unwrap_err();
        assert!(err.to_string().contains("<network>"), "{err}");
    }

    #[test]
    fn extension_networks_and_aliases_evaluate() {
        for name in "vgg19 resnet34 mobilenet-0.5 tiny mlp-mixer mixer transformer transformer-enc"
            .split(' ')
        {
            let out = cli(&format!("evaluate {name}")).unwrap();
            assert!(out.contains("latency"), "{name}: {out}");
        }
    }

    #[test]
    fn stride_penalty_flag_changes_result() {
        let with = cli("evaluate alexnet").unwrap();
        let without = cli("evaluate alexnet --no-stride-penalty").unwrap();
        assert_ne!(with, without);
    }

    #[test]
    fn evaluate_trace_out_writes_per_layer_spans() {
        let path = temp_path("evaluate_trace.json");
        let path_str = path.to_str().unwrap().to_string();
        let out = cli(&format!("evaluate alexnet --trace-out {path_str}")).unwrap();
        assert!(out.contains("trace events"), "{out}");
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(trace.contains("\"ph\": \"X\""));
        assert!(trace.contains("\"layer\""));
        assert!(trace.contains("\"name\": \"engine\""));
        std::fs::remove_file(&path).ok();
    }
}
