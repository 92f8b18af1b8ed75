//! `albireo plan` — the capacity planner: searches chip mixes, batching
//! policies, and autoscaling policies for the minimum-energy fleet that
//! meets an SLO, scoring every candidate with the serving simulator.
//! Deterministic at any `--threads` value; `--spec` replays a plan from
//! its canonical one-line echo.

use super::{parse_mix, serve, write_file, CliError, Command, COUNT, FILE, WORKLOAD};
use crate::args::{flag, ArgError, Args, Flag, Kind};
use albireo_nn::zoo;
use albireo_obs::Obs;
use albireo_parallel::Parallelism;
use albireo_plan::{PlanSpec, SloSpec};
use albireo_runtime::{
    ArrivalProcess, AutoscalePolicy, BatchPolicy, ClassSpec, FaultSpec, Workload,
};

/// Everything a `--spec` line fixes (with [`WORKLOAD`]).
#[rustfmt::skip]
const SHAPE: &[Flag] = &[
    flag("slo", Kind::Str("p99<MS[,attain>=A][,shed<=S]"), "the target (required without --spec)"),
    flag("chips", Kind::List("KIND|KIND"), "chip kinds fleets are built from").or("albireo_9:C"),
    flag("max-chips", COUNT, "largest fleet searched").or("3"),
    flag("requests", COUNT, "requests per scoring run").or("2000"),
    flag("screen-requests", COUNT, "screening run length (default min(requests, 300))"),
    flag("policies", Kind::List("POLICY|POLICY"), "batching policies searched").or("immediate"),
    flag("autoscale", Kind::List("none|static|elastic:UP:WARM[:MIN]|.."), "autoscaling policies searched").or("static"),
];

#[rustfmt::skip]
const OUTPUT: &[Flag] = &[
    flag("spec", Kind::Str("LINE"), "replay a plan from its canonical spec line"),
    flag("exhaustive", Kind::Bool, "score every candidate (no screening or pruning)"),
    flag("json", Kind::Bool, "emit the JSON report"),
    flag("out", FILE, "write the report here instead of stdout"),
    flag("csv-out", FILE, "write the ranked frontier CSV"),
];

pub(super) const COMMAND: Command = Command {
    details: Some(serve::chip_kinds),
    ..Command::new(
        "plan",
        &[],
        "capacity planner / fleet optimizer",
        &[SHAPE, WORKLOAD, OUTPUT],
        run,
    )
};

/// Parses each piece of a list flag with its grammar.
fn parse_each<T>(
    pieces: Vec<&str>,
    parse: fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, CliError> {
    pieces
        .into_iter()
        .map(parse)
        .collect::<Result<_, _>>()
        .map_err(CliError::Unknown)
}

fn spec_from_flags(args: &Args) -> Result<PlanSpec, CliError> {
    let slo = SloSpec::parse(args.required("slo")?).map_err(CliError::Unknown)?;
    let requests = args.get::<usize>("requests");
    // The fleet varies per candidate, so networks no fleet supports
    // surface as infeasible candidates, not errors.
    let mix = parse_mix(args, &zoo::serving_models())?;
    let classes = match args.str("classes") {
        Some(list) => ClassSpec::parse_list(list, None)
            .map_err(|e| CliError::Unknown(format!("--classes: {e}")))?,
        None => Vec::new(),
    };
    let process = ArrivalProcess::parse(
        args.str("arrival").unwrap_or_default(),
        args.get::<f64>("rate"),
    )
    .map_err(|e| CliError::Unknown(format!("--arrival: {e}")))?;
    let spec = PlanSpec {
        workload: Workload {
            process,
            mix,
            classes,
        },
        requests,
        screen_requests: args.num("screen-requests").unwrap_or(requests.min(300)),
        seed: args.get::<u64>("seed"),
        replicas: args.get::<usize>("replicas"),
        slo,
        chip_kinds: args
            .list("chips", &['|', ','])
            .into_iter()
            .map(str::to_string)
            .collect(),
        max_chips: args.get::<usize>("max-chips"),
        policies: parse_each(args.list("policies", &['|', ',']), BatchPolicy::parse)?,
        queue_capacity: match args.get::<usize>("queue-cap") {
            0 => usize::MAX,
            cap => cap,
        },
        autoscale: parse_each(args.list("autoscale", &['|', ',']), AutoscalePolicy::parse)?,
        faults: match args.str("faults") {
            Some(raw) => FaultSpec::parse(raw).map_err(CliError::Unknown)?,
            None => FaultSpec::none(),
        },
    };
    spec.validate().map_err(CliError::Unknown)?;
    Ok(spec)
}

fn run(args: &Args) -> Result<String, CliError> {
    let spec = match args.str("spec") {
        Some(line) => {
            // The spec line fixes the whole plan; mixing it with shape
            // flags would silently ignore one side.
            if let Some(conflict) = [SHAPE, WORKLOAD]
                .into_iter()
                .find_map(|g| args.first_given(g))
            {
                return Err(ArgError::Conflict(format!(
                    "--spec already fixes the whole plan; drop --{conflict}"
                ))
                .into());
            }
            PlanSpec::parse(line).map_err(CliError::Unknown)?
        }
        None => spec_from_flags(args)?,
    };

    let report = albireo_plan::plan(
        &spec,
        Parallelism::default(),
        &Obs::disabled(),
        args.flag("exhaustive"),
    )
    .map_err(CliError::Unknown)?;

    if let Some(path) = args.str("csv-out") {
        write_file(path, &report.to_csv())?;
    }
    let out = if args.flag("json") {
        report.to_json()
    } else {
        report.render_text()
    };
    match args.str("out") {
        Some(path) => {
            write_file(path, &out)?;
            Ok(format!(
                "wrote {path}: {} candidate(s), {} feasible, digest {}\n",
                report.candidates_total,
                report.frontier.len(),
                report.digest_hex()
            ))
        }
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::cli;
    use super::super::CliError;

    fn plan(line: &str) -> Result<String, CliError> {
        cli(&format!("plan {line}"))
    }

    #[test]
    fn plan_reports_winner_and_frontier() {
        let out = plan("--slo p99<5ms --rate 8000 --requests 500 --screen-requests 120").unwrap();
        for key in ["winner:", "rank", "mJ/req", "pareto", "feasible"] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        // The 8000 rps AlexNet stream needs two Albireo-9 chips; three
        // only add idle power.
        assert!(out.contains("albireo_9_C+albireo_9_C "), "{out}");
    }
    #[test]
    fn plan_json_carries_schema_and_digest() {
        let line = "--slo p99<5ms --rate 8000 --requests 400 --screen-requests 100 --json";
        let out = plan(line).unwrap();
        assert!(out.contains("albireo.plan/v1"), "{out}");
        assert!(out.contains("\"digest\""), "{out}");
        assert!(out.contains("\"frontier\""), "{out}");
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        // Same flags, same plan, byte-for-byte.
        assert_eq!(out, plan(line).unwrap());
    }
    #[test]
    fn plan_spec_flag_replays_the_canonical_echo() {
        let flags =
            plan("--slo p99<6ms --rate 7000 --requests 300 --screen-requests 80 --json").unwrap();
        // The emitted spec line reproduces the identical plan via --spec.
        let spec_line = flags
            .lines()
            .find(|l| l.contains("\"spec\""))
            .and_then(|l| l.split('"').nth(3))
            .unwrap()
            .to_string();
        let replay = plan(&format!("--spec {spec_line} --json")).unwrap();
        assert_eq!(flags, replay);
    }
    #[test]
    fn plan_spec_conflicts_with_shape_flags() {
        let err = plan("--spec slo=p99<5ms --rate 9000").unwrap_err();
        assert!(err.to_string().contains("drop --rate"), "{err}");
        assert_eq!(err.exit_code(), 2);
    }
    #[test]
    fn plan_validates_inputs() {
        // --slo is mandatory: a planner without a target has no feasible set.
        let err = plan("").unwrap_err();
        assert!(err.to_string().contains("--slo"), "{err}");
        assert!(plan("--slo p99<5ms --rate 0").is_err());
        assert!(plan("--slo p99<5ms --networks lenet").is_err());
        assert!(plan("--slo p99<5ms --networks alexnet,alexnet").is_err());
        assert!(plan("--slo p99<5ms --chips tpu").is_err());
        assert!(plan("--slo p99<5ms --autoscale magic").is_err());
        assert!(plan("--slo p99<5ms --policies fifo").is_err());
        assert!(plan("--slo p99<5ms --requests 0").is_err());
        // Aliased chip kinds cannot be repeated into multiset fleets.
        let err = plan("--slo p99<5ms --chips edge=albireo_9:C").unwrap_err();
        assert!(err.to_string().contains("alias"), "{err}");
    }
    #[test]
    fn plan_faults_flag_threads_into_the_spec() {
        let out = plan("--slo p99<5ms --rate 8000 --requests 600 --screen-requests 150 --faults fail:0@0 --json")
        .unwrap();
        assert!(out.contains(";faults=fail:0@0\""), "{out}");
        let err = plan("--spec slo=p99<5ms --faults fail:0@0").unwrap_err();
        assert!(err.to_string().contains("drop --faults"), "{err}");
        assert!(plan("--slo p99<5ms --faults melt:0@1").is_err());
    }
}
