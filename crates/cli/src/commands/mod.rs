//! CLI subcommands, one module per command. Each module keeps its flag
//! table next to its body; this module holds the command table, the
//! flag groups several commands share, the single [`CliError`], help
//! rendering, and dispatch.

mod area;
mod bench;
mod compare;
mod evaluate;
mod experiment;
mod faults;
mod networks;
mod perf_diff;
mod plan;
mod power;
mod precision;
mod serve;
mod sweep;
mod trace;

use crate::args::{flag, render_flags, ArgError, Args, Flag, Kind, Range};
use albireo_core::config::{ChipConfig, TechnologyEstimate};
use albireo_nn::{zoo, Model};
use albireo_parallel::Parallelism;
use std::fmt;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments.
    Args(ArgError),
    /// Unknown subcommand or entity name, or an input a grammar rejects.
    Unknown(String),
    /// An output file could not be written.
    Io(String),
    /// A quality gate tripped (`perf-diff` found a regression, `bench
    /// oracles` found a failing oracle). The command itself ran fine;
    /// the verdict failed. `output` still goes to stdout. Exit 3 keeps
    /// the verdict distinguishable from I/O (1) and usage (2) failures
    /// in CI scripts.
    Gate {
        /// The command's normal output.
        output: String,
        /// The verdict.
        message: String,
    },
}

impl CliError {
    /// Process exit code: usage-class errors exit 2 (and print a usage
    /// hint), runtime I/O failures exit 1, tripped gates exit 3.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Args(_) | CliError::Unknown(_) => 2,
            CliError::Io(_) => 1,
            CliError::Gate { .. } => 3,
        }
    }

    /// Whether the error should be followed by the usage hint.
    pub fn is_usage(&self) -> bool {
        matches!(self, CliError::Args(_) | CliError::Unknown(_))
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Unknown(msg) | CliError::Io(msg) => write!(f, "{msg}"),
            CliError::Gate { message, .. } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> CliError {
        CliError::Args(e)
    }
}

/// One subcommand: its name (two words for a bench study), synopsis,
/// flag table and body.
pub struct Command {
    name: &'static str,
    positionals: &'static [&'static str],
    summary: &'static str,
    flags: &'static [&'static [Flag]],
    run: fn(&Args) -> Result<String, CliError>,
    details: Option<fn() -> String>,
}

impl Command {
    const fn new(
        name: &'static str,
        positionals: &'static [&'static str],
        summary: &'static str,
        flags: &'static [&'static [Flag]],
        run: fn(&Args) -> Result<String, CliError>,
    ) -> Command {
        Command {
            name,
            positionals,
            summary,
            flags,
            run,
            details: None,
        }
    }

    /// The command's own flags plus the global group.
    fn groups(&self) -> Vec<&'static [Flag]> {
        self.flags.iter().copied().chain([GLOBAL]).collect()
    }

    fn synopsis(&self) -> String {
        std::iter::once(self.name)
            .chain(self.positionals.iter().copied())
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Every subcommand, in help order.
const COMMANDS: &[Command] = &[
    networks::COMMAND,
    evaluate::COMMAND,
    power::COMMAND,
    area::COMMAND,
    precision::COMMAND,
    trace::COMMAND,
    sweep::COMMAND,
    compare::COMMAND,
    faults::COMMAND,
    experiment::COMMAND,
    bench::STUDY,
    bench::PARALLEL,
    bench::SERVING,
    bench::PLAN,
    bench::ORACLES,
    serve::COMMAND,
    plan::COMMAND,
    perf_diff::COMMAND,
];

const COUNT: Kind = Kind::Int { min: 1 };
const COUNT0: Kind = Kind::Int { min: 0 };
const POSITIVE: Kind = Kind::Float(Range::above(0.0));
const FILE: Kind = Kind::Str("FILE");

/// Flags every command accepts.
#[rustfmt::skip]
const GLOBAL: &[Flag] = &[
    flag("threads", COUNT0, "worker threads for parallel regions (0 = one per core)"),
    flag("wall-clock", Kind::Bool, "stamp trace events with wall-clock ns (excluded from digests)"),
    flag("profile", FILE, "write an albireo.profile/v1 wall-clock phase report"),
];

const NG: &[Flag] = &[flag("ng", COUNT, "PLCGs per chip").or("9")];
#[rustfmt::skip]
const ESTIMATE: &[Flag] = &[flag("estimate", Kind::Str("C|M|A"), "technology estimate").or("conservative")];

/// Virtual-clock trace and metrics exports (`evaluate`, `serve`).
#[rustfmt::skip]
const TRACE_OUT: &[Flag] = &[
    flag("trace-out", FILE, "Chrome/Perfetto trace_event JSON of the run"),
    flag("events-out", FILE, "the same event stream as JSONL"),
    flag("metrics-out", FILE, "OpenMetrics text export"),
];

/// The workload and fleet knobs `serve` and `plan` share.
#[rustfmt::skip]
const WORKLOAD: &[Flag] = &[
    flag("rate", POSITIVE, "offered load, requests/s").or("2000"),
    flag("arrival", Kind::Str("SPEC"), "poisson | bursty:B:ON_S:OFF_S | diurnal:A:PERIOD_S | flash:SPIKE:AT_S:DECAY_S").or("poisson"),
    flag("seed", COUNT0, "workload seed").or("42"),
    flag("replicas", COUNT, "independent seeded replicas").or("1"),
    flag("networks", Kind::List("A,B"), "equal-weight network mix").or("alexnet"),
    flag("classes", Kind::List("NAME:WEIGHT[:SLO_MS],.."), "request classes"),
    flag("queue-cap", COUNT0, "shared queue capacity (0 = unbounded)").or("64"),
    flag("faults", Kind::Str("SPEC"), "fail:C@T, recover:C@T, degrade:C@T:N, rack:A-B@T, thermal:A-B@T1-T2:N, crews:K:MEAN_S:SEED"),
];

/// The top-level help: every command's synopsis plus the global flags.
fn overview() -> String {
    let mut out = String::from(
        "albireo — silicon-photonic CNN accelerator simulator (ISCA 2021 reproduction)\n\n\
         USAGE:\n    albireo <command> [options]\n    \
         albireo <command> --help        every flag of one command\n\nCOMMANDS:\n",
    );
    for cmd in COMMANDS {
        out.push_str(&format!("    {:<28} {}\n", cmd.synopsis(), cmd.summary));
    }
    out.push_str(&format!(
        "    {:<28} show this message, or one command's flags\n\nGLOBAL OPTIONS:\n{}",
        "help [command]",
        render_flags(&[GLOBAL])
    ));
    out
}

/// One command's help, rendered from its flag table.
fn command_help(cmd: &Command) -> String {
    let mut out = format!(
        "albireo {} — {}\n\nUSAGE:\n    albireo {} [options]\n",
        cmd.name,
        cmd.summary,
        cmd.synopsis()
    );
    if !cmd.flags.is_empty() {
        out.push_str(&format!("\nOPTIONS:\n{}", render_flags(cmd.flags)));
    }
    out.push_str(&format!("\nGLOBAL OPTIONS:\n{}", render_flags(&[GLOBAL])));
    if let Some(details) = cmd.details {
        out.push('\n');
        out.push_str(&details());
    }
    out
}

/// Finds the command `words` name — a two-word name (`bench plan`)
/// first, then a one-word one — and returns it with the remaining
/// arguments.
fn resolve(words: &[String]) -> Result<(&'static Command, &[String]), CliError> {
    let find = |n: usize| {
        let name = words.get(..n)?.join(" ");
        COMMANDS
            .iter()
            .find(|c| c.name == name)
            .map(|c| (c, &words[n..]))
    };
    find(2).or_else(|| find(1)).ok_or_else(|| {
        CliError::Unknown(format!(
            "unknown command `{}`; run `albireo help`",
            words[0]
        ))
    })
}

/// What a command line asks for.
pub enum Invocation {
    /// Print help text and exit 0.
    Help(String),
    /// Run a command.
    Run(&'static Command, Args),
}

/// Parses a full command line (without the program name).
pub fn parse(argv: &[String]) -> Result<Invocation, CliError> {
    match argv.first().map(String::as_str) {
        None => Ok(Invocation::Help(overview())),
        Some("help" | "--help" | "-h") if argv.len() == 1 => Ok(Invocation::Help(overview())),
        Some("help") => Ok(Invocation::Help(command_help(resolve(&argv[1..])?.0))),
        Some(_) => {
            let (cmd, rest) = resolve(argv)?;
            if rest.iter().any(|a| a == "--help" || a == "-h") {
                return Ok(Invocation::Help(command_help(cmd)));
            }
            let args = Args::parse(&cmd.groups(), cmd.positionals, rest)?;
            Ok(Invocation::Run(cmd, args))
        }
    }
}

/// Runs a parsed command under the global flags: `--threads` sets the
/// process-wide parallelism, and `--profile FILE` wraps the command in
/// the wall-clock profiler and writes the `albireo.profile/v1` report
/// on success. The profiler reads the host clock, so the report itself
/// is not deterministic — but it never touches simulation state,
/// digests, or the command's own output.
pub fn run(cmd: &Command, args: &Args) -> Result<String, CliError> {
    if let Some(threads) = args.num("threads") {
        Parallelism::set_global(Parallelism::with_threads(threads));
    }
    let profile_out = args.str("profile");
    if profile_out.is_some() {
        albireo_obs::profile::reset();
        albireo_obs::profile::set_enabled(true);
    }
    let result = (cmd.run)(args);
    if let Some(path) = profile_out {
        albireo_obs::profile::set_enabled(false);
        let report = albireo_obs::profile::take_report();
        if result.is_ok() {
            write_file(path, &report.to_json())?;
        }
    }
    result
}

/// Writes an output file, mapping failure to [`CliError::Io`].
fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))
}

fn parse_network(name: &str) -> Result<Model, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "alexnet" => Ok(zoo::alexnet()),
        "vgg16" | "vgg" => Ok(zoo::vgg16()),
        "resnet18" | "resnet" => Ok(zoo::resnet18()),
        "mobilenet" => Ok(zoo::mobilenet()),
        "vgg19" => Ok(zoo::vgg19()),
        "resnet34" => Ok(zoo::resnet34()),
        "mobilenet-0.5" | "mobilenet_half" => Ok(zoo::mobilenet_half()),
        "mlp-mixer" | "mlp_mixer" | "mixer" => Ok(zoo::mlp_mixer()),
        "transformer" | "transformer-enc" | "transformer_encoder_block" => {
            Ok(zoo::transformer_encoder_block())
        }
        "tiny" => Ok(zoo::tiny()),
        other => Err(CliError::Unknown(format!(
            "unknown network `{other}` (try: alexnet, vgg16, resnet18, mobilenet, \
             vgg19, resnet34, mobilenet-0.5, mlp-mixer, transformer, tiny)"
        ))),
    }
}

fn parse_estimate(args: &Args) -> Result<TechnologyEstimate, CliError> {
    match args
        .str("estimate")
        .unwrap_or_default()
        .to_ascii_lowercase()
        .as_str()
    {
        "c" | "conservative" => Ok(TechnologyEstimate::Conservative),
        "m" | "moderate" => Ok(TechnologyEstimate::Moderate),
        "a" | "aggressive" => Ok(TechnologyEstimate::Aggressive),
        other => Err(CliError::Unknown(format!(
            "unknown estimate `{other}` (try: conservative, moderate, aggressive)"
        ))),
    }
}

fn chip_from(args: &Args) -> ChipConfig {
    ChipConfig::with_ng(args.get::<usize>("ng"))
}

/// Resolves `--networks` into an equal-weight mix over `models`.
fn parse_mix(args: &Args, models: &[Model]) -> Result<Vec<(usize, f64)>, CliError> {
    let mut mix = Vec::new();
    for name in args.list("networks", &[',']) {
        let idx = models
            .iter()
            .position(|m| m.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let offered: Vec<&str> = models.iter().map(|m| m.name()).collect();
                CliError::Unknown(format!(
                    "unknown network `{name}` (the serving model zoo offers: {})",
                    offered.join(", ")
                ))
            })?;
        if mix.iter().any(|&(seen, _)| seen == idx) {
            return Err(CliError::Unknown(format!(
                "network `{name}` appears twice in --networks"
            )));
        }
        mix.push((idx, 1.0));
    }
    Ok(mix)
}

/// An `Obs` handle for a command run: enabled only when a trace export
/// or an OpenMetrics export was requested, with wall-clock stamping
/// behind `--wall-clock`.
fn trace_obs(args: &Args) -> albireo_obs::Obs {
    let obs = albireo_obs::Obs::new(args.first_given(TRACE_OUT).is_some());
    if args.flag("wall-clock") {
        obs.set_wall_clock(true);
    }
    obs
}

/// Writes the `--metrics-out` OpenMetrics text export from an enabled
/// `Obs`, returning a note line (empty when the flag is absent).
fn write_metrics_out(args: &Args, obs: &albireo_obs::Obs) -> Result<String, CliError> {
    let Some(path) = args.str("metrics-out") else {
        return Ok(String::new());
    };
    let snapshot = obs.snapshot();
    write_file(path, &albireo_obs::openmetrics::render(&snapshot))?;
    Ok(format!(
        "wrote {path}: OpenMetrics snapshot, digest {:016x}\n",
        snapshot.digest()
    ))
}

/// Drains `obs` and writes the requested trace exports (`--trace-out`
/// Chrome JSON, `--events-out` JSONL), returning one note line per file
/// written (empty when no export was requested).
fn write_trace_outputs(
    args: &Args,
    obs: &albireo_obs::Obs,
    track_names: &[(u32, String)],
) -> Result<String, CliError> {
    let mut note = String::new();
    let (trace_out, events_out) = (args.str("trace-out"), args.str("events-out"));
    if trace_out.is_none() && events_out.is_none() {
        return Ok(note);
    }
    let events = obs.drain_events();
    let digest = albireo_obs::events_digest(&events);
    if let Some(path) = trace_out {
        write_file(path, &albireo_obs::to_chrome_trace(&events, track_names))?;
        note.push_str(&format!(
            "wrote {path}: {} trace events, digest {digest:016x}\n",
            events.len()
        ));
    }
    if let Some(path) = events_out {
        write_file(path, &albireo_obs::to_jsonl(&events))?;
        note.push_str(&format!(
            "wrote {path}: {} events (JSONL), digest {digest:016x}\n",
            events.len()
        ));
    }
    Ok(note)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Invocation, CliError> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse(&argv)
    }

    /// Parses and runs a whitespace-separated command line.
    pub(crate) fn cli(line: &str) -> Result<String, CliError> {
        match parse_line(line)? {
            Invocation::Help(text) => Ok(text),
            Invocation::Run(cmd, args) => run(cmd, &args),
        }
    }

    /// A value the flag's table must accept: its default when it has
    /// one, so this also checks every default against its own kind.
    fn sample(flag: &Flag) -> &'static str {
        match (flag.kind, flag.default) {
            (Kind::Bool, _) => "",
            (_, Some(default)) => default,
            (Kind::Int { .. } | Kind::Ints { .. }, None) => "1",
            (Kind::Float(_), None) => "0.5",
            _ => "x",
        }
    }

    #[test]
    fn every_flag_in_help_parses_from_a_valid_value() {
        for cmd in COMMANDS {
            let (name, help) = (cmd.name, command_help(cmd));
            let mut seen = std::collections::BTreeSet::new();
            for flag in cmd.groups().iter().flat_map(|g| g.iter()) {
                assert!(
                    seen.insert(flag.name),
                    "{name} declares --{} twice",
                    flag.name
                );
                assert!(
                    help.contains(&format!("--{} ", flag.name)),
                    "{name}: --{}",
                    flag.name
                );
                let positionals = cmd.positionals.join(" ");
                let line = format!("{name} {positionals} --{} {}", flag.name, sample(flag));
                match parse_line(&line) {
                    Ok(Invocation::Run(..)) => {}
                    Ok(Invocation::Help(_)) => panic!("{line} printed help"),
                    Err(e) => panic!("{line}: {e}"),
                }
            }
        }
    }

    /// The flag names a source file reads through an `args.<accessor>("…")`
    /// call.
    fn flags_read(source: &str) -> Vec<String> {
        let mut names = Vec::new();
        for piece in source.split("args.").skip(1) {
            let Some((accessor, rest)) = piece.split_once("(\"") else {
                continue;
            };
            if accessor
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_:<>".contains(c))
            {
                if let Some((name, _)) = rest.split_once('"') {
                    names.push(name.to_string());
                }
            }
        }
        names
    }

    #[test]
    fn every_flag_a_command_reads_is_in_its_help() {
        let sources: &[(&str, &str)] = &[
            ("evaluate", include_str!("evaluate.rs")),
            ("power", include_str!("power.rs")),
            ("area", include_str!("area.rs")),
            ("precision", include_str!("precision.rs")),
            ("trace", include_str!("trace.rs")),
            ("sweep", include_str!("sweep.rs")),
            ("compare", include_str!("compare.rs")),
            ("faults", include_str!("faults.rs")),
            ("experiment", include_str!("experiment.rs")),
            ("bench", include_str!("bench.rs")),
            ("serve", include_str!("serve.rs")),
            ("plan", include_str!("plan.rs")),
            ("perf-diff", include_str!("perf_diff.rs")),
        ];
        for (module, source) in sources {
            let helps: Vec<String> = COMMANDS
                .iter()
                .filter(|cmd| cmd.name.split(' ').next() == Some(module))
                .map(command_help)
                .collect();
            let read = flags_read(source.split("#[cfg(test)]").next().unwrap());
            for name in read {
                assert!(
                    helps.iter().any(|h| h.contains(&format!("--{name} "))),
                    "{module} reads --{name} but no help lists it"
                );
            }
        }
        // Shared helpers read only flags of the shared groups.
        let shared: Vec<&str> = [GLOBAL, NG, ESTIMATE, TRACE_OUT, WORKLOAD]
            .iter()
            .flat_map(|g| g.iter().map(|f| f.name))
            .collect();
        let own = include_str!("mod.rs").split("#[cfg(test)]").next().unwrap();
        for name in flags_read(own) {
            assert!(shared.contains(&name.as_str()), "mod.rs reads --{name}");
        }
    }

    #[test]
    fn help_comes_from_the_tables() {
        let top = cli("").unwrap();
        for heading in [
            "USAGE",
            "COMMANDS",
            "GLOBAL OPTIONS",
            "bench oracles",
            "perf-diff",
        ] {
            assert!(top.contains(heading), "{heading}: {top}");
        }
        assert_eq!(cli("help").unwrap(), top);
        let serve = cli("serve --help").unwrap();
        assert!(serve.contains("--policy SPEC"), "{serve}");
        assert!(serve.contains("default 1000"), "{serve}");
        assert_eq!(cli("help serve").unwrap(), serve);
        assert!(cli("bench --help").unwrap().contains("<study>"));
        assert!(cli("bench plan -h").unwrap().contains("--out-dir"));
    }

    #[test]
    fn dispatch_routes_and_rejects() {
        assert!(cli("networks").is_ok());
        let err = cli("frobnicate").unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("frobnicate"));
        let err = cli("bench").unwrap_err();
        assert!(err.to_string().contains("study"), "{err}");
        let err = cli("bench warp").unwrap_err();
        assert!(
            err.to_string().contains("parallel, serving, plan, oracles"),
            "{err}"
        );
    }

    #[test]
    fn typos_repeats_and_strays_are_typed_usage_errors() {
        for line in [
            "serve --polcy size:4",
            "serve --requests 50 --requests 60",
            "serve extra",
            "serve --policy deadline:nan",
            "networks --json",
        ] {
            let err = cli(line).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{line}: {err}");
            assert!(err.is_usage());
        }
        let err = cli("serve --polcy size:4").unwrap_err();
        assert!(err.to_string().contains("did you mean --policy"), "{err}");
    }

    #[test]
    fn errors_carry_exit_codes() {
        let usage = CliError::Unknown("nope".into());
        assert_eq!(usage.exit_code(), 2);
        assert!(usage.is_usage());
        let io = CliError::Io("cannot write /nope: denied".into());
        assert_eq!(io.exit_code(), 1);
        assert!(!io.is_usage());
    }

    #[test]
    fn threads_option_sets_global_parallelism() {
        cli("networks --threads 3").unwrap();
        assert_eq!(Parallelism::default().resolved_threads(), 3);
        Parallelism::set_global(Parallelism::auto());
        let err = cli("networks --threads many").unwrap_err();
        assert!(err.to_string().contains("many"));
    }

    pub(crate) fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("albireo_cli_trace_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn profile_flag_writes_wall_clock_report() {
        let path = temp_path("evaluate_profile.json");
        let p = path.to_str().unwrap().to_string();
        let out = cli(&format!("evaluate tiny --profile {p} --threads 2")).unwrap();
        assert!(out.contains("on Albireo"), "{out}");
        let report = std::fs::read_to_string(&path).unwrap();
        assert!(
            report.contains("\"schema\": \"albireo.profile/v1\""),
            "{report}"
        );
        assert!(report.contains("\"attributed_fraction\""), "{report}");
        // The analytic evaluate path is one serial cost evaluation
        // (tensor/photonics phases belong to the numeric bench
        // workloads, not this command).
        assert!(report.contains("\"core.evaluate\""), "{report}");
        // Profiling never changes the command's own output.
        let plain = cli("evaluate tiny --threads 2").unwrap();
        assert_eq!(out, plain);
        std::fs::remove_file(&path).ok();
    }
}
