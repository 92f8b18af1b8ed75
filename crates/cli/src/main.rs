//! `albireo` — the command-line front end of the Albireo silicon-photonic
//! CNN accelerator simulator.
//!
//! ```text
//! albireo evaluate vgg16 --estimate conservative --ng 9
//! albireo sweep --param ng --values 3,9,27
//! albireo serve --requests 500 --trace-out trace.json
//! albireo experiment table4
//! albireo bench oracles
//! albireo serve --help
//! ```

mod args;
mod commands;

use commands::{CliError, Invocation};

/// Every diagnostic leaves through this one formatter: a fixed header
/// carrying the obs schema version and the run's seed (`seed=none` when
/// the command has no seed or parsing failed before one was read),
/// followed by the message itself.
fn diagnostic(seed: Option<&str>, message: &dyn std::fmt::Display) -> String {
    format!(
        "albireo[{} seed={}] error: {message}",
        albireo_obs::SCHEMA,
        seed.unwrap_or("none"),
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (seed, result) = match commands::parse(&argv) {
        Ok(Invocation::Help(text)) => (None, Ok(text)),
        Ok(Invocation::Run(cmd, args)) => (
            args.given("seed").map(str::to_string),
            commands::run(cmd, &args),
        ),
        Err(e) => (None, Err(e)),
    };
    match result {
        Ok(output) => print!("{output}"),
        Err(e) => {
            if let CliError::Gate { output, .. } = &e {
                print!("{output}");
            }
            eprintln!("{}", diagnostic(seed.as_deref(), &e));
            if e.is_usage() {
                eprintln!("run `albireo help` for usage");
            }
            std::process::exit(e.exit_code());
        }
    }
}
