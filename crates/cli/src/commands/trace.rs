//! `albireo trace` — the Fig. 7 PLCG dataflow trace.

use super::{chip_from, CliError, Command, COUNT, NG};
use crate::args::{flag, Args, Flag};
use albireo_core::trace::{summarize, trace_kernel};

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("rows", COUNT, "kernel rows").or("1"),
    flag("cols", COUNT, "input columns").or("12"),
    flag("channels", COUNT, "input channels").or("9"),
];

pub(super) const COMMAND: Command =
    Command::new("trace", &[], "Fig. 7 dataflow trace", &[FLAGS, NG], run);

fn run(args: &Args) -> Result<String, CliError> {
    let cycles = trace_kernel(
        &chip_from(args),
        0,
        args.get::<usize>("rows"),
        args.get::<usize>("cols"),
        args.get::<usize>("channels"),
    );
    let mut out = String::new();
    for c in cycles.iter().take(24) {
        out.push_str(&format!("{c}\n"));
    }
    if cycles.len() > 24 {
        out.push_str(&format!("... ({} more cycles)\n", cycles.len() - 24));
    }
    let s = summarize(&cycles);
    out.push_str(&format!(
        "{} cycles, {} outputs, {} partial updates, {} writebacks\n",
        s.cycles, s.outputs_written, s.partial_updates, s.writebacks
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::tests::cli;

    #[test]
    fn trace_shows_writebacks() {
        let out = cli("trace --rows 1 --cols 5 --channels 9").unwrap();
        assert!(out.contains("write"));
        assert!(out.contains("3 cycles"));
        assert!(cli("trace --rows 0").is_err());
    }
}
