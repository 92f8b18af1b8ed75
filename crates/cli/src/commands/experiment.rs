//! `albireo experiment <name>|all|csv` — regenerate a paper experiment,
//! all of them, or the CSV series under `results/`.

use super::{CliError, Command, FILE};
use crate::args::{flag, Args, Flag};
use albireo_bench::EXPERIMENTS;

const FLAGS: &[Flag] =
    &[flag("out-dir", FILE, "csv: directory the CSV series go to").or("results")];

pub(super) const COMMAND: Command = Command {
    details: Some(names),
    ..Command::new(
        "experiment",
        &["<name>"],
        "regenerate a paper table/figure (or all, or csv)",
        &[FLAGS],
        run,
    )
};

fn names() -> String {
    let mut out = format!(
        "EXPERIMENTS:\n    {:<28} every experiment below, in order\n    {:<28} \
         write the CSV series to --out-dir\n",
        "all", "csv"
    );
    for (name, title, _) in EXPERIMENTS {
        out.push_str(&format!("    {name:<28} {}\n", title.to_lowercase()));
    }
    out
}

fn run(args: &Args) -> Result<String, CliError> {
    match args.positionals()[0].as_str() {
        "all" => Ok(albireo_bench::all_experiments()),
        "csv" => {
            let dir = args.str("out-dir").unwrap_or_default();
            let files = albireo_bench::export_csv(std::path::Path::new(dir))
                .map_err(|e| CliError::Io(format!("cannot write CSV series to {dir}: {e}")))?;
            let mut out = format!("wrote {} files:\n", files.len());
            for f in files {
                out.push_str(&format!("  {}\n", f.display()));
            }
            Ok(out)
        }
        name => EXPERIMENTS
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, run)| run())
            .ok_or_else(|| {
                CliError::Unknown(format!(
                    "unknown experiment `{name}`; run `albireo experiment --help` for the list"
                ))
            }),
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cli, temp_path};

    #[test]
    fn experiment_dispatch() {
        let out = cli("experiment fig9").unwrap();
        assert!(out.contains("area breakdown"));
        assert!(cli("experiment nonsense").is_err());
        let help = cli("experiment --help").unwrap();
        for name in ["table4", "power-delivery", "csv", "all"] {
            assert!(help.contains(name), "{help}");
        }
    }

    #[test]
    fn experiment_csv_writes_the_series() {
        let dir = temp_path("csv_series");
        let out = cli(&format!("experiment csv --out-dir {}", dir.display())).unwrap();
        assert!(out.contains("golden_modes_metrics.csv"), "{out}");
        assert!(dir.join("golden_baseline_metrics.csv").is_file());
        std::fs::remove_dir_all(&dir).ok();
    }
}
