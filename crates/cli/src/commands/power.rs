//! `albireo power` — the Table III power breakdown.

use super::{chip_from, parse_estimate, CliError, Command, ESTIMATE, NG};
use crate::args::Args;
use albireo_core::power::PowerBreakdown;
use albireo_core::report::{format_table, format_watts};

pub(super) const COMMAND: Command = Command::new(
    "power",
    &[],
    "Table III power breakdown",
    &[NG, ESTIMATE],
    run,
);

fn run(args: &Args) -> Result<String, CliError> {
    let b = PowerBreakdown::for_chip(&chip_from(args), parse_estimate(args)?);
    let rows: Vec<Vec<String>> = b
        .rows()
        .into_iter()
        .map(|(name, w, portion)| {
            vec![
                name.to_string(),
                format_watts(w),
                format!("{:.1}%", portion * 100.0),
            ]
        })
        .collect();
    Ok(format!(
        "{}\nTotal: {}\n",
        format_table(&["device", "power", "portion"], &rows),
        format_watts(b.total_w())
    ))
}

#[cfg(test)]
mod tests {
    use super::super::tests::cli;

    #[test]
    fn power_reports_total() {
        let out = cli("power --estimate conservative").unwrap();
        assert!(out.contains("22.7"), "{out}");
    }
}
