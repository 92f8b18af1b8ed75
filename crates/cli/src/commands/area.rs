//! `albireo area` — the Fig. 9 area breakdown.

use super::{chip_from, CliError, Command, NG};
use crate::args::Args;
use albireo_core::area::AreaBreakdown;
use albireo_core::report::format_table;

pub(super) const COMMAND: Command = Command::new("area", &[], "Fig. 9 area breakdown", &[NG], run);

fn run(args: &Args) -> Result<String, CliError> {
    let a = AreaBreakdown::for_chip(&chip_from(args));
    let rows: Vec<Vec<String>> = a
        .rows()
        .into_iter()
        .map(|(name, mm2, portion)| {
            vec![
                name.to_string(),
                format!("{mm2:.3} mm²"),
                format!("{:.1}%", portion * 100.0),
            ]
        })
        .collect();
    Ok(format!(
        "{}\nTotal: {:.1} mm² (active {:.1} mm²)\n",
        format_table(&["component", "area", "portion"], &rows),
        a.total_mm2(),
        a.active_mm2()
    ))
}

#[cfg(test)]
mod tests {
    use super::super::tests::cli;

    #[test]
    fn area_reports_total() {
        let out = cli("area").unwrap();
        assert!(out.contains("125.1"), "{out}");
    }
}
