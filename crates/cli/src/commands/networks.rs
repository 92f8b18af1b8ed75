//! `albireo networks` — the serving model zoo.

use super::{CliError, Command};
use crate::args::Args;
use albireo_core::report::format_table;
use albireo_nn::zoo;

pub(super) const COMMAND: Command =
    Command::new("networks", &[], "list the serving model zoo", &[], run);

fn run(_: &Args) -> Result<String, CliError> {
    let rows: Vec<Vec<String>> = zoo::serving_models()
        .iter()
        .map(|m| {
            vec![
                m.name().to_string(),
                m.layers().len().to_string(),
                format!("{:.2}", m.total_macs() as f64 / 1e9),
                format!("{:.1}", m.total_params() as f64 / 1e6),
                m.input_shape().to_string(),
            ]
        })
        .collect();
    Ok(format_table(
        &["network", "layers", "GMACs", "Mparams", "input"],
        &rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::super::tests::cli;

    #[test]
    fn networks_lists_the_paper_four_and_dense_extensions() {
        let out = cli("networks").unwrap();
        for name in "AlexNet VGG16 ResNet18 MobileNet MLP-Mixer Transformer-Enc".split(' ') {
            assert!(out.contains(name), "{name}: {out}");
        }
    }
}
