//! The evaluation grid: deterministic fan-out of the paper's
//! (chip × technology estimate × network) sweep.
//!
//! Every result table in the paper is a sweep over that grid. Each grid
//! point is one [`NetworkEvaluation`], microseconds of closed-form
//! arithmetic that runs serially, so the grid itself is the fan-out:
//! [`evaluate_grid`] spreads the points over one [`Parallelism`] region.
//! All grid arithmetic is deterministic (no RNG), so parallel evaluation
//! is trivially bit-identical to serial; the analog simulation reached
//! through [`crate::analog::AnalogEngine`] keeps the same guarantee via
//! per-work-item seed splitting (see `albireo-parallel`).

use crate::config::{ChipConfig, TechnologyEstimate};
use crate::energy::NetworkEvaluation;
use albireo_nn::Model;
use albireo_parallel::Parallelism;

/// One (chip × estimate × network) grid point's result.
#[derive(Debug, Clone, PartialEq)]
pub struct GridResult {
    /// Chip label (e.g. `"albireo_9"`).
    pub chip_name: String,
    /// Technology estimate used.
    pub estimate: TechnologyEstimate,
    /// The full network evaluation.
    pub evaluation: NetworkEvaluation,
}

/// Evaluates the full (chip × estimate × network) grid, fanning the grid
/// points across `par`'s workers. Results are returned in grid order
/// (chips outermost, networks innermost) regardless of thread count.
pub fn evaluate_grid(
    par: Parallelism,
    chips: &[(String, ChipConfig)],
    estimates: &[TechnologyEstimate],
    models: &[Model],
) -> Vec<GridResult> {
    let per_chip = estimates.len() * models.len();
    par.map_indexed(chips.len() * per_chip, |i| {
        let (ci, rest) = (i / per_chip, i % per_chip);
        let (ei, mi) = (rest / models.len(), rest % models.len());
        let (name, chip) = &chips[ci];
        GridResult {
            chip_name: name.clone(),
            estimate: estimates[ei],
            evaluation: NetworkEvaluation::evaluate(chip, estimates[ei], &models[mi]),
        }
    })
}

/// The paper's standard grid: both chips, all three estimates, all four
/// benchmark networks (Tables II/IV).
pub fn paper_grid() -> (
    Vec<(String, ChipConfig)>,
    Vec<TechnologyEstimate>,
    Vec<Model>,
) {
    let chips = vec![
        ("albireo_9".to_string(), ChipConfig::albireo_9()),
        ("albireo_27".to_string(), ChipConfig::albireo_27()),
    ];
    let estimates = vec![
        TechnologyEstimate::Conservative,
        TechnologyEstimate::Moderate,
        TechnologyEstimate::Aggressive,
    ];
    let models = albireo_nn::zoo::all_benchmarks();
    (chips, estimates, models)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_order_is_stable_across_thread_counts() {
        let (chips, estimates, models) = paper_grid();
        let serial = evaluate_grid(Parallelism::serial(), &chips, &estimates, &models);
        assert_eq!(serial.len(), 2 * 3 * 4);
        for threads in [2, 8] {
            let par = evaluate_grid(
                Parallelism::with_threads(threads),
                &chips,
                &estimates,
                &models,
            );
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn grid_layout_matches_indexing() {
        let (chips, estimates, models) = paper_grid();
        let grid = evaluate_grid(Parallelism::default(), &chips, &estimates, &models);
        // Chips outermost: first half is albireo_9, second albireo_27.
        assert!(grid[..12].iter().all(|g| g.chip_name == "albireo_9"));
        assert!(grid[12..].iter().all(|g| g.chip_name == "albireo_27"));
        // Networks innermost: the model cycle repeats every 4 entries.
        let names: Vec<&str> = grid[..4]
            .iter()
            .map(|g| g.evaluation.network.as_str())
            .collect();
        assert_eq!(names.len(), 4);
        for chunk in grid.chunks(4) {
            let chunk_names: Vec<&str> = chunk
                .iter()
                .map(|g| g.evaluation.network.as_str())
                .collect();
            assert_eq!(chunk_names, names);
        }
    }

    #[test]
    fn grid_points_match_direct_evaluation() {
        let (chips, estimates, models) = paper_grid();
        let grid = evaluate_grid(Parallelism::with_threads(4), &chips, &estimates, &models);
        let direct = NetworkEvaluation::evaluate(&chips[0].1, estimates[0], &models[0]);
        assert_eq!(grid[0].evaluation, direct);
    }
}
