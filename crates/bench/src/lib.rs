//! Experiment-regeneration harness: one function per table/figure of the
//! paper's evaluation, plus the benchmark studies.
//!
//! Each function returns its formatted output as a `String`; the
//! `albireo experiment` and `albireo bench` commands print them, the
//! integration tests assert on their contents, and EXPERIMENTS.md records
//! the paper-vs-measured diff. Run everything with:
//!
//! ```text
//! albireo experiment all          # every table and figure
//! albireo experiment csv          # the CSV series under results/
//! albireo bench parallel|serving|plan|oracles
//! ```

pub mod experiments;
pub mod oracles;
pub mod perfdiff;
pub mod plan_bench;
pub mod serving_bench;
pub mod sweep;

pub use experiments::*;
