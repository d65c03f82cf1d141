//! # mmph-bench — reproduction harness
//!
//! Experiment drivers and renderers that regenerate **every table and
//! figure** of the paper's evaluation (§VI), plus the ablations listed
//! in DESIGN.md §3. The `repro` binary orchestrates everything:
//!
//! ```text
//! cargo run --release -p mmph-bench --bin repro -- all --trials 100 --out results
//! ```
//!
//! | artifact | paper | driver |
//! |---|---|---|
//! | `fig2_bounds.{svg,csv}` | Fig. 2 | [`experiments::fig2`] |
//! | `fig3_round*.svg` | Fig. 3 | [`experiments::fig3_table1`] |
//! | `table1.{md,csv}` | Table I | [`experiments::fig3_table1`] |
//! | `fig4..fig7*.{svg,csv}` | Figs. 4–7 | [`experiments::ratio_sweep_2d`] |
//! | `fig8..fig9*.{svg,csv}` | Figs. 8–9 | [`experiments::reward_sweep_3d`] |
//! | `summary.md` | §VI-B aggregates | [`experiments::aggregate`] |
//!
//! The criterion benches under `benches/` time the same drivers at
//! reduced trial counts so performance regressions in any experiment
//! path are caught.

pub mod experiments;
pub mod render;
