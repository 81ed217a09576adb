//! One module per paper artifact; each exposes a `run(...) -> String`
//! returning the regenerated table/figure in markdown. The `exp*` binaries
//! are thin wrappers, and `all_experiments` composes everything into an
//! `EXPERIMENTS.md`-shaped report.

pub mod ablations;
pub mod fig3;
pub mod scaling;
pub mod tab11;
pub mod tab12;
pub mod tab2_tab10;
pub mod tab5_tab13;
pub mod tab6_tab14;
pub mod tab7;
pub mod tab8_tab9;
