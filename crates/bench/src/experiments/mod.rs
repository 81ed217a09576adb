//! The paper's evaluation as functions returning structured results.
//!
//! Every approach comparison — Figure 3, the data-scale sweep, Tables 5
//! and 13 — goes through one side-by-side, [`Lineup::compare`]. The user
//! studies (Tables 2, 6–10, 14) are in [`studies`], the exact region ×
//! season result (Table 12) in [`datasets`], and the design-choice
//! ablations in [`ablations`]; Table 11 is each table's
//! `voxolap_data::stats::DatasetStats`. Nothing here renders: the
//! `all_experiments` binary turns the results into `EXPERIMENTS.md`'s
//! tables, and `tests/paper_claims.rs` asserts their shapes.

use voxolap_core::approach::Vocalizer;
use voxolap_core::holistic::{Holistic, HolisticConfig};
use voxolap_core::optimal::Optimal;
use voxolap_core::outcome::VocalizationOutcome;
use voxolap_core::unmerged::{SamplingBudget, Unmerged};
use voxolap_core::voice::{InstantVoice, VirtualVoice};
use voxolap_data::Table;
use voxolap_engine::query::Query;

use crate::{
    experiment_config, fig3_queries, flights_table, outcome_quality, region_season_query,
    PAPER_FLIGHTS_ROWS,
};

pub mod ablations;
pub mod datasets;
pub mod studies;

/// How Optimal, Holistic and Unmerged are run side by side.
#[derive(Debug, Clone)]
pub struct Lineup {
    /// The planner configuration all three share.
    pub config: HolisticConfig,
    /// The voice Holistic speaks through: its pace is the sampling time
    /// pipelining buys. Optimal and Unmerged speak through an instant one.
    pub voice: VirtualVoice,
    /// How long Unmerged samples before it speaks.
    pub unmerged: SamplingBudget,
}

/// One approach's run in a comparison.
#[derive(Debug, Clone)]
pub struct Run {
    /// What the approach said, its plan statistics, and its latency: the
    /// time from submission until the preamble starts playing.
    pub outcome: VocalizationOutcome,
    /// Exact speech quality (Definition 2.2) against the whole table.
    pub quality: f64,
}

/// The three approaches' runs on one query.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Full evaluation, then exhaustive planning.
    pub optimal: Run,
    /// Sampling and planning interleaved with speaking.
    pub holistic: Run,
    /// The same sampler on a budget, then speaking.
    pub unmerged: Run,
}

impl Comparison {
    /// The runs with the approach names, in the paper's order.
    pub fn runs(&self) -> [(&'static str, &Run); 3] {
        [("Optimal", &self.optimal), ("Holistic", &self.holistic), ("Unmerged", &self.unmerged)]
    }
}

impl Lineup {
    /// The paper's lineup. 600 planner iterations per spoken character is
    /// conservative for a 15 chars/s voice: the release-mode sampler
    /// sustains hundreds of thousands of iterations per second, so a real
    /// pipelined deployment gets more background sampling than this.
    /// Unmerged samples for the 500 ms interactivity threshold.
    pub fn paper(seed: u64) -> Lineup {
        Lineup {
            config: experiment_config(seed),
            voice: VirtualVoice::new(600.0),
            unmerged: SamplingBudget::PAPER,
        }
    }

    /// Run the three approaches on `query`.
    pub fn compare(&self, table: &Table, query: &Query) -> Comparison {
        let run = |outcome: VocalizationOutcome| Run {
            quality: outcome_quality(&outcome, table, query),
            outcome,
        };
        let optimal = Optimal::new(self.config.clone());
        let holistic = Holistic::new(self.config.clone());
        let unmerged = Unmerged::new(self.config.clone(), self.unmerged);
        Comparison {
            optimal: run(optimal.vocalize(table, query, &mut InstantVoice::default())),
            holistic: run(holistic.vocalize(table, query, &mut self.voice.clone())),
            unmerged: run(unmerged.vocalize(table, query, &mut InstantVoice::default())),
        }
    }

    /// Figure 3: every query of [`fig3_queries`], labelled in the paper's
    /// `X,Y` naming.
    pub fn figure_3(&self, table: &Table) -> Vec<(String, Comparison)> {
        fig3_queries(table).into_iter().map(|(label, q)| (label, self.compare(table, &q))).collect()
    }

    /// The data-scale sweep (extends Figure 3): the region × season query
    /// on a flights table generated at each of `row_counts`.
    pub fn scale_sweep(&self, row_counts: &[usize]) -> Vec<(usize, Comparison)> {
        row_counts
            .iter()
            .map(|&rows| {
                let table = flights_table(rows);
                (rows, self.compare(&table, &region_season_query(&table)))
            })
            .collect()
    }
}

/// The sweep's scales around `rows`: a quarter, one, four and sixteen
/// times, capped at the paper's 5.3 M rows.
pub fn sweep_rows(rows: usize) -> Vec<usize> {
    let mut scales: Vec<usize> =
        [rows / 4, rows, rows * 4, rows * 16].map(|r| r.clamp(1, PAPER_FLIGHTS_ROWS)).to_vec();
    scales.dedup();
    scales
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_scales_are_capped_at_the_paper_scale() {
        assert_eq!(sweep_rows(200_000), [50_000, 200_000, 800_000, 3_200_000]);
        assert_eq!(sweep_rows(1_000_000), [250_000, 1_000_000, 4_000_000, PAPER_FLIGHTS_ROWS]);
        assert_eq!(sweep_rows(PAPER_FLIGHTS_ROWS), [1_325_000, PAPER_FLIGHTS_ROWS]);
    }
}
