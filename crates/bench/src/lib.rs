//! # voxolap-bench
//!
//! Experiment harnesses regenerating every table and figure of the paper's
//! evaluation (§5 and Appendix B).
//!
//! Each `expX` binary prints the rows/series the corresponding paper
//! artifact reports:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig3` | Figure 3 — latency and speech quality per approach |
//! | `tab2_tab10` | Tables 2 & 10 — pilot study on implicit assumptions |
//! | `tab5` | Table 5 — speeches for the region × season query |
//! | `tab6_tab14` | Tables 6 & 14 — estimation errors and tendencies |
//! | `tab7` | Table 7 — facts extracted in exploratory sessions |
//! | `tab8_tab9` | Tables 8 & 9 — preferences and speech lengths |
//! | `tab11` | Table 11 — dataset statistics |
//! | `tab12` | Table 12 — full region × season result |
//! | `tab13` | Table 13 — speeches for a large (hundreds of fields) query |
//! | `all_experiments` | Everything above, in `EXPERIMENTS.md` format |
//!
//! Run with `--release`; the optimal approach exhaustively scores large
//! speech trees by design.

use voxolap_belief::model::BeliefModel;
use voxolap_belief::quality::speech_quality;
use voxolap_core::holistic::{Holistic, HolisticConfig};
use voxolap_core::optimal::Optimal;
use voxolap_core::outcome::VocalizationOutcome;
use voxolap_core::unmerged::{SamplingBudget, Unmerged};
use voxolap_data::dimension::LevelId;
use voxolap_data::flights::FlightsConfig;
use voxolap_data::salary::SalaryConfig;
use voxolap_data::{DimId, Table};
use voxolap_engine::exact::evaluate;
use voxolap_engine::query::{AggFct, Query};
use voxolap_speech::candidates::CandidateConfig;
use voxolap_speech::scope::CompiledSpeech;

pub mod experiments;

/// Default flights scale for experiments (the paper's full 5.3 M rows are
/// available via `--rows 5300000`; 200 k preserves every group's statistics
/// at a fraction of the generation time).
pub const DEFAULT_FLIGHTS_ROWS: usize = 200_000;

/// `true` when `--json` was passed (experiment binaries emit machine-
/// readable records instead of markdown).
pub fn arg_json() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Parse `--key value` style arguments with a default.
pub fn arg_usize(key: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Generate the flights table at the given scale.
pub fn flights_table(rows: usize) -> Table {
    FlightsConfig { rows, seed: 42 }.generate()
}

/// Generate the salary table at paper scale.
pub fn salary_table() -> Table {
    SalaryConfig::paper_scale().generate()
}

/// The flights region × season query behind Tables 5, 6, 12, and 14.
pub fn region_season_query(table: &Table) -> Query {
    Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(1))
        .group_by(DimId(1), LevelId(1))
        .build(table.schema())
        .expect("region x season query is valid")
}

/// The large query behind Table 13 (hundreds of result fields):
/// state × month.
pub fn state_month_query(table: &Table) -> Query {
    Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(2))
        .group_by(DimId(1), LevelId(2))
        .build(table.schema())
        .expect("state x month query is valid")
}

/// The Figure 3 query set, in the paper's `X,Y` naming: `X` a filter
/// (`∅`, `N` = the North East, `W` = Winter), `Y` the breakdown dimensions
/// (`R` region, `D` date at season granularity, `A` airline).
pub fn fig3_queries(table: &Table) -> Vec<(String, Query)> {
    let schema = table.schema();
    let airport = schema.dimension(DimId(0));
    let date = schema.dimension(DimId(1));
    let ne = airport.member_by_phrase("the North East").expect("NE exists");
    let winter = date.member_by_phrase("Winter").expect("Winter exists");

    let dims = |label: &str| -> Vec<(DimId, LevelId)> {
        label
            .chars()
            .map(|c| match c {
                'R' => (DimId(0), LevelId(1)),
                'D' => (DimId(1), LevelId(1)),
                'A' => (DimId(2), LevelId(1)),
                other => panic!("unknown breakdown dimension {other}"),
            })
            .collect()
    };

    type QuerySpec = (&'static str, Option<(DimId, voxolap_data::MemberId)>, &'static str);
    let specs: [QuerySpec; 12] = [
        (",R", None, "R"),
        (",D", None, "D"),
        (",A", None, "A"),
        (",RD", None, "RD"),
        (",RA", None, "RA"),
        (",DA", None, "DA"),
        (",RDA", None, "RDA"),
        ("N,D", Some((DimId(0), ne)), "D"),
        ("N,A", Some((DimId(0), ne)), "A"),
        ("N,DA", Some((DimId(0), ne)), "DA"),
        ("W,R", Some((DimId(1), winter)), "R"),
        ("W,RA", Some((DimId(1), winter)), "RA"),
    ];

    specs
        .into_iter()
        .map(|(label, filter, breakdown)| {
            let mut b = Query::builder(AggFct::Avg);
            if let Some((d, m)) = filter {
                b = b.filter(d, m);
            }
            for (d, l) in dims(breakdown) {
                b = b.group_by(d, l);
            }
            (label.to_string(), b.build(schema).expect("fig3 query is valid"))
        })
        .collect()
}

/// The shared candidate space for approach comparisons — identical across
/// approaches so the comparison is about *evaluation strategy*, not search
/// space.
pub fn experiment_candidates() -> CandidateConfig {
    CandidateConfig { quantifiers: vec![5, 20, 50, 100, 200], ..CandidateConfig::default() }
}

/// The experiment-calibrated planner configuration all three approaches
/// are built from.
pub fn experiment_config(seed: u64) -> HolisticConfig {
    HolisticConfig {
        candidates: experiment_candidates(),
        seed,
        max_tree_nodes: 300_000,
        // The flights measure is a 0/1 flag with a ~1.5% positive rate:
        // 10-row resamples are almost always all-zero and carry no signal.
        // The harness raises the fixed resample size so per-aggregate
        // estimates resolve the rate at one significant digit (see
        // DESIGN.md's substitution notes).
        resample_size: 400,
        ..HolisticConfig::default()
    }
}

/// The holistic approach over [`experiment_config`].
pub fn experiment_holistic(seed: u64) -> Holistic {
    Holistic::new(experiment_config(seed))
}

/// The unmerged approach at the paper's 500 ms budget.
pub fn experiment_unmerged(seed: u64) -> Unmerged {
    Unmerged::new(experiment_config(seed), SamplingBudget::PAPER)
}

/// The optimal approach over the same candidate space (it reads no seed).
pub fn experiment_optimal() -> Optimal {
    Optimal::new(experiment_config(0))
}

/// Exact speech quality of an outcome's speech (Definition 2.2), measured
/// against the full data set with the paper's σ = grand-mean / 2. Returns
/// 0 for outcomes without a structured speech.
pub fn outcome_quality(outcome: &VocalizationOutcome, table: &Table, query: &Query) -> f64 {
    let Some(speech) = &outcome.speech else {
        return 0.0;
    };
    let exact = evaluate(query, table);
    let grand = exact.grand_mean();
    if !grand.is_finite() || grand == 0.0 {
        return 0.0;
    }
    let model = BeliefModel::from_overall_mean(grand);
    let compiled = CompiledSpeech::compile(speech, query.layout(), table.schema());
    speech_quality(&compiled, &model, &exact, query.layout())
}

/// Render a GitHub-markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_query_set_shapes() {
        let table = flights_table(2_000);
        let queries = fig3_queries(&table);
        assert_eq!(queries.len(), 12);
        let by_label =
            |l: &str| queries.iter().find(|(label, _)| label == l).map(|(_, q)| q).unwrap();
        assert_eq!(by_label(",R").n_aggregates(), 5);
        assert_eq!(by_label(",RDA").n_aggregates(), 5 * 4 * 14);
        assert_eq!(by_label("N,DA").n_aggregates(), 4 * 14);
        assert_eq!(by_label("W,R").n_aggregates(), 5);
    }

    #[test]
    fn canonical_queries() {
        let table = flights_table(2_000);
        assert_eq!(region_season_query(&table).n_aggregates(), 20);
        assert_eq!(state_month_query(&table).n_aggregates(), 24 * 12);
    }

    #[test]
    fn markdown_renders() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
    }

    #[test]
    fn quality_of_outcomes_is_comparable() {
        use voxolap_core::approach::Vocalizer;
        use voxolap_core::voice::InstantVoice;
        let table = flights_table(20_000);
        let q = region_season_query(&table);
        let mut voice = InstantVoice::default();
        let optimal = experiment_optimal().vocalize(&table, &q, &mut voice);
        let quality = outcome_quality(&optimal, &table, &q);
        assert!(quality > 0.0 && quality <= 1.0, "quality {quality}");
    }
}
