//! # voxolap-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§5 and Appendix B), plus two tools:
//!
//! | Binary | What it does |
//! |---|---|
//! | `all_experiments` | Figure 3, Tables 2 and 5–14, the ablations and the data-scale sweep, in `EXPERIMENTS.md` format; takes `--rows N` and `--seed S` |
//! | `crash_smoke` | SIGKILLs the real server mid-ingest and audits recovery |
//! | `debug_rewards` | Sampled vs exact quality of one tree's refinements |
//!
//! The experiments live in [`experiments`] and return structured results;
//! `all_experiments` renders them, and `tests/paper_claims.rs` asserts
//! their shapes on the same results at test scale. Run with `--release`;
//! the optimal approach exhaustively scores large speech trees by design.

use voxolap_belief::model::BeliefModel;
use voxolap_belief::quality::speech_quality;
use voxolap_core::holistic::HolisticConfig;
use voxolap_core::outcome::VocalizationOutcome;
use voxolap_data::dimension::LevelId;
use voxolap_data::flights::FlightsConfig;
use voxolap_data::salary::SalaryConfig;
use voxolap_data::{DimId, Table};
use voxolap_engine::exact::evaluate;
use voxolap_engine::query::{AggFct, Query};
use voxolap_speech::candidates::CandidateConfig;
use voxolap_speech::scope::CompiledSpeech;

pub mod experiments;

/// Default flights scale for experiments. 200 k rows preserve every
/// group's statistics at a fraction of the generation time of the paper's
/// [`PAPER_FLIGHTS_ROWS`].
pub const DEFAULT_FLIGHTS_ROWS: usize = 200_000;

/// The paper's flights scale (Table 11).
pub const PAPER_FLIGHTS_ROWS: usize = 5_300_000;

/// `--flag value` arguments, checked against the flags a binary takes.
#[derive(Debug)]
pub struct Flags(Vec<(String, String)>);

impl Flags {
    /// Parse `args` (program name excluded). An argument that is not one of
    /// `known`, or a flag without a value after it, is an error naming it.
    pub fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            if !known.contains(&flag.as_str()) {
                let takes = if known.is_empty() { "none".to_string() } else { known.join(", ") };
                return Err(format!("unknown argument `{flag}` (flags taken: {takes})"));
            }
            match args.next() {
                Some(value) if !value.starts_with("--") => {
                    pairs.push((flag.clone(), value.clone()))
                }
                _ => return Err(format!("{flag} needs a value")),
            }
        }
        Ok(Flags(pairs))
    }

    /// This process's arguments; a usage error exits with status 2.
    pub fn from_env(known: &[&str]) -> Flags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Flags::parse(&args, known).unwrap_or_else(usage_error)
    }

    /// The value of `key`, if given (the last one, if given twice).
    pub fn str(&self, key: &str) -> Option<&str> {
        self.0.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// `key` as a whole number, or `default` when it is not given.
    pub fn usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.str(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}: `{v}` is not a whole number")),
        }
    }
}

/// Print `msg` as a usage error and exit with status 2.
pub fn usage_error<T>(msg: String) -> T {
    eprintln!("usage error: {msg}");
    std::process::exit(2)
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
        ..HolisticConfig::default()
    }
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

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_refuse_malformed_missing_and_unknown_values() {
        let known = ["--rows", "--seed"];
        let flags = Flags::parse(&argv("--rows 5300000 --seed 7"), &known).unwrap();
        assert_eq!(flags.usize("--rows", 1), Ok(5_300_000));
        assert_eq!(flags.usize("--seed", 1), Ok(7));
        assert_eq!(Flags::parse(&[], &known).unwrap().usize("--rows", 9), Ok(9));

        // A value that does not parse is an error naming the flag, never
        // the default.
        let flags = Flags::parse(&argv("--rows 5.3e6"), &known).unwrap();
        let err = flags.usize("--rows", DEFAULT_FLIGHTS_ROWS).unwrap_err();
        assert!(err.contains("--rows") && err.contains("5.3e6"), "{err}");
        // So is a flag with nothing, or another flag, after it.
        for line in ["--rows", "--rows --seed 3"] {
            let err = Flags::parse(&argv(line), &known).unwrap_err();
            assert!(err.starts_with("--rows needs a value"), "{line}: {err}");
        }
        // Retired flags and strays are refused, not ignored.
        for line in ["--tab11-rows 5300000", "--max-rows 800000", "--json", "200000"] {
            let err = Flags::parse(&argv(line), &known).unwrap_err();
            assert!(err.contains(line.split(' ').next().unwrap()), "{line}: {err}");
        }
        assert!(Flags::parse(&argv("--rows 1"), &[]).is_err(), "a binary without flags");
    }

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
        use voxolap_core::optimal::Optimal;
        use voxolap_core::voice::InstantVoice;
        let table = flights_table(20_000);
        let q = region_season_query(&table);
        let mut voice = InstantVoice::default();
        let optimal = Optimal::new(experiment_config(0)).vocalize(&table, &q, &mut voice);
        let quality = outcome_quality(&optimal, &table, &q);
        assert!(quality > 0.0 && quality <= 1.0, "quality {quality}");
    }
}
