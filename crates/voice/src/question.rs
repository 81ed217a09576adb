//! Full-question parsing (paper Example 1.1).
//!
//! The paper's introductory interaction translates *"How does the flight
//! cancellation probability in New York depend on flight date and start
//! airport?"* into `SELECT avg(cp) FROM table WHERE airportState='New
//! York' GROUP BY flightSeason, airportCity` via "a simple, keyword-based
//! method". This module implements that translation:
//!
//! * member phrases mentioned anywhere become filters ("in New York");
//! * dimensions mentioned after a dependence marker ("depend on …",
//!   "by …", "against …") become breakdowns;
//! * a grouping level is chosen per dimension: an explicitly named level
//!   wins; a dimension that also carries a filter groups one level below
//!   the filter (state filter → city breakdown, as in the example);
//!   otherwise the coarsest level is used;
//! * aggregation keywords pick AVG / SUM / COUNT (default AVG — measures
//!   like "probability" are averages).

use voxolap_data::dimension::LevelId;
use voxolap_data::schema::Schema;
use voxolap_engine::error::EngineError;
use voxolap_engine::query::{AggFct, Query};

use crate::parser::{mentions_any, padded_words, ParseError};

/// Errors from question parsing.
#[derive(Debug)]
pub enum QuestionError {
    /// No dimension to break the result down by was recognized.
    Parse(ParseError),
    /// The recognized pieces did not form a valid query.
    InvalidQuery(EngineError),
}

impl std::fmt::Display for QuestionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuestionError::Parse(e) => write!(f, "{e}"),
            QuestionError::InvalidQuery(e) => write!(f, "question maps to invalid query: {e}"),
        }
    }
}

impl std::error::Error for QuestionError {}

/// Translate a full analytical question into a query.
pub fn parse_question(schema: &Schema, question: &str) -> Result<Query, QuestionError> {
    let text = question.to_lowercase();

    // Aggregation function from keywords, matched as whole words: a
    // "county" level or a "discount" measure is not a count.
    let words = padded_words(question);
    let fct = if mentions_any(&words, &["how many", "number of", "count"]) {
        AggFct::Count
    } else if mentions_any(&words, &["total", "sum of"]) {
        AggFct::Sum
    } else {
        AggFct::Avg
    };

    // Filters: longest-phrase member mentions, at most one per dimension.
    let mut filters = Vec::new();
    for (dim_id, d) in schema.dims() {
        let mut best: Option<(voxolap_data::MemberId, usize)> = None;
        for mi in 1..d.member_count() {
            let m = voxolap_data::MemberId(mi as u32);
            let phrase = d.member(m).phrase.to_lowercase();
            if text.contains(&phrase) && best.is_none_or(|(_, l)| phrase.len() > l) {
                best = Some((m, phrase.len()));
            }
        }
        if let Some((m, _)) = best {
            filters.push((dim_id, m));
        }
    }

    // Breakdown dimensions: everything after the dependence marker.
    let tail = ["depend on", "depends on", "broken down by", "by dimension", " against ", " by "]
        .iter()
        .filter_map(|marker| text.find(marker).map(|i| &text[i + marker.len()..]))
        .next()
        .unwrap_or(&text);

    let mut groupings: Vec<(voxolap_data::DimId, LevelId)> = Vec::new();
    for (dim_id, d) in schema.dims() {
        // An explicitly named level wins — but a level name that only
        // occurs inside the dimension's own name (the "airport" level of
        // the "start airport" dimension) is a dimension mention, not a
        // level mention, so scan with dimension names blanked out.
        let mut tail_wo_dims = tail.to_string();
        for (_, other) in schema.dims() {
            tail_wo_dims = tail_wo_dims.replace(&other.name().to_lowercase(), " ");
        }
        let mut level = None;
        for li in 1..d.level_count() {
            let name = d.level_name(LevelId(li as u8)).to_lowercase();
            if tail_wo_dims.contains(&name) {
                level = Some(LevelId(li as u8));
            }
        }
        // A dimension-name mention groups at a default level.
        if level.is_none() && tail.contains(&d.name().to_lowercase()) {
            let filter_level =
                filters.iter().find(|&&(fd, _)| fd == dim_id).map(|&(_, m)| d.member(m).level);
            level = Some(match filter_level {
                // One level below the filter (state -> city), capped at
                // the leaf level.
                Some(fl) if fl.index() + 1 < d.level_count() => LevelId(fl.0 + 1),
                Some(fl) => fl,
                None => LevelId(1),
            });
        }
        if let Some(l) = level {
            groupings.push((dim_id, l));
        }
    }

    if groupings.is_empty() {
        return Err(QuestionError::Parse(ParseError { input: question.to_string() }));
    }

    // Measure selection: the mentioned measure name wins (longest match);
    // the primary measure otherwise.
    let mut measure = voxolap_data::schema::MeasureId::PRIMARY;
    let mut best_len = 0usize;
    for (i, m) in schema.measures().iter().enumerate() {
        let name = m.name.to_lowercase();
        if text.contains(&name) && name.len() > best_len {
            measure = voxolap_data::schema::MeasureId(i as u8);
            best_len = name.len();
        }
    }

    // Drop filters that sit at or below their dimension's grouping level
    // only if they'd invalidate the query (filter deeper than grouping).
    let mut b = Query::builder(fct).measure(measure);
    for &(d, l) in &groupings {
        b = b.group_by(d, l);
    }
    for &(d, m) in &filters {
        let too_deep = groupings
            .iter()
            .any(|&(gd, gl)| gd == d && schema.dimension(d).member(m).level.index() > gl.index());
        if !too_deep {
            b = b.filter(d, m);
        }
    }
    b.build(schema).map_err(QuestionError::InvalidQuery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::flights::FlightsConfig;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;

    #[test]
    fn example_1_1_translates_as_in_the_paper() {
        // "How does the flight cancellation probability in New York depend
        // on flight date and start airport?"
        // -> AVG, WHERE state = New York, GROUP BY season, city.
        let schema = FlightsConfig::schema();
        let q = parse_question(
            &schema,
            "How does the flight cancellation probability in New York \
             depend on flight date and start airport?",
        )
        .unwrap();
        assert_eq!(q.fct(), AggFct::Avg);
        // Filter on the airport dimension at state level.
        let (fd, fm) = q.filters()[0];
        assert_eq!(fd, DimId(0));
        assert_eq!(schema.dimension(fd).member(fm).phrase, "New York");
        // Breakdown: airport at city level (one below the state filter),
        // date at season level (its coarsest).
        let by: Vec<(DimId, LevelId)> = q.group_by().to_vec();
        assert!(by.contains(&(DimId(0), LevelId(3))), "city breakdown: {by:?}");
        assert!(by.contains(&(DimId(1), LevelId(1))), "season breakdown: {by:?}");
    }

    #[test]
    fn count_questions_pick_count() {
        let schema = FlightsConfig::schema();
        let q = parse_question(&schema, "how many flights by airline?").unwrap();
        assert_eq!(q.fct(), AggFct::Count);
        assert_eq!(q.group_by(), &[(DimId(2), LevelId(1))]);
    }

    /// A schema whose names contain the aggregation keywords as
    /// substrings: a "county" level, "discount" and "subtotal" measures.
    fn shop_schema() -> Schema {
        use voxolap_data::dimension::DimensionBuilder;
        use voxolap_data::schema::{Measure, MeasureUnit};
        let mut b = DimensionBuilder::new("store location", "stores in", "any place");
        let county = b.add_level("county");
        for name in ["Kent", "Essex"] {
            b.add_member(county, b.root(), name);
        }
        Schema::with_measures(
            "orders",
            vec![b.build()],
            vec![
                Measure { name: "discount".into(), unit: MeasureUnit::Fraction },
                Measure { name: "subtotal".into(), unit: MeasureUnit::Plain },
            ],
        )
    }

    #[test]
    fn aggregation_keywords_match_whole_words_only() {
        let schema = shop_schema();
        let cases = [
            ("average discount by county", AggFct::Avg),
            ("subtotal by county", AggFct::Avg),
            ("discounts in Kent by county", AggFct::Avg),
            ("how many orders by county", AggFct::Count),
            ("number of orders by county", AggFct::Count),
            ("count of orders by county", AggFct::Count),
            ("the counts by county", AggFct::Count),
            ("total discount by county", AggFct::Sum),
            ("sum of the subtotal by county", AggFct::Sum),
        ];
        for (question, fct) in cases {
            let q = parse_question(&schema, question).unwrap();
            assert_eq!(q.fct(), fct, "{question:?}");
            assert_eq!(q.group_by(), &[(DimId(0), LevelId(1))], "{question:?}");
        }
    }

    /// The questions `benchmark/src/script.rs` asks (texts copied): a
    /// drifting keyword parser would silently change the workloads.
    #[test]
    fn benchmark_questions_stay_averages_of_their_sizes() {
        let schema = FlightsConfig::schema();
        let cases = [
            ("cancellation probability by season", 4),
            ("cancellation probability by region", 5),
            ("cancellation probability by region and season", 20),
            ("cancellation probability in winter by region", 5),
            ("cancellation probability in the north east by season", 4),
            ("cancellation probability by region and airline", 70),
            ("cancellation probability by season and airline", 56),
            ("cancellation probability in the north east by season and airline", 56),
            ("cancellation probability in fall by region", 5),
        ];
        for (question, aggregates) in cases {
            let q = parse_question(&schema, question).unwrap();
            assert_eq!(q.fct(), AggFct::Avg, "{question:?}");
            assert_eq!(q.n_aggregates(), aggregates, "{question:?}");
        }
    }

    #[test]
    fn explicit_level_mentions_win() {
        let schema = FlightsConfig::schema();
        let q =
            parse_question(&schema, "how does the cancellation probability depend on the month?")
                .unwrap();
        assert_eq!(q.group_by(), &[(DimId(1), LevelId(2))]);
    }

    #[test]
    fn salary_question() {
        let schema = SalaryConfig::schema(320);
        let q = parse_question(
            &schema,
            "how does the mid-career salary depend on college location \
             and start salary?",
        )
        .unwrap();
        assert_eq!(q.fct(), AggFct::Avg);
        assert_eq!(q.group_by().len(), 2);
        // Both dimensions at their coarsest levels.
        assert!(q.group_by().contains(&(DimId(0), LevelId(1))));
        assert!(q.group_by().contains(&(DimId(1), LevelId(1))));
    }

    #[test]
    fn measure_mention_selects_the_column() {
        use voxolap_data::schema::MeasureId;
        let schema = FlightsConfig::schema();
        let q = parse_question(
            &schema,
            "how does the departure delay in minutes depend on region and season?",
        )
        .unwrap();
        assert_eq!(q.measure(), MeasureId(1));
        assert_eq!(q.group_by().len(), 2);
        // Without a mention the primary measure is aggregated.
        let q = parse_question(&schema, "cancellation probability by region").unwrap();
        assert_eq!(q.measure(), MeasureId::PRIMARY);
    }

    #[test]
    fn question_without_breakdown_errors() {
        let schema = FlightsConfig::schema();
        let err = parse_question(&schema, "tell me a story").unwrap_err();
        assert!(matches!(err, QuestionError::Parse(_)));
    }

    #[test]
    fn filter_only_mention_does_not_group() {
        // "in Winter" filters; "by region" groups.
        let schema = FlightsConfig::schema();
        let q =
            parse_question(&schema, "what is the cancellation probability in winter by region?")
                .unwrap();
        assert_eq!(q.group_by(), &[(DimId(0), LevelId(1))]);
        let (fd, fm) = q.filters()[0];
        assert_eq!(fd, DimId(1));
        assert_eq!(schema.dimension(fd).member(fm).phrase, "Winter");
    }
}
