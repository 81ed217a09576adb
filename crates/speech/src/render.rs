//! EBNF-faithful text rendering of speeches (paper Figure 1).
//!
//! The preamble is derived entirely from the query: it names the scope of
//! every dimension (paper Example 3.1: *"Considering graduates from any
//! college and a start salary of any amount. Results are broken down by
//! region and rough start salary."*) and therefore carries no planning
//! choices — which is why the engine can start speaking it before any data
//! has been read.

use voxolap_data::schema::{MeasureUnit, Schema};
use voxolap_engine::query::{AggFct, Query};

use crate::ast::{Direction, Refinement, Speech};
use crate::verbalize::{verbalize_range, verbalize_value};

/// The unit baseline values are verbalized in, given the aggregation
/// function: averages keep the measure's unit; counts are plain row
/// numbers; sums of fraction measures (0/1 flags) are plain totals, not
/// percentages.
pub fn render_unit(fct: AggFct, measure_unit: MeasureUnit) -> MeasureUnit {
    match fct {
        AggFct::Avg => measure_unit,
        AggFct::Count => MeasureUnit::Plain,
        AggFct::Sum => {
            if measure_unit == MeasureUnit::Fraction {
                MeasureUnit::Plain
            } else {
                measure_unit
            }
        }
    }
}

/// The aggregate name `<A>` for a query: "average mid-career salary",
/// "total departure delay in minutes", or "number of rows" (a count does
/// not involve the measure column).
pub fn aggregate_phrase(fct: AggFct, measure_name: &str) -> String {
    match fct {
        AggFct::Count => "number of rows".to_string(),
        _ => format!("{} {}", fct.spoken(), measure_name),
    }
}

/// Renders speeches for one query against one schema.
#[derive(Debug, Clone, Copy)]
pub struct Renderer<'a> {
    schema: &'a Schema,
    query: &'a Query,
}

/// Join phrases Oxford-free as the grammar prescribes:
/// `a`, `a and b`, `a, b and c`.
fn join_phrases(parts: &[String]) -> String {
    match parts.len() {
        0 => String::new(),
        1 => parts[0].clone(),
        _ => {
            let head = parts[..parts.len() - 1].join(", ");
            format!("{head} and {}", parts[parts.len() - 1])
        }
    }
}

/// Uppercase the first character of a sentence.
fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

impl<'a> Renderer<'a> {
    /// Create a renderer for `query` over `schema`.
    pub fn new(schema: &'a Schema, query: &'a Query) -> Self {
        Renderer { schema, query }
    }

    /// The preamble (`<Pr>`): query scope plus breakdown levels.
    pub fn preamble(&self) -> String {
        let layout = self.query.layout();
        let scope_parts: Vec<String> =
            self.schema.dims().map(|(d, dim)| dim.predicate_phrase(layout.scope(d))).collect();
        let mut out = format!("Considering {}.", join_phrases(&scope_parts));
        let level_parts: Vec<String> = self
            .query
            .group_by()
            .iter()
            .map(|&(d, l)| self.schema.dimension(d).level_name(l).to_string())
            .collect();
        if !level_parts.is_empty() {
            out.push_str(&format!(" Results are broken down by {}.", join_phrases(&level_parts)));
        }
        out
    }

    /// The baseline sentence (`<B> ::= <V> is the <A>.`). `<V>` is either a
    /// point value ("90 K", "around two percent") or a spoken range
    /// ("five to ten percent").
    pub fn baseline_sentence(&self, speech: &Speech) -> String {
        let measure = self.schema.measure(self.query.measure());
        let unit = render_unit(self.query.fct(), measure.unit);
        let v = match speech.baseline.spoken_range {
            Some((lo, hi)) => verbalize_range(lo, hi, unit),
            None => verbalize_value(speech.baseline.value, unit),
        };
        let a = aggregate_phrase(self.query.fct(), &measure.name);
        capitalize(&format!("{v} is the {a}."))
    }

    /// One refinement sentence
    /// (`<R> ::= Values <C> for <P> (, <P>)* and <P>.`).
    pub fn refinement_sentence(&self, r: &Refinement) -> String {
        let verb = match r.change.direction {
            Direction::Increase => "increase",
            Direction::Decrease => "decrease",
        };
        let preds: Vec<String> = r
            .predicates
            .iter()
            .map(|p| self.schema.dimension(p.dim).predicate_phrase(p.member))
            .collect();
        format!("Values {verb} by {} percent for {}.", r.change.percent, join_phrases(&preds))
    }

    /// The speech body: baseline plus refinements (no preamble). This is
    /// the part the character-budget constraint applies to.
    pub fn body_text(&self, speech: &Speech) -> String {
        let mut out = self.baseline_sentence(speech);
        for r in &speech.refinements {
            out.push(' ');
            out.push_str(&self.refinement_sentence(r));
        }
        out
    }

    /// Body length in characters (the quantity bounded by user preferences).
    pub fn body_len(&self, speech: &Speech) -> usize {
        self.body_text(speech).chars().count()
    }

    /// The complete speech text: preamble followed by the body.
    pub fn speech_text(&self, speech: &Speech) -> String {
        format!("{} {}", self.preamble(), self.body_text(speech))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;
    use voxolap_engine::query::AggFct;

    use crate::ast::{Baseline, Change, Predicate};

    fn setup() -> (voxolap_data::Table, Query) {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        (table, q)
    }

    fn example_speech(schema: &Schema) -> Speech {
        let college = schema.dimension(DimId(0));
        let start = schema.dimension(DimId(1));
        let ne = college.member_by_phrase("the North East").unwrap();
        let hi = start.member_by_phrase("at least 50 K").unwrap();
        Speech {
            baseline: Baseline::point(90.0),
            refinements: vec![
                Refinement {
                    predicates: vec![Predicate { dim: DimId(0), member: ne }],
                    change: Change { direction: Direction::Increase, percent: 5 },
                },
                Refinement {
                    predicates: vec![Predicate { dim: DimId(1), member: hi }],
                    change: Change { direction: Direction::Increase, percent: 20 },
                },
            ],
        }
    }

    #[test]
    fn preamble_matches_example_3_1() {
        let (table, q) = setup();
        let r = Renderer::new(table.schema(), &q);
        assert_eq!(
            r.preamble(),
            "Considering graduates from any college and a start salary of any amount. \
             Results are broken down by region and rough start salary."
        );
    }

    #[test]
    fn body_matches_example_3_1() {
        let (table, q) = setup();
        let r = Renderer::new(table.schema(), &q);
        let s = example_speech(table.schema());
        assert_eq!(
            r.body_text(&s),
            "90 K is the average mid-career salary. \
             Values increase by 5 percent for graduates from the North East. \
             Values increase by 20 percent for a start salary of at least 50 K."
        );
    }

    #[test]
    fn body_len_counts_characters() {
        let (table, q) = setup();
        let r = Renderer::new(table.schema(), &q);
        let s = Speech::baseline_only(90.0);
        assert_eq!(r.body_len(&s), r.body_text(&s).chars().count());
    }

    #[test]
    fn range_baseline_renders_as_in_table_13() {
        let (table, q) = setup();
        let r = Renderer::new(table.schema(), &q);
        let speech =
            Speech { baseline: crate::ast::Baseline::range(80.0, 90.0), refinements: Vec::new() };
        assert_eq!(r.baseline_sentence(&speech), "80 to 90 K is the average mid-career salary.");
    }

    #[test]
    fn decrease_direction_renders() {
        let (table, q) = setup();
        let schema = table.schema();
        let r = Renderer::new(schema, &q);
        let mw = schema.dimension(DimId(0)).member_by_phrase("the Midwest").unwrap();
        let refinement = Refinement {
            predicates: vec![Predicate { dim: DimId(0), member: mw }],
            change: Change { direction: Direction::Decrease, percent: 10 },
        };
        assert_eq!(
            r.refinement_sentence(&refinement),
            "Values decrease by 10 percent for graduates from the Midwest."
        );
    }

    #[test]
    fn multi_predicate_refinement_joins_with_and() {
        let (table, q) = setup();
        let schema = table.schema();
        let r = Renderer::new(schema, &q);
        let ne = schema.dimension(DimId(0)).member_by_phrase("the North East").unwrap();
        let hi = schema.dimension(DimId(1)).member_by_phrase("at least 50 K").unwrap();
        let refinement = Refinement {
            predicates: vec![
                Predicate { dim: DimId(0), member: ne },
                Predicate { dim: DimId(1), member: hi },
            ],
            change: Change { direction: Direction::Increase, percent: 25 },
        };
        let text = r.refinement_sentence(&refinement);
        assert!(
            text.ends_with("graduates from the North East and a start salary of at least 50 K."),
            "{text}"
        );
    }

    #[test]
    fn speech_text_concatenates_preamble_and_body() {
        let (table, q) = setup();
        let r = Renderer::new(table.schema(), &q);
        let s = Speech::baseline_only(90.0);
        let full = r.speech_text(&s);
        assert!(full.starts_with("Considering"));
        assert!(full.ends_with("90 K is the average mid-career salary."));
    }

    #[test]
    fn ungrouped_query_preamble_has_no_breakdown() {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Count).build(table.schema()).unwrap();
        let r = Renderer::new(table.schema(), &q);
        assert!(!r.preamble().contains("broken down"));
    }

    #[test]
    fn join_phrases_shapes() {
        assert_eq!(join_phrases(&[]), "");
        assert_eq!(join_phrases(&["a".into()]), "a");
        assert_eq!(join_phrases(&["a".into(), "b".into()]), "a and b");
        assert_eq!(join_phrases(&["a".into(), "b".into(), "c".into()]), "a, b and c");
    }
}
