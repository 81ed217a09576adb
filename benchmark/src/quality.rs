//! What was spoken, judged against the exact result.
//!
//! The text that crossed the socket is read back sentence by sentence and
//! scored with Definition 2.2 (`speech_quality`) against `exact::evaluate`
//! of the pinned table — the information boundary a listener has. Nothing
//! here sees the planner's internal speech. An answer that cannot be read
//! back is a failed answer.

use std::collections::HashMap;

use voxolap_belief::model::BeliefModel;
use voxolap_belief::quality::speech_quality;
use voxolap_data::{Schema, Table};
use voxolap_engine::exact::{evaluate, ExactResult};
use voxolap_engine::query::Query;
use voxolap_speech::ast::{Change, Direction, Predicate, Refinement, Speech};
use voxolap_speech::parse::parse_body;
use voxolap_speech::scope::CompiledSpeech;

/// How one spoken answer scored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judged {
    /// |spoken baseline − exact grand mean| / exact grand mean.
    pub baseline_err: f64,
    /// Quality of the spoken speech over the quality of stating only the
    /// exact grand mean.
    pub quality_lift: f64,
    /// The product's own `parse_body` read the whole body back as well
    /// (`speech.unparseable_ratio` counts the answers where it did not).
    pub parse_body_ok: bool,
}

/// One refinement sentence as a listener hears it ("Values increase by 5
/// percent for flights operated by Delta Air Lines Inc.."). `parse_body`
/// splits a body on ". " and strips every trailing period, so it cannot
/// read back a member phrase that itself ends in one — ten of the fourteen
/// airlines, the widest questions of the cold workloads. The server sends
/// sentences one by one, so this reader takes each whole and strips the
/// one period that ends it.
fn read_refinement(sentence: &str, schema: &Schema) -> Option<Refinement> {
    let body = sentence.trim().strip_suffix('.')?.strip_prefix("Values ")?;
    let (direction, rest) = match body.strip_prefix("increase by ") {
        Some(rest) => (Direction::Increase, rest),
        None => (Direction::Decrease, body.strip_prefix("decrease by ")?),
    };
    let (quantifier, scope) = rest.split_once(" percent for ")?;
    let percent = quantifier.trim().parse().ok()?;
    let predicates: Vec<Predicate> = scope
        .split(" and ")
        .flat_map(|part| part.split(", "))
        .map(|phrase| {
            schema.dims().find_map(|(dim, d)| {
                let member = phrase.trim().strip_prefix(d.context())?.trim();
                Some(Predicate { dim, member: d.member_by_phrase(member).ok()? })
            })
        })
        .collect::<Option<_>>()?;
    Some(Refinement { predicates, change: Change { direction, percent } })
}

/// Exact results per query, evaluated once per distinct query of a run.
pub struct Judge<'t> {
    table: &'t Table,
    exact: HashMap<String, ExactResult>,
}

impl<'t> Judge<'t> {
    pub fn new(table: &'t Table) -> Self {
        Judge { table, exact: HashMap::new() }
    }

    /// Score the body sentences of one answer to `query`. `Err` when a
    /// sentence cannot be read back: a broken answer, not a finding.
    pub fn judge(&mut self, query: &Query, sentences: &[String]) -> Result<Judged, String> {
        let schema = self.table.schema();
        let table = self.table;
        let exact = self
            .exact
            .entry(format!("{:?}", query.key()))
            .or_insert_with(|| evaluate(query, table));
        let grand = exact.grand_mean();
        if !grand.is_finite() || grand == 0.0 {
            return Err("exact grand mean is undefined for this query".to_string());
        }
        let (first, rest) = sentences.split_first().ok_or("answer has no sentence")?;
        let baseline = parse_body(first, schema, query).map_err(|e| e.to_string())?.baseline;
        let refinements = rest
            .iter()
            .map(|s| read_refinement(s, schema).ok_or(format!("unreadable refinement: {s:?}")))
            .collect::<Result<_, _>>()?;
        let spoken = Speech { baseline, refinements };
        let baseline_err = (spoken.baseline.value - grand).abs() / grand.abs();

        let layout = query.layout();
        let model = BeliefModel::from_overall_mean(grand);
        let score = |speech: &Speech| {
            speech_quality(&CompiledSpeech::compile(speech, layout, schema), &model, exact, layout)
        };
        let floor = score(&Speech::baseline_only(grand));
        if floor <= 0.0 {
            return Err(format!("stating the exact mean scores {floor}"));
        }
        Ok(Judged {
            baseline_err,
            quality_lift: score(&spoken) / floor,
            parse_body_ok: parse_body(&sentences.join(" "), schema, query).is_ok(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::flights::FlightsConfig;
    use voxolap_voice::question::parse_question;

    #[test]
    fn spoken_text_is_scored_against_the_exact_result() {
        let table = FlightsConfig { rows: 20_000, seed: 42 }.generate();
        let query = parse_question(table.schema(), "cancellation probability by region and season")
            .unwrap();
        let mut judge = Judge::new(&table);
        let good = [
            "Around one point five percent is the average cancellation probability.".to_string(),
            "Values increase by 100 percent for flights scheduled in Winter.".to_string(),
        ];
        let judged = judge.judge(&query, &good).unwrap();
        assert!(judged.baseline_err < 0.25, "{judged:?}");
        assert!(judged.parse_body_ok);
        let lift = judged.quality_lift;

        // A baseline six times too high scores below both.
        let wrong = ["Around nine percent is the average cancellation probability.".to_string()];
        let judged = judge.judge(&query, &wrong).unwrap();
        assert!(judged.baseline_err > 3.0 && judged.quality_lift < lift.min(0.5), "{judged:?}");
        // Stating exactly the bare mean is the unit of the scale.
        let bare =
            ["Around one point five percent is the average cancellation probability.".to_string()];
        let near_one = judge.judge(&query, &bare).unwrap().quality_lift;
        assert!((0.8..=1.2).contains(&near_one), "{near_one}");

        // A member phrase that ends in a period is judged all the same,
        // alone or beside another predicate; `parse_body` cannot read it.
        for airline in [
            "Values decrease by 50 percent for flights operated by Delta Air Lines Inc..",
            "Values decrease by 50 percent for flights operated by Delta Air Lines Inc. and flights scheduled in Winter.",
        ] {
            let judged = judge.judge(&query, &[good[0].clone(), airline.to_string()]).unwrap();
            assert!(!judged.parse_body_ok && judged.quality_lift > 0.0, "{judged:?}");
        }

        let unreadable = [good[0].clone(), "Values rise a lot somewhere.".to_string()];
        assert!(judge.judge(&query, &unreadable).is_err());
        assert!(judge.judge(&query, &["Gibberish.".to_string()]).is_err());
        assert!(judge.judge(&query, &[]).is_err());
    }
}
