//! User-preference constraints on speeches (`SG.IsValid`).
//!
//! Following prior work, speeches are constrained by a character budget and
//! a fragment budget (paper §2). The paper's experiments restrict the main
//! speech (without preamble) to 300 characters, "recommended for
//! voice-based interactions" by the Google Assistant SDK.

use crate::ast::Speech;
use crate::render::Renderer;

/// Threshold constraints on speech length and fragment count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpeechConstraints {
    /// Maximum number of characters of the speech body (without preamble).
    pub max_chars: usize,
    /// Maximum number of refinement statements.
    pub max_refinements: usize,
}

impl SpeechConstraints {
    /// The paper's experimental configuration: 300 characters, and room for
    /// a small number of refinements.
    pub fn paper_default() -> Self {
        SpeechConstraints { max_chars: 300, max_refinements: 3 }
    }

    /// `SG.IsValid(t, p)`: does `speech` respect these preferences?
    pub fn is_valid(&self, renderer: &Renderer<'_>, speech: &Speech) -> bool {
        speech.refinements.len() <= self.max_refinements
            && renderer.body_len(speech) <= self.max_chars
    }

    /// `true` when `speech` already saturates the constraints — appending
    /// any refinement would necessarily violate them. (A cheap necessary
    /// check; the planner still validates each concrete extension.)
    pub fn at_fragment_limit(&self, speech: &Speech) -> bool {
        speech.refinements.len() >= self.max_refinements
    }
}

impl Default for SpeechConstraints {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;
    use voxolap_engine::query::{AggFct, Query};

    use crate::ast::{Change, Direction, Predicate, Refinement};

    #[test]
    fn default_is_paper_configuration() {
        let c = SpeechConstraints::default();
        assert_eq!(c.max_chars, 300);
        assert_eq!(c.max_refinements, 3);
    }

    #[test]
    fn validity_enforces_both_budgets() {
        let table = SalaryConfig::paper_scale().generate();
        let schema = table.schema();
        let q = Query::builder(AggFct::Avg).group_by(DimId(0), LevelId(1)).build(schema).unwrap();
        let r = Renderer::new(schema, &q);
        let ne = schema.dimension(DimId(0)).member_by_phrase("the North East").unwrap();
        let refinement = Refinement {
            predicates: vec![Predicate { dim: DimId(0), member: ne }],
            change: Change { direction: Direction::Increase, percent: 5 },
        };

        let mut speech = Speech::baseline_only(90.0);
        let constraints = SpeechConstraints { max_chars: 300, max_refinements: 2 };
        assert!(constraints.is_valid(&r, &speech));

        speech = speech.with_refinement(refinement.clone());
        speech = speech.with_refinement(refinement.clone());
        assert!(constraints.is_valid(&r, &speech));
        assert!(constraints.at_fragment_limit(&speech));

        speech = speech.with_refinement(refinement.clone());
        assert!(!constraints.is_valid(&r, &speech), "third refinement over limit");

        let tight = SpeechConstraints { max_chars: 30, max_refinements: 5 };
        assert!(
            !tight.is_valid(&r, &Speech::baseline_only(90.0))
                || r.body_len(&Speech::baseline_only(90.0)) <= 30
        );
    }

    #[test]
    fn char_budget_alone_can_invalidate() {
        let table = SalaryConfig::paper_scale().generate();
        let schema = table.schema();
        let q = Query::builder(AggFct::Avg).group_by(DimId(0), LevelId(1)).build(schema).unwrap();
        let r = Renderer::new(schema, &q);
        let speech = Speech::baseline_only(90.0);
        let len = r.body_len(&speech);
        let just_enough = SpeechConstraints { max_chars: len, max_refinements: 0 };
        assert!(just_enough.is_valid(&r, &speech));
        let too_tight = SpeechConstraints { max_chars: len - 1, max_refinements: 0 };
        assert!(!too_tight.is_valid(&r, &speech));
    }
}
