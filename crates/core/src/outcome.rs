//! Result of a vocalization run: the spoken text plus planner statistics.

use std::time::Duration;

use voxolap_speech::ast::Speech;

/// Planner statistics accumulated during one vocalization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanStats {
    /// Rows streamed from the table into the sample cache.
    pub rows_read: u64,
    /// Speech-evaluation sampling iterations performed.
    pub samples: u64,
    /// Nodes in the speech search tree (0 for approaches without one).
    pub tree_nodes: usize,
    /// `true` if tree expansion hit the node cap and was truncated.
    pub truncated: bool,
    /// Total planning time, including any exact evaluation.
    pub planning_time: Duration,
    /// `true` when the answer was degraded: a deadline cut it, and the
    /// anytime commit (or a stale serve) answered instead. Every approach
    /// with a planning loop sets it.
    pub degraded: bool,
    /// `true` when the answer was served from a version-stale cached
    /// exact result (the table grew since the entry was computed and the
    /// deadline had fired before a fresh plan could start). Always
    /// `false` on tables that never saw an append.
    pub stale: bool,
}

/// Outcome of vocalizing one query.
#[derive(Debug, Clone)]
pub struct VocalizationOutcome {
    /// The structured speech, when the approach produces one (the prior
    /// baseline emits free-form enumerations instead).
    pub speech: Option<Speech>,
    /// The preamble sentence (empty for approaches that skip it).
    pub preamble: String,
    /// Body sentences in spoken order (baseline, refinements, and any
    /// uncertainty annotations).
    pub sentences: Vec<String>,
    /// Time from query submission until voice output started — the latency
    /// measure of paper Figure 3.
    pub latency: Duration,
    /// Planner statistics.
    pub stats: PlanStats,
}

impl VocalizationOutcome {
    /// The speech body (all sentences after the preamble, joined).
    pub fn body_text(&self) -> String {
        self.sentences.join(" ")
    }

    /// Body length in characters — the quantity reported in paper Table 9.
    pub fn body_len(&self) -> usize {
        self.body_text().chars().count()
    }

    /// The complete spoken text.
    pub fn full_text(&self) -> String {
        if self.preamble.is_empty() {
            self.body_text()
        } else if self.sentences.is_empty() {
            self.preamble.clone()
        } else {
            format!("{} {}", self.preamble, self.body_text())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(preamble: &str, sentences: &[&str]) -> VocalizationOutcome {
        VocalizationOutcome {
            speech: None,
            preamble: preamble.to_string(),
            sentences: sentences.iter().map(|s| s.to_string()).collect(),
            latency: Duration::from_millis(1),
            stats: PlanStats::default(),
        }
    }

    #[test]
    fn text_assembly() {
        let o = outcome("Considering everything.", &["A is 1.", "B rises."]);
        assert_eq!(o.body_text(), "A is 1. B rises.");
        assert_eq!(o.full_text(), "Considering everything. A is 1. B rises.");
        assert_eq!(o.body_len(), 16);
    }

    #[test]
    fn empty_parts_do_not_leave_stray_spaces() {
        let no_preamble = outcome("", &["Only body."]);
        assert_eq!(no_preamble.full_text(), "Only body.");
        let no_body = outcome("Only preamble.", &[]);
        assert_eq!(no_body.full_text(), "Only preamble.");
    }
}
