//! The "unmerged" comparison approach (paper §5.1).
//!
//! Identical sampling strategy to the holistic planner — the same
//! [`HolisticConfig`], the same [`Team`] at one thread, the same plan
//! opening, the same sampling loop ([`Team::sample`]) — but **without**
//! merging vocalization, sampling, and planning: its stop test is a fixed
//! budget (the 500 ms interactivity threshold) instead of the voice, after
//! which it commits to the speech with the highest quality estimates and
//! speaks it in one go. Because it
//! "cannot overlap sampling and planning time with vocalization, it has
//! less time to read data and explore the search space" — which is exactly
//! the quality gap Figure 3 shows.

use std::sync::Arc;
use std::time::{Duration, Instant};

use voxolap_data::Table;
use voxolap_engine::query::Query;
use voxolap_faults::Resilience;
use voxolap_speech::render::Renderer;

use crate::approach::Vocalizer;
use crate::holistic::HolisticConfig;
use crate::pipeline::cancel::CancelToken;
use crate::pipeline::stream::{Buffered, SpeechStream};
use crate::resilience::ResCtx;
use crate::sampler::Team;
use crate::tree::SpeechTree;
use crate::voice::VoiceOutput;

/// How long the unmerged planner may sample before it must speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingBudget {
    /// Wall-clock budget.
    WallClock(Duration),
    /// Fixed number of sampling iterations — deterministic, for tests and
    /// reproducible experiments.
    Iterations(u64),
}

impl SamplingBudget {
    /// The paper's budget: the 500 ms interactivity threshold.
    pub const PAPER: SamplingBudget = SamplingBudget::WallClock(Duration::from_millis(500));
}

/// The unmerged vocalizer: the shared planner configuration (the fields
/// marked *all* and *sampling* in [`HolisticConfig`]) plus the one value
/// it owns, the sampling budget before output starts.
#[derive(Debug, Clone)]
pub struct Unmerged {
    config: HolisticConfig,
    budget: SamplingBudget,
    /// A bundle of its own unless replaced; see [`Unmerged::with_resilience`].
    resilience: Arc<Resilience>,
}

impl Default for Unmerged {
    /// The default configuration at [`SamplingBudget::PAPER`].
    fn default() -> Self {
        Unmerged::new(HolisticConfig::default(), SamplingBudget::PAPER)
    }
}

impl Unmerged {
    /// Create with the given configuration and sampling budget.
    pub fn new(config: HolisticConfig, budget: SamplingBudget) -> Self {
        Unmerged { config, budget, resilience: Arc::default() }
    }

    /// Replace the bundle the answers are counted in: the team is the
    /// holistic engine's, so its sampling loop is cut — and the cut
    /// marked — by the same deadline.
    pub fn with_resilience(mut self, resilience: Arc<Resilience>) -> Self {
        self.resilience = resilience;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &HolisticConfig {
        &self.config
    }
}

impl Vocalizer for Unmerged {
    fn name(&self) -> &'static str {
        "unmerged"
    }

    fn stream<'a>(
        &self,
        table: &'a Table,
        query: &'a Query,
        voice: &'a mut dyn VoiceOutput,
        cancel: CancelToken,
    ) -> SpeechStream<'a> {
        let cfg = &self.config;
        let t0 = Instant::now();
        let schema = table.schema();
        let renderer = Renderer::new(schema, query);
        let preamble = renderer.preamble();

        // The holistic engine's team at one thread: same sampling strategy,
        // same cache, no overlap with voice output.
        let res = ResCtx::new(&self.resilience);
        let mut team = Team::in_run(table, query, cfg, 1, res.clone());
        let Some(overall) = team.warmup(cfg.warmup_rows) else {
            let latency = t0.elapsed();
            voice.start(&preamble);
            let source = Buffered::no_data(team.cache().nr_read(), None);
            return SpeechStream::new(voice, cancel, t0, preamble, latency, Box::new(source), res);
        };
        let tree = SpeechTree::open(schema, query, cfg, overall);

        // Sample until the budget runs out — no voice output yet. A gone
        // consumer or a passed deadline ends the loop early; the deadline
        // marks the run degraded, and the commit below is its anytime
        // answer.
        let within_budget = |done: u64| match self.budget {
            SamplingBudget::WallClock(d) => Instant::now() < t0 + d,
            SamplingBudget::Iterations(n) => done < n,
        };
        let samples = team.sample(&tree, SpeechTree::ROOT, within_budget, &cancel);

        // Commit to the best path by mean reward down to the last sampled
        // node. A budget too tight to sample even once (huge trees eat it
        // during expansion) still commits the baseline nearest the warm-up
        // estimate.
        let mut current = SpeechTree::ROOT;
        let mut sentences = Vec::new();
        while let Some(next) = tree.commit_child(current) {
            let Some(sentence) = tree.sentence(next, &renderer) else { break };
            current = next;
            sentences.push(sentence);
        }

        // Only now does output start: latency includes the whole budget.
        let latency = t0.elapsed();
        voice.start(&preamble);
        let source = Buffered::planned(
            sentences,
            Some(tree.speech_at(current)),
            samples,
            team.cache().nr_read(),
            tree.tree().node_count(),
            tree.truncated(),
        );
        SpeechStream::new(voice, cancel, t0, preamble, latency, Box::new(source), res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;
    use voxolap_engine::query::AggFct;

    use crate::voice::InstantVoice;

    fn setup() -> (voxolap_data::Table, Query) {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        (table, q)
    }

    fn fast(budget: SamplingBudget) -> Unmerged {
        Unmerged::new(
            HolisticConfig { max_tree_nodes: 60_000, ..HolisticConfig::default() },
            budget,
        )
    }

    #[test]
    fn speaks_whole_speech_after_budget() {
        let (table, q) = setup();
        let mut voice = InstantVoice::default();
        let outcome = fast(SamplingBudget::Iterations(800)).vocalize(&table, &q, &mut voice);
        assert!(outcome.speech.is_some());
        assert!(!outcome.sentences.is_empty());
        assert_eq!(outcome.stats.samples, 800);
        // Preamble plus body sentences were all queued at once.
        assert_eq!(voice.transcript().len(), 1 + outcome.sentences.len());
    }

    #[test]
    fn iteration_budget_is_deterministic() {
        let (table, q) = setup();
        let run = || {
            let mut voice = InstantVoice::default();
            fast(SamplingBudget::Iterations(500)).vocalize(&table, &q, &mut voice).body_text()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wall_clock_budget_dominates_latency() {
        let (table, q) = setup();
        let unmerged = fast(SamplingBudget::WallClock(Duration::from_millis(60)));
        let mut voice = InstantVoice::default();
        let outcome = unmerged.vocalize(&table, &q, &mut voice);
        assert!(
            outcome.latency >= Duration::from_millis(60),
            "latency {:?} at least the budget",
            outcome.latency
        );
    }

    #[test]
    fn zero_budget_still_speaks_a_baseline() {
        let (table, q) = setup();
        let mut voice = InstantVoice::default();
        let outcome = fast(SamplingBudget::Iterations(0)).vocalize(&table, &q, &mut voice);
        assert_eq!(outcome.sentences.len(), 1, "fallback baseline spoken");
        let speech = outcome.speech.unwrap();
        // Nearest grid value to the warm-up estimate (~88-92 K).
        assert!((60.0..=120.0).contains(&speech.baseline.value));
    }

    #[test]
    fn tiny_budget_still_commits_to_visited_nodes_only() {
        let (table, q) = setup();
        let mut voice = InstantVoice::default();
        let outcome = fast(SamplingBudget::Iterations(3)).vocalize(&table, &q, &mut voice);
        // With 3 samples the committed path may be short, but every spoken
        // sentence corresponds to a visited node (no blind commitments).
        assert!(outcome.sentences.len() <= 3);
    }
}
