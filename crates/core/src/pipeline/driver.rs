//! The Plan/Sample → Commit driver of the holistic engine.
//!
//! [`TeamSource`] runs Algorithm 1's per-sentence round over the engine's
//! [`Team`]: sample while the previous sentence plays (or until the
//! progress floor), then commit to the best-mean child and render it. The
//! round's stop test is the one thing it adds to [`Team::sample`]: the team
//! polls the voice with the iterations it ran this round. One thread is
//! exact and deterministic under a seed; on a virtual voice, N threads run
//! the same iterations per sentence give or take N − 1.

use std::sync::Arc;

use voxolap_data::schema::MeasureUnit;
use voxolap_engine::query::ResultLayout;
use voxolap_engine::semantic::SemanticCache;
use voxolap_engine::sharded::ShardedSampleCache;
use voxolap_mcts::NodeId;
use voxolap_speech::render::Renderer;

use crate::holistic::{relevant_aggs, HolisticConfig};
use crate::pipeline::cancel::CancelToken;
use crate::pipeline::stream::{FinishInfo, SentenceSource};
use crate::resilience::{round_status, RoundEnd};
use crate::sampler::Team;
use crate::tree::SpeechTree;
use crate::uncertainty::{annotate, UncertaintyMode};
use crate::voice::VoiceOutput;

/// Advance `current` to the child [`SpeechTree::commit_child`] picks and
/// render that sentence (with the configured uncertainty annotation);
/// `None` when the walk is finished or nothing below `current` was
/// sampled. Committed nodes are never the root, so `tree.sentence` is
/// always `Some`; a `None` ends the speech instead of panicking.
fn commit_and_render(
    tree: &SpeechTree,
    current: &mut NodeId,
    renderer: &Renderer<'_>,
    cfg: &HolisticConfig,
    confidence: &ShardedSampleCache,
    layout: &ResultLayout,
    unit: MeasureUnit,
) -> Option<String> {
    let next = tree.commit_child(*current)?;
    let mut sentence = tree.sentence(next, renderer)?;
    *current = next;
    if !matches!(cfg.uncertainty, UncertaintyMode::Off) {
        let aggs = relevant_aggs(tree, next, layout);
        if let Some(extra) = annotate(cfg.uncertainty, confidence, &aggs, unit) {
            sentence = format!("{sentence} {extra}");
        }
    }
    Some(sentence)
}

/// The holistic engine's sentence source: one [`Team`] over one speech
/// tree (see module docs).
pub(crate) struct TeamSource<'a> {
    pub(crate) team: Team<'a>,
    pub(crate) tree: SpeechTree,
    pub(crate) renderer: Renderer<'a>,
    pub(crate) cfg: HolisticConfig,
    pub(crate) current: NodeId,
    pub(crate) unit: MeasureUnit,
    pub(crate) samples: u64,
    /// Donor rows a warm start replayed; not counted as read by this run.
    pub(crate) seeded_total: u64,
    pub(crate) semantic: Option<Arc<SemanticCache>>,
}

impl<'a> SentenceSource<'a> for TeamSource<'a> {
    /// One per-sentence round of Algorithm 1: sample while the previously
    /// started sentence plays (plus the progress floor for instant
    /// voices), then commit. An `Anytime` round status commits the best
    /// answer the tree holds right now instead of yielding nothing.
    fn next(&mut self, voice: &dyn VoiceOutput, cancel: &CancelToken) -> Option<String> {
        let current = self.current;
        let floor = self.cfg.min_samples_per_sentence;
        let more = |done| voice.is_playing(done) || done < floor;
        self.samples += self.team.sample(&self.tree, current, more, cancel);
        // Asked again after the members stopped, so a token firing between
        // the last poll and the commit still aborts cleanly; an `Anytime`
        // status commits the best answer the tree holds right now.
        let at_root = current == SpeechTree::ROOT;
        let at_leaf = self.tree.tree().is_leaf(current);
        if round_status(cancel, self.team.run(), at_root, at_leaf) == RoundEnd::Stop {
            return None;
        }
        commit_and_render(
            &self.tree,
            &mut self.current,
            &self.renderer,
            &self.cfg,
            self.team.cache(),
            self.team.query().layout(),
            self.unit,
        )
    }

    fn samples(&self) -> u64 {
        self.samples
    }

    fn rows_read(&self) -> u64 {
        self.team.cache().nr_read().saturating_sub(self.seeded_total)
    }

    fn finish(&mut self) -> FinishInfo {
        if let Some(sem) = &self.semantic {
            self.team.admit(sem);
        }
        FinishInfo {
            speech: Some(self.tree.speech_at(self.current)),
            tree_nodes: self.tree.tree().node_count(),
            truncated: self.tree.truncated(),
        }
    }
}
