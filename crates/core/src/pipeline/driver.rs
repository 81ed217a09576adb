//! The Plan/Sample → Commit driver of the holistic engine.
//!
//! [`TeamSource`] runs Algorithm 1's per-sentence round over a team of
//! [`ShardWorker`]s: sample while the previous sentence plays (or until
//! the progress floor), then commit to the best-mean child and render it.
//! Every member — the calling thread, and at N threads N − 1 scoped ones —
//! runs one loop on one shared counter, and polls the voice with the
//! iterations the team ran this round. One thread is exact and
//! deterministic under a seed; on a virtual voice, N threads run the same
//! iterations per sentence give or take N − 1.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use voxolap_data::schema::MeasureUnit;
use voxolap_engine::query::ResultLayout;
use voxolap_engine::semantic::SemanticCache;
use voxolap_engine::sharded::ShardedSampleCache;
use voxolap_faults::RunState;
use voxolap_mcts::NodeId;
use voxolap_speech::render::Renderer;

use crate::holistic::{relevant_aggs, HolisticConfig};
use crate::pipeline::cancel::CancelToken;
use crate::pipeline::stream::{FinishInfo, SentenceSource};
use crate::resilience::{round_status, RoundEnd};
use crate::sampler::ShardWorker;
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

/// The holistic engine's sentence source: one team of workers over one
/// shared cache, morsel pool and speech tree (see module docs).
pub(crate) struct TeamSource<'a> {
    pub(crate) workers: Vec<ShardWorker<'a>>,
    pub(crate) tree: SpeechTree,
    pub(crate) renderer: Renderer<'a>,
    pub(crate) cfg: HolisticConfig,
    pub(crate) current: NodeId,
    pub(crate) unit: MeasureUnit,
    pub(crate) samples: AtomicU64,
    /// Donor rows a warm start replayed; not counted as read by this run.
    pub(crate) seeded_total: u64,
    pub(crate) semantic: Option<Arc<SemanticCache>>,
    /// This run's degrade state.
    pub(crate) run: Arc<RunState>,
}

impl<'a> SentenceSource<'a> for TeamSource<'a> {
    /// One per-sentence round of Algorithm 1: sample while the previously
    /// started sentence plays (plus the progress floor for instant
    /// voices), then commit. An `Anytime` round status commits the best
    /// answer the tree holds right now instead of yielding nothing.
    fn next(&mut self, voice: &dyn VoiceOutput, cancel: &CancelToken) -> Option<String> {
        let tree = &self.tree;
        let current = self.current;
        let at_root = current == SpeechTree::ROOT;
        let at_leaf = tree.tree().is_leaf(current);
        let run = &*self.run;
        let floor = self.cfg.min_samples_per_sentence;
        let samples = &self.samples;
        let round_start = samples.load(Ordering::Relaxed);
        // Checking the round status *first* in each iteration fixes the
        // voice polling sequence — and so, at one thread, the sampling
        // iteration count — under a seed. `samples` is `Relaxed`: it
        // publishes no data (the tree and cache synchronise themselves, and
        // the scope's join orders the commit after every member), and a
        // member that reads it one step late runs one more iteration.
        let member = &|worker: &mut ShardWorker<'a>| {
            while round_status(cancel, run, at_root, at_leaf) == RoundEnd::Continue {
                let done = samples.load(Ordering::Relaxed) - round_start;
                if !(voice.is_playing(done) || done < floor) {
                    break;
                }
                worker.sample_once(tree, current);
                samples.fetch_add(1, Ordering::Relaxed);
            }
        };
        let (lead, team) = self.workers.split_first_mut().expect("a team has a member");
        std::thread::scope(|scope| {
            for worker in team {
                scope.spawn(move || member(worker));
            }
            member(lead);
        });
        // Asked again after the members stopped, so a token firing between
        // the last poll and the commit still aborts cleanly; an `Anytime`
        // status commits the best answer the tree holds right now.
        if round_status(cancel, run, at_root, at_leaf) == RoundEnd::Stop {
            return None;
        }
        let lead = &self.workers[0];
        commit_and_render(
            &self.tree,
            &mut self.current,
            &self.renderer,
            &self.cfg,
            lead.cache(),
            lead.query().layout(),
            self.unit,
        )
    }

    fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    fn rows_read(&self) -> u64 {
        self.workers[0].cache().nr_read().saturating_sub(self.seeded_total)
    }

    fn finish(&mut self) -> FinishInfo {
        if let Some(sem) = &self.semantic {
            self.workers[0].admit(sem);
        }
        FinishInfo {
            speech: Some(self.tree.speech_at(self.current)),
            tree_nodes: self.tree.tree().node_count(),
            truncated: self.tree.truncated(),
        }
    }
}
