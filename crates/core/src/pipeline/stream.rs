//! The pull-based speech stream: sentences surface as they are planned.
//!
//! [`SpeechStream`] is the primary API of every vocalizer. Construction
//! does only what needs no data — the semantic cache's exact lookup and
//! starting the preamble — so the preamble is available (and on the
//! holistic engine's wire) within microseconds. The rest of the Ingest
//! stage (snapshot repair, warm start, warm-up, σ, tree build; the whole
//! exhaustive plan on an exact hit) is `Deferred` to the first
//! [`next_sentence`](SpeechStream::next_sentence) call, where it overlaps
//! the preamble being spoken. Each call runs one Plan/Sample → Commit
//! round and returns the committed sentence together with that round's
//! planner deltas (the first sentence's include Ingest);
//! [`finish`](SpeechStream::finish) runs the terminal stage
//! (semantic-cache admission) and folds the per-sentence history into the
//! classic [`VocalizationOutcome`]. A stream finished, or cancelled by its
//! client, before the first pull never runs Ingest: it reads no row,
//! builds no node and admits nothing.
//! `Vocalizer::vocalize()` is just [`drain`](SpeechStream::drain).

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use voxolap_faults::{DegradeReason, FaultSite};
use voxolap_speech::ast::Speech;

use crate::outcome::{PlanStats, VocalizationOutcome};
use crate::pipeline::cancel::{CancelKind, CancelToken};
use crate::resilience::ResCtx;
use crate::voice::VoiceOutput;

/// Planner-work deltas attributable to one sentence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentenceStats {
    /// Sampling iterations spent while this sentence was planned.
    pub samples: u64,
    /// Rows streamed into the sample cache during those iterations.
    pub rows_read: u64,
    /// Wall-clock time from requesting the sentence to committing it.
    pub elapsed: Duration,
}

/// One committed sentence, as yielded by
/// [`SpeechStream::next_sentence`].
#[derive(Debug, Clone)]
pub struct PlannedSentence {
    /// Zero-based position in the speech body (the preamble is not a
    /// planned sentence; it is available up front via
    /// [`SpeechStream::preamble`]).
    pub index: usize,
    /// The sentence text, including any uncertainty annotation.
    pub text: String,
    /// Planner work attributable to this sentence.
    pub stats: SentenceStats,
}

/// Terminal information a sentence source reports exactly once, after the
/// last sentence (admissions have already been performed by then).
pub(crate) struct FinishInfo {
    pub speech: Option<Speech>,
    pub tree_nodes: usize,
    pub truncated: bool,
}

/// The engine-specific part of a stream: plans one sentence per call
/// (pacing itself against `voice` and aborting on `cancel`), and settles
/// accounts — semantic-cache admission, final speech — in `finish`.
pub(crate) trait SentenceSource<'a> {
    /// Plan and commit the next sentence; `None` when the speech is
    /// complete or the token fired. Must NOT start voice output — the
    /// stream does that, so the voice-call sequence is identical for
    /// every source.
    fn next(&mut self, voice: &dyn VoiceOutput, cancel: &CancelToken) -> Option<String>;

    /// Cumulative sampling iterations so far.
    fn samples(&self) -> u64;

    /// Cumulative rows read so far.
    fn rows_read(&self) -> u64;

    /// Settle accounts (called exactly once).
    fn finish(&mut self) -> FinishInfo;
}

/// A source whose sentences were all planned before the first one is
/// emitted: Optimal, PriorGreedy, Unmerged, the semantic-cache exact-hit
/// path, and the no-data report. Emission still goes sentence-by-sentence
/// through the stream, but no sampling happens between sentences.
pub(crate) struct Buffered<'a> {
    queued: std::collections::VecDeque<String>,
    speech: Option<Speech>,
    samples: u64,
    rows_read: u64,
    tree_nodes: usize,
    truncated: bool,
    /// Deferred semantic-cache admission (e.g. the no-data path still
    /// admits its exhausted scan).
    on_finish: Option<Box<dyn FnOnce() + 'a>>,
}

impl<'a> Buffered<'a> {
    pub(crate) fn planned(
        sentences: Vec<String>,
        speech: Option<Speech>,
        samples: u64,
        rows_read: u64,
        tree_nodes: usize,
        truncated: bool,
    ) -> Self {
        Buffered {
            queued: sentences.into(),
            speech,
            samples,
            rows_read,
            tree_nodes,
            truncated,
            on_finish: None,
        }
    }

    /// The "No data matches the query scope." report.
    pub(crate) fn no_data(rows_read: u64, on_finish: Option<Box<dyn FnOnce() + 'a>>) -> Self {
        Buffered {
            queued: vec!["No data matches the query scope.".to_string()].into(),
            speech: None,
            samples: 0,
            rows_read,
            tree_nodes: 0,
            truncated: false,
            on_finish,
        }
    }
}

impl<'a> SentenceSource<'a> for Buffered<'a> {
    fn next(&mut self, _voice: &dyn VoiceOutput, cancel: &CancelToken) -> Option<String> {
        // A gone client stops delivery; a passed deadline only bounds
        // *planning* — sentences already planned are the anytime answer
        // and still play.
        if cancel.fired_kind() == Some(CancelKind::Client) {
            return None;
        }
        self.queued.pop_front()
    }

    fn samples(&self) -> u64 {
        self.samples
    }

    fn rows_read(&self) -> u64 {
        self.rows_read
    }

    fn finish(&mut self) -> FinishInfo {
        if let Some(admit) = self.on_finish.take() {
            admit();
        }
        FinishInfo {
            speech: self.speech.take(),
            tree_nodes: self.tree_nodes,
            truncated: self.truncated,
        }
    }
}

/// A source whose Ingest stage has not run yet: `ingest` — everything
/// between the preamble and the first round that needs data or builds the
/// search space — runs on the first pull and yields the source that plans
/// from then on. Nothing that needs data happens before the preamble is
/// out, and a stream nobody pulls from costs nothing.
pub(crate) struct Deferred<'a, F> {
    ingest: Option<F>,
    source: Option<Box<dyn SentenceSource<'a> + 'a>>,
}

impl<'a, F> Deferred<'a, F>
where
    F: FnOnce(&CancelToken) -> Box<dyn SentenceSource<'a> + 'a>,
{
    pub(crate) fn new(ingest: F) -> Self {
        Deferred { ingest: Some(ingest), source: None }
    }
}

impl<'a, F> SentenceSource<'a> for Deferred<'a, F>
where
    F: FnOnce(&CancelToken) -> Box<dyn SentenceSource<'a> + 'a>,
{
    fn next(&mut self, voice: &dyn VoiceOutput, cancel: &CancelToken) -> Option<String> {
        if let Some(ingest) = self.ingest.take() {
            // A client gone before the first pull gets no Ingest at all. A
            // passed deadline still does: the anytime answer needs a tree
            // to commit a baseline from.
            if cancel.fired_kind() == Some(CancelKind::Client) {
                return None;
            }
            self.source = Some(ingest(cancel));
        }
        self.source.as_mut()?.next(voice, cancel)
    }

    fn samples(&self) -> u64 {
        self.source.as_ref().map_or(0, |s| s.samples())
    }

    fn rows_read(&self) -> u64 {
        self.source.as_ref().map_or(0, |s| s.rows_read())
    }

    fn finish(&mut self) -> FinishInfo {
        match &mut self.source {
            Some(source) => source.finish(),
            None => FinishInfo { speech: None, tree_nodes: 0, truncated: false },
        }
    }
}

/// A speech being planned and spoken, one sentence at a time.
///
/// By the time a stream exists, the preamble has already been started on
/// the voice output (it needs no data); the holistic engine's Ingest stage
/// — cache warm-up, σ calibration, speech-tree construction — runs inside
/// the first [`next_sentence`](SpeechStream::next_sentence) call. Each
/// call overlaps sampling with the previously started sentence exactly
/// like the blocking engines did, then starts the new sentence on the
/// voice. Call [`finish`](SpeechStream::finish) (or
/// [`drain`](SpeechStream::drain)) to settle semantic-cache admissions
/// and obtain the aggregate [`VocalizationOutcome`].
pub struct SpeechStream<'a> {
    voice: &'a mut dyn VoiceOutput,
    cancel: CancelToken,
    t0: Instant,
    preamble: String,
    latency: Duration,
    sentences: Vec<String>,
    next_index: usize,
    done: bool,
    source: Box<dyn SentenceSource<'a> + 'a>,
    /// This run's degrade state and its engine's bundle: emission
    /// consults the Emit fault site, `finish` tags and counts the outcome.
    res: ResCtx,
    /// `true` when the answer comes from a version-stale cached exact
    /// result (§12 stale-serve); surfaces as `PlanStats::stale`. Never set
    /// on the fresh-planning paths.
    pub(crate) stale: bool,
}

impl<'a> SpeechStream<'a> {
    pub(crate) fn new(
        voice: &'a mut dyn VoiceOutput,
        cancel: CancelToken,
        t0: Instant,
        preamble: String,
        latency: Duration,
        source: Box<dyn SentenceSource<'a> + 'a>,
        res: ResCtx,
    ) -> Self {
        SpeechStream {
            voice,
            cancel,
            t0,
            preamble,
            latency,
            sentences: Vec::new(),
            next_index: 0,
            done: false,
            source,
            res,
            stale: false,
        }
    }

    /// The preamble, already started on the voice output.
    pub fn preamble(&self) -> &str {
        &self.preamble
    }

    /// Time from stream construction to the preamble starting.
    pub fn latency(&self) -> Duration {
        self.latency
    }

    /// Plan, commit, and start speaking the next sentence. `None` when
    /// the speech is complete or the cancellation token fired; planner
    /// deltas cover exactly the work done for this sentence.
    pub fn next_sentence(&mut self) -> Option<PlannedSentence> {
        if self.done {
            return None;
        }
        let samples_before = self.source.samples();
        let rows_before = self.source.rows_read();
        let t = Instant::now();
        let Some(text) = self.source.next(&*self.voice, &self.cancel) else {
            self.done = true;
            return None;
        };
        // Emit fault site: a latency fault stalls the hand-off to the
        // voice; an error fault cuts the speech short — except for the
        // very first body sentence (the baseline), which must always be
        // delivered for the answer to remain grammar-valid.
        if let Some(fault) = self.res.bundle.roll(FaultSite::Emit) {
            self.res.run.note_fault();
            fault.stall();
            if fault.error && self.next_index > 0 {
                self.res.run.mark_degraded(DegradeReason::EmitFailure);
                self.done = true;
                return None;
            }
        }
        self.voice.start(&text);
        let stats = SentenceStats {
            samples: self.source.samples().saturating_sub(samples_before),
            rows_read: self.source.rows_read().saturating_sub(rows_before),
            elapsed: t.elapsed(),
        };
        self.sentences.push(text.clone());
        let index = self.next_index;
        self.next_index += 1;
        Some(PlannedSentence { index, text, stats })
    }

    /// Settle semantic-cache admissions and fold the spoken sentences
    /// into a [`VocalizationOutcome`]. Valid at any point — after a
    /// cancellation, the outcome covers what was spoken so far.
    pub fn finish(mut self) -> VocalizationOutcome {
        let info = self.source.finish();
        let degraded = self.res.run.degraded();
        let stats = self.res.bundle.stats();
        let tally = if degraded { &stats.degraded_answers } else { &stats.clean_answers };
        tally.fetch_add(1, Ordering::Relaxed);
        VocalizationOutcome {
            speech: info.speech,
            preamble: self.preamble,
            sentences: self.sentences,
            latency: self.latency,
            stats: PlanStats {
                rows_read: self.source.rows_read(),
                samples: self.source.samples(),
                tree_nodes: info.tree_nodes,
                truncated: info.truncated,
                planning_time: self.t0.elapsed(),
                degraded,
                stale: self.stale,
            },
        }
    }

    /// Pull every remaining sentence, then [`finish`](SpeechStream::finish)
    /// — the blocking `Vocalizer::vocalize()` adapter.
    pub fn drain(mut self) -> VocalizationOutcome {
        while self.next_sentence().is_some() {}
        self.finish()
    }
}
