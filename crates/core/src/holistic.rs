//! The holistic engine — paper Algorithm 1 (`EvalVocal`).
//!
//! Combined query evaluation and result vocalization:
//!
//! 1. speak the preamble immediately (it needs no data — `stream()` does
//!    nothing else but look the query up in the semantic cache);
//! 2. while it plays — on the stream's first pull — warm up the sample
//!    cache and expand the full speech search tree;
//! 3. while each sentence plays, refine speech-quality estimates by UCT
//!    sampling (`ST.Sample`) rooted at the current node;
//! 4. when a sentence finishes, commit to the child with the best **mean**
//!    reward (no exploration bonus — "Algorithm 1 cannot afford further
//!    exploration when selecting the best child node"), speak it, and make
//!    it the new sampling root so all previously collected statistics in
//!    its subtree remain available ("we avoid redundant planning work").
//!
//! There is one engine, and its thread count is the only thing that
//! selects how many threads run its one round loop
//! ([`Holistic::with_threads`]):
//!
//! * **One thread (the default)** — the calling thread samples alone
//!   while the previous sentence plays, then commits. Exact and
//!   deterministic under a fixed seed; experiments and tests use it.
//! * **N threads** — the paper's literal architecture ("while the current
//!   sentence is spoken, we determine the best follow-up in the
//!   background") scaled across cores: N − 1 scoped threads join it, on
//!   one shared iteration count the voice is polled with. Outcomes depend
//!   on scheduling and are **not** bit-reproducible.
//!
//! Both share every piece: workers claim whole morsels of the seeded scan
//! order from one shared [`MorselPool`](voxolap_data::MorselPool) — so the
//! union of their prefixes stays a uniform sample, and one worker drains
//! it in exactly the seeded order — into one [`ShardedSampleCache`]; they
//! run the same plain UCT descent over one lock-free speech tree; and one
//! commit rule moves the sampling root (see `pipeline::driver`).
//! [`HolisticConfig`], declared here, is the configuration of every
//! approach, not only this one.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use voxolap_data::Table;
use voxolap_engine::query::{AggIdx, Query, ResultLayout};
use voxolap_engine::repair::repair_snapshot;
use voxolap_engine::semantic::SemanticCache;
use voxolap_engine::sharded::ShardedSampleCache;
use voxolap_faults::Resilience;
use voxolap_mcts::NodeId;
use voxolap_speech::candidates::CandidateConfig;
use voxolap_speech::constraints::SpeechConstraints;
use voxolap_speech::render::Renderer;

use crate::approach::Vocalizer;
use crate::optimal::{serve_stale_exact, ExactHit};
use crate::pipeline::cancel::CancelToken;
use crate::pipeline::driver::TeamSource;
use crate::pipeline::stream::{Buffered, Deferred, SentenceSource, SpeechStream};
use crate::resilience::ResCtx;
use crate::sampler::{SelectionPolicy, ShardWorker};
use crate::tree::SpeechTree;
use crate::uncertainty::UncertaintyMode;
use crate::voice::VoiceOutput;

/// The planner configuration — the one every approach takes, so a
/// side-by-side of [`Holistic`], [`Unmerged`](crate::unmerged::Unmerged) and
/// [`Optimal`](crate::optimal::Optimal) compares evaluation strategies over
/// the same speech space and the same estimator. Each field names its
/// readers: *all* is those three; *sampling* is Holistic (at any thread
/// count) and Unmerged, which draw rows and UCT samples where Optimal
/// evaluates exactly.
#[derive(Debug, Clone)]
pub struct HolisticConfig {
    /// User-preference constraints (speech length, fragment count). *All.*
    pub constraints: SpeechConstraints,
    /// Candidate space (quantifier menu, predicate pool). *All.*
    pub candidates: CandidateConfig,
    /// RNG seed; same seed, same speech. *Sampling.*
    pub seed: u64,
    /// Rows ingested before the tree is built; their estimate seeds the
    /// baseline value grid (Optimal uses the exact grand mean instead).
    /// Holistic reads them on the stream's first pull, after the preamble
    /// is out; Unmerged inside its budget. *Sampling.*
    pub warmup_rows: usize,
    /// Minimum sampling iterations per sentence even when voice output has
    /// already finished (guarantees progress under instant voices).
    /// *Holistic only* — Unmerged samples for its budget instead.
    pub min_samples_per_sentence: u64,
    /// Hard cap on search-tree size; expansion truncates beyond it. *All.*
    pub max_tree_nodes: usize,
    /// Override the belief σ (default: half the overall estimate, see
    /// [`calibrated_sigma`](crate::sampler::calibrated_sigma)). *All.*
    pub sigma_override: Option<f64>,
    /// Uncertainty transmission mode (paper §4.4). *Holistic only.*
    pub uncertainty: UncertaintyMode,
    /// Unread: no planner reads it. The sampling planners draw each
    /// estimate from the normal posterior of the cache's running moments
    /// (`ShardedSampleCache::posterior`), which needs no resample size.
    /// Kept only because the benchmark's server configuration still names
    /// it; it goes with that configuration (ROADMAP item 11c). *None.*
    pub resample_size: usize,
    /// Tree-descent policy during sampling (UCT by default; uniform random
    /// is the no-prioritization ablation). *Sampling.*
    pub policy: SelectionPolicy,
}

impl Default for HolisticConfig {
    fn default() -> Self {
        HolisticConfig {
            constraints: SpeechConstraints { max_chars: 300, max_refinements: 2 },
            candidates: CandidateConfig::default(),
            seed: 42,
            warmup_rows: 200,
            min_samples_per_sentence: 64,
            max_tree_nodes: 500_000,
            sigma_override: None,
            uncertainty: UncertaintyMode::Off,
            resample_size: 100,
            policy: SelectionPolicy::Uct,
        }
    }
}

impl HolisticConfig {
    /// Fingerprint of what the speech space of `query` depends on besides
    /// the aggregates it is opened around: the fields marked *all*, and the
    /// GROUP BY list in the order it was written — the refinement catalogue
    /// enumerates predicates in that order, while the cache key sorts it, so
    /// both orders meet in one cache entry. The semantic cache stamps a kept
    /// plan with it; a path of catalogue ids means nothing under another.
    pub(crate) fn plan_fingerprint(&self, query: &Query) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (self.constraints, &self.candidates, self.max_tree_nodes).hash(&mut h);
        self.sigma_override.map(f64::to_bits).hash(&mut h);
        query.group_by().hash(&mut h);
        h.finish()
    }
}

/// The holistic vocalizer (paper §4) at a configurable planning-thread
/// count (see module docs); one thread unless
/// [`with_threads`](Holistic::with_threads) says otherwise.
#[derive(Debug, Clone)]
pub struct Holistic {
    config: HolisticConfig,
    threads: usize,
    cache: Option<Arc<SemanticCache>>,
    /// The degradation ladder every run of this engine opens its
    /// [`ResCtx`] on; inert (no injector) unless replaced.
    resilience: Arc<Resilience>,
}

impl Default for Holistic {
    fn default() -> Self {
        Holistic::new(HolisticConfig::default())
    }
}

impl Holistic {
    /// Create with the given configuration, at one planning thread.
    pub fn new(config: HolisticConfig) -> Self {
        Holistic { config, threads: 1, cache: None, resilience: Arc::default() }
    }

    /// Attach a cross-query semantic cache. Repeats of an exactly-answered
    /// query skip sampling entirely; scope-compatible snapshots warm-start
    /// the sample cache. Snapshots record per-chunk morsel-pool progress:
    /// a warm start requires a donor run with the same seed, but any
    /// thread count can resume any donor's consumed prefix. With an empty
    /// cache, a one-thread run is bit-identical to a cacheless one.
    pub fn with_cache(mut self, cache: Arc<SemanticCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Set the number of planning threads (min 1) — the only selector
    /// between the deterministic cooperative mode (`1`) and a team.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Replace the engine's resilience bundle (an inert one of its own by
    /// default): fault injection at the engine's fault sites, the retry →
    /// circuit-breaker read ladder, and the [`DegradeStats`] its answers
    /// are counted in. Anytime-answer degradation needs no injector — a
    /// deadline cut commits the best baseline, marked degraded, on either.
    ///
    /// [`DegradeStats`]: voxolap_faults::DegradeStats
    pub fn with_resilience(mut self, resilience: Arc<Resilience>) -> Self {
        self.resilience = resilience;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &HolisticConfig {
        &self.config
    }
}

/// The aggregates a node's sentence claims something about: all of them
/// for a baseline, the refinement scope otherwise. Used only for
/// uncertainty annotations.
pub(crate) fn relevant_aggs(tree: &SpeechTree, node: NodeId, layout: &ResultLayout) -> Vec<AggIdx> {
    let all = 0..layout.n_aggregates() as u32;
    match tree.refinement(node) {
        None => all.collect(),
        Some(entry) => all.filter(|&a| entry.scope.contains(a, layout)).collect(),
    }
}

impl Vocalizer for Holistic {
    /// `holistic` at one thread, `holistic-parallel` for a team.
    fn name(&self) -> &'static str {
        if self.threads == 1 {
            "holistic"
        } else {
            "holistic-parallel"
        }
    }

    /// The part of Algorithm 1's Ingest stage that needs no data: the
    /// semantic cache's exact lookup and the preamble. Everything else —
    /// `Holistic::ingest`, or the exhaustive plan of an exact hit — is
    /// deferred to the stream's first pull, after which the stream runs one
    /// Plan/Sample → Commit round of the driver per sentence.
    fn stream<'a>(
        &self,
        table: &'a Table,
        query: &'a Query,
        voice: &'a mut dyn VoiceOutput,
        cancel: CancelToken,
    ) -> SpeechStream<'a> {
        // One run per vocalization: the degrade ladder's per-run fault
        // budget and first-cause tag.
        let res = ResCtx::new(&self.resilience);

        // Semantic cache, layer 1: a repeat of an exactly-answered query
        // skips sampling entirely and plans against stored aggregates.
        // Entries from an older table version are served only when fresh
        // data is unreachable (§12 stale-serve, marked `stale: true`);
        // otherwise they are invalidated and the query replans fresh.
        let serve_stale = || serve_stale_exact(&cancel, &res);
        let hit = ExactHit::lookup(self.cache.as_ref(), query, table.version(), serve_stale);

        // Start voice output of the preamble; everything else overlaps it.
        let t0 = Instant::now();
        let preamble = Renderer::new(table.schema(), query).preamble();
        voice.start(&preamble);
        let latency = t0.elapsed();

        let stale = hit.as_ref().is_some_and(|hit| hit.stale);
        let source: Box<dyn SentenceSource<'a> + 'a> = match hit {
            Some(hit) => {
                let cfg = self.config.clone();
                let run = res.run.clone();
                let plan = move |cancel: &CancelToken| -> Box<dyn SentenceSource<'a> + 'a> {
                    Box::new(hit.plan(table.schema(), query, &cfg, cancel, &run))
                };
                Box::new(Deferred::new(plan))
            }
            None => {
                let engine = self.clone();
                let res = res.clone();
                Box::new(Deferred::new(move |_: &CancelToken| engine.ingest(table, query, res)))
            }
        };
        let mut stream = SpeechStream::new(voice, cancel, t0, preamble, latency, source, res);
        stream.stale = stale;
        stream
    }
}

impl Holistic {
    /// The data-dependent part of Algorithm 1's Ingest stage, run by the
    /// stream's first pull while the preamble plays: snapshot repair and
    /// warm start, warm-up, σ calibration, tree construction. Returns the
    /// team that samples from then on (or the no-data report).
    fn ingest<'a>(
        self,
        table: &'a Table,
        query: &'a Query,
        res: ResCtx,
    ) -> Box<dyn SentenceSource<'a> + 'a> {
        let Holistic { config: cfg, threads: n_workers, cache: semantic, .. } = self;
        let schema = table.schema();

        let mut shared = ShardedSampleCache::new(query.n_aggregates(), table.row_count() as u64);
        if let Some(inj) = res.bundle.injector() {
            shared = shared.with_faults(inj.clone(), res.bundle.stats().clone());
        }
        let cache = Arc::new(shared);
        let pool = table.morsel_pool(cfg.seed);
        let mut workers: Vec<ShardWorker<'a>> = (0..n_workers)
            .map(|w| ShardWorker::new(table, query, cache.clone(), &cfg, pool.clone(), w, &res))
            .collect();

        // Semantic cache, layer 2: a snapshot with the same scope (measure
        // + filters) and seed names the donor's uniform row prefix. Worker
        // 0 replays those rows from the pinned revision into the shared
        // cache and the shared morsel pool advances past them, so sampling
        // resumes where the donor stopped. A version-stale snapshot is
        // first *repaired* — rebased onto the grown scan order with a
        // proportional prefix of the appended suffix added, never a full
        // rescan — and re-admitted; the suffix rows the repair added count
        // as this run's rows read, the rest of the replay does not.
        let mut seeded_total = 0u64;
        if let Some(sem) = &semantic {
            let scope = query.key().scope();
            let donor = sem.lookup_snapshot(&scope, cfg.seed).and_then(|snap| {
                if snap.version == table.version() {
                    Some((snap, 0u64))
                } else {
                    repair_snapshot(&snap, table, &scope).map(|out| {
                        sem.note_repair(out.rows_read);
                        sem.admit_snapshot(&scope, out.snapshot.clone());
                        (Arc::new(out.snapshot), out.rows_read)
                    })
                }
            });
            match donor {
                Some((snap, repair_rows)) => {
                    let replayed = workers[0].warm_start(&snap);
                    sem.note_replay(replayed);
                    seeded_total = replayed.saturating_sub(repair_rows);
                }
                None => sem.record_miss(),
            }
        }

        // Warm up on worker 0's shard (a uniform sample of the table).
        let Some(overall) = workers[0].warmup(cfg.warmup_rows) else {
            // Entire table streamed, not one row in scope: report that —
            // and still admit the exhausted scan to the semantic cache.
            let fresh = cache.nr_read().saturating_sub(seeded_total);
            let admit = move || {
                if let Some(sem) = &semantic {
                    workers[0].admit(sem);
                }
            };
            return Box::new(Buffered::no_data(fresh, Some(Box::new(admit))));
        };
        let (sigma, tree) = SpeechTree::open(schema, query, &cfg, overall);
        for w in &mut workers {
            w.set_sigma(sigma);
        }

        Box::new(TeamSource {
            workers,
            tree,
            renderer: Renderer::new(schema, query),
            cfg,
            current: SpeechTree::ROOT,
            unit: schema.measure(query.measure()).unit,
            samples: AtomicU64::new(0),
            seeded_total,
            semantic,
            run: res.run,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;
    use voxolap_engine::query::AggFct;

    use crate::voice::{InstantVoice, VirtualVoice};

    fn setup() -> (voxolap_data::Table, Query) {
        region_by_start_salary(SalaryConfig::paper_scale().generate())
    }

    /// The [`setup`] query over a 200 000-row salary table: a run at a few
    /// thousand samples per sentence reads a small part of it, so its
    /// confidence intervals are still open.
    pub(crate) fn partial_scan_setup() -> (voxolap_data::Table, Query) {
        region_by_start_salary(SalaryConfig { rows: 200_000, seed: 42 }.generate())
    }

    fn region_by_start_salary(table: voxolap_data::Table) -> (voxolap_data::Table, Query) {
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        (table, q)
    }

    fn fast_config() -> HolisticConfig {
        HolisticConfig {
            min_samples_per_sentence: 400,
            max_tree_nodes: 60_000,
            ..HolisticConfig::default()
        }
    }

    #[test]
    fn produces_grammatical_speech() {
        let (table, q) = setup();
        let mut voice = InstantVoice::default();
        let outcome = Holistic::new(fast_config()).vocalize(&table, &q, &mut voice);
        assert!(outcome.preamble.starts_with("Considering"));
        let speech = outcome.speech.as_ref().unwrap();
        assert!(speech.refinements.len() <= 2);
        // First body sentence is the baseline.
        assert!(outcome.sentences[0].contains("is the average mid-career salary."));
        // Voice transcript = preamble + body sentences.
        assert_eq!(voice.transcript().len(), 1 + outcome.sentences.len());
    }

    #[test]
    fn respects_constraints() {
        let (table, q) = setup();
        let mut voice = InstantVoice::default();
        let cfg = HolisticConfig {
            constraints: SpeechConstraints { max_chars: 300, max_refinements: 1 },
            ..fast_config()
        };
        let outcome = Holistic::new(cfg).vocalize(&table, &q, &mut voice);
        let speech = outcome.speech.as_ref().unwrap();
        assert!(speech.refinements.len() <= 1);
        assert!(outcome.body_len() <= 300 + 80, "uncertainty-free body near budget");
    }

    #[test]
    fn is_deterministic_under_seed() {
        let (table, q) = setup();
        let run = || {
            let mut voice = InstantVoice::default();
            Holistic::new(fast_config()).vocalize(&table, &q, &mut voice).body_text()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn baseline_lands_near_truth() {
        let (table, q) = setup();
        let mut voice = VirtualVoice::new(20.0);
        let outcome = Holistic::new(fast_config()).vocalize(&table, &q, &mut voice);
        let v = outcome.speech.unwrap().baseline.value;
        // Exact grand mean is ~88-92 K; one-significant-digit planning must
        // land on 80, 90, or 100.
        assert!((70.0..=110.0).contains(&v), "baseline {v}");
    }

    #[test]
    fn pipelining_grants_more_samples_with_longer_voice() {
        let (table, q) = setup();
        let mut slow_voice = VirtualVoice::new(50.0);
        let slow = Holistic::new(fast_config()).vocalize(&table, &q, &mut slow_voice);
        let mut instant_voice = InstantVoice::default();
        let instant = Holistic::new(fast_config()).vocalize(&table, &q, &mut instant_voice);
        assert!(
            slow.stats.samples > instant.stats.samples,
            "speaking time buys sampling: {} vs {}",
            slow.stats.samples,
            instant.stats.samples
        );
    }

    #[test]
    fn latency_is_far_below_interactivity_threshold() {
        let (table, q) = setup();
        let mut voice = InstantVoice::default();
        let outcome = Holistic::new(fast_config()).vocalize(&table, &q, &mut voice);
        assert!(
            outcome.latency.as_millis() < 500,
            "latency {:?} under the 500 ms threshold",
            outcome.latency
        );
    }

    #[test]
    fn uncertainty_warning_mode_appends_note() {
        let (table, q) = partial_scan_setup();
        let mut voice = InstantVoice::default();
        let cfg = HolisticConfig {
            uncertainty: UncertaintyMode::Warning { max_relative_width: 0.0001 },
            ..fast_config()
        };
        let outcome = Holistic::new(cfg).vocalize(&table, &q, &mut voice);
        assert!(outcome.stats.rows_read < table.row_count() as u64, "a partial scan");
        assert!(
            outcome.sentences.iter().any(|s| s.contains("confidence")),
            "warning appended: {:?}",
            outcome.sentences
        );
    }

    #[test]
    fn empty_cache_run_matches_cacheless_output() {
        let (table, q) = setup();
        let cacheless = {
            let mut voice = InstantVoice::default();
            Holistic::new(fast_config()).vocalize(&table, &q, &mut voice).body_text()
        };
        let cache = Arc::new(SemanticCache::with_capacity_mb(4));
        let cached = {
            let mut voice = InstantVoice::default();
            Holistic::new(fast_config())
                .with_cache(cache.clone())
                .vocalize(&table, &q, &mut voice)
                .body_text()
        };
        assert_eq!(cacheless, cached, "a cold cache must not perturb planning");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert!(stats.admissions >= 1, "exhausted scan admits results: {stats:?}");
    }

    #[test]
    fn repeat_query_is_served_from_the_exact_cache() {
        let (table, q) = setup();
        let cache = Arc::new(SemanticCache::with_capacity_mb(4));
        let holistic = Holistic::new(fast_config()).with_cache(cache.clone());
        let mut voice = InstantVoice::default();
        let cold = holistic.vocalize(&table, &q, &mut voice);
        assert_eq!(cold.stats.rows_read, 320, "cold run exhausts the table");
        let mut voice = InstantVoice::default();
        let hit = holistic.vocalize(&table, &q, &mut voice);
        assert_eq!(hit.stats.rows_read, 0, "repeat reads no rows");
        assert_eq!(hit.stats.samples, 0, "repeat skips sampling");
        assert!(hit.speech.is_some());
        assert_eq!(cache.stats().exact_hits, 1);
    }

    #[test]
    fn scope_overlap_warm_starts_the_sampler() {
        let (table, _) = setup();
        let schema = table.schema();
        // Donor groups by college region, the follow-up by start-salary
        // bin: same scope (measure, no filters), different partition.
        let donor =
            Query::builder(AggFct::Avg).group_by(DimId(0), LevelId(1)).build(schema).unwrap();
        let target =
            Query::builder(AggFct::Avg).group_by(DimId(1), LevelId(1)).build(schema).unwrap();
        let cache = Arc::new(SemanticCache::with_capacity_mb(4));
        let holistic = Holistic::new(fast_config()).with_cache(cache.clone());
        let mut voice = InstantVoice::default();
        let _ = holistic.vocalize(&table, &donor, &mut voice);
        let mut voice = InstantVoice::default();
        let cold = Holistic::new(fast_config()).vocalize(&table, &target, &mut voice);
        let mut voice = InstantVoice::default();
        let warm = holistic.vocalize(&table, &target, &mut voice);
        assert!(
            warm.stats.rows_read < cold.stats.rows_read,
            "warm start reuses the donor prefix: {} vs {}",
            warm.stats.rows_read,
            cold.stats.rows_read
        );
        assert_eq!(cache.stats().warm_hits, 1);
        assert!(warm.speech.is_some());
    }

    /// Ingest rows that duplicate the table's own prefix — valid under
    /// the existing dictionaries, so appends need no new members.
    pub(crate) fn echo_rows(table: &voxolap_data::Table, n: usize) -> Vec<voxolap_data::IngestRow> {
        use voxolap_data::schema::MeasureId;
        use voxolap_data::{DimValue, IngestRow};
        let schema = table.schema();
        (0..n)
            .map(|i| {
                let row = i % table.row_count();
                IngestRow {
                    dims: (0..schema.dimensions().len())
                        .map(|d| {
                            let dim = DimId(d as u8);
                            let m = table.member_at(dim, row);
                            DimValue::Phrase(schema.dimension(dim).member(m).phrase.clone())
                        })
                        .collect(),
                    values: (0..schema.measures().len())
                        .map(|m| table.measure_value(MeasureId(m as u8), row))
                        .collect(),
                }
            })
            .collect()
    }

    #[test]
    fn append_invalidates_exact_entries_and_repairs_snapshots() {
        let (table, q) = setup();
        let cache = Arc::new(SemanticCache::with_capacity_mb(4));
        let holistic = Holistic::new(fast_config()).with_cache(cache.clone());
        let mut voice = InstantVoice::default();
        let cold = holistic.vocalize(&table, &q, &mut voice);
        assert_eq!(cold.stats.rows_read, 320, "cold run exhausts the table");

        // Grow the table: the exact entry goes stale, the snapshot is
        // repairable by scanning only the 80 appended rows.
        let (grown, _) = table.append_rows(&echo_rows(&table, 80)).unwrap();
        assert_eq!(grown.version(), 1);
        let mut voice = InstantVoice::default();
        let replanned = holistic.vocalize(&grown, &q, &mut voice);
        assert!(!replanned.stats.stale, "no fault pressure, so no stale serve");
        assert_eq!(
            replanned.stats.rows_read, 80,
            "repair reads exactly the appended suffix (donor was exhausted)"
        );
        let stats = cache.stats();
        assert_eq!(stats.exact_invalidations, 1, "{stats:?}");
        assert_eq!(stats.snapshot_repairs, 1, "{stats:?}");
        assert_eq!(stats.repair_rows_read, 80, "{stats:?}");
        assert_eq!(stats.stale_serves, 0, "{stats:?}");

        // The replanned run re-admitted at version 1: the repeat is an
        // exact hit again with zero rows read.
        let mut voice = InstantVoice::default();
        let hit = holistic.vocalize(&grown, &q, &mut voice);
        assert_eq!(hit.stats.rows_read, 0, "repeat serves the re-admitted entry");
        assert!(!hit.stats.stale);
        assert_eq!(cache.stats().exact_hits, 1);
    }

    #[test]
    fn a_live_table_repairs_from_its_last_repair_not_its_first_admission() {
        // ROADMAP item 5: when the repaired snapshot could not be
        // re-admitted (it outgrew a cache shard), the donor froze at its
        // first version and round r re-read everything appended since.
        let (mut table, q) = setup();
        let cache = Arc::new(SemanticCache::new(8 * 16 * 1024));
        let holistic = Holistic::new(fast_config()).with_cache(cache.clone());
        let cold = holistic.vocalize(&table, &q, &mut InstantVoice::default());
        assert_eq!(cold.stats.rows_read, 320, "cold run exhausts the table");
        for round in 1..=10u64 {
            table = table.append_rows(&echo_rows(&table, 80)).unwrap().0;
            let warm = holistic.vocalize(&table, &q, &mut InstantVoice::default());
            assert_eq!(warm.stats.rows_read, 80, "round {round} reads its own suffix only");
            let stats = cache.stats();
            assert_eq!(stats.repair_rows_read, 80 * round, "{stats:?}");
            assert!(stats.bytes_used < 1024, "a snapshot holds no row: {stats:?}");
        }
    }

    #[test]
    fn a_warm_start_replay_walks_the_read_ladder() {
        use std::time::Duration;
        use voxolap_faults::{FaultPlan, FaultSite, SiteSchedule};
        // A cached snapshot of the current version, no exact entry for the
        // follow-up, and a dead source: the replay is refused like any
        // other read, so there is nothing to plan on.
        let (table, _) = setup();
        let schema = table.schema();
        let donor =
            Query::builder(AggFct::Avg).group_by(DimId(0), LevelId(1)).build(schema).unwrap();
        let target =
            Query::builder(AggFct::Avg).group_by(DimId(1), LevelId(1)).build(schema).unwrap();
        let cache = Arc::new(SemanticCache::with_capacity_mb(4));
        let holistic = Holistic::new(fast_config()).with_cache(cache.clone());
        let _ = holistic.vocalize(&table, &donor, &mut InstantVoice::default());

        let plan = FaultPlan::new(5).with_site(FaultSite::DataRead, SiteSchedule::error(1.0));
        let res = Arc::new(Resilience::new(Some(plan)).with_breaker(2, Duration::from_secs(3600)));
        let outcome =
            holistic.with_resilience(res).vocalize(&table, &target, &mut InstantVoice::default());
        assert!(outcome.stats.degraded, "a refused replay degrades the answer");
        assert_eq!(outcome.stats.rows_read, 0, "no row was readable");
        assert!(outcome.sentences[0].contains("No data"), "{:?}", outcome.sentences);
        let stats = cache.stats();
        assert_eq!((stats.warm_hits, stats.replayed_rows), (1, 0), "{stats:?}");
    }

    #[test]
    fn unreachable_source_serves_stale_exact_marked() {
        use std::time::Duration;
        use voxolap_faults::{FaultPlan, FaultSite, SiteSchedule};
        let (table, q) = setup();
        let cache = Arc::new(SemanticCache::with_capacity_mb(4));
        let mut voice = InstantVoice::default();
        let _ =
            Holistic::new(fast_config()).with_cache(cache.clone()).vocalize(&table, &q, &mut voice);
        let (grown, _) = table.append_rows(&echo_rows(&table, 40)).unwrap();

        // Dead data source: the §12 ladder cannot replan fresh, so the
        // version-stale exact entry is served, marked stale + degraded.
        let plan = FaultPlan::new(5).with_site(FaultSite::DataRead, SiteSchedule::error(1.0));
        let res = Arc::new(Resilience::new(Some(plan)).with_breaker(2, Duration::from_secs(3600)));
        let mut voice = InstantVoice::default();
        let outcome = Holistic::new(fast_config())
            .with_cache(cache.clone())
            .with_resilience(res)
            .vocalize(&grown, &q, &mut voice);
        assert!(outcome.stats.stale, "served answer is marked stale");
        assert!(outcome.stats.degraded, "stale serves ride the degrade ladder");
        assert!(outcome.speech.is_some(), "the stale answer is still an answer");
        assert_eq!(outcome.stats.rows_read, 0, "no fresh row was readable");
        let stats = cache.stats();
        assert_eq!(stats.stale_serves, 1, "{stats:?}");
        assert_eq!(stats.exact_invalidations, 0, "the entry stays cached");
    }

    #[test]
    fn dead_data_source_falls_back_and_degrades() {
        use std::time::Duration;
        use voxolap_faults::{FaultPlan, FaultSite, SiteSchedule};
        // Every read errors forever: retries exhaust, the breaker opens,
        // and the cold run (nothing cached) reports no data — degraded.
        let (table, q) = setup();
        let plan = FaultPlan::new(5).with_site(FaultSite::DataRead, SiteSchedule::error(1.0));
        let res = Arc::new(Resilience::new(Some(plan)).with_breaker(2, Duration::from_secs(3600)));
        let mut voice = InstantVoice::default();
        let outcome = Holistic::new(fast_config())
            .with_resilience(res.clone())
            .vocalize(&table, &q, &mut voice);
        assert!(outcome.stats.degraded, "fallback answers are tagged");
        assert_eq!(outcome.stats.rows_read, 0, "no row ever arrived");
        assert!(outcome.sentences[0].contains("No data"));
        let snap = res.stats().snapshot();
        assert!(snap.retries >= 2, "the ladder retried before tripping: {snap:?}");
        assert!(snap.breaker_trips >= 1);
        assert_eq!(snap.cache_fallbacks, 1, "one fallback per run");
        assert_eq!(snap.degraded_answers, 1);
    }

    #[test]
    fn exhausted_fault_budget_yields_anytime_answer() {
        use voxolap_faults::{FaultPlan, FaultSite, SiteSchedule};
        // Every sampling iteration faults; a tiny budget exhausts at the
        // root, so the anytime path commits whatever the tree holds and
        // tags the answer degraded instead of hanging or panicking.
        let (table, q) = setup();
        let plan = FaultPlan::new(3).with_site(FaultSite::Sample, SiteSchedule::error(1.0));
        let res = Arc::new(Resilience::new(Some(plan)).with_budget(8));
        let mut voice = InstantVoice::default();
        let outcome = Holistic::new(fast_config())
            .with_resilience(res.clone())
            .vocalize(&table, &q, &mut voice);
        assert!(outcome.stats.degraded, "budget exhaustion tags the answer");
        assert!(outcome.stats.samples <= 16, "planning stopped early: {}", outcome.stats.samples);
        assert!(!outcome.preamble.is_empty(), "the preamble is always delivered");
        assert_eq!(res.stats().snapshot().degraded_answers, 1);
    }

    #[test]
    fn empty_scope_is_reported_gracefully() {
        let table = SalaryConfig { rows: 8, seed: 1 }.generate();
        let schema = table.schema();
        let start = schema.dimension(DimId(1));
        let empty_bin =
            start.leaves().iter().copied().find(|&bin| {
                !(0..table.row_count()).any(|row| table.member_at(DimId(1), row) == bin)
            });
        let Some(bin) = empty_bin else { return };
        let q = Query::builder(AggFct::Avg)
            .filter(DimId(1), bin)
            .group_by(DimId(0), LevelId(1))
            .build(schema)
            .unwrap();
        let mut voice = InstantVoice::default();
        let outcome = Holistic::new(fast_config()).vocalize(&table, &q, &mut voice);
        assert!(outcome.sentences[0].contains("No data"));
        assert!(outcome.speech.is_none());
    }
}
