//! The holistic engine — paper Algorithm 1 (`EvalVocal`) — over the
//! lock-free speech tree, at one thread or many.
//!
//! There is one engine. [`Holistic`](crate::holistic::Holistic) is its
//! `threads == 1` face, [`ParallelHolistic`] the same code at
//! `threads = N`; [`ParallelHolistic::with_threads`] is the only selector.
//!
//! * **Cooperative mode (`threads == 1`)** — sampling and voice output
//!   interleave on the calling thread: one worker samples while the
//!   previous sentence plays, then the engine commits. Exact and
//!   deterministic under a fixed seed; experiments and tests use it.
//! * **Multi-thread mode** — the paper's literal architecture ("while
//!   the current sentence is spoken, we determine the best follow-up in
//!   the background") scaled across cores; outcomes depend on scheduling
//!   and are **not** bit-reproducible. Interactive deployments use it.
//!
//! Both modes share every piece:
//!
//! * **Morsel-driven row ingestion** — workers claim whole chunks
//!   (morsels) of the seeded two-level scan order from one shared
//!   [`MorselPool`](voxolap_data::MorselPool) ([`Table::scan_pooled`])
//!   and stream them into one shared [`ShardedSampleCache`] whose
//!   per-aggregate striped buckets keep workers from serializing on a
//!   global cache lock. Claimed morsels partition the order with zero
//!   overlap, so the union of worker prefixes remains a uniform sample
//!   (see [`voxolap_data::chunk`] for the uniformity argument); a single
//!   worker drains the pool in exactly the seeded order.
//! * **Lock-free UCT sampling** — workers descend the pre-expanded speech
//!   tree and commit visit/reward statistics with atomic CAS updates; no
//!   tree lock exists at all. Teams of several add virtual losses
//!   ([`select_path_vloss`](voxolap_mcts::Tree::select_path_vloss)) to
//!   spread out.
//! * **Commit** — at each sentence boundary the calling thread moves the
//!   sampling root to the child with the best *mean* reward (Algorithm
//!   1's exploitation-only commit), so all statistics collected in its
//!   subtree remain available.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use voxolap_data::Table;
use voxolap_engine::query::Query;
use voxolap_engine::repair::repair_snapshot;
use voxolap_engine::semantic::SemanticCache;
use voxolap_engine::sharded::{IngestBatch, ShardedSampleCache};
use voxolap_faults::Resilience;
use voxolap_speech::render::Renderer;

use crate::approach::Vocalizer;
use crate::holistic::HolisticConfig;
use crate::optimal::{serve_stale_exact, ExactHit};
use crate::pipeline::cancel::CancelToken;
use crate::pipeline::driver::TeamSource;
use crate::pipeline::stream::{Buffered, Deferred, SentenceSource, SpeechStream};
use crate::resilience::ResCtx;
use crate::sampler::ShardWorker;
use crate::tree::SpeechTree;
use crate::voice::VoiceOutput;

/// How long the committing thread sleeps between `VO.IsPlaying` polls.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// The holistic engine with a configurable planning-thread count (see
/// module docs); defaults to one thread per core.
#[derive(Debug, Clone)]
pub struct ParallelHolistic {
    pub(crate) config: HolisticConfig,
    pub(crate) threads: usize,
    pub(crate) cache: Option<Arc<SemanticCache>>,
    /// The degradation ladder every run of this engine opens its
    /// [`ResCtx`] on; inert (no injector) unless replaced.
    pub(crate) resilience: Arc<Resilience>,
}

impl Default for ParallelHolistic {
    fn default() -> Self {
        ParallelHolistic::new(HolisticConfig::default())
    }
}

impl ParallelHolistic {
    /// Create with the given configuration (shared with
    /// [`Holistic`](crate::holistic::Holistic)) and as many planning
    /// threads as the machine has cores.
    pub fn new(config: HolisticConfig) -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ParallelHolistic { config, threads, cache: None, resilience: Arc::default() }
    }

    /// Attach a cross-query semantic cache. Repeats of an exactly-answered
    /// query skip sampling entirely; scope-compatible snapshots warm-start
    /// the sample cache. Snapshots record per-chunk morsel-pool progress:
    /// a warm start requires a donor run with the same seed, but any
    /// thread count can resume any donor's consumed prefix. With an empty
    /// cache, `threads == 1` output is bit-identical to a cacheless run.
    pub fn with_cache(mut self, cache: Arc<SemanticCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Override the number of planning threads (min 1). `1` selects the
    /// deterministic cooperative mode.
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

    /// The configured number of planning threads.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Result of one [`sampling_throughput`] measurement.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputReport {
    /// Number of worker threads that sampled.
    pub threads: usize,
    /// Total completed sampling iterations across all workers.
    pub samples: u64,
    /// Total rows streamed into the shared cache.
    pub rows_read: u64,
    /// Wall-clock time the workers ran.
    pub elapsed: Duration,
}

impl ThroughputReport {
    /// Completed sampling iterations per wall-clock second.
    pub fn samples_per_sec(&self) -> f64 {
        self.samples as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Measure raw sampling throughput: `threads` workers hammer a freshly
/// built speech tree and sharded cache from the root for `duration`
/// (no voice, no commit steps — pure planning work). This is the
/// scaling benchmark's engine; setup (table scan permutations, warm-up,
/// tree construction) happens before the clock starts.
pub fn sampling_throughput(
    table: &Table,
    query: &Query,
    config: &HolisticConfig,
    threads: usize,
    duration: Duration,
) -> ThroughputReport {
    let threads = threads.max(1);
    let cache = Arc::new(ShardedSampleCache::new(query.n_aggregates(), table.row_count() as u64));
    let pool = table.morsel_pool(config.seed);
    let res = ResCtx::inert();
    let mut workers: Vec<ShardWorker<'_>> = (0..threads)
        .map(|w| ShardWorker::new(table, query, cache.clone(), config, pool.clone(), w, &res))
        .collect();
    let overall = workers[0].warmup(config.warmup_rows).unwrap_or(0.0);
    let (sigma, tree) = SpeechTree::open(table.schema(), query, config, overall);
    for w in &mut workers {
        w.set_sigma(sigma);
    }

    let samples = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let use_vloss = threads > 1;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for mut worker in workers {
            let tree = &tree;
            let stop = &stop;
            let samples = &samples;
            scope.spawn(move || {
                // Count locally so the shared counter isn't itself a
                // contention point in the measurement.
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    worker.sample_once(tree, SpeechTree::ROOT, use_vloss);
                    local += 1;
                }
                samples.fetch_add(local, Ordering::Relaxed);
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    ThroughputReport {
        threads,
        samples: samples.load(Ordering::Relaxed),
        rows_read: cache.nr_read(),
        elapsed: t0.elapsed(),
    }
}

/// Result of one [`ingest_throughput`] measurement.
#[derive(Debug, Clone, Copy)]
pub struct IngestReport {
    /// Number of ingest worker threads.
    pub threads: usize,
    /// Total rows streamed into sharded caches across all drains.
    pub rows: u64,
    /// Full-table drains completed.
    pub drains: u64,
    /// Wall-clock time the workers ran.
    pub elapsed: Duration,
}

impl IngestReport {
    /// Rows ingested per wall-clock second.
    pub fn rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Measure raw **ingest-only** throughput: `threads` workers drain whole
/// seeded scans of the table into fresh [`ShardedSampleCache`]s via the
/// batched morsel path (columnar aggregate resolution + group-commit) with
/// planning disabled — no tree, no estimates, no RNG draws. Full-table
/// drains repeat until `min_duration` has elapsed, so the figure is stable
/// even when one drain takes microseconds. This isolates the scan+observe
/// scaling that the end-to-end samples/sec figure mixes with planning
/// work.
pub fn ingest_throughput(
    table: &Table,
    query: &Query,
    seed: u64,
    threads: usize,
    min_duration: Duration,
) -> IngestReport {
    let threads = threads.max(1);
    let mut rows = 0u64;
    let mut drains = 0u64;
    let t0 = Instant::now();
    while drains == 0 || t0.elapsed() < min_duration {
        let cache = ShardedSampleCache::new(query.n_aggregates(), table.row_count() as u64);
        let pool = table.morsel_pool(seed.wrapping_add(drains));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let cache = &cache;
                let pool = pool.clone();
                scope.spawn(move || {
                    let mut scan = table.scan_pooled(pool, query.measure());
                    let layout = query.layout();
                    let mut batch = IngestBatch::new(query.n_aggregates());
                    let mut aggs = Vec::new();
                    while let Some(block) = scan.next_block(usize::MAX) {
                        layout.agg_of_block(block.dims, block.rows, &mut aggs);
                        for (i, &r) in block.rows.iter().enumerate() {
                            batch.push_resolved(aggs[i], block.values[r as usize]);
                        }
                        cache.observe_batch(&mut batch);
                    }
                });
            }
        });
        rows += cache.nr_read();
        drains += 1;
    }
    IngestReport { threads, rows, drains, elapsed: t0.elapsed() }
}

impl Vocalizer for ParallelHolistic {
    fn name(&self) -> &'static str {
        "holistic-parallel"
    }

    /// The part of Algorithm 1's Ingest stage that needs no data: the
    /// semantic cache's exact lookup and the preamble. Everything else —
    /// [`ParallelHolistic::ingest`], or the exhaustive plan of an exact
    /// hit — is deferred to the stream's first pull, after which the
    /// stream runs one Plan/Sample → Commit round of the driver per
    /// sentence.
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

impl ParallelHolistic {
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
        let ParallelHolistic { config: cfg, threads: n_workers, cache: semantic, .. } = self;
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
mod tests {
    use super::*;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;
    use voxolap_engine::query::AggFct;
    use voxolap_speech::constraints::SpeechConstraints;

    use crate::uncertainty::UncertaintyMode;
    use crate::voice::InstantVoice;

    /// A wall-clock voice local to these tests (the production one lives
    /// in voxolap-voice, which sits above this crate).
    struct SleepyVoice {
        until: Option<Instant>,
        per_char: Duration,
        transcript: Vec<String>,
    }

    impl SleepyVoice {
        fn new(per_char: Duration) -> Self {
            SleepyVoice { until: None, per_char, transcript: Vec::new() }
        }
    }

    impl VoiceOutput for SleepyVoice {
        fn start(&mut self, sentence: &str) {
            self.until = Some(Instant::now() + self.per_char * sentence.len() as u32);
            self.transcript.push(sentence.to_string());
        }
        fn is_playing(&mut self) -> bool {
            self.until.is_some_and(|t| Instant::now() < t)
        }
        fn transcript(&self) -> &[String] {
            &self.transcript
        }
    }

    fn setup() -> (voxolap_data::Table, Query) {
        let table = SalaryConfig::paper_scale().generate();
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
    fn multi_thread_engine_produces_valid_speech() {
        let (table, q) = setup();
        let cfg = HolisticConfig {
            min_samples_per_sentence: 200,
            max_tree_nodes: 40_000,
            ..HolisticConfig::default()
        };
        let mut voice = SleepyVoice::new(Duration::from_micros(200));
        let outcome = ParallelHolistic::new(cfg).with_threads(4).vocalize(&table, &q, &mut voice);
        let speech = outcome.speech.as_ref().expect("structured speech");
        assert!(speech.refinements.len() <= 2);
        assert!(!outcome.sentences.is_empty());
        assert_eq!(voice.transcript().len(), 1 + outcome.sentences.len());
        assert!(outcome.latency.as_millis() < 500);
    }

    #[test]
    fn background_sampling_accumulates_during_speech() {
        let (table, q) = setup();
        let cfg = HolisticConfig {
            min_samples_per_sentence: 1,
            max_tree_nodes: 40_000,
            ..HolisticConfig::default()
        };
        // ~20 ms of "speaking" per sentence buys thousands of iterations.
        let mut voice = SleepyVoice::new(Duration::from_micros(300));
        let outcome = ParallelHolistic::new(cfg).with_threads(4).vocalize(&table, &q, &mut voice);
        assert!(
            outcome.stats.samples > 500,
            "workers sampled during speech: {}",
            outcome.stats.samples
        );
    }

    #[test]
    fn respects_fragment_budget() {
        let (table, q) = setup();
        let cfg = HolisticConfig {
            constraints: SpeechConstraints { max_chars: 300, max_refinements: 1 },
            min_samples_per_sentence: 100,
            max_tree_nodes: 40_000,
            ..HolisticConfig::default()
        };
        let mut voice = SleepyVoice::new(Duration::from_micros(50));
        let outcome = ParallelHolistic::new(cfg).with_threads(3).vocalize(&table, &q, &mut voice);
        assert!(outcome.speech.unwrap().refinements.len() <= 1);
    }

    #[test]
    fn multi_thread_baseline_lands_near_truth() {
        let (table, q) = setup();
        let mut voice = SleepyVoice::new(Duration::from_micros(100));
        // The commit takes the best *mean*, and at a 400-sample floor a
        // baseline visited once or twice can win on one lucky aggregate —
        // which one depends on thread timing (≈40 % of solo runs landed
        // outside the band). 20 000 samples put 100 of 100 runs in 75–100.
        let cfg = HolisticConfig { min_samples_per_sentence: 20_000, ..fast_config() };
        let outcome = ParallelHolistic::new(cfg).with_threads(4).vocalize(&table, &q, &mut voice);
        let v = outcome.speech.unwrap().baseline.value;
        // Exact grand mean is ~88-92 K at one significant digit.
        assert!((70.0..=110.0).contains(&v), "baseline {v}");
    }

    #[test]
    fn uncertainty_warning_works_in_parallel_mode() {
        let (table, q) = crate::holistic::tests::partial_scan_setup();
        let cfg = HolisticConfig {
            uncertainty: UncertaintyMode::Warning { max_relative_width: 0.0001 },
            min_samples_per_sentence: 200,
            max_tree_nodes: 40_000,
            ..HolisticConfig::default()
        };
        let mut voice = SleepyVoice::new(Duration::from_micros(100));
        let outcome = ParallelHolistic::new(cfg).with_threads(2).vocalize(&table, &q, &mut voice);
        assert!(outcome.stats.rows_read < table.row_count() as u64, "a partial scan");
        assert!(
            outcome.sentences.iter().any(|s| s.contains("confidence")),
            "warning appended: {:?}",
            outcome.sentences
        );
    }

    #[test]
    fn repeat_query_hits_cache_in_cooperative_mode() {
        let (table, q) = setup();
        let cache = Arc::new(SemanticCache::with_capacity_mb(4));
        let engine = ParallelHolistic::new(fast_config()).with_threads(1).with_cache(cache.clone());
        let mut voice = InstantVoice::default();
        let cold = engine.vocalize(&table, &q, &mut voice);
        assert_eq!(cold.stats.rows_read, 320, "cold run exhausts the table");
        let mut voice = InstantVoice::default();
        let hit = engine.vocalize(&table, &q, &mut voice);
        assert_eq!(hit.stats.rows_read, 0, "repeat reads no rows");
        assert_eq!(hit.stats.samples, 0, "repeat skips sampling");
        assert!(hit.speech.is_some());
        assert_eq!(cache.stats().exact_hits, 1);
    }

    #[test]
    fn a_stream_nobody_pulls_from_runs_no_ingest() {
        let (table, q) = setup();
        let fired = CancelToken::new();
        fired.cancel();
        for (cancel, pull) in [(CancelToken::never(), false), (fired.clone(), false), (fired, true)]
        {
            let cache = Arc::new(SemanticCache::with_capacity_mb(4));
            let engine =
                ParallelHolistic::new(fast_config()).with_threads(1).with_cache(cache.clone());
            let mut voice = InstantVoice::default();
            let mut stream = engine.stream(&table, &q, &mut voice, cancel);
            let preamble = stream.preamble().to_string();
            assert!(preamble.starts_with("Considering"));
            if pull {
                assert!(stream.next_sentence().is_none(), "the client is already gone");
            }
            let outcome = stream.finish();
            assert_eq!(outcome.stats.rows_read, 0);
            assert_eq!(outcome.stats.samples, 0);
            assert_eq!(outcome.stats.tree_nodes, 0);
            assert!(outcome.sentences.is_empty() && outcome.speech.is_none());
            assert_eq!(voice.transcript(), [preamble], "only the preamble was spoken");
            let stats = cache.stats();
            assert_eq!((stats.admissions, stats.misses, stats.warm_hits), (0, 0, 0), "{stats:?}");
        }
    }

    #[test]
    fn an_exact_hit_plans_on_the_first_pull_not_in_stream() {
        let (table, q) = setup();
        let cache = Arc::new(SemanticCache::with_capacity_mb(4));
        let engine = ParallelHolistic::new(fast_config()).with_threads(1).with_cache(cache.clone());
        let cold = engine.vocalize(&table, &q, &mut InstantVoice::default());
        assert_eq!(cold.stats.rows_read, 320, "cold run exhausts the table and admits it");

        // The lookup is eager; the exhaustive plan is not.
        let mut voice = InstantVoice::default();
        let unpulled = engine.stream(&table, &q, &mut voice, CancelToken::never()).finish();
        assert_eq!(cache.stats().exact_hits, 1);
        assert_eq!(unpulled.stats.tree_nodes, 0);
        assert!(unpulled.sentences.is_empty());

        let mut voice = InstantVoice::default();
        let mut stream = engine.stream(&table, &q, &mut voice, CancelToken::never());
        assert!(stream.next_sentence().is_some());
        let pulled = stream.drain();
        assert!(pulled.stats.tree_nodes > 0);
        assert_eq!(pulled.stats.rows_read, 0, "an exact hit reads no row");
    }

    #[test]
    fn sharded_snapshot_warm_starts_across_group_bys() {
        let (table, _) = setup();
        let schema = table.schema();
        let donor =
            Query::builder(AggFct::Avg).group_by(DimId(0), LevelId(1)).build(schema).unwrap();
        let target =
            Query::builder(AggFct::Avg).group_by(DimId(1), LevelId(1)).build(schema).unwrap();
        let cache = Arc::new(SemanticCache::with_capacity_mb(4));
        let engine = ParallelHolistic::new(fast_config()).with_threads(2).with_cache(cache.clone());
        let mut voice = SleepyVoice::new(Duration::from_micros(100));
        let cold = engine.vocalize(&table, &donor, &mut voice);
        assert_eq!(cold.stats.rows_read, 320, "donor exhausts the table");
        let mut voice = SleepyVoice::new(Duration::from_micros(100));
        let warm = engine.vocalize(&table, &target, &mut voice);
        assert!(
            warm.stats.rows_read < cold.stats.rows_read,
            "warm start reuses the donor prefix: {} vs {}",
            warm.stats.rows_read,
            cold.stats.rows_read
        );
        assert_eq!(cache.stats().warm_hits, 1);
        assert!(warm.speech.is_some());
    }

    #[test]
    fn multi_thread_engine_survives_injected_faults() {
        use voxolap_faults::{FaultPlan, FaultSite, SiteSchedule};
        let (table, q) = setup();
        let plan = FaultPlan::new(11)
            .with_site(FaultSite::DataRead, SiteSchedule::error(0.2))
            .with_site(FaultSite::Sample, SiteSchedule::error(0.2))
            .with_site(FaultSite::CacheShard, SiteSchedule::error(0.02));
        let res = Arc::new(Resilience::new(Some(plan)));
        let cfg = HolisticConfig {
            min_samples_per_sentence: 200,
            max_tree_nodes: 40_000,
            ..HolisticConfig::default()
        };
        let mut voice = SleepyVoice::new(Duration::from_micros(100));
        let outcome = ParallelHolistic::new(cfg)
            .with_threads(4)
            .with_resilience(res.clone())
            .vocalize(&table, &q, &mut voice);
        // Faults at these rates must not prevent an answer: the preamble
        // always arrives and the run is accounted exactly once.
        assert!(!outcome.preamble.is_empty());
        let snap = res.stats().snapshot();
        assert_eq!(snap.clean_answers + snap.degraded_answers, 1);
        assert!(res.injector().unwrap().total_injected() > 0, "schedule actually injected faults");
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
        let outcome =
            ParallelHolistic::new(fast_config()).with_threads(2).vocalize(&table, &q, &mut voice);
        assert!(outcome.sentences[0].contains("No data"));
        assert!(outcome.speech.is_none());
    }

    /// The CI multicore gate (run with `-- --ignored` on a ≥ 4-core
    /// runner): 4 threads must buy ≥ 1.5× end-to-end samples/s and
    /// ≥ 2.5× ingest-only rows/s over 1 thread on the flights
    /// region × season query — the batched morsel path has no planning
    /// work to hide behind, so it must scale harder. A host with fewer
    /// cores cannot demonstrate thread scaling and returns early.
    #[test]
    #[ignore = "timing gate; needs >= 4 cores (CI `multicore` job)"]
    fn four_threads_scale_sampling_and_ingest() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores < 4 {
            println!("SKIPPED: host has {cores} core(s), need >= 4 to demonstrate thread scaling");
            return;
        }
        let table = voxolap_data::flights::FlightsConfig { rows: 200_000, seed: 42 }.generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        let cfg = HolisticConfig { seed: 42, ..HolisticConfig::default() };
        let window = Duration::from_millis(1_500);
        let samples =
            |threads| sampling_throughput(&table, &q, &cfg, threads, window).samples_per_sec();
        let ingest = |threads| ingest_throughput(&table, &q, 42, threads, window).rows_per_sec();
        let (s1, i1) = (samples(1), ingest(1));
        let (s4, i4) = (samples(4), ingest(4));
        println!(
            "{cores} cores: {:.2}x samples/s, {:.2}x ingest rows/s at 4 threads",
            s4 / s1,
            i4 / i1
        );
        assert!(s4 >= 1.5 * s1, "samples/s: {s4:.0} at 4 threads vs {s1:.0} at 1");
        assert!(i4 >= 2.5 * i1, "ingest rows/s: {i4:.0} at 4 threads vs {i1:.0} at 1");
    }
}
