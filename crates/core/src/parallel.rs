//! Thread-scaling measurements of the holistic engine's two hot loops —
//! UCT sampling ([`sampling_throughput`]) and batched morsel ingest
//! ([`ingest_throughput`]) — over the pieces
//! [`Holistic`] runs at any thread count.
//!
//! [`ParallelHolistic`] is a second name for [`Holistic`], which takes its
//! planning-thread count from [`Holistic::with_threads`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use voxolap_data::Table;
use voxolap_engine::query::Query;
use voxolap_engine::sharded::{IngestBatch, ShardedSampleCache};

use crate::holistic::{Holistic, HolisticConfig};
use crate::resilience::ResCtx;
use crate::sampler::ShardWorker;
use crate::tree::SpeechTree;

/// The holistic engine under the name the standalone benchmark imports.
pub type ParallelHolistic = Holistic;

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
                    worker.sample_once(tree, SpeechTree::ROOT);
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

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;
    use voxolap_engine::query::AggFct;
    use voxolap_engine::semantic::SemanticCache;
    use voxolap_faults::Resilience;
    use voxolap_speech::constraints::SpeechConstraints;

    use crate::approach::Vocalizer;
    use crate::pipeline::cancel::CancelToken;
    use crate::uncertainty::UncertaintyMode;
    use crate::voice::{InstantVoice, VirtualVoice, VoiceOutput};

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
        let mut voice = VirtualVoice::new(20.0);
        let outcome = Holistic::new(cfg).with_threads(4).vocalize(&table, &q, &mut voice);
        let speech = outcome.speech.as_ref().expect("structured speech");
        assert!(speech.refinements.len() <= 2);
        assert!(!outcome.sentences.is_empty());
        assert_eq!(voice.transcript().len(), 1 + outcome.sentences.len());
        assert!(outcome.latency.as_millis() < 500);
    }

    /// A team samples while a sentence plays: on the virtual voice it runs,
    /// per round, the iterations the sentence just started buys (or the
    /// floor), give or take one per extra thread — not as many as it can
    /// fit into wall-clock polls.
    #[test]
    fn a_team_runs_the_virtual_voice_budget_per_round() {
        let (table, q) = setup();
        let cfg = HolisticConfig { min_samples_per_sentence: 300, ..fast_config() };
        let mut voice = VirtualVoice::new(20.0);
        let t0 = Instant::now();
        let engine = Holistic::new(cfg).with_threads(2);
        let mut stream = engine.stream(&table, &q, &mut voice, CancelToken::never());
        let mut started = stream.preamble().to_string();
        while let Some(sentence) = stream.next_sentence() {
            let budget = (started.chars().count() as u64 * 20).max(300);
            let ran = sentence.stats.samples;
            assert!((budget..=budget + 1).contains(&ran), "{ran} after {started:?}");
            started = sentence.text;
        }
        assert!(!stream.finish().sentences.is_empty());
        assert!(t0.elapsed() < Duration::from_secs(5), "took {:?}", t0.elapsed());
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
        let mut voice = VirtualVoice::new(20.0);
        let outcome = Holistic::new(cfg).with_threads(3).vocalize(&table, &q, &mut voice);
        assert!(outcome.speech.unwrap().refinements.len() <= 1);
    }

    #[test]
    fn multi_thread_baseline_lands_near_truth() {
        let (table, q) = setup();
        let mut voice = VirtualVoice::new(20.0);
        // The commit takes the best *mean*, and at a 400-sample floor a
        // baseline visited once or twice can win on one lucky aggregate —
        // which one depends on thread timing (≈40 % of solo runs landed
        // outside the band). 20 000 samples put 100 of 100 runs in 75–100.
        let cfg = HolisticConfig { min_samples_per_sentence: 20_000, ..fast_config() };
        let outcome = Holistic::new(cfg).with_threads(4).vocalize(&table, &q, &mut voice);
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
        // On the instant voice each round runs the floor, so the scan of
        // 200 000 rows stays partial and the warning stays.
        let mut voice = InstantVoice::default();
        let outcome = Holistic::new(cfg).with_threads(2).vocalize(&table, &q, &mut voice);
        assert!(outcome.stats.rows_read < table.row_count() as u64, "a partial scan");
        assert!(
            outcome.sentences.iter().any(|s| s.contains("confidence")),
            "warning appended: {:?}",
            outcome.sentences
        );
    }

    #[test]
    fn a_stream_nobody_pulls_from_runs_no_ingest() {
        let (table, q) = setup();
        let fired = CancelToken::new();
        fired.cancel();
        for (cancel, pull) in [(CancelToken::never(), false), (fired.clone(), false), (fired, true)]
        {
            let cache = Arc::new(SemanticCache::with_capacity_mb(4));
            let engine = Holistic::new(fast_config()).with_cache(cache.clone());
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
        let engine = Holistic::new(fast_config()).with_cache(cache.clone());
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
        let engine = Holistic::new(fast_config()).with_threads(2).with_cache(cache.clone());
        let mut voice = VirtualVoice::new(20.0);
        let cold = engine.vocalize(&table, &donor, &mut voice);
        assert_eq!(cold.stats.rows_read, 320, "donor exhausts the table");
        let mut voice = VirtualVoice::new(20.0);
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
        let mut voice = VirtualVoice::new(20.0);
        let outcome = Holistic::new(cfg)
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
        let outcome = Holistic::new(fast_config()).with_threads(2).vocalize(&table, &q, &mut voice);
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
