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
//! [`Holistic`] is the engine of [`crate::parallel`] in its cooperative
//! single-thread mode: deterministic under a seed and paced by the voice.
//! [`HolisticConfig`], declared here, is the configuration of every
//! approach, not only this one.

use std::sync::Arc;

use voxolap_data::Table;
use voxolap_engine::query::{AggIdx, Query, ResultLayout};
use voxolap_engine::semantic::SemanticCache;
use voxolap_faults::Resilience;
use voxolap_mcts::NodeId;
use voxolap_speech::candidates::CandidateConfig;
use voxolap_speech::constraints::SpeechConstraints;

use crate::approach::Vocalizer;
use crate::parallel::ParallelHolistic;
use crate::pipeline::cancel::CancelToken;
use crate::pipeline::stream::SpeechStream;
use crate::sampler::SelectionPolicy;
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
    /// Fixed resample size of the cache estimator. The paper uses 10; the
    /// planner default is 100 because low-rate 0/1 measures (cancellation
    /// flags) make 10-row resamples almost always all-zero, biasing
    /// baseline selection low. Still constant cost per iteration,
    /// however full the cache: the estimator touches O(`resample_size`)
    /// slots of a persistent index pool
    /// (`voxolap_engine::resample::ResampleScratch`), never the whole
    /// bucket. *Sampling.*
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

/// The holistic vocalizer (paper §4): the one engine at one planning
/// thread. [`ParallelHolistic`] is the same code at `threads = N`.
#[derive(Debug, Clone)]
pub struct Holistic(pub(crate) ParallelHolistic);

impl Default for Holistic {
    fn default() -> Self {
        Holistic::new(HolisticConfig::default())
    }
}

impl Holistic {
    /// Create with the given configuration.
    pub fn new(config: HolisticConfig) -> Self {
        let resilience = Arc::default();
        Holistic(ParallelHolistic { config, threads: 1, cache: None, resilience })
    }

    /// Attach a cross-query semantic cache (see
    /// [`ParallelHolistic::with_cache`]).
    pub fn with_cache(self, cache: Arc<SemanticCache>) -> Self {
        Holistic(self.0.with_cache(cache))
    }

    /// Replace the resilience bundle (see
    /// [`ParallelHolistic::with_resilience`]).
    pub fn with_resilience(self, resilience: Arc<Resilience>) -> Self {
        Holistic(self.0.with_resilience(resilience))
    }

    /// The active configuration.
    pub fn config(&self) -> &HolisticConfig {
        self.0.config()
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
    fn name(&self) -> &'static str {
        "holistic"
    }

    fn stream<'a>(
        &self,
        table: &'a Table,
        query: &'a Query,
        voice: &'a mut dyn VoiceOutput,
        cancel: CancelToken,
    ) -> SpeechStream<'a> {
        self.0.stream(table, query, voice, cancel)
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
        let (table, q) = setup();
        let mut voice = InstantVoice::default();
        let cfg = HolisticConfig {
            uncertainty: UncertaintyMode::Warning { max_relative_width: 0.0001 },
            ..fast_config()
        };
        let outcome = Holistic::new(cfg).vocalize(&table, &q, &mut voice);
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
