//! The planning worker: row streaming into the sample cache, σ
//! calibration, and the speech-evaluation sampling iteration (`ST.Sample`
//! combining Algorithms 2 and 3).
//!
//! The holistic engine and the Unmerged planner drive the same
//! [`ShardWorker`]; they differ only in *when* they sample (overlapped
//! with voice output vs. a fixed pre-output budget) and in how many
//! workers share one cache.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use voxolap_belief::model::rounding_bucket;
use voxolap_belief::normal::Normal;
use voxolap_data::table::RowScanner;
use voxolap_data::{MorselPool, Table};
use voxolap_engine::query::{AggFct, Query};
use voxolap_engine::resample::ResampleScratch;
use voxolap_engine::semantic::{SampleSnapshot, SemanticCache};
use voxolap_engine::sharded::{IngestBatch, ShardedSampleCache};
use voxolap_mcts::NodeId;

use crate::holistic::HolisticConfig;
use crate::resilience::ResCtx;
use crate::tree::SpeechTree;

/// Fallback σ when the measure's overall mean is zero or unavailable.
const SIGMA_FALLBACK: f64 = 1.0;

/// Rows streamed into the cache per sampling iteration.
const ROWS_PER_ITERATION: usize = 8;

/// The σ the paper calibrates for a run: an explicit override, or half the
/// overall estimate (falling back to 1 for degenerate means).
pub fn calibrated_sigma(overall_estimate: f64, sigma_override: Option<f64>) -> f64 {
    match sigma_override {
        Some(s) => s,
        None => {
            let s = overall_estimate.abs() * 0.5;
            if s.is_finite() && s > 0.0 {
                s
            } else {
                SIGMA_FALLBACK
            }
        }
    }
}

/// How sampling iterations pick the speech to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// UCT prioritization (the paper's choice, Algorithm 2).
    #[default]
    Uct,
    /// Uniform random descent — ablates the exploration/exploitation
    /// balance to show what UCT buys.
    UniformRandom,
}

/// Stream separation constant for per-worker RNGs (an arbitrary odd
/// multiplier). Worker 0's stream is the cooperative engine's — the
/// golden transcript in `tests/stream_parity.rs` pins it.
const WORKER_STREAM: u64 = 0xd1b5_4a32_d192_ed03;

/// One planning worker: a pooled morsel scanner and private RNG stream
/// over a sample cache and speech tree it may share with teammates. The
/// holistic engine runs one worker cooperatively or a team of them on
/// scoped threads; Unmerged drives a solo worker for a fixed budget.
pub struct ShardWorker<'a> {
    table: &'a Table,
    query: &'a Query,
    cache: Arc<ShardedSampleCache>,
    scanner: RowScanner<'a>,
    rng: StdRng,
    /// Reused resample buffers — keeps the per-iteration estimate
    /// allocation-free.
    scratch: ResampleScratch,
    /// Reused descent path, for the same reason.
    path: Vec<NodeId>,
    /// Thread-local morsel accumulator for the group-commit ingest path
    /// (`ShardedSampleCache::observe_batch`, DESIGN.md §14).
    batch: IngestBatch,
    /// Reused per-block aggregate-code buffer for the columnar kernel.
    aggs: Vec<u32>,
    /// Decomposed coordinates of every aggregate, indexed by aggregate —
    /// a per-query table, so an iteration looks its aggregate up instead
    /// of allocating `coords_of_agg`.
    coords: Vec<Vec<u32>>,
    sigma: f64,
    policy: SelectionPolicy,
    /// Rows a warm start replayed into the cache (0 for cold runs);
    /// warm-up tops up the difference instead of reading that many more.
    seeded: u64,
    /// This run's degradation context: the read ladder in front of row
    /// ingestion and the Sample fault site (inert without an injector —
    /// the hooks consume no randomness).
    res: ResCtx,
    /// Run seed and pinned table version, stamped into snapshots and
    /// exact admissions so the semantic cache can invalidate or repair
    /// them after appends.
    seed: u64,
    version: u64,
}

impl<'a> ShardWorker<'a> {
    /// Worker number `worker` of a team sharing `cache`, `pool` and the
    /// run `res`; no rows are read yet.
    pub(crate) fn new(
        table: &'a Table,
        query: &'a Query,
        cache: Arc<ShardedSampleCache>,
        config: &HolisticConfig,
        pool: Arc<MorselPool>,
        worker: usize,
        res: &ResCtx,
    ) -> Self {
        ShardWorker {
            table,
            query,
            cache,
            scanner: table.scan_pooled(pool, query.measure()),
            rng: StdRng::seed_from_u64(
                config.seed ^ 0x9e37_79b9_7f4a_7c15 ^ (worker as u64).wrapping_mul(WORKER_STREAM),
            ),
            scratch: ResampleScratch::new(),
            path: Vec::new(),
            batch: IngestBatch::new(query.n_aggregates()),
            aggs: Vec::new(),
            coords: (0..query.n_aggregates() as u32)
                .map(|agg| query.layout().coords_of_agg(agg))
                .collect(),
            sigma: SIGMA_FALLBACK,
            policy: config.policy,
            seeded: 0,
            res: res.clone(),
            seed: config.seed,
            version: table.version(),
        }
    }

    /// A team of one over its own fresh cache and morsel pool, outside
    /// any engine's run (tests and tools).
    pub fn solo(table: &'a Table, query: &'a Query, config: &HolisticConfig) -> Self {
        ShardWorker::solo_in(table, query, config, &ResCtx::inert())
    }

    /// [`ShardWorker::solo`] inside the run `res`.
    pub(crate) fn solo_in(
        table: &'a Table,
        query: &'a Query,
        config: &HolisticConfig,
        res: &ResCtx,
    ) -> Self {
        let cache = ShardedSampleCache::new(query.n_aggregates(), table.row_count() as u64)
            .with_resample_size(config.resample_size);
        let pool = table.morsel_pool(config.seed);
        ShardWorker::new(table, query, Arc::new(cache), config, pool, 0, res)
    }

    /// Fix σ for this run (see [`calibrated_sigma`]).
    pub fn set_sigma(&mut self, sigma: f64) {
        self.sigma = sigma;
    }

    /// Warm-start this worker's team from a [`SampleSnapshot`] of the
    /// same scope, seed and table version: replay exactly the rows the
    /// snapshot names from the pinned revision into the shared cache, then
    /// resume the shared morsel pool past them and shrink this worker's
    /// warm-up target accordingly. The donor's thread count is irrelevant
    /// — progress describes the consumed set of the scan order itself. A
    /// version-stale snapshot describes a different scan order; repair it
    /// first (see `voxolap_engine::repair`). Call before any row is read.
    ///
    /// The replay is a read like any other: it takes the
    /// [`ShardWorker::ingest_rows`] path, read ladder included. Returns the
    /// rows it delivered — all the snapshot names, or none when the ladder
    /// refused the read, in which case the run stays cold.
    pub fn warm_start(&mut self, snapshot: &SampleSnapshot) -> u64 {
        debug_assert_eq!(snapshot.version, self.version, "repair stale snapshots first");
        let replay = self.table.scan_consumed(self.seed, self.query.measure(), &snapshot.progress);
        let live = std::mem::replace(&mut self.scanner, replay);
        self.seeded = self.ingest_rows(usize::MAX) as u64;
        self.scanner = live;
        if self.seeded > 0 {
            self.scanner.resume(&snapshot.progress);
        }
        self.seeded
    }

    /// The sample this worker's team holds (a donor's replayed rows plus
    /// its fresh ones) as a semantic-cache snapshot: the shared pool's
    /// scan progress and the shared cache's `nr_read`, whatever their size.
    pub fn take_snapshot(&self) -> SampleSnapshot {
        SampleSnapshot {
            seed: self.seed,
            progress: self.scanner.progress(),
            nr_read: self.cache.nr_read(),
            version: self.version,
            table_rows: self.cache.nr_rows_total(),
        }
    }

    /// Offer a finished run's results to the semantic cache: exact
    /// aggregates when the scan was exhausted (uncapped), and the team's
    /// consumed set as a warm-start snapshot any later team can replay.
    pub(crate) fn admit(&self, sem: &SemanticCache) {
        let key = self.query.key();
        if let Some((counts, sums)) = self.cache.exact_result() {
            sem.admit_exact(&key, self.version, counts, sums);
        }
        sem.admit_snapshot(&key.scope(), self.take_snapshot());
    }

    /// Stream up to `k` rows of this worker's share of the scan into the
    /// cache; returns how many were read.
    pub fn ingest_rows(&mut self, k: usize) -> usize {
        if !self.res.read_allowed() {
            // Breaker open: the run continues on whatever the cache
            // already holds.
            return 0;
        }
        // Batched morsel ingest (DESIGN.md §14): per block, resolve all
        // aggregate codes with the columnar kernel, accumulate into the
        // thread-local batch, and group-commit once — one shared-counter
        // add and at most one bucket lock per touched aggregate per
        // block, instead of per row.
        let layout = self.query.layout();
        let mut read = 0;
        while read < k {
            let Some(block) = self.scanner.next_block(k - read) else { break };
            layout.agg_of_block(block.dims, block.rows, &mut self.aggs);
            for (i, &r) in block.rows.iter().enumerate() {
                self.batch.push_resolved(self.aggs[i], block.values[r as usize]);
            }
            self.cache.observe_batch(&mut self.batch);
            read += block.rows.len();
        }
        read
    }

    /// Read rows until an overall estimate of the query's **typical
    /// per-aggregate value** exists (at least `min_rows` in any case), then
    /// return it — the seed for baseline candidates. For AVG this is the
    /// scope mean; for COUNT/SUM the scope total divided by the number of
    /// result aggregates (the maximum-entropy uniform split, matching the
    /// baseline's semantics of "a value typical for the result"). `None`
    /// only when the entire table is exhausted without any in-scope row for
    /// an AVG query.
    ///
    /// For rare-event AVG measures (e.g. 0/1 cancellation flags) an early
    /// estimate of exactly 0 spans no baseline value grid, so warm-up keeps
    /// reading (bounded by 50× `min_rows`) until the estimate turns
    /// non-zero or the table is exhausted.
    pub fn warmup(&mut self, min_rows: usize) -> Option<f64> {
        let n_aggs = self.query.n_aggregates() as f64;
        let per_aggregate = |est: f64, fct: AggFct| match fct {
            AggFct::Avg => est,
            _ => est / n_aggs,
        };
        // A warm-started cache already holds `seeded` rows' worth of
        // signal; only the deficit is read, so a cold run (`seeded == 0`)
        // is untouched by warm-start support.
        self.ingest_rows(min_rows.saturating_sub(self.seeded as usize));
        let est = loop {
            if let Some(est) = self.cache.overall_estimate(self.query.fct()) {
                break est;
            }
            if self.ingest_rows(64) == 0 {
                return self
                    .cache
                    .overall_estimate(self.query.fct())
                    .map(|e| per_aggregate(e, self.query.fct()));
            }
        };
        if est != 0.0 || self.query.fct() != AggFct::Avg {
            return Some(per_aggregate(est, self.query.fct()));
        }
        let budget = min_rows.saturating_mul(50);
        while self.scanner.rows_read() < budget {
            if self.ingest_rows(256) == 0 {
                break;
            }
            match self.cache.overall_estimate(self.query.fct()) {
                Some(e) if e != 0.0 => return Some(e),
                _ => {}
            }
        }
        self.cache.overall_estimate(self.query.fct())
    }

    /// One sampling iteration (`ST.Sample`): ingest a few rows, pick an
    /// eligible aggregate, estimate its value from the cache, descend the
    /// tree from `from`, reward the path by the probability the leaf
    /// speech's belief assigns to the estimate, and update statistics.
    /// `use_vloss` selects the virtual-loss descent that spreads
    /// concurrent workers across the tree.
    ///
    /// Returns the observed reward (0 when nothing was evaluable yet, or
    /// the iteration faulted — the caller still counts it).
    pub fn sample_once(&mut self, tree: &SpeechTree, from: NodeId, use_vloss: bool) -> f64 {
        if self.res.sample_faulted() {
            return 0.0;
        }
        self.ingest_rows(ROWS_PER_ITERATION);

        let Some(agg) = self.cache.pick_aggregate(self.query.fct(), &mut self.rng) else {
            return 0.0;
        };
        let Some(estimate) = self.cache.estimate_with(agg, &mut self.rng, &mut self.scratch) else {
            return 0.0;
        };
        let est = estimate.value(self.query.fct());

        let t = tree.tree();
        let path = &mut self.path;
        match self.policy {
            SelectionPolicy::Uct if use_vloss => {
                t.select_path_vloss_into(from, &mut self.rng, path)
            }
            SelectionPolicy::Uct => t.select_path_into(from, &mut self.rng, path),
            SelectionPolicy::UniformRandom => t.random_path_into(from, &mut self.rng, path),
        }
        let leaf = *path.last().expect("a descent starts at `from`");
        let reward = if est.is_finite() {
            let mean = tree.mean_for(leaf, &self.coords[agg as usize]);
            let (lo, hi) = rounding_bucket(est, self.sigma / 10.0);
            Normal::new(mean, self.sigma).prob_interval(lo, hi)
        } else {
            0.0
        };
        if use_vloss && self.policy == SelectionPolicy::Uct {
            t.update_path_vloss(path, reward);
        } else {
            t.update_path(path, reward);
        }
        reward
    }

    /// Fresh rows this worker streamed (a warm-start prefix excluded).
    pub fn rows_read(&self) -> u64 {
        self.scanner.rows_read() as u64
    }

    /// The sample cache this worker feeds.
    pub fn cache(&self) -> &ShardedSampleCache {
        &self.cache
    }

    /// The query this worker samples for.
    pub fn query(&self) -> &'a Query {
        self.query
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;
    use voxolap_engine::repair::repair_snapshot;
    use voxolap_speech::candidates::{CandidateConfig, CandidateGenerator};
    use voxolap_speech::constraints::SpeechConstraints;
    use voxolap_speech::render::Renderer;

    use crate::holistic::tests::echo_rows;

    fn setup() -> (voxolap_data::Table, Query) {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        (table, q)
    }

    /// The paper's resample size of 10.
    fn config(seed: u64) -> HolisticConfig {
        HolisticConfig {
            seed,
            resample_size: voxolap_engine::resample::DEFAULT_RESAMPLE_SIZE,
            ..HolisticConfig::default()
        }
    }

    #[test]
    fn warmup_produces_overall_estimate() {
        let (table, q) = setup();
        let mut worker = ShardWorker::solo(&table, &q, &config(7));
        let est = worker.warmup(50).unwrap();
        assert!(est > 60.0 && est < 130.0, "estimate {est}");
        assert!(worker.rows_read() >= 50);
    }

    #[test]
    fn sigma_calibration_halves_mean() {
        assert_eq!(calibrated_sigma(88.0, None), 44.0);
        assert_eq!(calibrated_sigma(88.0, Some(10.0)), 10.0);
        assert_eq!(calibrated_sigma(0.0, None), SIGMA_FALLBACK);
    }

    #[test]
    fn sampling_prefers_truthful_baselines() {
        let (table, q) = setup();
        let schema = table.schema();
        let gen = CandidateGenerator::new(schema, &q, CandidateConfig::default());
        let renderer = Renderer::new(schema, &q);
        // Baseline-only tree so the test isolates baseline selection.
        let constraints = SpeechConstraints { max_chars: 300, max_refinements: 0 };
        let mut worker = ShardWorker::solo(&table, &q, &config(11));
        let overall = worker.warmup(100).unwrap();
        worker.set_sigma(calibrated_sigma(overall, None));
        let tree = SpeechTree::build(&gen, &renderer, &constraints, overall, 100_000);
        for _ in 0..4000 {
            worker.sample_once(&tree, SpeechTree::ROOT, false);
        }
        let best = tree.tree().best_child(SpeechTree::ROOT).unwrap();
        let speech = tree.speech_at(best);
        // The true grand mean is ~88-92; UCT must settle near it.
        assert!(
            (80.0..=100.0).contains(&speech.baseline.value),
            "picked baseline {}",
            speech.baseline.value
        );
        assert_eq!(tree.tree().visits(SpeechTree::ROOT), 4000);
    }

    /// An 8-row salary table and an AVG query filtered to a start-salary
    /// bin no row falls in.
    fn empty_scope() -> (voxolap_data::Table, Query) {
        let table = SalaryConfig { rows: 8, seed: 1 }.generate();
        let schema = table.schema();
        let start = schema.dimension(DimId(1));
        let bin = start
            .leaves()
            .iter()
            .copied()
            .find(|&bin| !(0..table.row_count()).any(|row| table.member_at(DimId(1), row) == bin))
            .expect("8 rows leave a start-salary bin empty");
        let q = Query::builder(AggFct::Avg)
            .filter(DimId(1), bin)
            .group_by(DimId(0), LevelId(1))
            .build(schema)
            .unwrap();
        (table, q)
    }

    #[test]
    fn sample_before_any_row_is_harmless_for_avg() {
        let (table, q) = empty_scope();
        let schema = table.schema();
        let gen = CandidateGenerator::new(schema, &q, CandidateConfig::default());
        let renderer = Renderer::new(schema, &q);
        let constraints = SpeechConstraints::paper_default();
        // The iteration reads rows, but none is in scope, so the cache
        // stays empty: AVG has no eligible aggregate and the reward must be
        // 0 without panicking.
        let mut worker = ShardWorker::solo(&table, &q, &config(3));
        let tree = SpeechTree::build(&gen, &renderer, &constraints, 88.0, 10_000);
        let r = worker.sample_once(&tree, SpeechTree::ROOT, false);
        assert_eq!(r, 0.0);
        assert!(worker.rows_read() > 0 && worker.cache().nonempty_count() == 0);
    }

    /// The oracle a warm-started cache is judged against: per aggregate,
    /// the sorted values of every row `snap` names in `table`, by brute
    /// force over the scan order's reference definition.
    fn named_values(table: &Table, q: &Query, snap: &SampleSnapshot) -> Vec<Vec<f64>> {
        let order = table.scan_order(snap.seed);
        let mut per_agg = vec![Vec::new(); q.n_aggregates()];
        for (pos, &done) in snap.progress.iter().enumerate() {
            for rank in 0..done {
                let row = order.row_at(pos, rank);
                if let Some(agg) = q.layout().agg_of_row(&table.row_members(row)) {
                    per_agg[agg as usize].push(table.measure_value(q.measure(), row));
                }
            }
        }
        per_agg.iter_mut().for_each(|v| v.sort_by(f64::total_cmp));
        per_agg
    }

    /// Warm-start a solo worker from `snap` and check its cache holds
    /// exactly the rows the snapshot names: same `nr_read`, same count and
    /// same values (hence sums) per aggregate.
    fn warm_cache_holds_the_named_rows<'a>(
        table: &'a Table,
        q: &'a Query,
        snap: &SampleSnapshot,
    ) -> ShardWorker<'a> {
        // A resample that large copies the bucket out verbatim.
        let cfg = HolisticConfig { resample_size: usize::MAX, ..config(snap.seed) };
        let mut warm = ShardWorker::solo(table, q, &cfg);
        assert_eq!(warm.warm_start(snap), snap.nr_read, "the replay delivers the whole set");
        assert_eq!(warm.cache().nr_read(), snap.nr_read);
        assert_eq!(warm.rows_read(), 0, "replayed rows are not fresh reads");
        let mut scratch = ResampleScratch::new();
        let mut rng = StdRng::seed_from_u64(0);
        for (agg, want) in named_values(table, q, snap).iter().enumerate() {
            assert_eq!(warm.cache().seen(agg as u32), want.len() as u64, "agg {agg}");
            let mut got = warm.cache().resample_into(agg as u32, &mut rng, &mut scratch).to_vec();
            got.sort_by(f64::total_cmp);
            assert_eq!(&got, want, "agg {agg}");
        }
        warm
    }

    #[test]
    fn warm_started_core_matches_cold_start_estimates_over_seeds() {
        // Property behind warm starts: a worker that replayed a donor's
        // snapshot and a cold worker that streamed the same prefix itself
        // must hold bit-identical caches, hence identical estimates under
        // identical estimator RNG streams.
        let (table, q) = setup();
        for seed in [3u64, 7, 11, 19, 23] {
            let cfg = config(seed);
            let mut donor = ShardWorker::solo(&table, &q, &cfg);
            donor.ingest_rows(80);
            let snap = donor.take_snapshot();
            assert_eq!(snap.nr_read, 80);

            let mut warm = ShardWorker::solo(&table, &q, &cfg);
            warm.warm_start(&snap);
            let mut cold = ShardWorker::solo(&table, &q, &cfg);
            cold.ingest_rows(80);
            warm.ingest_rows(60);
            cold.ingest_rows(60);
            assert_eq!(warm.cache().nr_read(), cold.cache().nr_read());
            assert_eq!(warm.rows_read(), 60, "only fresh rows count as read");
            let mut scratch = ResampleScratch::new();
            for agg in 0..q.n_aggregates() as u32 {
                assert_eq!(warm.cache().size(agg), cold.cache().size(agg));
                let mut rng_w = StdRng::seed_from_u64(seed ^ 0x77);
                let mut rng_c = StdRng::seed_from_u64(seed ^ 0x77);
                assert_eq!(
                    warm.cache().estimate_with(agg, &mut rng_w, &mut scratch),
                    cold.cache().estimate_with(agg, &mut rng_c, &mut scratch),
                    "seed {seed} agg {agg}"
                );
            }

            // A repaired donor (table grown by 25 %) has no cold twin — a
            // cold prefix of the grown table holds no appended row — so it
            // is judged against the rows its progress vector names.
            let (grown, _) = table.append_rows(&echo_rows(&table, 80)).unwrap();
            let scope = q.key().scope();
            let repaired = repair_snapshot(&snap, &grown, &scope).expect("repairable").snapshot;
            assert_eq!(repaired.progress, [80, 20], "donor prefix + round(80 * 80/320)");
            warm_cache_holds_the_named_rows(&grown, &q, &repaired);
        }
    }

    #[test]
    fn warm_start_replays_a_two_thread_donors_ragged_frontier() {
        // Two workers on one pool leave partial watermarks on two chunk
        // positions at once; the replay must deliver exactly that set and
        // the resumed scan exactly its complement.
        let table = SalaryConfig { rows: 200_000, seed: 42 }.generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .build(table.schema())
            .unwrap();
        let cfg = config(13);
        let cache = Arc::new(ShardedSampleCache::new(q.n_aggregates(), 200_000));
        let pool = table.morsel_pool(cfg.seed);
        let res = ResCtx::inert();
        let mut team: Vec<ShardWorker<'_>> = (0..2)
            .map(|w| ShardWorker::new(&table, &q, cache.clone(), &cfg, pool.clone(), w, &res))
            .collect();
        team[0].ingest_rows(70_000);
        team[1].ingest_rows(30_000);
        let snap = team[0].take_snapshot();
        assert_eq!(snap.progress, [65_536, 4_464, 30_000]);
        assert_eq!(snap.nr_read, 100_000);

        let mut warm = warm_cache_holds_the_named_rows(&table, &q, &snap);
        assert_eq!(warm.ingest_rows(usize::MAX), 100_000, "the resumed scan is the complement");
    }

    #[test]
    fn warm_start_shrinks_warmup_reads() {
        let (table, q) = setup();
        let cfg = config(5);
        let mut donor = ShardWorker::solo(&table, &q, &cfg);
        donor.ingest_rows(120);
        let snap = donor.take_snapshot();

        let mut warm = ShardWorker::solo(&table, &q, &cfg);
        warm.warm_start(&snap);
        let warm_est = warm.warmup(150).unwrap();
        let mut cold = ShardWorker::solo(&table, &q, &cfg);
        let cold_est = cold.warmup(150).unwrap();
        assert!(
            warm.rows_read() < cold.rows_read(),
            "warm start reads fewer fresh rows ({} vs {})",
            warm.rows_read(),
            cold.rows_read()
        );
        // Both warmed caches cover the same 150-row prefix of the same
        // seeded scan, so the overall estimates coincide.
        assert_eq!(warm_est, cold_est);
    }

    #[test]
    fn warmup_on_empty_scope_returns_none_for_avg() {
        // No row is in scope — warmup must exhaust the table and give up
        // gracefully.
        let (table, q) = empty_scope();
        let mut worker = ShardWorker::solo(&table, &q, &config(2));
        assert_eq!(worker.warmup(4), None);
    }
}
