//! The planning team: row streaming into the sample cache, warm-up, and
//! the speech-evaluation sampling loop (`ST.Sample`, combining Algorithms
//! 2 and 3).
//!
//! Every sampled plan — the holistic engine's rounds, Unmerged's budget,
//! the throughput measure and the reward diagnostic — opens one [`Team`]
//! and runs its one loop, [`Team::sample`]; they differ only in the stop
//! test they pass it (the voice, a budget, a duration, an iteration count)
//! and in how many workers share the team's cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use voxolap_belief::normal::Normal;
use voxolap_data::table::RowScanner;
use voxolap_data::{MorselPool, Table};
use voxolap_engine::query::{AggFct, Query};
use voxolap_engine::semantic::{SampleSnapshot, SemanticCache};
use voxolap_engine::sharded::{IngestBatch, Posterior, ShardedSampleCache};
use voxolap_faults::RunState;
use voxolap_mcts::NodeId;

use crate::holistic::HolisticConfig;
use crate::pipeline::cancel::CancelToken;
use crate::resilience::{round_status, ResCtx, RoundEnd};
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

/// One draw of an aggregate's `fct` value from the cache's posterior: x̄
/// perturbed by `N(0, se)` (Box–Muller), `ê_C` × that for SUM, and `ê_C`
/// itself for COUNT, which consumes no randomness. A point posterior
/// (`se` = 0: under two values, or the whole scope read) is its mean.
/// `NaN` for the AVG of an empty bucket; the SUM of one is 0.
pub fn draw_estimate<R: rand::Rng + ?Sized>(post: &Posterior, fct: AggFct, rng: &mut R) -> f64 {
    if fct == AggFct::Count {
        return post.count;
    }
    let avg = if post.se > 0.0 { Normal::new(post.mean, post.se).sample(rng) } else { post.mean };
    match fct {
        AggFct::Sum if post.n == 0 => 0.0,
        AggFct::Sum => post.count * avg,
        _ => avg,
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
/// over the sample cache and speech tree of its [`Team`].
pub(crate) struct ShardWorker<'a> {
    table: &'a Table,
    query: &'a Query,
    cache: Arc<ShardedSampleCache>,
    scanner: RowScanner<'a>,
    rng: StdRng,
    /// Reused descent path — keeps the iteration allocation-free.
    path: Vec<NodeId>,
    /// Thread-local morsel accumulator for the group-commit ingest path
    /// (`ShardedSampleCache::observe_batch`, DESIGN.md §14).
    batch: IngestBatch,
    /// Reused per-block aggregate-code buffer for the columnar kernel.
    aggs: Vec<u32>,
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
    fn new(
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
            path: Vec::new(),
            batch: IngestBatch::new(query.n_aggregates()),
            aggs: Vec::new(),
            policy: config.policy,
            seeded: 0,
            res: res.clone(),
            seed: config.seed,
            version: table.version(),
        }
    }

    /// The one worker of a fresh one-member team.
    #[cfg(test)]
    pub(crate) fn solo(table: &'a Table, query: &'a Query, config: &HolisticConfig) -> Self {
        Team::new(table, query, config, 1).workers.remove(0)
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
    pub(crate) fn warm_start(&mut self, snapshot: &SampleSnapshot) -> u64 {
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
    pub(crate) fn take_snapshot(&self) -> SampleSnapshot {
        SampleSnapshot {
            seed: self.seed,
            progress: self.scanner.progress(),
            nr_read: self.cache.nr_read(),
            version: self.version,
            table_rows: self.cache.nr_rows_total(),
        }
    }

    /// Stream up to `k` rows of this worker's share of the scan into the
    /// cache; returns how many were read.
    pub(crate) fn ingest_rows(&mut self, k: usize) -> usize {
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
    pub(crate) fn warmup(&mut self, min_rows: usize) -> Option<f64> {
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
    /// eligible aggregate, draw its value from the cache's posterior
    /// ([`draw_estimate`]), descend the tree from `from`, and update the
    /// path's statistics with the [`SpeechTree::reward`] the leaf speech
    /// earns for that estimate. A team's workers run it concurrently on
    /// one tree: a reward is a fresh posterior draw, so two workers on one
    /// path still collect independent rewards.
    ///
    /// Returns the observed reward (0 when nothing was evaluable yet, or
    /// the iteration faulted — the caller still counts it).
    pub(crate) fn sample_once(&mut self, tree: &SpeechTree, from: NodeId) -> f64 {
        if self.res.sample_faulted() {
            return 0.0;
        }
        self.ingest_rows(ROWS_PER_ITERATION);

        let Some(agg) = self.cache.pick_aggregate(self.query.fct(), &mut self.rng) else {
            return 0.0;
        };
        let Some(posterior) = self.cache.posterior(agg) else {
            return 0.0;
        };
        let est = draw_estimate(&posterior, self.query.fct(), &mut self.rng);

        let t = tree.tree();
        let path = &mut self.path;
        match self.policy {
            SelectionPolicy::Uct => t.select_path_into(from, &mut self.rng, path),
            SelectionPolicy::UniformRandom => t.random_path_into(from, &mut self.rng, path),
        }
        let leaf = *path.last().expect("a descent starts at `from`");
        let reward = tree.reward(leaf, agg, est);
        t.update_path(path, reward);
        reward
    }

    /// Fresh rows this worker streamed (a warm-start prefix excluded).
    #[cfg(test)]
    pub(crate) fn rows_read(&self) -> u64 {
        self.scanner.rows_read() as u64
    }

    /// The sample cache this worker feeds.
    #[cfg(test)]
    pub(crate) fn cache(&self) -> &ShardedSampleCache {
        &self.cache
    }
}

/// The workers of one sampled plan: `threads` `ShardWorker`s that claim
/// whole morsels of the seeded scan order from one shared pool — so the
/// union of their prefixes stays a uniform sample, and one worker drains
/// it in exactly the seeded order — into one [`ShardedSampleCache`]. The
/// cache carries the run's fault injector, so every sampled approach rolls
/// the same `CacheShard` site. Worker 0 leads: it replays a warm start,
/// warms up, and admits the run to the semantic cache.
pub struct Team<'a> {
    /// Worker 0 first; crate code that drives the members itself (the
    /// ingest measure) reaches them here.
    pub(crate) workers: Vec<ShardWorker<'a>>,
    cache: Arc<ShardedSampleCache>,
    res: ResCtx,
}

impl<'a> Team<'a> {
    /// A team of `threads` workers (at least one) outside any engine's
    /// run: no injector, no deadline (tools and measures).
    pub fn new(
        table: &'a Table,
        query: &'a Query,
        config: &HolisticConfig,
        threads: usize,
    ) -> Self {
        Team::in_run(table, query, config, threads, ResCtx::inert())
    }

    /// A team of `threads` workers (at least one) inside the run `res`: its
    /// reads walk the run's ladder and its cache rolls the run's injector.
    pub(crate) fn in_run(
        table: &'a Table,
        query: &'a Query,
        config: &HolisticConfig,
        threads: usize,
        res: ResCtx,
    ) -> Self {
        let mut cache = ShardedSampleCache::new(query.n_aggregates(), table.row_count() as u64);
        if let Some(inj) = res.bundle.injector() {
            cache = cache.with_faults(inj.clone(), res.bundle.stats().clone());
        }
        let cache = Arc::new(cache);
        let pool = table.morsel_pool(config.seed);
        let workers = (0..threads.max(1))
            .map(|w| ShardWorker::new(table, query, cache.clone(), config, pool.clone(), w, &res))
            .collect();
        Team { workers, cache, res }
    }

    /// [`ShardWorker::warm_start`] on the lead worker.
    pub(crate) fn warm_start(&mut self, snapshot: &SampleSnapshot) -> u64 {
        self.workers[0].warm_start(snapshot)
    }

    /// `ShardWorker::warmup` on the lead worker, whose prefix of the
    /// shared scan is a uniform sample of the table.
    pub fn warmup(&mut self, min_rows: usize) -> Option<f64> {
        self.workers[0].warmup(min_rows)
    }

    /// Offer the finished run to the semantic cache: exact aggregates when
    /// the scan was exhausted (uncapped), and the team's consumed set as a
    /// warm-start snapshot any later team can replay.
    pub(crate) fn admit(&self, sem: &SemanticCache) {
        let lead = &self.workers[0];
        let key = lead.query.key();
        if let Some((counts, sums)) = self.cache.exact_result() {
            sem.admit_exact(&key, lead.version, counts, sums);
        }
        sem.admit_snapshot(&key.scope(), lead.take_snapshot());
    }

    /// Sample the tree below `from` while `more(done)` holds, `done` being
    /// the iterations the team ran in this call; returns that count. Every
    /// member — the calling thread, and N − 1 scoped threads — runs one
    /// loop on one shared counter.
    ///
    /// Each iteration asks the round status *first*: a gone client stops
    /// the loop, and a passed deadline or an exhausted fault budget stops
    /// it too, marking the run degraded (see `resilience::round_status`).
    /// That order fixes the sequence in which `more` is asked — and so, at
    /// one thread, the iteration count — under a seed. The counter is
    /// `Relaxed`: it publishes no data (the tree and cache synchronise
    /// themselves, and the scope's join orders the caller after every
    /// member), and a member that reads it one step late runs one more
    /// iteration.
    pub fn sample(
        &mut self,
        tree: &SpeechTree,
        from: NodeId,
        more: impl Fn(u64) -> bool + Sync,
        cancel: &CancelToken,
    ) -> u64 {
        let at_root = from == SpeechTree::ROOT;
        let at_leaf = tree.tree().is_leaf(from);
        let run = &*self.res.run;
        let done = AtomicU64::new(0);
        let member = &|worker: &mut ShardWorker<'a>| {
            while round_status(cancel, run, at_root, at_leaf) == RoundEnd::Continue
                && more(done.load(Ordering::Relaxed))
            {
                worker.sample_once(tree, from);
                done.fetch_add(1, Ordering::Relaxed);
            }
        };
        let (lead, team) = self.workers.split_first_mut().expect("a team has a member");
        std::thread::scope(|scope| {
            for worker in team {
                scope.spawn(move || member(worker));
            }
            member(lead);
        });
        done.into_inner()
    }

    /// The sample cache the team feeds.
    pub(crate) fn cache(&self) -> &ShardedSampleCache {
        &self.cache
    }

    /// The query the team samples for.
    pub(crate) fn query(&self) -> &'a Query {
        self.workers[0].query
    }

    /// The degrade state of the team's run.
    pub(crate) fn run(&self) -> &RunState {
        &self.res.run
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

    fn config(seed: u64) -> HolisticConfig {
        HolisticConfig { seed, ..HolisticConfig::default() }
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
        let tree = SpeechTree::build(&gen, &renderer, &constraints, overall, 100_000);
        for _ in 0..4000 {
            worker.sample_once(&tree, SpeechTree::ROOT);
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
        let r = worker.sample_once(&tree, SpeechTree::ROOT);
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
    /// exactly the rows the snapshot names: same `nr_read`, and per
    /// aggregate the same count, and the sum and variance of the same
    /// values up to the order they were added in.
    fn warm_cache_holds_the_named_rows<'a>(
        table: &'a Table,
        q: &'a Query,
        snap: &SampleSnapshot,
    ) -> ShardWorker<'a> {
        let mut warm = ShardWorker::solo(table, q, &config(snap.seed));
        assert_eq!(warm.warm_start(snap), snap.nr_read, "the replay delivers the whole set");
        assert_eq!(warm.cache().nr_read(), snap.nr_read);
        assert_eq!(warm.rows_read(), 0, "replayed rows are not fresh reads");
        for (agg, want) in named_values(table, q, snap).iter().enumerate() {
            assert_eq!(warm.cache().seen(agg as u32), want.len() as u64, "agg {agg}");
            let got = warm.cache().moments(agg as u32);
            assert_eq!(got.n(), want.len() as u64, "agg {agg}");
            let n = want.len() as f64;
            let sum: f64 = want.iter().sum();
            let var = want.iter().map(|v| (v - sum / n).powi(2)).sum::<f64>() / (n - 1.0);
            assert!((got.sum() - sum).abs() <= 1e-12 * sum.abs(), "agg {agg}: sum");
            if want.len() >= 2 {
                assert!((got.variance() - var).abs() <= 1e-9 * var, "agg {agg}: variance");
            }
        }
        warm
    }

    #[test]
    fn warm_started_core_matches_cold_start_estimates_over_seeds() {
        // Property behind warm starts: a worker that replayed a donor's
        // snapshot and a cold worker that streamed the same prefix itself
        // must hold bit-identical moments, hence identical posteriors.
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
            for agg in 0..q.n_aggregates() as u32 {
                assert_eq!(warm.cache().size(agg), cold.cache().size(agg));
                let (w, c) = (warm.cache().moments(agg), cold.cache().moments(agg));
                assert_eq!(w.bits(), c.bits(), "seed {seed} agg {agg}");
                assert_eq!(warm.cache().posterior(agg), cold.cache().posterior(agg));
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
        let mut team = Team::new(&table, &q, &config(13), 2).workers;
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
    fn posterior_draws_are_calibrated() {
        // From a fixed cache state — 120 of 320 rows read — 10 000 draws
        // have mean x̄ and standard deviation se, each within 4σ of its own
        // sampling error.
        let (table, q) = setup();
        let mut worker = ShardWorker::solo(&table, &q, &config(5));
        worker.ingest_rows(120);
        let agg = (0..q.n_aggregates() as u32).max_by_key(|&a| worker.cache().size(a)).unwrap();
        let post = worker.cache().posterior(agg).unwrap();
        assert!(post.n >= 2 && post.se > 0.0, "{post:?}");
        let mut rng = StdRng::seed_from_u64(99);
        let k = 10_000;
        let draws: Vec<f64> = (0..k).map(|_| draw_estimate(&post, AggFct::Avg, &mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / k as f64;
        let sd = (draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (k - 1) as f64).sqrt();
        let k = k as f64;
        assert!((mean - post.mean).abs() <= 4.0 * post.se / k.sqrt(), "{mean} vs {}", post.mean);
        assert!((sd - post.se).abs() <= 4.0 * post.se / (2.0 * k).sqrt(), "{sd} vs {}", post.se);
        // COUNT is deterministic, SUM scales the AVG draw by ê_C.
        let mut twin = StdRng::seed_from_u64(7);
        assert_eq!(draw_estimate(&post, AggFct::Count, &mut rng), post.count);
        let sum = draw_estimate(&post, AggFct::Sum, &mut StdRng::seed_from_u64(7));
        assert_eq!(sum, post.count * draw_estimate(&post, AggFct::Avg, &mut twin));

        // The whole table read: se is 0 and every draw is the exact mean.
        worker.ingest_rows(usize::MAX);
        let full = worker.cache().posterior(agg).unwrap();
        assert_eq!(full.se, 0.0);
        assert_eq!(draw_estimate(&full, AggFct::Avg, &mut rng), full.mean);
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
